"""Sampling estimator for the definitional condition numbers.

The definition is a limit of suprema: over perturbed inputs with relative
error at most delta, take the worst ratio of output to input relative error,
then let delta -> 0.  This module realizes it directly: for each delta in a
decreasing schedule it places perturbations uniformly on the delta-sphere of
the chosen input error model, pushes them through the exact map (LU solve /
inverse in binary64), and records the supremum ratio.

Everything that does not depend on delta is built once per estimate: the LU
factors of A and from them A^-1 and the exact output (A^-1 or A^-1 b),
||A||_rs, the reference norms that divide the output errors, and the sample
directions.  The closed form and the worst direction read A^-1, ||A||_rs and
||A^-1||_sr from the same instance, and so does the reference norm of the
exact inverse, so A is factored once and ||A^-1||_sr enumerated at most
once per estimate.  The directions are drawn from the keys of the first
delta and normalized once; every delta rescales the same directions onto
its own sphere (common random numbers), so the first delta of any schedule
gets the bits of a one-delta schedule.  A sample whose perturbed matrix
is singular is redrawn from keys of its own delta and attempt.

The keys depend only on the seed, the sample index and the block, not on
the problem kind or on (r, s), so estimates with equal keys share their
directions as well: a memo keyed on the keys and the shape drawn keeps the
read-only draw and its normwise norms.  The rescaling is the same
expression on the same values, so every report keeps its bits.  The memo
is bounded: it keeps the last 4 draws and none larger than 2^20 values.
Four is enough because a sweep over every kind and pair of one instance
touches three draws (the matrix block of inversion, solve_fixed_b and
solve_both; the vectors of matvec and solve_fixed_a; the right-hand-side
block of solve_both), and few enough that the next instance's draws evict
them, so nothing is kept for long.

Random sampling alone systematically under-covers a sup over a
high-dimensional sphere, so for every problem kind the estimator also
evaluates one analytically worst direction built from norm attainers and
the rank-one interpolator (for inversion this is exactly the construction
from the lower-bound half of the equality cond = kappa).  That direction is
built once as well, and only its length follows delta.  The reported
estimate is the max of sampled and directional ratios at the smallest
delta; no extrapolation is applied.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rng
from .conditioning import (
    _extremal_pair,
    _Operand,
    condition_closed_form,
    problem_kind,
)
from .errors import DeltaTooLarge, SingularMatrix, ZeroComponent, ZeroVector
from .linalg import (
    DEFAULT_PIVOT_TOL,
    _lu_raw,
    _lu_solve_packed,
    as_square,
    invert,
    solve,
)
from .norms import (
    DEFAULT_MAX_ENUM_DIM,
    norm_index,
    operator_norm,
    operator_norm_values,
    rank_one_interpolator,
    vector_norm,
)

NORMWISE = "normwise"
COMPONENTWISE_MAX = "componentwise_max"
COMPONENTWISE_SUM = "componentwise_sum"


@dataclass(frozen=True)
class ErrorModel:
    """How relative error is measured on an input or output space.

    ``normwise`` uses ||.||_r on vectors and the (r, s) operator norm on
    matrices; the componentwise modes use entrywise ratios combined by max
    or by sum.
    """

    mode: str
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        if self.mode not in (NORMWISE, COMPONENTWISE_MAX, COMPONENTWISE_SUM):
            raise ValueError(f"unknown error model mode {self.mode!r}")


def normwise(r, s=None):
    return ErrorModel(NORMWISE, norm_index(r), None if s is None else norm_index(s))


componentwise_max = ErrorModel(COMPONENTWISE_MAX)
componentwise_sum = ErrorModel(COMPONENTWISE_SUM)


def _relerror_to(x, model, max_enum_dim=DEFAULT_MAX_ENUM_DIM, denom=None):
    """``relerror(., x, model)`` as a function, with the size of ``x`` taken
    once, or given as the normwise ``denom``."""
    x = np.asarray(x, dtype=np.float64)
    if model.mode == NORMWISE:
        if x.ndim >= 2 and model.s is None:
            raise ValueError("matrix normwise error model needs both indices (r, s)")

        def size(v):
            if x.ndim >= 2:
                return operator_norm_values(v, model.r, model.s, max_enum_dim)
            return vector_norm(v, model.r)

        if denom is None:
            denom = size(x)
        if np.any(denom == 0.0):
            raise ZeroVector("relative error of a zero reference is undefined")
        return lambda x_tilde: size(np.asarray(x_tilde, dtype=np.float64) - x) / denom
    if np.any(x == 0.0):
        raise ZeroComponent("componentwise error needs every reference component nonzero")
    scale = np.abs(x)
    axes = tuple(range(-x.ndim, 0))
    combine = np.max if model.mode == COMPONENTWISE_MAX else np.sum
    return lambda x_tilde: combine(
        np.abs(np.asarray(x_tilde, dtype=np.float64) - x) / scale, axis=axes
    )


def relerror(x_tilde, x, model, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """Relative error of ``x_tilde`` against reference ``x`` under ``model``.

    Works on vectors and matrices; batched over leading dimensions (the
    reference broadcasts against the perturbed stack).  ``max_enum_dim``
    gates the matrix norms that need sign enumeration.
    """
    return _relerror_to(x, model, max_enum_dim)(x_tilde)


def _worst_inversion_direction(op, r, s):
    """B with ||B||_rs = 1 sending x = A^-1 y / ||A^-1 y||_r to the attainer y
    of ||A^-1||_sr, for the matrix A of the operand ``op``."""
    _, y, w = _extremal_pair(op.a, r, s, op.max_enum_dim, _op=op)
    return rank_one_interpolator(w / vector_norm(w, r), y, r, s)


def _singular_at(delta):
    return DeltaTooLarge(f"A - E is singular at delta={delta:g}")


def _inverse_of_perturbed(a, e, delta):
    """(A - E)^-1, raising DeltaTooLarge when A - E is singular."""
    try:
        return invert(a - e)
    except SingularMatrix:
        raise _singular_at(delta) from None


def worst_inversion_perturbation(a, r, s, delta, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """The perturbation E = delta * B driving inversion at its condition number.

    B is the rank-one interpolator sending x = A^-1 y / ||A^-1 y||_r to the
    attainer y of ||A^-1||_sr, so ||E||_rs = delta and the error ratio of
    the perturbed inverse (A - E)^-1 approaches kappa_rs(A) as delta -> 0.
    """
    r = norm_index(r)
    s = norm_index(s)
    a = as_square(a)
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    e = delta * _worst_inversion_direction(_Operand(a, max_enum_dim), r, s)
    if np.any(_lu_raw(a - e, DEFAULT_PIVOT_TOL)[3]):
        raise _singular_at(delta)
    return e


class _Instance(_Operand):
    """One problem instance with the parts that every delta reuses.

    It owns the LU factors of A, A^-1 and ||A||_rs: the closed form, the
    worst direction and the sphere radius all read them from here.  A is
    factored at most once, by the same ``_lu_raw``/``_lu_solve_packed``
    calls that ``invert`` and ``solve`` make, so A^-1 and the exact output
    (A x, A^-1 or A^-1 b) have their bits.  Matvec needs A^-1 only for the
    kappa and alpha of its closed form, so it factors A only when that asks;
    a singular A then leaves them out, and the estimate goes on.
    """

    def __init__(self, kind, a, vec, r, s, max_enum_dim):
        super().__init__(a, max_enum_dim)
        self.kind, self.vec, self.r, self.s = kind, vec, r, s
        if kind == "matvec":
            self.exact = self.a @ vec
        elif kind == "inversion":
            self.exact = self.inverse
        else:
            self.exact = self.solve(vec[:, None])[:, 0]

    @cached_property
    def factors(self):
        """Packed LU and row permutation of A; raises SingularMatrix."""
        lu, perm, _, singular = _lu_raw(as_square(self.a), DEFAULT_PIVOT_TOL)
        if np.any(singular):
            raise SingularMatrix("matrix is singular within tolerance")
        return lu, perm

    @cached_property
    def inverse(self):
        return self.solve(np.eye(self.a.shape[-1]))

    def solve(self, rhs):
        """A^-1 rhs for a block ``(n, k)`` of right-hand sides."""
        return _lu_solve_packed(*self.factors, rhs)

    def output_error(self, model):
        """``relerror(., exact output, model)`` as a function.  The normwise
        size of the exact inverse is the operand's ||A^-1||, so an estimate
        enumerates ||A^-1||_sr once."""
        denom = None
        if self.kind == "inversion" and model.mode == NORMWISE and model.s is not None:
            denom = self.inverse_norm(model.r, model.s)
        return _relerror_to(self.exact, model, self.max_enum_dim, denom)


def _directional_ratios(inst, input_model, deltas):
    """Exact-map error ratio along the analytically worst direction, for each
    delta in turn.

    ``delta`` is the input *relative* error; the direction construction per
    kind mirrors the closed-form formula it is meant to attain.  The
    direction (attainer or extremal pair, rank-one interpolator, ||A||_rs)
    is built once and only its length follows delta.  For solve_both under
    the blockwise-sum model the same direction is used but the ratio
    divides by the sum of the block errors.
    """
    kind, a, vec, r, s, med = inst.kind, inst.a, inst.vec, inst.r, inst.s, inst.max_enum_dim
    x = inst.exact
    if kind == "matvec":
        att = operator_norm(a, r, s, med).attainer
        xnorm = vector_norm(vec, r)
        err = _relerror_to(x, normwise(s))
        for delta in deltas:
            yield err(a @ (vec + delta * xnorm * att)) / delta
        return
    if kind == "solve_fixed_a":
        _, y, _ = _extremal_pair(a, r, s, med, _op=inst)
        bnorm = vector_norm(vec, s)
        err = _relerror_to(x, normwise(r))
        for delta in deltas:
            yield err(inst.solve((vec + delta * bnorm * y)[:, None])[:, 0]) / delta
        return
    anorm = inst.norm(r, s)
    if kind == "inversion":
        b_mat = _worst_inversion_direction(inst, r, s)
        err = inst.output_error(normwise(s, r))
        for delta in deltas:
            size = delta * anorm
            yield err(_inverse_of_perturbed(a, size * b_mat, size)) / delta
        return
    # solve_fixed_b / solve_both: perturb A towards the kappa-attaining direction
    _, y, _ = _extremal_pair(a, r, s, med, _op=inst)
    b_mat = rank_one_interpolator(x / vector_norm(x, r), y, r, s)
    bnorm = vector_norm(vec, s)
    err = _relerror_to(x, normwise(r))
    # under the blockwise sum both blocks sit on their own delta-sphere
    blocks = 2.0 if input_model.mode == COMPONENTWISE_SUM else 1.0
    for delta in deltas:
        a_tilde = a - delta * anorm * b_mat
        if kind == "solve_fixed_b":
            yield err(solve(a_tilde, vec)) / delta
        else:
            yield err(solve(a_tilde, vec + delta * bnorm * y)) / (blocks * delta)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling schedule for the definitional estimator."""

    deltas: tuple = (1e-4, 1e-5, 1e-6, 1e-7)
    samples_per_delta: int = 1000
    seed: int = 0
    max_attempts: int = 10  # resampling cap when a perturbation crosses the singular set

    def __post_init__(self):
        d = tuple(float(x) for x in self.deltas)
        if not d or any(x <= 0.0 for x in d) or any(a <= b for a, b in zip(d, d[1:])):
            raise ValueError("deltas must be strictly decreasing and positive")
        object.__setattr__(self, "deltas", d)
        if self.samples_per_delta < 1:
            raise ValueError("samples_per_delta must be positive")


@dataclass
class DeltaSample:
    """Worst ratios observed at a single delta."""

    delta: float
    sampled_sup_ratio: float
    directional_ratio: float | None
    resampled: int = 0


@dataclass
class EstimateReport:
    """Per-delta supremum ratios plus the condition estimate at the smallest delta."""

    kind: str
    per_delta: list[DeltaSample] = field(default_factory=list)
    estimate: float = 0.0
    closed_form: float | None = None
    first_order_bound_check: bool | None = None


#: The direction memo keeps at most this many draws, oldest use evicted
#: first, and none of more than ``_MEMO_MAX_VALUES`` values.
_MEMO_DRAWS = 4
_MEMO_MAX_VALUES = 1 << 20
_draws = {}
_draws_lock = threading.Lock()


def _read_only(x):
    x.flags.writeable = False
    return x


def _draw(keys, shape, sample):
    """(the normal draw of ``keys`` of ``shape``, a dict of its norms).

    The draw is read-only and comes from ``sample()`` unless one of the last
    ``_MEMO_DRAWS`` draws had the same keys and shape; the dict is the
    caller's to fill with the draw's read-only normwise norms."""
    memo_key = (keys.tobytes(), keys.shape, shape)
    with _draws_lock:
        entry = _draws.pop(memo_key, None)
        if entry is not None:
            _draws[memo_key] = entry  # most recent last
            return entry
    entry = _read_only(sample()), {}
    if entry[0].size <= _MEMO_MAX_VALUES:
        with _draws_lock:
            _draws[memo_key] = entry
            while len(_draws) > _MEMO_DRAWS:
                del _draws[next(iter(_draws))]
    return entry


def _sphere_vectors(base, deltas, keys, model):
    """Perturbations of a vector on the delta-sphere of ``model``, one per key,
    for each of ``deltas`` in turn: the directions and their norms come from
    the memo, and are rescaled lazily for every delta."""
    g, gnorms = _draw(keys, (base.size,), lambda: rng.standard_normals(keys, base.size))
    if model.mode == NORMWISE:
        if model.r not in gnorms:
            gnorms[model.r] = _read_only(vector_norm(g, model.r))
        ref, gnorm = vector_norm(base, model.r), gnorms[model.r]
        return ((delta * ref / gnorm)[:, None] * g for delta in deltas)
    if np.any(base == 0.0):
        raise ZeroComponent("componentwise perturbation of a zero component")
    if model.mode == COMPONENTWISE_MAX:
        unit = g / np.max(np.abs(g), axis=-1, keepdims=True)
    else:
        unit = g / np.sum(np.abs(g), axis=-1, keepdims=True)
    return (delta * np.abs(base) * unit for delta in deltas)


def _sphere_matrices(op, deltas, keys, model):
    """Perturbations of the matrix of the operand ``op`` on the delta-sphere
    of ``model``, one per key, for each of ``deltas`` in turn: the directions
    and their norms come from the memo, and are rescaled lazily for every
    delta.  The radius reads ||A||_rs from ``op``."""
    base = op.a
    n, m = base.shape
    g, gnorms = _draw(keys, (n, m), lambda: rng.normal_matrix(keys, n, m))
    if model.mode == NORMWISE:
        norm_key = model.r, model.s, op.max_enum_dim
        if norm_key not in gnorms:
            gnorms[norm_key] = _read_only(operator_norm_values(g, *norm_key))
        gnorm = gnorms[norm_key]
        ref = op.norm(model.r, model.s)
        return ((delta * ref / gnorm)[:, None, None] * g for delta in deltas)
    if np.any(base == 0.0):
        raise ZeroComponent("componentwise perturbation of a zero entry")
    flat = np.abs(g.reshape(g.shape[0], -1))
    if model.mode == COMPONENTWISE_MAX:
        unit = g / np.max(flat, axis=1)[:, None, None]
    else:
        unit = g / np.sum(flat, axis=1)[:, None, None]
    return (delta * np.abs(base) * unit for delta in deltas)


def _default_models(kind, r, s):
    input_model = {
        "inversion": normwise(r, s),
        "matvec": normwise(r),
        "solve_fixed_a": normwise(s),
        "solve_fixed_b": normwise(r, s),
        "solve_both": componentwise_max,  # blockwise max over (A in rs, b in s)
    }[kind]
    output_model = {
        "inversion": normwise(s, r),
        "matvec": normwise(s),
        "solve_fixed_a": normwise(r),
        "solve_fixed_b": normwise(r),
        "solve_both": normwise(r),
    }[kind]
    return input_model, output_model


def estimate_condition(
    kind,
    a,
    vec=None,
    r=2,
    s=2,
    input_model=None,
    output_model=None,
    config=None,
    max_enum_dim=DEFAULT_MAX_ENUM_DIM,
):
    """Estimate the definitional condition number of ``kind`` at an instance.

    For each delta the estimator places ``samples_per_delta`` perturbations
    on the input-error sphere, evaluates the exact map, and records the
    supremum ratio together with the ratio along the analytically worst
    direction.  The sample directions and the worst direction are built
    once and rescaled for every delta.  Samples whose perturbed matrix is
    singular are discarded and resampled (their count is reported).  The
    final estimate is the max over the smallest delta's sampled and
    directional ratios.

    For ``solve_both`` the input error is the blockwise componentwise-max
    max(||dA||_rs / ||A||_rs, ||db||_s / ||b||_s); pass
    ``input_model=componentwise_sum`` to combine the blocks by sum instead.
    """
    kind = problem_kind(kind)
    r = norm_index(r)
    s = norm_index(s)
    config = config or EstimatorConfig()
    a = np.asarray(a, dtype=np.float64)
    if kind != "inversion":
        if vec is None:
            raise ValueError(f"{kind} needs a vector argument")
        vec = np.asarray(vec, dtype=np.float64)
        if not np.any(vec != 0.0):
            raise ZeroVector(f"{kind} requires a nonzero vector")
    default_in, default_out = _default_models(kind, r, s)
    input_model = input_model or default_in
    output_model = output_model or default_out

    inst = _Instance(kind, a, vec, r, s, max_enum_dim)
    closed = condition_closed_form(kind, a, vec, r, s, max_enum_dim, _op=inst).value
    report = EstimateReport(kind=kind, closed_form=closed)

    sampled = _sampled_ratios(inst, input_model, output_model, config)
    directional = _directional_ratios(inst, input_model, config.deltas)
    for delta, (ratios, resampled), ratio in zip(config.deltas, sampled, directional):
        report.per_delta.append(DeltaSample(delta, float(np.max(ratios)), float(ratio), resampled))

    last = report.per_delta[-1]
    report.estimate = max(last.sampled_sup_ratio, last.directional_ratio)
    if closed is not None and np.isfinite(closed):
        report.first_order_bound_check = all(
            d.sampled_sup_ratio <= closed * (1.0 + 10.0 * d.delta)
            for d in report.per_delta
        )
    return report


def _input_blocks(kind, input_model, r, s):
    """(matrix model, vector model or None, whether each block takes all of delta).

    solve_both perturbs A on its (r, s)-sphere and b on its s-sphere under
    the blockwise models, or under the pair a normwise model names.
    """
    if kind != "solve_both":
        return input_model, None, True
    if input_model.mode == NORMWISE:
        matrix_model = normwise(input_model.r or 2, input_model.s or 2)
    else:
        matrix_model = normwise(r, s)
    return matrix_model, normwise(matrix_model.s), input_model.mode != COMPONENTWISE_SUM


def _perturbations(inst, blocks, deltas, seed, path):
    """(dA, db or None) for each of ``deltas`` in turn, from one draw per
    sample: sample k of ``path = (di, k, attempt)`` draws block j from
    substream (seed, di, k, attempt, j)."""
    matrix_model, vector_model, whole = blocks

    def keys(block):
        return rng.substream(seed, *path, block)

    radii = deltas if whole else (1.0,)
    da = _sphere_matrices(inst, radii, keys(0), matrix_model)
    if vector_model is None:
        return ((d, None) for d in da)
    db = _sphere_vectors(inst.vec, radii, keys(1), vector_model)
    if whole:  # blockwise max: both blocks sit on their own delta-sphere
        return zip(da, db)
    # blockwise sum: split the budget so that the block errors add to delta
    t = rng.uniforms(keys(2), 1)[:, 0]
    da, db = next(da), next(db)
    return ((da * (delta * t)[:, None, None], db * (delta * (1.0 - t))[:, None])
            for delta in deltas)


def _sampled_ratios(inst, input_model, output_model, config):
    """Sup-ratio samples and the number of resampled ones, for each delta in turn.

    The directions are drawn once per estimate, or taken from the memo,
    from the keys of delta index 0: sample k draws from substream
    (seed, 0, k) for the vector-only kinds and from (seed, 0, k, 0, block)
    for the kinds that perturb the matrix (block 0 = matrix entries, 1 =
    right-hand side, 2 = the split of the blockwise-sum budget).  Their
    norms are taken once too, and every
    delta rescales the same directions onto its own sphere (common random
    numbers).  A sample whose perturbed matrix is singular within tolerance
    is redrawn at its own delta index di from (seed, di, k, attempt, block)
    for attempt >= 1.  So results do not depend on evaluation order or on
    which other samples were discarded, and the first delta of a schedule
    matches a one-delta schedule bit for bit.
    """
    kind, a, vec = inst.kind, inst.a, inst.vec
    idx = np.arange(config.samples_per_delta)
    err = inst.output_error(output_model)

    if kind in ("matvec", "solve_fixed_a"):
        keys = rng.substream(config.seed, 0, idx)
        spheres = _sphere_vectors(vec, config.deltas, keys, input_model)
        for delta, dv in zip(config.deltas, spheres):
            if kind == "matvec":
                out = (vec + dv) @ a.T
            else:
                out = inst.solve((vec + dv).T).T  # one block of right-hand sides
            yield err(out) / delta, 0
        return

    # the other kinds perturb the matrix and may cross the singular set
    blocks = _input_blocks(kind, input_model, inst.r, inst.s)
    first = _perturbations(inst, blocks, config.deltas, config.seed, (0, idx, 0))
    for di, (delta, (da, db)) in enumerate(zip(config.deltas, first)):
        ratios = np.empty(len(idx))
        pending, resampled = idx, 0
        for attempt in range(config.max_attempts + 1):
            if not pending.size:
                break
            if attempt:
                path = (di, pending, attempt)
                da, db = next(_perturbations(inst, blocks, (delta,), config.seed, path))
            lu, perm, _, singular = _lu_raw(a + da, 1e-13)
            ok = ~singular
            crossed = int(np.sum(singular))
            if crossed < len(pending):
                if crossed:
                    lu, perm = lu[ok], perm[ok]
                    db = None if db is None else db[ok]
                if kind == "inversion":
                    eye = np.broadcast_to(np.eye(a.shape[-1]), lu.shape)
                    out = _lu_solve_packed(lu, perm, eye)
                else:
                    rhs = np.broadcast_to(vec, lu.shape[:-1]) if db is None else vec + db
                    out = _lu_solve_packed(lu, perm, rhs[..., None])[..., 0]
                ratios[pending[ok]] = err(out) / delta
            resampled += crossed
            pending = pending[singular]
        if pending.size:
            raise SingularMatrix(
                "perturbation kept crossing the singular set after "
                f"{config.max_attempts} resampling rounds"
            )
        yield ratios, resampled
