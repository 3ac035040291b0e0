"""Sampling estimator for the definitional condition numbers.

The definition is a limit of suprema: over perturbed inputs with relative
error at most delta, take the worst ratio of output to input relative error,
then let delta -> 0.  This module realizes it directly: for each delta in a
decreasing schedule it places perturbations uniformly on the delta-sphere of
the chosen input error model, pushes them through the exact map (LU solve /
inverse in binary64), and records the supremum ratio.

Everything that does not depend on delta is built once per estimate: the
exact output (A x, A^-1 or A^-1 b), the reference norms that divide the
output errors, the worst direction and the sample directions.  The
directions are drawn from the keys of the first delta and normalized once;
every delta rescales the same directions onto its own sphere (common random
numbers), so the first delta of any schedule gets the bits of a one-delta
schedule.  A sample whose perturbed matrix is singular is redrawn from keys
of its own delta and attempt.

Two bounded memos share work across estimates.  Each keeps read-only
arrays, evicts the least recently used entry first and takes a lock around
every lookup and insertion, so threads may share it.  A hit returns what a
miss would compute, so neither memo changes a bit of any report.

* The operand memo keeps the :class:`~condlab.conditioning._Operand` of
  the most recent matrix, keyed on A's bytes, its shape and the
  enumeration cap.  The operand holds a read-only copy of A, its LU
  factors, A^-1, and every norm of A and A^-1, with the attainers,
  computed so far; the closed form reads the same operand.  So a sweep of
  estimates over kinds and pairs on one matrix factors A once and
  enumerates each of these norms once, not once per estimate.  The key is
  A's bytes and the operand holds a copy, so changing the caller's A in
  place gives a new operand.  One entry is enough for such a sweep, and
  the next matrix evicts it.
* The direction memo keeps the last 4 normal draws with their normwise
  norms, keyed on the draw's keys and the shape drawn; it keeps no draw
  larger than 2^20 values.  The keys depend only on the seed, the sample
  index and the block, not on the problem kind or on (r, s).  Four is
  enough because a sweep over every kind and pair of one instance touches
  three draws (the matrix block of inversion, solve_fixed_b and
  solve_both; the vectors of matvec and solve_fixed_a; the right-hand-side
  block of solve_both), and few enough that the next instance's draws
  evict them.

Random sampling alone systematically under-covers a sup over a
high-dimensional sphere, so for every problem kind the estimator also
evaluates one analytically worst direction built from norm attainers and
the rank-one interpolator (for inversion this is exactly the construction
from the lower-bound half of the equality cond = kappa).  That direction is
built once as well, and only its length follows delta.  For the kinds that
perturb A, the worst direction rides the first stack of samples of each
delta as one more row, through the same LU, solve and error calls; LU,
solves and norms give each matrix the same bits alone as inside a stack.
The reported estimate is the max of sampled and directional ratios at the
smallest delta; no extrapolation is applied.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import rng
from .conditioning import (
    _extremal_pair,
    _Operand,
    _problem_vector,
    _read_only,
    condition_closed_form,
    problem_kind,
)
from .errors import DeltaTooLarge, SingularMatrix, ZeroComponent, ZeroVector

# ``invert``, ``solve`` and ``operator_norm`` are not called here; they stay
# bound because the benchmark's tracing (bench/tracing.py) wraps them by
# these names.
from .linalg import _lu_raw, _lu_solve_packed, as_square, invert, solve  # noqa: F401
from .norms import (  # noqa: F401
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
    _, y, w = _extremal_pair(op, r, s)
    return rank_one_interpolator(w / vector_norm(w, r), y, r, s)


def _singular_at(delta):
    return DeltaTooLarge(f"A - E is singular at delta={delta:g}")


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
    if np.any(_lu_raw(a - e)[3]):
        raise _singular_at(delta)
    return e


class _Memo:
    """The values of the most recently used keys, at most ``entries`` of
    them, the least recently used evicted first.  Each lookup and each
    insertion holds a lock, so threads may share one memo; two threads that
    miss on the same key both make the value, and one of the equal values
    is kept."""

    def __init__(self, entries):
        self.entries = entries
        self._values = {}
        self._lock = threading.Lock()

    def get(self, key, make, keep):
        """The value kept under ``key``, else ``make()``, kept if ``keep`` of it."""
        with self._lock:
            value = self._values.pop(key, None)
            if value is not None:
                self._values[key] = value  # most recent last
                return value
        value = make()
        if keep(value):
            with self._lock:
                self._values[key] = value
                while len(self._values) > self.entries:
                    del self._values[next(iter(self._values))]
        return value

    def values(self):
        with self._lock:
            return list(self._values.values())

    def clear(self):
        with self._lock:
            self._values.clear()

    def __len__(self):
        return len(self._values)


#: Neither memo keeps an array of more than ``_MEMO_MAX_VALUES`` values: not
#: a draw, and not the operand of such a matrix.
_MEMO_MAX_VALUES = 1 << 20
_draws = _Memo(4)
_operands = _Memo(1)


def _operand(a, max_enum_dim):
    """The operand of ``a``: the memo's, if the last matrix had the
    same bytes, shape and enumeration cap, else a new one over a read-only
    copy of ``a``."""
    return _operands.get(
        (a.tobytes(), a.shape, max_enum_dim),
        lambda: _Operand(_read_only(a.copy()), max_enum_dim),
        lambda op: op.a.size <= _MEMO_MAX_VALUES,
    )


class _Instance:
    """One problem instance: its kind, the operand of A, the vector, the
    norm pair, and the exact output (A x, A^-1 or A^-1 b), which the
    operand's factors give their bits."""

    def __init__(self, kind, op, vec, r, s):
        self.kind, self.op, self.vec, self.r, self.s = kind, op, vec, r, s
        if kind == "matvec":
            self.exact = op.a @ vec
        elif kind == "inversion":
            self.exact = op.inverse
        else:
            self.exact = op.solve(vec[:, None])[:, 0]

    def output_error(self, model):
        """``relerror(., exact output, model)`` as a function.  The normwise
        size of the exact inverse is the operand's ||A^-1||, so ||A^-1||_sr
        is enumerated once per matrix."""
        denom = None
        if self.kind == "inversion" and model.mode == NORMWISE and model.s is not None:
            denom = self.op.norm(model.r, model.s, inverse=True)
        return _relerror_to(self.exact, model, self.op.max_enum_dim, denom)


def _directional_ratios(inst, deltas):
    """Exact-map error ratio along the analytically worst direction of matvec
    or solve_fixed_a, for each delta in turn.

    ``delta`` is the input *relative* error; the direction construction
    mirrors the closed-form formula it is meant to attain.  The direction
    (attainer or extremal pair) is built once and only its length follows
    delta.  The kinds that perturb A take theirs from :func:`_worst_row`.
    """
    op, vec, r, s = inst.op, inst.vec, inst.r, inst.s
    x = inst.exact
    if inst.kind == "matvec":
        att = op.norm(r, s, attainer=True).attainer
        xnorm = vector_norm(vec, r)
        err = _relerror_to(x, normwise(s))
        for delta in deltas:
            yield err(op.a @ (vec + delta * xnorm * att)) / delta
        return
    _, y, _ = _extremal_pair(op, r, s)
    bnorm = vector_norm(vec, s)
    err = _relerror_to(x, normwise(r))
    for delta in deltas:
        yield err(op.solve((vec + delta * bnorm * y)[:, None])[:, 0]) / delta


def _worst_row(inst, input_model):
    """The worst direction of inversion, solve_fixed_b or solve_both as a
    function of delta, delta -> (dA, db or None, divisor): the perturbation
    that joins the first stack of samples at delta, and what its output
    error is divided by.

    dA is -E with E = delta ||A||_rs B; rounding is symmetric, so A + dA has
    the bits of A - E.  For inversion B is the interpolator of the lower
    bound of cond = kappa; for the solve kinds it sends x / ||x||_r to the
    attainer y of ||A^-1||_sr, and solve_both also moves b by delta ||b||_s
    y.  Under the blockwise sum the ratio divides by the sum of the block
    errors.
    """
    kind, op, r, s = inst.kind, inst.op, inst.r, inst.s
    anorm = op.norm(r, s)
    if kind == "inversion":
        b_mat = _worst_inversion_direction(op, r, s)
    else:
        _, y, _ = _extremal_pair(op, r, s)
        x = inst.exact
        b_mat = rank_one_interpolator(x / vector_norm(x, r), y, r, s)
    towards = -b_mat
    if kind != "solve_both":
        return lambda delta: (delta * anorm * towards, None, delta)
    bnorm = vector_norm(inst.vec, s)
    # under the blockwise sum both blocks sit on their own delta-sphere
    blocks = 2.0 if input_model.mode == COMPONENTWISE_SUM else 1.0
    return lambda delta: (delta * anorm * towards, delta * bnorm * y, blocks * delta)


def _whole_number(value, least):
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= least


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
        if not _whole_number(self.samples_per_delta, 1):
            raise ValueError("samples_per_delta must be an integer of at least 1")
        if not _whole_number(self.max_attempts, 0):
            raise ValueError("max_attempts must be an integer of at least 0")


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


def _draw(keys, shape, sample):
    """(the normal draw of ``keys`` of ``shape``, a dict of its norms).

    The draw is read-only and comes from ``sample()`` unless one of the last
    draws in the memo had the same keys and shape; the dict is the caller's
    to fill with the draw's read-only normwise norms."""
    return _draws.get(
        (keys.tobytes(), keys.shape, shape),
        lambda: (_read_only(sample()), {}),
        lambda entry: entry[0].size <= _MEMO_MAX_VALUES,
    )


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

    Raises DeltaTooLarge when the worst direction of a kind that perturbs A
    reaches the singular set at some delta, once that delta's samples are
    done.
    """
    kind = problem_kind(kind)
    r = norm_index(r)
    s = norm_index(s)
    config = config or EstimatorConfig()
    a = np.asarray(a, dtype=np.float64)
    vec = _problem_vector(kind, vec)
    default_in, default_out = _default_models(kind, r, s)
    input_model = input_model or default_in
    output_model = output_model or default_out

    op = _operand(a, max_enum_dim)
    inst = _Instance(kind, op, vec, r, s)
    closed = condition_closed_form(kind, op.a, vec, r, s, max_enum_dim, _op=op).value
    report = EstimateReport(kind=kind, closed_form=closed)

    ratios = _ratios(inst, input_model, output_model, config)
    for delta, (sampled, resampled, directional) in zip(config.deltas, ratios):
        report.per_delta.append(
            DeltaSample(delta, float(np.max(sampled)), float(directional), resampled)
        )

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
    da = _sphere_matrices(inst.op, radii, keys(0), matrix_model)
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


def _perturbed_outputs(inst, da, db):
    """(the exact outputs of the perturbed problems A + dA, with b + db or b,
    whose matrix is nonsingular within tolerance, in order, or None if there
    are none; the mask of those whose matrix is singular)."""
    a, vec = inst.op.a, inst.vec
    lu, perm, _, singular = _lu_raw(a + da)
    ok = ~singular
    if not ok.any():
        return None, singular
    if not ok.all():
        lu, perm = lu[ok], perm[ok]
        db = None if db is None else db[ok]
    if inst.kind == "inversion":
        eye = np.broadcast_to(np.eye(a.shape[-1]), lu.shape)
        return _lu_solve_packed(lu, perm, eye), singular
    rhs = np.broadcast_to(vec, lu.shape[:-1]) if db is None else vec + db
    return _lu_solve_packed(lu, perm, rhs[..., None])[..., 0], singular


def _ratios(inst, input_model, output_model, config):
    """(sup-ratio samples, the number of resampled ones, the directional
    ratio) for each delta in turn.

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

    For the kinds that perturb A, the worst direction is the last row of
    each delta's first attempt.  Its output error is measured in the
    default output model of the kind, in the samples' call when that is
    the model asked for.  A singular worst row raises DeltaTooLarge after
    the samples of its delta are done, so samples that keep crossing the
    singular set raise SingularMatrix first.
    """
    kind, op, vec = inst.kind, inst.op, inst.vec
    idx = np.arange(config.samples_per_delta)
    err = inst.output_error(output_model)

    if kind in ("matvec", "solve_fixed_a"):
        keys = rng.substream(config.seed, 0, idx)
        spheres = _sphere_vectors(vec, config.deltas, keys, input_model)
        directional = _directional_ratios(inst, config.deltas)
        for delta, dv in zip(config.deltas, spheres):
            if kind == "matvec":
                out = (vec + dv) @ op.a.T
            else:
                out = op.solve((vec + dv).T).T  # one block of right-hand sides
            ratios = err(out) / delta
            yield ratios, 0, next(directional)
        return

    # the other kinds perturb the matrix and may cross the singular set
    blocks = _input_blocks(kind, input_model, inst.r, inst.s)
    worst = _worst_row(inst, input_model)
    default_out = _default_models(kind, inst.r, inst.s)[1]
    worst_err = err if output_model == default_out else inst.output_error(default_out)
    first = _perturbations(inst, blocks, config.deltas, config.seed, (0, idx, 0))
    for di, (delta, (da, db)) in enumerate(zip(config.deltas, first)):
        w_da, w_db, divisor = worst(delta)
        da = np.concatenate((da, w_da[None]))
        db = None if db is None else np.concatenate((db, w_db[None]))
        ratios = np.empty(len(idx))
        pending, resampled = idx, 0
        for attempt in range(config.max_attempts + 1):
            if not pending.size:
                break
            if attempt:
                path = (di, pending, attempt)
                da, db = next(_perturbations(inst, blocks, (delta,), config.seed, path))
            out, singular = _perturbed_outputs(inst, da, db)
            values = None if out is None else err(out)
            if not attempt:  # the last row is the worst direction's
                worst_crossed, singular = singular[-1], singular[:-1]
                if not worst_crossed:
                    value = values[-1] if worst_err is err else worst_err(out[-1])
                    directional, values = value / divisor, values[:-1]
            if values is not None:
                ratios[pending[~singular]] = values / delta
            resampled += int(np.sum(singular))
            pending = pending[singular]
        if pending.size:
            raise SingularMatrix(
                "perturbation kept crossing the singular set after "
                f"{config.max_attempts} resampling rounds"
            )
        if worst_crossed:
            raise _singular_at(delta)
        yield ratios, resampled, directional
