"""Sampling estimator for the definitional condition numbers.

The definition is a limit of suprema: over perturbed inputs with relative
error at most delta, take the worst ratio of output to input relative error,
then let delta -> 0.  This module realizes it directly: for each delta in a
decreasing schedule it draws perturbations uniformly on the delta-sphere of
the chosen input error model, pushes them through the exact map (LU solve /
inverse in binary64), and records the supremum ratio.

Random sampling alone systematically under-covers a sup over a
high-dimensional sphere, so for every problem kind the estimator also
evaluates one analytically worst direction built from norm attainers and
the rank-one interpolator (for inversion this is exactly the construction
from the lower-bound half of the equality cond = kappa).  The reported
estimate is the max of sampled and directional ratios at the smallest
delta; no extrapolation is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import rng
from .conditioning import (
    _extremal_pair,
    condition_closed_form,
    problem_kind,
)
from .errors import DeltaTooLarge, SingularMatrix, ZeroComponent, ZeroVector
from .linalg import _lu_raw, _lu_solve_packed, as_square, invert, solve
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


def relerror(x_tilde, x, model, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """Relative error of ``x_tilde`` against reference ``x`` under ``model``.

    Works on vectors and matrices; batched over leading dimensions (the
    reference broadcasts against the perturbed stack).  ``max_enum_dim``
    gates the matrix norms that need sign enumeration.
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    diff = x_tilde - x
    if model.mode == NORMWISE:
        if x.ndim >= 2:
            if model.s is None:
                raise ValueError("matrix normwise error model needs both indices (r, s)")
            denom = operator_norm_values(x, model.r, model.s, max_enum_dim)
            if np.any(denom == 0.0):
                raise ZeroVector("relative error of a zero reference is undefined")
            return operator_norm_values(diff, model.r, model.s, max_enum_dim) / denom
        denom = vector_norm(x, model.r)
        if np.any(denom == 0.0):
            raise ZeroVector("relative error of a zero reference is undefined")
        return vector_norm(diff, model.r) / denom
    if np.any(x == 0.0):
        raise ZeroComponent("componentwise error needs every reference component nonzero")
    ratios = np.abs(diff) / np.abs(x)
    axes = tuple(range(-x.ndim, 0))
    if model.mode == COMPONENTWISE_MAX:
        return np.max(ratios, axis=axes)
    return np.sum(ratios, axis=axes)


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
    _, y, w = _extremal_pair(a, r, s, max_enum_dim)
    x = w / vector_norm(w, r)
    b = rank_one_interpolator(x, y, r, s)
    e = delta * b
    try:
        invert(a - e)
    except SingularMatrix:
        raise DeltaTooLarge(f"A - E is singular at delta={delta:g}") from None
    return e


def _directional_ratio(kind, a, vec, r, s, delta, max_enum_dim, input_model=None):
    """Exact-map error ratio along the analytically worst direction.

    ``delta`` is the input *relative* error; the direction construction per
    kind mirrors the closed-form formula it is meant to attain.  For
    solve_both under the blockwise-sum model the same direction is used but
    the ratio divides by the sum of the block errors.
    """
    if kind == "matvec":
        att = operator_norm(a, r, s, max_enum_dim).attainer
        dx = delta * vector_norm(vec, r) * att
        return relerror(a @ (vec + dx), a @ vec, normwise(s)) / delta
    if kind == "solve_fixed_a":
        _, y, _ = _extremal_pair(a, r, s, max_enum_dim)
        db = delta * vector_norm(vec, s) * y
        return relerror(solve(a, vec + db), solve(a, vec), normwise(r)) / delta
    anorm = operator_norm_values(a, r, s, max_enum_dim)
    if kind == "inversion":
        e = worst_inversion_perturbation(a, r, s, delta * anorm, max_enum_dim)
        return relerror(invert(a - e), invert(a), normwise(s, r), max_enum_dim) / delta
    # solve_fixed_b / solve_both: perturb A towards the kappa-attaining direction
    _, y, _ = _extremal_pair(a, r, s, max_enum_dim)
    x = solve(a, vec)
    xhat = x / vector_norm(x, r)
    b_mat = rank_one_interpolator(xhat, y, r, s)
    a_tilde = a - delta * anorm * b_mat
    if kind == "solve_fixed_b":
        return relerror(solve(a_tilde, vec), x, normwise(r)) / delta
    b_tilde = vec + delta * vector_norm(vec, s) * y
    in_err = delta
    if input_model is not None and input_model.mode == COMPONENTWISE_SUM:
        in_err = 2.0 * delta  # both blocks sit on their own delta-sphere
    return relerror(solve(a_tilde, b_tilde), x, normwise(r)) / in_err


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


def _sphere_vectors(base, delta, keys, model):
    """Perturbations of a vector on the delta-sphere of ``model``, one per key."""
    g = rng.standard_normals(keys, base.size)
    if model.mode == NORMWISE:
        scale = delta * vector_norm(base, model.r) / vector_norm(g, model.r)
        return scale[:, None] * g
    if np.any(base == 0.0):
        raise ZeroComponent("componentwise perturbation of a zero component")
    if model.mode == COMPONENTWISE_MAX:
        unit = g / np.max(np.abs(g), axis=-1, keepdims=True)
    else:
        unit = g / np.sum(np.abs(g), axis=-1, keepdims=True)
    return delta * np.abs(base) * unit


def _sphere_matrices(base, delta, keys, model, max_enum_dim):
    """Perturbations of a matrix on the delta-sphere of ``model``, one per key."""
    n, m = base.shape
    g = rng.normal_matrix(keys, n, m)
    if model.mode == NORMWISE:
        gnorm = operator_norm_values(g, model.r, model.s, max_enum_dim)
        ref = operator_norm_values(base, model.r, model.s, max_enum_dim)
        return (delta * ref / gnorm)[:, None, None] * g
    if np.any(base == 0.0):
        raise ZeroComponent("componentwise perturbation of a zero entry")
    flat = np.abs(g.reshape(g.shape[0], -1))
    if model.mode == COMPONENTWISE_MAX:
        unit = g / np.max(flat, axis=1)[:, None, None]
    else:
        unit = g / np.sum(flat, axis=1)[:, None, None]
    return delta * np.abs(base) * unit


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

    For each delta the estimator draws ``samples_per_delta`` perturbations on
    the input-error sphere, evaluates the exact map, and records the supremum
    ratio together with the ratio along the analytically worst direction.
    Samples whose perturbed matrix is singular are discarded and resampled
    (their count is reported).  The final estimate is the max over the
    smallest delta's sampled and directional ratios.

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

    closed = condition_closed_form(kind, a, vec, r, s, max_enum_dim).value
    report = EstimateReport(kind=kind, closed_form=closed)

    for di, delta in enumerate(config.deltas):
        ratios, resampled = _sampled_ratios(
            kind, a, vec, input_model, output_model, delta, config, di, max_enum_dim
        )
        directional = float(
            _directional_ratio(kind, a, vec, r, s, delta, max_enum_dim, input_model)
        )
        report.per_delta.append(
            DeltaSample(delta, float(np.max(ratios)), directional, resampled)
        )

    last = report.per_delta[-1]
    report.estimate = max(last.sampled_sup_ratio, last.directional_ratio)
    if closed is not None and np.isfinite(closed):
        report.first_order_bound_check = all(
            d.sampled_sup_ratio <= closed * (1.0 + 10.0 * d.delta)
            for d in report.per_delta
        )
    return report


def _sampled_ratios(kind, a, vec, input_model, output_model, delta, config, di, max_enum_dim):
    """Sup-ratio samples at one delta, resampling singular perturbations.

    Sample k of delta index di draws from substream (seed, di, k) for
    vector-only kinds and from (seed, di, k, attempt, block) for kinds that
    perturb the matrix (block 0 = matrix entries, 1 = right-hand side,
    2 = auxiliary draws), so results do not depend on evaluation order or
    on which other samples were discarded.
    """
    idx = np.arange(config.samples_per_delta)

    if kind == "matvec":
        keys = rng.substream(config.seed, di, idx)
        dx = _sphere_vectors(vec, delta, keys, input_model)
        out_err = relerror((vec + dx) @ a.T, a @ vec, output_model)
        return out_err / delta, 0

    if kind == "solve_fixed_a":
        keys = rng.substream(config.seed, di, idx)
        db = _sphere_vectors(vec, delta, keys, input_model)
        x = solve(a, vec)
        xt = solve(a, (vec + db).T).T  # one solve with a block of right-hand sides
        return relerror(xt, x, output_model) / delta, 0

    # remaining kinds perturb the matrix and may cross the singular set
    a = as_square(a)
    if kind == "solve_both":
        matrix_model = normwise(input_model.r or 2, input_model.s or 2) \
            if input_model.mode == NORMWISE else normwise(2, 2)
        vector_model = normwise(matrix_model.s)
        split_blocks = input_model.mode != COMPONENTWISE_SUM
    else:
        matrix_model = input_model
        x = None
    resampled = 0
    pending = idx
    ratios = np.empty(len(idx))
    if kind == "inversion":
        inv_a = invert(a)
    else:
        x = solve(a, vec)
    for attempt in range(config.max_attempts + 1):
        if not pending.size:
            break
        keys_a = rng.substream(config.seed, di, pending, attempt, 0)
        if kind == "solve_both":
            keys_b = rng.substream(config.seed, di, pending, attempt, 1)
            if split_blocks:
                # blockwise max: both blocks sit on their own delta-sphere
                da = _sphere_matrices(a, delta, keys_a, matrix_model, max_enum_dim)
                db = _sphere_vectors(vec, delta, keys_b, vector_model)
            else:
                # blockwise sum: split the budget so the block errors add to delta
                keys_t = rng.substream(config.seed, di, pending, attempt, 2)
                t = rng.uniforms(keys_t, 1)[:, 0]
                da = _sphere_matrices(a, 1.0, keys_a, matrix_model, max_enum_dim)
                da *= (delta * t)[:, None, None]
                db = _sphere_vectors(vec, 1.0, keys_b, vector_model)
                db *= (delta * (1.0 - t))[:, None]
        else:
            da = _sphere_matrices(a, delta, keys_a, matrix_model, max_enum_dim)
        a_tilde = a + da
        lu, perm, _, singular = _lu_raw(a_tilde, 1e-13)
        ok = ~singular
        if np.any(ok):
            if kind == "inversion":
                n = a.shape[-1]
                eye = np.broadcast_to(np.eye(n), a_tilde[ok].shape).copy()
                inv_t = _lu_solve_packed(lu[ok], perm[ok], eye)
                out_err = relerror(inv_t, inv_a, output_model, max_enum_dim)
            else:
                rhs = np.broadcast_to(vec, a_tilde[ok].shape[:-2] + vec.shape)
                if kind == "solve_both":
                    rhs = rhs + db[ok]
                xt = _lu_solve_packed(lu[ok], perm[ok], rhs[..., None])[..., 0]
                out_err = relerror(xt, x, output_model)
            ratios[pending[ok]] = out_err / delta
        resampled += int(np.sum(singular))
        pending = pending[singular]
    if pending.size:
        raise SingularMatrix(
            "perturbation kept crossing the singular set after "
            f"{config.max_attempts} resampling rounds"
        )
    return ratios, resampled
