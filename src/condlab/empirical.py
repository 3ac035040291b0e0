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
schedule.  If any perturbed matrix of a delta, a sample's or the worst
direction's, is singular within tolerance, the estimate raises DeltaTooLarge
at that delta: the delta-sphere then reaches the singular set
(delta kappa_rs(A) >= 1 for the normwise models), where the supremum is
infinite.

Two bounded :func:`functools.lru_cache` functions share work across
estimates.  Each keeps read-only arrays and evicts the least recently used
entry first, and threads may share it: two threads that miss on the same
key both build the value, and one of the equal values is kept.  A hit
returns what a miss would compute, so neither cache changes a bit of any
report.

* The operand cache keeps the :class:`~condlab.conditioning._Operand` of
  the most recent matrix, keyed on A's bytes, its shape and the
  enumeration cap.  The operand holds a read-only copy of A, its LU
  factors, A^-1, and every norm of A and A^-1, with the attainers,
  computed so far; the closed form reads the same operand.  So a sweep of
  estimates over kinds and pairs on one matrix factors A once and
  enumerates each of these norms once, not once per estimate.  The key is
  A's bytes and the operand holds a copy, so changing the caller's A in
  place gives a new operand.  One entry is enough for such a sweep, and
  the next matrix evicts it.
* The draw cache keeps the last 4 normal draws, one copy of each and a
  stack of matrices batch-last, with their normwise norms and
  componentwise divisors, keyed on the draw's keys and the shape drawn.
  The keys depend only on the seed, the sample index and the block, not on
  the problem kind or on (r, s).  Four is enough because a sweep over
  every kind and pair of one instance touches three draws (the matrix
  block of inversion, solve_fixed_b and solve_both; the vectors of matvec
  and solve_fixed_a; the right-hand-side block of solve_both), and few
  enough that the next instance's draws evict them.

Neither cache takes a matrix or a draw of more than 2^20 values: such a
one is built, returned and not kept, and it evicts nothing.

Random sampling alone systematically under-covers a sup over a
high-dimensional sphere, so for every problem kind the estimator also
evaluates one analytically worst direction built from norm attainers and
the rank-one interpolator (for inversion this is exactly the construction
from the lower-bound half of the equality cond = kappa).  That direction is
built once as well, and only its length follows delta.  For every kind the
worst direction rides the stack of samples of each delta as one more row,
through the same evaluation and error calls: one GEMM for matvec, one block
solve with A's factors for solve_fixed_a, and the batched LU and solves for
the kinds that perturb A.  LU, solves and norms give each matrix
the same bits alone as inside a stack.  A GEMM row need not have the bits of
a matrix-vector product, so matvec's worst ratio can differ in its last bits
from ``A @ (x + dx)`` taken alone (relative 1e-9 at delta = 1e-7, where the
output error cancels).  The perturbed matrices A + dA, the samples' and the
worst row's, are written into one batch-last buffer ``(n, n, samples + 1)``
from the cached draw, which is kept batch-last, and the LU factors and
solves work on it in that layout (see :mod:`condlab.linalg`), so no stack is
concatenated or transposed on its way to the solutions.

An estimate keeps only the largest sampled ratio of each delta, so the
output errors go to a function that returns that largest value and the
worst row's, not every sample's.  For the perturbed inverses at (inf,1),
(inf,2) and (2,1), a sign enumeration per member, and at (2,2), a LAPACK
SVD per member, that function screens first.  Every difference D gets a
bound from :func:`~condlab.norms.operator_norm_bounds` (the sum of |d_ij|,
of the column or row 2-norms, or ||D||_F), which is exact on rank-one
matrices and inflated by a margin gamma = 64 (p + q)^2 eps for p x q
members, derived there to cover the rounding of the bound and of the exact
norm, LAPACK's sigma_max included.  The exact norm runs on the member of
largest bound, then on the worst row and on the members whose bound
reaches that value.  A perturbed inverse differs from A^-1 by nearly
-A^-1 E A^-1, which is close to rank one when A^-1 has one dominant
singular value: in 136 of 144 such stacks of the benchmark (six seeds), at
most 5 of 1000 samples got the exact norm.  x -> fl(fl(x / denom) / delta)
is monotone, so the largest ratio has the bits of the largest over every
member's ratio.  The closed-form pairs and vector outputs take every
member's error, which costs no more than a bound.

The reported estimate is the max of sampled and directional ratios at the
smallest delta; no extrapolation is applied.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import rng
from .conditioning import (
    KINDS,
    _extremal_pair,
    _Operand,
    _problem,
    _read_only,
    condition_closed_form,
)
from .errors import DeltaTooLarge, ZeroComponent, ZeroVector

# ``invert``, ``solve`` and ``operator_norm`` are not called here; they stay
# bound because the benchmark's tracing (bench/tracing.py) wraps them by
# these names.
from .linalg import _lu_raw, _lu_solve_packed, as_square, invert, solve  # noqa: F401
from .norms import (  # noqa: F401
    BOUNDED_PAIRS,
    DEFAULT_MAX_ENUM_DIM,
    norm_index,
    operator_norm,
    operator_norm_bounds,
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
    delta = float(delta)
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    _, y, w = _extremal_pair(_Operand(a, max_enum_dim), r, s)
    e = delta * rank_one_interpolator(w / vector_norm(w, r), y, r, s)
    if np.any(_lu_raw(a - e)[3]):
        raise _singular_at(delta)
    return e


#: Neither cache keeps an array of more than ``_MEMO_MAX_VALUES`` values:
#: not a draw, and not the operand of such a matrix.
_MEMO_MAX_VALUES = 1 << 20


@functools.lru_cache(maxsize=1)
def _operands(data, shape, max_enum_dim):
    """The operand of the matrix with the bytes ``data`` and ``shape``,
    over a read-only array of those bytes."""
    return _Operand(np.frombuffer(data).reshape(shape), max_enum_dim)


def _operand(a, max_enum_dim):
    """The operand of ``a``: the cache's, if the last matrix had the same
    bytes, shape and enumeration cap, else a new one over a read-only copy
    of ``a``."""
    operands = _operands if a.size <= _MEMO_MAX_VALUES else _operands.__wrapped__
    return operands(a.tobytes(), a.shape, max_enum_dim)


class _Instance:
    """One problem instance: its kind's row of ``KINDS``, the operand of A,
    the vector, the norm pair, and the exact output (A x, A^-1 or A^-1 b),
    which the operand's factors give their bits."""

    def __init__(self, kind, op, vec, r, s):
        self.row, self.op, self.vec, self.r, self.s = KINDS[kind], op, vec, r, s
        if self.row.output == "product":
            self.exact = op.a @ vec
        elif self.row.output == "inverse":
            self.exact = op.inverse
        else:
            self.exact = op.solve(vec[:, None])[:, 0]

    def output_error(self, model):
        """``relerror(., exact output, model)`` as a function.  The normwise
        size of the exact inverse is the operand's ||A^-1||, so ||A^-1||_sr
        is enumerated once per matrix."""
        return _relerror_to(self.exact, model, self.op.max_enum_dim, self._denom(model))

    def largest_error(self, model):
        """``outputs -> (the largest relerror(., exact output, model) over
        the members of ``outputs`` but the last; the last member's)``, as
        :func:`_largest_and_last` puts it.

        The largest error of a stack of perturbed inverses at a pair of
        ``BOUNDED_PAIRS`` goes through :func:`_screened_largest`; any other
        takes every member's error."""
        max_enum_dim, denom = self.op.max_enum_dim, self._denom(model)
        if denom is not None and (model.r, model.s) in BOUNDED_PAIRS:
            return lambda outputs: _screened_largest(
                outputs - self.exact, model.r, model.s, max_enum_dim, denom)
        err = _relerror_to(self.exact, model, max_enum_dim, denom)
        return lambda outputs: _largest_and_last(err(outputs))

    def _denom(self, model):
        if self.row.output == "inverse" and model.mode == NORMWISE and model.s is not None:
            return self.op.norm(model.r, model.s, inverse=True)
        return None


def _largest_and_last(values):
    """(the largest of ``values`` but the last, or -inf if there is no
    other; the last value).  The largest is NaN if any value it covers is,
    as with ``np.max``."""
    return np.max(values[:-1], initial=-np.inf), values[-1]


def _screened_largest(d, r, s, max_enum_dim, denom):
    """:func:`_largest_and_last` of ||D||_rs / denom over the members D of
    the stack ``d``, with the exact norm taken only where it can be the
    largest.

    The exact (r, s) norm runs first on the member but the last with the
    largest bound from :func:`~condlab.norms.operator_norm_bounds`, and
    then, as one C-contiguous stack, on the last member and on every member
    whose bound is not below that value.  A bound is never below the value
    the exact norm computes (its docstring derives the margin gamma = 64
    (p + q)^2 eps for p x q members), so a member left out has a smaller
    value than one taken, and the maximum has the bits of the maximum over
    all members.  A NaN bound is not below anything, so a member with one
    is taken, as is a member whose bound overflowed.  Every member gets the
    bits it gets in any stack, so the last member's value is the one of an
    unscreened call.
    """
    members = len(d) - 1
    values, taken = np.empty(0), np.array([members])
    if members:
        bound = operator_norm_bounds(d[:members], r, s)
        top = int(np.argmax(bound))  # the first NaN, if any
        values = operator_norm_values(d[top:top + 1], r, s, max_enum_dim)
        rest = ~(bound < values[0])
        rest[top] = False
        taken = np.append(np.flatnonzero(rest), taken)
    values = np.append(values, operator_norm_values(d[taken], r, s, max_enum_dim))
    return _largest_and_last(values / denom)


def _worst_row(inst, input_model):
    """The worst direction of ``inst`` as a function of delta, delta -> (dA
    or None, dv or None, divisor): the perturbation of A and of the vector
    that joins the stack of samples at delta, and what its output error is
    divided by.

    matvec moves x by delta ||x||_r times the attainer of ||A||_rs, and
    solve_fixed_a moves b by delta ||b||_s y, y the attainer of
    ||A^-1||_sr.  The other kinds move A: dA is -E with E = delta ||A||_rs
    B; rounding is symmetric, so A + dA has the bits of A - E.  B sends
    x / ||x||_r to y, with x = A^-1 y for inversion (the interpolator of the
    lower bound of cond = kappa) and x = A^-1 b for the solve kinds, and
    solve_both also moves b by delta ||b||_s y.  Under the blockwise sum
    the ratio divides by the sum of the block errors.
    """
    row, op, vec, r, s = inst.row, inst.op, inst.vec, inst.r, inst.s
    if row.output == "product":
        att = op.norm(r, s, attainer=True).attainer
        xnorm = vector_norm(vec, r)
        return lambda delta: (None, delta * xnorm * att, delta)
    _, y, w = _extremal_pair(op, r, s)
    if not row.perturbs_a:
        bnorm = vector_norm(vec, s)
        return lambda delta: (None, delta * bnorm * y, delta)
    x = w if row.output == "inverse" else inst.exact
    towards = -rank_one_interpolator(x / vector_norm(x, r), y, r, s)
    anorm = op.norm(r, s)
    if not row.perturbs_vector:
        return lambda delta: (delta * anorm * towards, None, delta)
    bnorm = vector_norm(vec, s)
    # under the blockwise sum both blocks sit on their own delta-sphere
    blocks = 2.0 if input_model.mode == COMPONENTWISE_SUM else 1.0
    return lambda delta: (delta * anorm * towards, delta * bnorm * y, blocks * delta)


@dataclass(frozen=True)
class EstimatorConfig:
    """Sampling schedule for the definitional estimator."""

    deltas: tuple = (1e-4, 1e-5, 1e-6, 1e-7)
    samples_per_delta: int = 1000
    seed: int = 0

    def __post_init__(self):
        d = self.deltas
        listed = (isinstance(d, Sequence) and not isinstance(d, (str, bytes))
                  or isinstance(d, np.ndarray) and d.ndim == 1)
        if not (listed and len(d)
                and all(isinstance(x, Real) and not isinstance(x, bool) for x in d)):
            raise ValueError(f"deltas must be a nonempty sequence of numbers, got {d!r}")
        d = tuple(float(x) for x in d)
        for x in d:
            if not np.isfinite(x):
                raise ValueError(f"every delta must be finite, got {x!r}")
        if any(x <= 0.0 for x in d) or any(a <= b for a, b in zip(d, d[1:])):
            raise ValueError("deltas must be strictly decreasing and positive")
        object.__setattr__(self, "deltas", d)
        if not rng.is_whole(self.samples_per_delta, 1):
            raise ValueError("samples_per_delta must be an integer of at least 1")
        if not rng.is_whole(self.seed):
            raise ValueError("seed must be an integer")


@dataclass
class DeltaSample:
    """Worst ratios observed at a single delta."""

    delta: float
    sampled_sup_ratio: float
    directional_ratio: float
    resampled: int = 0  # always 0, kept so that every payload keeps its fields


@dataclass
class EstimateReport:
    """Per-delta supremum ratios plus the condition estimate at the smallest delta."""

    kind: str
    per_delta: list[DeltaSample] = field(default_factory=list)
    estimate: float = 0.0
    closed_form: float | None = None
    first_order_bound_check: bool | None = None


def _batch_last(stack):
    """A copy of ``stack`` with the same shape and batch-last memory."""
    return np.moveaxis(np.moveaxis(stack, 0, -1).copy(), -1, 0)


@functools.lru_cache(maxsize=4)
def _draws(keys_data, keys_shape, shape):
    """(the read-only normal draw of ``shape`` per key, {}) for the uint64
    keys with the bytes ``keys_data`` and ``keys_shape``: a vector per key
    for a 1-tuple ``shape``, else a stack of matrices batch-last."""
    keys = np.frombuffer(keys_data, dtype=np.uint64).reshape(keys_shape)
    if len(shape) == 1:
        return _read_only(rng.standard_normals(keys, *shape)), {}
    return _read_only(_batch_last(rng.normal_matrix(keys, *shape))), {}


def _draw(keys, shape):
    """(the normal draw of ``keys`` of ``shape``, a dict of what derives from it).

    The draw is read-only and new unless one of the last draws in the cache
    had the same keys and shape; the dict is the caller's to fill with
    read-only arrays derived from the draw, one value per matrix or vector
    of it (its norms, its componentwise divisors)."""
    draws = _draws if keys.size * math.prod(shape) <= _MEMO_MAX_VALUES else _draws.__wrapped__
    return draws(keys.tobytes(), keys.shape, shape)


def _sphere_vectors(base, deltas, keys, model):
    """Perturbations of a vector on the delta-sphere of ``model``, one per key,
    for each of ``deltas`` in turn: the directions and their norms come from
    the cache, and are rescaled lazily for every delta."""
    g, gnorms = _draw(keys, (base.size,))
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
    and their norms come from the cache, and are rescaled lazily for every
    delta.  The radius reads ||A||_rs from ``op``.

    The cache keeps the draw batch-last, so each stack has the shape
    ``(keys, n, m)`` and batch-last memory.  What derives from the draw, its
    normwise norms and its componentwise divisors, is taken once on a
    C-contiguous copy, which has the bits and layout of the draw as sampled,
    and is kept next to it."""
    base = op.a
    n, m = base.shape
    g, derived = _draw(keys, (n, m))

    def per_matrix(key, of):
        if key not in derived:
            derived[key] = _read_only(of(np.ascontiguousarray(g)))
        return derived[key]

    if model.mode == NORMWISE:
        norm_key = model.r, model.s, op.max_enum_dim
        gnorm = per_matrix(norm_key, lambda c: operator_norm_values(c, *norm_key))
        ref = op.norm(model.r, model.s)
        return ((delta * ref / gnorm)[:, None, None] * g for delta in deltas)
    if np.any(base == 0.0):
        raise ZeroComponent("componentwise perturbation of a zero entry")
    reduce = np.max if model.mode == COMPONENTWISE_MAX else np.sum
    divisor = per_matrix(model.mode, lambda c: reduce(np.abs(c.reshape(len(c), -1)), axis=1))
    unit = g / divisor[:, None, None]
    return (delta * np.abs(base) * unit for delta in deltas)


def _default_models(kind, r, s):
    """(input model, output model) of ``kind``: A in (r, s), A x from the
    r-norm to the s-norm, and A^-1 b and A^-1 back from s to r."""
    row = KINDS[kind]
    vec_in, vec_out = (r, s) if row.output == "product" else (s, r)
    if not row.perturbs_a:
        input_model = normwise(vec_in)
    elif row.perturbs_vector:
        input_model = componentwise_max  # blockwise max over (A in rs, b in s)
    else:
        input_model = normwise(r, s)
    return input_model, (normwise(s, r) if row.output == "inverse" else normwise(vec_out))


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
    once and rescaled for every delta.  The final estimate is the max over
    the smallest delta's sampled and directional ratios.

    For ``solve_both`` the input error is the blockwise componentwise-max
    max(||dA||_rs / ||A||_rs, ||db||_s / ||b||_s); pass
    ``input_model=componentwise_sum`` to combine the blocks by sum instead.

    Raises DeltaTooLarge when a perturbed matrix of some delta, a sample's
    or the worst direction's, is singular within tolerance: the supremum at
    that delta is infinite.  A singular A raises SingularMatrix.
    """
    kind, a, vec, r, s = _problem(kind, a, vec, r, s)
    config = config or EstimatorConfig()
    default_in, default_out = _default_models(kind, r, s)
    input_model = input_model or default_in
    output_model = output_model or default_out

    op = _operand(a, max_enum_dim)
    inst = _Instance(kind, op, vec, r, s)
    closed = condition_closed_form(kind, op.a, vec, r, s, max_enum_dim, _op=op).value
    report = EstimateReport(kind=kind, closed_form=closed)

    ratios = _ratios(inst, input_model, output_model, default_out, config)
    for delta, (sampled, directional) in zip(config.deltas, ratios):
        report.per_delta.append(DeltaSample(delta, float(sampled), float(directional)))

    last = report.per_delta[-1]
    report.estimate = max(last.sampled_sup_ratio, last.directional_ratio)
    if closed is not None and np.isfinite(closed):
        report.first_order_bound_check = all(
            d.sampled_sup_ratio <= closed * (1.0 + 10.0 * d.delta)
            for d in report.per_delta
        )
    return report


def _input_blocks(inst, input_model):
    """(matrix model or None, vector model or None, whether each block takes
    all of delta) of the instance ``inst``.

    matvec and solve_fixed_a perturb only the vector, and inversion and
    solve_fixed_b only A.  solve_both perturbs A on its (r, s)-sphere and b
    on its s-sphere under the blockwise models, or under the pair a normwise
    model names.
    """
    if not inst.row.perturbs_a:
        return None, input_model, True
    if not inst.row.perturbs_vector:
        return input_model, None, True
    if input_model.mode == NORMWISE:
        matrix_model = normwise(input_model.r or 2, input_model.s or 2)
    else:
        matrix_model = normwise(inst.r, inst.s)
    return matrix_model, normwise(matrix_model.s), input_model.mode != COMPONENTWISE_SUM


def _perturbations(inst, blocks, deltas, seed, idx):
    """(dA or None, dv or None) for each of ``deltas`` in turn, from one draw
    per sample: sample k of ``idx`` draws block j from substream
    (seed, 0, k, 0, j), or its vector from (seed, 0, k) when the kind
    perturbs only the vector."""
    matrix_model, vector_model, whole = blocks
    if matrix_model is None:
        keys = rng.substream(seed, 0, idx)
        return ((None, dv) for dv in _sphere_vectors(inst.vec, deltas, keys, vector_model))

    def keys(block):
        return rng.substream(seed, 0, idx, 0, block)

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


def _plus(base, d, last):
    """``base + d`` for a stack ``d`` of perturbations of ``base``, with
    ``base + last`` as one more member at the end, in one batch-last
    buffer; returned as its ``(members,) + base.shape`` view, or None when
    ``d`` is None."""
    if d is None:
        return None
    out = np.moveaxis(np.empty(base.shape + (len(d) + 1,)), -1, 0)
    np.add(base, d, out=out[:-1])
    np.add(base, last, out=out[-1])
    return out


def _perturbed_outputs(inst, a_tilde, b_tilde, delta):
    """The exact outputs of the perturbed problems with matrices ``a_tilde``,
    or A when that is None, and vectors ``b_tilde``, or the instance's when
    that is None, in order.  A fixed A multiplies the vectors in one GEMM or
    solves them as one block of right-hand sides.  Raises DeltaTooLarge at
    ``delta`` if any matrix of ``a_tilde`` is singular within tolerance."""
    if a_tilde is None:
        if inst.row.output == "product":
            return b_tilde @ inst.op.a.T
        return inst.op.solve(b_tilde.T).T
    lu, perm, _, singular = _lu_raw(a_tilde)
    if singular.any():
        raise _singular_at(delta)
    if inst.row.output == "inverse":
        eye = np.broadcast_to(np.eye(lu.shape[-1]), lu.shape)
        return _lu_solve_packed(lu, perm, eye)
    rhs = np.broadcast_to(inst.vec, lu.shape[:-1]) if b_tilde is None else b_tilde
    return _lu_solve_packed(lu, perm, rhs[..., None])[..., 0]


def _ratios(inst, input_model, output_model, default_out, config):
    """(the largest sampled ratio, the directional ratio) for each delta in
    turn.

    The directions are drawn once per estimate, or taken from the cache:
    sample k draws from substream (seed, 0, k) for matvec and solve_fixed_a,
    which perturb only the vector, and from (seed, 0, k, 0, block) for the
    kinds that perturb the matrix (block 0 = matrix entries, 1 = right-hand
    side, 2 = the split of the blockwise-sum budget).  Their norms are taken
    once too, and every delta rescales the same directions onto its own
    sphere (common random numbers), so the first delta of a schedule matches
    a one-delta schedule bit for bit.

    Each delta evaluates one stack: its samples and, as the last row, the
    worst direction.  If any of its perturbed matrices is singular within
    tolerance, the estimate raises DeltaTooLarge at that delta.  The largest
    sampled ratio comes from :meth:`_Instance.largest_error`, which takes
    the exact norm of a perturbed inverse at (inf,1), (inf,2), (2,1) and
    (2,2) only where its bound, inflated by gamma = 64 (p + q)^2 eps,
    reaches the exact norm of the member of largest bound (see
    :func:`_screened_largest`); it has the bits of the largest over every
    sample, NaN included.  The worst row is evaluated always exactly, and
    its output error is measured in the default output model
    ``default_out`` of the kind, in the samples' call when that is the
    model asked for.
    """
    op, vec = inst.op, inst.vec
    idx = np.arange(config.samples_per_delta)
    err = inst.largest_error(output_model)
    blocks = _input_blocks(inst, input_model)
    worst = _worst_row(inst, input_model)
    worst_err = None if output_model == default_out else inst.output_error(default_out)
    samples = _perturbations(inst, blocks, config.deltas, config.seed, idx)
    for delta, (da, db) in zip(config.deltas, samples):
        w_da, w_db, divisor = worst(delta)
        out = _perturbed_outputs(inst, _plus(op.a, da, w_da), _plus(vec, db, w_db), delta)
        largest, value = err(out)
        if worst_err is not None:
            value = worst_err(out[-1])
        yield largest / delta, value / divisor
