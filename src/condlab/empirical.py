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

Three bounded caches share work across estimates: two
:func:`functools.lru_cache` functions and the draw cache, which is bounded
by the values it holds rather than by its entries.  Each keeps read-only
arrays and evicts the least recently used entry first, and threads may
share it: two threads that miss on the same key both build the value, and
one of the equal values is kept.  A hit returns what a miss would compute,
so no cache changes a bit of any report.

* The operand cache keeps the :class:`~condlab.conditioning._Operand` of
  the most recent matrix, keyed on A's bytes, its shape and the
  enumeration cap.  The operand holds a read-only copy of A, its LU
  factors, A^-1, every norm of A and A^-1, with the attainers, computed so
  far, and what :func:`_supremum_bounds` reads of A, A^-1 and the factors
  (the sums and maxima of |A| and |A^-1|, and the backward-error scale of
  A's factors); the closed form reads the same operand.  So a sweep of
  estimates over kinds and pairs on one matrix factors A once, enumerates
  each of these norms once and takes the screen's terms once, not once per
  estimate.  The key is A's bytes and the operand holds a copy, so
  changing the caller's A in place gives a new operand.  One entry is
  enough for such a sweep, and the next matrix evicts it.
* The draw cache keeps normal draws of at most 4 * 2^20 values in all,
  one copy of each and a stack of matrices batch-last, with their normwise
  norms and componentwise divisors, keyed on the draw's keys and the shape
  drawn.  The keys depend only on the seed, the sample index and the
  block, not on the problem kind or on (r, s).  A sweep over every kind
  and pair of one instance touches three draws (the matrix block of
  inversion, solve_fixed_b and solve_both; the vectors of matvec and
  solve_fixed_a; the right-hand-side block of solve_both), so a round of
  the benchmark's ``estimator`` workload, three sizes, touches nine, about
  0.21 million values, and a second round draws none of them again.
* The key cache keeps the substream keys of the last 4 (seed, samples,
  block) triples, the keys the draw cache is keyed on, so a sweep derives
  them once per block, not once per estimate.

No cache takes a matrix, a draw or keys of more than 2^20 values: such a
one is built, returned and not kept, and it evicts nothing.

Random sampling alone systematically under-covers a sup over a
high-dimensional sphere, so for every problem kind the estimator also
evaluates one analytically worst direction built from norm attainers and
the rank-one interpolator (for inversion this is exactly the construction
from the lower-bound half of the equality cond = kappa).  That direction is
built once as well, and only its length follows delta.  For every kind the
worst direction rides a stack of samples of each delta as one more row,
through the same evaluation and error calls: one GEMM for matvec, one block
solve with A's factors for solve_fixed_a, and the batched LU and solves for
the kinds that perturb A.  LU, solves and norms give each matrix
the same bits alone as inside a stack.  A GEMM row need not have the bits of
a matrix-vector product, so matvec's worst ratio can differ in its last bits
from ``A @ (x + dx)`` taken alone (relative 1e-9 at delta = 1e-7, where the
output error cancels).  The perturbed matrices A + dA are written into one
batch-last buffer ``(n, n, members)``, each delta's worst row after its
samples, and the LU factors and solves work on it in that layout (see
:mod:`condlab.linalg`), so no stack is concatenated or transposed on its way
to the solutions.  A buffer holds at most a delta's samples and its worst
row, so a stack of several deltas takes no more memory than one delta's
stack of every sample.

An estimate keeps only the largest sampled ratio of each delta, so a kind
that perturbs A factors only the samples that can set it.  Under a normwise
output model every sample k gets an upper bound U_k on its computed output
error before anything is factored (:func:`_supremum_bounds`): the norm of
its first-order image -A^-1 E_k A^-1 or A^-1 (db_k - E_k x), which is
linear in delta, so two GEMMs per estimate over the draw serve every delta,
raised by a margin derived there from the second-order remainder and the
backward errors of LU with partial pivoting (Higham, ASNA, sections 3.5, 9
and 14).  The first stack of a delta takes the sample of largest bound,
every sample without a finite bound or a certificate that its pivots stay
above the singularity tolerance, and the worst row; a second stack takes
the samples whose bound reaches the largest error found.  The others cannot
exceed it, so the largest ratio has the bits of the largest over every
sample, and a singular sample, which has no certificate, still raises
DeltaTooLarge at its delta.  A componentwise output model has no bound, and
there every sample is in the first stack.  The first stacks of every delta
are factored in one batch-last buffer and one call of the batched LU, and
so are the second stacks: a round of the benchmark's ``estimator``
workload at its default seed factors 605 of the 162 162 perturbed
matrices in 86 calls, one per estimate and five more.

Every member of a stack gets its output error in one call.  At (inf,1),
(inf,2), (2,1) and (2,2), the pairs without a closed form,
:func:`_supremum_bounds` is the one caller of
:func:`~condlab.norms.operator_norm_bounds`: it bounds the norm of each
sample's first-order image H by the sum of |h_ij|, of the column or row
2-norms, or ||H||_F, inflated by a margin derived there that covers the
rounding of the bound and of the exact norm, LAPACK's sigma_max included.

The reported estimate is the max of sampled and directional ratios at the
smallest delta; no extrapolation is applied.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict, namedtuple
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
from .linalg import (  # noqa: F401
    DEFAULT_PIVOT_TOL,
    _U,
    _gamma,
    _inverse,
    _lu_raw,
    _lu_solve_packed,
    as_square,
    invert,
    solve,
)
from .norms import (  # noqa: F401
    BOUNDED_PAIRS,
    DEFAULT_MAX_ENUM_DIM,
    dual_exponent,
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
    if np.any(_lu_raw(a - e)[2]):
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

    def _denom(self, model):
        if self.row.output == "inverse" and model.mode == NORMWISE and model.s is not None:
            return self.op.norm(model.r, model.s, inverse=True)
        return None


def _largest_and_last(values):
    """(the largest of ``values`` but the last, or -inf if there is no
    other; the last value).  The largest is NaN if any value it covers is,
    as with ``np.max``."""
    return np.max(values[:-1], initial=-np.inf), values[-1]


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


@dataclass(slots=True)
class DeltaSample:
    """Worst ratios observed at a single delta."""

    delta: float
    sampled_sup_ratio: float
    directional_ratio: float
    resampled: int = 0  # always 0, kept so that every payload keeps its fields


@dataclass(slots=True)
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


#: The draw cache keeps draws of at most this many values in all: four of
#: ``_MEMO_MAX_VALUES``, or many more of the sizes a sweep draws.
_DRAW_CACHE_VALUES = 4 * _MEMO_MAX_VALUES

_DrawCacheInfo = namedtuple("_DrawCacheInfo", "hits misses currsize values")


class _DrawCache:
    """``function`` memoized on its arguments, bounded by the number of
    values of the draws it keeps, ``_DRAW_CACHE_VALUES``, rather than by
    their count: a new entry evicts the least recently used ones until it
    fits, and never itself.  ``function`` returns (a draw, a dict).
    Threads may share it as they may an lru_cache: a miss builds its entry
    outside the lock, and when two threads miss on one key both get the
    entry kept first."""

    def __init__(self, function):
        self.__wrapped__ = function
        self._lock = threading.Lock()
        self.cache_clear()

    def __call__(self, *key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
        entry = self.__wrapped__(*key)
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            while self._entries and self._values + entry[0].size > _DRAW_CACHE_VALUES:
                self._values -= self._entries.popitem(last=False)[1][0].size
            self._entries[key] = entry
            self._values += entry[0].size
        return entry

    def cache_info(self):
        with self._lock:
            return _DrawCacheInfo(self._hits, self._misses, len(self._entries), self._values)

    def cache_clear(self):
        with self._lock:
            self._entries, self._values, self._hits, self._misses = OrderedDict(), 0, 0, 0


@_DrawCache
def _draws(keys_data, keys_shape, shape):
    """(the read-only normal draw of ``shape`` per key, {}) for the uint64
    keys with the bytes ``keys_data`` and ``keys_shape``: a vector per key
    for a 1-tuple ``shape``, else a stack of matrices batch-last."""
    keys = np.frombuffer(keys_data, dtype=np.uint64).reshape(keys_shape)
    if len(shape) == 1:
        return _read_only(rng.standard_normals(keys, *shape)), {}
    return _read_only(_batch_last(rng.normal_matrix(keys, *shape))), {}


@functools.lru_cache(maxsize=4)
def _sample_keys(seed, samples, block):
    """The read-only substream keys of samples 0..samples-1: (seed, 0, k)
    for a ``block`` of None, else (seed, 0, k, 0, block)."""
    idx = np.arange(samples)
    path = (0, idx) if block is None else (0, idx, 0, block)
    return _read_only(rng.substream(seed, *path))


def _keys(seed, samples, block=None):
    """:func:`_sample_keys`, from the cache unless there are more than
    ``_MEMO_MAX_VALUES`` samples."""
    keys = _sample_keys if samples <= _MEMO_MAX_VALUES else _sample_keys.__wrapped__
    return keys(seed, samples, block)


def _draw(keys, shape):
    """(the normal draw of ``keys`` of ``shape``, a dict of what derives from it).

    The draw is read-only and new unless a draw that the cache keeps had
    the same keys and shape; the dict is the caller's to fill with
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


class _Scaled:
    """A stack ``factor * unit`` of perturbations that computes only the
    members asked for: ``stack[which]`` has the bits of the product's
    members ``which``, the product being elementwise, and ``stack[:]`` is
    the product.  ``factor`` holds one number per member, shaped
    ``(members, 1, 1)``, or one matrix for every member."""

    def __init__(self, factor, unit):
        self.factor, self.unit = factor, unit

    def __len__(self):
        return len(self.unit)

    def __getitem__(self, which):
        factor = self.factor[which] if self.factor.ndim == self.unit.ndim else self.factor
        return factor * self.unit[which]


def _sphere_matrices(op, deltas, keys, model):
    """Perturbations of the matrix of the operand ``op`` on the delta-sphere
    of ``model``, one per key, for each of ``deltas`` in turn: the directions
    and their norms come from the cache, and are rescaled lazily for every
    delta, and for the members asked for (a :class:`_Scaled` stack).  The
    radius reads ||A||_rs from ``op``.

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
        return (_Scaled((delta * ref / gnorm)[:, None, None], g) for delta in deltas)
    if np.any(base == 0.0):
        raise ZeroComponent("componentwise perturbation of a zero entry")
    reduce = np.max if model.mode == COMPONENTWISE_MAX else np.sum
    divisor = per_matrix(model.mode, lambda c: reduce(np.abs(c.reshape(len(c), -1)), axis=1))
    unit = g / divisor[:, None, None]
    return (_Scaled(delta * np.abs(base), unit) for delta in deltas)


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


def _perturbations(inst, blocks, deltas, seed, samples):
    """(dA or None, dv or None) for each of ``deltas`` in turn, from one draw
    per sample: sample k < ``samples`` draws block j from substream
    (seed, 0, k, 0, j), or its vector from (seed, 0, k) when the kind
    perturbs only the vector."""
    matrix_model, vector_model, whole = blocks
    if matrix_model is None:
        keys = _keys(seed, samples)
        return ((None, dv) for dv in _sphere_vectors(inst.vec, deltas, keys, vector_model))
    radii = deltas if whole else (1.0,)
    da = _sphere_matrices(inst.op, radii, _keys(seed, samples, 0), matrix_model)
    if vector_model is None:
        return ((d, None) for d in da)
    db = _sphere_vectors(inst.vec, radii, _keys(seed, samples, 1), vector_model)
    if whole:  # blockwise max: both blocks sit on their own delta-sphere
        return zip(da, db)
    # blockwise sum: split the budget so that the block errors add to delta
    t = rng.uniforms(_keys(seed, samples, 2), 1)[:, 0]
    da, db = next(da)[:], next(db)
    return ((_Scaled((delta * t)[:, None, None], da), db * (delta * (1.0 - t))[:, None])
            for delta in deltas)


def _stack(base, parts, members):
    """``base + d[which]``, then ``base + last`` unless ``last`` is None,
    for each part (which, (d, last)) of ``parts`` in turn, ``members`` in
    all, in one batch-last buffer; returned as its ``(members,) +
    base.shape`` view, or None when ``d`` is None: the kind keeps
    ``base``."""
    if parts[0][1][0] is None:
        return None
    out = np.moveaxis(np.empty(base.shape + (members,)), -1, 0)
    at = 0
    for which, (d, last) in parts:
        rows = d[which]
        np.add(base, rows, out=out[at:at + len(rows)])
        at += len(rows)
        if last is not None:
            np.add(base, last, out=out[at])
            at += 1
    return out


def _perturbed_outputs(inst, a_tilde, b_tilde, deltas):
    """The exact outputs of the perturbed problems with matrices ``a_tilde``,
    or A when that is None, and vectors ``b_tilde``, or the instance's when
    that is None, in order.  A fixed A multiplies the vectors in one GEMM or
    solves them as one block of right-hand sides.  If any matrix of
    ``a_tilde`` is singular within tolerance, raises DeltaTooLarge at the
    first such member's entry of ``deltas``, which holds one delta per
    member."""
    if a_tilde is None:
        if inst.row.output == "product":
            return b_tilde @ inst.op.a.T
        return inst.op.solve(b_tilde.T).T
    lu, perm, singular = _lu_raw(a_tilde)
    if singular.any():
        raise _singular_at(deltas[np.argmax(singular)])
    if inst.row.output == "inverse":
        return _inverse(lu, perm)
    rhs = np.broadcast_to(inst.vec, lu.shape[:-1]) if b_tilde is None else b_tilde
    return _lu_solve_packed(lu, perm, rhs[..., None])[..., 0]


def _members(segment):
    """The number of perturbed problems of ``segment`` (see :func:`_stacks`)."""
    _, which, *blocks = segment
    d, last = next(block for block in blocks if block[0] is not None)
    return (len(d) if isinstance(which, slice) else len(which)) + (last is not None)


def _stacks(inst, segments, err, limit):
    """(the outputs, their errors under ``err``) of each of ``segments`` in
    turn, from stacks that take consecutive whole segments while they hold
    at most ``limit`` members.

    A segment (delta, which, (da, w_da), (db, w_db)) is the perturbed
    problems at delta of the samples ``which`` of the perturbations ``da``
    of A and ``db`` of the vector, then, unless ``w_da`` and ``w_db`` are
    None, the one that moves A by ``w_da`` and the vector by ``w_db``; a
    block the kind keeps is (None, None).  A stack is one
    batch-last buffer, one :func:`_lu_raw` call, one solve and one ``err``
    call.  LU, solves and norms give each member the same bits alone as
    inside a stack, so the grouping moves no bit; a GEMM row need not, but
    matvec's segments each hold a whole delta's ``limit`` members and get a
    stack of their own.  A stack with a singular matrix raises
    DeltaTooLarge at the delta of its earliest segment that holds one.
    """
    group, size = [], 0
    for segment in segments:
        members = _members(segment)
        if group and size + members > limit:
            yield from _evaluate(inst, group, err)
            group, size = [], 0
        group.append(segment)
        size += members
    if group:
        yield from _evaluate(inst, group, err)


def _evaluate(inst, group, err):
    """(the outputs, their errors under ``err``) of each segment of
    ``group`` in turn, from one stack."""
    counts = [_members(segment) for segment in group]
    a_tilde = _stack(inst.op.a, [(which, a) for _, which, a, _ in group], sum(counts))
    b_tilde = _stack(inst.vec, [(which, b) for _, which, _, b in group], sum(counts))
    deltas = np.repeat([delta for delta, *_ in group], counts)
    out = _perturbed_outputs(inst, a_tilde, b_tilde, deltas)
    errors = err(out)
    at = 0
    for count in counts:
        yield out[at:at + count], errors[at:at + count]
        at += count


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

    Each delta evaluates a first segment: its samples and, as the last row,
    the worst direction.  For a kind that perturbs A under a normwise output
    model, the directions are read at delta = 1 first, and
    :func:`_supremum_bounds` bounds every sample's output error from them;
    the first segment then takes only the sample of largest bound and the
    samples with no finite bound or pivot certificate, and a second
    segment the samples whose bound is not below the largest error of the
    first.  :func:`_stacks` evaluates every delta's first segment, then
    every second one, in as few stacks as hold at most a delta's samples
    and its worst row each: one stack per pass when every delta's segments
    are small, one per delta when each takes every sample.  If any of the
    perturbed matrices is singular within tolerance, the estimate raises
    DeltaTooLarge at the first delta that has one.  Every member gets its
    output error, and the largest is NaN if any sample's is.  The worst row
    is evaluated always exactly, and its output error is measured in the
    default output model ``default_out`` of the kind, in the samples' call
    when that is the model asked for.
    """
    err = inst.output_error(output_model)
    blocks = _input_blocks(inst, input_model)
    worst = _worst_row(inst, input_model)
    worst_err = None if output_model == default_out else inst.output_error(default_out)
    screened = inst.row.perturbs_a and output_model.mode == NORMWISE
    radii = (1.0,) * screened + config.deltas
    samples = _perturbations(inst, blocks, radii, config.seed, config.samples_per_delta)
    bounds = _supremum_bounds(inst, *next(samples), output_model) if screened else None
    limit = config.samples_per_delta + 1
    rows = [(delta, da, db, worst(delta), None if bounds is None else bounds(delta))
            for delta, (da, db) in zip(config.deltas, samples)]
    firsts = [_first_members(bound) for *_, bound in rows]
    found = []
    for out, errors in _stacks(inst, [(delta, first, (da, w_da), (db, w_db))
                                      for (delta, da, db, (w_da, w_db, _), _), first
                                      in zip(rows, firsts)], err, limit):
        largest, value = _largest_and_last(errors)
        found.append((largest, value if worst_err is None else worst_err(out[-1])))
    rests = [_rest_members(bound, first, largest)
             for (*_, bound), first, (largest, _) in zip(rows, firsts, found)]
    seconds = _stacks(inst, [(delta, rest, (da, None), (db, None))
                             for (delta, da, db, *_), rest in zip(rows, rests) if len(rest)],
                      err, limit)
    for (delta, _, _, (*_, divisor), _), (largest, value), rest in zip(rows, found, rests):
        if len(rest):
            largest = np.max(next(seconds)[1], initial=largest)
        yield largest / delta, value / divisor


def _first_members(bound):
    """The samples that the first segment of a delta takes: all of them
    when there is no ``bound``, else the one of largest finite bound and
    every one whose bound is not finite, as indices."""
    if bound is None:
        return slice(None)
    first = ~(bound < np.inf)
    if not first.all():
        first[np.argmax(np.where(first, -np.inf, bound))] = True
    return np.flatnonzero(first)


def _rest_members(bound, first, largest):
    """The samples that the second segment of a delta takes, as indices:
    none when there is no ``bound``, else those outside ``first`` whose
    bound is not below ``largest``, the largest error of the first."""
    if bound is None:
        return ()
    rest = ~(bound < largest)
    rest[first] = False
    return np.flatnonzero(rest)


#: The largest order the screen bounds.  Past it the growth bound 2^(n-1)
#: of partial pivoting leaves no pivot certificate for any member, and the
#: rounding of the bound's own sums stays below 2^-40 up to it.
_SCREEN_MAX_DIM = 32

#: The scales of A, A^-1, b, its solution and delta that the screen bounds
#: lie in [1 / _SCREEN_RANGE, _SCREEN_RANGE].
_SCREEN_RANGE = 2.0**256

#: Relative margin for the rounding of the bound's own arithmetic.
_SCREEN_ROUNDING = 2.0**-30

def _supremum_bounds(inst, w_a, w_b, model):
    """delta -> U, where U_k bounds the relative output error that
    :meth:`_Instance.output_error` computes for sample k at delta, or
    +inf where the member has no finite bound or no pivot certificate; or
    None when the output ``model`` has no such bound.  ``w_a`` and ``w_b``
    are the samples' perturbations at delta = 1 (None for b when the kind
    keeps it).

    The bound starts from the sample's first-order image, which is linear
    in delta, so two GEMMs per estimate serve every delta.  Notation: u =
    2^-53 and gamma_k = k u / (1 - k u) (Higham, ASNA, section 3.1); X and
    x are A^-1 and A^-1 b, X^ and x^ their computed values, n the order,
    J the all-ones matrix, Sigma the sum of the magnitudes, ||.|| the
    output norm and [[B]] = || |B| ||, which bounds ||B|| and grows with
    |B| (the p-norms are absolute).  An output pair (rho, sigma) sends
    rho-norms to sigma-norms, so [[p q^T]] = ||p||_sigma ||q||_rho*, and a
    solution's norm is its sigma-norm.  X^ and x^ have row sums x_r =
    |X^| 1 and column sums x_c = |X^|^T 1, S = Sigma|X^|, and Xi = x_r x_c^T.

    * The perturbation.  W_k, read at delta = 1 from the same sphere code,
      gives dA_k = fl(delta W_k (1 + theta)), within gamma_5 delta |W_k| of
      delta W_k (five roundings against two), so the perturbed matrix is
      M_k = fl(A + dA_k) = A + D_k with |D_k - delta W_k| <= gamma_7 delta
      |W_k| + u |A|; b's block likewise, with w_k.  max|W_k| is taken as
      min(||W_k||_1, ||W_k||_inf), which is not below it.
    * The second-order remainder.  With F_k = X D_k, the exact output
      error is (I + F_k)^-1 f_k, f_k = -X D_k X for the inverse and
      X (db_k - D_k x) for a solution, so its norm is at most [[f_k]] /
      (1 - phi_k) for phi_k >= max(||F_k||_1, ||F_k||_inf), which is at
      least || |F_k| ||_sigma,sigma, since ||.||_2 <= sqrt(||.||_1
      ||.||_inf): the remainder is ||F_k|| / (1 - ||F_k||) relative.
    * The first-order image and its GEMM rounding.  H_k = X^ W_k X^ for the
      inverse, X^ (w_k - W_k x^) for a solution, is computed for every k
      in two GEMMs; whatever order a BLAS sums in, each entry is within
      gamma_2n |X^| |W_k| |X^| <= gamma_2n max|W_k| Xi, or gamma_2n+2 |X^|
      (|w_k| + |W_k| |x^|), of the exact product (ASNA, section 3.5).
      ||H_k|| is at most :func:`~condlab.norms.operator_norm_bounds` at
      ``BOUNDED_PAIRS`` and the computed norm times 1 + gamma_v elsewhere.
    * A^-1 and x.  The computed columns of X^ solve (A + dA_j) x^_j = e_j
      with |dA_j| <= gamma_3n |L^||U^| (ASNA, Theorem 9.4, section 14.3),
      so |X^ - X| <= eta |X| J |X^| with eta = gamma_3n max(|L^||U^|),
      read from A's factors.  For omega = eta S <= 1/2 that gives |X - X^|
      <= zeta Xi with zeta = eta / (1 - omega), and row and column sums of
      |X| within 1 + q, q = omega / (1 - omega), of those of |X^|; for x^,
      |x^ - x| <= zeta Sigma|x^| x_r.  These carry X - X^ into f_k and the
      LU rounding of A^-1 into the error.
    * Member k's LU and substitution, which are not computed.  Partial
      pivoting keeps |l_ij| <= 1, and a step at most doubles the largest
      entry, times (1 + u)^2, so the growth factor is at most rho_n =
      (2 (1 + u)^2)^(n-1) (ASNA, section 9.4), |L^_k||U^_k| <= n rho_n
      max|M_k| J, and |Y^_k - Y_k| <= eta_k |Y_k| J |Y^_k| with eta_k =
      gamma_3n n rho_n max|M_k| (Theorem 9.4 again), Y_k the exact output.
      Sigma|Y_k| <= (1 + q) S / (1 - phi_k) and eta_k Sigma|Y_k| <= 1/2 keep
      that term finite.
    * The pivot certificate.  Up to the first pivot it flags, the
      elimination of M_k is the plain one, so that pivot is the largest
      entry of a column of a Schur complement of P (M_k + dM), |dM| <=
      gamma_n n rho_n max|M_k| J (ASNA, Theorem 9.3).  The Schur
      complement's inverse is a block of the inverse, so the pivot is at
      least sigma_min(M_k + dM) / sqrt(n) >= (sigma_min(A) - ||D_k||_2 -
      gamma_n n^2 rho_n max|M_k|) / sqrt(n), with sigma_min(A) >= 1 /
      ((1 + q) sqrt(||X^||_1 ||X^||_inf)) and ||D_k||_2 <= sqrt(||D_k||_1
      ||D_k||_inf).  A member is skipped only where this exceeds
      ``DEFAULT_PIVOT_TOL`` max|M_k| (1 + u), the pivot limit _lu_raw
      computes, so no skipped member would have been flagged singular.
    * The output error's own rounding.  fl(Y^_k - X^) adds u [[Y^_k -
      X^]]; the computed norm is at most 1 + gamma_v, gamma_v = 64 (2n)^3
      eps, times the exact one (operator_norm_bounds derives LAPACK's
      sigma_max; the sign search and the closed forms round less), and the
      division by the reference norm adds a factor 1 + u.
    * The bound's own rounding.  Every quantity above is a sum, product or
      quotient of at most n^2 + 64 nonnegative computed numbers, or one of
      the differences 1 - phi_k and 1 - eta_k Sigma|Y_k| with a subtrahend
      <= 1/2; for n <= ``_SCREEN_MAX_DIM`` each is within 2^-40 of its
      exact value, so phi_k and the bound are raised by 2^-30, and the terms
      of order u are doubled.  The doubling also covers gradual underflow:
      the scales max|A|, Sigma|X^|, max|b|, Sigma|x^| and delta lie in
      [2^-256, 2^256] or no member is skipped, so a product or quotient that
      underflows errs by at most 2^-1075, below 2^-500 of those terms.

    So U_k = ((delta B_k + 2 t1_k) / (1 - phi_k) + 2 (t2_k + t3 + t4_k))
    (1 + gamma_v)(1 + u)(1 + 2^-30) / denom, with t1 the rounding of the
    first-order image, t2 the member's LU, t3 A's, and t4 the difference.
    """
    op, n = inst.op, len(inst.op.a)
    if model.mode != NORMWISE or n > _SCREEN_MAX_DIM:
        return None
    inverse = inst.row.output == "inverse"
    u, x = _U, op.inverse
    a_max, a_one, a_inf, x_rows, x_cols, total, x_one, x_inf, omega, q, sigma_lo = (
        op.screen_terms)
    if inverse:
        denom, scales = inst._denom(model), (a_max, total)
    else:
        xs = inst.exact
        denom = vector_norm(xs, model.r)
        s_x, b_max = np.abs(xs).sum(), np.abs(inst.vec).max()
        scales = (a_max, total, b_max, s_x)
    if not (omega <= 0.5 and np.isfinite(sigma_lo)
            and all(1.0 / _SCREEN_RANGE <= t <= _SCREEN_RANGE for t in scales)):
        return None
    growth = (2.0 * (1.0 + u) ** 2) ** (n - 1)
    gamma_v = 64.0 * (2 * n) ** 3 * 2.0 * u
    scale = (1.0 + gamma_v) * (1.0 + u) * (1.0 + _SCREEN_ROUNDING) / denom
    with np.errstate(all="ignore"):
        # the samples' directions at delta = 1, with max|W_k| <= min(||W_k||_1, ||W_k||_inf)
        wm = np.ascontiguousarray(np.moveaxis(w_a[:], 0, -1))  # (n, n, samples)
        abs_w = np.abs(wm)
        w_one, w_inf = abs_w.sum(axis=0).max(axis=0), abs_w.sum(axis=1).max(axis=0)
        w_max = np.minimum(w_one, w_inf)
        sigma = model.s if inverse else model.r
        rank_one = vector_norm(x_rows, sigma)  # [[x_r]], times ||x_c||_rho* for Xi
        if inverse:
            rank_one *= vector_norm(x_cols, dual_exponent(model.r))
            xw = (x @ wm.reshape(n, -1)).reshape(n, n, -1)  # X^ W_k, batch-last
            image = np.moveaxis(x.T @ xw, -1, 0)  # X^ W_k X^, batch-last
            if (model.r, model.s) in BOUNDED_PAIRS:
                size = operator_norm_bounds(image, model.r, model.s)
            else:
                size = operator_norm_values(image, model.r, model.s) * (1.0 + gamma_v)
        else:
            wb_max = 0.0 if w_b is None else np.abs(w_b).max(axis=1)
            image = np.einsum("ijk,j->ik", wm, xs)  # W_k x^
            if w_b is not None:
                image = w_b.T - image
            size = vector_norm((x @ image).T, sigma) * (1.0 + gamma_v)

    def bounds(delta):
        if not 1.0 / _SCREEN_RANGE <= delta <= _SCREEN_RANGE:
            return np.full(len(w_max), np.inf)
        with np.errstate(all="ignore"):
            dw = (1.0 + _gamma(7)) * delta
            alpha = dw * w_max + u * a_max  # max|D_k|
            d_one, d_inf = dw * w_one + u * a_one, dw * w_inf + u * a_inf
            phi = (1.0 + q) * np.maximum(x_one * d_one, x_inf * d_inf)
            phi *= 1.0 + _SCREEN_ROUNDING
            m_max = (1.0 + u) * (a_max + (1.0 + _gamma(5)) * delta * w_max)
            eta_k = _gamma(3 * n) * n * growth * m_max
            certified = sigma_lo * (1.0 - _SCREEN_ROUNDING) > (1.0 + _SCREEN_ROUNDING) * (
                np.sqrt(d_one * d_inf)
                + (_gamma(n) * n * n * growth
                   + math.sqrt(n) * DEFAULT_PIVOT_TOL * (1.0 + u)) * m_max)
            y_mass = (1.0 + q) * total / (1.0 - phi)  # >= Sigma|Y_k|
            # t2 is this times Sigma|y_k| for a solution, (1 + q) / (1 - phi) for the inverse
            lu_scale = eta_k * (1.0 + q) * rank_one / ((1.0 - phi) * (1.0 - eta_k * y_mass))
            if inverse:
                t1 = rank_one * (delta * w_max * (q * (2.0 + q) + _gamma(2 * n))
                                 + (_gamma(7) * delta * w_max + u * a_max) * (1.0 + q) ** 2)
                t2 = lu_scale * y_mass / total
                t3 = q * rank_one / total
                f = alpha * (1.0 + q) ** 2 * rank_one  # [[f_k]]
            else:
                perturbed_b = w_b is not None
                beta = (dw * wb_max + u * b_max) if perturbed_b else 0.0  # max|db_k|
                sx = (1.0 + q) * s_x  # >= Sigma|x|
                t1 = rank_one * (
                    delta * ((q + _gamma(2 * n + 2)) * (wb_max + w_max * s_x)
                             + q * (1.0 + q) * w_max * s_x)
                    + (1.0 + q) * (_gamma(7) * delta * wb_max + u * b_max * perturbed_b
                                   + (_gamma(7) * delta * w_max + u * a_max) * sx))
                f = (1.0 + q) * (beta + alpha * sx)  # [[f_k]] / [[x_r]], Sigma|f_k| / S
                sol_mass = sx + f * total / (1.0 - phi)  # >= Sigma|y_k|
                t2 = lu_scale * sol_mass
                t3 = q * s_x * rank_one / total
                f = f * rank_one
            t4 = u * (f / (1.0 - phi) + t2 + t3)
            bound = ((delta * size + 2.0 * t1) / (1.0 - phi) + 2.0 * (t2 + t3 + t4)) * scale
            ok = certified & (phi <= 0.5) & (eta_k * y_mass <= 0.5) & np.isfinite(bound)
            return np.where(ok, bound, np.inf)

    return bounds
