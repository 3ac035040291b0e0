"""Vector p-norms, dual witnesses, and mixed (r, s) operator norms.

Supported exponents are 1, 2, and inf.  Six of the nine operator-norm pairs
have closed forms (column maxima for r = 1, row dual norms for s = inf, and
the spectral case); the remaining pairs {(inf,1), (inf,2), (2,1)} are
NP-hard in general and are computed exactly here by enumerating sign
vectors, gated by ``max_enum_dim``.  The enumeration meets in the middle:
the images of the two halves' sign patterns are formed once and summed, so
each sign vector costs O(n) work rather than O(n m), with temporaries
bounded near 2^16 elements.  (inf,2) and (2,1) are quadratic forms, so one
batched GEMM screens every sign vector, and only those within a derived
rounding bound of the maximum are confirmed by the elementwise score; the
sign vector chosen, and so every value and attainer, is the same as if all
were scored elementwise.  Single matrices and stacks share one core, and
the (2,2) norm comes from LAPACK.  At those four pairs without a closed
form, :func:`operator_norm_bounds` gives cheap bounds that are exact on
rank-one matrices up to a derived margin and never below the computed
value; its one caller, ``empirical._supremum_bounds``, bounds the
first-order image of every sample of the estimator with them.  A vector
norm or an operator norm beyond DBL_MAX raises ResultOverflow, at every
exponent and every pair.

Also provides the rank-one norm interpolator: given unit vectors x, y it
builds B = y u^T with ||B||_rs = 1 and B x = y, the workhorse behind the
worst-case perturbations used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from . import linalg
from .errors import DimensionTooLarge, NotUnitVector, ResultOverflow, ZeroVector
from .linalg import as_matrix, spectral_norm_attainer

DEFAULT_MAX_ENUM_DIM = 20

_DUAL = {1.0: inf, 2.0: 2.0, inf: 1.0}
_NAMES = {"1": 1.0, "one": 1.0, "2": 2.0, "two": 2.0, "inf": inf, "infinity": inf}

#: Stacks with a last axis shorter than this are reduced column by column.
_SHORT_AXIS = 8

#: Elements in one chunk of the enumeration's temporaries.
_CHUNK_ELEMENTS = 1 << 16

#: Pairs computed by sign-vector enumeration rather than a closed form.
ENUMERATION_PAIRS = ((inf, 1.0), (inf, 2.0), (2.0, 1.0))

#: Pairs with no closed form, which :func:`operator_norm_bounds` bounds.
BOUNDED_PAIRS = ENUMERATION_PAIRS + ((2.0, 2.0),)


def norm_index(value):
    """Canonicalize a norm exponent to 1.0, 2.0 or inf."""
    if isinstance(value, str):
        try:
            return _NAMES[value.strip().lower()]
        except KeyError:
            raise ValueError(f"unsupported norm index {value!r}") from None
    value = float(value)
    if value not in _DUAL:
        raise ValueError(f"unsupported norm index {value!r}; use 1, 2 or inf")
    return value


def dual_exponent(r):
    """The exponent r* with 1/r + 1/r* = 1, under 1* = inf, inf* = 1, 2* = 2."""
    return _DUAL[norm_index(r)]


def _reduce_last(op, x):
    """``op.reduce`` along the last axis.  numpy reduces an axis shorter than
    8 strictly left to right, so for such stacks a loop over the columns
    gives the same bits, several times faster."""
    if x.ndim >= 2 and 0 < x.shape[-1] < _SHORT_AXIS:
        acc = x[..., 0].copy()
        for j in range(1, x.shape[-1]):
            op(acc, x[..., j], out=acc)
        return acc
    return op.reduce(x, axis=-1)


def vector_norm(x, r):
    """1-, 2- or inf-norm along the last axis.

    The 2-norm is scaled by the largest magnitude first, so extreme inputs
    neither underflow nor overflow when squared.  Raises ResultOverflow when
    a norm exceeds DBL_MAX.
    """
    with np.errstate(over="ignore"):
        norm = _vector_norm(x, r)
    if np.isinf(norm).any():
        raise ResultOverflow("vector norm exceeds the largest finite double")
    return norm


def _vector_norm(x, r):
    """:func:`vector_norm` with an overflowed norm left at inf."""
    r = norm_index(r)
    x = np.asarray(x, dtype=np.float64)
    if r == 1.0:
        return _reduce_last(np.add, np.abs(x))
    if r == 2.0:
        scale = _reduce_last(np.maximum, np.abs(x))[..., None]
        # an infinite entry is left unscaled, so the norm is inf, not inf / inf
        y = x / np.where((scale > 0.0) & (scale < inf), scale, 1.0)
        return scale[..., 0] * np.sqrt(_reduce_last(np.add, y * y))
    return _reduce_last(np.maximum, np.abs(x))


def _unit_2(x):
    """x / ||x||_2 along the last axis, zero vectors left as they are.

    x is first scaled by 2^-e, e the binary exponent of max|x_i|; that is
    exact, and keeps subnormal input from rounding its norm to max|x_i|.
    """
    _, exponent = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))
    x = np.ldexp(x, -exponent)
    norm = vector_norm(x, 2)[..., None]
    return x / np.where(norm > 0.0, norm, 1.0)


def dual_witness(x, r):
    """A vector u with ||u||_{r*} = 1 and u . x = ||x||_r.

    Ties are broken deterministically: sign(0) = +1 for r = 1, and for
    r = inf the lowest index of maximum magnitude is used.
    """
    r = norm_index(r)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("dual_witness expects a single vector")
    if not np.any(x != 0.0):
        raise ZeroVector("dual witness of the zero vector is undefined")
    if r == 1.0:
        return np.where(x >= 0.0, 1.0, -1.0)
    if r == 2.0:
        return _unit_2(x)
    k = int(np.argmax(np.abs(x)))
    u = np.zeros_like(x)
    u[k] = 1.0 if x[k] >= 0.0 else -1.0
    return u


@dataclass
class OperatorNormResult:
    """An operator-norm value together with a unit vector attaining it."""

    value: float
    method: str  # "closed_form" or "vertex_enumeration"
    attainer: np.ndarray


def _half_images(init, cols):
    """(2^k, b, n) images init + cols @ z of a (b, n) ``init`` and the k
    columns of a (b, n, k) stack, one for every sign pattern, z_j = -1 at
    its set bits j.  Each doubling writes the - half from the + half, then
    adds the column to the + half in place: every image is the same chain
    of elementwise sums at any chunking."""
    out = np.empty((1 << cols.shape[-1],) + init.shape)
    out[0] = init
    for j in range(cols.shape[-1]):
        half, col = 1 << j, cols[..., j]
        np.subtract(out[:half], col, out=out[half:2 * half])
        out[:half] += col
    return out


def _chunk(buf, shape):
    """A C-contiguous ``shape`` array over the start of the flat ``buf``."""
    return buf[:np.prod(shape)].reshape(shape)


def _abs_scores(hi, lo, cols):
    """For each chunk of ``cols`` high patterns: (matrices, score, sign
    index) of the first maximum of each matrix, scoring sum_i |H_i + L_i|
    in row order."""
    hi, lo = hi.transpose(1, 2, 0).copy(), lo.transpose(1, 2, 0).copy()  # (b, n, 2^k)
    bb, n, lsize = lo.shape
    buf = np.empty((2, bb * cols * lsize))  # reused by every chunk
    for c0 in range(0, hi.shape[-1], cols):
        h = hi[:, :, c0:c0 + cols, None]
        acc, term = (_chunk(x, (bb, h.shape[2], lsize)) for x in buf)
        np.abs(np.add(h[:, 0], lo[:, 0, None, :], out=acc), out=acc)
        for i in range(1, n):
            acc += np.abs(np.add(h[:, i], lo[:, i, None, :], out=term), out=term)
        flat = acc.reshape(bb, -1)
        k = np.argmax(flat, axis=1)
        yield np.arange(bb), flat[np.arange(bb), k], c0 * lsize + k


def _square_scores(hi, lo, cols, part):
    """:func:`_abs_scores` for sum_i (H_i + L_i)^2, screened by one GEMM.

    H and L are the computed half images, so q = ||H||^2 + ||L||^2 +
    2<H, L> and the elementwise score S differ only in how they round
    sum_i (H_i + L_i)^2.  Each is within gamma_{n+2} U of it, in Higham's
    gamma_k = k eps / (1 - k eps), whatever order the GEMM sums in;
    U = sum_i (|H_i| + |L_i|)^2 is at most (1 + eps)^{2m} W, with
    W = sum_i (sum_j |t_ij|)^2.  So |q - S| <= gamma W for gamma =
    2 (n + 4) eps, which leaves room for rounding W and the threshold, and
    the first maximum of S has q >= max q - 2 gamma W (compared here as
    q / 2 against max q / 2 - gamma W).  Only the sign vectors past that
    screen are scored elementwise, in row order and index order, so the
    winner is the one the elementwise search picks.  They are scored a block
    at a time, which bounds the temporaries even when every sign vector
    ties.
    """
    hsize, bb, n = hi.shape
    lsize = lo.shape[0]
    gamma = 2.0 * (n + 4) * np.finfo(np.float64).eps
    slack = gamma * np.sum(np.sum(np.abs(part), axis=2) ** 2, axis=1)  # of q / 2
    hnorm = 0.5 * np.einsum("kbi,kbi->bk", hi, hi)
    lnorm = 0.5 * np.einsum("kbi,kbi->bk", lo, lo)
    lo_t = np.ascontiguousarray(lo.transpose(1, 2, 0))  # (b, n, 2^l) for BLAS
    hi_rows, lo_rows = hi.reshape(-1, n), lo.reshape(-1, n)
    buf = np.empty(bb * cols * lsize)  # reused by every chunk
    block = max(1, _CHUNK_ELEMENTS >> 4)
    for c0 in range(0, hsize, cols):
        h = hi[c0:c0 + cols].transpose(1, 0, 2)
        q = _chunk(buf, (bb, h.shape[1], lsize))
        np.matmul(h, lo_t, out=q)
        q += hnorm[:, c0:c0 + cols, None]
        q += lnorm[:, None, :]
        flat = q.reshape(bb, -1)
        top = flat[np.arange(bb), np.argmax(flat, axis=1)]
        passed = np.flatnonzero(flat >= (top - slack)[:, None])
        for c in range(0, len(passed), block):  # in matrix, then index order
            b, k = np.divmod(passed[c:c + block], flat.shape[1])
            hrow, lrow = (c0 + k // lsize) * bb + b, (k % lsize) * bb + b
            score = np.square(hi_rows[hrow, 0] + lo_rows[lrow, 0])
            for i in range(1, n):
                score += np.square(hi_rows[hrow, i] + lo_rows[lrow, i])
            start = np.flatnonzero(np.diff(b, prepend=-1))
            if len(start) < len(b):  # the first maximum of each matrix's run
                top = np.repeat(np.maximum.reduceat(score, start), np.diff(start, append=len(b)))
                first = np.flatnonzero(score == top)
                first = first[np.diff(b[first], prepend=-1) != 0]
                b, k, score = b[first], k[first], score[first]
            yield b, score, c0 * lsize + k


def _best_signs(t, s):
    """Sign vectors z, z_0 = +1, maximizing ||t z||_s over a (b, n, m) stack.

    Index high * 2^l + low sets z_{j+1} = -1 at its set bits j.  The images
    L and H of the l low and m-1-l high signs are formed once, and a sign
    vector scores sum_i |H_i + L_i|^s over the rows in order; s = 2 screens
    with one GEMM first (:func:`_square_scores`).  Chunks keep every
    temporary near ``_CHUNK_ELEMENTS``.  The first maximum in index order
    wins.
    """
    b, n, m = t.shape
    low = (m - 1) // 2
    lsize, hsize = 1 << low, 1 << (m - 1 - low)
    cols = min(hsize, max(1, _CHUNK_ELEMENTS // lsize))
    batch = max(1, _CHUNK_ELEMENTS // max(cols * lsize, n * (lsize + hsize)))
    best, index = np.full(b, -1.0), np.zeros(b, dtype=np.int64)
    for b0 in range(0, b, batch):
        part = t[b0:b0 + batch]
        lo = _half_images(part[..., 0], part[..., 1:1 + low])
        hi = _half_images(np.zeros_like(part[..., 0]), part[..., 1 + low:])
        chunks = _abs_scores(hi, lo, cols) if s == 1.0 else _square_scores(hi, lo, cols, part)
        for rows, val, idx in chunks:
            rows = b0 + rows
            better = val > best[rows]
            best[rows[better]] = val[better]
            index[rows[better]] = idx[better]
    bits = (index[:, None] >> np.arange(m - 1)) & 1
    return np.concatenate((np.ones((b, 1)), 1.0 - 2.0 * bits), axis=1)


def _operator_norms(a, r, s, max_enum_dim, want_attainers):
    """(values, attainers or None) of the (r, s) norm over a stack of matrices;
    the (2,2) attainer takes a single matrix.  Raises ResultOverflow when a
    norm exceeds DBL_MAX."""
    r, s = norm_index(r), norm_index(s)
    a = as_matrix(a)
    lead, m = a.shape[:-2], a.shape[-1]
    attainers = None
    with np.errstate(over="ignore"):
        if r == 1.0:
            vals = _vector_norm(np.swapaxes(a, -2, -1), s)
            values = np.max(vals, axis=-1)
            if want_attainers:
                attainers = np.eye(m)[np.argmax(vals, axis=-1)]
        elif s == inf:
            rstar = dual_exponent(r)
            vals = _vector_norm(a, rstar)
            values = np.max(vals, axis=-1)
            if want_attainers:
                i = np.argmax(vals, axis=-1)[..., None, None]
                row = np.take_along_axis(a, i, axis=-2)[..., 0, :]
                attainers = np.where(row >= 0.0, 1.0, -1.0) if rstar == 1.0 else _unit_2(row)
                attainers[values == 0.0] = np.eye(m)[0]
        elif r == 2.0 and s == 2.0:
            if want_attainers:
                values, attainers = spectral_norm_attainer(a)  # a single matrix
            else:
                values = linalg.singular_values(a)[..., 0]
        else:
            # (2, 1) enumerates over rows: sup ||A x||_1 = max over z of ||A^T z||_2
            t = a if r == inf else np.swapaxes(a, -2, -1)
            if t.shape[-1] > max_enum_dim:
                raise DimensionTooLarge(f"({r:g},{s:g}) norm needs 2^{t.shape[-1]} sign vectors")
            t = t.reshape((-1,) + t.shape[-2:])
            _, exponent = np.frexp(np.max(np.abs(t), axis=(1, 2)))
            t = np.ldexp(t, -exponent[:, None, None])  # exact power-of-two scaling
            s = s if r == inf else 2.0
            z = _best_signs(t, s)
            image = np.einsum("...j,...ij->...i", z, t)
            norm = _vector_norm(image, s)
            values = np.ldexp(norm, exponent).reshape(lead)
            if want_attainers and r == 2.0:
                z = image / np.where(norm > 0.0, norm, 1.0)[:, None]
                z[norm == 0.0] = np.eye(m)[0]
            attainers = z.reshape(lead + (m,)) if want_attainers else None
    if np.any(np.isinf(values)):
        raise ResultOverflow("operator norm exceeds the largest finite double")
    return values, attainers


def operator_norm(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """Exact operator norm sup ||A x||_s / ||x||_r with its attainer.

    Closed forms: r = 1 maximizes over columns; s = inf over rows; (2,2) is
    LAPACK's sigma_max with its right singular vector.  (inf,1), (inf,2) and
    (2,1) enumerate sign vectors and raise DimensionTooLarge past ``max_enum_dim``.
    """
    if np.ndim(a) != 2:
        raise ValueError("operator_norm expects a single matrix; see operator_norm_values")
    value, attainer = _operator_norms(a, r, s, max_enum_dim, want_attainers=True)
    enumerated = (norm_index(r), norm_index(s)) in ENUMERATION_PAIRS
    method = "vertex_enumeration" if enumerated else "closed_form"
    return OperatorNormResult(float(value), method, attainer)


def operator_norm_values(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """Operator-norm values for a stack of matrices (no attainers).

    The same core as :func:`operator_norm`, so a matrix gets the same bits
    alone or in a stack, and the value of :func:`operator_norm` at every pair
    but (2,2), whose values skip LAPACK's singular vectors.
    """
    return _operator_norms(a, r, s, max_enum_dim, want_attainers=False)[0]


def operator_norm_bounds(a, r, s):
    """Upper bounds on :func:`operator_norm_values` over a stack, one per
    member, at a pair of ``BOUNDED_PAIRS``; each within a factor 1 + gamma
    of the (r, s) norm of a rank-one member (Higham, ASNA, section 6.3).
    ``empirical._supremum_bounds`` is the one caller.

    The bound B is sum_ij |a_ij| at (inf,1), the sum of the column 2-norms
    at (inf,2), the sum of the row 2-norms at (2,1) and ||A||_F at (2,2):
    the triangle inequality over the columns (rows at (2,1)) of A, or
    sigma_max <= ||A||_F, with equality at A = y u^T.  What is returned for
    a p x q member is fl(B-hat (1 + gamma)) + (p + q) 2^-1074, B-hat the
    computed B.

    gamma bounds the rounding of both B-hat and the value, in eps = 2^-52,
    u = eps / 2 and gamma_k = k u / (1 - k u).  B-hat >= B (1 - gamma_{pq+4}):
    it sums at most pq magnitudes, or 2-norms of the member scaled by the
    power of two that brings its largest magnitude into [1/2, 1).  On that
    scale B >= 1/2, and an entry or a square that underflows changes a
    2-norm by at most 2^-537 sqrt(pq), far inside the margin.  At an
    enumeration pair the value is the norm of fl(T z), z the signs chosen
    and T the exactly rescaled A (A^T at (2,1)); each entry of fl(T z) is
    within gamma_{p+q} sum_j |t_ij| of (T z)_i, and the norm adds
    gamma_{p+q}, so the value is at most (1 + gamma_{2(p+q)}) B.
    At (2,2) the value is LAPACK's sigma_max.  Householder
    bidiagonalization is backward stable with ||dA||_F <= 2q gamma~_p
    ||A||_F (ASNA, section 19.3, taking c = 8 in gamma~_k = c k u /
    (1 - c k u)), and the values of the bidiagonal come out to relative
    accuracy 70 q^2 u (Demmel & Kahan 1990, which dqds keeps), so by Weyl
    sigma-hat <= sigma_max + (16 pq + 70 q^2) u ||A||_F to first order.
    Either way the value is below (1 + 38 (p + q)^2 eps) B-hat, and
    gamma = 64 (p + q)^2 eps leaves room for the second-order terms and for
    rounding the product.  A value or a bound among the subnormals is off
    by up to half of 2^-1074 per rounded term instead, which the absolute
    term covers.  So the bound is never below the value, and a non-finite
    member gets a non-finite bound.
    """
    r, s = norm_index(r), norm_index(s)
    a = np.asarray(a, dtype=np.float64)
    p, q = a.shape[-2:]
    if (r, s) not in BOUNDED_PAIRS:
        raise ValueError(f"no rank-one bound at ({r:g},{s:g}); see BOUNDED_PAIRS")
    with np.errstate(over="ignore", invalid="ignore"):
        if (r, s) == (inf, 1.0):
            bound = np.sum(np.abs(a), axis=(-2, -1))
        else:  # 2-norms of the member scaled exactly into [1/2, 1)
            _, exponent = np.frexp(np.max(np.abs(a), axis=(-2, -1)))
            y = np.ldexp(a, -exponent[..., None, None])
            y *= y
            if (r, s) == (inf, 2.0):
                bound = np.sum(np.sqrt(np.sum(y, axis=-2)), axis=-1)
            elif (r, s) == (2.0, 1.0):
                bound = np.sum(np.sqrt(np.sum(y, axis=-1)), axis=-1)
            else:
                bound = np.sqrt(np.sum(y, axis=(-2, -1)))
            bound = np.ldexp(bound, exponent)
        gamma = 64.0 * (p + q) ** 2 * np.finfo(np.float64).eps
        return bound * (1.0 + gamma) + (p + q) * np.finfo(np.float64).smallest_subnormal


def rank_one_interpolator(x, y, r, s):
    """The rank-one matrix B = y u^T with ||B||_rs = 1 and B x = y.

    Requires ||x||_r = 1 and ||y||_s = 1 (within 1e-12); u is the dual
    witness of x, so B x = y (u . x) = y and the rank-one norm factors as
    ||y||_s * ||u||_{r*} = 1.
    """
    r = norm_index(r)
    s = norm_index(s)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if abs(vector_norm(x, r) - 1.0) > 1e-12:
        raise NotUnitVector("x must satisfy ||x||_r = 1")
    if abs(vector_norm(y, s) - 1.0) > 1e-12:
        raise NotUnitVector("y must satisfy ||y||_s = 1")
    u = dual_witness(x, r)
    return np.outer(y, u)
