"""Vector p-norms, dual witnesses, and mixed (r, s) operator norms.

Supported exponents are 1, 2, and inf.  Six of the nine operator-norm pairs
have closed forms (column maxima for r = 1, row dual norms for s = inf, and
the spectral case); the remaining pairs {(inf,1), (inf,2), (2,1)} are
NP-hard in general and are computed exactly here by enumerating sign
vectors, gated by ``max_enum_dim``.  The enumeration meets in the middle:
the images of the two halves' sign patterns are formed once and summed, so
each sign vector costs O(n) work rather than O(n m), with temporaries
bounded near 2^16 elements.  Single matrices and stacks share one core.

Also provides the rank-one norm interpolator: given unit vectors x, y it
builds B = y u^T with ||B||_rs = 1 and B x = y, the workhorse behind the
worst-case perturbations used elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from . import linalg
from .errors import DimensionTooLarge, NotUnitVector, ZeroVector
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
    neither underflow nor overflow when squared.
    """
    r = norm_index(r)
    x = np.asarray(x, dtype=np.float64)
    if r == 1.0:
        return _reduce_last(np.add, np.abs(x))
    if r == 2.0:
        scale = _reduce_last(np.maximum, np.abs(x))[..., None]
        y = x / np.where(scale > 0.0, scale, 1.0)
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


def _half_images(cols, img):
    """``img`` plus cols @ z for every sign pattern, z_j = -1 at its set bits j.
    Only elementwise sums, so the bits do not depend on the chunking."""
    for j in range(cols.shape[-1]):
        img = np.concatenate((img + cols[..., j, None], img - cols[..., j, None]), axis=-1)
    return img


def _best_signs(t, s):
    """Sign vectors z, z_0 = +1, maximizing ||t z||_s over a (b, n, m) stack.

    Index high * 2^l + low sets z_{j+1} = -1 at its set bits j; the images
    of the l low and m-1-l high signs are formed once and summed a chunk at
    a time.  The first maximum in index order wins.
    """
    b, n, m = t.shape
    low = (m - 1) // 2
    lsize, hsize = 1 << low, 1 << (m - 1 - low)
    cols = min(hsize, max(1, _CHUNK_ELEMENTS // lsize))
    batch = max(1, _CHUNK_ELEMENTS // (cols * lsize))
    power = np.abs if s == 1.0 else np.square
    best, index = np.full(b, -1.0), np.zeros(b, dtype=np.int64)
    acc, term = np.empty((2, min(b, batch), cols, lsize))  # reused by every chunk
    for b0 in range(0, b, batch):
        part, sl = t[b0:b0 + batch], slice(b0, b0 + batch)
        lo = _half_images(part[..., 1:1 + low], part[..., :1])
        hi = _half_images(part[..., 1 + low:], np.zeros_like(part[..., :1]))
        sums, tmp = acc[:len(part)], term[:len(part)]
        for c0 in range(0, hsize, cols):
            # the n rows are summed in one order whatever the chunk shape
            h = hi[:, :, c0:c0 + cols, None]
            power(np.add(h[:, 0], lo[:, 0, None, :], out=sums), out=sums)
            for i in range(1, n):
                sums += power(np.add(h[:, i], lo[:, i, None, :], out=tmp), out=tmp)
            flat = sums.reshape(len(part), -1)
            k = np.argmax(flat, axis=1)
            val = flat[np.arange(len(part)), k]
            better = val > best[sl]
            np.copyto(best[sl], val, where=better)
            np.copyto(index[sl], c0 * lsize + k, where=better)
    bits = (index[:, None] >> np.arange(m - 1)) & 1
    return np.concatenate((np.ones((b, 1)), 1.0 - 2.0 * bits), axis=1)


def _operator_norms(a, r, s, max_enum_dim, want_attainers):
    """(values, attainers or None) of the (r, s) norm over a stack of matrices;
    (2,2) attainers come from Jacobi, which takes a single matrix."""
    r, s = norm_index(r), norm_index(s)
    a = as_matrix(a)
    lead, m = a.shape[:-2], a.shape[-1]
    attainers = None
    if r == 1.0:
        vals = vector_norm(np.swapaxes(a, -2, -1), s)
        values = np.max(vals, axis=-1)
        if want_attainers:
            attainers = np.eye(m)[np.argmax(vals, axis=-1)]
    elif s == inf:
        rstar = dual_exponent(r)
        vals = vector_norm(a, rstar)
        values = np.max(vals, axis=-1)
        if want_attainers:
            i = np.argmax(vals, axis=-1)[..., None, None]
            row = np.take_along_axis(a, i, axis=-2)[..., 0, :]
            attainers = np.where(row >= 0.0, 1.0, -1.0) if rstar == 1.0 else _unit_2(row)
            attainers[values == 0.0] = np.eye(m)[0]
    elif r == 2.0 and s == 2.0:
        if not want_attainers:
            return linalg.singular_values(a)[..., 0], None
        values, attainers = spectral_norm_attainer(a)  # a single matrix
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
        norm = vector_norm(image, s)
        values = np.ldexp(norm, exponent).reshape(lead)
        if want_attainers and r == 2.0:
            z = image / np.where(norm > 0.0, norm, 1.0)[:, None]
            z[norm == 0.0] = np.eye(m)[0]
        attainers = z.reshape(lead + (m,)) if want_attainers else None
    return values, attainers


def operator_norm(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """Exact operator norm sup ||A x||_s / ||x||_r with its attainer.

    Closed forms: r = 1 maximizes over columns; s = inf over rows; (2,2) is
    Jacobi's sigma_max with its right singular vector.  (inf,1), (inf,2) and
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
    alone or in a stack; (2,2) values come from LAPACK rather than Jacobi.
    """
    return _operator_norms(a, r, s, max_enum_dim, want_attainers=False)[0]


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
