"""Dense real matrix kernels: LU with partial pivoting, triangular solves,
inversion, QL, and singular values.

Everything works in binary64 and accepts stacked inputs: a shape
``(..., n, m)`` array is treated as a stack of matrices and the result
carries the leading batch dimensions.  The Monte Carlo modules lean on this
to evaluate thousands of small factorizations per numpy call.

LU and the solves keep a stack batch-last in memory: the arrays have the
logical shapes ``(..., n, n)``, ``(..., n)`` and ``(..., n, k)``, but the
working arrays are ``(n, n, batch)``, ``(n, batch)`` and ``(n, k, batch)``,
so each step of the elimination or the substitution is a few operations on
contiguous rows as long as the batch.  ``_lu_raw`` returns its factors as
views of those working arrays and ``_lu_solve_packed`` reads them without a
copy; only the solution comes back C-contiguous.  When every matrix of a
stack picks the same pivot row, which is the case for small perturbations
of one matrix, the rows are swapped by slices.  Every matrix still goes
through the same scalar operations in the same order as it would alone, so
its packed factors, permutation, parity and singular flag, and every
solution and inverse, are bitwise the same whether it is handled alone or
inside any stack.  The substitutions run in one fixed, documented order
(see ``_lu_solve_packed``) with no dot products, so their bits depend on
neither the batch nor the BLAS.

Singular values have one entry point, ``_jacobi``, and one engine, LAPACK
(``np.linalg.svd``): value-only stacks skip the singular vectors, and the
spectral-norm attainer takes sigma_max and its right singular vector from
one decomposition.  Before LAPACK sees a matrix it is scaled by the power of
two that brings its largest magnitude into [1/2, 1).  That scaling is
exact, so the values of 2^k * A are exactly 2^k times those of A while the
entries stay normal.  The tests keep one-sided Jacobi, a high-relative-
accuracy method (Demmel & Veselic 1992), as the reference for both.
QL comes from LAPACK too, as the Householder QR (``np.linalg.qr``) of the
reversed matrix, so its bits depend on the LAPACK build, as the singular
values' do.

All functions are pure; inputs are never modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularMatrix

#: Relative pivot tolerance below which a matrix is reported singular.
DEFAULT_PIVOT_TOL = 1e-13


def as_matrix(a):
    """Coerce to a float64 stack of matrices, requiring finite entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError("expected a matrix (at least 2-d array)")
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        raise ValueError("matrix dimensions must be positive")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_square(a):
    a = as_matrix(a)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got {a.shape[-2]}x{a.shape[-1]}")
    return a


def frobenius_norm(a):
    """Square root of the sum of squared entries; batched over leading dims.

    Scaled by the largest magnitude so squaring cannot under- or overflow.
    """
    a = as_matrix(a)
    scale = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
    y = a / np.where(scale > 0.0, scale, 1.0)
    return scale[..., 0, 0] * np.sqrt(np.sum(y * y, axis=(-2, -1)))


@dataclass
class LUFactors:
    """P*A = L*U with row permutation ``perm`` (row i of PA is row perm[i] of A)."""

    permutation: np.ndarray
    unit_lower: np.ndarray
    upper: np.ndarray
    parity: np.ndarray


def _lu_raw(a):
    """Batched LU, no raising: returns (packed LU, perm, parity, singular mask).

    The stack is factored in a batch-last working array ``w`` of shape
    ``(n, n, batch)``: row i of every matrix is the contiguous block
    ``w[i]``, so the pivot search, the row swaps, the pivot test and the
    rank-1 update each run over rows as long as the batch.  A transposed
    view of such a buffer (what ``np.moveaxis(buf, -1, 0)`` gives) is
    copied into ``w`` without transposing.  Every matrix goes through the
    same scalar operations as in a matrix-by-matrix elimination: the first
    largest |pivot| wins, a matrix is singular once a pivot falls to
    ``DEFAULT_PIVOT_TOL * max|a_ij|`` or below, and from then on its
    multipliers are divided by 1.  So each matrix gets the same bits alone
    as inside a stack.

    At each step the first matrix's pivot row is checked against every
    matrix with elementwise compares; when all agree, which they do for
    small perturbations of one matrix, that row pair of ``w`` and of the
    permutations is swapped by slices and every parity flips at once.
    Otherwise each matrix's pivot is found by ``argmax`` and exchanged
    through flat indices.  A single matrix is eliminated on its own
    ``(n, n)`` rows.

    The packed factors and the permutation come back in the ``(..., n, n)``
    and ``(..., n)`` shapes as transposed views of the working arrays, so
    their memory is batch-last, which is what :func:`_lu_solve_packed`
    reads.  Elements flagged singular carry garbage factors; callers must
    mask.
    """
    a = as_square(a)
    lead = a.shape[:-2]
    n = a.shape[-1]
    w = a.reshape(-1, n, n).transpose(1, 2, 0).copy()
    limit = DEFAULT_PIVOT_TOL * np.max(np.abs(w), axis=(0, 1))
    if w.shape[-1] == 1:
        perm, parity, singular = _eliminate_one(w[..., 0], limit[0])
    else:
        perm, parity, singular = _eliminate_stack(w, limit)
    return (
        w.transpose(2, 0, 1).reshape(lead + (n, n)),
        perm.T.reshape(lead + (n,)),
        parity.reshape(lead),
        singular.reshape(lead),
    )


def _eliminate_one(w, limit):
    """Eliminate one matrix in place on its rows ``w``; (perm as ``(n, 1)``,
    parity, singular flag) as arrays of one matrix."""
    n = len(w)
    perm = np.arange(n)
    parity, singular = 1.0, False
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(w[k:, k])))
        if p != k:
            w[[k, p]] = w[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            parity = -parity
        singular = singular or bool(abs(w[k, k]) <= limit)
        f = w[k + 1 :, k]
        if not singular:
            f /= w[k, k]
        w[k + 1 :, k + 1 :] -= f[:, None] * w[k, k + 1 :]
    singular = singular or bool(abs(w[-1, -1]) <= limit)
    return perm[:, None], np.array([parity]), np.array([singular])


def _eliminate_stack(w, limit):
    """Eliminate the batch-last stack ``w`` in place; (perm as ``(n, batch)``,
    parity, singular mask)."""
    n, _, nb = w.shape
    perm = np.arange(n).repeat(nb).reshape(n, nb)
    parity = np.ones(nb)
    singular = np.zeros(nb, dtype=bool)
    # a split pivot moves w[k] and w[k + j] through flat indices into w and perm
    batch = np.arange(nb)
    w_flat, perm_flat = w.reshape(-1), perm.reshape(-1)
    row_offsets = np.arange(n)[:, None] * nb + batch
    for k in range(n - 1):
        col = np.abs(w[k:, k])
        p = int(np.argmax(col[:, 0])) if nb else 0
        # every matrix picks row k + p first iff no row above beats or ties
        # it and no row below beats it (a NaN fails both compares)
        if (col[:p] < col[p]).all() and (col[p + 1 :] <= col[p]).all():
            if p:
                w[[k, k + p]] = w[[k + p, k]]
                perm[[k, k + p]] = perm[[k + p, k]]
                np.negative(parity, out=parity)
        else:
            j = np.argmax(col, axis=0)
            moved = j != 0
            piv_row = k + j
            at = piv_row * nb + batch
            row = perm_flat[at]
            perm_flat[at] = perm[k]
            perm[k] = row
            at = row_offsets + piv_row * (n * nb)
            row = w_flat[at]
            w_flat[at] = w[k]
            w[k] = row
            parity = np.where(moved, -parity, parity)
        singular |= np.abs(w[k, k]) <= limit
        f = w[k + 1 :, k]
        f /= np.where(singular, 1.0, w[k, k])
        w[k + 1 :, k + 1 :] -= f[:, None] * w[k, None, k + 1 :]
    singular |= np.abs(w[-1, -1]) <= limit
    return perm, parity, singular


def lu_decompose(a):
    """LU with partial row pivoting.

    Raises SingularMatrix when any pivot magnitude falls to
    ``DEFAULT_PIVOT_TOL * max|a_ij|`` or below, i.e. the input sits within
    tolerance of the singular set.
    """
    lu, perm, parity, singular = _lu_raw(a)
    if np.any(singular):
        raise SingularMatrix("pivot below tolerance; matrix is singular within tolerance")
    n = lu.shape[-1]
    eye = np.eye(n)
    lower = np.tril(lu, -1) + eye
    upper = np.triu(lu)
    return LUFactors(permutation=perm, unit_lower=lower, upper=upper, parity=parity)


def _lu_solve_packed(lu, perm, b):
    """Solve with packed factors for ``b`` of shape ``(..., n, k)``; the
    leading dimensions of ``b`` and of the factors broadcast.

    The solve works on a batch-last array ``x`` of shape ``(n, k, batch)``,
    so row i of every right-hand side of every matrix is the contiguous
    block ``x[i]``; factors in the layout :func:`_lu_raw` returns are read
    without a copy.  P b is gathered by whole rows when every matrix has the
    same permutation, as the estimator's perturbed stacks do, and per matrix
    otherwise; either way it is the same copy.  Both substitutions are
    right-looking column sweeps in one fixed order.  Forward: for j = 0,
    ..., n-2, once row j of L y = P b is final, ``x[i] -= l_ij * x[j]`` for
    every i > j.  Back: for j = n-1, ..., 0, ``x[j] /= u_jj``, then
    ``x[i] -= u_ij * x[j]`` for every i < j.
    So entry i of a solution is (((pb_i - l_i0 y_0) - l_i1 y_1) - ...) and
    then ((((y_i - u_i,n-1 x_n-1) - ...) - u_i,i+1 x_i+1) / u_ii, each
    product and difference rounded once, whatever the batch or the number
    of right-hand sides.  The solution comes back C-contiguous.
    """
    n = lu.shape[-1]
    if b.ndim < 2 or b.shape[-2] != n:
        raise ValueError(f"right-hand side of shape {b.shape} does not fit {n}x{n} factors")
    k = b.shape[-1]
    lead = np.broadcast_shapes(lu.shape[:-2], b.shape[:-2])
    nb = math.prod(lead)
    lu = np.broadcast_to(lu, lead + (n, n)).reshape(nb, n, n)
    u = np.ascontiguousarray(lu.transpose(1, 2, 0))
    p = np.broadcast_to(perm, lead + (n,)).reshape(nb, n).T
    b = np.broadcast_to(b, lead + (n, k)).reshape(nb, n, k).transpose(1, 2, 0)
    if nb and (p == p[:, :1]).all():
        x = np.ascontiguousarray(b[p[:, 0]])
    else:
        x = np.ascontiguousarray(np.take_along_axis(b, p[:, None, :], axis=0))
    for j in range(n - 1):
        x[j + 1 :] -= u[j + 1 :, j, None] * x[j]
    for j in range(n - 1, -1, -1):
        x[j] /= u[j, j]
        if j:
            x[:j] -= u[:j, j, None] * x[j]
    return np.ascontiguousarray(x.transpose(2, 0, 1)).reshape(lead + (n, k))


def solve(a, b):
    """Solve A x = b by LU forward/back substitution, without forming A^-1.

    ``b`` may be a vector ``(..., n)`` or a block of right-hand sides
    ``(..., n, k)``; the leading dimensions of A and a block broadcast, and
    a ``b`` whose rows do not number n raises ValueError.
    """
    a = as_square(a)
    lu, perm, _, singular = _lu_raw(a)
    if np.any(singular):
        raise SingularMatrix("cannot solve: matrix is singular within tolerance")
    b = np.asarray(b, dtype=np.float64)
    vector_rhs = b.ndim == a.ndim - 1
    if vector_rhs:
        b = b[..., None]
    x = _lu_solve_packed(lu, perm, b)
    return x[..., 0] if vector_rhs else x


def invert(a):
    """Explicit inverse via LU against identity columns.

    The residuals ``A @ invert(A) - I`` and ``invert(A) @ A - I`` are small
    relative to kappa(A) * eps; for ill-conditioned inputs they degrade
    proportionally and are not asserted here.
    """
    a = as_square(a)
    lu, perm, _, singular = _lu_raw(a)
    if np.any(singular):
        raise SingularMatrix("cannot invert: matrix is singular within tolerance")
    n = a.shape[-1]
    return _lu_solve_packed(lu, perm, np.broadcast_to(np.eye(n), a.shape))


@dataclass
class QLFactors:
    """A = Q @ L with Q orthogonal and L lower triangular, diag(L) >= 0."""

    orthogonal: np.ndarray
    lower_triangular: np.ndarray


def _householder_ql(a, want_q):
    """QL from LAPACK's Householder QR of the reversed matrix: with J the
    reversal, J A J = Q R gives A = (J Q J)(J R J), and J R J is lower
    triangular.

    Each matrix is scaled by 2^-e, e the binary exponent of its largest
    magnitude, and its L scaled back by 2^e, as in ``_jacobi``.  So the
    factors of a matrix near the overflow threshold stay finite, and while
    no entry turns subnormal the scaling is exact and leaves the bits of
    the unscaled factorization."""
    a = as_square(a)[..., ::-1, ::-1]
    _, exponent = np.frexp(np.max(np.abs(a), axis=(-2, -1), keepdims=True))
    a = np.ldexp(a, -exponent)
    if want_q:
        q, r = np.linalg.qr(a)
        q = q[..., ::-1, ::-1]
    else:
        q, r = None, np.linalg.qr(a, mode="r")
    lower = np.ldexp(r[..., ::-1, ::-1], exponent)
    flip = np.diagonal(lower, axis1=-2, axis2=-1) < 0.0
    # negate the rows of L with a negative diagonal, and the matching columns
    # of Q so that A = Q L still holds
    lower = np.where(flip[..., :, None], -lower, lower)
    if want_q:
        q = np.where(flip[..., None, :], -q, q)
    return q, lower


def ql_decompose(a):
    """QL factorization from LAPACK's Householder QR of the reversed matrix,
    then row/column sign flips so that diag(L) >= 0.

    Deterministic for fixed input and LAPACK build.  Rank-deficient inputs
    simply yield zero diagonal entries in L.
    """
    q, lower = _householder_ql(a, want_q=True)
    return QLFactors(orthogonal=q, lower_triangular=lower)


def ql_lower(a):
    """Lower factor of the QL factorization only (cheaper; batched)."""
    _, lower = _householder_ql(a, want_q=False)
    return lower


def _jacobi(a, want_vectors):
    """Singular values of a stack, nonincreasing, shape ``(..., k)``, and with
    ``want_vectors`` the unit right singular vector of the largest, shape
    ``(..., m)``; else None.

    Both come from one LAPACK call (``np.linalg.svd``).  The name is that of
    the one-sided Jacobi engine this replaced; it stays the single entry
    point for singular values, which the benchmark's tracing wraps.

    Each matrix is scaled by 2^-e, e the binary exponent of its largest
    magnitude, and its values are scaled back by 2^e.  The factor is a power
    of two, so the scaling is exact: 2^k * A gets exactly 2^k times the
    values of A and the same vector.  The vector's first entry of largest
    magnitude is positive.

    Raises NoConvergence when LAPACK fails to converge.
    """
    lead = a.shape[:-2]
    stack = a.reshape((-1,) + a.shape[-2:])
    _, exponent = np.frexp(np.max(np.abs(stack), axis=(1, 2)))
    stack = np.ldexp(stack, -exponent[:, None, None])
    try:
        if want_vectors:
            _, values, vh = np.linalg.svd(stack, full_matrices=False)
        else:
            values = np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK singular values did not converge: {exc}") from None
    values = np.ldexp(values, exponent[:, None]).reshape(lead + values.shape[-1:])
    if not want_vectors:
        return values, None
    v = vh[:, 0, :]
    lead_entry = v[np.arange(len(v)), np.argmax(np.abs(v), axis=1)]
    v *= np.where(lead_entry < 0.0, -1.0, 1.0)[:, None]
    return values, v.reshape(lead + v.shape[-1:])


def singular_values(a):
    """Singular values, nonincreasing; batched over leading dimensions.

    Computed by LAPACK after exact power-of-two prescaling (see ``_jacobi``),
    so the result neither under- nor overflows while the true values are
    representable.  Raises NoConvergence if LAPACK fails to converge.
    """
    a = as_matrix(a)
    if a.shape[-2] < a.shape[-1]:
        a = np.swapaxes(a, -2, -1)
    values, _ = _jacobi(a, want_vectors=False)
    return values


def spectral_norm_attainer(a):
    """(sigma_max, unit right singular vector attaining it) for a single
    matrix, from LAPACK; e_0 for the zero matrix."""
    a = as_matrix(a)
    if a.ndim != 2:
        raise ValueError("attainer is defined for a single matrix")
    values, vec = _jacobi(a, want_vectors=True)
    sigma = float(values[0])
    if sigma == 0.0:
        vec = np.eye(a.shape[1])[0]
    return sigma, vec
