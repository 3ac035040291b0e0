"""Dense real matrix kernels: LU with partial pivoting, triangular solves,
inversion, Householder QL, and singular values.

Everything works in binary64 and accepts stacked inputs: a shape
``(..., n, m)`` array is treated as a stack of matrices and the result
carries the leading batch dimensions.  The Monte Carlo modules lean on this
to evaluate thousands of small factorizations per numpy call.

LU factors a stack in a batch-last working array ``(n, n, batch)``, so each
step of the elimination is a few operations on contiguous rows as long as
the batch.  Every matrix still goes through the same scalar operations in
the same order as it would alone, so its packed factors, permutation,
parity and singular flag are bitwise the same whether it is factored alone
or inside any stack, and they come back C-contiguous in the ``(..., n, n)``
layout that the triangular solves read.

Singular values have one entry point, ``_jacobi``, and one engine, LAPACK
(``np.linalg.svd``): value-only stacks skip the singular vectors, and the
spectral-norm attainer takes sigma_max and its right singular vector from
one decomposition.  Before LAPACK sees a matrix it is scaled by the power of
two that brings its largest magnitude into [1/2, 1).  That scaling is
exact, so the values of 2^k * A are exactly 2^k times those of A while the
entries stay normal.  The tests keep one-sided Jacobi, a high-relative-
accuracy method (Demmel & Veselic 1992), as the reference for both.

All functions are pure; inputs are never modified.
"""

from __future__ import annotations

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
    rank-1 update each run over rows as long as the batch.  Every matrix
    goes through the same scalar operations as in a matrix-by-matrix
    elimination: the first largest |pivot| wins, a matrix is singular once
    a pivot falls to ``DEFAULT_PIVOT_TOL * max|a_ij|`` or below, and from
    then on its multipliers are divided by 1.  So each matrix gets the same
    bits alone as inside a stack.  The results come back C-contiguous in
    the ``(..., n, n)`` layout.

    Elements flagged singular carry garbage factors; callers must mask.
    """
    a = as_square(a)
    lead = a.shape[:-2]
    n = a.shape[-1]
    w = a.reshape(-1, n, n).transpose(1, 2, 0).copy()
    nb = w.shape[-1]
    perm = np.arange(n).repeat(nb).reshape(n, nb)
    parity = np.ones(nb)
    singular = np.zeros(nb, dtype=bool)
    amax = np.max(np.abs(w), axis=(0, 1))
    # a row swap moves w[k] and w[k + j] through flat indices into w and perm
    batch = np.arange(nb)
    w_flat, perm_flat = w.reshape(-1), perm.reshape(-1)
    row_offsets = np.arange(n)[:, None] * nb + batch
    for k in range(n):
        j = np.argmax(np.abs(w[k:, k]), axis=0)
        moved = j != 0
        if moved.any():
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
        piv = w[k, k]
        singular |= np.abs(piv) <= DEFAULT_PIVOT_TOL * amax
        safe = np.where(singular, 1.0, piv)
        if k + 1 < n:
            f = w[k + 1 :, k] / safe
            w[k + 1 :, k] = f
            w[k + 1 :, k + 1 :] -= f[:, None] * w[k, None, k + 1 :]
    return (
        np.ascontiguousarray(w.transpose(2, 0, 1)).reshape(lead + (n, n)),
        np.ascontiguousarray(perm.T).reshape(lead + (n,)),
        parity.reshape(lead),
        singular.reshape(lead),
    )


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
    """Solve with packed factors; ``b`` has shape ``lead + (n, k)``."""
    n = lu.shape[-1]
    x = np.take_along_axis(b, perm[..., :, None], axis=-2)
    for i in range(1, n):
        x[..., i, :] -= np.einsum("...j,...jk->...k", lu[..., i, :i], x[..., :i, :])
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[..., i, :] -= np.einsum(
                "...j,...jk->...k", lu[..., i, i + 1 :], x[..., i + 1 :, :]
            )
        x[..., i, :] /= lu[..., i, i, None]
    return x


def solve(a, b):
    """Solve A x = b by LU forward/back substitution, without forming A^-1.

    ``b`` may be a vector ``(..., n)`` or a block of right-hand sides
    ``(..., n, k)``.
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
    """Reflectors are applied right-to-left so trailing columns stay triangular."""
    a = as_square(a)
    lead = a.shape[:-2]
    n = a.shape[-1]
    work = a.reshape(-1, n, n).copy()
    nb = work.shape[0]
    q = np.broadcast_to(np.eye(n), (nb, n, n)).copy() if want_q else None
    for k in range(n - 1, -1, -1):
        x = work[:, : k + 1, k]
        norm = np.sqrt(np.einsum("bi,bi->b", x, x))
        # v = x + sign(x_k) * ||x|| * e_k ; skip elements with nothing to do
        head = x[:, k]
        sign = np.where(head >= 0.0, 1.0, -1.0)
        v = x.copy()
        v[:, k] += sign * norm
        vtv = np.einsum("bi,bi->b", v, v)
        active = vtv > 0.0
        beta = np.where(active, 2.0 / np.where(active, vtv, 1.0), 0.0)
        proj = np.einsum("bi,bij->bj", v, work[:, : k + 1, : k + 1])
        work[:, : k + 1, : k + 1] -= beta[:, None, None] * v[:, :, None] * proj[:, None, :]
        if want_q:
            projq = np.einsum("bij,bj->bi", q[:, :, : k + 1], v)
            q[:, :, : k + 1] -= beta[:, None, None] * projq[:, :, None] * v[:, None, :]
    lower = np.tril(work)
    flip = lower[:, np.arange(n), np.arange(n)] < 0.0
    lower[flip] = -lower[flip]  # negate rows of L with negative diagonal
    if want_q:
        q = np.where(flip[:, None, :], -q, q)  # matching column flips keep A = Q L
        return q.reshape(lead + (n, n)), lower.reshape(lead + (n, n))
    return None, lower.reshape(lead + (n, n))


def ql_decompose(a):
    """QL factorization by Householder reflectors, columns processed right to
    left, then row/column sign flips so that diag(L) >= 0.

    Deterministic for fixed input.  Rank-deficient inputs simply yield zero
    diagonal entries in L.
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
