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

Singular values have one entry point, ``_jacobi``, with two branches.
Value-only stacks go to LAPACK through ``np.linalg.svd(compute_uv=False)``.
Requests for singular vectors (the spectral-norm attainer) run one-sided
Jacobi sweeps in numpy, which rotate disjoint column pairs in rounds across
the whole stack.  Jacobi is also the high-relative-accuracy reference
(Demmel & Veselic 1992): on the random triangular ensembles the two agree
on sigma_min to within 1e-10 + n * eps * kappa_2 relative.  The gap exceeds
1e-10 only on ill-conditioned lower triangular draws at n = 10 and 20, and
on the worst of those Jacobi was the closer to a 60-digit SVD.
Both branches first scale each matrix by the power of two that brings its
largest magnitude into [1/2, 1).  That scaling is exact, so the values of
2^k * A are exactly 2^k times those of A while the entries stay normal.

All functions are pure; inputs are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularMatrix

#: Relative pivot tolerance below which a matrix is reported singular.
DEFAULT_PIVOT_TOL = 1e-13

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 30


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


def _lu_raw(a, pivot_tol):
    """Batched LU, no raising: returns (packed LU, perm, parity, singular mask).

    The stack is factored in a batch-last working array ``w`` of shape
    ``(n, n, batch)``: row i of every matrix is the contiguous block
    ``w[i]``, so the pivot search, the row swaps, the pivot test and the
    rank-1 update each run over rows as long as the batch.  Every matrix
    goes through the same scalar operations as in a matrix-by-matrix
    elimination: the first largest |pivot| wins, a matrix is singular once
    a pivot falls to ``pivot_tol * max|a_ij|`` or below, and from then on
    its multipliers are divided by 1.  So each matrix gets the same bits
    alone as inside a stack.  The results come back C-contiguous in the
    ``(..., n, n)`` layout.

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
        singular |= np.abs(piv) <= pivot_tol * amax
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


def lu_decompose(a, pivot_tol=DEFAULT_PIVOT_TOL):
    """LU with partial row pivoting.

    Raises SingularMatrix when any pivot magnitude falls to
    ``pivot_tol * max|a_ij|`` or below, i.e. the input sits within tolerance
    of the singular set.
    """
    lu, perm, parity, singular = _lu_raw(a, pivot_tol)
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


def solve(a, b, pivot_tol=DEFAULT_PIVOT_TOL):
    """Solve A x = b by LU forward/back substitution, without forming A^-1.

    ``b`` may be a vector ``(..., n)`` or a block of right-hand sides
    ``(..., n, k)``.
    """
    a = as_square(a)
    lu, perm, _, singular = _lu_raw(a, pivot_tol)
    if np.any(singular):
        raise SingularMatrix("cannot solve: matrix is singular within tolerance")
    b = np.asarray(b, dtype=np.float64)
    vector_rhs = b.ndim == a.ndim - 1
    if vector_rhs:
        b = b[..., None]
    x = _lu_solve_packed(lu, perm, b)
    return x[..., 0] if vector_rhs else x


def invert(a, pivot_tol=DEFAULT_PIVOT_TOL):
    """Explicit inverse via LU against identity columns.

    The residuals ``A @ invert(A) - I`` and ``invert(A) @ A - I`` are small
    relative to kappa(A) * eps; for ill-conditioned inputs they degrade
    proportionally and are not asserted here.
    """
    a = as_square(a)
    lu, perm, _, singular = _lu_raw(a, pivot_tol)
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


def _round_robin_schedule(m):
    """Brent-Luk tournament: m-1 rounds of disjoint column pairs covering all
    pairs once per sweep (a dummy column absorbs the bye when m is odd)."""
    players = list(range(m if m % 2 == 0 else m + 1))
    dummy = players[-1] if m % 2 else None
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = [
            (min(players[i], players[-1 - i]), max(players[i], players[-1 - i]))
            for i in range(half)
            if dummy not in (players[i], players[-1 - i])
        ]
        rounds.append(
            (
                np.array([p for p, _ in pairs], dtype=np.intp),
                np.array([q for _, q in pairs], dtype=np.intp),
            )
        )
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def _jacobi(a, want_vectors, tol=_JACOBI_TOL, max_sweeps=_JACOBI_MAX_SWEEPS):
    """Singular values of the columns of ``a`` (requires rows >= cols).

    Each matrix is scaled by 2^-e, e the binary exponent of its largest
    magnitude, and its values are scaled back by 2^e.  The factor is a power
    of two, so the scaling is exact and the Gram sums can neither underflow
    nor overflow.

    Value-only requests go to LAPACK.  With ``want_vectors`` the values and
    right singular vectors come from one-sided Jacobi: columns are stored as
    contiguous rows and each sweep applies m-1 rounds of m/2 disjoint
    rotations at once, so the work per sweep is a handful of large array
    operations rather than one call per column pair.

    Returns (singular values desc, right-rotation product V or None).
    Raises NoConvergence when either engine fails to converge.
    """
    lead = a.shape[:-2]
    n, m = a.shape[-2], a.shape[-1]
    stack = a.reshape(-1, n, m)
    _, exponent = np.frexp(np.max(np.abs(stack), axis=(1, 2)))
    stack = np.ldexp(stack, -exponent[:, None, None])
    if not want_vectors:
        try:
            values = np.linalg.svd(stack, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"LAPACK singular values did not converge: {exc}") from None
        return np.ldexp(values, exponent[:, None]).reshape(lead + (m,)), None
    g = np.swapaxes(stack, 1, 2).copy()  # (nb, m, n): columns as contiguous rows
    nb = g.shape[0]
    v = np.broadcast_to(np.eye(m), (nb, m, m)).copy()
    iu, ju = np.triu_indices(m, 1)
    schedule = _round_robin_schedule(m) if m > 1 else []

    def max_off(g):
        if m == 1:
            return np.zeros(g.shape[0])
        gram = np.matmul(g, np.swapaxes(g, 1, 2))
        d = np.sqrt(np.maximum(np.einsum("bjj->bj", gram), 0.0))
        scale = d[:, iu] * d[:, ju]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(scale > 0.0, np.abs(gram[:, iu, ju]) / scale, 0.0)
        return np.max(rel, axis=1)

    def rotate_rows(mat, pidx, qidx, cc, ss):
        rp = mat[:, pidx, :]
        rq = mat[:, qidx, :]
        mat[:, pidx, :] = cc * rp - ss * rq
        mat[:, qidx, :] = ss * rp + cc * rq

    # converged elements retire from the working set between sweeps
    g_out = np.empty_like(g)
    v_out = np.empty_like(v)
    active = np.arange(nb)
    stalled = False
    for sweep in range(max_sweeps + 1):
        done = max_off(g) <= tol
        if stalled:
            done[:] = True
        if np.any(done):
            g_out[active[done]] = g[done]
            v_out[active[done]] = v[done]
            keep = ~done
            if not np.any(keep):
                active = active[:0]
                break
            active = active[keep]
            g = np.ascontiguousarray(g[keep])
            v = np.ascontiguousarray(v[keep])
        if sweep == max_sweeps:
            break
        before = g.copy()
        for pidx, qidx in schedule:
            gp = g[:, pidx, :]
            gq = g[:, qidx, :]
            app = np.einsum("bpn,bpn->bp", gp, gp)
            aqq = np.einsum("bpn,bpn->bp", gq, gq)
            apq = np.einsum("bpn,bpn->bp", gp, gq)
            rotate = np.abs(apq) > tol * np.sqrt(app * aqq)  # (nb, npairs)
            if not rotate.any():
                continue
            safe_apq = np.where(rotate, apq, 1.0)
            tau = (aqq - app) / (2.0 * safe_apq)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = np.where(rotate, c * t, 0.0)
            c = np.where(rotate, c, 1.0)
            cc, ss = c[:, :, None], s[:, :, None]
            g[:, pidx, :] = cc * gp - ss * gq
            g[:, qidx, :] = ss * gp + cc * gq
            rotate_rows(v, pidx, qidx, cc, ss)
        # An unchanged sweep means remaining rotations round to no-ops: the
        # iteration is at its floating-point fixed point, as orthogonal as
        # representable; accept those elements on the next pass.
        stalled = np.array_equal(g, before)
    if active.size:
        raise NoConvergence(f"one-sided Jacobi did not converge in {max_sweeps} sweeps")
    values = np.ldexp(np.sqrt(np.einsum("bij,bij->bi", g_out, g_out)), exponent[:, None])
    order = np.argsort(-values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    v_out = np.take_along_axis(v_out, order[:, :, None], axis=1)
    return values.reshape(lead + (m,)), np.swapaxes(v_out, 1, 2).reshape(lead + (m, m))


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
    """(sigma_max, unit right singular vector attaining it) for a single matrix."""
    a = as_matrix(a)
    if a.ndim != 2:
        raise ValueError("attainer is defined for a single matrix")
    n, m = a.shape
    if n >= m:
        values, v = _jacobi(a, want_vectors=True)
        sigma = values[0]
        vec = v[:, 0]
    else:
        # Jacobi on the transpose gives left vectors of A; map back through A^T.
        values, u = _jacobi(a.T, want_vectors=True)
        sigma = values[0]
        if sigma > 0.0:
            vec = a.T @ u[:, 0] / sigma
            vec = vec / np.sqrt(vec @ vec)
    if sigma == 0.0:
        vec = np.zeros(m)
        vec[0] = 1.0
    return float(sigma), vec
