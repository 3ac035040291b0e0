"""One-sided Jacobi SVD, kept as the reference for the LAPACK engine.

Jacobi computes singular values to high relative accuracy (Demmel &
Veselic 1992).  On the random triangular ensembles it agrees with LAPACK on
sigma_min to within 1e-10 + n * eps * kappa_2 relative; the gap exceeds
1e-10 only on ill-conditioned lower triangular draws at n = 10 and 20, and
on the worst of those Jacobi was the closer to a 60-digit SVD.
"""

import numpy as np

from condlab.errors import NoConvergence


def round_robin_schedule(m):
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


def jacobi(a, tol=1e-14, max_sweeps=30):
    """Singular values (descending) and right singular vectors of the columns
    of a stack ``a`` with rows >= cols, by one-sided Jacobi.

    Each matrix is first scaled by 2^-e, e the binary exponent of its
    largest magnitude, and its values are scaled back by 2^e, so the Gram
    sums neither underflow nor overflow.  Columns are stored as contiguous
    rows and each sweep applies m-1 rounds of m/2 disjoint rotations at
    once.  Raises NoConvergence after ``max_sweeps`` sweeps.
    """
    lead = a.shape[:-2]
    n, m = a.shape[-2], a.shape[-1]
    stack = a.reshape(-1, n, m)
    _, exponent = np.frexp(np.max(np.abs(stack), axis=(1, 2)))
    stack = np.ldexp(stack, -exponent[:, None, None])
    g = np.swapaxes(stack, 1, 2).copy()  # (nb, m, n): columns as contiguous rows
    nb = g.shape[0]
    v = np.broadcast_to(np.eye(m), (nb, m, m)).copy()
    iu, ju = np.triu_indices(m, 1)
    schedule = round_robin_schedule(m) if m > 1 else []

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


def sigma_max(a):
    """The largest singular value of one matrix by Jacobi; a wide matrix
    goes through its transpose."""
    return float(jacobi(a if a.shape[0] >= a.shape[1] else a.T)[0][0])
