"""Reference computations written apart from condlab.

Operator norms come from plain formulas, from ``np.linalg`` and from a
brute-force search over every sign vector; random streams come from a
pure-Python SplitMix64 / Box-Muller written from the stream description in
``condlab.rng``.  The checks in the workload modules compare condlab's
outputs against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

INF = math.inf
_DUAL = {1.0: INF, 2.0: 2.0, INF: 1.0}

#: Sign vectors of the low block are tabulated once; the high block is looped.
_LOW_BITS = 12


def vector_norm(x, p):
    return np.linalg.norm(np.asarray(x, dtype=np.float64), ord=p, axis=-1)


def all_signs(m):
    """Every vector of {-1, 1}^m, one per row (both z and -z included)."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=m))).reshape(-1, m)


def sign_sup(a, s):
    """max over z in {-1, 1}^m of ||A z||_s by trying every z."""
    m = a.shape[1]
    low = min(m, _LOW_BITS)
    base = all_signs(low) @ a[:, :low].T
    best = 0.0
    for high in itertools.product((1.0, -1.0), repeat=m - low):
        shift = a[:, low:] @ np.array(high, dtype=np.float64).reshape(m - low)
        best = max(best, float(np.max(vector_norm(base + shift, s))))
    return best


def operator_norm(a, r, s):
    """sup ||A x||_s / ||x||_r for r, s in {1, 2, inf}.

    ``np.linalg.norm`` for (1,1), (2,2) and (inf,inf); column and row
    formulas for the other closed forms; a full sign search for (inf,1),
    (inf,2) and (2,1), where the maximum of the convex ratio sits at a
    vertex of the unit ball (for (2,1), at A^T z by duality).
    """
    a = np.asarray(a, dtype=np.float64)
    if r == s and r in (1.0, 2.0, INF):
        return float(np.linalg.norm(a, ord={1.0: 1, 2.0: 2, INF: np.inf}[r]))
    if r == 1.0:
        return float(np.max(vector_norm(a.T, s)))
    if s == INF:
        return float(np.max(vector_norm(a, _DUAL[r])))
    if r == INF:
        return sign_sup(a, s)
    return sign_sup(a.T, 2.0)  # (2, 1)


def condition(kind, a, vec, r, s):
    """Closed-form condition number of a problem kind, from the formulas."""
    inv = np.linalg.inv(a)
    kappa = operator_norm(a, r, s) * operator_norm(inv, s, r)
    if kind in ("inversion", "solve_fixed_b"):
        return kappa
    if kind == "matvec":
        return operator_norm(a, r, s) * vector_norm(vec, r) / vector_norm(a @ vec, s)
    term = operator_norm(inv, s, r) * vector_norm(vec, s) / vector_norm(inv @ vec, r)
    return term if kind == "solve_fixed_a" else kappa + term


def relative_gap(value, reference):
    return abs(value - reference) / abs(reference)


# --- the counter-based stream, one scalar at a time --------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_key(seed, *path):
    key = _mix((seed + _GOLDEN) & _MASK)
    for part in path:
        key = _mix(key ^ ((part * _GOLDEN + 0x1D8E4E27C47D124F) & _MASK))
    return key


def stream_normals(key, count):
    """The first ``count`` Box-Muller normals of a stream."""
    out = []
    for pair in range((count + 1) // 2):
        u1, u2 = (
            ((_mix((key + k * _GOLDEN) & _MASK) >> 11) + 1) * 2.0**-53
            for k in (2 * pair + 1, 2 * pair + 2)
        )
        radius = math.sqrt(-2.0 * math.log(u1))
        out += [radius * math.cos(2.0 * math.pi * u2), radius * math.sin(2.0 * math.pi * u2)]
    return np.array(out[:count])


# --- forward substitution under the 24-bit rounding model, one scalar at a time


def round_24(x):
    """``x`` rounded to a 24-bit significand, ties to even, binary64 exponents."""
    if x == 0.0 or not math.isfinite(x):
        return x
    mantissa, exponent = math.frexp(x)
    try:
        return math.ldexp(round(mantissa * 2.0**24), exponent - 24)
    except OverflowError:
        return math.copysign(INF, x)


def reduced_forward_substitution(lower, b):
    """Solve L x = b rounding every product, sum, difference and quotient."""
    rows, b = lower.tolist(), b.tolist()
    x = [round_24(b[0] / rows[0][0])]
    for i in range(1, len(rows)):
        acc = 0.0
        for lij, xj in zip(rows[i][:i], x):
            acc = round_24(acc + round_24(lij * xj))
        x.append(round_24(round_24(b[i] - acc) / rows[i][i]))
    return np.array(x)
