"""Forward substitution under a controlled rounding model, and the
componentwise backward error of a computed triangular solve.

The reduced-precision mode rounds the result of every scalar operation to a
24-bit significand (round-to-nearest-even), the binary32 rounding model
fl(x op y) = (x op y)(1 + delta) with |delta| < 2^-24.  Rounding is applied
per operation on binary64 carriers rather than by running native float32:
this disables FMA/extended-precision effects by construction and keeps the
binary64 exponent range, so the model never sees spurious overflow on the
huge intermediate values that random ill-conditioned triangles produce.

The inner sum of forward substitution accumulates strictly left to right;
the backward-error bound assumes a fixed sequential summation order.  The
solver sweeps by columns (Higham, Accuracy and Stability of Numerical
Algorithms, 8.1), which keeps that per-row order and every rounding of the
row-oriented algorithm, so its results are the same bit for bit from O(n)
array operations instead of O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import HypothesisViolated, NotLowerTriangular, ZeroDiagonal


@dataclass(frozen=True)
class PrecisionMode:
    mode: str
    eps_mach: float  # unit roundoff of one rounded operation


WORKING = PrecisionMode("working", 2.0**-53)
REDUCED = PrecisionMode("reduced", 2.0**-24)


def precision_mode(name):
    name = str(name).strip().lower()
    if name == "working":
        return WORKING
    if name == "reduced":
        return REDUCED
    raise ValueError(f"unknown precision mode {name!r}")


def round_reduced(x):
    """Round to the nearest 24-bit significand, ties to even, any exponent.

    Magnitudes at or above (1 - 2^-25) * 2^1024, the midpoint between the
    largest 24-bit value below DBL_MAX and 2^1024, round up to 2^1024 and come
    out as inf: the correctly rounded overflow, as IEEE round to nearest gives.
    """
    x = np.asarray(x, dtype=np.float64)
    mantissa, exponent = np.frexp(x)
    return np.ldexp(np.rint(mantissa * 2.0**24) * 2.0**-24, exponent)


def _rounder(precision):
    if precision.mode == "working":
        return lambda x: x
    return round_reduced


def _check_lower(lower):
    lower = np.asarray(lower, dtype=np.float64)
    if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(lower)):
        raise ValueError("matrix entries must be finite")
    if np.any(np.triu(lower, 1) != 0.0):
        raise NotLowerTriangular("strict upper triangle must be exactly zero")
    return lower


def _check_rhs(b, n):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError("right-hand side shape mismatch")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side entries must be finite")
    return b


def forward_substitution(lower, b, precision=WORKING):
    """Solve L x = b by forward substitution in the given precision.

    x_1 = b_1 / l_11 and, for i >= 2, x_i = (b_i - sum_j<i l_ij x_j) / l_ii
    with the sum accumulated left to right.  In reduced mode every product,
    addition, subtraction and division is rounded before the next operation.
    """
    lower = _check_lower(lower)
    b = _check_rhs(b, lower.shape[0])
    if np.any(np.diag(lower) == 0.0):
        raise ZeroDiagonal("forward substitution needs nonzero diagonal entries")
    return _forward_substitution_batched(lower[None], b[None], precision)[0]


def _forward_substitution_batched(lower, b, precision):
    """Forward substitution on a stack of systems sharing one size.

    ``lower`` has shape (B, n, n), ``b`` shape (B, n).  A column sweep: once
    x_j is known, the partial sums of all rows i > j take their j-th term in
    one elementwise step, w_i = fl(w_i + fl(l_ij x_j)).  Row i thus sees the
    operations of the row-oriented loop in the same order j = 0, ..., i-1,
    rounded the same way, and x is the same bit for bit.  Elementwise array
    operations keep the per-operation rounding model intact across the stack.
    An entry that overflows comes out as inf (and may make later ones nan),
    the rounding model's result, without a warning.
    """
    rnd = _rounder(precision)
    nb, n = b.shape
    x = np.empty((nb, n))
    w = np.zeros((nb, n))
    with np.errstate(over="ignore", invalid="ignore"):
        x[:, 0] = rnd(b[:, 0] / lower[:, 0, 0])
        for j in range(1, n):
            w[:, j:] = rnd(w[:, j:] + rnd(lower[:, j:, j - 1] * x[:, j - 1, None]))
            x[:, j] = rnd(rnd(b[:, j] - w[:, j]) / lower[:, j, j])
    return x


@dataclass
class BackwardErrorReport:
    """Smallest componentwise backward error against the (n+2) eps bound."""

    epsilon_cw: float
    bound: float
    satisfied: bool
    residual: np.ndarray


def componentwise_backward_error(lower, b, x_hat, precision=WORKING):
    """Smallest eps admitting lower-triangular E with (L+E) x_hat = b and
    |e_ij| <= eps |l_ij|.

    Rowwise: eps_i = |b_i - (L x_hat)_i| / (|L| |x_hat|)_i, eps = max_i,
    with 0/0 = 0, r/0 = inf, and inf for a row whose residual is not finite
    (x_hat overflowed); evaluated in working precision.  The reported bound
    is (n+2) * eps_mach of ``precision`` (the arithmetic the candidate
    solution is assumed to come from).
    """
    lower = _check_lower(lower)
    n = lower.shape[0]
    b = _check_rhs(b, n)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x_hat.shape != (n,):
        raise ValueError(f"solution shape mismatch: expected ({n},), got {x_hat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = b - lower @ x_hat
        denom = np.abs(lower) @ np.abs(x_hat)
    eps = _rowwise_eps(np.abs(residual), denom)
    bound = (n + 2) * precision.eps_mach
    return BackwardErrorReport(
        epsilon_cw=float(eps), bound=bound, satisfied=bool(eps <= bound), residual=residual
    )


def _rowwise_eps(abs_residual, denom):
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.where(
            denom > 0.0,
            abs_residual / np.where(denom > 0.0, denom, 1.0),
            np.where(abs_residual > 0.0, inf, 0.0),
        )
    return np.max(np.where(np.isfinite(abs_residual), eps, inf), axis=-1)


def hypothesis_gate(n, precision):
    """Enforce (n+2) * eps_mach < 1, the rounding-model smallness hypothesis."""
    if (n + 2) * precision.eps_mach >= 1.0:
        raise HypothesisViolated(
            f"(n+2)*eps_mach = {(n + 2) * precision.eps_mach:g} >= 1 at n={n}"
        )


def verify_backward_stability(lower, b, precision=REDUCED):
    """Solve in ``precision`` and measure the componentwise backward error.

    The report's ``satisfied`` flag checks epsilon_cw <= (n+2) * eps_mach,
    which holds for every valid input when the hypothesis gate passes.
    """
    b = np.asarray(b, dtype=np.float64)
    hypothesis_gate(b.shape[-1], precision)
    x_hat = forward_substitution(lower, b, precision)
    return componentwise_backward_error(lower, b, x_hat, precision)


def _verify_batched(lower, b, precision):
    """Batched verify for same-size stacks; returns (eps array, bound)."""
    n = b.shape[-1]
    hypothesis_gate(n, precision)
    x_hat = _forward_substitution_batched(lower, b, precision)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = b - np.einsum("bij,bj->bi", lower, x_hat)
        denom = np.einsum("bij,bj->bi", np.abs(lower), np.abs(x_hat))
    return _rowwise_eps(np.abs(residual), denom), (n + 2) * precision.eps_mach
