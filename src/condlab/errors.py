"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse one of the classes below instead of raising bare ValueError.
"""


class CondLabError(Exception):
    """Base class for all condlab errors."""


class SingularMatrix(CondLabError):
    """A pivot fell below tolerance: the matrix is singular within tolerance."""


class NoConvergence(CondLabError):
    """An iteration hit its sweep cap without meeting its tolerance."""


class ZeroVector(CondLabError):
    """A nonzero vector was required."""


class NotUnitVector(CondLabError):
    """A vector failed its unit-norm precondition."""


class DimensionTooLarge(CondLabError):
    """Exact sign-vector enumeration was requested above the dimension cap."""


class ZeroComponent(CondLabError):
    """Componentwise error model hit a zero reference component."""


class ResultOverflow(CondLabError):
    """A result exceeds the largest finite double, DBL_MAX."""


class DeltaTooLarge(CondLabError):
    """A perturbation of the requested size crossed the singular set."""


class ZeroDiagonal(CondLabError):
    """A triangular solve met a zero diagonal entry."""


class NotLowerTriangular(CondLabError):
    """Strict upper-triangle entries were expected to be exactly zero."""


class HypothesisViolated(CondLabError):
    """The rounding-model hypothesis (n+2)*eps_mach < 1 does not hold."""


class IncompatibleStatistic(CondLabError):
    """The requested statistic is not defined for the requested ensemble."""
