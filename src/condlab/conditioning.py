"""Closed-form condition numbers for the five matrix problems, distance to
singularity, and the constructive nearest singular perturbation.

Problem kinds:

* ``inversion``      A -> A^-1                      cond = kappa_rs(A)
* ``matvec``         x -> A x (A fixed)             cond = ||A|| ||x|| / ||Ax||
* ``solve_fixed_a``  b -> A^-1 b (A fixed)          cond = ||A^-1|| ||b|| / ||A^-1 b||
* ``solve_fixed_b``  A -> A^-1 b (b fixed)          cond = kappa_rs(A)
* ``solve_both``     (A, b) -> A^-1 b, mixed error  cond = kappa + ||A^-1|| ||b|| / ||A^-1 b||

Input norms are ||.||_rs on matrices and ||.||_r on primal vectors; the
output side uses the transposed pair (s, r).  kappa of a singular matrix is
inf by convention, while distance_to_singularity raises because its formula
divides by ||A^-1||.

Every norm here is a value from the value-only core
(:func:`~condlab.norms.operator_norm_values`, LAPACK at (2,2)), except that
||A^-1||_sr at the enumeration pairs comes from
:func:`~condlab.norms.operator_norm`, whose value has the same bits.
Attainers are used only in :func:`_extremal_pair`, for the nearest
singular perturbation and the estimator's worst directions.

The closed forms and :func:`_extremal_pair` read A^-1, ||A||_rs and
||A^-1||_sr from an :class:`_Operand`, which computes A^-1, ||A||_rs and
||A^-1||_sr at most once each.  A caller that already
holds them (the estimator's instance, which owns the LU factors of A)
passes its own operand through the private ``_op`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

import numpy as np

from .errors import SingularMatrix, ZeroVector
from .linalg import as_square, invert
from .norms import (
    DEFAULT_MAX_ENUM_DIM,
    ENUMERATION_PAIRS,
    norm_index,
    operator_norm,
    operator_norm_values,
    rank_one_interpolator,
    vector_norm,
)

PROBLEM_KINDS = ("inversion", "matvec", "solve_fixed_a", "solve_fixed_b", "solve_both")


def problem_kind(kind):
    kind = str(kind).strip().lower().replace("-", "_")
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}; expected one of {PROBLEM_KINDS}")
    return kind


@dataclass
class ConditionReport:
    """A condition-number value with its formula components.

    ``value = alpha * kappa`` for matvec on square inputs and
    ``value = kappa + mixed_term`` for solve_both; absent components are
    None.
    """

    kind: str
    value: float
    kappa: float | None = None
    alpha: float | None = None
    mixed_term: float | None = None


def _norm(a, r, s, max_enum_dim):
    """||A||_rs of one matrix as a float, without an attainer."""
    if np.ndim(a) != 2:
        raise ValueError("expected a single matrix")
    return float(operator_norm_values(a, r, s, max_enum_dim))


class _Operand:
    """A matrix A with A^-1 and the operator norms of both, each computed at
    most once."""

    def __init__(self, a, max_enum_dim):
        self.a = np.asarray(a, dtype=np.float64)
        self.max_enum_dim = max_enum_dim
        self._norms = {}
        self._inverse_norms = {}
        self._attained = {}

    @cached_property
    def inverse(self):
        """A^-1; raises SingularMatrix for singular A."""
        return invert(as_square(self.a))

    def norm(self, r, s):
        """||A||_rs as a float."""
        key = norm_index(r), norm_index(s)
        if key not in self._norms:
            self._norms[key] = _norm(self.a, *key, self.max_enum_dim)
        return self._norms[key]

    def inverse_norm(self, r, s):
        """||A^-1||_rs as a float, computed once per pair.  At the enumeration
        pairs it is the value of :meth:`inverse_attained`, which has the bits
        of the value-only norm, so the closed form and the extremal pair share
        one enumeration."""
        key = norm_index(r), norm_index(s)
        if key not in self._inverse_norms:
            if key in ENUMERATION_PAIRS:
                value = self.inverse_attained(*key).value
            else:
                value = _norm(self.inverse, *key, self.max_enum_dim)
            self._inverse_norms[key] = value
        return self._inverse_norms[key]

    def inverse_attained(self, r, s):
        """``operator_norm(A^-1, r, s)``: the value with its attainer."""
        key = norm_index(r), norm_index(s)
        if key not in self._attained:
            self._attained[key] = operator_norm(self.inverse, *key, self.max_enum_dim)
        return self._attained[key]


def kappa(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM, *, _op=None):
    """kappa_rs(A) = ||A||_rs * ||A^-1||_sr, with inf for singular input."""
    op = _op or _Operand(a, max_enum_dim)
    try:
        inv_norm = inverse_norm(a, r, s, max_enum_dim, _op=op)
    except SingularMatrix:
        return inf
    return op.norm(r, s) * inv_norm


def _solution_term(op, vec, r, s):
    """||A^-1||_sr * ||b||_s / ||A^-1 b||_r from the operand's inverse."""
    sol = op.inverse @ vec
    denom = vector_norm(sol, r)
    if denom == 0.0:
        return inf
    return op.inverse_norm(s, r) * vector_norm(vec, s) / denom


def condition_closed_form(
    kind, a, vec=None, r=2, s=2, max_enum_dim=DEFAULT_MAX_ENUM_DIM, *, _op=None
):
    """Closed-form condition number of ``kind`` at the given instance."""
    kind = problem_kind(kind)
    r = norm_index(r)
    s = norm_index(s)
    a = np.asarray(a, dtype=np.float64)
    if kind != "inversion":
        if vec is None:
            raise ValueError(f"{kind} needs a vector argument")
        vec = np.asarray(vec, dtype=np.float64)
        if not np.any(vec != 0.0):
            raise ZeroVector(f"{kind} requires a nonzero vector")

    op = _op or _Operand(a, max_enum_dim)

    if kind == "inversion":
        return ConditionReport(kind, value=kappa(a, r, s, max_enum_dim, _op=op))

    if kind == "matvec":
        image = a @ vec
        denom = vector_norm(image, s)
        anorm = op.norm(r, s)
        value = inf if denom == 0.0 else anorm * vector_norm(vec, r) / denom
        alpha = kap = None
        if a.shape[-1] == a.shape[-2]:
            try:
                inv = op.inverse
            except SingularMatrix:
                inv = None
            if inv is not None and denom > 0.0:
                inv_norm = op.inverse_norm(s, r)
                kap = anorm * inv_norm
                alpha = vector_norm(vec, r) / (inv_norm * denom)
        return ConditionReport(kind, value=value, kappa=kap, alpha=alpha)

    if kind == "solve_fixed_a":
        return ConditionReport(kind, value=_solution_term(op, vec, r, s))

    if kind == "solve_fixed_b":
        return ConditionReport(kind, value=kappa(a, r, s, max_enum_dim, _op=op))

    return mixed_condition(a, vec, r, s, max_enum_dim, _op=op)


def mixed_condition(a, b, r=2, s=2, max_enum_dim=DEFAULT_MAX_ENUM_DIM, *, _op=None):
    """Mixed condition number of (A, b) -> A^-1 b: kappa plus the solution term.

    Always sandwiched between kappa and 2*kappa.
    """
    r = norm_index(r)
    s = norm_index(s)
    a = as_square(a)
    b = np.asarray(b, dtype=np.float64)
    if not np.any(b != 0.0):
        raise ZeroVector("mixed condition number requires b != 0")
    op = _op or _Operand(a, max_enum_dim)
    inv = op.inverse
    anorm = op.norm(r, s)
    inv_norm = op.inverse_norm(s, r)
    kap = anorm * inv_norm
    sol = inv @ b
    denom = vector_norm(sol, r)
    term = inf if denom == 0.0 else inv_norm * vector_norm(b, s) / denom
    return ConditionReport("solve_both", value=kap + term, kappa=kap, mixed_term=term)


def inverse_norm(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM, *, _op=None):
    """||A^-1||_sr from one explicit inverse.

    Raises SingularMatrix for singular input.
    """
    return (_op or _Operand(a, max_enum_dim)).inverse_norm(s, r)


def distance_to_singularity(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """d_rs(A, singular set) = 1 / ||A^-1||_sr.

    Raises SingularMatrix for singular input (the distance would be zero).
    """
    return 1.0 / inverse_norm(a, r, s, max_enum_dim)


def _extremal_pair(a, r, s, max_enum_dim, _op=None):
    """(||A^-1||_sr, y, A^-1 y) with ||y||_s = 1 and ||A^-1 y||_r = ||A^-1||_sr."""
    op = _op or _Operand(a, max_enum_dim)
    res = op.inverse_attained(s, r)
    y = res.attainer / vector_norm(res.attainer, s)
    return res.value, y, op.inverse @ y


def nearest_singular(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """(E, d_rs(A, singular set)) from one inverse and one norm of it.

    E is the rank-one perturbation of :func:`nearest_singular_perturbation`.
    """
    r = norm_index(r)
    s = norm_index(s)
    inv_norm, y, w = _extremal_pair(a, r, s, max_enum_dim)
    wnorm = vector_norm(w, r)
    x = w / wnorm
    b = rank_one_interpolator(x, -y, r, s)
    return b / wnorm, 1.0 / inv_norm


def nearest_singular_perturbation(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """The rank-one E with A + E singular and ||E||_rs = d_rs(A, singular set).

    With y attaining ||A^-1||_sr and x = A^-1 y / ||A^-1 y||_r, the
    interpolator B maps x to -y, so (A + B/||A^-1 y||_r) x = 0.
    """
    return nearest_singular(a, r, s, max_enum_dim)[0]
