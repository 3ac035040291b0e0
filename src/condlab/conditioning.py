"""Closed-form condition numbers for the five matrix problems, distance to
singularity, and the constructive nearest singular perturbation.

Problem kinds, one row each of :data:`KINDS`: what the map outputs, and
whether it perturbs A and the vector.

* ``inversion``      A -> A^-1                      cond = kappa_rs(A)
* ``matvec``         x -> A x (A fixed)             cond = ||A|| ||x|| / ||Ax||
* ``solve_fixed_a``  b -> A^-1 b (A fixed)          cond = ||A^-1|| ||b|| / ||A^-1 b||
* ``solve_fixed_b``  A -> A^-1 b (b fixed)          cond = kappa_rs(A)
* ``solve_both``     (A, b) -> A^-1 b, mixed error  cond = kappa + ||A^-1|| ||b|| / ||A^-1 b||

The closed form, the estimator and the CLI read the row, not the kind's
name: an inverse or a solution costs kappa for a perturbed A plus the
solution term for a perturbed vector.

Input norms are ||.||_rs on matrices and ||.||_r on primal vectors; the
output side uses the transposed pair (s, r).  kappa of a singular matrix is
inf by convention, so inversion reports inf, while the three kinds that
output a solution raise SingularMatrix, because A^-1 b does not exist, and
distance_to_singularity raises because its formula divides by ||A^-1||.

Every function here reads A, A^-1 and their norms from one
:class:`_Operand`.  It factors A at most once, through linalg's one LU
front door, the calls that :func:`~condlab.linalg.invert` makes, so A^-1
has the bits of ``invert(A)``: LU factors kept in linalg's batch-last
layout, and a substitution in linalg's one fixed order, which gives a
matrix the same bits alone as inside the estimator's stacks.  It computes
each norm of A and of A^-1 at most once, and the terms that the
estimator's supremum screen reads of A, A^-1 and A's factors once.
Norms are values from the value-only core
(:func:`~condlab.norms.operator_norm_values`, LAPACK at (2,2)), except at
the enumeration pairs, where the value is that of
:func:`~condlab.norms.operator_norm`, with the same bits, so that a value
and its attainer share one search.  Attainers are read only for the
nearest singular perturbation and the estimator's worst directions.

A caller that already holds an operand passes it to :func:`kappa` or
:func:`condition_closed_form` through the private ``_op`` parameter: the
estimator keeps the operand of its last matrix, so that A is factored once
per matrix across a sweep of estimates, not once per estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf, sqrt
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import SingularMatrix, ZeroVector

# ``invert`` is not called here; it stays bound because the benchmark's
# tracing (bench/tracing.py) wraps it by this name.
from .linalg import as_matrix, as_square, invert  # noqa: F401
from .norms import (
    DEFAULT_MAX_ENUM_DIM,
    ENUMERATION_PAIRS,
    norm_index,
    operator_norm,
    operator_norm_values,
    rank_one_interpolator,
    vector_norm,
)


class _Kind(NamedTuple):
    """One row of the kind table: what the map outputs from A and the
    vector (``"product"`` A x, ``"inverse"`` A^-1 or ``"solution"``
    A^-1 b), and whether the input error perturbs A and the vector."""

    output: str
    perturbs_a: bool
    perturbs_vector: bool


KINDS = {
    "inversion": _Kind("inverse", perturbs_a=True, perturbs_vector=False),
    "matvec": _Kind("product", perturbs_a=False, perturbs_vector=True),
    "solve_fixed_a": _Kind("solution", perturbs_a=False, perturbs_vector=True),
    "solve_fixed_b": _Kind("solution", perturbs_a=True, perturbs_vector=False),
    "solve_both": _Kind("solution", perturbs_a=True, perturbs_vector=True),
}
PROBLEM_KINDS = tuple(KINDS)


def problem_kind(kind):
    kind = str(kind).strip().lower().replace("-", "_")
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}; expected one of {PROBLEM_KINDS}")
    # the table's own string, so that the reports of a sweep share one copy
    return PROBLEM_KINDS[PROBLEM_KINDS.index(kind)]


def _problem(kind, a, vec, r, s):
    """(kind, A, vector, r, s) checked in the order kind, r, s, A, vector:
    A as a float64 matrix, and the vector as float64 for A's ``n`` columns.
    Raises ValueError when a kind with a vector has none, or one that is not
    1-d, not of length n or not finite, and ZeroVector when it is zero."""
    kind = problem_kind(kind)
    r, s = norm_index(r), norm_index(s)
    a = as_matrix(a)
    n = a.shape[-1]
    if KINDS[kind].output == "inverse":
        return kind, a, vec, r, s
    if vec is None:
        raise ValueError(f"{kind} needs a vector argument")
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"{kind} needs a 1-d vector, got an array of shape {vec.shape}")
    if len(vec) != n:
        raise ValueError(
            f"{kind} needs a vector of length {n} for a matrix with {n} columns, "
            f"got length {len(vec)}"
        )
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector entries must be finite")
    if not np.any(vec != 0.0):
        raise ZeroVector(f"{kind} requires a nonzero vector")
    return kind, a, vec, r, s


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


def _read_only(x):
    x.flags.writeable = False
    return x


class _Operand:
    """A matrix A with its LU factors, A^-1, the operator norms of A and
    A^-1, and the terms the estimator's supremum screen reads, each computed
    at most once.

    A is factored only when something asks, by the same ``_factor`` and
    ``_inverse`` calls that ``invert`` makes, so A^-1 and every solve have
    the bits of ``invert`` and ``solve``.  The factors are ``_lu_raw``'s
    views of its batch-last working arrays, and every solve substitutes in
    the fixed order that ``_lu_solve_packed`` documents.  Matvec needs A^-1
    only for the kappa and alpha of its closed form, so a singular A leaves
    those out.  The factors, A^-1 and the screen's arrays are read-only,
    because the estimator's operand cache shares them.
    """

    def __init__(self, a, max_enum_dim):
        self.a = np.asarray(a, dtype=np.float64)
        self.max_enum_dim = max_enum_dim
        self._norms = {}

    @cached_property
    def factors(self):
        """Packed LU and row permutation of A; raises SingularMatrix."""
        lu, perm = linalg._factor(
            as_square(self.a), "cannot invert: matrix is singular within tolerance")
        return _read_only(lu), _read_only(perm)

    @cached_property
    def inverse(self):
        """A^-1 with the bits of ``invert(A)``; raises SingularMatrix."""
        return _read_only(linalg._inverse(*self.factors))

    @cached_property
    def screen_terms(self):
        """What the estimator's supremum screen reads of A and of the
        computed A^-1 = X^: max|a_ij|, ||A||_1, ||A||_inf, the row and
        column sums of |X^|, their total S, ||X^||_1, ||X^||_inf, omega =
        gamma_3n max(|L^||U^|) S from A's factors, which bounds the error of
        X^ (Higham, ASNA, Theorem 9.4, section 14.3), q = omega / (1 -
        omega) and the lower bound on sigma_min(A).  Raises SingularMatrix."""
        a, x = self.a, self.inverse
        n = len(a)
        with np.errstate(all="ignore"):
            abs_a, abs_x = np.abs(a), np.abs(x)
            x_rows, x_cols = abs_x.sum(axis=1), abs_x.sum(axis=0)
            total = x_rows.sum()
            lu, _ = self.factors
            lower = np.abs(np.tril(lu, -1)) + np.eye(n)
            omega = linalg._gamma(3 * n) * (lower @ np.abs(np.triu(lu))).max() * total
            q = omega / (1.0 - omega)
            x_one, x_inf = x_cols.max(), x_rows.max()
            sigma_lo = 1.0 / ((1.0 + q) * sqrt(x_one * x_inf))
            return (abs_a.max(), abs_a.sum(axis=0).max(), abs_a.sum(axis=1).max(),
                    _read_only(x_rows), _read_only(x_cols), total, x_one, x_inf, omega, q,
                    sigma_lo)

    def solve(self, rhs):
        """A^-1 rhs for a block ``(n, k)`` of right-hand sides."""
        return linalg._lu_solve_packed(*self.factors, rhs)

    def norm(self, r, s, inverse=False, attainer=False):
        """||A||_rs, or ||A^-1||_rs with ``inverse``, as a float; with
        ``attainer``, the :class:`~condlab.norms.OperatorNormResult` of
        ``operator_norm``.  At the enumeration pairs the float is the value
        of that result, so a value and an attainer share one search."""
        r, s = norm_index(r), norm_index(s)
        attained = attainer or (r, s) in ENUMERATION_PAIRS
        key = inverse, r, s, attained
        if key not in self._norms:
            m = self.inverse if inverse else self.a
            if attained:
                self._norms[key] = operator_norm(m, r, s, self.max_enum_dim)
            elif m.ndim != 2:
                raise ValueError("expected a single matrix")
            else:
                self._norms[key] = float(operator_norm_values(m, r, s, self.max_enum_dim))
        res = self._norms[key]
        return res.value if attained and not attainer else res


def kappa(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM, *, _op=None):
    """kappa_rs(A) = ||A||_rs * ||A^-1||_sr, with inf for singular input."""
    op = _op or _Operand(a, max_enum_dim)
    try:
        inv_norm = op.norm(s, r, inverse=True)
    except SingularMatrix:
        return inf
    return op.norm(r, s) * inv_norm


def _unit_scaled(vec):
    """``vec`` times 2^-e, e the binary exponent of max|vec_i|: exact, and
    brings the largest magnitude into [1/2, 1)."""
    return np.ldexp(vec, -np.frexp(np.max(np.abs(vec)))[1])


def _solution_term(op, vec, r, s):
    """||A^-1||_sr * ||b||_s / ||A^-1 b||_r from the operand's inverse.

    The term does not change when b is scaled, so it is taken for
    :func:`_unit_scaled` b, whose norm stays finite."""
    vec = _unit_scaled(vec)
    sol = op.inverse @ vec
    denom = vector_norm(sol, r)
    if denom == 0.0:
        return inf
    return op.norm(s, r, inverse=True) * vector_norm(vec, s) / denom


def condition_closed_form(
    kind, a, vec=None, r=2, s=2, max_enum_dim=DEFAULT_MAX_ENUM_DIM, *, _op=None
):
    """Closed-form condition number of ``kind`` at the given instance."""
    kind, a, vec, r, s = _problem(kind, a, vec, r, s)
    op = _op or _Operand(a, max_enum_dim)
    row = KINDS[kind]

    if row.output == "product":
        # the value and alpha do not change when x is scaled, and the
        # scaling keeps A x finite
        vec = _unit_scaled(vec)
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
                inv_norm = op.norm(s, r, inverse=True)
                kap = anorm * inv_norm
                alpha = vector_norm(vec, r) / (inv_norm * denom)
        return ConditionReport(kind, value=value, kappa=kap, alpha=alpha)

    if row.output == "solution":
        # A^-1 b does not exist for a singular A: its factors raise
        # SingularMatrix before kappa would read inf
        op.factors  # noqa: B018
    term = _solution_term(op, vec, r, s) if row.perturbs_vector else None
    kap = kappa(a, r, s, max_enum_dim, _op=op) if row.perturbs_a else None
    if term is None or kap is None:
        return ConditionReport(kind, value=kap if term is None else term)
    return ConditionReport(kind, value=kap + term, kappa=kap, mixed_term=term)


def mixed_condition(a, b, r=2, s=2, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """Mixed condition number of (A, b) -> A^-1 b: kappa plus the solution term.

    Always sandwiched between kappa and 2*kappa.
    """
    r, s = norm_index(r), norm_index(s)  # checked before A, as A before b
    return condition_closed_form("solve_both", as_square(a), b, r, s, max_enum_dim)


def inverse_norm(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """||A^-1||_sr from one explicit inverse.

    Raises SingularMatrix for singular input.
    """
    return _Operand(a, max_enum_dim).norm(s, r, inverse=True)


def distance_to_singularity(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """d_rs(A, singular set) = 1 / ||A^-1||_sr.

    Raises SingularMatrix for singular input (the distance would be zero).
    """
    return 1.0 / inverse_norm(a, r, s, max_enum_dim)


def _extremal_pair(op, r, s):
    """(||A^-1||_sr, y, A^-1 y) with ||y||_s = 1 and ||A^-1 y||_r = ||A^-1||_sr,
    for the matrix A of the operand ``op``."""
    res = op.norm(s, r, inverse=True, attainer=True)
    y = res.attainer / vector_norm(res.attainer, s)
    return res.value, y, op.inverse @ y


def nearest_singular(a, r, s, max_enum_dim=DEFAULT_MAX_ENUM_DIM):
    """(E, d_rs(A, singular set)) from one inverse and one norm of it.

    E is the rank-one perturbation of :func:`nearest_singular_perturbation`.
    """
    r = norm_index(r)
    s = norm_index(s)
    inv_norm, y, w = _extremal_pair(_Operand(a, max_enum_dim), r, s)
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
