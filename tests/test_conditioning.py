from math import inf, isinf, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condlab import conditioning as cond
from condlab import empirical, linalg, norms
from condlab.errors import SingularMatrix, ZeroVector

from conftest import gaussian

INDICES = (1, 2, inf)
ALL_PAIRS = [(r, s) for r in INDICES for s in INDICES]


def test_kappa_examples():
    assert cond.kappa(np.diag([1.0, 2.0]), 2, 2) == pytest.approx(2.0, rel=1e-14)
    assert cond.kappa(np.eye(4), 1, 1) == 1.0
    assert cond.kappa(np.eye(4), inf, inf) == 1.0
    assert isinf(cond.kappa(np.array([[1.0, 1.0], [1.0, 1.0]]), 2, 2))


def test_condition_closed_form_examples():
    d = np.diag([1.0, 2.0])
    r = cond.condition_closed_form("matvec", np.eye(3), np.array([1.0, 2.0, 0.5]), 2, 2)
    assert r.value == pytest.approx(1.0, rel=1e-14)

    r = cond.condition_closed_form("matvec", d, np.array([1.0, 0.0]), 2, 2)
    assert r.value == pytest.approx(2.0, rel=1e-14)
    assert r.alpha == pytest.approx(1.0, rel=1e-14)
    assert r.kappa == pytest.approx(2.0, rel=1e-14)

    r = cond.condition_closed_form("solve_fixed_a", d, np.array([0.0, 1.0]), 2, 2)
    assert r.value == pytest.approx(2.0, rel=1e-14)


def test_condition_closed_form_errors():
    with pytest.raises(ZeroVector):
        cond.condition_closed_form("matvec", np.eye(2), np.zeros(2), 2, 2)
    with pytest.raises(SingularMatrix):
        cond.condition_closed_form("solve_fixed_a", np.ones((2, 2)), np.ones(2), 2, 2)


@pytest.mark.parametrize("kind", ["matvec", "solve_fixed_a", "solve_fixed_b", "solve_both"])
def test_vector_must_be_1d_and_match_the_matrix(kind):
    # a typed ValueError naming both sizes, not numpy's matmul message
    a = np.eye(4) + 0.25
    with pytest.raises(ValueError, match="length 4 for a matrix with 4 columns, got length 2"):
        cond.condition_closed_form(kind, a, np.ones(2))
    with pytest.raises(ValueError, match=r"1-d vector, got an array of shape \(4, 1\)"):
        cond.condition_closed_form(kind, a, np.ones((4, 1)))
    if kind == "solve_both":
        with pytest.raises(ValueError, match="length 4 .* got length 5"):
            cond.mixed_condition(a, np.ones(5))


@pytest.mark.parametrize("kind", ["matvec", "solve_fixed_a", "solve_fixed_b", "solve_both"])
@pytest.mark.parametrize("bad", [np.nan, inf, -inf])
def test_vector_must_be_finite(kind, bad):
    # a NaN entry passed the zero-vector check and came out as a NaN value
    a, vec = np.eye(2) + 0.25, np.array([1.0, bad])
    with pytest.raises(ValueError, match="vector entries must be finite"):
        cond.condition_closed_form(kind, a, vec)
    with pytest.raises(ValueError, match="vector entries must be finite"):
        empirical.estimate_condition(kind, a, vec)
    if kind == "solve_both":
        with pytest.raises(ValueError, match="vector entries must be finite"):
            cond.mixed_condition(a, vec)


def test_rectangular_matvec_takes_a_vector_of_its_column_count():
    a = gaussian(206, 0, shape=(3, 2))
    assert np.isfinite(cond.condition_closed_form("matvec", a, np.ones(2)).value)
    with pytest.raises(ValueError, match="length 2 for a matrix with 2 columns, got length 3"):
        cond.condition_closed_form("matvec", a, np.ones(3))


def test_mixed_condition_example():
    r = cond.mixed_condition(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 2, 2)
    expected = 2.0 + sqrt(2.0) / sqrt(1.25)
    assert r.value == pytest.approx(expected, abs=1e-5)  # 3.26491 by hand
    assert r.value == r.kappa + r.mixed_term
    assert r.kappa <= r.value <= 2.0 * r.kappa  # sandwich bound at this instance
    at_identity = cond.mixed_condition(np.eye(3), np.array([0.3, -0.2, 0.9]), 2, 2)
    assert at_identity.value == pytest.approx(2.0, rel=1e-12)


def test_mixed_condition_sandwich_500_instances():
    for t in range(500):
        n = 2 + t % 7  # sizes 2..8
        a = gaussian(301, t, 0, shape=(n, n))
        b = gaussian(301, t, 1, shape=(n,))
        r = cond.mixed_condition(a, b, 2, 2)
        assert r.value == r.kappa + r.mixed_term
        assert r.kappa - 1e-12 * r.kappa <= r.value <= 2.0 * r.kappa + 1e-12 * r.kappa


def test_distance_examples():
    d = np.diag([1.0, 2.0])
    assert cond.distance_to_singularity(d, 2, 2) == pytest.approx(1.0, rel=1e-14)
    for r in INDICES:  # identity sits at distance 1 for every r = s pair
        assert cond.distance_to_singularity(np.eye(5), r, r) == pytest.approx(1.0, rel=1e-14)
    # mixed pairs rescale: ||I||_{inf,1} = n, so the (1,inf) distance is 1/n
    # (nearest singular point I - J/n, J the all-ones matrix)
    assert cond.distance_to_singularity(np.eye(5), 1, inf) == pytest.approx(0.2, rel=1e-14)
    assert cond.distance_to_singularity(d, 1, 1) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(SingularMatrix):
        cond.distance_to_singularity(np.ones((2, 2)), 2, 2)


def test_nearest_singular_diagonal_by_hand():
    d = np.diag([1.0, 2.0])
    e = cond.nearest_singular_perturbation(d, 2, 2)
    assert np.allclose(e, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    assert np.allclose(d + e, np.diag([0.0, 2.0]), atol=1e-14)


def test_nearest_singular_identity():
    e = cond.nearest_singular_perturbation(np.eye(2), 2, 2)
    assert norms.operator_norm(e, 2, 2).value == pytest.approx(1.0, rel=1e-12)
    assert linalg.singular_values(np.eye(2) + e)[-1] <= 1e-12


def test_nearest_singular_one_infinity_vs_enumeration():
    a = gaussian(302, 0, shape=(5, 5))
    e = cond.nearest_singular_perturbation(a, 1, inf)
    # distance formula needs ||A^-1||_{inf,1}, an enumeration pair
    inv_norm = norms.operator_norm(linalg.invert(a), inf, 1).value
    enorm = norms.operator_norm(e, 1, inf).value
    assert enorm == pytest.approx(1.0 / inv_norm, rel=1e-10)
    assert linalg.singular_values(a + e)[-1] <= 1e-8 * linalg.singular_values(a)[0]


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_kappa_times_distance_identity(r, s):
    for t in range(12):
        n = 2 + t % 5
        a = gaussian(303, t, shape=(n, n))
        kap = cond.kappa(a, r, s)
        dist = cond.distance_to_singularity(a, r, s)
        anorm = norms.operator_norm(a, r, s).value
        assert kap * dist == pytest.approx(anorm, rel=1e-12)


@given(st.sampled_from(ALL_PAIRS), st.integers(1, 8), st.integers(-900, 900),
       st.integers(0, 2**32))
@settings(max_examples=500, deadline=None)
def test_scaling_by_power_of_two_is_exact(pair, n, k, seed):
    # kappa is scale-free and dist scales with A, so both must hold to the bit
    r, s = pair
    a = gaussian(310, seed, shape=(n, n))
    kap = cond.kappa(a, r, s)
    assume(np.isfinite(kap))
    scaled = np.ldexp(a, k)
    assert cond.kappa(scaled, r, s) == kap
    assert cond.distance_to_singularity(scaled, r, s) == np.ldexp(
        cond.distance_to_singularity(a, r, s), k)


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_random_singular_matrices_never_beat_distance(r, s):
    a = gaussian(304, 0, shape=(5, 5))
    dist = cond.distance_to_singularity(a, r, s)
    for t in range(50):
        m = gaussian(304, t, 1, shape=(5, 5))
        coeffs = gaussian(304, t, 2, shape=(4,))
        m[:, 0] = m[:, 1:] @ coeffs  # force rank deficiency
        gap = norms.operator_norm(a - m, r, s).value
        assert gap >= dist - 1e-10


def test_matvec_decomposition_invariant():
    for t in range(40):
        n = 2 + t % 5
        a = gaussian(305, t, 0, shape=(n, n))
        x = gaussian(305, t, 1, shape=(n,))
        r = cond.condition_closed_form("matvec", a, x, 2, 2)
        assert r.value == pytest.approx(r.alpha * r.kappa, rel=1e-12)


def test_solve_fixed_b_equals_kappa():
    for t in range(10):
        a = gaussian(306, t, shape=(4, 4))
        b = gaussian(306, t, 1, shape=(4,))
        r = cond.condition_closed_form("solve_fixed_b", a, b, 2, 2)
        assert r.value == pytest.approx(cond.kappa(a, 2, 2), rel=1e-14)


def test_rectangular_matvec_has_no_kappa():
    a = gaussian(307, 0, shape=(4, 2))
    x = gaussian(307, 1, shape=(2,))
    r = cond.condition_closed_form("matvec", a, x, 2, 2)
    assert r.kappa is None and r.alpha is None
    assert r.value > 0.0


def _no_attainer(*args, **kwargs):
    raise AssertionError("a value-only path asked for the spectral attainer")


def test_value_only_paths_never_build_an_attainer(monkeypatch):
    monkeypatch.setattr(norms, "spectral_norm_attainer", _no_attainer)
    a = gaussian(308, 0, shape=(6, 6))
    b = gaussian(308, 1, shape=(6,))
    assert np.isfinite(cond.kappa(a, 2, 2))
    assert np.isfinite(cond.inverse_norm(a, 2, 2))
    assert np.isfinite(cond.distance_to_singularity(a, 2, 2))
    assert np.isfinite(cond.mixed_condition(a, b, 2, 2).value)
    for kind in cond.PROBLEM_KINDS:
        vec = None if kind == "inversion" else b
        assert np.isfinite(cond.condition_closed_form(kind, a, vec, 2, 2).value)
    with pytest.raises(AssertionError, match="spectral attainer"):
        cond.nearest_singular(a, 2, 2)  # the one reader of the vector


def test_kappa_is_a_product_of_value_only_norms(monkeypatch):
    a = gaussian(309, 0, shape=(9, 9))
    want = norms.operator_norm_values(a, 2, 2) * norms.operator_norm_values(
        linalg.invert(a), 2, 2)
    assert cond.kappa(a, 2, 2) == want
    calls = []

    def spy(m):
        calls.append(m)
        return linalg.spectral_norm_attainer(m)

    monkeypatch.setattr(norms, "spectral_norm_attainer", spy)
    e, d = cond.nearest_singular(a, 2, 2)
    assert len(calls) == 1 and np.array_equal(calls[0], linalg.invert(a))
    assert linalg.singular_values(a + e)[-1] <= 1e-12 * linalg.singular_values(a)[0]
    assert d == pytest.approx(1.0 / norms.operator_norm_values(linalg.invert(a), 2, 2),
                              rel=1e-12)


def test_operand_inverse_is_invert_and_read_only():
    a = gaussian(310, 0, shape=(6, 6))
    b = gaussian(310, 1, shape=(6, 2))
    op = cond._Operand(a, norms.DEFAULT_MAX_ENUM_DIM)
    want = linalg.invert(a)
    assert op.inverse.shape == want.shape and op.inverse.tobytes() == want.tobytes()
    assert op.solve(b).tobytes() == linalg.solve(a, b).tobytes()
    for x in (op.inverse, *op.factors):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0


def test_singular_operand_raises_and_kappa_is_inf():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    op = cond._Operand(a, norms.DEFAULT_MAX_ENUM_DIM)
    reads = (lambda: op.factors, lambda: op.inverse, lambda: op.solve(np.ones((2, 1))),
             lambda: op.norm(2, 2, inverse=True))
    for read in reads:
        with pytest.raises(SingularMatrix, match="^cannot invert: matrix is singular"):
            read()
    assert isinf(cond.kappa(a, 2, 2, _op=op))
    assert op.norm(2, 2) == pytest.approx(5.0, rel=1e-14)  # A's own norms still work
    for r, s in ALL_PAIRS:
        assert isinf(cond.kappa(a, r, s))


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_operand_takes_each_norm_once(monkeypatch, r, s):
    # one memo: a value and an attainer, of A and of A^-1, each computed
    # once; at the enumeration pairs the value is the attainer's value
    a = gaussian(311, 0, shape=(5, 5))
    op = cond._Operand(a, norms.DEFAULT_MAX_ENUM_DIM)
    calls = []

    def spy(name):
        fn = getattr(cond, name)
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("operator_norm", "operator_norm_values"):
        monkeypatch.setattr(cond, name, spy(name))
    for m, inverse in ((a, False), (linalg.invert(a), True)):
        for _ in range(2):
            value = op.norm(r, s, inverse=inverse)
            res = op.norm(r, s, inverse=inverse, attainer=True)
        assert type(value) is float and value == float(norms.operator_norm_values(m, r, s))
        want = norms.operator_norm(m, r, s)
        assert res.value == want.value and np.array_equal(res.attainer, want.attainer)
    enumerated = (norms.norm_index(r), norms.norm_index(s)) in norms.ENUMERATION_PAIRS
    once = ["operator_norm"] if enumerated else ["operator_norm_values", "operator_norm"]
    assert calls == once * 2
