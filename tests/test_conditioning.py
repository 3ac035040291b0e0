from math import inf, isinf, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condlab import conditioning as cond
from condlab import linalg, norms
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
