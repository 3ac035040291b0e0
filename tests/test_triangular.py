import warnings
from math import inf

import numpy as np
import pytest

from condlab import triangular as tri
from condlab.errors import HypothesisViolated, NotLowerTriangular, ZeroDiagonal

from conftest import gaussian


def unit_lower(seed, *path, n):
    lower = np.tril(gaussian(seed, *path, shape=(n, n)))
    np.fill_diagonal(lower, 1.0)
    return lower


def test_round_reduced_matches_float32_in_range():
    x = gaussian(501, 0, shape=(10000,)) * 10.0 ** gaussian(501, 1, shape=(10000,))
    assert np.array_equal(tri.round_reduced(x), np.float32(x).astype(np.float64))


def test_round_reduced_round_to_nearest_even():
    # exactly halfway cases resolve to the even 24-bit significand
    assert tri.round_reduced(np.array([1.0 + 2.0**-24]))[0] == 1.0
    assert tri.round_reduced(np.array([1.0 + 3.0 * 2.0**-24]))[0] == 1.0 + 2.0**-22
    assert tri.round_reduced(np.array([0.0]))[0] == 0.0


def test_round_reduced_keeps_binary64_range():
    # the rounding model has no overflow: huge magnitudes keep 24-bit
    # significands instead of saturating at the binary32 range limit
    big = np.array([1e300, -3e250, 2.0**-300])
    out = tri.round_reduced(big)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out - big) / np.abs(big)) < 2.0**-24


def test_round_reduced_overflows_to_inf_near_dbl_max():
    # above the largest 24-bit value the nearest neighbour is 2^1024, which
    # is not representable: rounding overflows to inf, as IEEE specifies
    top = np.ldexp(1.0 - 2.0**-24, 1024)
    midpoint = np.ldexp(1.0 - 2.0**-25, 1024)
    x = np.array([top, np.nextafter(midpoint, 0.0), midpoint, np.finfo(np.float64).max])
    with np.errstate(over="ignore"):
        out = tri.round_reduced(np.concatenate((x, -x)))
    assert np.array_equal(out, [top, top, np.inf, np.inf, -top, -top, -np.inf, -np.inf])


def test_forward_substitution_identity_and_hand_case():
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(tri.forward_substitution(np.eye(3), b), b)
    x = tri.forward_substitution(np.array([[1.0, 0.0], [2.0, 1.0]]), np.array([1.0, 1.0]))
    assert np.array_equal(x, [1.0, -1.0])


def test_forward_substitution_reduced_exact_on_representables():
    x = tri.forward_substitution(np.eye(2), np.array([1.0, 1.0]), tri.REDUCED)
    assert np.array_equal(x, [1.0, 1.0])


def test_forward_substitution_validation():
    with pytest.raises(NotLowerTriangular):
        tri.forward_substitution(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ZeroDiagonal):
        tri.forward_substitution(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))


def test_empty_system_rejected():
    # a 0x0 matrix raised IndexError in the solve and numpy's zero-size
    # reduction error in the backward error
    empty, b = np.zeros((0, 0)), np.zeros(0)
    for call in (lambda: tri.forward_substitution(empty, b),
                 lambda: tri.componentwise_backward_error(empty, b, b),
                 lambda: tri.verify_backward_stability(empty, b)):
        with pytest.raises(ValueError, match="^matrix dimensions must be positive$"):
            call()


@pytest.mark.parametrize("bad", [np.nan, inf])
def test_non_finite_input_rejected(bad):
    # a NaN in L or b used to pass as a backward-stable solve with eps = 0
    lower, b = np.array([[1.0, 0.0], [bad, 1.0]]), np.array([1.0, 1.0])
    bad_b = np.array([1.0, bad])
    for call in (tri.forward_substitution, tri.verify_backward_stability):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            call(lower, b)
        with pytest.raises(ValueError, match="right-hand side entries must be finite"):
            call(np.eye(2), bad_b)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        tri.componentwise_backward_error(lower, b, b)
    with pytest.raises(ValueError, match="right-hand side entries must be finite"):
        tri.componentwise_backward_error(np.eye(2), bad_b, b)


def test_backward_error_of_a_non_finite_solution_is_inf():
    rep = tri.componentwise_backward_error(np.eye(2), np.array([1.0, 1.0]),
                                           np.array([1.0, np.nan]))
    assert rep.epsilon_cw == inf
    assert not rep.satisfied


@pytest.mark.parametrize("x_hat", [[1.0, 1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0], 1.0])
def test_backward_error_checks_the_solution_shape(x_hat):
    # a length-3 x_hat raised numpy's matmul ValueError, and a (2, 2) one a
    # TypeError that the CLI's error table does not map
    with pytest.raises(ValueError, match=r"^solution shape mismatch: expected \(2,\), got "):
        tri.componentwise_backward_error(np.eye(2), np.array([1.0, 1.0]), x_hat)


@pytest.mark.parametrize("precision", [tri.WORKING, tri.REDUCED])
def test_overflowing_solve_reports_inf_without_warnings(precision):
    # x_1 = 2^1060 overflows to inf, the rounding model's result, and the
    # residual of both rows is not finite
    lower, b = np.array([[2.0**-60, 0.0], [1.0, 1.0]]), np.array([2.0**1000, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = tri.forward_substitution(lower, b, precision)
        rep = tri.componentwise_backward_error(lower, b, x, precision)
        verified = tri.verify_backward_stability(lower, b, precision)
    assert x.tolist() == [inf, -inf]
    assert rep.epsilon_cw == inf
    assert not rep.satisfied
    assert verified.epsilon_cw == inf
    assert not verified.satisfied


def test_backward_error_near_exact_solution():
    lower = np.array([[1.0, 0.0], [2.0, 1.0]])
    b = np.array([1.0, 1.0])
    x = tri.forward_substitution(lower, b)
    rep = tri.componentwise_backward_error(lower, b, x)
    assert rep.epsilon_cw <= 2.0**-50
    assert rep.satisfied


def test_backward_error_perturbed_rhs_by_hand():
    # x_hat solves the system with b scaled by (1 + 2^-20); for L = I the
    # rowwise formula gives 2^-20 / (1 + 2^-20) exactly
    b = np.array([1.0, -3.0, 0.5])
    x_hat = b * (1.0 + 2.0**-20)
    rep = tri.componentwise_backward_error(np.eye(3), b, x_hat)
    expected = 2.0**-20 / (1.0 + 2.0**-20)
    assert rep.epsilon_cw == pytest.approx(expected, rel=1e-12)
    assert rep.epsilon_cw == pytest.approx(2.0**-20, rel=2e-6)


def test_backward_error_zero_denominator_rows():
    lower = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = tri.componentwise_backward_error(lower, np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    assert rep.epsilon_cw == 0.0  # 0/0 rows count as zero error


def test_reduced_precision_50x50_bound():
    n = 50
    lower = unit_lower(502, 0, n=n)
    b = gaussian(502, 1, shape=(n,))
    x = tri.forward_substitution(lower, b, tri.REDUCED)
    rep = tri.componentwise_backward_error(lower, b, x, tri.REDUCED)
    assert rep.epsilon_cw <= 52.0 * 2.0**-24
    assert rep.satisfied


def test_verify_backward_stability_identity():
    rep = tri.verify_backward_stability(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]), tri.REDUCED)
    assert rep.satisfied
    assert rep.epsilon_cw <= 2.0**-24


def test_verify_backward_stability_100x100_unit():
    n = 100
    lower = unit_lower(503, 0, n=n)
    b = gaussian(503, 1, shape=(n,))
    rep = tri.verify_backward_stability(lower, b, tri.REDUCED)
    assert rep.satisfied


def test_verify_backward_stability_rejects_a_scalar_rhs():
    # a 0-d b used to reach the hypothesis gate first and raise IndexError
    with pytest.raises(ValueError, match="right-hand side shape mismatch"):
        tri.verify_backward_stability(np.eye(2), 5.0)


def test_hypothesis_gate():
    with pytest.raises(HypothesisViolated):
        tri.hypothesis_gate(2**25, tri.REDUCED)
    tri.hypothesis_gate(100, tri.REDUCED)  # fine
    with pytest.raises(HypothesisViolated):
        tri.verify_backward_stability(np.eye(2), np.array([1.0, 1.0]),
                                      tri.PrecisionMode("reduced", 0.5))


def test_working_precision_self_consistency():
    for t in range(20):
        n = 2 + 5 * t
        lower = np.tril(gaussian(504, t, 0, shape=(n, n)))
        np.fill_diagonal(lower, 1.0 + 0.1 * np.abs(np.diag(lower)))
        b = gaussian(504, t, 1, shape=(n,))
        rep = tri.verify_backward_stability(lower, b, tri.WORKING)
        assert rep.epsilon_cw <= (n + 2) * 2.0**-53


def test_ill_conditioned_backward_stable_despite_forward_error():
    # a unit lower triangular with large entries is badly conditioned, yet the
    # computed solution of L x = L x0 stays componentwise backward stable
    n = 40
    lower = unit_lower(505, 0, n=n)
    lower[np.tril_indices(n, -1)] *= 5.0
    x0 = gaussian(505, 1, shape=(n,))
    b = lower @ x0
    x = tri.forward_substitution(lower, b, tri.WORKING)
    forward = np.linalg.norm(x - x0) / np.linalg.norm(x0)
    rep = tri.componentwise_backward_error(lower, b, x, tri.WORKING)
    assert rep.epsilon_cw <= (n + 2) * 2.0**-53
    # the point of the comparison: backward error stays tiny even when the
    # forward error is many orders of magnitude above roundoff
    assert forward > 100 * 2.0**-53


def test_precision_mode_parsing():
    assert tri.precision_mode("working") == tri.WORKING
    assert tri.precision_mode("reduced") == tri.REDUCED
    assert tri.REDUCED.eps_mach == 2.0**-24
    assert tri.WORKING.eps_mach == 2.0**-53
    with pytest.raises(ValueError):
        tri.precision_mode("half")


def _scalar_substitution(lower, b, rnd):
    """Row-oriented forward substitution on Python floats, every operation
    rounded by ``rnd`` and each inner sum taken left to right."""
    n = len(b)
    x = [0.0] * n
    x[0] = rnd(b[0] / lower[0][0])
    for i in range(1, n):
        w = 0.0
        for j in range(i):
            w = rnd(w + rnd(lower[i][j] * x[j]))
        x[i] = rnd(rnd(b[i] - w) / lower[i][i])
    return x


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _stacks():
    """(lower, b) stacks: unit and general diagonals, signed-zero right-hand
    sides, entries spread over +-300 decades, and n = 1."""
    for n in (1, 2, 7, 23):
        g = np.tril(gaussian(506, n, 0, shape=(6, n, n)))
        rhs = gaussian(506, n, 1, shape=(6, n))
        unit = g.copy()
        unit[:, np.arange(n), np.arange(n)] = 1.0
        yield unit, rhs
        yield g, rhs
        signs = np.where(gaussian(506, n, 2, shape=(6, n)) > 0.0, 0.0, -0.0)
        yield g, signs
        # D1 L D2 with D's over +-150 decades: the system stays finite
        d1 = 10.0 ** (300.0 * gaussian(506, n, 3, shape=(6, n, 1)).clip(-1, 1) / 2)
        d2 = 10.0 ** (300.0 * gaussian(506, n, 4, shape=(6, 1, n)).clip(-1, 1) / 2)
        yield d1 * g * d2, rhs * d1[..., 0]
        # independent magnitudes per entry: overflow and NaN must match too
        spread = g * 10.0 ** (300.0 * gaussian(506, n, 5, shape=(6, n, n)).clip(-1, 1))
        yield spread, rhs * 10.0 ** (300.0 * gaussian(506, n, 6, shape=(6, n)).clip(-1, 1))


@pytest.mark.parametrize("precision", [tri.WORKING, tri.REDUCED])
def test_batched_substitution_bitwise_equals_scalar_reference(precision):
    if precision.mode == "reduced":
        def rnd(v):
            return float(tri.round_reduced(v))
    else:
        def rnd(v):
            return v
    for lower, b in _stacks():
        assert np.all(np.diagonal(lower, axis1=1, axis2=2) != 0.0)
        with np.errstate(all="ignore"):
            for k in range(len(b)):
                x = tri.forward_substitution(lower[k], b[k], precision)
                want = _scalar_substitution(lower[k].tolist(), b[k].tolist(), rnd)
                assert _same_bits(x, want), (lower.shape, k)
