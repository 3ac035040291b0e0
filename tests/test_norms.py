import itertools
from math import inf

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condlab import norms
from condlab.errors import DimensionTooLarge, NotUnitVector, ZeroVector

from conftest import gaussian

INDICES = (1, 2, inf)
ALL_PAIRS = [(r, s) for r in INDICES for s in INDICES]

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=6).map(np.asarray)


def test_vector_norm_examples():
    x = np.array([3.0, -4.0])
    assert norms.vector_norm(x, 2) == 5.0
    assert norms.vector_norm(x, 1) == 7.0
    assert norms.vector_norm(x, inf) == 4.0


def test_norm_index_parsing():
    assert norms.norm_index("inf") == inf
    assert norms.norm_index("1") == 1.0
    assert norms.norm_index(2) == 2.0
    with pytest.raises(ValueError):
        norms.norm_index(3)
    assert norms.dual_exponent(1) == inf
    assert norms.dual_exponent(inf) == 1.0
    assert norms.dual_exponent(2) == 2.0


def test_dual_witness_examples():
    x = np.array([3.0, -4.0])
    assert np.allclose(norms.dual_witness(x, 2), [0.6, -0.8], atol=1e-15)
    assert np.array_equal(norms.dual_witness(x, 1), [1.0, -1.0])
    assert np.array_equal(norms.dual_witness(x, inf), [0.0, -1.0])
    with pytest.raises(ZeroVector):
        norms.dual_witness(np.zeros(3), 2)


@given(vectors, vectors, st.sampled_from(INDICES),
       st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=200)
def test_vector_norm_axioms(x, y, r, alpha):
    if x.shape != y.shape:
        return
    nx = norms.vector_norm(x, r)
    assert nx >= 0.0
    assert norms.vector_norm(alpha * x, r) == pytest.approx(abs(alpha) * nx, rel=1e-12, abs=1e-300)
    assert norms.vector_norm(x + y, r) <= nx + norms.vector_norm(y, r) + 1e-9 * (
        nx + norms.vector_norm(y, r)
    )


@given(vectors, st.sampled_from(INDICES))
@example(np.array([5e-324, 5e-324]), 2.0)
@settings(max_examples=200)
def test_dual_witness_contract(x, r):
    if not np.any(x != 0.0):
        return
    u = norms.dual_witness(x, r)
    rstar = norms.dual_exponent(r)
    assert abs(norms.vector_norm(u, rstar) - 1.0) <= 1e-12
    assert abs(u @ x - norms.vector_norm(x, r)) <= 1e-9 * max(1.0, norms.vector_norm(x, r))


def test_unit_vectors_of_subnormal_input():
    # the norm of [5e-324, 5e-324] rounds to 5e-324, so dividing by it
    # gave [1, 1]; normalizing after an exact power-of-two scaling does not
    for k in (-1070, -1060, -1000, -500, 0, 500, 1000):
        u = norms.dual_witness(np.ldexp([3.0, -4.0], k), 2)
        assert np.array_equal(u, norms.dual_witness(np.array([3.0, -4.0]), 2))
    u = norms.dual_witness(np.array([5e-324, 5e-324]), 2)
    assert np.array_equal(u, [u[0], u[0]])
    assert norms.vector_norm(u, 2) == pytest.approx(1.0, abs=1e-15)
    res = norms.operator_norm(np.array([[5e-324, 5e-324], [0.0, 1e-324]]), 2, inf)
    assert np.array_equal(res.attainer, u)


@pytest.mark.parametrize("width", range(1, 8))
def test_short_axis_norms_bitwise_equal_numpy_reductions(width):
    # stacks whose last axis is shorter than 8 are reduced column by column;
    # numpy reduces such an axis left to right, so the bits must agree
    decades = np.clip(np.round(100.0 * gaussian(206, width, 1, shape=(400, width))), -300, 300)
    x = gaussian(206, width, shape=(400, width)) * 10.0**decades
    x[:: 7] = 0.0
    x[3, 0] = -0.0
    views = (x, np.ascontiguousarray(x.T).T, np.swapaxes(x.reshape(8, 50, width), 0, 1))
    for view in views:
        mag = np.abs(view)
        scale = np.max(mag, axis=-1, keepdims=True)
        y = view / np.where(scale > 0.0, scale, 1.0)
        expected = {
            1: np.sum(mag, axis=-1),
            2: scale[..., 0] * np.sqrt(np.sum(y * y, axis=-1)),
            inf: np.max(mag, axis=-1),
        }
        for r, want in expected.items():
            got = norms.vector_norm(view, r)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (width, r)


def test_operator_norm_examples():
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    res = norms.operator_norm(a, 1, 1)
    assert res.value == 6.0
    assert np.array_equal(res.attainer, [0.0, 1.0])
    res = norms.operator_norm(a, inf, inf)
    assert res.value == 7.0
    assert np.array_equal(res.attainer, [1.0, 1.0])
    assert norms.operator_norm(np.diag([3.0, -5.0]), 2, 2).value == pytest.approx(5.0, abs=1e-12)


def test_operator_norm_brute_force_never_exceeds():
    # 1e5 random unit-1-norm vectors never beat the closed form (1,1) value
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    x = gaussian(201, 0, shape=(100000, 2))
    x /= np.abs(x).sum(axis=1, keepdims=True)
    ratios = np.abs(x @ a.T).sum(axis=1)
    assert ratios.max() <= 6.0 + 1e-12


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_duality_and_attainer(r, s):
    for t in range(12):
        a = gaussian(202, t, shape=(5, 6))
        res = norms.operator_norm(a, r, s)
        dual = norms.operator_norm(
            a.T, norms.dual_exponent(s), norms.dual_exponent(r)
        ).value
        assert res.value == pytest.approx(dual, rel=1e-10)
        ratio = norms.vector_norm(a @ res.attainer, s) / norms.vector_norm(res.attainer, r)
        assert ratio == pytest.approx(res.value, rel=1e-10)
        batched = norms.operator_norm_values(a[None], r, s)[0]
        if (r, s) == (2, 2):  # LAPACK values against Jacobi's, by design
            assert batched == pytest.approx(res.value, rel=1e-12)
        else:  # one core: the same bits alone or in a stack
            assert batched == res.value


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_consistency_bound(r, s):
    a = gaussian(203, 0, shape=(4, 4))
    value = norms.operator_norm(a, r, s).value
    x = gaussian(203, 1, shape=(10000, 4))
    ratios = norms.vector_norm(x @ a.T, s) / norms.vector_norm(x, r)
    assert ratios.max() <= value * (1.0 + 1e-12)


def test_submultiplicativity_across_indices():
    for t in range(6):
        a = gaussian(204, t, 0, shape=(4, 4))
        b = gaussian(204, t, 1, shape=(4, 4))
        for r in INDICES:
            for s in INDICES:
                for tt in INDICES:
                    lhs = norms.operator_norm(a @ b, r, tt).value
                    rhs = (
                        norms.operator_norm(a, s, tt).value
                        * norms.operator_norm(b, r, s).value
                    )
                    assert lhs <= rhs * (1.0 + 1e-10)


def test_enumeration_matches_random_sign_search():
    # the sup over the cube is attained at sign vertices; random vertex
    # search must reproduce the enumerated value exactly for small n
    for t in range(10):
        a = gaussian(205, t, shape=(4, 4))
        signs = np.where(gaussian(206, t, shape=(100000, 4)) >= 0.0, 1.0, -1.0)
        for s in (1, 2):
            enumerated = norms.operator_norm(a, inf, s).value
            searched = norms.vector_norm(signs @ a.T, s).max()
            assert searched == pytest.approx(enumerated, rel=1e-12)
        enum21 = norms.operator_norm(a, 2, 1).value
        searched = norms.vector_norm(signs @ a, 2).max()
        assert searched == pytest.approx(enum21, rel=1e-12)


def test_enumeration_dimension_gate():
    a = np.zeros((3, 25))
    a[0, 0] = 1.0
    with pytest.raises(DimensionTooLarge):
        norms.operator_norm(a, inf, 1, max_enum_dim=20)
    with pytest.raises(DimensionTooLarge):
        norms.operator_norm(a.T, 2, 1, max_enum_dim=20)
    # closed forms stay available at any size
    assert norms.operator_norm(a, 1, 2, max_enum_dim=20).value == 1.0


def _brute_force_sup(a, r, s):
    """max of ||A x||_s / ||x||_r over every x in {-1,1}^m, or over A^T z for (2,1)."""
    t, q = (a, s) if r == inf else (a.T, 2.0)
    signs = itertools.product((1.0, -1.0), repeat=t.shape[1])
    return max(norms.vector_norm(t @ np.array(z), q) for z in signs)


# m = 1, 2, odd and even enumerated dimensions, both orientations
SHAPES = [(1, 1), (3, 1), (1, 3), (2, 2), (5, 2), (2, 5), (4, 7), (7, 4), (6, 6), (9, 8)]


@pytest.mark.parametrize("r,s", norms.ENUMERATION_PAIRS)
@pytest.mark.parametrize("shape", SHAPES)
def test_enumeration_matches_brute_force(shape, r, s):
    cases = [gaussian(209, *shape, t, shape=shape) for t in range(3)]
    cases += [np.zeros(shape), np.round(4.0 * gaussian(210, *shape, shape=shape))]
    for a in cases:
        res = norms.operator_norm(a, r, s)
        assert res.method == "vertex_enumeration"
        assert res.value == pytest.approx(_brute_force_sup(a, r, s), rel=1e-15, abs=0.0)
        ratio = norms.vector_norm(a @ res.attainer, s) / norms.vector_norm(res.attainer, r)
        assert ratio == pytest.approx(res.value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_stacked_values_equal_single_values(r, s):
    stack = gaussian(211, shape=(2, 3, 5, 4))
    values = norms.operator_norm_values(stack, r, s)
    assert values.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = norms.operator_norm(stack[idx], r, s).value
        if (r, s) == (2, 2):
            assert values[idx] == pytest.approx(single, rel=1e-12)
        else:
            assert values[idx] == single


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_zero_matrix_norm_and_attainer(r, s):
    # (inf, s) returns the first sign vector; every other pair returns e_0
    res = norms.operator_norm(np.zeros((3, 4)), r, s)
    assert res.value == 0.0
    expected = np.ones(4) if r == inf and s != inf else np.eye(4)[0]
    assert np.array_equal(res.attainer, expected)


def test_enumeration_dimension_gate_on_stacks():
    with pytest.raises(DimensionTooLarge):
        norms.operator_norm_values(np.ones((2, 3, 21)), inf, 1)
    with pytest.raises(DimensionTooLarge):
        norms.operator_norm_values(np.ones((2, 3, 21)), inf, 2)
    with pytest.raises(DimensionTooLarge):
        norms.operator_norm_values(np.ones((2, 21, 3)), 2, 1)
    assert norms.operator_norm_values(np.ones((2, 21, 3)), inf, 1).shape == (2,)


@pytest.mark.parametrize("r,s", norms.ENUMERATION_PAIRS)
def test_enumeration_independent_of_chunk_size(r, s, monkeypatch):
    stack = gaussian(212, shape=(5, 6, 9))
    square = np.round(3.0 * gaussian(213, shape=(7, 7)))
    values = norms.operator_norm_values(stack, r, s)
    results = [norms.operator_norm(a, r, s) for a in (stack[0], square)]
    monkeypatch.setattr(norms, "_CHUNK_ELEMENTS", 1)
    assert np.array_equal(norms.operator_norm_values(stack, r, s), values)
    for a, res in zip((stack[0], square), results):
        chunked = norms.operator_norm(a, r, s)
        assert chunked.value == res.value
        assert np.array_equal(chunked.attainer, res.attainer)


def test_rank_one_interpolator_examples():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert np.array_equal(norms.rank_one_interpolator(e1, e2, 2, 2), np.outer(e2, e1))

    x = np.array([0.6, 0.8])
    b = norms.rank_one_interpolator(x, e1, 2, 2)
    assert np.allclose(b, np.outer(e1, x), atol=1e-15)
    assert np.allclose(b @ x, e1, atol=1e-12)
    assert norms.operator_norm(b, 2, 2).value == pytest.approx(1.0, rel=1e-10)

    y = np.array([0.5, 0.5])
    b = norms.rank_one_interpolator(e1, y, 1, 1)
    assert norms.operator_norm(b, 1, 1).value == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(b @ e1, y, atol=1e-12)


def test_operator_norm_leaves_transposed_views_untouched():
    # regression: the spectral path once rotated the caller's buffer in
    # place when handed a transposed view whose swapped layout is contiguous
    a = gaussian(208, 0, shape=(2, 2))
    before = a.copy()
    norms.operator_norm(a.T, 2, 2)
    assert np.array_equal(a, before)
    norms.operator_norm(a, 2, 2)
    assert np.array_equal(a, before)


def test_rank_one_interpolator_rejects_non_unit():
    with pytest.raises(NotUnitVector):
        norms.rank_one_interpolator(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 2, 2)


@pytest.mark.parametrize("r,s", ALL_PAIRS)
def test_rank_one_interpolator_contract_all_pairs(r, s):
    for t in range(8):
        x = gaussian(207, t, 0, shape=(5,))
        y = gaussian(207, t, 1, shape=(4,))
        x /= norms.vector_norm(x, r)
        y /= norms.vector_norm(y, s)
        b = norms.rank_one_interpolator(x, y, r, s)
        assert norms.operator_norm(b, r, s).value == pytest.approx(1.0, rel=1e-10)
        assert np.max(np.abs(b @ x - y)) <= 1e-12
