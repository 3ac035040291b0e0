import warnings

import numpy as np
import pytest

from condlab import linalg, randomlab, rng
from condlab.conditioning import kappa
from condlab.errors import SingularMatrix

import jacobi_reference
from conftest import gaussian


def test_lu_identity():
    f = linalg.lu_decompose(np.eye(3))
    assert np.array_equal(f.unit_lower, np.eye(3))
    assert np.array_equal(f.upper, np.eye(3))
    assert np.array_equal(f.permutation, np.arange(3))
    assert f.parity == 1.0


def test_lu_permutation_matrix():
    f = linalg.lu_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(f.permutation, [1, 0])
    assert np.array_equal(f.unit_lower, np.eye(2))
    assert np.array_equal(f.upper, np.eye(2))
    assert f.parity == -1.0


def test_lu_rank_one_raises():
    with pytest.raises(SingularMatrix):
        linalg.lu_decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_lu_reconstruction_100_seeded():
    a = gaussian(101, 0, shape=(100, 5, 5))
    f = linalg.lu_decompose(a)
    pa = np.take_along_axis(a, f.permutation[..., None], axis=-2)
    residual = linalg.frobenius_norm(pa - f.unit_lower @ f.upper)
    assert np.all(residual <= 1e-12 * linalg.frobenius_norm(a))
    assert np.all(np.diagonal(f.unit_lower, axis1=-2, axis2=-1) == 1.0)


def _lu_reference(a, tol):
    """Partial-pivoting LU of one matrix, one Python float operation at a time.

    The first largest |pivot| wins; the matrix is singular once a pivot is
    at most tol * max|a_ij|, and from then on its multipliers are divided
    by 1, which is what ``_lu_raw`` promises for every matrix of a stack.
    The fifth result lists the pivot row chosen at each step.
    """
    rows = [[float(x) for x in row] for row in a]
    n = len(rows)
    perm, parity, singular, pivots = list(range(n)), 1.0, False, []
    amax = max(abs(x) for row in rows for x in row)
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(rows[i][k]) > abs(rows[p][k]):
                p = i
        pivots.append(p)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            perm[k], perm[p] = perm[p], perm[k]
            parity = -parity
        singular = singular or abs(rows[k][k]) <= tol * amax
        pivot = 1.0 if singular else rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / pivot
            rows[i][k] = f
            for j in range(k + 1, n):
                rows[i][j] -= f * rows[k][j]
    return np.array(rows), np.array(perm), parity, singular, pivots


def _lu_oracle_cases(n):
    """Six n x n matrices that stress the pivoting and the singular test."""
    ties = np.round(2.0 * gaussian(111, n, 1, shape=(n, n)))
    ties[:, 0] = [1.0, -3.0, 3.0, 3.0, -3.0, 2.0, 3.0, 0.0, -3.0, 1.0, 3.0, -1.0][:n]
    zero_column = gaussian(111, n, 2, shape=(n, n))
    zero_column[:, n // 2] = 0.0
    # the last column is the first plus 2^-50 of a random column, so the last
    # pivot is of order 1e-15 * max|a_ij|: singular only within the tolerance
    near = gaussian(111, n, 3, shape=(n, n))
    near[:, -1] = near[:, 0] + np.ldexp(gaussian(111, n, 4, shape=(n,)), -50)
    huge = np.ldexp(gaussian(111, n, 5, shape=(n, n)), 1000)
    tiny = np.ldexp(gaussian(111, n, 6, shape=(n, n)), -1000)
    subnormal = np.ldexp(gaussian(111, n, 7, shape=(n, n)), -1060)
    return [ties, zero_column, near, huge, tiny, subnormal]


@pytest.mark.parametrize("n", range(1, 13))
def test_lu_raw_matches_scalar_reference_bitwise(n):
    cases = _lu_oracle_cases(n)
    stack = np.stack(cases).reshape(2, 3, n, n)
    lu, perm, parity, singular = linalg._lu_raw(stack)
    assert lu.shape == (2, 3, n, n) and perm.shape == parity.shape + (n,) == (2, 3, n)
    # batch-last: the factors are views of (n, n, batch) and (n, batch) arrays
    assert lu.reshape(6, n, n).transpose(1, 2, 0).flags.c_contiguous
    assert perm.reshape(6, n).T.flags.c_contiguous
    for i, a in enumerate(cases):
        want = _lu_reference(a, linalg.DEFAULT_PIVOT_TOL)
        alone = linalg._lu_raw(a)
        inside = tuple(x[divmod(i, 3)] for x in (lu, perm, parity, singular))
        for g in (alone, inside):
            assert np.array_equal(g[0], want[0]), i
            assert np.array_equal(g[1], want[1]), i
            assert g[2] == want[2] and bool(g[3]) == want[3], i
    # the cases do what they are named for
    assert _lu_reference(cases[1], linalg.DEFAULT_PIVOT_TOL)[3]
    if n >= 2:
        near = _lu_reference(cases[2], linalg.DEFAULT_PIVOT_TOL)
        assert near[3] and np.all(near[0][np.arange(n), np.arange(n)] != 0.0)
    if n >= 3:
        assert _lu_reference(cases[0], linalg.DEFAULT_PIVOT_TOL)[1][0] == 1  # first of the tied rows
    subnormal_lu = _lu_reference(cases[5], linalg.DEFAULT_PIVOT_TOL)[0]
    assert np.any((subnormal_lu != 0.0) & (np.abs(subnormal_lu) < np.finfo(float).tiny))


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _agree_then_split(n, members):
    """``members`` n x n matrices, equal but in column 1, whose pivots agree
    at step 0, split at step 1 (rows 1 and 2 win in turn), agree again at
    every later step, and swap rows 3 and 4 at step 3.  Each column c >= 2
    has a dominant entry in the row that step c picks; column 2 has it in
    both rows 1 and 2, so the row that loses step 1 carries it."""
    a = gaussian(112, n, shape=(n, n))
    a[0, 0] = 8.0
    dominant = list(range(n))
    if n >= 5:
        dominant[3], dominant[4] = 4, 3  # step 3 swaps rows 3 and 4
    for c in range(2, n):
        a[dominant[c], c] = 1e3 * (1.0 + c)
    if n >= 3:
        a[1, 2] = a[2, 2]
    stack = np.repeat(a[None], members, axis=0)
    if n >= 2:
        stack[:, :, 1] += 0.01 * gaussian(112, n, 1, shape=(members, n))
    if n >= 3:
        stack[0::2, 1, 1] += 50.0
        stack[1::2, 2, 1] += 50.0
    return stack


def _pivot_stacks(n):
    """(name, stack) of stacks that exercise the agreeing and the split pivots."""
    ties = np.round(2.0 * gaussian(113, n, shape=(n, n)))
    ties[:, 0] = [1.0, -3.0, 3.0, 3.0, -3.0, 2.0, 3.0, 0.0, -3.0, 1.0, 3.0, -1.0][:n]
    # every member ties on column 0 and the tied rows trade places across
    # members; in ``early`` row 0 ties the row that the first member picks
    early = ties.copy()
    early[0, 0] = -3.0
    tied = np.stack([ties, ties[::-1].copy(), early, np.roll(ties, 1, axis=0)])
    zero = _agree_then_split(n, 4)
    zero[:, :, n // 2] = 0.0
    mixed = _agree_then_split(n, 4)
    mixed[2, :, n - 1] = 0.0  # one singular member among regular ones
    return [("agree_then_split", _agree_then_split(n, 6)), ("ties", tied),
            ("tie_above", np.stack([ties, early, ties])),
            ("zero_column", zero), ("one_singular", mixed),
            ("one_matrix", _agree_then_split(n, 1))]


@pytest.mark.parametrize("n", range(1, 13))
def test_lu_raw_agreeing_and_split_pivots_match_reference_bitwise(n):
    tol = linalg.DEFAULT_PIVOT_TOL
    for name, stack in _pivot_stacks(n):
        want = [_lu_reference(a, tol) for a in stack]
        got = linalg._lu_raw(stack)
        for i, w in enumerate(want):
            assert _same_bits(got[0][i], w[0]), (name, i)
            assert np.array_equal(got[1][i], w[1]), (name, i)
            assert got[2][i] == w[2] and bool(got[3][i]) == w[3], (name, i)
        pivots = np.array([w[4] for w in want])  # (members, steps)
        agree = np.all(pivots == pivots[0], axis=0)
        # the stacks do what they are named for
        if name == "agree_then_split" and n >= 5:
            assert agree[0] and not agree[1] and agree[2:].all()
            assert pivots[0, 3] == 4
        if name == "ties" and n >= 2:
            assert not agree[0] and pivots[0, 0] == 1 and pivots[2, 0] == 0
        if name == "tie_above" and n >= 2:
            assert list(pivots[:, 0]) == [1, 0, 1]
        if name == "zero_column":
            assert all(w[3] for w in want)
        if name == "one_singular" and n >= 2:
            assert [w[3] for w in want] == [False, False, True, False]


def _solve_reference(lu, perm, b):
    """x with P A x = b from packed factors, row by row, one Python float
    operation at a time, in the order ``_lu_solve_packed`` documents: row i
    of L y = P b subtracts l_i0 y_0, l_i1 y_1, ... in that order; row i of
    U x = y subtracts u_i,n-1 x_n-1, ..., u_i,i+1 x_i+1 in that order and
    then divides by u_ii."""
    n, k = len(lu), b.shape[1]
    lu = [[float(v) for v in row] for row in lu]
    x = [[float(b[perm[i], c]) for c in range(k)] for i in range(n)]
    for c in range(k):
        for i in range(n):
            for j in range(i):
                x[i][c] -= lu[i][j] * x[j][c]
        for i in range(n - 1, -1, -1):
            for j in range(n - 1, i, -1):
                x[i][c] -= lu[i][j] * x[j][c]
            x[i][c] /= lu[i][i]
    return np.array(x).reshape(n, k)


def _solve_stacks(n):
    """(name, (2, 3, n, n) stack) of regular matrices: small perturbations of
    one matrix, whose permutations agree, and independent ones at scales
    from 2^-500 to 2^500, whose permutations differ."""
    a = gaussian(114, n, shape=(n, n))
    near = a + 1e-9 * gaussian(114, n, 1, shape=(6, n, n))
    scales = np.ldexp(1.0, np.array([0, 500, -500, 3, -40, 0]))
    apart = scales[:, None, None] * gaussian(114, n, 2, shape=(6, n, n))
    return [("agree", near.reshape(2, 3, n, n)), ("differ", apart.reshape(2, 3, n, n))]


@pytest.mark.parametrize("n", range(1, 13))
def test_lu_solve_packed_matches_scalar_reference_bitwise(n):
    tol = linalg.DEFAULT_PIVOT_TOL
    for name, stack in _solve_stacks(n):
        lu, perm, _, singular = linalg._lu_raw(stack)
        assert not singular.any()
        perms = perm.reshape(6, n)
        assert np.all(perms == perms[0]) == (name == "agree" or n == 1), name
        vec = gaussian(115, n, shape=(2, 3, n))
        block = gaussian(115, n, 1, shape=(2, 3, n, 3))
        x_vec = linalg.solve(stack, vec)
        x_block = linalg._lu_solve_packed(lu, perm, block)
        x_inv = linalg.invert(stack)
        assert x_block.flags.c_contiguous and x_inv.flags.c_contiguous
        for idx in np.ndindex(2, 3):
            a = stack[idx]
            ref_lu, ref_perm, *_ = _lu_reference(a, tol)
            rhs = {"vector": vec[idx][:, None], "block": block[idx], "identity": np.eye(n)}
            want = {key: _solve_reference(ref_lu, ref_perm, b) for key, b in rhs.items()}
            alone_lu, alone_perm, *_ = linalg._lu_raw(a)
            got = {
                "vector": [x_vec[idx][:, None], linalg.solve(a, vec[idx])[:, None]],
                "block": [x_block[idx], linalg._lu_solve_packed(alone_lu, alone_perm, block[idx])],
                "identity": [x_inv[idx], linalg.invert(a)],
            }
            for key, pair in got.items():
                for g in pair:
                    assert _same_bits(g, want[key]), (name, idx, key)


def test_empty_stacks():
    assert linalg._lu_raw(np.empty((2, 0, 3, 3)))[1].shape == (2, 0, 3)
    assert linalg.invert(np.empty((0, 3, 3))).shape == (0, 3, 3)
    assert linalg.solve(np.empty((0, 3, 3)), np.empty((0, 3))).shape == (0, 3)


def test_solve_broadcasts_stacks_and_rejects_a_misfit_right_hand_side():
    n = 4
    one = gaussian(116, shape=(1, n, n))
    stack = gaussian(116, 1, shape=(3, n, n))
    block = gaussian(116, 2, shape=(3, n, 2))
    x = linalg.solve(one, block)  # one matrix's factors, three right-hand sides
    y = linalg.solve(stack, block[:1])  # three matrices, one right-hand side
    z = linalg.solve(one[0], block)
    assert x.shape == y.shape == z.shape == (3, n, 2)
    for i in range(3):
        assert _same_bits(x[i], linalg.solve(one[0], block[i]))
        assert _same_bits(z[i], x[i])
        assert _same_bits(y[i], linalg.solve(stack[i], block[0]))
    # a length-n vector against a stack is neither a vector per matrix nor
    # an n-row block
    with pytest.raises(ValueError, match="does not fit"):
        linalg.solve(stack, block[0, :, 0])
    with pytest.raises(ValueError, match="does not fit"):
        linalg.solve(one[0], np.ones(n + 1))


def test_invert_diagonal():
    assert np.allclose(linalg.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]), atol=0)


def test_invert_hand_elimination():
    # [[1,0],[2,1]]^-1 = [[1,0],[-2,1]]; cross-check the product with identity
    a = np.array([[1.0, 0.0], [2.0, 1.0]])
    inv = linalg.invert(a)
    assert np.array_equal(inv, np.array([[1.0, 0.0], [-2.0, 1.0]]))
    assert np.array_equal(a @ inv, np.eye(2))


def test_invert_hilbert_residual():
    h = np.array([[1.0 / (i + j + 1) for j in range(3)] for i in range(3)])
    inv = linalg.invert(h)
    assert linalg.frobenius_norm(h @ inv - np.eye(3)) <= 1e-10


def test_solve_trivial_and_diagonal():
    assert np.array_equal(linalg.solve(np.eye(3), np.array([1.0, 2.0, 3.0])),
                          [1.0, 2.0, 3.0])
    assert np.array_equal(linalg.solve(np.diag([1.0, 2.0]), np.array([2.0, 2.0])),
                          [2.0, 1.0])


def test_solve_residual_oracle():
    a = gaussian(102, 0, shape=(5, 5))
    b = gaussian(102, 1, shape=(5,))
    x = linalg.solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        linalg.solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_ql_fixed_point_on_lower_triangular():
    lower = np.array([[2.0, 0.0], [1.0, 3.0]])
    f = linalg.ql_decompose(lower)
    assert np.allclose(f.orthogonal, np.eye(2), atol=1e-15)
    assert np.allclose(f.lower_triangular, lower, atol=1e-15)


def test_ql_orthogonal_input():
    theta = 0.7
    q0 = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    f = linalg.ql_decompose(q0)
    assert np.allclose(f.lower_triangular, np.eye(2), atol=1e-14)
    assert np.allclose(f.orthogonal.T @ q0, np.eye(2), atol=1e-14)


def test_ql_random_reconstruction_and_invariants():
    # one matrix, and a stack whose every member must satisfy the same
    for a in (gaussian(103, 0, shape=(6, 6)), gaussian(103, 1, shape=(5, 4, 4))):
        f = linalg.ql_decompose(a)
        q, lower = f.orthogonal, f.lower_triangular
        n = a.shape[-1]
        assert np.all(np.triu(lower, 1) == 0.0)
        assert np.all(np.diagonal(lower, axis1=-2, axis2=-1) >= 0.0)
        assert np.max(np.abs(np.swapaxes(q, -2, -1) @ q - np.eye(n))) <= 1e-12
        recon = linalg.frobenius_norm(q @ lower - a)
        assert np.all(recon <= 1e-12 * linalg.frobenius_norm(a))
        # orthogonal invariance: L has the singular values of A
        sv_a = linalg.singular_values(a)
        sv_l = linalg.singular_values(lower)
        assert np.all(np.abs(sv_a - sv_l) <= 1e-10 * sv_a[..., :1])


def test_ql_rank_deficient_input_gives_zero_diagonal():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    f = linalg.ql_decompose(a)
    assert np.array_equal(np.diag(f.lower_triangular), [1.0, 0.0])
    assert np.array_equal(f.orthogonal @ f.lower_triangular, a)
    zero = linalg.ql_decompose(np.zeros((3, 3)))
    assert np.array_equal(zero.lower_triangular, np.zeros((3, 3)))
    assert np.max(np.abs(zero.orthogonal.T @ zero.orthogonal - np.eye(3))) <= 1e-15


def test_ql_lower_matches_full_factorization():
    a = gaussian(104, 0, shape=(8, 5, 5))
    full = linalg.ql_decompose(a)
    assert np.array_equal(linalg.ql_lower(a), full.lower_triangular)


def test_ql_near_overflow_gives_finite_factors():
    # unscaled, LAPACK returned L with a -inf and Q with a NaN, silently
    a = 1e308 * np.array([[1.0, 1.0], [1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = linalg.ql_decompose(a)
    q, lower = f.orthogonal, f.lower_triangular
    assert np.all(np.isfinite(q)) and np.all(np.isfinite(lower))
    assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-15
    assert np.max(np.abs(q @ lower - a)) <= 1e-15 * np.max(np.abs(a))
    assert np.array_equal(linalg.ql_lower(a), lower)


def _unscaled_ql(a):
    """QL from LAPACK on ``a`` as given, with no prescaling."""
    q, r = np.linalg.qr(a[..., ::-1, ::-1])
    q, lower = q[..., ::-1, ::-1], r[..., ::-1, ::-1]
    flip = np.diagonal(lower, axis1=-2, axis2=-1) < 0.0
    return np.where(flip[..., None, :], -q, q), np.where(flip[..., :, None], -lower, lower)


@pytest.mark.parametrize("k", [-900, -301, -1, 0, 1, 301, 900])
def test_ql_prescaling_keeps_the_bits(k):
    # the power-of-two prescaling is exact: wherever the unscaled factors
    # are finite, both factors keep their bits, and 2^k A factors as 2^k L
    for a in (gaussian(105, 0, shape=(6, 6)), gaussian(105, 1, shape=(5, 4, 4))):
        scaled = np.ldexp(a, k)
        q, lower = _unscaled_ql(scaled)
        f = linalg.ql_decompose(scaled)
        assert np.array_equal(f.orthogonal, q)
        assert np.array_equal(f.lower_triangular, lower)
        assert np.array_equal(linalg.ql_lower(scaled), np.ldexp(linalg.ql_lower(a), k))


def test_singular_values_trivial_cases():
    assert np.array_equal(linalg.singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])
    theta = 1.1
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.allclose(linalg.singular_values(rot), [1.0, 1.0], atol=1e-15)
    assert np.array_equal(linalg.singular_values([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])


def _power_iteration_sigma_max(a, iters=500):
    # independent oracle: power iteration on A^T A
    gram = a.T @ a
    x = np.ones(gram.shape[0]) + 1e-3 * np.arange(gram.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(iters):
        x = gram @ x
        x /= np.linalg.norm(x)
    return np.sqrt(x @ gram @ x)


def test_sigma_max_vs_power_iteration():
    for t in range(20):
        a = gaussian(105, t, shape=(6, 6))
        sigma = linalg.singular_values(a)[0]
        oracle = _power_iteration_sigma_max(a)
        assert abs(sigma - oracle) <= 1e-8 * oracle


def test_singular_values_orthogonal_invariance():
    a = gaussian(106, 0, shape=(6, 6))
    v = gaussian(106, 1, shape=(6,))
    v /= np.linalg.norm(v)
    householder = np.eye(6) - 2.0 * np.outer(v, v)
    sv = linalg.singular_values(a)
    assert np.max(np.abs(linalg.singular_values(householder @ a) - sv)) <= 1e-10 * sv[0]
    assert np.max(np.abs(linalg.singular_values(a @ householder) - sv)) <= 1e-10 * sv[0]


def test_frobenius_norm_values():
    assert linalg.frobenius_norm(np.eye(4)) == 2.0
    assert linalg.frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0


def test_frobenius_matches_singular_value_identity():
    for t in range(10):
        a = gaussian(107, t, shape=(4, 6))
        frob = linalg.frobenius_norm(a)
        sv = linalg.singular_values(a)
        assert abs(frob**2 - np.sum(sv**2)) <= 1e-10 * frob**2


# (ensemble, size, draws): the four experiment ensembles at experiment sizes
ENGINE_DRAWS = (
    ("unit_lower_gaussian", 8, 200),
    ("lower_gaussian", 5, 200),
    ("lower_gaussian", 10, 200),
    ("lower_gaussian", 20, 200),
    ("ql_pushforward", 32, 40),
    ("ql_pushforward", 64, 10),
)


def _assert_values_close(values, reference, n):
    # |d sigma_i| <= 1e-10 sigma_i + n eps sigma_max; at sigma_min this is
    # |d sigma_min| / sigma_min <= 1e-10 + n eps kappa_2.  A flat 1e-10 cannot
    # hold: LAPACK's absolute error is about n eps sigma_max, and lower
    # triangular Gaussians at n = 20 reach kappa_2 of 1e16 and beyond.
    gate = 1e-10 * reference + n * np.finfo(float).eps * reference[:, :1]
    assert np.all(np.abs(values - reference) <= gate)


def test_lapack_values_agree_with_jacobi_reference():
    for si, (ensemble, n, draws) in enumerate(ENGINE_DRAWS):
        keys = rng.substream(108, si, np.arange(draws))
        stack = randomlab._sample_batch(ensemble, n, keys)
        values = linalg._jacobi(stack, want_vectors=False)[0]
        jacobi = jacobi_reference.jacobi(stack)[0]
        _assert_values_close(values, jacobi, n)
        _assert_values_close(jacobi, np.linalg.svd(stack, compute_uv=False), n)


def test_kappa_of_scaled_matrix_stays_finite():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    exact = (3.0 + np.sqrt(5.0)) / 2.0
    for c in (1e160, 1e-160, 1e170, 1e-170):
        assert abs(kappa(a * c, 2, 2) - exact) <= 1e-14 * exact


def test_kappa_bitwise_invariant_under_power_of_two_scaling():
    for a in (np.array([[3.0, 1.0], [1.0, 2.0]]),
              np.random.default_rng(560).standard_normal((64, 64))):
        reference = kappa(a, 2, 2)
        for k in (-900, -560, 560, 900):
            assert kappa(np.ldexp(a, k), 2, 2) == reference


def test_wide_matrix_singular_values():
    a = gaussian(109, 0, shape=(3, 7))
    sv = linalg.singular_values(a)
    assert sv.shape == (3,)
    assert np.all(np.diff(sv) <= 0)
    assert np.all(sv >= 0)


def _attainer_corpus():
    """Square, tall and wide matrices, rank-deficient ones and zeros."""
    for t in range(10):
        yield gaussian(110, t, shape=(5, 5))
    for shape in ((1, 1), (1, 6), (6, 1), (9, 4), (4, 9), (12, 3), (3, 12), (16, 16)):
        n, m = shape
        yield gaussian(111, n, m, shape=shape)
        yield gaussian(112, n, m, 0, shape=(n, 2)) @ gaussian(112, n, m, 1, shape=(2, m))
        yield np.outer(gaussian(113, n, m, 0, shape=(n,)), gaussian(113, n, m, 1, shape=(m,)))
        yield np.zeros(shape)
    yield np.eye(4)


def test_spectral_attainer_contract():
    # LAPACK's sigma_max and vector against the one-sided Jacobi reference
    for a in _attainer_corpus():
        sigma, vec = linalg.spectral_norm_attainer(a)
        assert vec.shape == (a.shape[1],)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-14
        reference = jacobi_reference.sigma_max(a)
        if reference == 0.0:
            assert sigma == 0.0 and np.array_equal(vec, np.eye(a.shape[1])[0])
        else:
            assert abs(sigma - reference) <= 1e-14 * reference
            assert abs(np.linalg.norm(a @ vec) / reference - 1.0) <= 1e-14
            assert vec[np.argmax(np.abs(vec))] > 0.0
        for k in (-900, -300, 300, 900):  # exact scalings move sigma exactly
            scaled_sigma, scaled_vec = linalg.spectral_norm_attainer(np.ldexp(a, k))
            assert scaled_sigma == np.ldexp(sigma, k)
            assert np.array_equal(scaled_vec, vec)
