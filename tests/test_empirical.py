import functools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlab import conditioning, empirical as emp
from condlab import linalg, norms, rng
from condlab.errors import (
    DeltaTooLarge,
    DimensionTooLarge,
    SingularMatrix,
    ZeroComponent,
    ZeroVector,
)

from conftest import clear_memos, conditioned, gaussian


def test_relerror_examples():
    assert emp.relerror([1.1, 0.0], [1.0, 0.0], emp.normwise(2)) == pytest.approx(0.1, rel=1e-12)
    assert emp.relerror([1.1, 2.2], [1.0, 2.0], emp.componentwise_max) == pytest.approx(0.1, rel=1e-12)
    assert emp.relerror([1.1, 2.2], [1.0, 2.0], emp.componentwise_sum) == pytest.approx(0.2, rel=1e-12)


def test_relerror_errors():
    with pytest.raises(ZeroComponent):
        emp.relerror([1.0, 1.0], [1.0, 0.0], emp.componentwise_max)
    with pytest.raises(ZeroVector):
        emp.relerror([1.0], [0.0], emp.normwise(2))


@pytest.mark.parametrize("kind", ["matvec", "solve_fixed_a", "solve_fixed_b", "solve_both"])
def test_estimate_rejects_a_vector_that_does_not_match_the_matrix(kind):
    a = np.eye(4) + 0.25
    config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=5, seed=1)
    with pytest.raises(ValueError, match="length 4 for a matrix with 4 columns, got length 2"):
        emp.estimate_condition(kind, a, np.ones(2), config=config)
    with pytest.raises(ValueError, match="1-d vector"):
        emp.estimate_condition(kind, a, np.ones((1, 4)), config=config)


def test_relerror_matrix_normwise_uses_operator_norm():
    a = np.eye(2)
    at = a + np.array([[0.0, 0.1], [0.0, 0.0]])
    assert emp.relerror(at, a, emp.normwise(2, 2)) == pytest.approx(0.1, rel=1e-12)


@given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=5),
       st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=100)
def test_relerror_componentwise_scale_invariance(xs, eps):
    # eps floor keeps the x*(1+eps) - x cancellation noise below the tolerance
    x = np.asarray(xs)
    xt = x * (1.0 + eps)
    assert emp.relerror(xt, x, emp.componentwise_max) == pytest.approx(eps, rel=1e-9)
    assert emp.relerror(xt, x, emp.componentwise_sum) == pytest.approx(
        eps * len(xs), rel=1e-9)


def test_worst_inversion_perturbation_diag_by_hand():
    d = np.diag([1.0, 2.0])
    e = emp.worst_inversion_perturbation(d, 2, 2, 1e-3)
    assert np.allclose(e, 1e-3 * np.outer([1.0, 0.0], [1.0, 0.0]), atol=1e-18)
    assert norms.operator_norm(e, 2, 2).value == pytest.approx(1e-3, rel=1e-12)


def test_worst_inversion_ratio_converges_to_kappa():
    d = np.diag([1.0, 2.0])
    delta = 1e-7
    e = emp.worst_inversion_perturbation(d, 2, 2, delta)
    num = emp.relerror(linalg.invert(d - e), linalg.invert(d), emp.normwise(2, 2))
    den = emp.relerror(d - e, d, emp.normwise(2, 2))
    assert num / den == pytest.approx(2.0, rel=1e-4)


def test_worst_inversion_identity_ratio_one():
    delta = 1e-6
    e = emp.worst_inversion_perturbation(np.eye(3), 2, 2, delta)
    num = emp.relerror(linalg.invert(np.eye(3) - e), np.eye(3), emp.normwise(2, 2))
    den = emp.relerror(np.eye(3) - e, np.eye(3), emp.normwise(2, 2))
    assert num / den == pytest.approx(1.0, rel=1e-5)


def test_worst_inversion_delta_too_large():
    with pytest.raises(DeltaTooLarge):
        emp.worst_inversion_perturbation(np.diag([1.0, 2.0]), 2, 2, 1.0)


def test_estimate_inversion_diag():
    rep = emp.estimate_condition(
        "inversion", np.diag([1.0, 2.0]), r=2, s=2, config=emp.EstimatorConfig(seed=5)
    )
    assert rep.closed_form == pytest.approx(2.0, rel=1e-14)
    assert rep.estimate == pytest.approx(2.0, rel=0.05)
    assert rep.per_delta[-1].directional_ratio == pytest.approx(2.0, rel=1e-4)
    assert rep.first_order_bound_check is True


def test_estimate_matvec_identity():
    rep = emp.estimate_condition(
        "matvec", np.eye(2), np.array([1.0, 1.0]), 2, 2, config=emp.EstimatorConfig(seed=6)
    )
    assert rep.estimate == pytest.approx(1.0, rel=0.05)


def test_estimate_solve_both_identity():
    rep = emp.estimate_condition(
        "solve_both", np.eye(2), np.array([1.0, 0.0]), 2, 2,
        config=emp.EstimatorConfig(seed=7),
    )
    assert rep.closed_form == pytest.approx(2.0, rel=1e-12)
    assert rep.estimate == pytest.approx(2.0, rel=0.10)


def test_estimator_first_order_slack_invariant():
    a = gaussian(401, 0, shape=(4, 4))
    rep = emp.estimate_condition("inversion", a, r=2, s=2, config=emp.EstimatorConfig(seed=8))
    for ds in rep.per_delta:
        assert ds.sampled_sup_ratio <= rep.closed_form * (1.0 + 100.0 * ds.delta)


def test_estimator_directional_linear_convergence():
    # deviation from kappa shrinks linearly in delta; the constant is the
    # squared kappa scale of the instance
    a = gaussian(402, 0, shape=(4, 4))
    rep = emp.estimate_condition("inversion", a, r=2, s=2, config=emp.EstimatorConfig(seed=9))
    kap = rep.closed_form
    empirical_c = 0.0
    for ds in rep.per_delta:
        dev = abs(ds.directional_ratio - kap)
        empirical_c = max(empirical_c, dev / ds.delta)
        assert dev <= 1.5 * kap * kap * ds.delta + 1e-9 * kap
    print(f"\n  directional convergence constant C ~ {empirical_c:.3g} "
          f"(kappa^2 = {kap * kap:.3g})")


def test_estimator_monotone_in_samples():
    a = gaussian(403, 0, shape=(3, 3))
    small = emp.estimate_condition(
        "inversion", a, r=2, s=2,
        config=emp.EstimatorConfig(samples_per_delta=200, seed=10),
    )
    large = emp.estimate_condition(
        "inversion", a, r=2, s=2,
        config=emp.EstimatorConfig(samples_per_delta=400, seed=10),
    )
    for lo, hi in zip(small.per_delta, large.per_delta):
        assert hi.sampled_sup_ratio >= lo.sampled_sup_ratio  # sup over a superset
    assert large.estimate >= small.estimate


def test_estimator_solve_both_within_sandwich():
    for t in range(5):
        n = 3 + t
        a = gaussian(404, t, 0, shape=(n, n))
        b = gaussian(404, t, 1, shape=(n,))
        kap = conditioning.kappa(a, 2, 2)
        rep = emp.estimate_condition(
            "solve_both", a, b, 2, 2,
            config=emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=300, seed=t),
        )
        assert kap * 0.9 <= rep.estimate <= 2.0 * kap * 1.1


def test_estimator_deterministic_for_fixed_seed():
    a = gaussian(405, 0, shape=(3, 3))
    cfg = emp.EstimatorConfig(samples_per_delta=100, seed=123)
    # clear the memos so that both runs factor A and draw their directions afresh
    clear_memos()
    rep1 = emp.estimate_condition("inversion", a, r=2, s=2, config=cfg)
    clear_memos()
    rep2 = emp.estimate_condition("inversion", a, r=2, s=2, config=cfg)
    assert rep1 == rep2


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        emp.EstimatorConfig(deltas=(1e-5, 1e-4))
    with pytest.raises(ValueError):
        emp.EstimatorConfig(deltas=())
    with pytest.raises(ValueError):
        emp.EstimatorConfig(samples_per_delta=0)
    with pytest.raises(TypeError):  # no resampling, so no cap on it
        emp.EstimatorConfig(max_attempts=10)


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_estimator_config_rejects_non_finite_deltas(delta):
    # NaN fails both "<= 0" and "a <= b", so it used to pass the schedule
    # check and end in a NaN estimate for matvec and solve_fixed_a
    for deltas in ((float(delta),), (1e-4, float(delta)), (float(delta), 1e-4)):
        with pytest.raises(ValueError, match=f"^every delta must be finite, got {delta}$"):
            emp.EstimatorConfig(deltas=deltas)


@pytest.mark.parametrize("field,value", [
    ("deltas", 1e-4), ("deltas", None), ("deltas", "1e-4"),
    ("samples_per_delta", 2.5), ("samples_per_delta", -3),
    ("samples_per_delta", "10"), ("samples_per_delta", True),
    ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", None), ("seed", 2.0),
])
def test_estimator_config_rejects_bad_counts(field, value):
    # a lone delta or None used to raise TypeError and a string to be read
    # character by character, a fractional sample count ended in a
    # TypeError inside rng.substream, and a seed of 1.5 drew seed 1
    with pytest.raises(ValueError, match=field):
        emp.EstimatorConfig(**{field: value})


def test_estimator_config_accepts_whole_counts():
    for seed in (-1, 2**64 + 5, np.int64(7), np.uint64(2**63)):  # wrapped mod 2^64
        assert emp.EstimatorConfig(seed=seed).seed == seed
    cfg = emp.EstimatorConfig(samples_per_delta=np.int64(5))
    rep = emp.estimate_condition("inversion", np.eye(3) + 0.1, config=cfg)
    assert rep.estimate == pytest.approx(rep.closed_form, rel=0.05)


def test_estimate_other_kinds_hit_closed_forms():
    a = gaussian(406, 0, shape=(4, 4))
    b = gaussian(406, 1, shape=(4,))
    cfg = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=200, seed=11)
    for kind in ("matvec", "solve_fixed_a", "solve_fixed_b"):
        rep = emp.estimate_condition(kind, a, b, 2, 2, config=cfg)
        assert rep.estimate == pytest.approx(rep.closed_form, rel=0.05)


def test_estimate_matvec_rectangular():
    # matrix-vector multiplication is defined for rectangular A as well
    a = gaussian(409, 0, shape=(5, 3))
    x = gaussian(409, 1, shape=(3,))
    rep = emp.estimate_condition(
        "matvec", a, x, 2, 2,
        config=emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=200, seed=14),
    )
    assert rep.estimate == pytest.approx(rep.closed_form, rel=1e-6)


def test_estimate_inversion_enumeration_pair():
    # (inf, 1) norms have no closed form; the sampler and the directional
    # construction both go through exact sign-vector enumeration
    a = gaussian(408, 0, shape=(3, 3))
    from math import inf
    rep = emp.estimate_condition(
        "inversion", a, r=inf, s=1,
        config=emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=200, seed=13),
    )
    assert rep.estimate == pytest.approx(rep.closed_form, rel=0.05)
    assert rep.per_delta[-1].directional_ratio == pytest.approx(rep.closed_form, rel=1e-3)


def test_estimator_passes_max_enum_dim_to_relerror():
    # the (inf,1) output error of a 21x21 inverse needs 2^21 sign vectors,
    # one past the default cap, so the caller's cap has to reach relerror
    from math import inf
    a = gaussian(409, 0, shape=(21, 21)) + 8.0 * np.eye(21)
    rep = emp.estimate_condition(
        "inversion", a, None, 1, inf,
        config=emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=2), max_enum_dim=21,
    )
    assert rep.estimate == pytest.approx(rep.closed_form, rel=1e-3)
    with pytest.raises(DimensionTooLarge):
        emp.relerror(2.0 * a, a, emp.normwise(inf, 1))
    assert emp.relerror(2.0 * a, a, emp.normwise(inf, 1), max_enum_dim=21) == 1.0


def test_estimate_componentwise_sum_input_exposed():
    # the sum form is exposed for the mixed estimator even though acceptance
    # uses the max form
    a = gaussian(407, 0, shape=(3, 3))
    b = gaussian(407, 1, shape=(3,))
    rep = emp.estimate_condition(
        "solve_both", a, b, 2, 2, input_model=emp.componentwise_sum,
        config=emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=100, seed=12),
    )
    assert rep.estimate > 0.0


def test_one_spectral_attainer_per_estimate(monkeypatch):
    # the worst direction does not depend on delta, so it is built once per
    # estimate, not once for each of the four default deltas
    calls = []
    attainer = norms.spectral_norm_attainer

    def spy(a):
        calls.append(a.shape)
        return attainer(a)

    monkeypatch.setattr(norms, "spectral_norm_attainer", spy)
    a = gaussian(410, 0, shape=(4, 4))
    b = gaussian(410, 1, shape=(4,))
    config = emp.EstimatorConfig(samples_per_delta=20, seed=15)
    assert len(config.deltas) == 4
    for kind in conditioning.PROBLEM_KINDS:
        calls.clear()
        clear_memos()  # the operand memo shares the attainer across estimates
        emp.estimate_condition(kind, a, None if kind == "inversion" else b, 2, 2, config=config)
        assert len(calls) == 1, kind


@pytest.mark.parametrize("kind", conditioning.PROBLEM_KINDS)
def test_first_delta_matches_a_one_delta_schedule(kind):
    from math import inf
    a = gaussian(411, 0, shape=(4, 4))
    b = None if kind == "inversion" else gaussian(411, 1, shape=(4,))
    for r, s in ((2, 2), (inf, 1)):
        one, two = (
            emp.estimate_condition(
                kind, a, b, r, s,
                config=emp.EstimatorConfig(deltas=deltas, samples_per_delta=100, seed=16),
            )
            for deltas in ((1e-4,), (1e-4, 1e-6))
        )
        assert two.per_delta[0] == one.per_delta[0]


@pytest.mark.parametrize("kind", ("inversion", "solve_fixed_b", "solve_both"))
def test_a_singular_sample_raises_delta_too_large(kind):
    # delta kappa_2 = 3.3 for diag(1, 3e-13) at delta = 1e-12: the sphere
    # reaches the singular set and the supremum there is infinite.  The
    # worst direction's matrix is not singular, but some samples' are, and
    # they raise at that delta, in a one-delta schedule as in a longer one
    a = np.diag([1.0, 3e-13])
    b = None if kind == "inversion" else np.array([1.0, -1.0])
    model = emp._default_models(kind, 2.0, 2.0)[0]
    inst = emp._Instance(kind, emp._operand(a, 20), b, 2.0, 2.0)
    assert not linalg._lu_raw((a + emp._worst_row(inst, model)(1e-12)[0])[None])[2].any()
    for deltas in ((1e-12,), (1e-12, 1e-14)):
        config = emp.EstimatorConfig(deltas=deltas, samples_per_delta=200, seed=3)
        with pytest.raises(DeltaTooLarge, match=r"^A - E is singular at delta=1e-12$"):
            emp.estimate_condition(kind, a, b, 2, 2, config=config)


def test_matvec_samples_share_their_directions_across_deltas():
    # matvec is linear: on the same directions the sampled sup ratio cannot
    # depend on delta beyond the rounding of x + dx (eps / delta relative)
    a = gaussian(412, 0, shape=(4, 4))
    x = gaussian(412, 1, shape=(4,))
    rep = emp.estimate_condition(
        "matvec", a, x, 2, 2,
        config=emp.EstimatorConfig(deltas=(1e-1, 1e-2, 1e-3), samples_per_delta=200, seed=17),
    )
    ratios = [d.sampled_sup_ratio for d in rep.per_delta]
    assert max(abs(t - ratios[0]) for t in ratios) <= 1e-12 * ratios[0]


@pytest.mark.parametrize("r,s", [(1, 1), ("inf", 1)])
def test_solve_both_samples_on_the_rs_and_s_spheres(monkeypatch, r, s):
    # under the blockwise-max model every sample has ||dA||_rs = delta ||A||_rs
    # and ||db||_s = delta ||b||_s; the perturbations are read where they are
    # drawn, at each radius the sphere functions are asked for (the screen
    # asks for delta = 1 first), and those of delta are kept
    a = gaussian(413, 0, shape=(4, 4)) + 4.0 * np.eye(4)
    b = gaussian(413, 1, shape=(4,))
    delta = 1e-2
    seen = {}

    def spy(name, directions):
        sphere = getattr(emp, name)

        def kept(deltas, stacks):
            for radius, d in zip(deltas, stacks):
                seen.setdefault(name, {})[radius] = d[:]
                yield d

        def drawn(base, deltas, keys, model):
            out = sphere(base, deltas, keys, model)
            return (out[0], kept(deltas, out[1])) if directions else kept(deltas, out)

        monkeypatch.setattr(emp, name, drawn)

    spy("_sphere_matrices", directions=True)
    spy("_sphere_vectors", directions=False)
    emp.estimate_condition(
        "solve_both", a, b, r, s,
        config=emp.EstimatorConfig(deltas=(delta,), samples_per_delta=50, seed=18),
    )
    da, db = seen["_sphere_matrices"][delta], seen["_sphere_vectors"][delta]
    assert len(da) == len(db) == 50
    want_a = delta * norms.operator_norm_values(a, r, s)
    # the instance keeps b times 2^-e, which brings max|b_i| into [1/2, 1)
    want_b = delta * norms.vector_norm(conditioning._unit_scaled(b), s)
    assert np.max(np.abs(norms.operator_norm_values(da, r, s) / want_a - 1.0)) <= 1e-12
    assert np.max(np.abs(norms.vector_norm(db, s) / want_b - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind", conditioning.PROBLEM_KINDS)
def test_one_factorization_of_a_per_estimate(monkeypatch, kind):
    # the instance owns A's LU factors, A^-1 and ||A||_rs; the closed form
    # and the worst direction read them instead of inverting A again
    a = gaussian(414, 0, shape=(4, 4))
    b = None if kind == "inversion" else gaussian(414, 1, shape=(4,))
    factored, inverted = [], []
    lu_raw, invert = linalg._lu_raw, linalg.invert

    def spy_lu(m):
        factored.append(np.array_equal(m, a))
        return lu_raw(m)

    def spy_invert(m, *args, **kwargs):
        inverted.append(np.array_equal(m, a))
        return invert(m, *args, **kwargs)

    for owner in (linalg, emp):
        monkeypatch.setattr(owner, "_lu_raw", spy_lu)
    for owner in (conditioning, emp):
        monkeypatch.setattr(owner, "invert", spy_invert)
    config = emp.EstimatorConfig(deltas=(1e-4, 1e-6), samples_per_delta=20, seed=19)
    for r, s in ((2, 2), ("inf", 1)):
        factored.clear()
        inverted.clear()
        clear_memos()  # the operand memo shares the factors across estimates
        emp.estimate_condition(kind, a, b, r, s, config=config)
        assert sum(factored) == 1, (kind, r, s)
        assert not any(inverted), (kind, r, s)


@pytest.mark.parametrize("kind", conditioning.PROBLEM_KINDS)
def test_one_enumeration_of_the_inverse_per_estimate(monkeypatch, kind):
    # at (1, inf) ||A^-1||_{inf,1} is enumerated; the closed form, the worst
    # direction and the reference norm of the inverse share that one search
    a = gaussian(415, 0, shape=(7, 7))
    b = None if kind == "inversion" else gaussian(415, 1, shape=(7,))
    inverse = linalg.invert(a)
    scaled = np.ldexp(inverse, -np.frexp(np.max(np.abs(inverse)))[1])
    searched = []
    best_signs = norms._best_signs

    def spy(t, s):
        searched.extend(np.array_equal(m, scaled) for m in t)
        return best_signs(t, s)

    monkeypatch.setattr(norms, "_best_signs", spy)
    config = emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=21)
    emp.estimate_condition(kind, a, b, 1, "inf", config=config)
    assert sum(searched) == 1


@pytest.mark.parametrize("kind", conditioning.PROBLEM_KINDS)
def test_one_value_only_svd_of_the_inverse_per_estimate(monkeypatch, kind):
    # at (2,2) the closed form, and for inversion both reference norms of the
    # exact inverse, read one memoized value of ||A^-1||_22
    a = gaussian(416, 0, shape=(4, 4))
    b = None if kind == "inversion" else gaussian(416, 1, shape=(4,))
    inverse = linalg.invert(a)
    value_only = []
    jacobi = linalg._jacobi

    def spy(m, want_vectors):
        if not want_vectors:
            value_only.append(np.array_equal(m, inverse))
        return jacobi(m, want_vectors)

    monkeypatch.setattr(linalg, "_jacobi", spy)
    config = emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=22)
    emp.estimate_condition(kind, a, b, 2, 2, config=config)
    assert sum(value_only) == 1


@pytest.mark.parametrize("r,s", norms.ENUMERATION_PAIRS)
def test_one_enumeration_of_a_per_matvec_estimate(monkeypatch, r, s):
    # the closed form's ||A||_rs and the attainer of matvec's worst direction
    # share one search of A's sign vectors
    a = gaussian(427, 0, shape=(6, 6))
    x = gaussian(427, 1, shape=(6,))
    t = a if r == np.inf else a.T
    scaled = np.ldexp(t, -np.frexp(np.max(np.abs(t)))[1])
    searched = []
    best_signs = norms._best_signs

    def spy(stack, p):
        searched.extend(np.array_equal(m, scaled) for m in stack)
        return best_signs(stack, p)

    monkeypatch.setattr(norms, "_best_signs", spy)
    config = emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=35)
    emp.estimate_condition("matvec", a, x, r, s, config=config)
    assert sum(searched) == 1


PAIRS = [(r, s) for r in (1, 2, "inf") for s in (1, 2, "inf")]


def _sweep(cases, config, cold):
    """One report per (kind, a, b, r, s, input model); with ``cold`` the
    memos are cleared before each estimate."""
    reports = []
    for kind, a, b, r, s, model in cases:
        if cold:
            clear_memos()
        reports.append(emp.estimate_condition(kind, a, b, r, s, input_model=model, config=config))
    return reports


def _sweep_cases(a, b, kinds=conditioning.PROBLEM_KINDS, pairs=PAIRS, model=None):
    return [(kind, a, None if kind == "inversion" else b, r, s, model)
            for kind in kinds for r, s in pairs]


def test_shared_directions_keep_every_report_bitwise():
    # a warm memo, swept in reverse, against a cold memo before each estimate;
    # the 3x3 instance draws from the same keys as the 4x4 one
    a = gaussian(417, 0, shape=(4, 4))
    b = gaussian(417, 1, shape=(4,))
    cases = (
        _sweep_cases(a, b)
        + _sweep_cases(a[:3, :3], b[:3], pairs=[(2, 2), ("inf", 2)])
        + _sweep_cases(a, b, kinds=("solve_both",), model=emp.componentwise_sum)
    )
    config = emp.EstimatorConfig(deltas=(1e-12, 1e-14), samples_per_delta=100, seed=23)
    cold = _sweep(cases, config, cold=True)
    # estimates refused at delta = 1e-12 on diag(1, 3e-13) leave the memos
    # with their draws and operand, and the warm sweep starts after them
    for kind in ("inversion", "solve_fixed_b", "solve_both"):
        with pytest.raises(DeltaTooLarge, match="singular at delta=1e-12"):
            b = None if kind == "inversion" else np.array([1.0, -1.0])
            emp.estimate_condition(kind, np.diag([1.0, 3e-13]), b, config=config)
    warm = _sweep(cases[::-1], config, cold=False)[::-1]
    assert warm == cold


def test_one_sweep_draws_three_times(monkeypatch):
    # the matrix block, the (seed, 0, k) vectors of matvec and solve_fixed_a,
    # and the right-hand-side block of solve_both
    a = gaussian(418, 0, shape=(4, 4))
    b = gaussian(418, 1, shape=(4,))
    drawn = []
    standard_normals = rng.standard_normals

    def spy(keys, count):
        drawn.append((keys.shape, count))
        return standard_normals(keys, count)

    monkeypatch.setattr(rng, "standard_normals", spy)
    emp._draws.cache_clear()
    _sweep(_sweep_cases(a, b), emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=50,
                                                   seed=24), cold=False)
    assert sorted(drawn) == [((50,), 4), ((50,), 4), ((50,), 16)]


def _kept_draws(monkeypatch, run):
    """The entries of the draw cache after ``run()``: every draw that
    ``run`` asked for, asked for again, each time a hit."""
    asked = {}
    draw = emp._draw

    def spy(keys, shape):
        asked[keys.tobytes(), keys.shape, shape] = keys, shape
        return draw(keys, shape)

    monkeypatch.setattr(emp, "_draw", spy)
    run()
    hits = emp._draws.cache_info().hits
    entries = [draw(keys, shape) for keys, shape in asked.values()]
    assert emp._draws.cache_info().hits == hits + len(entries)
    return entries


def test_memo_arrays_are_read_only(monkeypatch):
    a = gaussian(419, 0, shape=(4, 4))
    b = gaussian(419, 1, shape=(4,))
    emp._draws.cache_clear()
    kept = _kept_draws(monkeypatch, lambda: _sweep(
        _sweep_cases(a, b, pairs=[(2, 2), ("inf", 1)]),
        emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=20, seed=25), cold=False))
    assert emp._draws.cache_info().currsize == 3
    assert len(kept) == 3
    arrays = [x for g, gnorms in kept for x in (g, *gnorms.values())]
    assert len(arrays) > 3
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[...] = 0.0


def test_memo_keeps_one_copy_of_each_draw(monkeypatch):
    # a matrix draw is kept batch-last, and what derives from a draw holds
    # one value per matrix or vector, so the cache holds no second copy
    a = gaussian(421, 0, shape=(4, 4))
    b = gaussian(421, 1, shape=(4,))
    emp._draws.cache_clear()
    cases = _sweep_cases(a, b, pairs=[(2, 2), ("inf", 1)]) + _sweep_cases(
        a, b, kinds=("inversion",), pairs=[(2, 2)], model=emp.componentwise_max)
    config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=20, seed=27)
    kept = _kept_draws(monkeypatch, lambda: _sweep(cases, config, cold=False))
    matrices = [(g, derived) for g, derived in kept if g.ndim == 3]
    assert len(matrices) == 1
    assert any(emp.COMPONENTWISE_MAX in derived for _, derived in matrices)
    for g, derived in kept:
        if g.ndim == 3:
            assert np.moveaxis(g, 0, -1).flags.c_contiguous
        assert derived
        assert all(x.shape == g.shape[:1] for x in derived.values())


def test_memo_keeps_draws_within_its_value_budget(monkeypatch):
    # a sweep over n draws 20 n^2 + 2 * 20 n values, 1 480 over n = 3, 4, 5;
    # under a budget of 1 000 the cache stays within it, and keeps the
    # 5 x 5 sweep's three draws and the 4 x 4 right-hand sides
    budget = 1000
    monkeypatch.setattr(emp, "_DRAW_CACHE_VALUES", budget)
    config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=20, seed=26)
    for n in (3, 4, 5):
        a = gaussian(420, n, 0, shape=(n, n))
        b = gaussian(420, n, 1, shape=(n,))
        _sweep(_sweep_cases(a, b, pairs=[(2, 2)]), config, cold=False)
        assert emp._draws.cache_info().values <= budget
    info = emp._draws.cache_info()
    assert (info.currsize, info.values, info.misses) == (4, 80 + 500 + 100 + 100, 9)


@pytest.mark.parametrize("size,kept", [(1 << 10, True), ((1 << 10) + 1, False)])
def test_memo_does_not_keep_draws_past_its_size_cap(size, kept):
    # 2^10 keys of 2^10 values is the largest draw the cache keeps
    keys = rng.substream(27, np.arange(1 << 10))
    emp._draws.cache_clear()
    next(emp._sphere_vectors(np.ones(size), (1e-3,), keys, emp.normwise(2)))
    assert emp._draws.cache_info().currsize == kept


def test_requests_past_the_cap_evict_nothing():
    # a matrix or a draw past 2^20 values is built and returned, and the
    # entries kept before it stay kept
    small = gaussian(425, 0, shape=(3, 3))
    op = emp._operand(small, 12)
    assert emp._operand(np.zeros((1025, 1024)), 12).a.shape == (1025, 1024)
    assert emp._operand(small, 12) is op
    assert emp._operands.cache_info().currsize == 1
    kept = [emp._draw(rng.substream(29, i, np.arange(10)), (3,)) for i in range(4)]
    keys = rng.substream(29, np.arange(1 << 10))
    next(emp._sphere_vectors(np.ones((1 << 10) + 1), (1e-3,), keys, emp.normwise(2)))
    assert emp._draws.cache_info().currsize == 4
    for i, entry in enumerate(kept):
        assert emp._draw(rng.substream(29, i, np.arange(10)), (3,)) is entry


def test_draw_past_the_budget_evicts_the_least_recent(monkeypatch):
    # a draw that overflows the budget evicts the least recently used
    # entries until it fits, and never itself
    monkeypatch.setattr(emp, "_DRAW_CACHE_VALUES", 100)
    keys = [rng.substream(30, i, np.arange(10)) for i in range(4)]
    kept = [emp._draw(k, (3,)) for k in keys[:3]]  # 90 values
    assert emp._draw(keys[0], (3,)) is kept[0]  # now the most recent
    kept.append(emp._draw(keys[3], (3,)))  # 120 > 100 evicts the draw of keys[1]
    assert emp._draws.cache_info()[2:] == (3, 90)
    for i in (0, 2, 3):
        assert emp._draw(keys[i], (3,)) is kept[i]
    assert emp._draw(keys[1], (3,)) is not kept[1]  # drawn again, evicting keys[0]
    large = emp._draw(rng.substream(30, 9, np.arange(25)), (4,))  # 100 values
    assert emp._draws.cache_info()[2:] == (1, 100)
    assert emp._draw(rng.substream(30, 9, np.arange(25)), (4,)) is large


def test_warm_benchmark_sweep_draws_nothing():
    # the benchmark's shape: sizes 4, 7 and 10, every kind and pair, two
    # deltas of 1000 samples.  Its nine draws, 207 000 values, fit the
    # budget, so a second sweep takes every one of them from the cache
    config = emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=1000, seed=39)
    cases = [case for n in (4, 7, 10) for case in _sweep_cases(
        conditioned(432, n, 100.0), gaussian(432, n, shape=(n,)))]
    _sweep(cases, config, cold=False)
    cold = emp._draws.cache_info()
    assert (cold.misses, cold.currsize, cold.values) == (9, 9, 207_000)
    _sweep(cases, config, cold=False)
    assert emp._draws.cache_info().misses == cold.misses


def test_mixed_condition_loop_draws_once_per_size():
    # acceptance criterion 4's loop: solve_both on 20 matrices over the 7
    # sizes 2..8, one seed, 1000 samples.  Each size draws a matrix block
    # and a right-hand-side block once, 14 draws in all
    config = emp.EstimatorConfig(deltas=(1e-6,), seed=40)
    for t in range(20):
        n = 2 + t % 7
        a = conditioned(433, n, 10.0)
        emp.estimate_condition("solve_both", a, gaussian(433, t, shape=(n,)), config=config)
    assert emp._draws.cache_info().misses == 14


def test_memo_under_threads(monkeypatch):
    # threads that share the cache draw the same directions and leave it
    # within its budget, here four of the six draws of 30 values
    monkeypatch.setattr(emp, "_DRAW_CACHE_VALUES", 4 * 30)
    base = np.ones(3)
    all_keys = [rng.substream(28, i, np.arange(10)) for i in range(6)]
    want = [next(emp._sphere_vectors(base, (1.0,), k, emp.normwise(2))) for k in all_keys]
    emp._draws.cache_clear()
    errors = []

    def work(t):
        try:
            for j in range(200):
                i = (t + j) % len(all_keys)
                got = next(emp._sphere_vectors(base, (1.0,), all_keys[i], emp.normwise(2)))
                if not np.array_equal(got, want[i]):
                    errors.append(i)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    info = emp._draws.cache_info()
    assert info.currsize <= 4 and info.values == 30 * info.currsize


def test_singular_matrix_outcomes_per_kind():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    b = np.array([1.0, -1.0])
    config = emp.EstimatorConfig(deltas=(1e-4,), samples_per_delta=20, seed=20)
    for kind in ("inversion", "solve_fixed_a", "solve_fixed_b", "solve_both"):
        with pytest.raises(SingularMatrix):
            emp.estimate_condition(kind, a, None if kind == "inversion" else b, config=config)
    rep = emp.estimate_condition("matvec", a, b, config=config)
    assert rep.closed_form == conditioning.condition_closed_form("matvec", a, b).value
    assert np.isfinite(rep.estimate)


def test_sweep_factors_a_once_and_enumerates_each_inverse_norm_once(monkeypatch):
    # the operand memo keeps A's factors, A^-1 and their norms for all 45
    # estimates of one matrix: ||A^-1||_sr is enumerated at the three pairs
    # (s, r) = (inf,1), (inf,2) and (2,1), and at each only once
    a = gaussian(421, 0, shape=(5, 5))
    b = gaussian(421, 1, shape=(5,))
    scaled = np.ldexp(linalg.invert(a), -np.frexp(np.max(np.abs(linalg.invert(a))))[1])
    factored, searched = [], []
    lu_raw, best_signs = linalg._lu_raw, norms._best_signs

    def spy_lu(m):
        factored.append(np.array_equal(m, a))
        return lu_raw(m)

    def spy_search(t, s):
        for m in t:
            if np.array_equal(m, scaled):
                searched.append(("inverse", s))
            elif np.array_equal(m, scaled.T):
                searched.append(("transpose", s))
        return best_signs(t, s)

    for owner in (linalg, emp):
        monkeypatch.setattr(owner, "_lu_raw", spy_lu)
    monkeypatch.setattr(norms, "_best_signs", spy_search)
    _sweep(_sweep_cases(a, b),
           emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=29), cold=False)
    assert sum(factored) == 1
    assert sorted(searched) == [("inverse", 1.0), ("inverse", 2.0), ("transpose", 2.0)]


def test_sweep_takes_the_screen_terms_once(monkeypatch):
    # the screen's terms of A, A^-1 and A's factors live on the kept operand:
    # every kind and pair of one matrix reads them from one computation
    a = gaussian(421, 0, shape=(5, 5))
    b = gaussian(421, 1, shape=(5,))
    terms, taken = conditioning._Operand.screen_terms.func, []

    def spy(op):
        taken.append(op)
        return terms(op)

    screen_terms = functools.cached_property(spy)
    screen_terms.__set_name__(conditioning._Operand, "screen_terms")
    monkeypatch.setattr(conditioning._Operand, "screen_terms", screen_terms)
    _sweep(_sweep_cases(a, b),
           emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=29), cold=False)
    assert len(taken) == 1 and taken[0] is emp._operand(a, emp.DEFAULT_MAX_ENUM_DIM)


def test_sweep_builds_the_unscaled_terms_once(monkeypatch):
    # the screen's terms of the draw V_k (the sums of |V_k|, X^ V_k X^ and
    # X^ V_k x^) depend on A, b and the draw alone: the 27 screened estimates
    # of a 45-estimate sweep build each once and scale it by s_k
    a = gaussian(421, 0, shape=(5, 5))
    b = gaussian(421, 1, shape=(5,))
    term, built = emp._unscaled_term, []

    def spy(op, w_a, name, extra, build):
        def counted(v):
            built.append((name, op, w_a.tag))
            return build(v)

        return term(op, w_a, name, extra, counted)

    monkeypatch.setattr(emp, "_unscaled_term", spy)
    _sweep(_sweep_cases(a, b),
           emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=29), cold=False)
    assert sorted(name for name, *_ in built) == ["inverse image", "solution image", "sums"]
    op = emp._operand(a, emp.DEFAULT_MAX_ENUM_DIM)
    assert all(owner is op for _, owner, _ in built)
    assert len({tag for *_, tag in built}) == 1


def test_sweep_solves_once(monkeypatch):
    # A^-1 b is kept on the operand: the 27 estimates of a sweep that output
    # a solution share one solve of b, next to the solves of the perturbed b
    a = gaussian(421, 0, shape=(5, 5))
    b = gaussian(421, 1, shape=(5,))
    solve, single = conditioning._Operand.solve, []

    def spy(op, rhs):
        single.append(rhs.shape[1] == 1)
        return solve(op, rhs)

    monkeypatch.setattr(conditioning._Operand, "solve", spy)
    _sweep(_sweep_cases(a, b),
           emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=20, seed=29), cold=False)
    assert sum(single) == 1


@pytest.mark.parametrize("kind", ("matvec", "solve_fixed_a", "solve_fixed_b", "solve_both"))
def test_estimate_of_a_vector_near_dbl_max(kind):
    # A x overflowed for x = [1e308, 1e308], and ||b||_1 = 2e308 raised
    # ResultOverflow: the estimator takes the vector times 2^-1024, so the
    # report is that of [1e308, 1e308] 2^-1024, bit for bit, at every pair
    a = np.diag([1.0, 2.0])
    b = np.array([1e308, 1e308])
    config = emp.EstimatorConfig(deltas=(1e-5, 1e-6), samples_per_delta=50, seed=3)
    for r, s in PAIRS:
        want = emp.estimate_condition(kind, a, np.ldexp(b, -1024), r, s, config=config)
        assert emp.estimate_condition(kind, a, b, r, s, config=config) == want, (r, s)


def test_operand_memo_copies_a_and_keys_on_its_bytes():
    # changing the caller's A in place between two estimates gives the
    # report of a cleared cache, and the cache's arrays are read-only
    a = gaussian(422, 0, shape=(4, 4))
    b = gaussian(422, 1, shape=(4,))
    config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=20, seed=30)
    emp.estimate_condition("solve_both", a, b, "inf", 1, config=config)
    assert emp._operands.cache_info().currsize == 1
    hits = emp._operands.cache_info().hits
    op = emp._operand(a, emp.DEFAULT_MAX_ENUM_DIM)  # the kept operand
    assert emp._operands.cache_info().hits == hits + 1
    assert not np.shares_memory(op.a, a)
    for x in (op.a, op.inverse, *op.factors):
        assert not x.flags.writeable
    a[1, 2] += 0.5
    warm = emp.estimate_condition("solve_both", a, b, "inf", 1, config=config)
    clear_memos()
    assert warm == emp.estimate_condition("solve_both", a, b, "inf", 1, config=config)


def test_operand_memo_is_bounded():
    config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=10, seed=31)
    for n in (3, 4, 5):
        emp.estimate_condition("inversion", gaussian(423, n, shape=(n, n)), config=config)
        assert emp._operands.cache_info().currsize == 1
    # no operand of a matrix of more than 2^20 values is kept
    largest, larger = np.zeros((1024, 1024)), np.zeros((1025, 1024))
    assert emp._operand(largest, 12) is emp._operand(largest, 12)
    assert emp._operand(larger, 12) is not emp._operand(larger, 12)


def test_operand_memo_under_threads():
    # threads that share the cache get the reports of a cleared cache, and
    # leave it bounded
    config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=10, seed=32)
    cases = [(kind, gaussian(424, i, 0, shape=(3, 3)), gaussian(424, i, 1, shape=(3,)), r, s)
             for i, (kind, r, s) in enumerate([("inversion", 2, 2), ("solve_both", "inf", 1),
                                                ("matvec", 1, 2), ("solve_fixed_b", 2, "inf")])]

    def estimate(kind, a, b, r, s):
        return emp.estimate_condition(kind, a, None if kind == "inversion" else b, r, s,
                                      config=config)

    want = []
    for case in cases:
        clear_memos()
        want.append(estimate(*case))
    clear_memos()
    errors = []

    def work(t):
        try:
            for j in range(24):
                i = (t + j // 3) % len(cases)
                if estimate(*cases[i]) != want[i]:
                    errors.append(i)
                for k in range(200):  # lookups alone, to press on the cache
                    a = cases[(i + k) % len(cases)][1]
                    if not np.array_equal(emp._operand(a, 12).a, a):
                        errors.append(k)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert emp._operands.cache_info().currsize <= 1


def _unfolded_directional(kind, a, b, r, s, delta, input_model):
    """The worst direction's ratio at ``delta`` from one product, invert or
    solve, outside any stack: err(A (x + dx)) / delta for matvec,
    err(solve(A, b + db)) / delta for solve_fixed_a, err(invert(A - E)) /
    delta for inversion, and err(solve(A - E, b or b + db)) / delta for the
    other solve kinds."""
    r, s = norms.norm_index(r), norms.norm_index(s)
    if kind == "matvec":
        att = norms.operator_norm(a, r, s).attainer
        x_tilde = b + delta * norms.vector_norm(b, r) * att
        return emp.relerror(a @ x_tilde, a @ b, emp.normwise(s)) / delta
    size = delta * float(norms.operator_norm_values(a, r, s))
    if kind == "inversion":
        e = emp.worst_inversion_perturbation(a, r, s, size)
        return emp.relerror(linalg.invert(a - e), linalg.invert(a), emp.normwise(s, r)) / delta
    x = linalg.solve(a, b)
    _, y, _ = conditioning._extremal_pair(
        conditioning._Operand(a, norms.DEFAULT_MAX_ENUM_DIM), r, s)
    if kind == "solve_fixed_a":
        b_tilde = b + delta * norms.vector_norm(b, s) * y
        return emp.relerror(linalg.solve(a, b_tilde), x, emp.normwise(r)) / delta
    a_tilde = a - size * norms.rank_one_interpolator(x / norms.vector_norm(x, r), y, r, s)
    if kind == "solve_fixed_b":
        return emp.relerror(linalg.solve(a_tilde, b), x, emp.normwise(r)) / delta
    blocks = 2.0 if input_model == emp.componentwise_sum else 1.0
    b_tilde = b + delta * norms.vector_norm(b, s) * y
    return emp.relerror(linalg.solve(a_tilde, b_tilde), x, emp.normwise(r)) / (blocks * delta)


@pytest.mark.parametrize("output_model", [None, emp.componentwise_max])
def test_folded_worst_direction_keeps_its_bits(output_model):
    # the worst direction rides the samples' stack; its ratio is the one of
    # the unfolded oracle, bit for bit, for every pair, for the blockwise
    # sum, and under an output model that is not the directional one.
    # matvec's worst row is a row of one GEMM, whose last bits may differ
    # from the matrix-vector product A (x + dx) alone: each computes every
    # entry within n eps |A| |x + dx|, so the ratios differ by a few
    # n eps / delta relative, the output error being delta ||A|| ||x||
    n = 4
    a = gaussian(425, 0, shape=(n, n))
    b = gaussian(425, 1, shape=(n,))
    config = emp.EstimatorConfig(deltas=(1e-5, 1e-7), samples_per_delta=20, seed=33)
    eps = np.finfo(np.float64).eps
    cases = (_sweep_cases(a, b)
             + _sweep_cases(a, b, kinds=("solve_both",), model=emp.componentwise_sum))
    for kind, a_, b_, r, s, model in cases:
        rep = emp.estimate_condition(kind, a_, b_, r, s, input_model=model,
                                     output_model=output_model, config=config)
        for d in rep.per_delta:
            want = _unfolded_directional(kind, a, b, r, s, d.delta, model)
            if kind == "matvec":
                want = pytest.approx(want, rel=4 * n * eps / d.delta)
            assert d.directional_ratio == want, (kind, r, s, model, d.delta)


def _every_member(inst, w_a, w_b, model):
    """:func:`empirical._supremum_bounds` with every sample's bound U_k at
    +inf: each delta factors all of its samples, as before the screen."""
    return lambda delta: np.full(len(w_a.scale), np.inf)


def test_one_perturbed_stack_per_delta(monkeypatch):
    # with every sample a candidate, every kind evaluates each delta's
    # samples and worst direction as one stack of samples + 1 members.
    # With the screen, matvec and solve_fixed_a keep that; a kind that
    # perturbs A evaluates every delta's first segment in one stack, each
    # segment of at least 2 members that ends with the worst row, then at
    # most one stack of the candidates left, and no sample twice
    calls = []
    perturbed_outputs = emp._perturbed_outputs

    def spy(inst, a_tilde, b_tilde, deltas):
        calls.append((deltas, a_tilde))
        return perturbed_outputs(inst, a_tilde, b_tilde, deltas)

    monkeypatch.setattr(emp, "_perturbed_outputs", spy)
    a = gaussian(427, 0, shape=(4, 4))
    b = gaussian(427, 1, shape=(4,))
    deltas = (1e-5, 1e-6, 1e-7)
    config = emp.EstimatorConfig(deltas=deltas, samples_per_delta=30, seed=35)
    for kind in conditioning.PROBLEM_KINDS:
        calls.clear()
        vec = None if kind == "inversion" else b
        rep = emp.estimate_condition(kind, a, vec, config=config)
        assert [d.resampled for d in rep.per_delta] == [0, 0, 0]
        for at, _ in calls:  # every stack keeps the schedule's order
            assert list(at) == sorted(at, reverse=True), kind
        if not conditioning.KINDS[kind].perturbs_a:
            assert [(set(at), len(at)) for at, _ in calls] == [({d}, 31) for d in deltas], kind
            continue
        assert 1 <= len(calls) <= 2, (kind, [len(at) for at, _ in calls])
        (at, first), *second = calls
        inst = emp._Instance(kind, emp._operand(a, norms.DEFAULT_MAX_ENUM_DIM), vec, 2, 2)
        worst = emp._worst_row(inst, emp._default_models(kind, 2, 2)[0])
        assert set(at) == set(deltas)
        for d in deltas:
            segment = first[at == d]
            assert len(segment) >= 2 and np.array_equal(segment[-1], a + worst(d)[0]), (kind, d)
            rest = [m[at2 == d] for at2, m in second]
            samples = np.concatenate([segment[:-1], *rest]).reshape(-1, 16)
            assert len(np.unique(samples, axis=0)) == len(samples) <= 30
    with monkeypatch.context() as m:
        m.setattr(emp, "_supremum_bounds", _every_member)
        for kind in conditioning.PROBLEM_KINDS:
            calls.clear()
            emp.estimate_condition(kind, a, None if kind == "inversion" else b, config=config)
            assert [(set(at), len(at)) for at, _ in calls] == [({d}, 31) for d in deltas], kind


def _count_factorizations(monkeypatch):
    """The sizes of the stacks that :func:`empirical._lu_raw` factors, as
    the estimator calls it."""
    factored = []
    lu_raw = emp._lu_raw

    def spy(m):
        factored.append(len(m))
        return lu_raw(m)

    monkeypatch.setattr(emp, "_lu_raw", spy)
    return factored


def test_one_lu_call_per_pass(monkeypatch):
    # a screened estimate factors every delta's first segment in one call,
    # and the second segments in at most one more; unscreened, under a
    # componentwise output model or with every sample a candidate, each
    # delta takes a call of its own
    factored = _count_factorizations(monkeypatch)
    a = gaussian(428, 0, shape=(6, 6))
    b = gaussian(428, 1, shape=(6,))
    deltas = (1e-4, 1e-5, 1e-6, 1e-7)
    config = emp.EstimatorConfig(deltas=deltas, samples_per_delta=200, seed=36)
    for kind in ("inversion", "solve_fixed_b", "solve_both"):
        vec = None if kind == "inversion" else b
        for r, s in PAIRS:
            factored.clear()
            emp.estimate_condition(kind, a, vec, r, s, config=config)
            assert len(factored) in (1, 2) and factored[0] >= 2 * len(deltas), (kind, r, s)
        factored.clear()
        emp.estimate_condition(kind, a, vec, output_model=emp.componentwise_max, config=config)
        assert factored == [201] * len(deltas), kind
        factored.clear()
        with monkeypatch.context() as m:
            m.setattr(emp, "_supremum_bounds", _every_member)
            emp.estimate_condition(kind, a, vec, config=config)
        assert factored == [201] * len(deltas), kind


@pytest.mark.parametrize("kind", ("inversion", "solve_fixed_b", "solve_both"))
def test_earliest_singular_delta_is_named(kind):
    # on diag(1, 3e-13) both deltas reach the singular set; one stack
    # factors both first segments, and the refusal names the first delta
    a = np.diag([1.0, 3e-13])
    b = None if kind == "inversion" else np.array([0.0, 1.0])
    for deltas in ((3.1e-13,), (3e-13,), (3.1e-13, 3e-13)):
        config = emp.EstimatorConfig(deltas=deltas, samples_per_delta=200, seed=3)
        with pytest.raises(DeltaTooLarge, match=f"^A - E is singular at delta={deltas[0]:g}$"):
            emp.estimate_condition(kind, a, b, config=config)


@pytest.mark.parametrize("kind", ("inversion", "solve_fixed_b", "solve_both"))
def test_singular_worst_direction_raises_delta_too_large(kind):
    # at delta = 1/kappa the worst direction reaches the singular set; the
    # random samples of that delta do not
    # for the solve kinds b = A v, v the last right singular vector of A, so
    # that A^-1 b is parallel to A^-1 y; the message names the delta of the
    # schedule, not delta ||A||_rs, also for ||A||_rs = 4
    config = emp.EstimatorConfig(samples_per_delta=50, seed=34)
    for scale in (1.0, 4.0):
        a = scale * conditioned(426, 5, 1e5)
        b = None if kind == "inversion" else a @ np.linalg.svd(a)[2][-1]
        with pytest.raises(DeltaTooLarge, match=r"^A - E is singular at delta=1e-05$"):
            emp.estimate_condition(kind, a, b, config=config)


@pytest.mark.parametrize("kind", ("inversion", "solve_fixed_b", "solve_both"))
def test_singular_samples_and_worst_row_raise_delta_too_large(kind):
    # at delta = 3e-13 both the worst direction of diag(1, 3e-13) and some
    # samples cross the singular set: the stack raises DeltaTooLarge at that
    # delta, never SingularMatrix, which is kept for a singular A
    a = np.diag([1.0, 3e-13])
    b = None if kind == "inversion" else np.array([0.0, 1.0])
    config = emp.EstimatorConfig(deltas=(3e-13,), samples_per_delta=200, seed=3)
    with pytest.raises(DeltaTooLarge, match=r"^A - E is singular at delta=3e-13$"):
        emp.estimate_condition(kind, a, b, config=config)


def test_screen_keeps_every_report_of_a_sweep(monkeypatch):
    # the benchmark's shape: one Gaussian matrix with kappa_2 below 1e3,
    # every kind and pair, two deltas of 1000 samples; against every
    # sample factored
    a = gaussian(431, 0, shape=(7, 7))
    assert np.linalg.cond(a) < 1e3
    b = gaussian(431, 1, shape=(7,))
    config = emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=1000, seed=38)
    cases = _sweep_cases(a, b)
    screened = _sweep(cases, config, cold=False)
    monkeypatch.setattr(emp, "_supremum_bounds", _every_member)
    assert _sweep(cases, config, cold=True) == screened


def test_worst_inversion_perturbation_rejects_non_finite_delta():
    # NaN passed "delta <= 0" and was blamed on the matrix entries
    for delta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^delta must be finite, got {delta}$"):
            emp.worst_inversion_perturbation(np.diag([1.0, 2.0]), 2, 2, delta)


# the first-order screen: U_k bounds every sample's computed output error,
# so factoring only the samples whose U_k reaches the largest value found
# keeps every report and every refusal

_FAMILIES = st.sampled_from(
    ("gaussian", "conditioned", "orthogonal", "diagonal", "edge", "pivot"))
# log10 kappa: whole values put 1 / kappa of "diagonal" on the schedule's
# deltas, where the worst direction reaches the singular set
_LOG_KAPPAS = st.one_of(st.integers(0, 8), st.floats(0.0, 8.0))
_DELTAS = st.sampled_from([10.0**-k for k in range(1, 16)] + [3e-13, 1e-12, 8e-15, 1e-16])
_INPUT_MODELS = st.sampled_from((None, "componentwise_max", "componentwise_sum", "normwise"))
_OUTPUT_MODELS = st.sampled_from((None, "componentwise_max", "normwise"))
_NORMS = st.sampled_from((1.0, 2.0, np.inf))
# A's second pivot, 1.2e-13, is just past the singularity tolerance 1e-13
_SMALL_PIVOT = np.array([[1.0, 1.0], [1.0, 1.0 + 1.2e-13]])


def _instance(family, n, log_kappa, scale, seed):
    """An n x n matrix of ``family`` scaled by 2^scale, and a vector."""
    if family == "gaussian":
        a = gaussian(seed, 0, shape=(n, n))
    elif family == "conditioned":
        a = conditioned(seed, n, 10.0 ** log_kappa)
    elif family == "orthogonal":  # every sample's ratio nearly ties at (2,2)
        a = conditioned(seed, n, 1.0)
    elif family == "diagonal":
        a = np.diag(np.logspace(0.0, -log_kappa, n))
    elif family == "edge":  # kappa_2 = 3.3e12: samples turn singular from delta = 1e-12 on
        a = np.diag(np.r_[np.ones(n - 1), 3e-13])
    else:  # a pivot of 1.2e-13, just past the tolerance: samples turn singular at 8e-15
        a = np.eye(n)
        a[:2, :2] = _SMALL_PIVOT[:n, :n]
    return np.ldexp(a, scale), gaussian(seed, 2, shape=(n,))


def _model(name, r, s):
    if name is None:
        return None
    return emp.normwise(r, s) if name == "normwise" else getattr(emp, name)


def _outcome(kind, a, b, r, s, input_model, output_model, config):
    """The report of an estimate, or its exception's type and message."""
    try:
        return emp.estimate_condition(kind, a, b, r, s, input_model=input_model,
                                      output_model=output_model, config=config)
    except Exception as exc:  # noqa: BLE001 - compared as outcomes
        return type(exc), str(exc)


@given(st.sampled_from(conditioning.PROBLEM_KINDS), st.integers(2, 8), _FAMILIES,
       _LOG_KAPPAS, st.sampled_from((0, 0, -40, 40, -300, 300, 700)),
       _NORMS, _NORMS, _INPUT_MODELS, _OUTPUT_MODELS, _NORMS, _NORMS,
       st.lists(_DELTAS, min_size=1, max_size=3, unique=True),
       st.integers(1, 120), st.integers(0, 2**16))
@settings(max_examples=250, deadline=None)
def test_screened_estimate_is_the_estimate_of_every_member(
        kind, n, family, log_kappa, scale, r, s, input_name, output_name, r2, s2, deltas,
        samples, seed):
    # the same report, or the same exception with the same message, as when
    # every sample's U_k is +inf and every sample is factored
    a, b = _instance(family, n, log_kappa, scale, seed)
    b = None if kind == "inversion" else b
    config = emp.EstimatorConfig(deltas=sorted(deltas, reverse=True), samples_per_delta=samples,
                                 seed=seed)
    args = (kind, a, b, r, s, _model(input_name, r2, s2), _model(output_name, r2, s2), config)
    screened = _outcome(*args)
    with mock.patch.object(emp, "_supremum_bounds", _every_member):
        assert _outcome(*args) == screened


def _screen(kind, a, b, r, s, input_model, output_model, config):
    """(the instance, its output model, U as a function of delta or None,
    the perturbations of each delta of ``config``), as the estimate builds
    them."""
    inst = emp._Instance(kind, emp._operand(a, norms.DEFAULT_MAX_ENUM_DIM), b, r, s)
    input_model = input_model or emp._default_models(kind, r, s)[0]
    output_model = output_model or emp._default_models(kind, r, s)[1]
    blocks = emp._input_blocks(inst, input_model)
    directions, samples = emp._perturbations(inst, blocks, (1.0,) + config.deltas,
                                             config.seed, config.samples_per_delta)
    bounds = emp._supremum_bounds(inst, directions, next(samples)[1], output_model)
    return inst, output_model, bounds, samples


def _bounds_and_errors(kind, a, b, r, s, input_model, output_model, config):
    """For each delta: (U, the computed output error of every sample on the
    full stack, the samples that _lu_raw flags singular)."""
    inst, output_model, bounds, samples = _screen(kind, a, b, r, s, input_model, output_model,
                                                  config)
    op = inst.op
    err = inst.output_error(output_model)
    for delta, (da, db) in zip(config.deltas, samples):
        a_tilde = emp._stack(op.a, [(slice(None), (da, None))], len(da))
        lu, perm, singular = linalg._lu_raw(a_tilde)
        if inst.row.output == "inverse":
            out = linalg._lu_solve_packed(lu, perm, np.broadcast_to(np.eye(len(a)), lu.shape))
        else:
            rhs = (np.broadcast_to(inst.vec, lu.shape[:-1]) if db is None
                   else emp._stack(inst.vec, [(slice(None), (db, None))], len(db)))
            out = linalg._lu_solve_packed(lu, perm, rhs[..., None])[..., 0]
        errors = np.full(len(out), np.nan)  # a singular sample's factors are garbage
        with np.errstate(all="ignore"):
            errors[~singular] = err(out[~singular])
            yield (None if bounds is None else bounds(delta)), errors, singular


@given(st.sampled_from(("inversion", "solve_fixed_b", "solve_both")), st.integers(1, 8),
       _FAMILIES, _LOG_KAPPAS, st.sampled_from((0, -40, 40, -200, 200)),
       _NORMS, _NORMS, st.sampled_from((None, "componentwise_max", "componentwise_sum")),
       st.sampled_from((None, "normwise")), _NORMS, _NORMS, _DELTAS, st.integers(0, 2**16))
@settings(max_examples=250, deadline=None)
def test_supremum_bound_is_never_below_a_computed_error(
        kind, n, family, log_kappa, scale, r, s, input_name, output_name, r2, s2, delta, seed):
    # on full stacks, including near-ties (orthogonal A at (2,2)), images
    # close to rank one (A^-1 with one dominant singular value, or n = 1),
    # errors made of rounding alone (delta near eps) and 2^k scalings:
    # where U_k is finite the sample is not flagged singular and its
    # computed error is at most U_k
    a, b = _instance(family, n, log_kappa, scale, seed)
    config = emp.EstimatorConfig(deltas=(delta,), samples_per_delta=200, seed=seed)
    args = (kind, a, b, r, s, _model(input_name, r2, s2), _model(output_name, r2, s2), config)
    try:
        (bound, errors, singular), = _bounds_and_errors(*args)
    except (SingularMatrix, ZeroComponent):
        return
    if bound is None:
        return
    finite = np.isfinite(bound)
    assert not (finite & singular).any()
    assert np.all(errors[finite] <= bound[finite]), np.max(errors[finite] / bound[finite])


_SCREENED_KINDS = ("inversion", "solve_fixed_b", "solve_both")


def _cold_bounds(args, deltas):
    """U at each of ``deltas`` for the screen of ``args``, or None."""
    bounds = _screen(*args)[2]
    return None if bounds is None else [bounds(delta) for delta in deltas]


@given(st.sampled_from(_SCREENED_KINDS), st.integers(1, 8), _FAMILIES, _LOG_KAPPAS,
       st.sampled_from((0, -40, 40, -300, 300)), _NORMS, _NORMS,
       st.sampled_from((None, "componentwise_max", "componentwise_sum", "normwise")),
       _NORMS, _NORMS, st.lists(_DELTAS, min_size=1, max_size=3, unique=True),
       st.integers(1, 60), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_kept_terms_give_the_cold_bounds(
        kind, n, family, log_kappa, scale, r, s, input_name, r2, s2, deltas, samples, seed):
    # U of one estimate, bit for bit, whether its operand starts empty or
    # keeps the terms of other estimates of A at another pair under every
    # input model: every screened kind with another vector, then inversion
    # with another seed, so that a term kept under too short a key shows
    a, b = _instance(family, n, log_kappa, scale, seed)
    config = emp.EstimatorConfig(deltas=(1.0,), samples_per_delta=samples, seed=seed)
    args = (kind, a, b, r, s, _model(input_name, r2, s2), None, config)
    try:
        cold = _cold_bounds(args, deltas)
    except (SingularMatrix, ZeroComponent):
        return
    clear_memos()
    warm_ups = [(warm_kind, b[::-1].copy(), seed) for warm_kind in _SCREENED_KINDS]
    for warm_kind, vector, other in warm_ups + [("inversion", None, seed + 1)]:
        for model in (None, emp.componentwise_max, emp.componentwise_sum):
            warm_config = emp.EstimatorConfig(deltas=(1.0,), samples_per_delta=samples,
                                              seed=other)
            try:
                _screen(warm_kind, a, vector, r2, s2, model, None, warm_config)
            except ZeroComponent:
                pass
    warm = _cold_bounds(args, deltas)
    if cold is None:
        assert warm is None
    else:
        assert all(np.array_equal(c, w) for c, w in zip(cold, warm))


@pytest.mark.parametrize("kind", ("inversion", "solve_fixed_b", "solve_both"))
def test_pivot_certificate_keeps_singular_samples_factored(kind):
    # A's second pivot, 1.2e-13, is just past the tolerance 1e-13, so at
    # delta = 8e-15 and 1e-14 some samples are singular within it although
    # their first-order terms stay small (phi_k <= 1/2 for some of them).
    # Without the pivot certificate they would get finite bounds and be
    # skipped; with it every one of them is factored, and the estimate
    # raises DeltaTooLarge as with every sample factored
    b = np.array([1.0, -1.0])
    for delta in (8e-15, 1e-14):
        for r, s in ((1, 1), (2, 2), (np.inf, np.inf)):
            config = emp.EstimatorConfig(deltas=(delta,), samples_per_delta=1000, seed=3)
            args = (kind, _SMALL_PIVOT, b, r, s, None, None, config)
            (bound, _, singular), = _bounds_and_errors(*args)
            assert singular.any() and not (np.isfinite(bound) & singular).any()
            screened = _outcome(*args)
            assert screened[0] is DeltaTooLarge, screened
            with mock.patch.object(emp, "_supremum_bounds", _every_member):
                assert _outcome(*args) == screened


@pytest.mark.parametrize("kind", ("inversion", "solve_fixed_b", "solve_both"))
def test_supremum_bound_of_a_rank_one_image_at_its_ties(kind):
    # A = I, where the first-order bound is the norm of the image: at n = 1
    # every image is a scalar, and at (1,1) and (inf,inf) the closed forms
    # are exact, so for inversion every sample's error ties with delta and
    # every bound sits within its margin of every error.  The bounds cover
    # the errors, and the worst-case margins leave only a small excess
    # wherever the error is not rounding alone
    for n, (r, s) in ((1, (2, 2)), (1, (1, np.inf)), (5, (1, 1)), (6, (np.inf, np.inf))):
        b = gaussian(436, n, shape=(n,))
        config = emp.EstimatorConfig(deltas=(1e-6,), samples_per_delta=300, seed=n)
        (bound, errors, singular), = _bounds_and_errors(
            kind, np.eye(n), b, r, s, None, None, config)
        assert np.isfinite(bound).all() and not singular.any()
        assert np.all(errors <= bound)
        large = errors > 1e-3 * errors.max()
        assert np.max(bound[large] / errors[large]) <= 1.01, (n, r, s)
        if kind == "inversion":
            assert np.max(errors) <= np.min(errors) * (1 + 1e-5), (n, r, s)


def test_screen_factors_few_samples_of_a_benchmark_sweep(monkeypatch):
    # the benchmark's shape: a 7 x 7 Gaussian matrix with kappa_2 below 1e3,
    # every kind and pair, two deltas of 1000 samples; at most 2% of the
    # samples of the kinds that perturb A are factored
    a = gaussian(431, 0, shape=(7, 7))
    b = gaussian(431, 1, shape=(7,))
    factored = []
    lu_raw = emp._lu_raw

    def spy(m):
        factored.append(len(m))
        return lu_raw(m)

    monkeypatch.setattr(emp, "_lu_raw", spy)
    config = emp.EstimatorConfig(deltas=(1e-6, 1e-7), samples_per_delta=1000, seed=38)
    _sweep(_sweep_cases(a, b), config, cold=False)
    stacks = 3 * len(PAIRS) * 2  # kinds that perturb A, pairs, deltas
    samples = sum(factored) - stacks  # each delta's first stack has the worst row
    assert 0 < samples <= 0.02 * 1000 * stacks, (samples, factored)
