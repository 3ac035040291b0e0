"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each (run with ``pytest -s`` to see the lines).

All instances are generated from fixed substreams of one module seed, so
the suite is bit-reproducible.
"""

import time
from contextlib import contextmanager
from math import inf, log

import numpy as np
import pytest

from condlab import (
    conditioning,
    empirical,
    linalg,
    matio,
    norms,
    randomlab,
    rng,
    triangular,
)
from condlab.cli import main

SEED = 20260809

CLOSED_FORM_PAIRS = [(1, 1), (2, 2), (inf, inf), (1, 2), (1, inf), (2, inf)]
ALL_PAIRS = [(r, s) for r in (1, 2, inf) for s in (1, 2, inf)]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num}: FAIL — {desc}")
        raise
    print(f"\nACCEPTANCE {num}: PASS — {desc}")


def seeded_matrix(*path, n):
    return rng.normal_matrix(rng.substream(SEED, *path), n, n)


def well_conditioned_6x6(count, kappa_cap=1e3):
    out = []
    attempt = 0
    while len(out) < count:
        a = seeded_matrix(1, attempt, n=6)
        attempt += 1
        if conditioning.kappa(a, 2, 2) <= kappa_cap:
            out.append(a)
    return out


def test_criterion_1_inversion_definitional_vs_closed_form():
    t0 = time.perf_counter()
    worst_dir = 0.0
    worst_est = 0.0
    with criterion(1, "directional ratio = kappa within 1e-4; sampling estimate within 5%"):
        for a in well_conditioned_6x6(20):
            anorm_inv = linalg.invert(a)
            for r, s in CLOSED_FORM_PAIRS:
                kap = conditioning.kappa(a, r, s)
                e = empirical.worst_inversion_perturbation(a, r, s, 1e-7)
                num = empirical.relerror(
                    linalg.invert(a - e), anorm_inv, empirical.normwise(s, r)
                )
                den = empirical.relerror(a - e, a, empirical.normwise(r, s))
                dev = abs(num / den - kap) / kap
                worst_dir = max(worst_dir, dev)
                assert dev <= 1e-4

                rep = empirical.estimate_condition(
                    "inversion", a, r=r, s=s,
                    config=empirical.EstimatorConfig(deltas=(1e-7,), seed=SEED),
                )
                est_dev = abs(rep.estimate - kap) / kap
                worst_est = max(worst_est, est_dev)
                assert est_dev <= 0.05
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
    print(f"  worst directional dev {worst_dir:.2e}, worst estimate dev "
          f"{worst_est:.2e}, {elapsed:.1f}s")


def test_criterion_2_nearest_singular_distance_both_halves():
    with criterion(2, "constructive nearest singular matrix and lower-bound half"):
        for t in range(15):
            n = 2 + t % 5
            a = seeded_matrix(2, t, n=n)
            sigma_max = linalg.singular_values(a)[0]
            for r, s in ALL_PAIRS:
                e = conditioning.nearest_singular_perturbation(a, r, s)
                dist = conditioning.distance_to_singularity(a, r, s)
                assert linalg.singular_values(a + e)[-1] <= 1e-8 * sigma_max
                enorm = norms.operator_norm(e, r, s).value
                assert abs(enorm - dist) <= 1e-10 * dist
        # no rank-deficient matrix comes closer than the distance
        a = seeded_matrix(2, 100, n=5)
        singulars = np.empty((200, 5, 5))
        for t in range(200):
            m = seeded_matrix(2, 200 + t, n=5)
            coeffs = rng.standard_normals(rng.substream(SEED, 2, 500 + t), 4)
            m[:, 0] = m[:, 1:] @ coeffs
            singulars[t] = m
        for r, s in ALL_PAIRS:
            dist = conditioning.distance_to_singularity(a, r, s)
            gaps = norms.operator_norm_values(a - singulars, r, s)
            assert np.all(gaps >= dist - 1e-10)


def test_criterion_3_kappa_distance_identity():
    worst = 0.0
    with criterion(3, "kappa * distance = ||A|| within 1e-12, 100 matrices x 9 pairs"):
        for t in range(100):
            n = 2 + t % 5
            a = seeded_matrix(3, t, n=n)
            for r, s in ALL_PAIRS:
                kap = conditioning.kappa(a, r, s)
                dist = conditioning.distance_to_singularity(a, r, s)
                anorm = norms.operator_norm(a, r, s).value
                rel = abs(kap * dist - anorm) / anorm
                worst = max(worst, rel)
                assert rel <= 1e-12
    print(f"  worst identity error {worst:.2e}")


def test_criterion_4_mixed_condition_and_estimator():
    with criterion(4, "M = kappa + term, sandwich within 1e-12; estimator within 10%"):
        for t in range(500):
            n = 2 + t % 7
            a = seeded_matrix(4, t, 0, n=n)
            b = rng.standard_normals(rng.substream(SEED, 4, t, 1), n)
            rep = conditioning.mixed_condition(a, b, 2, 2)
            assert rep.value == rep.kappa + rep.mixed_term  # exact by construction
            slack = 1e-12 * rep.kappa
            assert rep.kappa - slack <= rep.value <= 2.0 * rep.kappa + slack
        worst = 0.0
        for t in range(20):
            n = 2 + t % 7
            a = seeded_matrix(4, 1000 + t, 0, n=n)
            b = rng.standard_normals(rng.substream(SEED, 4, 1000 + t, 1), n)
            reference = conditioning.mixed_condition(a, b, 2, 2).value
            est = empirical.estimate_condition(
                "solve_both", a, b, 2, 2,
                config=empirical.EstimatorConfig(deltas=(1e-6,), seed=SEED),
            ).estimate
            dev = abs(est - reference) / reference
            worst = max(worst, dev)
            assert dev <= 0.10
    print(f"  worst estimator deviation {worst:.2%}")


def test_criterion_5_expected_inverse_frobenius():
    t0 = time.perf_counter()
    with criterion(5, "E||L^-1||_F^2 = 2^n - 1 and column sums 2^(n-k), within 4 SE"):
        config = randomlab.ExperimentConfig(
            "unit_lower_gaussian", sizes=tuple(range(2, 9)), trials=200_000, seed=SEED
        )
        summary = randomlab.run_experiment(config, "frob_inv_sq")
        assert summary.verdict == "matches"
        for stats in summary.per_size:
            assert abs(stats.mean - stats.prediction) <= 4.0 * stats.std_error
            means = np.asarray(stats.extra["column_means"])
            ses = np.asarray(stats.extra["column_std_errors"])
            preds = np.asarray(stats.extra["column_predictions"])
            assert np.all(np.abs(means - preds) <= 4.0 * ses)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
    zs = [abs(s.mean - s.prediction) / s.std_error for s in summary.per_size]
    print(f"  max |z| over sizes {max(zs):.2f}, {elapsed:.1f}s")


def test_criterion_6_kappa_squared_pointwise_bound():
    with criterion(6, "kappa^2 >= ||L^-1||_F^2 / n pointwise; claimed constant reported"):
        config = randomlab.ExperimentConfig(
            "unit_lower_gaussian", sizes=tuple(range(2, 9)), trials=2_000, seed=SEED
        )
        summary = randomlab.run_experiment(config, "kappa_sq")
        assert summary.verdict == "exceedsBound"
        for stats in summary.per_size:
            assert stats.extra["pointwise_violations"] == 0
            # the report places the claimed constant next to the sample mean
            assert stats.extra["claimed_bound"] == stats.n * (2.0**stats.n - 1.0)
            assert stats.mean >= stats.prediction  # corrected bound (2^n - 1)/n
    ratio = [s.mean / s.extra["claimed_bound"] for s in summary.per_size]
    print(f"  sample mean / claimed constant per n: {[f'{r:.2f}' for r in ratio]}")


def test_criterion_7_log_kappa_lower_bound():
    with criterion(7, "E[ln kappa] >= n ln2 - ln n - 1 at n in {5,10,20}"):
        config = randomlab.ExperimentConfig(
            "lower_gaussian", sizes=(5, 10, 20), trials=10_000, seed=SEED
        )
        summary = randomlab.run_experiment(config, "log_kappa")
        assert summary.verdict == "exceedsBound"
        for stats in summary.per_size:
            assert stats.mean >= stats.prediction
        bound10 = summary.per_size[1].prediction
        assert bound10 == pytest.approx(10 * log(2.0) - log(10.0) - 1.0, rel=1e-15)
        assert bound10 == pytest.approx(3.6289, abs=5e-4)
    print(f"  means {[f'{s.mean:.3f}' for s in summary.per_size]} vs bounds "
          f"{[f'{s.prediction:.4f}' for s in summary.per_size]}")


def test_criterion_8_ql_pushforward_log_growth():
    with criterion(8, "m(n) - ln n stable within 0.3; no exponential growth"):
        config = randomlab.ExperimentConfig(
            "ql_pushforward", sizes=(8, 16, 32, 64), trials=2_000, seed=SEED
        )
        summary = randomlab.run_experiment(config, "log_kappa")
        assert summary.verdict == "matches"
        centered = [s.extra["centered_mean"] for s in summary.per_size]
        drift = max(abs(b - a) for a, b in zip(centered, centered[1:]))
        assert drift <= 0.3
        m64 = summary.per_size[-1].mean
        assert m64 < 10.0
        lower_bound_64 = 64 * log(2.0) - log(64.0) - 1.0
        assert lower_bound_64 > 39.0  # the contrast ensemble grows exponentially
    print(f"  centered means {[f'{c:.3f}' for c in centered]}, drift {drift:.3f}, "
          f"m(64)={m64:.2f} vs triangular-Gaussian bound {lower_bound_64:.1f}")


def test_criterion_9_backward_stability_1000_systems():
    t0 = time.perf_counter()
    with criterion(9, "componentwise backward error <= (n+2) 2^-24 on 1000 systems"):
        worst_margin = 0.0
        for n in range(2, 101):
            count = 10 if n <= 100 else 0
            idx = np.arange(count)
            keys = rng.substream(SEED, 9, n, idx)
            lowers = np.tril(rng.normal_matrix(keys, n, n))
            # half the systems unit diagonal, half general Gaussian diagonal
            lowers[: count // 2, np.arange(n), np.arange(n)] = 1.0
            bs = rng.standard_normals(rng.substream(SEED, 9, n, idx + 1000), n)
            eps, bound = triangular._verify_batched(lowers, bs, triangular.REDUCED)
            assert np.all(eps <= bound)
            worst_margin = max(worst_margin, float(np.max(eps) / bound))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
    print(f"  worst eps/bound = {worst_margin:.3f}, {elapsed:.1f}s")


def test_criterion_9_cli_never_exits_three(tmp_path):
    lower = np.tril(rng.normal_matrix(rng.substream(SEED, 9, 50, 3), 50, 50))
    np.fill_diagonal(lower, 1.0)
    b = rng.standard_normals(rng.substream(SEED, 9, 50, 1003), 50)
    matio.write_matrix_csv(tmp_path / "L.csv", lower)
    matio.write_matrix_csv(tmp_path / "b.csv", b[:, None])
    code = main(["verify-tri", "--matrix", str(tmp_path / "L.csv"),
                 "--vector", str(tmp_path / "b.csv"), "--precision", "reduced"])
    assert code == 0


def test_criterion_10_operator_norm_oracle():
    with criterion(10, "norm >= sampled ratios; duality; enumeration = sign search"):
        for t in range(200):
            n = 2 + t % 3  # sizes 2..4
            a = seeded_matrix(10, t, n=n)
            x = rng.normal_matrix(rng.substream(SEED, 10, t, 1), 100_000, n)
            signs = np.where(x >= 0.0, 1.0, -1.0)
            img = x @ a.T
            # each case needs ||x||_r for three r and ||A x||_s for three s
            x_norms = {r: norms.vector_norm(x, r) for r in (1, 2, inf)}
            img_norms = {s: norms.vector_norm(img, s) for s in (1, 2, inf)}
            for r, s in ALL_PAIRS:
                res = norms.operator_norm(a, r, s)
                ratios = img_norms[s] / x_norms[r]
                assert ratios.max() <= res.value * (1.0 + 1e-10)
                dual = norms.operator_norm(
                    a.T, norms.dual_exponent(s), norms.dual_exponent(r)
                ).value
                assert abs(res.value - dual) <= 1e-10 * res.value
            # enumeration pairs against dense random sign search
            for s in (1, 2):
                enum = norms.operator_norm(a, inf, s).value
                searched = norms.vector_norm(signs @ a.T, s).max()
                assert abs(enum - searched) <= 1e-6 * enum
            enum = norms.operator_norm(a, 2, 1).value
            searched = norms.vector_norm(signs @ a, 2).max()
            assert abs(enum - searched) <= 1e-6 * enum
