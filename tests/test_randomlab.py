import dataclasses
from math import log

import numpy as np
import pytest

from condlab import linalg, randomlab as rl, rng
from condlab.errors import IncompatibleStatistic


def test_unit_lower_sampler_structure():
    lower = rl.sample_matrix("unit_lower_gaussian", 3, rng.substream(1, 0, 0))
    assert np.array_equal(np.diag(lower), [1.0, 1.0, 1.0])
    assert np.all(np.triu(lower, 1) == 0.0)
    assert np.all(lower[np.tril_indices(3, -1)] != 0.0)


def test_unit_lower_n1_is_exactly_one():
    assert np.array_equal(rl.sample_matrix("unit_lower_gaussian", 1, rng.substream(1, 0, 1)),
                          [[1.0]])


def test_lower_gaussian_sampler_structure():
    lower = rl.sample_matrix("lower_gaussian", 4, rng.substream(2, 0, 0))
    assert np.all(np.triu(lower, 1) == 0.0)
    assert np.all(lower[np.tril_indices(4)] != 0.0)


def test_ql_pushforward_matches_generating_gaussian():
    key = rng.substream(3, 0, 0)
    lower = rl.sample_matrix("ql_pushforward", 5, key)
    dense = rng.normal_matrix(key, 5, 5)
    assert np.all(np.triu(lower, 1) == 0.0)
    assert np.all(np.diag(lower) >= 0.0)
    sv_l = linalg.singular_values(lower)
    sv_a = linalg.singular_values(dense)
    assert np.max(np.abs(sv_l - sv_a)) <= 1e-10 * sv_a[0]


def test_ql_factor_keeps_kappa_of_dense_draw():
    # the QL statistic is taken on the dense draw, which needs
    # kappa_2(L) = kappa_2(Q^T A) = kappa_2(A) to hold to rounding
    for n in (1, 2, 8, 32, 64, 128):
        dense = rng.normal_matrix(rng.substream(7, n, np.arange(20)), n, n)
        sv_l = linalg.singular_values(linalg.ql_lower(dense))
        sv_a = linalg.singular_values(dense)
        kappa_l, kappa_a = sv_l[:, 0] / sv_l[:, -1], sv_a[:, 0] / sv_a[:, -1]
        assert np.max(np.abs(kappa_l - kappa_a) / kappa_a) <= 1e-11


@pytest.mark.parametrize("ensemble", rl.ENSEMBLES)
@pytest.mark.parametrize("n", [0, 2.5, True, -1])
def test_sampler_rejects_a_size_that_is_not_a_positive_integer(ensemble, n):
    with pytest.raises(ValueError, match=r"^size must be a positive integer, got "):
        rl.sample_matrix(ensemble, n, rng.substream(1, 0, 0))


def test_exact_law_at_n2():
    # ||L^-1||_F^2 = 2 + l21^2 exactly for the unit ensemble at n = 2
    keys = rng.substream(4, 0, np.arange(200))
    batch = rl._sample_batch("unit_lower_gaussian", 2, keys)
    frob2 = np.sum(rl._lower_inverse_batched(batch) ** 2, axis=(1, 2))
    assert np.max(np.abs(frob2 - (2.0 + batch[:, 1, 0] ** 2))) <= 1e-12 * frob2.max()


def test_gaussian_sampler_moments():
    draws = rng.standard_normals(rng.substream(5), 10**6)
    assert abs(draws.mean()) <= 0.01
    assert abs(draws.var() - 1.0) <= 0.01


def test_run_experiment_frob_inv_small():
    config = rl.ExperimentConfig("unit_lower_gaussian", sizes=(1, 2, 3), trials=20000, seed=6)
    summary = rl.run_experiment(config, "frob_inv_sq")
    assert summary.verdict == "matches"
    n1 = summary.per_size[0]
    assert n1.mean == 1.0 and n1.std_error == 0.0  # L = [1] exactly
    n2 = summary.per_size[1]
    assert abs(n2.mean - 3.0) <= 4.0 * n2.std_error
    cols = n2.extra["column_means"]
    assert cols[1] == pytest.approx(1.0, abs=1e-12)  # last column of L^-1 is e_n


def test_run_experiment_col_sums_verdict():
    config = rl.ExperimentConfig("unit_lower_gaussian", sizes=(2, 4), trials=20000, seed=7)
    summary = rl.run_experiment(config, "col_sums_sq")
    assert summary.verdict == "matches"
    stats = summary.per_size[1]
    preds = stats.extra["column_predictions"]
    assert preds == [2.0 ** (4 - k) for k in range(1, 5)]


def test_run_experiment_kappa_sq_pointwise():
    config = rl.ExperimentConfig("unit_lower_gaussian", sizes=(2, 5), trials=3000, seed=8)
    summary = rl.run_experiment(config, "kappa_sq")
    assert summary.verdict == "exceedsBound"
    for stats in summary.per_size:
        assert stats.extra["pointwise_violations"] == 0
        assert stats.extra["claimed_bound"] == stats.n * (2.0**stats.n - 1.0)
        assert stats.prediction == (2.0**stats.n - 1.0) / stats.n
        assert stats.mean >= stats.prediction


def test_run_experiment_log_kappa_lower_bound():
    config = rl.ExperimentConfig("lower_gaussian", sizes=(5, 10), trials=3000, seed=9)
    summary = rl.run_experiment(config, "log_kappa")
    assert summary.verdict == "exceedsBound"
    for stats in summary.per_size:
        assert stats.mean >= stats.prediction
    assert summary.per_size[1].prediction == pytest.approx(
        10 * log(2.0) - log(10.0) - 1.0, rel=1e-15)


def test_run_experiment_ql_centered_drift():
    config = rl.ExperimentConfig("ql_pushforward", sizes=(4, 8, 16), trials=800, seed=10)
    summary = rl.run_experiment(config, "log_kappa")
    assert summary.verdict == "matches"
    for stats in summary.per_size:
        assert stats.extra["centered_mean"] == pytest.approx(stats.mean - log(stats.n))


def test_incompatible_statistic():
    config = rl.ExperimentConfig("lower_gaussian", sizes=(3,), trials=10, seed=11)
    with pytest.raises(IncompatibleStatistic):
        rl.run_experiment(config, "frob_inv_sq")
    config = rl.ExperimentConfig("unit_lower_gaussian", sizes=(3,), trials=10, seed=11)
    with pytest.raises(IncompatibleStatistic):
        rl.run_experiment(config, "log_kappa")


def _chunked(monkeypatch, chunk, config, statistic):
    """The summary of ``config`` run in batches of ``chunk`` trials."""
    batches = []
    substream = rng.substream
    monkeypatch.setattr(rng, "substream", lambda *key: batches.append(key) or substream(*key))
    monkeypatch.setattr(rl, "_CHUNK_TRIALS", chunk)
    summary = dataclasses.asdict(rl.run_experiment(config, statistic))
    assert len(batches) == len(config.sizes) * -(-config.trials // chunk)
    return summary


def test_experiment_determinism_across_chunking(monkeypatch):
    config = rl.ExperimentConfig("unit_lower_gaussian", sizes=(2, 3), trials=500, seed=12)
    one = _chunked(monkeypatch, 64, config, "frob_inv_sq")
    assert one == _chunked(monkeypatch, 4096, config, "frob_inv_sq")


def test_log_kappa_determinism_across_chunking(monkeypatch):
    for ensemble, sizes in (("lower_gaussian", (5, 10)), ("ql_pushforward", (8, 16))):
        config = rl.ExperimentConfig(ensemble, sizes=sizes, trials=300, seed=14)
        one = _chunked(monkeypatch, 37, config, "log_kappa")
        assert one == _chunked(monkeypatch, 4096, config, "log_kappa")


def test_sampler_determinism():
    a = rl.sample_matrix("lower_gaussian", 6, rng.substream(13, 2, 7))
    b = rl.sample_matrix("lower_gaussian", 6, rng.substream(13, 2, 7))
    c = rl.sample_matrix("lower_gaussian", 6, rng.substream(13, 2, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("field,value,message", [
    ("seed", 1.5, "seed must be an integer"), ("seed", True, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"), ("seed", 2.0, "seed must be an integer"),
    ("trials", 2.5, "trials must be an integer"), ("trials", True, "trials must be an integer"),
    ("trials", "10", "trials must be an integer"),
    ("sizes", (2.7,), "sizes must be"), ("sizes", (True,), "sizes must be"),
    ("sizes", ("3",), "sizes must be"), ("sizes", (3, 4.0), "sizes must be"),
    ("sizes", 3, "sizes must be"), ("sizes", "3", "sizes must be"),
])
def test_config_rejects_numbers_that_are_not_integers(field, value, message):
    # seed=1.5 drew seed 1 but reported 1.5, sizes=(2.7,) ran n = 2 and
    # trials=2.5 ended in a numpy TypeError
    kwargs = {"sizes": (3,), "trials": 10, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"^{message}"):
        rl.ExperimentConfig("unit_lower_gaussian", **kwargs)


def test_config_accepts_numpy_integers_and_any_seed():
    for seed in (-1, 2**64 + 5, np.int64(3)):
        config = rl.ExperimentConfig("unit_lower_gaussian", sizes=(np.int64(3),),
                                     trials=np.int32(10), seed=seed)
        assert config.sizes == (3,) and type(config.sizes[0]) is int
        assert config.seed == seed


def test_config_validation():
    with pytest.raises(ValueError):
        rl.ExperimentConfig("unit_lower_gaussian", sizes=(), trials=10)
    with pytest.raises(ValueError):
        rl.ExperimentConfig("unit_lower_gaussian", sizes=(3,), trials=0)
    with pytest.raises(ValueError):  # one trial has no standard error
        rl.ExperimentConfig("unit_lower_gaussian", sizes=(3,), trials=1)
    with pytest.raises(ValueError):
        rl.ExperimentConfig("nonsense", sizes=(3,), trials=10)
