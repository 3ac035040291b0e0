"""The ``montecarlo`` workload: the four random-matrix experiments at the
acceptance sizes, with fewer trials, one operation per (experiment, size).

Each operation is ``randomlab.run_experiment`` on a single size with its own
experiment seed drawn from the workload seed.  Checks (outside the timed
region):

* the verdict is the one the paper's law predicts;
* on the first ``SUBSAMPLE`` trials of the same seeded draws, the statistic
  recomputed with ``np.linalg`` matches a run of the same experiment on
  those trials, whose extremes lie within the full run's;
* the first draws of every stream match a pure-Python SplitMix64;
* the QL centred means m(n) - ln n drift by at most 0.3 between consecutive
  sizes, widened by four combined standard errors for the reduced trials,
  and m(64) < 10 (no exponential growth).
"""

from __future__ import annotations

import math

import numpy as np

import oracles

# (statistic, ensemble, size, trials, expected verdict)
EXPERIMENTS = (
    [("frob_inv_sq", "unit_lower_gaussian", n, 20_000, "matches") for n in range(2, 9)]
    + [("kappa_sq", "unit_lower_gaussian", n, 1_000, "exceedsBound") for n in range(2, 9)]
    + [("log_kappa", "lower_gaussian", n, 1_000, "exceedsBound") for n in (5, 10, 20)]
    + [
        ("log_kappa", "ql_pushforward", n, trials, "matches")
        for n, trials in ((8, 1_000), (16, 500), (32, 200), (64, 50))
    ]
)

#: Trials per operation recomputed with np.linalg.
SUBSAMPLE = 32

#: Relative agreement required of every recomputed sample, on top of the
#: n * eps * kappa that LAPACK's sigma_min may be off by (its error is about
#: eps * sigma_max); lower-Gaussian draws at n = 20 reach kappa ~ 1e13.
RTOL = 1e-9


def make_inputs(seed, workdir):
    del workdir  # condlab receives configurations only
    seeds = np.random.default_rng(seed).integers(0, 2**62, size=len(EXPERIMENTS))
    return [(*spec, int(s)) for spec, s in zip(EXPERIMENTS, seeds)]


def _config(randomlab, ensemble, n, trials, seed):
    return randomlab.ExperimentConfig(ensemble, sizes=(n,), trials=trials, seed=seed)


def operations(inputs):
    from condlab import randomlab

    ops = []
    for stat, ensemble, n, trials, _, seed in inputs:
        config = _config(randomlab, ensemble, n, trials, seed)

        def op(config=config, stat=stat):
            return randomlab.run_experiment(config, stat)

        ops.append((f"{stat}/{ensemble}/n={n}", op))
    return ops


def _draws(rng, ensemble, n, keys):
    """The ensemble draws behind the given trial keys, laid out as condlab
    documents them: normals fill the (strict) lower triangle row by row."""
    if ensemble == "ql_pushforward":
        return rng.normal_matrix(keys, n, n)  # kappa_2(L) = kappa_2(Q^T A)
    strict = ensemble == "unit_lower_gaussian"
    rows, cols = np.tril_indices(n, -1 if strict else 0)
    out = np.zeros((keys.size, n, n))
    out[:, rows, cols] = rng.standard_normals(keys, rows.size)
    if strict:
        out[:, np.arange(n), np.arange(n)] = 1.0
    return out


def _statistic(stat, mats):
    """Per-sample values and the absolute error allowed on each."""
    if stat == "frob_inv_sq":
        values = np.sum(np.linalg.inv(mats) ** 2, axis=(1, 2))
        return values, RTOL * values
    kappa = np.linalg.cond(mats, 2)
    slack = RTOL + mats.shape[-1] * np.finfo(float).eps * kappa
    if stat == "kappa_sq":
        return kappa**2, 2.0 * slack * kappa**2
    return np.log(kappa), slack * np.maximum(1.0, np.abs(np.log(kappa)))


def check(inputs, outputs):
    from condlab import randomlab, rng

    errors = []
    for (stat, ensemble, n, trials, verdict, seed), summary in zip(inputs, outputs):
        name = f"{stat}/{ensemble}/n={n}"
        if summary.verdict != verdict:
            errors.append(f"{name}: verdict {summary.verdict}, expected {verdict}")
        k = min(SUBSAMPLE, trials)
        sub = randomlab.run_experiment(_config(randomlab, ensemble, n, k, seed), stat)
        keys = rng.substream(seed, 0, np.arange(k))
        values, slack = _statistic(stat, _draws(rng, ensemble, n, keys))
        row, full = sub.per_size[0], summary.per_size[0]
        for label, got, want, tol in (
            ("mean", row.mean, np.mean(values), np.mean(slack)),
            ("min", row.minimum, np.min(values), np.max(slack)),
            ("max", row.maximum, np.max(values), np.max(slack)),
        ):
            if not abs(got - want) <= tol:
                errors.append(f"{name}: subsample {label} {got!r} != np.linalg {want!r}")
        if not (full.minimum <= row.minimum and row.maximum <= full.maximum):
            errors.append(f"{name}: subsample outside the full run's [min, max]")
        first = rng.standard_normals(keys[0], 8)
        expect = oracles.stream_normals(oracles.stream_key(seed, 0, 0), 8)
        if not np.allclose(first, expect, rtol=1e-13, atol=1e-13):
            errors.append(f"{name}: stream (seed, 0, 0) differs from SplitMix64/Box-Muller")

    ql = [(n, s.per_size[0]) for (_, e, n, *_), s in zip(inputs, outputs) if e == "ql_pushforward"]
    for (n0, a), (n1, b) in zip(ql, ql[1:]):
        drift = abs((b.mean - math.log(n1)) - (a.mean - math.log(n0)))
        gate = 0.3 + 4.0 * math.hypot(a.std_error, b.std_error)
        if drift > gate:
            errors.append(f"ql: centred mean drifts {drift:.3f} > {gate:.3f} from n={n0} to {n1}")
    if ql and not ql[-1][1].mean < 10.0:
        errors.append(f"ql: m({ql[-1][0]}) = {ql[-1][1].mean:.2f}, not below 10")
    return errors
