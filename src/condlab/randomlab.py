"""Seeded ensembles of random triangular matrices and the Monte Carlo
experiments that probe their conditioning.

Ensembles
---------
* ``unit_lower_gaussian``: unit diagonal, iid N(0,1) strictly below.
* ``lower_gaussian``: iid N(0,1) on and below the diagonal.
* ``ql_pushforward``: the lower factor of the QL factorization of a dense
  iid N(0,1) matrix, i.e. the distribution a triangular solve actually sees
  after factoring a random dense system.

Statistics
----------
* ``frob_inv_sq``  ||L^-1||_F^2 (exactly 2^n - 1 in expectation for the
  unit ensemble; per column k the expectation is 2^(n-k)).  Computed by n
  triangular solves against identity columns, never by explicit inversion
  of anything larger.
* ``col_sums_sq``  the per-column pieces of the same computation.
* ``kappa_sq``     kappa_2(L)^2.  The commonly claimed lower bound for its
  expectation is n(2^n - 1), but the chain ||L||_2 >= 1 (unit diagonal) and
  ||L^-1||_2 >= ||L^-1||_F / sqrt(n) only supports (2^n - 1)/n; the summary
  reports the sample mean next to both constants and asserts the pointwise
  inequality kappa^2 >= ||L^-1||_F^2 / n per sample.
* ``log_kappa``    ln kappa_2(L): grows like n ln 2 for the general lower
  ensemble but only like ln n for the QL pushforward.  For the QL
  pushforward it is computed on the dense draw A itself: A = QL with Q
  orthogonal, so kappa_2(L) = kappa_2(Q^T A) = kappa_2(A) and the QL step
  drops out of the statistic.

Determinism: trial t of size index i draws from substream (seed, i, t), so
summaries are bit-identical for a fixed seed regardless of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

from . import rng
from .errors import IncompatibleStatistic
from .linalg import _jacobi, ql_lower

ENSEMBLES = ("unit_lower_gaussian", "lower_gaussian", "ql_pushforward")

_COMPATIBLE = {
    "unit_lower_gaussian": ("frob_inv_sq", "col_sums_sq", "kappa_sq"),
    "lower_gaussian": ("log_kappa",),
    "ql_pushforward": ("log_kappa",),
}

_POINTWISE_SLACK = 1.0 - 1e-12  # float slack on the per-sample kappa bound

#: Trials drawn and reduced per batch; summaries do not depend on it.
_CHUNK_TRIALS = 4096


def ensemble_kind(name):
    name = str(name).strip().lower().replace("-", "_")
    if name not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {name!r}; expected one of {ENSEMBLES}")
    return name


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: str
    sizes: tuple
    trials: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ensemble", ensemble_kind(self.ensemble))
        try:
            sizes = tuple(self.sizes)
        except TypeError:  # a lone number
            sizes = ()
        if not sizes or not all(rng.is_whole(n, 1) for n in sizes):
            raise ValueError("sizes must be a nonempty list of positive integers")
        object.__setattr__(self, "sizes", tuple(int(n) for n in sizes))
        if not rng.is_whole(self.trials):
            raise ValueError("trials must be an integer")
        if self.trials < 2:
            raise ValueError("trials must be >= 2: one trial has no standard error")
        if not rng.is_whole(self.seed):
            raise ValueError("seed must be an integer")


def _sample_batch(ensemble, n, keys):
    """A (B, n, n) stack of ensemble draws, one per substream key."""
    if ensemble == "unit_lower_gaussian":
        out = np.zeros(keys.shape + (n, n))
        idx = np.tril_indices(n, -1)
        if idx[0].size:
            out[..., idx[0], idx[1]] = rng.standard_normals(keys, idx[0].size)
        out[..., np.arange(n), np.arange(n)] = 1.0
        return out
    if ensemble == "lower_gaussian":
        out = np.zeros(keys.shape + (n, n))
        idx = np.tril_indices(n)
        out[..., idx[0], idx[1]] = rng.standard_normals(keys, idx[0].size)
        return out
    dense = rng.normal_matrix(keys, n, n)
    return ql_lower(dense)


def sample_matrix(ensemble, n, key):
    """One draw of the ensemble at size n from the given substream key."""
    ensemble = ensemble_kind(ensemble)
    if not rng.is_whole(n, 1):
        raise ValueError(f"size must be a positive integer, got {n!r}")
    return _sample_batch(ensemble, int(n), np.asarray(key, dtype=np.uint64).reshape(1))[0]


def _lower_inverse_batched(lower):
    """Columns of L^-1 by forward substitution against identity columns."""
    nb, n, _ = lower.shape
    x = np.zeros((nb, n, n))
    eye = np.eye(n)
    for i in range(n):
        acc = eye[i] - np.einsum("bj,bjk->bk", lower[:, i, :i], x[:, :i, :])
        x[:, i, :] = acc / lower[:, i, i, None]
    return x


def _kappa2_batched(lower):
    sigma = _jacobi(lower, want_vectors=False)[0]
    return (sigma[:, 0] / sigma[:, -1]) ** 2


@dataclass
class SizeStats:
    """Aggregates of one statistic at one matrix size."""

    n: int
    mean: float
    std_error: float
    minimum: float
    maximum: float
    q05: float
    median: float
    q95: float
    prediction: float
    extra: dict = field(default_factory=dict)


@dataclass
class ExperimentSummary:
    ensemble: str
    statistic: str
    trials: int
    seed: int
    per_size: list[SizeStats] = field(default_factory=list)
    verdict: str = "matches"


def _aggregate(n, values, prediction, extra=None):
    values = np.asarray(values, dtype=np.float64)
    se = float(np.std(values, ddof=1) / np.sqrt(values.size))
    q05, med, q95 = (float(q) for q in np.percentile(values, [5.0, 50.0, 95.0]))
    return SizeStats(
        n=n,
        mean=float(np.mean(values)),
        std_error=se,
        minimum=float(np.min(values)),
        maximum=float(np.max(values)),
        q05=q05,
        median=med,
        q95=q95,
        prediction=prediction,
        extra=extra or {},
    )


def run_experiment(config, statistic):
    """Run the Monte Carlo experiment and compare against the predicted law.

    Verdicts: ``matches`` when a two-sided prediction sits within 4 standard
    errors (or, for the QL pushforward, when the centered means m(n) - ln n
    drift by at most 0.3 between consecutive sizes); ``exceedsBound`` when a
    one-sided lower bound is met; ``violates`` otherwise.
    """
    statistic = str(statistic).strip()
    if statistic not in _COMPATIBLE[config.ensemble]:
        raise IncompatibleStatistic(
            f"statistic {statistic!r} is not defined for ensemble {config.ensemble!r}"
        )
    summary = ExperimentSummary(
        ensemble=config.ensemble, statistic=statistic, trials=config.trials, seed=config.seed
    )
    ok = True
    for si, n in enumerate(config.sizes):
        values = []
        columns = []
        pointwise_bad = 0
        for start in range(0, config.trials, _CHUNK_TRIALS):
            idx = np.arange(start, min(start + _CHUNK_TRIALS, config.trials))
            keys = rng.substream(config.seed, si, idx)
            if config.ensemble == "ql_pushforward":
                # log_kappa only: kappa_2(L) = kappa_2(A), so the QL step is skipped
                draws = rng.normal_matrix(keys, n, n)
            else:
                draws = _sample_batch(config.ensemble, n, keys)
            if statistic in ("frob_inv_sq", "col_sums_sq"):
                cols = np.sum(_lower_inverse_batched(draws) ** 2, axis=1)
                columns.append(cols)
                values.append(np.sum(cols, axis=1))
            elif statistic == "kappa_sq":
                kap2 = _kappa2_batched(draws)
                frob2 = np.sum(_lower_inverse_batched(draws) ** 2, axis=(1, 2))
                pointwise_bad += int(np.sum(kap2 < _POINTWISE_SLACK * frob2 / n))
                values.append(kap2)
            else:  # log_kappa
                kap2 = _kappa2_batched(draws)
                values.append(0.5 * np.log(kap2))
        values = np.concatenate(values)

        if statistic in ("frob_inv_sq", "col_sums_sq"):
            cols = np.concatenate(columns, axis=0)
            col_pred = 2.0 ** (n - 1 - np.arange(n))
            col_mean = cols.mean(axis=0)
            col_se = cols.std(axis=0, ddof=1) / np.sqrt(cols.shape[0])
            extra = {
                "column_means": col_mean.tolist(),
                "column_std_errors": col_se.tolist(),
                "column_predictions": col_pred.tolist(),
            }
            stats = _aggregate(n, values, float(2.0**n - 1.0), extra)
            cols_ok = bool(np.all(np.abs(col_mean - col_pred) <= 4.0 * col_se))
            mean_ok = abs(stats.mean - stats.prediction) <= 4.0 * stats.std_error \
                if stats.std_error > 0 else stats.mean == stats.prediction
            stats.extra["columns_within_4se"] = cols_ok
            stats.extra["mean_within_4se"] = mean_ok
            ok &= cols_ok and (mean_ok if statistic == "frob_inv_sq" else True)
        elif statistic == "kappa_sq":
            corrected = (2.0**n - 1.0) / n
            stats = _aggregate(
                n,
                values,
                corrected,
                {
                    "claimed_bound": float(n * (2.0**n - 1.0)),
                    "corrected_bound": corrected,
                    "pointwise_violations": pointwise_bad,
                },
            )
            ok &= pointwise_bad == 0 and stats.mean >= corrected
        elif config.ensemble == "lower_gaussian":
            bound = n * log(2.0) - log(n) - 1.0
            stats = _aggregate(n, values, bound)
            ok &= stats.mean >= bound
        else:  # log_kappa on the QL pushforward
            stats = _aggregate(n, values, log(n), {"centered_mean": float(np.mean(values) - log(n))})
        summary.per_size.append(stats)

    if config.ensemble == "ql_pushforward":
        centered = [s.extra["centered_mean"] for s in summary.per_size]
        drift = max(
            (abs(b - a) for a, b in zip(centered, centered[1:])), default=0.0
        )
        summary.verdict = "matches" if drift <= 0.3 else "violates"
        for s in summary.per_size:
            s.extra["max_consecutive_drift"] = drift
        return summary

    if statistic in ("frob_inv_sq", "col_sums_sq"):
        summary.verdict = "matches" if ok else "violates"
    else:
        summary.verdict = "exceedsBound" if ok else "violates"
    return summary
