#!/usr/bin/env python3
"""Run the full set of random-matrix experiments at desk scale and write
CSV tables (for external plotting) plus a JSON summary to results/.

  python scripts/run_experiments.py [--seed 20260809] [--out results]

The last line printed gives the total elapsed seconds and the process's
peak resident memory.
"""

import argparse
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from condlab.cli import experiment_csv, jsonable  # noqa: E402
from condlab.randomlab import ExperimentConfig, run_experiment  # noqa: E402

RUNS = [
    # (label, ensemble, statistic, sizes, trials)
    ("frob_inv", "unit_lower_gaussian", "frob_inv_sq", range(2, 9), 200_000),
    ("kappa_sq", "unit_lower_gaussian", "kappa_sq", range(2, 9), 2_000),
    ("log_kappa_lower", "lower_gaussian", "log_kappa", (5, 10, 20), 10_000),
    ("log_kappa_ql", "ql_pushforward", "log_kappa", (8, 16, 32, 64), 2_000),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    start = time.perf_counter()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    combined = {}
    for label, ensemble, statistic, sizes, trials in RUNS:
        t0 = time.perf_counter()
        config = ExperimentConfig(
            ensemble=ensemble, sizes=tuple(sizes), trials=trials, seed=args.seed
        )
        summary = run_experiment(config, statistic)
        elapsed = time.perf_counter() - t0
        payload = jsonable(summary)
        combined[label] = payload
        (out / f"{label}.csv").write_text(experiment_csv(payload))
        print(f"{label:16s} verdict={summary.verdict:12s} ({elapsed:.1f}s)")
        for stats in summary.per_size:
            print(
                f"  n={stats.n:3d} mean={stats.mean:12.5g} "
                f"prediction={stats.prediction:12.5g} se={stats.std_error:.3g}"
            )
    (out / "summary.json").write_text(json.dumps(combined, indent=2))
    print(f"wrote {out}/summary.json and one CSV per experiment")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    peak /= 1024.0**2 if sys.platform == "darwin" else 1024.0
    print(f"total {time.perf_counter() - start:.2f}s, peak RSS {peak:.0f} MB")


if __name__ == "__main__":
    main()
