#!/usr/bin/env python3
"""Reference figures, measured once and recorded in bench/README.md.

    python3 bench/reference.py

Prints the environment block, the wall time of each random-matrix
acceptance experiment at its acceptance scale (the trial counts of
``tests/test_acceptance.py``, seed 20260809), and numpy Jacobi against
``np.linalg.svd(compute_uv=False)`` on Gaussian stacks of 500 matrices of
64x64 and 32x32.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import glob
import os
import platform
import time

import run  # pins BLAS threads before numpy is imported

SEED = 20260809
EXPERIMENTS = (
    ("criterion 5", "unit_lower_gaussian", "frob_inv_sq", tuple(range(2, 9)), 200_000),
    ("criterion 6", "unit_lower_gaussian", "kappa_sq", tuple(range(2, 9)), 2_000),
    ("criterion 7", "lower_gaussian", "log_kappa", (5, 10, 20), 10_000),
    ("criterion 8", "ql_pushforward", "log_kappa", (8, 16, 32, 64), 2_000),
)


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def main():
    run.import_condlab()
    import numpy as np

    from condlab import linalg, randomlab

    src_lines = sum(
        sum(1 for _ in open(path, encoding="utf-8"))
        for path in glob.glob(os.path.join("src", "**", "*.py"), recursive=True)
    )
    print(f"python {platform.python_version()}, numpy {np.__version__}")
    print(f"nproc {len(os.sched_getaffinity(0))}, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    engine = "numpy Jacobi" if linalg.numba is None else "numba Jacobi kernel"
    print(f"spectral engine for value-only stacks: {engine}")
    print(f"src/ lines: {src_lines}")

    for label, ensemble, statistic, sizes, trials in EXPERIMENTS:
        config = randomlab.ExperimentConfig(ensemble, sizes=sizes, trials=trials, seed=SEED)
        seconds, summary = timed(lambda: randomlab.run_experiment(config, statistic))
        print(f"{label}: {statistic} on {ensemble}, n={list(sizes)}, {trials} trials: "
              f"{seconds:.1f} s, verdict {summary.verdict}")

    gen = np.random.default_rng(SEED)
    for n in (64, 32):
        stack = gen.standard_normal((500, n, n))
        jacobi, values = timed(lambda: linalg.singular_values(stack))
        lapack, reference = timed(lambda: np.linalg.svd(stack, compute_uv=False))
        gap = np.max(np.abs(values - reference) / reference[:, :1])
        print(f"500x{n}x{n}: Jacobi {jacobi:.2f} s, np.linalg.svd {lapack:.3f} s, "
              f"max |sigma gap| / sigma_max {gap:.1e}")


if __name__ == "__main__":
    main()
