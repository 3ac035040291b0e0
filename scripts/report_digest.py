#!/usr/bin/env python3
"""Digests of the benchmark's estimator reports and CLI outputs.

    python3 scripts/report_digest.py [--seeds 1,2,3]

For each seed this builds the inputs of the ``estimator`` and ``cli``
workloads with ``bench/estimator.py`` and ``bench/commands.py`` (the CLI's
files go to a temporary directory), runs every operation once in the
benchmark's order, and prints one SHA-256 over the ``repr`` of every
estimator report and one over the ``repr`` of every CLI output (exit code
and stdout).  condlab is imported from the ``src/`` next to this script.
Two checkouts that print the same digests gave byte-identical results.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

# the benchmark runs with single-threaded BLAS; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = (("estimator", "estimator"), ("cli", "commands"))


def digests(seeds):
    """{workload: (number of outputs, SHA-256 hex digest)}."""
    import importlib

    hashes = {name: (0, hashlib.sha256()) for name, _ in WORKLOADS}
    for seed in seeds:
        for name, module in WORKLOADS:
            workload = importlib.import_module(module)
            with tempfile.TemporaryDirectory(prefix=f"digest-{name}-") as workdir:
                inputs = workload.make_inputs(seed, workdir)
                count, h = hashes[name]
                for _, op in workload.operations(inputs):
                    h.update(repr(op()).encode("utf-8"))
                    count += 1
                hashes[name] = count, h
    return {name: (count, h.hexdigest()) for name, (count, h) in hashes.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated bench seeds")
    args = ap.parse_args(argv)
    seeds = [int(tok) for tok in args.seeds.split(",")]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import condlab

    if not os.path.abspath(condlab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"report_digest: condlab was imported from {condlab.__file__}")
    for name, (count, digest) in digests(seeds).items():
        print(f"{name:<10} {count:4d} outputs  sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
