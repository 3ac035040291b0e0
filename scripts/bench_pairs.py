#!/usr/bin/env python3
"""Alternating benchmark pairs of two condlab checkouts.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs N]

Each pair runs ``python3 bench/run.py --workload W --seconds S`` once in the
PARENT checkout and once in the CHANGE checkout, each from its own root and
with its own unchanged ``bench/``; S is ``run_seconds`` of this checkout's
``BENCHMARK.json``.  The parent goes first in odd pairs and the change in
even ones.  For each pair it prints every end-to-end metric of both runs;
then, for each metric, each side's median and quartiles, the change's
median against the parent's, and how many pairs each side won, ties
counting for neither.  A run that exits non-zero, or reads ``correct:
false`` or a failed operation, is printed and stops the script with exit
status 1.  The script writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def run(tree, workload, seconds):
    """The end-to-end metrics of one ``bench/run.py`` run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(done.stderr)
        sys.exit(f"bench_pairs: the run in {tree} failed: {lines[-1] if lines else 'no output'}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run(trees[side], args.workload, bench["run_seconds"]))
        last = {side: runs[side][-1] for side in runs}
        cells = "  ".join(f"{name} {last['parent'][name]:.4g} -> {last['change'][name]:.4g}"
                          for name in better)
        print(f"pair {pair:2d} ({order[0]} first)  {cells}", flush=True)
    print(f"== {args.workload}, {args.pairs} pairs of {bench['run_seconds']} s runs")
    for name, direction in better.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        sign = 1.0 if direction == "lower" else -1.0
        change_won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        parent_won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        print(f"{name:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
              f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
              f"median {100.0 * (cm - pm) / pm:+.1f}% (parent IQR {p3 - p1:.4g})  "
              f"won: change {change_won}, parent {parent_won} ({direction} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
