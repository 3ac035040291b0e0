#!/usr/bin/env python3
"""Compare two result files written by ``bench/sweep.py``.

    python3 bench/compare.py bench/results/A.json bench/results/B.json

For every workload and end-to-end metric it prints the median and quartiles
of each file's runs, the spread (interquartile range over median), and
whether the two agree within the bound in ``BENCHMARK.json``: each spread
(except that of ``setup_s``) within the bound, B's median no worse than A's
by more than the bound, and the same share of failed operations.  Exits 1
if anything disagrees.  With one file it prints the figures alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def grouped(result_file):
    """workload -> (metric -> values, failed shares, correct flags), one entry per run."""
    out = {}
    for run in result_file["runs"]:
        metrics, shares, correct = out.setdefault(run["workload"], ({}, [], []))
        res = run["result"]
        shares.append(Fraction(res["failed"], res["attempted"]))
        correct.append(res["correct"])
        for name, m in res["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def worse_by(base, new, better):
    """Relative change of ``new`` against ``base`` in the worse direction."""
    change = (new - base) / base
    return change if better == "lower" else -change


def report(paths, bench):
    specs = {m["name"]: m for m in bench["end_to_end"]}
    files = [grouped(load(p)) for p in paths]
    ok = True
    for workload in sorted(files[0]):
        print(f"== {workload}")
        sides = [f.get(workload) for f in files]
        if any(s is None for s in sides):
            print("   missing in one file")
            ok = False
            continue
        if not all(all(s[2]) for s in sides):
            print("   a run reported correct: false")
            ok = False
        shares = [sorted(set(s[1])) for s in sides]
        same_share = all(len(s) == 1 for s in shares) and len({s[0] for s in shares}) == 1
        ok &= same_share
        print(f"   failed share: {' | '.join(str([str(x) for x in s]) for s in shares)}"
              f"{'' if same_share else '  <-- differs'}")
        for name, spec in specs.items():
            stats = [summarize(s[0][name]) for s in sides]
            bound = spec["bound"]
            cells = []
            verdict = []
            for st in stats:
                cells.append(f"{st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] "
                             f"spread {st['spread']:.3f}")
                if name != "setup_s" and st["spread"] > bound:
                    verdict.append("spread>bound")
            if len(stats) == 2:
                delta = worse_by(stats[0]["median"], stats[1]["median"], spec["better"])
                cells.append(f"worse by {delta:+.3f}")
                if delta > bound:
                    verdict.append("median worse than bound")
            ok &= not verdict
            print(f"   {name:12s} bound {bound:<5g} {' | '.join(cells)}"
                  f"  {'AGREE' if not verdict else 'DISAGREE: ' + ', '.join(verdict)}")
    return ok


def main(argv):
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    return 0 if report(argv, load("BENCHMARK.json")) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
