#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep the results in one file.

    python3 bench/sweep.py --label base [--workloads montecarlo,cli] [--seeds 1-10]

Each run is ``bench/run.py`` as ``BENCHMARK.json`` names it, in its own
process, one after another, with that file's ``run_seconds``.  The results
go to ``bench/results/<label>.json``; ``bench/compare.py`` reads them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None):
    bench = compare.load("BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args(argv)

    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.label}.json")
    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "result": result})
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"label": args.label, "runs": runs}, fh, indent=1)
    compare.report([path], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
