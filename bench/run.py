#!/usr/bin/env python3
"""condlab benchmark: one workload in one process.

    python3 bench/run.py --workload {montecarlo,estimator,cli} [--seed N] \
        [--seconds S] [--trace {0,1}]

Run from the root of a condlab checkout; condlab is imported from ``src/``
there and nowhere else.  The run repeats whole rounds of the workload's
operations (each operation once per round, always at least two rounds)
until ``--seconds`` have passed, then checks every output outside the timed
region and prints one JSON object as its last line of stdout.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of a
round), ``op_p50_ms`` (median over operations of each one's median time
across rounds), ``peak_rss_mb`` (the process's peak resident memory) and
``setup_s`` (median over seven fresh interpreters of the time through
``import condlab.cli`` to the generated inputs).  ``--trace 1`` alternates untraced and traced rounds and reports
the per-layer metrics of ``tracing.METRICS`` from the traced ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# Single-threaded BLAS: steadier timings on a shared machine.  Set before
# numpy is first imported, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {"montecarlo": "montecarlo", "estimator": "estimator", "cli": "commands"}
SETUP_PROBES = 7
MIN_ROUNDS = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="import condlab and write the inputs into DIR, then exit")
    return ap.parse_args(argv)


def import_condlab():
    """Import condlab from ./src, refusing any other installation."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "condlab", "__init__.py")):
        sys.exit("bench: no src/condlab here; run from the root of a condlab checkout")
    sys.path.insert(0, src)
    import condlab.cli

    if not os.path.abspath(condlab.__file__).startswith(src + os.sep):
        sys.exit(f"bench: condlab was imported from {condlab.__file__}, not {src}")


def probe_setup(args, workdir):
    """Median wall time of fresh interpreters running the set-up alone."""
    times = []
    for i in range(SETUP_PROBES):
        target = os.path.join(workdir, f"setup{i}")
        os.mkdir(target)
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", target]
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_rounds(workload, ops, seconds, tracer):
    """Whole rounds until ``seconds`` pass; odd rounds traced if tracing."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.begin_round()
            tracer.install()
        times, outputs = [], []
        round_start = time.perf_counter()
        for name, fn in ops:
            t0 = time.perf_counter()
            if traced:
                tracer.op = name
                out = tracer.call("bench", fn)
            else:
                out = fn()
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        wall = time.perf_counter() - round_start
        layers = None
        if traced:
            tracer.uninstall()
            if hasattr(workload, "trace_counts"):
                for out in outputs:
                    workload.trace_counts(tracer.counts, out)
            layers = tracer.round_metrics()
        rounds.append({"wall": wall, "times": times, "outputs": outputs, "layers": layers})
    return rounds


def judge(workload, inputs, ops, rounds):
    """(errors, failed operations) over every round's outputs."""
    names = [name for name, _ in ops]
    first = rounds[0]["outputs"]
    failing = getattr(workload, "is_failure", lambda *_: False)
    failed = sum(failing(inputs, name, out)
                 for r in rounds for name, out in zip(names, r["outputs"]))
    try:
        errors = workload.check(inputs, first)
    except Exception:  # an output the checks cannot even read is a wrong output
        errors = [f"check raised:\n{traceback.format_exc()}"]
    for i, r in enumerate(rounds[1:], start=2):
        for name, a, b in zip(names, first, r["outputs"]):
            if a != b:
                errors.append(f"{name}: round {i} output differs from round 1")
    return errors, failed


def end_to_end(rounds, setup_s, peak_kb):
    walls = [r["wall"] for r in rounds]
    per_op = [statistics.median(ts) for ts in zip(*(r["times"] for r in rounds))]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(rounds):
    import tracing

    traced = [r for r in rounds if r["layers"] is not None]
    plain = [r["wall"] for r in rounds if r["layers"] is None]
    traced_wall = statistics.median(r["wall"] for r in traced)
    values = {"trace.wall_s": traced_wall,
              "trace.overhead_s": traced_wall - statistics.median(plain)}
    metrics = {}
    for name, unit, _ in tracing.METRICS:
        value = values.get(name)
        if value is None:
            value = statistics.median(r["layers"].get(name, 0) for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    args = parse_args(argv)
    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        import_condlab()
        workload.make_inputs(args.seed, args.setup_only)
        return 0

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        import_condlab()
        setup_s = None if args.trace else probe_setup(args, workdir)
        inputs = workload.make_inputs(args.seed, workdir)
        ops = workload.operations(inputs)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.layer_wrappers(tracer)
        rounds = run_rounds(workload, ops, args.seconds, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        errors, failed = judge(workload, inputs, ops, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    for line in errors:
        print(f"bench: CHECK FAILED: {line}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed}: {len(rounds)} rounds of {len(ops)} "
          f"operations, {failed} failed, {len(errors)} check errors", file=sys.stderr)
    if args.trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, setup_s, peak_kb)
    result = {
        "correct": not errors,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
