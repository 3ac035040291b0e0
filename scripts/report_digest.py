#!/usr/bin/env python3
"""Digests of the benchmark's estimator reports, CLI outputs and Monte Carlo
summaries, and of a probe of every CLI command.

    python3 scripts/report_digest.py [--seeds 1,2,3]

For each seed this builds the inputs of the ``estimator``, ``cli`` and
``montecarlo`` workloads with ``bench/estimator.py``, ``bench/commands.py``
and ``bench/montecarlo.py`` (the CLI's files go to a temporary directory),
runs every operation once in the benchmark's order, and prints one SHA-256
over the ``repr`` of every estimator report, one over the ``repr`` of every
CLI output (exit code and stdout), and one over the ``repr`` of every
``ExperimentSummary``.  The ``cli-all`` digest runs a fixed list of about
120 command lines on files drawn from the seed: all ten commands, both
output formats, and the error exits 1, 2, 4 and 5.  It hashes each exit
code with its stdout and its stderr, with the temporary directory's name
replaced.
Under the ``estimator`` total, one digest per problem kind hashes that
kind's reports alone, in the same order, so a change that can touch only
one kind can show that the others kept their bits.  condlab is imported
from the ``src/`` next to this script.  Two checkouts that print the same
digests gave byte-identical results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

# the benchmark runs with single-threaded BLAS; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PAIRS = [(r, s) for r in ("1", "2", "inf") for s in ("1", "2", "inf")]
_KINDS = ("inversion", "matvec", "solve-fixed-a", "solve-fixed-b", "solve-both")
_EXPERIMENTS = ("frob-inv", "kappa-sq", "log-kappa", "ql")
_ESTIMATE = "--samples 100 --delta 1e-4,1e-6 --seed 7"


def _probe_commands():
    """The probe's command lines, with ``{name}`` for the files."""
    def vector(kind, name):
        return "" if kind == "inversion" else f" --vector {{{name}}}"

    out = []
    for r, s in _PAIRS:
        out += [f"norm --matrix {{G4}} --r {r} --s {s}", f"kappa --matrix {{G4}} --r {r} --s {s}"]
    for r, s in (("2", "2"), ("inf", "1"), ("1", "2")):
        out += [f"cond {kind} --matrix {{G4}}{vector(kind, 'b4')} --r {r} --s {s}"
                for kind in _KINDS]
        out += [f"mixed --matrix {{G4}} --vector {{b4}} --r {r} --s {s}",
                f"dist --matrix {{G4}} --r {r} --s {s}",
                f"nearest-singular --matrix {{G4}} --r {r} --s {s}"]
    for r, s in (("2", "2"), ("inf", "1")):
        out += [f"estimate {kind} --matrix {{G4}}{vector(kind, 'b4')} --r {r} --s {s} {_ESTIMATE}"
                for kind in _KINDS]
    out += ["solve-tri --matrix {L5} --vector {c5}",
            "solve-tri --matrix {L5} --vector {c5} --precision reduced",
            "verify-tri --matrix {L5} --vector {c5}",
            "verify-tri --matrix {L5} --vector {c5} --precision working"]
    out += [f"experiment {name} --n 2,3 --trials 200 --seed 5" for name in _EXPERIMENTS]
    csv = ["norm --matrix {G4} --r inf --s 1", "kappa --matrix {G4}",
           "cond solve-both --matrix {G4} --vector {b4} --r inf --s 2",
           "mixed --matrix {G4} --vector {b4} --r 2 --s 1", "dist --matrix {G4} --r inf --s 1",
           "nearest-singular --matrix {G4}",
           f"estimate inversion --matrix {{G4}} --r inf --s 2 {_ESTIMATE}",
           f"estimate solve-both --matrix {{G4}} --vector {{b4}} --r 2 --s 1 {_ESTIMATE}",
           "solve-tri --matrix {L5} --vector {c5} --precision reduced",
           "verify-tri --matrix {L5} --vector {c5}"]
    csv += [f"experiment {name} --n 2,3 --trials 200 --seed 5" for name in _EXPERIMENTS]
    out += [f"{line} --format csv" for line in csv]
    # a rectangular matrix: matvec only
    out += ["cond matvec --matrix {R3} --vector {x2}",
            "cond matvec --matrix {R3} --vector {x2} --r inf --s 1",
            f"estimate matvec --matrix {{R3}} --vector {{x2}} {_ESTIMATE}"]
    # exit 1: malformed input
    out += ["", "frobnicate", "kappa", "mixed --matrix {G4}", "cond matvec --matrix {G4}",
            "norm --matrix {G4} --r 3", "cond sideways --matrix {G4}",
            "norm --matrix {G4} --max-enum-dim x", "kappa --matrix {missing}",
            "kappa --matrix {R3}", "cond matvec --matrix {G4} --vector {z4}",
            "mixed --matrix {G4} --vector {z4}",
            "estimate solve-fixed-a --matrix {G4} --vector {z4}",
            "estimate matvec --matrix {G4} --vector {x2}",
            "estimate inversion --matrix {G4} --delta 1e-6,1e-4",
            "estimate inversion --matrix {G4} --samples 0", "experiment ql --trials 1",
            "solve-tri --matrix {Z5} --vector {c5}", "solve-tri --matrix {G4} --vector {b4}"]
    # exit 2 where A must be nonsingular, and the singular cases that succeed
    out += ["kappa --matrix {S2}", "cond inversion --matrix {S2}", "dist --matrix {S2}",
            "mixed --matrix {S2} --vector {v2}", "nearest-singular --matrix {S2}",
            "cond solve-fixed-a --matrix {S2} --vector {v2}",
            "cond solve-both --matrix {S2} --vector {v2}",
            "cond matvec --matrix {S2} --vector {v2}", "dist --matrix {S2} --format csv"]
    out += [f"estimate {kind} --matrix {{S2}}{vector(kind, 'v2')} {_ESTIMATE}" for kind in _KINDS]
    # exit 4: enumeration above the cap
    out += ["norm --matrix {G4} --r inf --s 1 --max-enum-dim 3",
            "kappa --matrix {G4} --r inf --s 2 --max-enum-dim 3",
            "cond matvec --matrix {G4} --vector {b4} --r 2 --s 1 --max-enum-dim 3",
            "nearest-singular --matrix {G4} --r inf --s 2 --max-enum-dim 2",
            f"estimate solve-both --matrix {{G4}} --vector {{b4}} --r inf --s 1 {_ESTIMATE} "
            "--max-enum-dim 3"]
    # exit 5: the worst direction reaches the singular set at delta = 1e-5
    out += [f"estimate {kind} --matrix {{{m}}}{vector(kind, 'd2')} --delta 1e-4,1e-5 "
            "--samples 50" for kind in ("inversion", "solve-fixed-b", "solve-both")
            for m in ("D2", "D2x4")]
    return out


def _probe_inputs(seed, workdir):
    """The probe's matrix and vector files, and its argument lists."""
    import numpy as np
    from condlab import matio

    gen = np.random.default_rng(seed)
    lower = np.tril(gen.standard_normal((5, 5))) + 3.0 * np.eye(5)
    arrays = {
        "G4": gen.standard_normal((4, 4)) + 4.0 * np.eye(4), "b4": gen.standard_normal(4),
        "z4": np.zeros(4), "R3": gen.standard_normal((3, 2)), "x2": gen.standard_normal(2),
        "L5": lower, "c5": gen.standard_normal(5), "Z5": lower * (np.arange(5) != 2),
        "S2": np.array([[1.0, 2.0], [2.0, 4.0]]), "v2": np.array([1.0, -1.0]),
        "D2": np.diag([1.0, 1e-5]), "D2x4": np.diag([4.0, 4e-5]), "d2": np.array([0.0, 1e-5]),
    }
    files = {"missing": os.path.join(workdir, "missing.csv")}
    for i, (name, value) in enumerate(sorted(arrays.items())):
        column = value.reshape(-1, 1) if value.ndim == 1 else value
        files[name] = os.path.join(workdir, f"{name}.{'mtx' if i % 2 else 'csv'}")
        write = matio.write_matrix_market if i % 2 else matio.write_matrix_csv
        write(files[name], column)
    return {"workdir": workdir,
            "argvs": [line.format(**files).split() for line in _probe_commands()]}


def _probe_operations(inputs):
    from condlab import cli

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return tuple([code] + [x.getvalue().replace(inputs["workdir"], "<dir>")
                               for x in (out, err)])

    return [(" ".join(argv), lambda argv=argv: invoke(argv)) for argv in inputs["argvs"]]


def _workloads():
    """(name, make_inputs, operations) of each digest."""
    import commands
    import estimator
    import montecarlo

    return (("estimator", estimator.make_inputs, estimator.operations),
            ("cli", commands.make_inputs, commands.operations),
            ("cli-all", _probe_inputs, _probe_operations),
            ("montecarlo", montecarlo.make_inputs, montecarlo.operations))


def digests(seeds):
    """{name: (number of outputs, SHA-256 hex digest)} of each workload, and
    of each problem kind's estimator reports as ``estimator/<kind>``, listed
    after the total of ``estimator``."""
    workloads = _workloads()
    hashes = {}
    for seed in seeds:
        for name, make_inputs, operations in workloads:
            with tempfile.TemporaryDirectory(prefix=f"digest-{name}-") as workdir:
                inputs = make_inputs(seed, workdir)
                for label, op in operations(inputs):
                    output = repr(op()).encode("utf-8")
                    names = [name]
                    if name == "estimator":  # labels read "<kind>/n=<size>/(<r>,<s>)"
                        names.append(f"{name}/{label.split('/')[0]}")
                    for key in names:
                        count, h = hashes.setdefault(key, (0, hashlib.sha256()))
                        h.update(output)
                        hashes[key] = count + 1, h
    order = [name for name, *_ in workloads]
    keys = sorted(hashes, key=lambda key: order.index(key.split("/")[0]))
    return {key: (hashes[key][0], hashes[key][1].hexdigest()) for key in keys}


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
        if "/" in name:
            print(f"  {name.split('/')[1]:<14} {count:4d} outputs  sha256 {digest}")
        else:
            print(f"{name:<10} {count:4d} outputs  sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
