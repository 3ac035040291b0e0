"""Command-line front end.

One subcommand per result family: operator norms (``norm``), the classic
condition number (``kappa``), problem condition numbers (``cond``,
``mixed``), distance to singularity and its extremal perturbation (``dist``,
``nearest-singular``), the definitional estimator (``estimate``), triangular
solves and their backward-error verification (``solve-tri``,
``verify-tri``), and the random-matrix experiments (``experiment``).

Reports are a single JSON envelope on stdout; with ``--format csv`` every
command prints CSV instead: ``key,value`` rows of the payload, or one row
per size for ``experiment``.  Diagnostics go to stderr.  Exit codes: 0
success, 1 malformed input, 2 singular matrix where nonsingularity was
required, 3 a verify-style command found a violated bound, 4 exact
enumeration was requested above the dimension cap, 5 a perturbation of the
requested size reached the singular set (``estimate`` with a delta too
large for A).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from math import inf
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, conditioning, empirical, matio, randomlab, triangular
from .errors import CondLabError, DeltaTooLarge, DimensionTooLarge, SingularMatrix
from .linalg import singular_values
from .norms import norm_index, operator_norm, operator_norm_values

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_SINGULAR = 2
EXIT_VIOLATED = 3
EXIT_ENUM_DIM = 4
EXIT_DELTA_TOO_LARGE = 5

# (error class, exit code, message prefix); the first row that matches wins
_EXIT_CODES = (
    (SingularMatrix, EXIT_SINGULAR, "singular matrix: "),
    (DimensionTooLarge, EXIT_ENUM_DIM, ""),
    (DeltaTooLarge, EXIT_DELTA_TOO_LARGE, ""),
    (CondLabError, EXIT_BAD_INPUT, ""),
    (ValueError, EXIT_BAD_INPUT, ""),
    (OSError, EXIT_BAD_INPUT, ""),
)

_EXPERIMENTS = {
    "frob-inv": ("unit_lower_gaussian", "frob_inv_sq"),
    "kappa-sq": ("unit_lower_gaussian", "kappa_sq"),
    "log-kappa": ("lower_gaussian", "log_kappa"),
    "ql": ("ql_pushforward", "log_kappa"),
}

_KIND_CHOICES = [kind.replace("_", "-") for kind in conditioning.PROBLEM_KINDS]


def jsonable(value):
    """``value`` with numpy arrays, numpy scalars and dataclasses turned into
    plain lists, numbers and dicts, ready for ``json.dumps``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if dataclasses.is_dataclass(value):
        return {k: jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def experiment_csv(payload):
    """One CSV row per matrix size of an experiment payload."""
    cols = ["n", "mean", "std_error", "minimum", "maximum", "q05", "median", "q95",
            "prediction", "verdict"]
    lines = [",".join(cols)]
    for row in payload["per_size"]:
        cells = [repr(row[c]) if isinstance(row[c], float) else str(row[c])
                 for c in cols[:-1]]
        lines.append(",".join(cells + [payload["verdict"]]))
    return "\n".join(lines) + "\n"


def _flat_csv(payload):
    """key,value rows, each value JSON-encoded and quoted as CSV requires."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in payload.items():
        writer.writerow([key, json.dumps(value)])
    return buf.getvalue()


# Each handler takes (args, matrix, vector, r, s, inputs echo) and returns
# (payload, whether the bound it checks held); a failed bound exits 3.

def _norm(args, a, vec, r, s, echo):
    res = operator_norm(a, r, s, args.max_enum_dim)
    return {"value": res.value, "method": res.method, "attainer": res.attainer}, True


def _kappa(args, a, vec, r, s, echo):
    return {"kappa": conditioning.kappa(a, r, s, args.max_enum_dim)}, True


def _cond(args, a, vec, r, s, echo):
    return conditioning.condition_closed_form(args.kind, a, vec, r, s, args.max_enum_dim), True


def _mixed(args, a, vec, r, s, echo):
    report = conditioning.mixed_condition(a, vec, r, s, args.max_enum_dim)
    slack = 1e-12 * report.kappa
    ok = bool(report.kappa - slack <= report.value <= 2.0 * report.kappa + slack)
    return {**dataclasses.asdict(report), "sandwich_ok": ok}, ok


def _dist(args, a, vec, r, s, echo):
    inv_norm = conditioning.inverse_norm(a, r, s, args.max_enum_dim)
    anorm = float(operator_norm_values(a, r, s, args.max_enum_dim))
    d = 1.0 / inv_norm
    ok = bool(abs(anorm * inv_norm * d - anorm) <= 1e-12 * anorm)
    return {"distance": d, "check_kappa_identity": ok}, ok


def _nearest_singular(args, a, vec, r, s, echo):
    e, d = conditioning.nearest_singular(a, r, s, args.max_enum_dim)
    enorm = float(operator_norm_values(e, r, s, args.max_enum_dim))
    ratio = float(singular_values(a + e)[-1] / singular_values(a)[0])
    ok = bool(ratio <= 1e-8 and abs(enorm - d) <= 1e-10 * d)
    return {"distance": d, "perturbation_norm": enorm, "sigma_min_ratio": ratio,
            "singular_within_tolerance": ok, "perturbation": e}, ok


def _estimate(args, a, vec, r, s, echo):
    deltas = tuple(float(tok) for tok in args.delta.split(","))
    config = empirical.EstimatorConfig(
        deltas=deltas, samples_per_delta=args.samples, seed=args.seed
    )
    echo["config"] = {"deltas": list(deltas), "samples_per_delta": args.samples}
    return empirical.estimate_condition(
        args.kind, a, vec, r, s, config=config, max_enum_dim=args.max_enum_dim
    ), True


def _solve_tri(args, lower, b, r, s, echo):
    echo["config"] = {"precision": args.precision}
    precision = triangular.precision_mode(args.precision)
    x = triangular.forward_substitution(lower, b, precision)
    report = triangular.componentwise_backward_error(lower, b, x, precision)
    return {"solution": x, "backward_error": report}, True


def _verify_tri(args, lower, b, r, s, echo):
    echo["config"] = {"precision": args.precision}
    precision = triangular.precision_mode(args.precision)
    report = triangular.verify_backward_stability(lower, b, precision)
    return report, report.satisfied


def _experiment(args, a, vec, r, s, echo):
    ensemble, statistic = _EXPERIMENTS[args.name]
    sizes = tuple(int(tok) for tok in args.n.split(","))
    config = randomlab.ExperimentConfig(
        ensemble=ensemble, sizes=sizes, trials=args.trials, seed=args.seed
    )
    echo["config"] = {"ensemble": ensemble, "statistic": statistic,
                      "sizes": list(sizes), "trials": args.trials}
    summary = randomlab.run_experiment(config, statistic)
    return summary, summary.verdict != "violates"


# Options beyond the shared ones, as (flags, add_argument keywords) pairs
_KIND = (("kind",), {"choices": _KIND_CHOICES, "help": "problem kind"})


def _precision(default):
    return (("--precision",), {"choices": ["working", "reduced"], "default": default})


class _Command(NamedTuple):
    """One row of the command table: the subcommand's help, its handler
    (``run``), the files it reads (``inputs``), its own options and its CSV
    writer."""

    help: str
    run: Callable
    inputs: tuple = ("matrix",)
    options: tuple = ()
    csv: Callable = _flat_csv


_BOTH = ("matrix", "vector")
_COMMANDS = {
    "norm": _Command("operator norm ||A||_rs with its attaining vector", _norm),
    "kappa": _Command("kappa_rs(A) = ||A||_rs ||A^-1||_sr", _kappa),
    "cond": _Command("closed-form condition number of a problem kind", _cond, _BOTH,
                     (_KIND,)),
    "mixed": _Command("mixed condition number of (A, b) -> A^-1 b", _mixed, _BOTH),
    "dist": _Command("distance to the singular set, with the kappa identity check", _dist),
    "nearest-singular": _Command("rank-one E with A+E singular at minimal ||E||_rs",
                                 _nearest_singular),
    "estimate": _Command(
        "sampling estimate of the definitional condition number", _estimate, _BOTH, (
            _KIND,
            (("--delta",), {"default": "1e-4,1e-5,1e-6,1e-7",
                            "help": "comma-separated decreasing perturbation sizes"}),
            (("--samples",), {"type": int, "default": 1000, "help": "samples per delta"}),
        )),
    "solve-tri": _Command("forward substitution", _solve_tri, _BOTH, (_precision("working"),)),
    "verify-tri": _Command("verify the componentwise backward-error bound", _verify_tri,
                           _BOTH, (_precision("reduced"),)),
    "experiment": _Command("random-matrix Monte Carlo experiments", _experiment, (), (
        (("name",), {"choices": sorted(_EXPERIMENTS), "help": "experiment name"}),
        (("--n",), {"default": "2,3,4,5,6,7,8", "help": "comma-separated matrix sizes"}),
        (("--trials",), {"type": int, "default": 10000}),
    ), experiment_csv),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; raise to the input-error code."""

    def error(self, message):
        raise ValueError(message)


def _build_parser(command=None):
    """The parser of the command table, with each subcommand's options and
    its row as defaults.  With ``command`` it holds that subcommand alone:
    three parsers (top level, shared options, ``command``) instead of one
    per row.  The full table serves ``--help`` and the error for a name
    that is not a command, which list every subcommand."""
    parser = _Parser(prog="condlab", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)
    # the options every subcommand shares, declared once and copied into each
    common = _Parser(add_help=False)
    common.add_argument("--matrix", help="matrix file (CSV or MatrixMarket array)")
    common.add_argument("--vector", help="vector file (one row or one column)")
    common.add_argument("--r", default="2", help="input norm index: 1, 2 or inf")
    common.add_argument("--s", default="2", help="output norm index: 1, 2 or inf")
    common.add_argument("--max-enum-dim", type=int, default=20,
                        help="cap for exact sign-vector enumeration")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--seed", type=int, default=0, help="64-bit seed")
    for name, row in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=row.help, parents=[common])
        p.set_defaults(run=row.run, inputs=row.inputs, kind=None, csv=row.csv)
        for flags, kwargs in row.options:
            p.add_argument(*flags, **kwargs)
    return parser


def _run_command(args):
    """Read the files the command declares and run its handler; returns
    (payload, inputs echo, exit code).  A kind reads the vector file unless
    its row of ``conditioning.KINDS`` outputs the inverse."""
    if args.max_enum_dim < 0:
        raise ValueError(f"--max-enum-dim must be nonnegative, got {args.max_enum_dim}")
    if not 0 <= args.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")
    r, s = norm_index(args.r), norm_index(args.s)
    echo = {"r": "inf" if r == inf else int(r), "s": "inf" if s == inf else int(s),
            "seed": args.seed}
    a = vec = None
    if "matrix" in args.inputs:
        if not args.matrix:
            raise ValueError("--matrix is required")
        a = matio.read_matrix(args.matrix)
        echo["dims"] = list(a.shape)
    row = args.kind and conditioning.KINDS[conditioning.problem_kind(args.kind)]
    if "vector" in args.inputs and not (row and row.output == "inverse"):
        if not args.vector:
            raise ValueError("--vector is required")
        vec = matio.read_vector(args.vector)
    payload, ok = args.run(args, a, vec, r, s, echo)
    return jsonable(payload), echo, EXIT_OK if ok else EXIT_VIOLATED


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the named command's parser; anything else gets the full table
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
        payload, echo, code = _run_command(args)
    except tuple(row[0] for row in _EXIT_CODES) as exc:
        code, prefix = next((c, p) for cls, c, p in _EXIT_CODES if isinstance(exc, cls))
        print(f"condlab: {prefix}{exc}", file=sys.stderr)
        return code
    if args.format == "csv":
        sys.stdout.write(args.csv(payload))
    else:
        envelope = {"command": args.command, "inputs": echo, "payload": payload,
                    "tool_version": __version__}
        sys.stdout.write(json.dumps(envelope, indent=2))
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
