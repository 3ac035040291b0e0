"""Command-line front end.

One subcommand per result family: operator norms (``norm``), the classic
condition number (``kappa``), problem condition numbers (``cond``,
``mixed``), distance to singularity and its extremal perturbation (``dist``,
``nearest-singular``), the definitional estimator (``estimate``), triangular
solves and their backward-error verification (``solve-tri``,
``verify-tri``), and the random-matrix experiments (``experiment``).

Reports are a single JSON envelope on stdout (CSV tables for experiments
with ``--format csv``); diagnostics go to stderr.  Exit codes: 0 success,
1 malformed input, 2 singular matrix where nonsingularity was required,
3 a verify-style command found a violated bound, 4 exact enumeration was
requested above the dimension cap, 5 a perturbation of the requested size
reached the singular set (``estimate`` with a delta too large for A).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from math import inf

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

_EXPERIMENTS = {
    "frob-inv": ("unit_lower_gaussian", "frob_inv_sq"),
    "kappa-sq": ("unit_lower_gaussian", "kappa_sq"),
    "log-kappa": ("lower_gaussian", "log_kappa"),
    "ql": ("ql_pushforward", "log_kappa"),
}

_KIND_CHOICES = ["inversion", "matvec", "solve-fixed-a", "solve-fixed-b", "solve-both"]


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap to the input-error code."""

    def error(self, message):
        raise _CliError(EXIT_BAD_INPUT, message)


def _build_parser():
    parser = _Parser(prog="condlab", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, kind_positional=False):
        p = sub.add_parser(name, help=help_)
        if kind_positional:
            p.add_argument("kind", choices=_KIND_CHOICES, help="problem kind")
        p.add_argument("--matrix", help="matrix file (CSV or MatrixMarket array)")
        p.add_argument("--vector", help="vector file (one row or one column)")
        p.add_argument("--r", default="2", help="input norm index: 1, 2 or inf")
        p.add_argument("--s", default="2", help="output norm index: 1, 2 or inf")
        p.add_argument("--max-enum-dim", type=int, default=20,
                       help="cap for exact sign-vector enumeration")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed")
        return p

    add("norm", "operator norm ||A||_rs with its attaining vector")
    add("kappa", "kappa_rs(A) = ||A||_rs ||A^-1||_sr")
    add("cond", "closed-form condition number of a problem kind", kind_positional=True)
    add("mixed", "mixed condition number of (A, b) -> A^-1 b")
    p = add("dist", "distance to the singular set, with the kappa identity check")
    p = add("nearest-singular", "rank-one E with A+E singular at minimal ||E||_rs")
    p = add("estimate", "sampling estimate of the definitional condition number",
            kind_positional=True)
    p.add_argument("--delta", default="1e-4,1e-5,1e-6,1e-7",
                   help="comma-separated decreasing perturbation sizes")
    p.add_argument("--samples", type=int, default=1000, help="samples per delta")
    for name in ("solve-tri", "verify-tri"):
        p = add(name, "forward substitution" if name == "solve-tri"
                else "verify the componentwise backward-error bound")
        p.add_argument("--precision", choices=["working", "reduced"],
                       default="working" if name == "solve-tri" else "reduced")
    p = add("experiment", "random-matrix Monte Carlo experiments")
    p.add_argument("name", choices=sorted(_EXPERIMENTS), help="experiment name")
    p.add_argument("--n", default="2,3,4,5,6,7,8", help="comma-separated matrix sizes")
    p.add_argument("--trials", type=int, default=10000)
    return parser


def _require_matrix(args):
    if not args.matrix:
        raise _CliError(EXIT_BAD_INPUT, "--matrix is required")
    return matio.read_matrix(args.matrix)


def _require_vector(args):
    if not args.vector:
        raise _CliError(EXIT_BAD_INPUT, "--vector is required")
    return matio.read_vector(args.vector)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if dataclasses.is_dataclass(value):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _run_command(args):
    """Dispatch; returns (payload dict, inputs echo dict, exit code)."""
    r = norm_index(args.r) if hasattr(args, "r") else 2.0
    s = norm_index(args.s) if hasattr(args, "s") else 2.0
    echo = {"r": "inf" if r == inf else int(r), "s": "inf" if s == inf else int(s),
            "seed": getattr(args, "seed", 0)}

    if args.command == "norm":
        a = _require_matrix(args)
        echo["dims"] = list(a.shape)
        res = operator_norm(a, r, s, args.max_enum_dim)
        return ({"value": res.value, "method": res.method,
                 "attainer": res.attainer.tolist()}, echo, EXIT_OK)

    if args.command == "kappa":
        a = _require_matrix(args)
        echo["dims"] = list(a.shape)
        return ({"kappa": conditioning.kappa(a, r, s, args.max_enum_dim)}, echo, EXIT_OK)

    if args.command == "cond":
        a = _require_matrix(args)
        echo["dims"] = list(a.shape)
        kind = conditioning.problem_kind(args.kind)
        vec = _require_vector(args) if kind != "inversion" else None
        report = conditioning.condition_closed_form(kind, a, vec, r, s, args.max_enum_dim)
        return (_jsonable(report), echo, EXIT_OK)

    if args.command == "mixed":
        a = _require_matrix(args)
        b = _require_vector(args)
        echo["dims"] = list(a.shape)
        report = conditioning.mixed_condition(a, b, r, s, args.max_enum_dim)
        payload = _jsonable(report)
        payload["sandwich_ok"] = bool(
            report.kappa - 1e-12 * report.kappa
            <= report.value
            <= 2.0 * report.kappa + 1e-12 * report.kappa
        )
        return (payload, echo, EXIT_OK if payload["sandwich_ok"] else EXIT_VIOLATED)

    if args.command == "dist":
        a = _require_matrix(args)
        echo["dims"] = list(a.shape)
        inv_norm = conditioning.inverse_norm(a, r, s, args.max_enum_dim)
        anorm = float(operator_norm_values(a, r, s, args.max_enum_dim))
        d = 1.0 / inv_norm
        kap = anorm * inv_norm
        ok = bool(abs(kap * d - anorm) <= 1e-12 * anorm)
        return ({"distance": d, "check_kappa_identity": ok}, echo,
                EXIT_OK if ok else EXIT_VIOLATED)

    if args.command == "nearest-singular":
        a = _require_matrix(args)
        echo["dims"] = list(a.shape)
        e, d = conditioning.nearest_singular(a, r, s, args.max_enum_dim)
        enorm = float(operator_norm_values(e, r, s, args.max_enum_dim))
        ratio = float(singular_values(a + e)[-1] / singular_values(a)[0])
        ok = bool(ratio <= 1e-8 and abs(enorm - d) <= 1e-10 * d)
        return ({"distance": d, "perturbation_norm": enorm,
                 "sigma_min_ratio": ratio, "singular_within_tolerance": ok,
                 "perturbation": e.tolist()}, echo, EXIT_OK if ok else EXIT_VIOLATED)

    if args.command == "estimate":
        a = _require_matrix(args)
        echo["dims"] = list(a.shape)
        kind = conditioning.problem_kind(args.kind)
        vec = _require_vector(args) if kind != "inversion" else None
        deltas = tuple(float(tok) for tok in args.delta.split(","))
        config = empirical.EstimatorConfig(
            deltas=deltas, samples_per_delta=args.samples, seed=args.seed
        )
        echo["config"] = {"deltas": list(deltas), "samples_per_delta": args.samples}
        report = empirical.estimate_condition(
            kind, a, vec, r, s, config=config, max_enum_dim=args.max_enum_dim
        )
        return (_jsonable(report), echo, EXIT_OK)

    if args.command in ("solve-tri", "verify-tri"):
        lower = _require_matrix(args)
        b = _require_vector(args)
        echo["dims"] = list(lower.shape)
        echo["config"] = {"precision": args.precision}
        precision = triangular.precision_mode(args.precision)
        if args.command == "solve-tri":
            x = triangular.forward_substitution(lower, b, precision)
            report = triangular.componentwise_backward_error(lower, b, x, precision)
            return ({"solution": x.tolist(), "backward_error": _jsonable(report)},
                    echo, EXIT_OK)
        report = triangular.verify_backward_stability(lower, b, precision)
        return (_jsonable(report), echo,
                EXIT_OK if report.satisfied else EXIT_VIOLATED)

    if args.command == "experiment":
        ensemble, statistic = _EXPERIMENTS[args.name]
        sizes = tuple(int(tok) for tok in args.n.split(","))
        config = randomlab.ExperimentConfig(
            ensemble=ensemble, sizes=sizes, trials=args.trials, seed=args.seed
        )
        echo["config"] = {"ensemble": ensemble, "statistic": statistic,
                          "sizes": list(sizes), "trials": args.trials}
        summary = randomlab.run_experiment(config, statistic)
        code = EXIT_VIOLATED if summary.verdict == "violates" else EXIT_OK
        return (_jsonable(summary), echo, code)

    raise _CliError(EXIT_BAD_INPUT, f"unknown command {args.command!r}")


def _experiment_csv(payload):
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
        writer.writerow([key, json.dumps(_jsonable(value))])
    return buf.getvalue()


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, echo, code = _run_command(args)
    except _CliError as exc:
        print(f"condlab: {exc}", file=sys.stderr)
        return exc.code
    except SingularMatrix as exc:
        print(f"condlab: singular matrix: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except DimensionTooLarge as exc:
        print(f"condlab: {exc}", file=sys.stderr)
        return EXIT_ENUM_DIM
    except DeltaTooLarge as exc:
        print(f"condlab: {exc}", file=sys.stderr)
        return EXIT_DELTA_TOO_LARGE
    except (CondLabError, ValueError, OSError) as exc:
        print(f"condlab: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    envelope = {
        "command": args.command,
        "inputs": echo,
        "payload": payload,
        "tool_version": __version__,
    }
    if args.format == "csv":
        text = _experiment_csv(payload) if args.command == "experiment" else _flat_csv(payload)
        sys.stdout.write(text)
    else:
        sys.stdout.write(json.dumps(envelope, indent=2))
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
