"""The ``cli`` workload: single-instance commands through
``condlab.cli.main`` on seeded CSV and MatrixMarket files, with the JSON
report captured from stdout.

Inputs, from ``numpy.random.default_rng(seed)`` (square matrices redrawn
until np.linalg.cond is at most ``KAPPA_CAP``):

* ``norm`` at (inf,1), (inf,2) and (2,1) on Gaussian 8x8, 14x14 and 20x20
  matrices;
* ``kappa``, ``dist``, ``nearest-singular``, ``mixed`` and ``cond`` (all
  five kinds) at (2,2) on a Gaussian 64x64 matrix and at the three
  enumeration pairs on a Gaussian 16x16 matrix, with a Gaussian vector;
* ``verify-tri`` and ``solve-tri`` in reduced precision on lower-triangular
  Gaussian systems of size 50, 100 (unit diagonal) and 200;
* ``kappa`` at (2,2) on a fixed 64x64 matrix (not drawn from the seed)
  scaled by 2^-560.  The scaling is exact, so the answer is the unscaled
  kappa_2; the Jacobi sweeps square entries near 1e-169, the Gram matrix
  underflows and condlab prints NaN.  This operation is counted as failed
  while that holds.

Checks (outside the timed region): exit code 0; the envelope validates
against ``schemas/report.schema.json``; norms, kappa, distances and
condition numbers against brute-force sign search, row/column formulas and
``np.linalg``; every attainer's ratio against the reported norm;
kappa * dist = ||A||; sigma_min(A+E) / sigma_max(A) by ``np.linalg.svd``;
``solve-tri``'s solution against a scalar re-implementation of the 24-bit
rounding model, bit for bit, and its backward error recomputed in numpy.  The
harness requires every command's stdout to be byte-identical in every
round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracles

INF = oracles.INF
KAPPA_CAP = 1e4
ENUM_PAIRS = ((INF, 1.0), (INF, 2.0), (2.0, 1.0))
KINDS = ("inversion", "matvec", "solve-fixed-a", "solve-fixed-b", "solve-both")
SCALED = "kappa/scaled64/(2,2)"
SCALED_SEED = 560
SCALE = 2.0**-560
RTOL = 1e-9
SCHEMA = os.path.join("schemas", "report.schema.json")


def _index(p):
    return "inf" if p == INF else str(int(p))


def _square(gen, n):
    a = gen.standard_normal((n, n))
    while np.linalg.cond(a) > KAPPA_CAP:
        a = gen.standard_normal((n, n))
    return a


def _lower(gen, n, unit):
    lower = np.tril(gen.standard_normal((n, n)))
    if unit:
        np.fill_diagonal(lower, 1.0)
    return lower


def make_inputs(seed, workdir):
    from condlab import matio

    gen = np.random.default_rng(seed)
    arrays = {}
    for n in (8, 14, 20):
        arrays[f"N{n}"] = _square(gen, n)
    for n in (16, 64):
        arrays[f"A{n}"] = _square(gen, n)
        arrays[f"b{n}"] = gen.standard_normal(n)
    for n, unit in ((50, False), (100, True), (200, False)):
        arrays[f"L{n}"] = _lower(gen, n, unit)
        arrays[f"c{n}"] = gen.standard_normal(n)
    arrays["S64"] = _square(np.random.default_rng(SCALED_SEED), 64)
    files = {}
    for i, (key, value) in enumerate(sorted(arrays.items())):
        scaled = value * SCALE if key == "S64" else value
        column = scaled.reshape(-1, 1) if scaled.ndim == 1 else scaled
        if i % 2:
            path = os.path.join(workdir, f"{key}.mtx")
            matio.write_matrix_market(path, column)
        else:
            path = os.path.join(workdir, f"{key}.csv")
            matio.write_matrix_csv(path, column)
        files[key] = path
    return {"arrays": arrays, "files": files, "commands": _commands(files)}


def _commands(files):
    """(name, argv, matrix key, vector key, r, s) for every operation."""
    out = []
    for n in (8, 14, 20):
        for r, s in ENUM_PAIRS:
            out.append(("norm", f"N{n}", None, r, s))
    for n, pairs in ((64, ((2.0, 2.0),)), (16, ENUM_PAIRS)):
        for r, s in pairs:
            for cmd in ("kappa", "dist", "nearest-singular", "mixed"):
                out.append((cmd, f"A{n}", f"b{n}" if cmd == "mixed" else None, r, s))
            for kind in KINDS:
                vec = None if kind == "inversion" else f"b{n}"
                out.append((f"cond {kind}", f"A{n}", vec, r, s))
    for n in (50, 100, 200):
        for cmd in ("verify-tri", "solve-tri"):
            out.append((cmd, f"L{n}", f"c{n}", 2.0, 2.0))
    commands = []
    for cmd, mat, vec, r, s in out:
        argv = cmd.split() + ["--matrix", files[mat], "--r", _index(r), "--s", _index(s)]
        if vec:
            argv += ["--vector", files[vec]]
        if cmd.endswith("-tri"):
            argv += ["--precision", "reduced"]
        commands.append((f"{cmd.replace(' ', ':')}/{mat}/({r:g},{s:g})", argv, mat, vec, r, s))
    argv = ["kappa", "--matrix", files["S64"], "--r", "2", "--s", "2"]
    commands.append((SCALED, argv, "S64", None, 2.0, 2.0))
    return commands


def operations(inputs):
    from condlab import cli

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return [(name, lambda argv=argv: invoke(argv)) for name, argv, *_ in inputs["commands"]]


def trace_counts(counts, output):
    counts["cli.stdout_bytes"] += len(output[1].encode("utf-8"))


def is_failure(inputs, name, output):
    """Only the scaled kappa may fail: it fails unless it returns kappa_2."""
    if name != SCALED:
        return False
    code, stdout = output
    try:
        value = float(json.loads(stdout)["payload"]["kappa"]) if code == 0 else math.nan
    except (ValueError, KeyError, TypeError):
        return True
    return not oracles.relative_gap(value, np.linalg.cond(inputs["arrays"]["S64"], 2)) <= RTOL


def _backward_error(lower, b, x):
    residual = np.abs(b - lower @ x)
    return float(np.max(residual / (np.abs(lower) @ np.abs(x))))


def check(inputs, outputs):
    import jsonschema

    with open(SCHEMA, encoding="utf-8") as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    arrays = inputs["arrays"]
    kappas = {}
    errors = []

    def close(name, label, got, want):
        if not oracles.relative_gap(got, want) <= RTOL:
            errors.append(f"{name}: {label} {got!r} != reference {want!r}")

    for (name, argv, mat, vec, r, s), (code, stdout) in zip(inputs["commands"], outputs):
        if name == SCALED:
            continue
        if code != 0:
            errors.append(f"{name}: exit code {code}")
            continue
        envelope = json.loads(stdout)
        for problem in validator.iter_errors(envelope):
            errors.append(f"{name}: schema: {problem.message}")
        payload = envelope["payload"]
        a = arrays[mat]
        b = arrays[vec] if vec else None
        command = argv[0]
        if command == "norm":
            close(name, "norm", payload["value"], oracles.operator_norm(a, r, s))
            x = np.array(payload["attainer"])
            ratio = oracles.vector_norm(a @ x, s) / oracles.vector_norm(x, r)
            close(name, "attainer ratio", ratio, payload["value"])
        elif command == "kappa":
            kappas[(mat, r, s)] = payload["kappa"]
            close(name, "kappa", payload["kappa"], oracles.condition("inversion", a, b, r, s))
        elif command == "dist":
            inverse_norm = oracles.operator_norm(np.linalg.inv(a), s, r)
            close(name, "distance", payload["distance"], 1.0 / inverse_norm)
            close(name, "kappa * dist", kappas[(mat, r, s)] * payload["distance"],
                  oracles.operator_norm(a, r, s))
            if payload["check_kappa_identity"] is not True:
                errors.append(f"{name}: check_kappa_identity is false")
        elif command == "nearest-singular":
            e = np.array(payload["perturbation"])
            inverse_norm = oracles.operator_norm(np.linalg.inv(a), s, r)
            close(name, "distance", payload["distance"], 1.0 / inverse_norm)
            close(name, "||E||", oracles.operator_norm(e, r, s), payload["distance"])
            sigma = np.linalg.svd(a + e, compute_uv=False)[-1] / np.linalg.svd(a, compute_uv=False)[0]
            if not sigma <= 1e-8 or payload["singular_within_tolerance"] is not True:
                errors.append(f"{name}: A + E is not singular (sigma ratio {sigma:.3g})")
        elif command in ("mixed", "cond"):
            kind = "solve_both" if command == "mixed" else argv[1].replace("-", "_")
            close(name, "condition", payload["value"], oracles.condition(kind, a, b, r, s))
            if command == "mixed" and not (
                payload["sandwich_ok"] and payload["kappa"] <= payload["value"] <= 2 * payload["kappa"]
            ):
                errors.append(f"{name}: mixed condition outside [kappa, 2 kappa]")
        else:  # verify-tri, solve-tri
            report = payload if command == "verify-tri" else payload["backward_error"]
            bound = (a.shape[0] + 2) * 2.0**-24
            if report["bound"] != bound or not report["epsilon_cw"] <= bound or not report["satisfied"]:
                errors.append(f"{name}: backward error {report['epsilon_cw']!r} vs bound {bound!r}")
            if command == "solve-tri":
                x = np.array(payload["solution"])
                if not np.array_equal(x, oracles.reduced_forward_substitution(a, b)):
                    errors.append(f"{name}: solution differs from a scalar 24-bit substitution")
                recomputed = _backward_error(a, b, x)
                if not oracles.relative_gap(report["epsilon_cw"], recomputed) <= 1e-6:
                    errors.append(f"{name}: backward error {report['epsilon_cw']!r} "
                                  f"!= recomputed {recomputed!r}")
    return errors
