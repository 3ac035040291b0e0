import argparse
import csv
import io
import json
import pathlib

import jsonschema
import numpy as np
import pytest

from condlab import cli, matio
from condlab.cli import main
from condlab.errors import ResultOverflow

from conftest import conditioned, gaussian

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "schemas" / "report.schema.json").read_text()
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    matio.write_matrix_csv(tmp_path / "diag12.csv", np.diag([1.0, 2.0]))
    matio.write_matrix_csv(tmp_path / "b.csv", np.array([[1.0], [1.0]]))
    matio.write_matrix_csv(tmp_path / "sing.csv", np.ones((2, 2)))
    matio.write_matrix_csv(tmp_path / "lower.csv", np.array([[1.0, 0.0], [2.0, 1.0]]))
    matio.write_matrix_market(tmp_path / "diag12.mtx", np.diag([1.0, 2.0]))
    for p in tmp_path.iterdir():
        paths[p.name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    envelope = json.loads(out) if out else None
    if envelope is not None:
        jsonschema.validate(envelope, SCHEMA)
    return code, envelope


def test_csv_round_trip(tmp_path):
    a = gaussian(601, 0, shape=(4, 3)) * 10.0 ** gaussian(601, 1, shape=(4, 3))
    path = tmp_path / "m.csv"
    matio.write_matrix_csv(path, a)
    assert np.array_equal(matio.read_matrix(path), a)


def test_matrix_market_round_trip(tmp_path):
    a = gaussian(602, 0, shape=(3, 5))
    path = tmp_path / "m.mtx"
    matio.write_matrix_market(path, a)
    assert np.array_equal(matio.read_matrix(path), a)


def test_matrix_market_column_major(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n% comment\n2 2\n1.0\n3.0\n2.0\n4.0\n"
    )
    assert np.array_equal(matio.read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


def test_round_trip_is_bit_identical(tmp_path):
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, np.finfo(float).max,
               -np.finfo(float).max, 0.1, 1.0 / 3.0, -7e-200, 1e300]
    a = np.concatenate((special, [0.5])).reshape(3, 4)
    writers = {"m.csv": matio.write_matrix_csv, "m.mtx": matio.write_matrix_market}
    for name, write in writers.items():
        write(tmp_path / name, a)
        back = matio.read_matrix(tmp_path / name)
        assert back.shape == a.shape
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))


def test_matrix_market_after_leading_blank_lines(tmp_path, capsys):
    path = tmp_path / "m.mtx"
    path.write_text("\n  \n%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    assert np.array_equal(matio.read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])
    code, env = run_json(capsys, ["kappa", "--matrix", str(path)])
    assert code == 0 and env["payload"]["kappa"] > 1.0


def test_crlf_line_endings(tmp_path):
    csv_path, mm_path = tmp_path / "m.csv", tmp_path / "m.mtx"
    csv_path.write_bytes(b"1.5,-2\r\n3,4e-300\r\n")
    mm_path.write_bytes(b"%%MatrixMarket matrix array real general\r\n% c\r\n"
                        b"2 2\r\n1.5\r\n3\r\n-2\r\n4e-300\r\n")
    for path in (csv_path, mm_path):
        assert np.array_equal(matio.read_matrix(path), [[1.5, -2.0], [3.0, 4e-300]])


def test_matrix_market_header_larger_than_its_values(tmp_path):
    # the value count is checked against the header without allocating what
    # the header claims
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1000000000 1000000000\n1.0\n")
    with pytest.raises(ValueError, match="expected 1000000000000000000 values, found 1"):
        matio.read_matrix(path)


_MM = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("values,message", [
    pytest.param("1 5\n2\n3\n4\n", r"m\.mtx:3: expected one value per line, found 2",
                 id="two-on-a-line"),
    pytest.param("1\n5\n2\n3\n4\n", r"m\.mtx: expected 4 values, found 5",
                 id="five-lines"),
    pytest.param("1\n2\n3\n4\t% note\n", r"m\.mtx:6: expected one value per line, found 3",
                 id="trailing-comment"),
    pytest.param("1\n2\nx\n4\n", r"m\.mtx:5: could not convert string to float: 'x'",
                 id="not-a-number"),
])
def test_matrix_market_value_lines_hold_one_value(tmp_path, capsys, values, message):
    path = tmp_path / "m.mtx"
    path.write_text(_MM + "2 2\n" + values)
    with pytest.raises(ValueError, match=message):
        matio.read_matrix(path)
    assert main(["kappa", "--matrix", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and str(path) in captured.err


def test_matrix_market_comments_between_values(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_MM + "% c\n2 2\n1\n% c\n\n2\n  %c\n3\n4\n")
    assert np.array_equal(matio.read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("dims", ["2.0 2", "-1 -1", "0 2", "2 0", "2", "2 2 2", "a b"])
def test_matrix_market_dimensions_are_two_positive_integers(tmp_path, capsys, dims):
    path = tmp_path / "m.mtx"
    path.write_text(_MM + dims + "\n1\n")
    with pytest.raises(ValueError, match=r"m\.mtx: malformed dimensions line .*"
                                         r"expected two positive integers"):
        matio.read_matrix(path)
    assert main(["kappa", "--matrix", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"condlab: {path}: malformed dimensions line {dims.split()!r}, "
            "expected two positive integers\n")


def test_read_vector_rejects_matrices(tmp_path):
    path = tmp_path / "m.csv"
    matio.write_matrix_csv(path, np.eye(2))
    with pytest.raises(ValueError):
        matio.read_vector(path)


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        matio.read_matrix(path)


def test_kappa_command(files, capsys):
    code, env = run_json(capsys, ["kappa", "--matrix", files["diag12.csv"], "--r", "2", "--s", "2"])
    assert code == 0
    assert env["payload"] == {"kappa": 2.0}
    assert env["inputs"]["dims"] == [2, 2]


def test_kappa_accepts_matrix_market(files, capsys):
    code, env = run_json(capsys, ["kappa", "--matrix", files["diag12.mtx"]])
    assert code == 0
    assert env["payload"] == {"kappa": 2.0}


def test_dist_command_with_identity_check(files, capsys):
    code, env = run_json(capsys, ["dist", "--matrix", files["diag12.csv"], "--r", "2", "--s", "2"])
    assert code == 0
    assert env["payload"] == {"distance": 1.0, "check_kappa_identity": True}


def test_norm_command_inf_spelling(files, capsys):
    code, env = run_json(capsys, ["norm", "--matrix", files["diag12.csv"], "--r", "inf", "--s", "inf"])
    assert code == 0
    assert env["payload"]["value"] == 2.0
    assert env["inputs"]["r"] == "inf"


def test_cond_and_mixed_commands(files, capsys):
    code, env = run_json(
        capsys, ["cond", "solve-both", "--matrix", files["diag12.csv"], "--vector", files["b.csv"]]
    )
    assert code == 0
    assert env["payload"]["value"] == pytest.approx(3.264911064067352)
    code, env = run_json(
        capsys, ["mixed", "--matrix", files["diag12.csv"], "--vector", files["b.csv"]]
    )
    assert code == 0
    assert env["payload"]["sandwich_ok"] is True


def test_nearest_singular_command(files, capsys):
    code, env = run_json(capsys, ["nearest-singular", "--matrix", files["diag12.csv"]])
    assert code == 0
    assert env["payload"]["singular_within_tolerance"] is True
    assert env["payload"]["perturbation_norm"] == pytest.approx(1.0, rel=1e-10)


def test_estimate_command(files, capsys):
    code, env = run_json(
        capsys,
        ["estimate", "inversion", "--matrix", files["diag12.csv"],
         "--delta", "1e-5,1e-6", "--samples", "50", "--seed", "3"],
    )
    assert code == 0
    assert env["payload"]["closed_form"] == 2.0
    assert env["payload"]["estimate"] == pytest.approx(2.0, rel=0.05)
    assert len(env["payload"]["per_delta"]) == 2


def test_solve_and_verify_tri(files, capsys):
    code, env = run_json(
        capsys,
        ["solve-tri", "--matrix", files["lower.csv"], "--vector", files["b.csv"]],
    )
    assert code == 0
    assert env["payload"]["solution"] == [1.0, -1.0]
    code, env = run_json(
        capsys,
        ["verify-tri", "--matrix", files["lower.csv"], "--vector", files["b.csv"],
         "--precision", "reduced"],
    )
    assert code == 0
    assert env["payload"]["satisfied"] is True


def test_experiment_command_json_and_csv(files, capsys):
    argv = ["experiment", "frob-inv", "--n", "2", "--trials", "3000", "--seed", "42"]
    code, env = run_json(capsys, argv)
    assert code == 0
    assert env["payload"]["verdict"] == "matches"
    stats = env["payload"]["per_size"][0]
    assert abs(stats["mean"] - 3.0) <= 4.0 * stats["std_error"]

    code = main(argv + ["--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("n,mean,std_error")
    assert row.split(",")[0] == "2"
    assert row.endswith("matches")


def test_exit_code_singular(files, capsys):
    assert main(["kappa", "--matrix", files["sing.csv"]]) == 0  # kappa = inf, not an error
    assert main(["dist", "--matrix", files["sing.csv"]]) == 2
    assert main(["nearest-singular", "--matrix", files["sing.csv"]]) == 2
    # inversion reports kappa = inf; A^-1 b does not exist, so every kind
    # that outputs it exits 2 (solve-fixed-b used to print Infinity)
    assert main(["cond", "inversion", "--matrix", files["sing.csv"]]) == 0
    for kind in ("solve-fixed-a", "solve-fixed-b", "solve-both"):
        argv = ["cond", kind, "--matrix", files["sing.csv"], "--vector", files["b.csv"]]
        assert main(argv) == 2, kind
    capsys.readouterr()


def test_estimate_exit_code_singular(files, capsys):
    assert main(["estimate", "inversion", "--matrix", files["sing.csv"]]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["inversion", "solve-fixed-b"])
def test_estimate_exit_code_delta_too_large(tmp_path, capsys, kind):
    # kappa_2(A) = 1e5: at delta = 1e-5 of the default schedule the worst
    # direction reaches the singular set, which is neither malformed input
    # nor a singular A; b = A v, v the last right singular vector, puts the
    # worst direction of solve-fixed-b there too
    a = conditioned(602, 5, 1e5)
    matio.write_matrix_csv(tmp_path / "a.csv", a)
    matio.write_matrix_csv(tmp_path / "b.csv", (a @ np.linalg.svd(a)[2][-1])[:, None])
    argv = ["estimate", kind, "--matrix", str(tmp_path / "a.csv"), "--samples", "20"]
    if kind != "inversion":
        argv += ["--vector", str(tmp_path / "b.csv")]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "A - E is singular at delta=1e-05" in captured.err


@pytest.mark.parametrize("kind", ["inversion", "solve-fixed-b", "solve-both"])
def test_estimate_exit_code_singular_sample(tmp_path, capsys, kind):
    # delta kappa_2 = 3.3 for diag(1, 3e-13) at delta = 1e-12: some samples
    # are singular, so the supremum is infinite; this used to exit 0 with a
    # finite estimate from redrawn samples
    matio.write_matrix_csv(tmp_path / "a.csv", np.diag([1.0, 3e-13]))
    matio.write_matrix_csv(tmp_path / "b.csv", np.array([[1.0], [-1.0]]))
    argv = ["estimate", kind, "--matrix", str(tmp_path / "a.csv"), "--delta", "1e-12",
            "--samples", "200", "--seed", "3"]
    if kind != "inversion":
        argv += ["--vector", str(tmp_path / "b.csv")]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "A - E is singular at delta=1e-12" in captured.err


@pytest.mark.parametrize("kind", ["matvec", "solve-fixed-a", "inversion"])
@pytest.mark.parametrize("delta", ["nan", "inf", "1e-4,nan"])
def test_estimate_exit_code_non_finite_delta(files, capsys, kind, delta):
    # matvec and solve-fixed-a used to exit 0 with a NaN estimate, and
    # inversion to blame the matrix entries
    argv = ["estimate", kind, "--matrix", files["diag12.csv"], "--delta", delta,
            "--samples", "5"]
    if kind != "inversion":
        argv += ["--vector", files["b.csv"]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"condlab: every delta must be finite, got {delta.split(',')[-1]}\n"


def test_exit_code_bad_input(files, capsys):
    assert main(["kappa"]) == 1  # missing --matrix
    assert main(["kappa", "--matrix", "/nonexistent/file.csv"]) == 1
    assert main(["kappa", "--matrix", files["diag12.csv"], "--r", "7"]) == 1
    assert main(["experiment", "frob-inv", "--n", "3", "--trials", "1"]) == 1
    capsys.readouterr()


def test_result_overflow_is_a_bad_input():
    # a value beyond DBL_MAX takes the CondLabError row of the exit table
    code = next(c for cls, c, _ in cli._EXIT_CODES if issubclass(ResultOverflow, cls))
    assert code == cli.EXIT_BAD_INPUT


@pytest.mark.parametrize("r,s,value", [
    ("1", "1", None), ("inf", "inf", None), ("inf", "1", None), ("inf", "2", None),
    ("2", "1", None), ("1", "2", 1e308 * np.sqrt(2.0)), ("2", "2", 1e308 * np.sqrt(2.0)),
    ("1", "inf", 1e308), ("2", "inf", 1e308 * np.sqrt(2.0))])
def test_norm_command_beyond_dbl_max(tmp_path, capsys, r, s, value):
    # 1e308 [[1, 1], [1, -1]]: a norm past DBL_MAX exits 1, where it printed
    # Infinity and exited 0; the finite norms keep their values
    path = tmp_path / "huge.csv"
    matio.write_matrix_csv(path, 1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    argv = ["norm", "--matrix", str(path), "--r", r, "--s", s]
    if value is None:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "condlab: operator norm exceeds the largest finite double\n"
    else:
        code, env = run_json(capsys, argv)
        assert code == 0
        assert env["payload"]["value"] == value


@pytest.fixture
def huge_vector(tmp_path, files):
    path = tmp_path / "huge_b.csv"
    matio.write_matrix_csv(path, np.array([[1e308], [1e308]]))
    return ["--matrix", files["diag12.csv"], "--vector", str(path)]


def test_matvec_cond_of_a_vector_near_dbl_max(capsys, huge_vector):
    # A x overflows for x = [1e308, 1e308]; the value and alpha, those of
    # x = [1, 1], are printed where NaN was
    code, env = run_json(capsys, ["cond", "matvec", *huge_vector])
    assert code == 0
    assert env["payload"]["value"] == pytest.approx(np.sqrt(8.0 / 5.0), rel=1e-15)
    assert env["payload"]["alpha"] == pytest.approx(np.sqrt(8.0 / 5.0) / 2.0, rel=1e-15)


@pytest.mark.parametrize("argv", [["cond", "solve-fixed-a"], ["cond", "solve-both"], ["mixed"]])
def test_vector_norm_beyond_dbl_max(tmp_path, capsys, huge_vector, argv):
    # ||b||_1 = 2e308, but the solution term does not change when b is
    # scaled: the command prints what it prints for b 2^-600, where it
    # exited 1 (and printed Infinity before that)
    small = tmp_path / "small_b.csv"
    matio.write_matrix_csv(small, np.ldexp(np.array([[1e308], [1e308]]), -600))
    outputs = []
    for vector in (huge_vector, [*huge_vector[:2], "--vector", str(small)]):
        assert main([*argv, *vector, "--r", "1", "--s", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    if argv[1:] == ["solve-fixed-a"]:
        assert json.loads(outputs[0])["payload"]["value"] == 4.0 / 3.0


_KINDS = ["inversion", "matvec", "solve-fixed-a", "solve-fixed-b", "solve-both"]
# every command that reads files, and whether it needs a vector as well
_FILE_COMMANDS = [
    pytest.param(argv, needs_vector, id=" ".join(argv))
    for argv, needs_vector in
    [(["norm"], False), (["kappa"], False), (["mixed"], True), (["dist"], False),
     (["nearest-singular"], False), (["solve-tri"], True), (["verify-tri"], True)]
    + [([name, kind], kind != "inversion") for name in ("cond", "estimate") for kind in _KINDS]
]


@pytest.mark.parametrize("argv,needs_vector", _FILE_COMMANDS)
def test_every_file_command_requires_a_matrix(files, capsys, argv, needs_vector):
    assert main(argv + ["--vector", files["b.csv"]]) == 1
    assert capsys.readouterr() == ("", "condlab: --matrix is required\n")


@pytest.mark.parametrize("argv,needs_vector", _FILE_COMMANDS)
def test_vector_is_required_where_the_problem_has_one(files, capsys, argv, needs_vector):
    argv = argv + ["--matrix", files["lower.csv"]]
    if argv[0] == "estimate":
        argv += ["--samples", "5", "--delta", "1e-6"]
    code = main(argv)
    captured = capsys.readouterr()
    if needs_vector:
        assert code == 1
        assert captured == ("", "condlab: --vector is required\n")
    else:
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["inputs"]["dims"] == [2, 2]


def test_experiment_reads_no_file(capsys):
    argv = ["experiment", "frob-inv", "--n", "2", "--trials", "3000", "--seed", "42",
            "--matrix", "/nonexistent/m.csv", "--vector", "/nonexistent/v.csv"]
    code, env = run_json(capsys, argv)
    assert code == 0
    assert "dims" not in env["inputs"]


@pytest.mark.parametrize("argv", [
    ["cond", "matvec"], ["cond", "solve-fixed-a"], ["estimate", "matvec", "--samples", "5"],
    ["mixed"],
])
def test_exit_code_non_finite_vector(files, tmp_path, capsys, argv):
    # these exited 0 with a NaN value (mixed: 3, a violated sandwich)
    (tmp_path / "nan.csv").write_text("1\nnan\n")
    argv = argv + ["--matrix", files["diag12.csv"], "--vector", str(tmp_path / "nan.csv")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "condlab: vector entries must be finite\n")


@pytest.mark.parametrize("command", ["solve-tri", "verify-tri"])
def test_triangular_commands_reject_nan(files, tmp_path, capsys, command):
    # these exited 0 reporting epsilon_cw = 0 and a satisfied bound
    (tmp_path / "nan.csv").write_text("1\nnan\n")
    (tmp_path / "lnan.csv").write_text("1,0\nnan,1\n")
    argv = [command, "--matrix", files["lower.csv"], "--vector", str(tmp_path / "nan.csv")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "condlab: right-hand side entries must be finite\n")
    argv = [command, "--matrix", str(tmp_path / "lnan.csv"), "--vector", files["b.csv"]]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "condlab: matrix entries must be finite\n")


@pytest.mark.parametrize("argv", [
    ["estimate", "matvec", "--samples", "5"],
    ["cond", "solve-fixed-a"],
    ["mixed"],
])
def test_exit_code_vector_of_the_wrong_length(tmp_path, capsys, argv):
    matio.write_matrix_csv(tmp_path / "a.csv", np.eye(4) + 0.25)
    matio.write_matrix_csv(tmp_path / "x.csv", np.ones((2, 1)))
    argv = argv + ["--matrix", str(tmp_path / "a.csv"), "--vector", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a vector of length 4 for a matrix with 4 columns, got length 2" in captured.err
    assert "matmul" not in captured.err


def test_exit_code_enum_dim(files, capsys, tmp_path):
    big = np.eye(25)
    path = tmp_path / "big.csv"
    matio.write_matrix_csv(path, big)
    assert main(["norm", "--matrix", str(path), "--r", "inf", "--s", "1"]) == 4
    # the gate also guards estimator runs that would need the (inf,1) norm
    assert main(["estimate", "inversion", "--matrix", str(path), "--r", "inf",
                 "--s", "1", "--delta", "1e-6", "--samples", "5"]) == 4
    capsys.readouterr()


def test_negative_max_enum_dim_is_bad_input(files, capsys):
    argv = ["norm", "--matrix", files["diag12.csv"], "--r", "inf", "--s", "1"]
    assert main(argv + ["--max-enum-dim", "-1"]) == 1
    assert capsys.readouterr() == ("", "condlab: --max-enum-dim must be nonnegative, got -1\n")
    assert main(argv + ["--max-enum-dim", "x"]) == 1
    assert capsys.readouterr() == (
        "", "condlab: argument --max-enum-dim: invalid int value: 'x'\n")
    assert main(argv + ["--max-enum-dim", "0"]) == 4
    capsys.readouterr()


def test_seed_outside_64_bits_is_bad_input(capsys):
    # the RNG reduces a seed mod 2^64, so -1 would alias 2^64 - 1 and 2^64 alias 0
    argv = ["experiment", "frob-inv", "--n", "2", "--trials", "300", "--format", "csv"]
    for seed in (-1, 2**64):
        assert main(argv + ["--seed", str(seed)]) == 1
        assert capsys.readouterr() == (
            "", f"condlab: --seed must be in [0, 2^64), got {seed}\n")
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()


# (option strings, dest, default, choices) of every action of each
# subcommand's parser, in declaration order
_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None)
_SHARED = [
    (("--matrix",), "matrix", None, None),
    (("--vector",), "vector", None, None),
    (("--r",), "r", "2", None),
    (("--s",), "s", "2", None),
    (("--max-enum-dim",), "max_enum_dim", 20, None),
    (("--format",), "format", "json", ["json", "csv"]),
    (("--seed",), "seed", 0, None),
]
_KIND = ((), "kind", None, _KINDS)
_COMMAND_ACTIONS = {
    "norm": [],
    "kappa": [],
    "cond": [_KIND],
    "mixed": [],
    "dist": [],
    "nearest-singular": [],
    "estimate": [_KIND, (("--delta",), "delta", "1e-4,1e-5,1e-6,1e-7", None),
                 (("--samples",), "samples", 1000, None)],
    "solve-tri": [(("--precision",), "precision", "working", ["working", "reduced"])],
    "verify-tri": [(("--precision",), "precision", "reduced", ["working", "reduced"])],
    "experiment": [((), "name", None, ["frob-inv", "kappa-sq", "log-kappa", "ql"]),
                   (("--n",), "n", "2,3,4,5,6,7,8", None),
                   (("--trials",), "trials", 10000, None)],
}


def _subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _actions(parser):
    return [(tuple(a.option_strings), a.dest, a.default, a.choices) for a in parser._actions]


def test_command_table_actions():
    # the full table, and each command's parser built alone, declare the same
    full = _subparsers(cli._build_parser())
    assert list(full) == list(_COMMAND_ACTIONS)
    for name, own in _COMMAND_ACTIONS.items():
        assert _actions(full[name]) == [_HELP] + _SHARED + own, name
        alone = _subparsers(cli._build_parser(name))
        assert list(alone) == [name]
        assert _actions(alone[name]) == [_HELP] + _SHARED + own, name


@pytest.mark.parametrize("name", list(_COMMAND_ACTIONS))
def test_command_help_matches_the_full_table(name, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([name, "--help"])
    assert exit_.value.code == 0
    alone = capsys.readouterr()
    assert alone.out.startswith(f"usage: condlab {name} [-h] ")
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args([name, "--help"])
    assert capsys.readouterr() == alone


def test_top_level_help_and_unknown_command_list_every_command(capsys):
    names = list(_COMMAND_ACTIONS)
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert f"{{{','.join(names)}}}" in capsys.readouterr().out
    choices = ", ".join(f"'{name}'" for name in names)
    # an unknown name, and an option placed before the command
    for argv, token in ((["kapa", "--matrix", "a.csv"], "kapa"),
                        (["--seed", "1", "kappa"], "1")):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "condlab: argument command: invalid choice: "
                                       f"'{token}' (choose from {choices})\n")


def test_a_named_command_builds_three_parsers(files, capsys, monkeypatch):
    # top level, shared options and the command; the full table has one per row
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._build_parser()
    assert len(built) == 2 + len(_COMMAND_ACTIONS) == 12
    for name in _COMMAND_ACTIONS:
        built.clear()
        cli._build_parser(name)
        assert len(built) == 3, name
    built.clear()
    assert main(["kappa", "--matrix", files["diag12.csv"]]) == 0
    assert len(built) == 3
    for argv in (["kapa"], []):
        built.clear()
        assert main(argv) == 1
        assert len(built) == 12
    capsys.readouterr()


def test_shared_options_are_declared_once(monkeypatch):
    declared = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        declared.extend(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    parser = cli._build_parser()
    for (option,), *_ in _SHARED:
        assert declared.count(option) == 1, option
    assert parser is not cli._build_parser()  # built per call, never cached


def test_exit_code_violated_bound(files, capsys, monkeypatch):
    # the backward-error bound holds for every honest input, so force an
    # unsatisfied report to pin the exit-code mapping itself
    from condlab import triangular

    def forged(lower, b, precision):
        return triangular.BackwardErrorReport(
            epsilon_cw=1.0, bound=1e-6, satisfied=False, residual=np.zeros(2)
        )

    monkeypatch.setattr(cli.triangular, "verify_backward_stability", forged)
    code = main(["verify-tri", "--matrix", files["lower.csv"],
                 "--vector", files["b.csv"], "--precision", "reduced"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["satisfied"] is False


def _csv_rows(out):
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    return {key: json.loads(value) for key, value in rows[1:]}


def test_flat_csv_format_for_scalar_commands(files, capsys):
    code = main(["kappa", "--matrix", files["diag12.csv"], "--format", "csv"])
    assert code == 0
    assert _csv_rows(capsys.readouterr().out) == {"kappa": 2.0}
    code = main(["norm", "--matrix", files["diag12.csv"], "--r", "inf", "--s", "1",
                 "--format", "csv"])
    assert code == 0
    assert _csv_rows(capsys.readouterr().out) == {
        "value": 3.0, "method": "vertex_enumeration", "attainer": [1.0, 1.0]}


def test_kappa_of_matrix_scaled_to_tiny_exponent(tmp_path, capsys):
    a = np.random.default_rng(560).standard_normal((64, 64))
    matio.write_matrix_csv(tmp_path / "a.csv", a)
    matio.write_matrix_csv(tmp_path / "tiny.csv", np.ldexp(a, -560))
    code, env = run_json(capsys, ["kappa", "--matrix", str(tmp_path / "tiny.csv")])
    assert code == 0
    assert np.isfinite(env["payload"]["kappa"])
    _, unscaled = run_json(capsys, ["kappa", "--matrix", str(tmp_path / "a.csv")])
    assert env["payload"] == unscaled["payload"]


def test_cond_inversion_needs_no_vector(files, capsys):
    code, env = run_json(capsys, ["cond", "inversion", "--matrix", files["diag12.csv"]])
    assert code == 0
    assert env["payload"]["value"] == 2.0


def test_byte_identical_reruns(files, capsys):
    argv = ["estimate", "inversion", "--matrix", files["diag12.csv"],
            "--delta", "1e-5", "--samples", "25", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_json_inf_serialization(files, capsys):
    code = main(["kappa", "--matrix", files["sing.csv"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "Infinity" in out  # singular input reports kappa = inf
