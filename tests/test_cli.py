import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import random_essential

from arrops import cli, freebasis, verify
from arrops.diffop import FactoredOp
from arrops.errors import ParseError, ZeroDet
from arrops.polynomial import Poly


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exponents_subcommand(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--m", "3", "x1", "x2", "x3", "x1-x2")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"] == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3]
    assert data["identities"]["count"]["ok"] and data["identities"]["sum"]["ok"]


def test_basis_subcommand(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "x1", "x2", "x3", "x1-x2")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"] == [1, 2, 2, 2, 2, 3]
    assert len(data["operators"]) == 6
    # the certificate's output is c and t only: the input forms and t fix Q^t
    assert sorted(data["saito"]) == ["c", "t"] and data["saito"]["t"] == 3
    degrees = sorted(entry["degree"] for entry in data["operators"])
    assert degrees == [1, 2, 2, 2, 2, 3]


def test_verify_expands_no_operator_and_no_determinant(capsys, monkeypatch):
    # the certificate reads the cores only, and verify prints c and t
    def expanded(self):
        raise AssertionError("expanded")

    monkeypatch.setattr(FactoredOp, "op", property(expanded))
    monkeypatch.setattr(verify.SaitoCertificate, "det", property(expanded))
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "x1", "x2", "x3", "x1-x2", "x2-x3")
    assert code == 0 and json.loads(out)["oracle"] == "consistent"


@pytest.mark.parametrize(
    "forms",
    [
        ["--m", "3", "x1", "x2", "x3", "2*x1-3*x2", "x1+x2+x3"],
        ["--m", "3", "--dim", "2", "x1", "x2", "x1-x2"],
        ["--m", "2", "--dim", "3", "x1", "x2", "x1-x2"],
    ],
    ids=["essential", "2arr", "rank2"],
)
def test_basis_output_decodes_no_operator(capsys, monkeypatch, forms):
    # the certificate reads the packed cores, and the printed operators are
    # multiplied out and printed on packed keys: no tuple-keyed core, operator
    # or coefficient text is built
    expected = run_cli(capsys, "basis", *forms)

    def decoded(self):
        raise AssertionError("decoded")

    monkeypatch.setattr(FactoredOp, "core", property(decoded))
    monkeypatch.setattr(FactoredOp, "op", property(decoded))
    monkeypatch.setattr(Poly, "text", decoded)
    assert run_cli(capsys, "basis", *forms) == expected
    assert expected[0] == 0


def test_verify_samples_the_arrangement_once(capsys, monkeypatch):
    # the certificate's sample of points is the oracle's too
    built = []
    init = verify._Planes.__init__
    monkeypatch.setattr(verify._Planes, "__init__", lambda self, arr, m: built.append(m) or init(self, arr, m))
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "x1", "x2", "x3", "x1-x2", "x2-x3")
    assert code == 0 and json.loads(out)["oracle"] == "consistent"
    assert built == [3]


def test_verify_evaluates_each_monomial_at_each_point_once(capsys, monkeypatch):
    # the certificate's membership test and its determinant point read one
    # table of monomial values per sample and degree; the oracle's peeled
    # etas evaluate no monomial
    seen = []
    power = verify._int_pow
    monkeypatch.setattr(verify, "_int_pow", lambda point, exp: seen.append((point, exp)) or power(point, exp))
    for forms in (["--m", "2", "x1", "x2", "x3", "x1-x2"], ["--m", "3", "x1", "x2", "x3", "x1-x2", "x2-x3"]):
        seen.clear()
        code, out, _ = run_cli(capsys, "verify", *forms)
        assert code == 0 and json.loads(out)["oracle"] == "consistent"
        assert seen and len(seen) == len(set(seen)), forms


def test_basis_explicit_extension_echoed(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--m", "3", "--extension", "x1+x2-x3", "x1", "x2", "x3", "x1-x2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["extension"]["added"] == ["x1 + x2 - x3"]
    assert data["exponents"] == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3]


@pytest.mark.parametrize("command", ["basis", "verify"])
@pytest.mark.parametrize(
    ("extension", "forms"),
    [("x1+x2", ["--dim", "2", "x1", "x2", "x1-x2"]), ("x1+x2+x3", ["--dim", "3", "x1", "x2", "x1-x2"])],
    ids=["2-arrangement", "rank-2-3-arrangement"],
)
def test_unused_extension_is_user_error(capsys, command, extension, forms):
    # only an essential 3-arrangement is extended: elsewhere a given
    # extension would be ignored, so it is refused; 'auto' is accepted
    code, out, err = run_cli(capsys, command, "--m", "2", "--extension", extension, *forms)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "--extension" in err
    code, _, _ = run_cli(capsys, command, "--m", "2", "--extension", "auto", *forms)
    assert code == 0


def test_basis_order_too_small_is_user_error(capsys):
    code, _, err = run_cli(capsys, "basis", "--m", "1", "x1", "x2", "x3", "x1-x2")
    assert code == 1
    assert "n - 2" in err


def test_negative_order_is_user_error(capsys):
    for command in ("basis", "verify", "oracle"):
        extra = ["--max-degree", "2"] if command == "oracle" else []
        code, out, err = run_cli(capsys, command, "--m", "-1", *extra, "x1", "x2", "x3", "x1-x2")
        assert code == 1 and out == "", command
        assert "--m must be >= 0, got -1" in err, command


def test_negative_max_degree_is_user_error(capsys):
    for command, degree in (("verify", "-1"), ("oracle", "-3")):
        code, out, err = run_cli(capsys, command, "--m", "2", "--max-degree", degree, "x1", "x2", "x3", "x1-x2")
        assert code == 1 and out == "", command
        assert f"--max-degree must be >= 0, got {degree}" in err, command


@pytest.mark.parametrize(
    ("argv", "named"),
    [(["nonsense"], "'nonsense'"), (["basis", "--m", "x", "x1", "x2", "x3"], "--m"), (["basis", "x1", "x2", "x3"], "--m"), (["--help"], None)],
    ids=["unknown-command", "non-integer-order", "missing-order", "help"],
)
def test_usage_errors_are_user_errors(capsys, argv, named):
    # argparse's usage errors exit 1 with an "error:" line, like every other
    # user error, not 2, the verification-failure code; --help exits 0
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    if named is None:
        assert code == 0 and captured.out.startswith("usage: arrops")
    else:
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err and "\n" not in captured.err[:-1]


def test_dimension_one_is_user_error(capsys, tmp_path):
    path = tmp_path / "line.json"
    path.write_text('{"l": 1, "hyperplanes": [[1]]}', encoding="utf-8")
    for args in (["--dim", "1", "x1"], ["--dim", "1", "--input", str(path)], ["--input", str(path)]):
        code, out, err = run_cli(capsys, "basis", "--m", "2", *args)
        assert code == 1 and out == "", args
        assert "supported ambient dimensions are 2 and 3, got 1" in err, args


@pytest.mark.parametrize(("dim", "form"), [("-1", "x1"), ("0", "0")])
def test_unsupported_dimension_is_checked_before_the_forms(capsys, dim, form):
    # a form read first would report a variable beyond the dimension or a zero form
    code, out, err = run_cli(capsys, "lattice", "--dim", dim, form)
    assert code == 1 and out == ""
    assert err == f"error: supported ambient dimensions are 2 and 3, got {dim}\n"


@pytest.mark.parametrize(("given", "declared"), [(2, 3), (3, 2)])
def test_conflicting_dimension_is_user_error(capsys, tmp_path, given, declared):
    path = tmp_path / "arr.json"
    normals = [[int(i == j) for j in range(declared)] for i in range(2)]
    path.write_text(json.dumps({"l": declared, "hyperplanes": normals}), encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice", "--dim", str(given), "--input", str(path))
    assert code == 1 and out == ""
    assert f"dimension {given} conflicts" in err and f'"l": {declared}' in err


def test_closed_pipe_exits_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "arrops", "lattice", "x1", "x2", "x3", "x1-x2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_malformed_input_exits_without_traceback(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text('{"l": 3, "hyperplanes": [["1/0", 0, 1]]}', encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for args in (["--input", str(path)], ["1/0*x1", "x2", "x3"]):
        proc = subprocess.run(
            [sys.executable, "-m", "arrops", "lattice", *args], capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 1 and proc.stdout == b"", args
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr, args


@pytest.mark.parametrize(
    ("data", "offset"),
    [(b"\xff\xfe x1; x2", 0), ('{"l": 3, "forms": ["x1", "x2", "x3"]}'.encode("utf-16"), 0), (b"x1; x2; \xc3 x3", 8)],
    ids=["latin-1-bytes", "utf-16-json", "bad-continuation"],
)
def test_input_that_is_not_utf8_is_a_user_error(capsys, tmp_path, data, offset):
    path = tmp_path / "arr.txt"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "lattice", "--input", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path} is not UTF-8: ") and err.endswith(f" at byte offset {offset}\n")
    assert err.count("\n") == 1


def test_import_path_loads_no_dataclasses_or_inspect():
    # a fresh interpreter imports the package and builds the parser without
    # the stdlib's code-introspection modules, which cost start-up time
    probe = (
        "import sys; before = set(sys.modules); import arrops.cli; arrops.cli._make_parser(); "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60, check=True)
    assert proc.stdout.split() == []


LONG = "1" * 5000  # more digits than int() reads from a string


@pytest.mark.parametrize(
    ("args", "what"),
    [(["x" + LONG], "variable index in"), ([LONG + "*x1", "x2"], f"coefficient '{LONG}' in"), (["--input"], f"matrix entry '{LONG}'")],
    ids=["variable", "coefficient", "JSON entry"],
)
def test_digits_past_the_conversion_limit_are_user_errors(capsys, tmp_path, args, what):
    if args == ["--input"]:
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"l": 3, "hyperplanes": [[LONG, 0, 1], [0, 1, 0]]}), encoding="utf-8")
        args = ["--input", str(path)]
    code, out, err = run_cli(capsys, "lattice", *args)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {what}")
    assert err.endswith(f" exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion\n")


def test_output_independent_of_hash_seed():
    forms = random_essential(random.Random(3), 5).text().split("; ")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in (
        ["verify", "--m", "2", "x1", "x2", "x3", "x1-x2"],
        ["identities", "--m", "3", *forms],
        ["basis", "--m", "3", *forms],
    ):
        outputs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "arrops", *argv],
                capture_output=True,
                env=dict(env, PYTHONHASHSEED=seed),
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


def test_bad_form_is_user_error(capsys):
    code, _, err = run_cli(capsys, "exponents", "--m", "2", "x1", "x1")
    assert code == 1
    assert "repeated" in err


def test_lattice_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lattice", "x1", "x2", "x3", "x1-x2")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3 and data["essential"]
    assert [f["direction"] for f in data["flats"]] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 0]]


def test_lattice_empty_arrangement(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"l": 3, "hyperplanes": []}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "lattice", "--input", str(path))
    assert code == 0
    assert json.loads(out)["flats"] == []


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "x1", "x2", "x3", "x1-x2")
    assert code == 0
    data = json.loads(out)
    assert data["oracle"] == "consistent"
    assert data["saito"]["t"] == 3
    assert data["identities"]["rank_identity"]["ok"]


def test_verify_computes_flat_profiles_once(capsys, monkeypatch):
    # wrap flat_profiles at every name an arrops module binds it to, as the
    # benchmark's traced run does
    from arrops import extension

    original = extension.flat_profiles
    calls = []

    def counted(ext):
        calls.append(ext)
        return original(ext)

    for name, module in list(sys.modules.items()):
        if (name == "arrops" or name.startswith("arrops.")) and vars(module).get("flat_profiles") is original:
            monkeypatch.setattr(module, "flat_profiles", counted)
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "x1", "x2", "x3", "x1-x2")
    assert code == 0 and json.loads(out)["oracle"] == "consistent"
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # the auto extension adds two planes: the base, one intermediate and
        # the extended arrangement each have a lattice
        "verify --m 4 x1 x2 x3 x1-x2",
        "identities --m 4 x1 x2 x3 x1-x2",
        "basis --m 3 x1 x2 x3 x1-x2",
        "exponents --m 3 x1 x2 x3 x1-x2",
    ],
    ids=["verify", "identities", "basis", "exponents"],
)
def test_each_arrangement_computes_its_lattice_once(capsys, monkeypatch, argv):
    # wrap the lattice builder: rank, kernel and flats come from one record
    # per arrangement object, however often they are read
    from arrops.arrangement import Arrangement

    prop = vars(Arrangement)["lattice"]
    built = []
    monkeypatch.setattr(prop, "func", lambda arr, build=prop.func: built.append(arr) or build(arr))
    code, _, _ = run_cli(capsys, *argv.split())
    assert code == 0 and built
    assert len({id(arr) for arr in built}) == len(built), argv


def test_identities_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "identities", "--m", "3", "--extension", "x1+x2-x3", "x1", "x2", "x3", "x1-x2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["identities"]["flat_count_identity"] == {"lhs": 8, "rhs": 8, "ok": True}


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "1", "--max-degree", "2", "x1", "x2", "x3")
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [{"d": 0, "dim": 0}, {"d": 1, "dim": 3}, {"d": 2, "dim": 9}]


def test_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "basis", "--m", "2", "x1", "x2", "x3", "x1-x2")
    _, second, _ = run_cli(capsys, "basis", "--m", "2", "x1", "x2", "x3", "x1-x2")
    assert first == second


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "exponents", "--m", "2", "--format", "text", "x1", "x2", "x3", "x1-x2")
    assert code == 0
    assert "exponents: [1, 2, 2, 2, 2, 3]" in out


def test_internal_failure_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDet("forced failure")

    monkeypatch.setattr(cli, "build_basis", broken)
    code, _, err = run_cli(capsys, "basis", "--m", "2", "x1", "x2", "x3", "x1-x2")
    assert code == 2
    assert "verification failure" in err


def test_nonessential_basis_via_cli(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "--dim", "3", "x1", "x2", "x1-x2")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"] == [0, 1, 2, 2, 2, 2]


def test_two_variable_basis_via_cli(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "2", "--dim", "2", "x1", "x2", "x1-x2")
    assert code == 0
    data = json.loads(out)
    assert data["exponents"] == [2, 2, 2]
    code, out, _ = run_cli(capsys, "verify", "--m", "1", "--dim", "2", "x1", "x2")
    assert code == 0
    assert json.loads(out)["oracle"] == "consistent"


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("lattice x1 x2 x3 x1-x2", "733ff595b93766a4d084af61b3fbd94c3c6e88d3f39cd7acc06afb02a00aef86"),
        ("lattice --dim 2 x1 x2 x1-x2", "4fd195a9658e32b0713bb86cb2bcd454941a5eb272fb641b77cbf76620918b9c"),
        ("lattice --dim 2 --format text x1 x2 x1-x2", "a70ddbc21f66b45350e583ffbb49bde1edf0e048f31e3bc80da00e2db738def1"),
        # a flat direction whose first nonzero entry is 3, so the rational
        # section and kernel forms have denominators
        (
            "lattice --format text x1 x2 x3 2*x1-3*x2 x1+x2+x3",
            "28ee30b7f5e9639acd0e276b865b6dc8dd52f2e51c428738e04a107eb9f76cce",
        ),
        ("identities --m 3 x1 x2 x3 x1-x2", "0bff6561e540bd13b4ccdfea147d68d2772cb4c4f71adac12d2e90bebb355779"),
        # x1 + x2 passes through the base flat (0, 0, 1): condition A is false
        (
            "identities --m 3 --extension x1+x2 x1 x2 x3 x1-x2",
            "0a4f697b1c8c31c47e8c7295d0ff9de29c9a365c77b6c93ac0f486eec3a0e0f1",
        ),
        ("exponents --m 3 x1 x2 x3 x1-x2", "bb4e6edfdb57c135e6f919d6b79e8d0254f6cf84f7db379c694919d094fc0e13"),
        ("exponents --m 3 --dim 3 x1 x2 x1-x2", "bcb0fe5eb7a02940746ae5342d6c0eba2a2e1bbda0e8951a8d70b802a30f4395"),
    ],
    ids=["lattice-quad", "lattice-2arr", "lattice-2arr-text", "lattice-text", "identities-auto", "identities-given", "exponents-essential", "exponents-rank2"],
)
def test_lattice_identities_exponents_output_bytes(capsys, argv, digest):
    # the lattice's three readers print bytes pinned before the lattice
    # became one record per arrangement
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("oracle --m 4 --max-degree 8 x1 x2 x3 x1-x2 x1-x3 x2-x3", "7ee428890b78669f3e6c419452d66468cd638100ba73ae1f0eb8f26e11c89043"),
        # K_X at a flat of four planes, K_H at m = 6
        ("oracle --m 6 --max-degree 10 x1 x2 x1-x2 x1+x2 x3", "d69b27c1a807c0e7904c6796467171ad0984d3607ab581f965f17bedb26e6b0a"),
        ("oracle --m 3 --dim 2 --max-degree 6 x1 x2 x1-x2 2*x1+x2", "8d02289a557b9b62c6dd5550aa4755de8be71e43e456b09bcfe9ba7ed634369f"),
        ("oracle --m 3 --max-degree 6 --format text x1 x2 x3 x1-x2 x2-x3", "5808c6fd1f7e6c4709edf12ba1bb98d43aeb5c2725b253b7051a1138299ac19d"),
        ("verify --m 3 x1 x2 x3 x1-x2 x2-x3", "8d01cdf3b39547ae583ed605d875dbe7b37682712a1b9885e3928b9cb3499646"),
    ],
    ids=["oracle-braid", "oracle-quadruple-point", "oracle-2arr", "oracle-text", "verify-quad5"],
)
def test_oracle_verify_output_bytes(capsys, argv, digest):
    # the oracle's dimensions and verify's report, pinned before the
    # contraction kernels were built from shared packed powers
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("basis --m 3 x1 x2 x3 x1-x2", "1265d2c45de0a783645f861a26adad8185e854bf6359b494f345c2457681b540"),
        ("basis --m 3 --dim 2 x1 x2 x1-x2", "33f24d1d871e03f73c75b409df63eca0ce51534dbe943b99c67ca6fe22c26caa"),
        ("basis --m 3 x1 x2 x3 2*x1-3*x2 x1+x2+x3", "edb98bf5c069bbb437681e6dbea46809d138ff6c0958a1b60441cc03c7a60082"),
        ("basis --m 2 --format text x1 x2 x3 x1-x2", "6ac0344085fadaa252b09a83b3031b81fa9f4ef1c7bc0beed8c8a027ddb65105"),
    ],
    ids=["basis-quad", "basis-2arr", "basis-five-planes", "basis-text"],
)
def test_basis_output_bytes(capsys, argv, digest):
    # basis prints the largest reports; pinned while the JSON report was
    # still printed by json.dumps(..., indent=2)
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {"m": [0.5]}, {1: "x"}, {"a": {2: 0}}], ids=["fraction", "float", "nested-float", "int-key", "nested-int-key"])
def test_report_printer_refuses_non_json_types(value):
    # reports are exact: a float or Fraction reaching the printer is a bug,
    # and json.dumps would print an int key as a string
    with pytest.raises(TypeError):
        cli.emit_report(value, "json")


def decimal_digits(n: int) -> str:
    """The decimal digits of n > 0, 100 at a time by repeated divmod."""
    chunks = []
    while n:
        n, r = divmod(n, 10**100)
        chunks.append(r)
    return str(chunks[-1]) + "".join(f"{r:0100d}" for r in reversed(chunks[:-1]))


def test_report_prints_ints_past_the_conversion_limit(monkeypatch):
    # CPython refuses str() of an int of more than 4300 digits; a certified c
    # of 5000 digits, and a bare int of as many, still print exactly, through
    # run and emit_report in JSON and text
    big = 3**10478
    digits = decimal_digits(big)
    assert len(digits) == 5000
    check = freebasis.saito_check

    def with_big_c(ops, arr):
        cert = check(ops, arr)
        return verify.SaitoCertificate(Fraction(-big, 7), cert.t, cert.arr, cert.sample)

    monkeypatch.setattr(freebasis, "saito_check", with_big_c)
    result, code = cli.run(cli._make_parser().parse_args("basis --m 2 x1 x2 x3 x1-x2".split()))
    assert code == 0
    assert json.loads(cli.emit_report(result, "json"))["saito"]["c"] == f"-{digits}/7"
    assert f"saito.c: -{digits}/7" in cli.emit_report(result, "text").splitlines()
    assert cli.emit_report({"n": big, "signs": [big, -big]}, "json") == f'{{\n  "n": {digits},\n  "signs": [\n    {digits},\n    -{digits}\n  ]\n}}'
    assert cli.emit_report({"n": big, "signs": [big, {"c": -big}]}, "text") == f'n: {digits}\nsigns: [{digits}, {{"c": -{digits}}}]'


A, B = 10**2500 - 1, 10**2500  # 2500 nines; 1 and 2500 zeros


@pytest.mark.parametrize(
    "argv, printed",
    [
        # the flat of A*x1 + x2 and x3 has direction (1, -A, 0), and its
        # operator x2 * (d1 - A*d2)^2 the coefficient A^2 (packed_text)
        (f"basis --m 2 {A}*x1+x2 x2 x3", f'"{decimal_digits(A * A)}*x2"'),
        # the first two planes meet in the direction (B, -AB, A): its delta
        (f"lattice {A}*x1+x2 x2+{B}*x3 x1", f'"-{decimal_digits(A * B)}"'),
        # the normal of 1/A*x1 + 1/A8*x2 + x3 is (A8, A, A * A8), A8 = 10A + 8,
        # coprime to A: its form text (Hyperplane.text)
        (f"lattice 1/{A}*x1+1/{A}8*x2+x3 x2 x3", f'"{10 * A + 8}*x1 + {A}*x2 + {decimal_digits(A * (10 * A + 8))}*x3"'),
    ],
    ids=["basis-terms", "lattice-flat", "lattice-form"],
)
def test_report_prints_every_number_past_the_conversion_limit(argv, printed):
    # each input has 2500-digit coefficients and prints a number of about
    # 5000 digits, past the 4300 at which CPython's str() of an int stops
    result, code = cli.run(cli._make_parser().parse_args(argv.split()))
    assert code == 0
    for fmt in ("json", "text"):
        assert printed in cli.emit_report(result, fmt)


def test_constant_past_the_conversion_limit_is_named():
    # two constants of 4300 digits each, within the limit, sum to 4301 digits
    c = 10**4300 - 1
    with pytest.raises(ParseError) as info:
        cli.run(cli._make_parser().parse_args(["lattice", f"{c} + {c} + x1", "x2", "x3"]))
    assert str(info.value).endswith(f" has constant term {decimal_digits(2 * c)}")
