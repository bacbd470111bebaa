import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import random_essential

from arrops import cli, verify
from arrops.diffop import FactoredOp
from arrops.errors import ZeroDet


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


def test_verify_samples_the_arrangement_once(capsys, monkeypatch):
    # the certificate's sample of points is the oracle's too
    built = []
    init = verify._Planes.__init__
    monkeypatch.setattr(verify._Planes, "__init__", lambda self, arr, m: built.append(m) or init(self, arr, m))
    code, out, _ = run_cli(capsys, "verify", "--m", "3", "x1", "x2", "x3", "x1-x2", "x2-x3")
    assert code == 0 and json.loads(out)["oracle"] == "consistent"
    assert built == [3]


def test_verify_evaluates_each_monomial_at_each_point_once(capsys, monkeypatch):
    # the certificate's membership test, its determinant point and the
    # oracle's etas read one table of monomial values per sample and degree
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
