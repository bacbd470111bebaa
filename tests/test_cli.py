import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrops import cli
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
    assert data["saito"]["t"] == 3
    degrees = sorted(entry["degree"] for entry in data["operators"])
    assert degrees == [1, 2, 2, 2, 2, 3]


def test_basis_explicit_extension_echoed(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--m", "3", "--extension", "x1+x2-x3", "x1", "x2", "x3", "x1-x2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["extension"]["added"] == ["x1 + x2 - x3"]
    assert data["exponents"] == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3]


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
