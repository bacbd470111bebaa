"""Per-case correctness checks, run outside the timed region.

``check`` returns None when the CLI result matches what the case expects,
otherwise a one-line reason.  Expected values come from the closed forms
(computed when the case was generated) and from the benchmark's own
free-module prediction ``sum_e s_{d-e}``, never from the result itself.
"""

from __future__ import annotations

from fractions import Fraction

from workloads import Case, s_dim


def check(case: Case, code: int, result: dict) -> str | None:
    if code != 0:
        return f"exit code {code}"
    exp = case.expect
    cmd = case.command
    if cmd == "lattice":
        if result["rank"] != exp["rank"]:
            return f"rank {result['rank']} != {exp['rank']}"
        if len(result["flats"]) != exp["flats"]:
            return f"{len(result['flats'])} flats != {exp['flats']}"
        return None
    if cmd in ("basis", "verify", "exponents") and result["exponents"] != exp["exponents"]:
        return f"exponents {result['exponents']} != closed form {exp['exponents']}"
    if "golden" in exp and result["exponents"] != exp["golden"]:
        return f"exponents {result['exponents']} != golden {exp['golden']}"
    if cmd in ("basis", "verify"):
        saito = result["saito"]
        if Fraction(saito["c"]) == 0:
            return "certificate constant c is 0"
        if saito["t"] != exp["t"]:
            return f"certificate t = {saito['t']} != {exp['t']}"
        if len(result["exponents"]) != s_dim(case.m, case.arr.dim):
            return f"{len(result['exponents'])} operators != module rank {s_dim(case.m, case.arr.dim)}"
    if cmd in ("exponents", "identities"):
        bad = [k for k, v in result["identities"].items() if not v["ok"]]
        if bad:
            return f"identities failed: {bad}"
    if cmd == "identities" and result["identities"]["rank_identity"]["lhs"] != exp["module_rank"]:
        return "rank identity lhs is not s_dim(m, 3)"
    if cmd == "verify":
        if result["oracle"] != "consistent":
            return f"oracle verdict {result['oracle']}"
        dims = [row["dim"] for row in result["oracle_table"]]
        if dims != exp["dims"]:
            return f"oracle dims {dims} != predicted {exp['dims']}"
    if cmd == "oracle":
        dims = [row["dim"] for row in result["dims"]]
        if dims != exp["dims"]:
            return f"oracle dims {dims} != predicted {exp['dims']}"
    return None
