"""Command-line front end.

Subcommands: lattice, exponents, basis, verify, identities, oracle.
Inline forms, ``--input`` and ``--extension`` share one form parser
(integer coefficients stay ``int``).  ``basis``, ``identities`` and
``verify`` share one sequence: extension, basis, oracle table.
Exit codes: 0 success, 1 user error (or a reader that closed stdout early),
2 internal verification failure (a failed determinant certificate, identity
or oracle mismatch).  No
environment variables are consulted; identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .arrangement import Arrangement, parse_arrangement
from .errors import ArropsError, BadOrder, IdentityViolated, SaitoFailed, ZeroNormalizer
from .exponents import exp_for_arrangement
from .extension import extend, hyperplanes_from_forms
from .freebasis import build_basis
from .polynomial import s_dim
from .verify import check_identities, hilbert_check, oracle_dims

USER_ERROR = 1
VERIFICATION_ERROR = 2


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrops",
        description="Exact operator-module computations for central hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_m: bool = False) -> None:
        p.add_argument("--input", help="path to an arrangement file (JSON or ';'-separated forms)")
        p.add_argument("forms", nargs="*", help="inline linear forms, e.g. x1 x2 x3 x1-x2")
        p.add_argument("--dim", type=int, default=None, help="ambient dimension (default: inferred)")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if needs_m:
            p.add_argument("--m", type=int, required=True, help="operator order")

    common(sub.add_parser("lattice", help="rank-2 flats and localizations"))
    common(sub.add_parser("exponents", help="closed-form exponent multiset"), needs_m=True)

    basis_p = sub.add_parser("basis", help="construct and certify a free basis")
    common(basis_p, needs_m=True)
    basis_p.add_argument("--extension", default="auto", help="'auto' or ';'-separated extra forms")

    verify_p = sub.add_parser("verify", help="basis + certificate + oracle consistency")
    common(verify_p, needs_m=True)
    verify_p.add_argument("--extension", default="auto")
    verify_p.add_argument("--max-degree", type=int, default=None, help="largest degree checked by the oracle")

    ident_p = sub.add_parser("identities", help="exact counting identities of an extension")
    common(ident_p, needs_m=True)
    ident_p.add_argument("--extension", default="auto")

    oracle_p = sub.add_parser("oracle", help="exact module dimensions per degree")
    common(oracle_p, needs_m=True)
    oracle_p.add_argument("--max-degree", type=int, required=True)

    return parser


def _load_arrangement(args: argparse.Namespace) -> Arrangement:
    if args.input and args.forms:
        raise ArropsError("give either --input or inline forms, not both")
    if args.input:
        text = Path(args.input).read_text(encoding="utf-8")
    elif args.forms:
        text = "; ".join(args.forms)
    else:
        raise ArropsError("no arrangement given; use --input or inline forms")
    return parse_arrangement(text, dim=args.dim)


def _check_nonnegative(args: argparse.Namespace) -> None:
    if getattr(args, "m", None) is not None and args.m < 0:
        raise BadOrder(f"--m must be >= 0, got {args.m}")
    if getattr(args, "max_degree", None) is not None and args.max_degree < 0:
        raise ArropsError(f"--max-degree must be >= 0, got {args.max_degree}")


def run(args: argparse.Namespace) -> tuple[dict, int]:
    _check_nonnegative(args)
    arr = _load_arrangement(args)
    out: dict = {"input": arr.to_json()}

    if args.command == "lattice":
        rank, kernel = arr.rank_and_kernel()
        out["rank"] = rank
        out["essential"] = rank == arr.dim
        out["kernel"] = [list(v) for v in kernel]
        out["flats"] = [f.to_json() for f in arr.flats()]
        return out, 0

    if args.command == "exponents":
        exps = exp_for_arrangement(arr, args.m)
        expected_count = s_dim(args.m, arr.dim)
        expected_sum = arr.n * args.m if arr.dim == 2 else arr.n * (args.m * (args.m + 1) // 2)
        out["m"] = args.m
        out["exponents"] = list(exps.entries)
        out["identities"] = {
            "count": {"value": len(exps), "expected": expected_count, "ok": len(exps) == expected_count},
            "sum": {"value": sum(exps.entries), "expected": expected_sum, "ok": sum(exps.entries) == expected_sum},
        }
        return out, 0

    if args.command == "oracle":
        out["m"] = args.m
        out["dims"] = [{"d": d, "dim": dim} for d, dim in enumerate(oracle_dims(arr, args.m, args.max_degree))]
        return out, 0

    # basis, identities and verify: the extension, then the basis, then the oracle table
    ext = None
    if args.command == "identities" or (arr.dim == 3 and arr.is_essential()):
        added = None
        if args.extension != "auto":
            added = hyperplanes_from_forms([f for f in args.extension.split(";") if f.strip()], dim=arr.dim)
        ext = extend(arr, args.m, added)
        out["extension"] = ext.to_json()
        if args.command != "basis":
            out["identities"] = check_identities(ext)
    elif args.extension != "auto":
        raise ArropsError(f"--extension needs an essential 3-arrangement, got dimension {arr.dim}, rank {arr.rank()}")
    if args.command == "identities":
        return out, 0
    basis = build_basis(arr, args.m, ext)
    out["m"] = args.m
    out["exponents"] = list(basis.exponents)
    out["saito"] = basis.saito.to_json()
    if args.command == "basis":
        out["operators"] = basis.to_json()
        return out, 0
    d_max = args.max_degree if args.max_degree is not None else max(basis.exponents) + 2
    report = hilbert_check(arr, args.m, basis.exponents, d_max, basis.saito.sample)
    out["oracle"] = report.to_json()["verdict"]
    out["oracle_table"] = report.to_json()["table"]
    return out, 0 if report.consistent else VERIFICATION_ERROR


def emit_report(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, sort_keys=True, indent=2)
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix[:-1]}: {value}")

    walk("", result)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        result, code = run(args)
    except (SaitoFailed, IdentityViolated, ZeroNormalizer) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFICATION_ERROR
    except (ArropsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    try:
        print(emit_report(result, args.format), flush=True)
    except BrokenPipeError:
        # the reader went away (``arrops ... | head``): send the rest of the
        # output, and the final flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USER_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
