"""Command-line front end.

Subcommands: lattice, exponents, basis, verify, identities, oracle.
Inline forms, ``--input`` and ``--extension`` share one form parser
(integer coefficients stay ``int``).  ``basis``, ``identities`` and
``verify`` share one sequence: extension, basis, oracle table.
Exit codes: 0 success, 1 user error (argparse's usage errors included, or
a reader that closed stdout early), 2 internal verification failure (a
failed determinant certificate, identity or oracle mismatch).  No
environment variables are consulted; identical invocations produce
byte-identical output.  The JSON report is printed in one pass by one small
recursive emitter (``_json``) that writes the bytes of
``json.dumps(report, sort_keys=True, indent=2)``, without the stdlib's
pure-Python indenting encoder; it refuses every non-JSON type (a float or
``Fraction`` in an exact report is a bug) with ``TypeError``.  The text
format writes lists with the same emitter, on one line.  Ints of any size
print exactly (``polynomial.int_text``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

from .arrangement import Arrangement, parse_arrangement
from .errors import ArropsError, BadOrder, IdentityViolated, ParseError, SaitoFailed, ZeroNormalizer
from .exponents import exp_for_arrangement
from .extension import extend, hyperplanes_from_forms
from .freebasis import build_basis
from .polynomial import int_text, s_dim
from .verify import check_identities, hilbert_check, oracle_dims

USER_ERROR = 1
VERIFICATION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """A usage error is a user error: a ``ParseError`` with argparse's message."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(message)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        try:
            text = Path(args.input).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.input} is not UTF-8: {exc.reason} at byte offset {exc.start}") from None
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
        rank, kernel, flats = arr.lattice
        out["rank"] = rank
        out["essential"] = rank == arr.dim
        out["kernel"] = [list(v) for v in kernel]
        out["flats"] = [f.to_json() for f in flats]
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
    consistent = report.consistent
    out["oracle"] = "consistent" if consistent else "inconsistent"
    out["oracle_table"] = [{"d": d, "dim": dim, "predicted": pred} for d, dim, pred in report.rows]
    return out, 0 if consistent else VERIFICATION_ERROR


_quote = json.encoder.encode_basestring_ascii


def _json(value, indent: str | None) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it
    at ``indent``, or as ``json.dumps(value, sort_keys=True)`` writes it on
    one line if ``indent`` is None: only dicts with ``str`` keys, lists,
    tuples, ``str``, ``int``, bools and None; anything else raises
    ``TypeError`` (a non-``str`` key raises it in sorting or in ``_quote``).
    Ints are written by ``int_text``, so past the interpreter's limit on
    int-to-str conversion too.  ``str`` and ``int`` children are written
    inline, so only nested containers and constants recurse."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int_text(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = None if indent is None else indent + "  "
    if kind is dict:
        if not value:
            return "{}"
        parts = [f"{_quote(k)}: {_quote(v) if type(v) is str else int_text(v) if type(v) is int else _json(v, inner)}" for k, v in sorted(value.items())]
        opening, closing = "{", "}"
    elif kind is list or kind is tuple:
        if not value:
            return "[]"
        parts = [_quote(v) if type(v) is str else int_text(v) if type(v) is int else _json(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if indent is None:
        return f"{opening}{', '.join(parts)}{closing}"
    sep = ",\n" + inner
    return f"{opening}\n{inner}{sep.join(parts)}\n{indent}{closing}"


def emit_report(result: dict, fmt: str) -> str:
    """The report as JSON (the bytes of ``json.dumps(result, sort_keys=True,
    indent=2)``, written by ``_json``) or as text lines, a list on one line
    as ``json.dumps(value, sort_keys=True)`` writes it.  Ints of any size
    are written exactly (``int_text``)."""
    if fmt == "json":
        return _json(result, "")
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}{key}.", value[key])
        elif isinstance(value, list):
            lines.append(f"{prefix[:-1]}: {_json(value, None)}")
        else:
            lines.append(f"{prefix[:-1]}: {int_text(value) if type(value) is int else value}")

    walk("", result)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
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
