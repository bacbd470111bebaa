"""Command-line front end.

Subcommands: lattice, exponents, basis, verify, identities, oracle.
``_Reader`` reads argv by one table, ``_OPTIONS`` (each subcommand's
options: an int, a string or a choice, maybe required), with argparse's
grammar and without importing argparse; forms split by options are joined
in order, and ``-h``/``--help`` prints a fixed usage text and exits 0.
Inline forms, ``--input`` and ``--extension`` share one form parser
(integer coefficients stay ``int``).  ``basis``, ``identities`` and
``verify`` share one sequence: extension, basis, oracle table.  Exit codes:
0 success, 1 user error (a usage error, a ``ParseError`` that names the
token or the option, included, or a reader that closed stdout early), 2
internal verification failure (a failed determinant certificate, identity
or oracle mismatch).  No environment variables are consulted; identical
invocations produce byte-identical output.  The JSON report is printed in
one pass by one small recursive emitter (``_json``) that writes the bytes
of ``json.dumps(report, sort_keys=True, indent=2)``, without the stdlib's
pure-Python indenting encoder; it refuses every non-JSON type (a float or
``Fraction`` in an exact report is a bug) with ``TypeError``.  The text
format writes lists with the same emitter, on one line.  Ints of any size
print exactly (``polynomial.int_text``).
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
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


_USAGE = """\
usage: arrops COMMAND [options] [FORM ...]

commands: lattice (rank-2 flats and localizations), exponents (closed-form
exponent multiset), basis (a certified free basis), verify (basis,
certificate and oracle), identities (counting identities of an extension),
oracle (module dimensions per degree)

  FORM ...              inline linear forms, e.g. x1 x2 x3 x1-x2
  --input PATH          an arrangement file (JSON or ';'-separated forms)
  --dim N               ambient dimension (default: inferred)
  --format {json,text}  report format (default: json)
  --m N                 operator order (required, but not by lattice)
  --extension EXT       'auto' (default) or ';'-separated extra forms
                        (basis, verify, identities)
  --max-degree N        the oracle's largest degree (verify; required by oracle)
  -h, --help            print this text and exit

An option is --name VALUE or --name=VALUE, or a unique prefix of its name.
Forms are read in order, also between options; '--' ends the options."""

# Each subcommand's options: name -> (kind, required), where the kind is
# int, str or a tuple of the allowed values.
_COMMON = {"input": (str, False), "dim": (int, False), "format": (("json", "text"), False)}
_ORDER = {"m": (int, True)}
_EXTENSION = {"extension": (str, False)}
_OPTIONS = {
    "lattice": _COMMON,
    "exponents": {**_COMMON, **_ORDER},
    "basis": {**_COMMON, **_ORDER, **_EXTENSION},
    "verify": {**_COMMON, **_ORDER, **_EXTENSION, "max-degree": (int, False)},
    "identities": {**_COMMON, **_ORDER, **_EXTENSION},
    "oracle": {**_COMMON, **_ORDER, "max-degree": (int, True)},
}
_DEFAULTS = {"input": None, "dim": None, "format": "json", "m": None, "extension": "auto", "max_degree": None}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """What argparse reads ``token`` as among the long options ``names``
    and ``-h``/``--help``: None for a value, a form or ``--``, else the
    option's name (None for an unknown or ambiguous option) and its ``=``
    value (None if there is none).  A token that starts with ``--`` names
    each option of which its text before any ``=`` is the name or a prefix,
    and a token that starts with ``-h`` names help; any other token that
    starts with ``-``, is longer than one character, is not a negative
    number and has no space is an unknown option."""
    if len(token) < 2 or token[0] != "-" or token == "--":
        return None
    if token[1] == "-":
        head, sep, value = token[2:].partition("=")
        if head in names or head == "help":
            matches = [head]
        else:
            matches = [name for name in (*names, "help") if name.startswith(head)]
        if matches:
            return matches[0] if len(matches) == 1 else None, value if sep else None
    elif token[1] == "h":
        return "help", token[2:] or None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _usage() -> NoReturn:
    print(_USAGE)
    raise SystemExit(0)


class _Reader:
    """Reads argv by ``_OPTIONS`` with argparse's grammar into the namespace
    that ``run`` reads; forms split by options are joined in order.  A usage
    error is a ``ParseError`` that names the token or the option."""

    def parse_args(self, argv: list[str] | None = None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else argv
        if not argv:
            raise ParseError(f"no command given (choose from {', '.join(_OPTIONS)})")
        command = argv[0]
        if command not in _OPTIONS:
            if _option(command, ()) == ("help", None):
                _usage()
            raise ParseError(f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, _OPTIONS))})")
        options = _OPTIONS[command]
        args = dict(_DEFAULTS, command=command, forms=[])
        seen = set()
        tokens = iter(argv[1:])
        for token in tokens:
            if token == "--":
                args["forms"] += tokens
                break
            given = _option(token, options)
            if given is None:
                args["forms"].append(token)
                continue
            name, value = given
            if name == "help" and value is None:
                _usage()
            if name is None or name == "help":
                raise ParseError(f"unrecognized option {token!r} for {command}")
            if value is None:
                value = next(tokens, None)
                if value is None or value == "--" or _option(value, options) is not None:
                    raise ParseError(f"argument --{name}: expected one argument")
            kind = options[name][0]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise ParseError(f"argument --{name}: invalid int value: {value!r}") from None
            elif kind is not str and value not in kind:
                raise ParseError(f"argument --{name}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
            args[name.replace("-", "_")] = value
            seen.add(name)
        missing = [f"--{name}" for name, (_, required) in options.items() if required and name not in seen]
        if missing:
            raise ParseError(f"the following arguments are required: {', '.join(missing)}")
        return SimpleNamespace(**args)


def _make_parser() -> _Reader:
    return _Reader()


def _load_arrangement(args: SimpleNamespace) -> Arrangement:
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


def _check_nonnegative(args: SimpleNamespace) -> None:
    if args.m is not None and args.m < 0:
        raise BadOrder(f"--m must be >= 0, got {args.m}")
    if args.max_degree is not None and args.max_degree < 0:
        raise ArropsError(f"--max-degree must be >= 0, got {args.max_degree}")


def run(args: SimpleNamespace) -> tuple[dict, int]:
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
