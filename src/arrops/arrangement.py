"""Central hyperplane arrangements: parsing, normalization and the lattice.

Hyperplanes are stored as primitive integer normal vectors (gcd 1, first
nonzero entry positive), which makes equality testing and deduplication
canonical.  Input order is preserved and drives every downstream iteration.

One input path: every list of linear forms (';' text, JSON "forms", CLI
``--extension``) goes through ``parse_forms``, and JSON "hyperplanes" rows
through its builder.  A coefficient stays an ``int`` unless written p/q.

Every reader of an arrangement's rank, kernel or flats (``flats.Flat1``)
reads one record, computed once on first read (``Arrangement.lattice``).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import DuplicateHyperplane, NotCentral, ParseError, ZeroForm
from .flats import Flat1, _cross
from .linalg import nullspace_int
from .polynomial import Poly, form_product, int_text, primitive_int_vector, rational_text


class Hyperplane(NamedTuple):
    """Hyperplane through the origin, identified by its primitive integer normal."""

    normal: tuple[int, ...]

    @staticmethod
    def make(coeffs: Iterable[Fraction | int | str]) -> Hyperplane:
        """Normalize a vector of ``int``, ``Fraction`` or strings that ``_rational`` reads."""
        try:
            return Hyperplane(primitive_int_vector(_rational(c) if isinstance(c, str) else c for c in coeffs))
        except ZeroForm:
            raise ZeroForm("hyperplane normal must be nonzero") from None

    @property
    def dim(self) -> int:
        return len(self.normal)

    def contains(self, vector: Sequence[Fraction | int]) -> bool:
        return sum(c * v for c, v in zip(self.normal, vector)) == 0

    def text(self) -> str:
        parts = []
        for i, c in enumerate(self.normal):
            if c == 0:
                continue
            var = f"x{i + 1}"
            if not parts:
                head = "" if c == 1 else "-" if c == -1 else int_text(c) + "*"
                parts.append(head + var)
            else:
                sign = " + " if c > 0 else " - "
                mag = abs(c)
                parts.append(sign + (var if mag == 1 else f"{int_text(mag)}*{var}"))
        return "".join(parts)


class Lattice(NamedTuple):
    """An arrangement's rank, common-kernel basis and 1-dimensional flats."""

    rank: int
    kernel: tuple[tuple[int, ...], ...]
    flats: tuple[Flat1, ...]


class Arrangement:
    """Finite ordered set of distinct central hyperplanes in fixed dimension."""

    def __init__(self, dim: int, hyperplanes: Iterable[Hyperplane]):
        if dim not in (2, 3):
            raise ParseError(f"supported ambient dimensions are 2 and 3, got {dim}")
        planes = tuple(hyperplanes)
        for h in planes:
            if h.dim != dim:
                raise ParseError(f"hyperplane {h.normal} does not live in dimension {dim}")
        seen = set()
        for h in planes:
            if h.normal in seen:
                raise DuplicateHyperplane(f"hyperplane {h.text()} repeated")
            seen.add(h.normal)
        self.dim = dim
        self.hyperplanes = planes

    @property
    def n(self) -> int:
        return len(self.hyperplanes)

    def __iter__(self):
        return iter(self.hyperplanes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arrangement)
            and self.dim == other.dim
            and self.hyperplanes == other.hyperplanes
        )

    def __repr__(self) -> str:
        return f"Arrangement(dim={self.dim}, [{'; '.join(h.text() for h in self)}])"

    def defining_polynomial(self) -> Poly:
        """Product of the normalized linear forms (1 for the empty arrangement)."""
        return form_product((h.normal for h in self.hyperplanes), self.dim)

    @cached_property
    def lattice(self) -> Lattice:
        """Rank, a primitive basis of the common intersection and the
        1-dimensional flats, computed on first read and kept (the hyperplanes
        never change).  In dimension 3 the flats are the pairwise
        intersections (deduplicated, first-occurrence order), each with the
        planes through it in input order; in dimension 2 they are the lines."""
        if self.dim == 2:
            # distinct lines have distinct kernels, no deduplication needed
            flats = [Flat1(primitive_int_vector((-h.normal[1], h.normal[0])), (i,)) for i, h in enumerate(self.hyperplanes)]
        else:
            out: dict[tuple[int, ...], list[int]] = {}
            for i, j in combinations(range(self.n), 2):
                v = _cross(self.hyperplanes[i].normal, self.hyperplanes[j].normal)
                if not any(v):
                    raise ZeroForm("distinct normalized hyperplanes cannot be parallel")
                # the pair with the flat's first plane as i comes first, and
                # its j run through the other planes of the flat in input order
                planes = out.setdefault(primitive_int_vector(v), [i])
                if planes[0] == i:
                    planes.append(j)
            flats = [Flat1(d, tuple(planes)) for d, planes in out.items()]
        # the normals span the space exactly when there are two flats or more
        # (normals inside one plane meet pairwise in its normal line, their one
        # flat), and then the kernel is 0 with no elimination
        kernel = nullspace_int([list(h.normal) for h in self.hyperplanes], self.dim) if len(flats) < 2 else []
        return Lattice(self.dim - len(kernel), tuple(kernel), tuple(flats))

    def rank(self) -> int:
        return self.lattice.rank

    def is_essential(self) -> bool:
        return self.lattice.rank == self.dim

    def to_json(self) -> dict:
        return {
            "l": self.dim,
            "hyperplanes": [list(h.normal) for h in self.hyperplanes],
            "forms": [h.text() for h in self.hyperplanes],
            "n": self.n,
        }

    def text(self) -> str:
        return "; ".join(h.text() for h in self.hyperplanes)


# -- parsing ------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<var1>x\d+))?
          | (?P<var2>x\d+)
        )\s*""",
    re.VERBOSE,
)


def parse_linear_form(text: str, dim: int | None = None) -> list[Fraction | int]:
    """Parse a sum of terms c*xi, xi, c into a coefficient vector.

    A coefficient is an ``int`` unless it is written p/q.  A nonzero
    constant term makes the form non-central and is rejected.
    """
    coeffs: dict[int, Fraction | int] = {}
    constant = 0
    pos = 0
    first = True
    s = text.strip()
    if not s:
        raise ParseError("empty linear form")
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse {text!r} at position {pos}")
        sign, digits, var1, var2 = m.groups()
        if sign is None and not first:
            raise ParseError(f"missing '+' or '-' between terms in {text!r}")
        coef = 1 if digits is None else _rational(digits, text)
        coef = -coef if sign == "-" else coef
        var = var1 or var2
        if var is None:
            constant += coef
        else:
            try:
                idx = int(var[1:])
            except ValueError:  # \d+ is read by int() unless it has too many digits
                raise ParseError(f"variable index in {text!r} {_digit_limit_problem(var)}") from None
            if idx < 1:
                raise ParseError(f"bad variable {var!r} in {text!r}")
            coeffs[idx - 1] = coeffs.get(idx - 1, 0) + coef
        pos = m.end()
        first = False
    if constant != 0:
        raise NotCentral(f"form {text!r} has constant term {rational_text(constant)}")
    width = dim if dim is not None else max(coeffs, default=-1) + 1
    if width > 3:  # checked before a coefficient vector of that length is built
        raise ParseError(f"supported ambient dimensions are 2 and 3, got {width}")
    if any(i >= width for i in coeffs):
        raise ParseError(f"form {text!r} uses a variable beyond dimension {width}")
    vec = [coeffs.get(i, 0) for i in range(width)]
    if not any(vec):
        raise ZeroForm(f"form {text!r} is zero")
    return vec


def parse_forms(forms: Sequence[str], dim: int | None = None) -> tuple[int, list[Hyperplane]]:
    """The width and the hyperplanes of a list of linear forms; without
    ``dim`` the width is the largest variable index used, at least 2."""
    vectors = [parse_linear_form(f, dim=dim) for f in forms]
    if dim is None and vectors:
        dim = max(2, *map(len, vectors))
    return _hyperplanes(vectors, dim)


def _hyperplanes(vectors: list[list[Fraction | int]], dim: int | None) -> tuple[int, list[Hyperplane]]:
    """``dim`` and the vectors, padded with zeros to that length, as hyperplanes."""
    if dim is None:
        raise ParseError("empty arrangement needs an explicit dimension")
    return dim, [Hyperplane.make(v + [0] * (dim - len(v))) for v in vectors]


def parse_arrangement(text: str, dim: int | None = None) -> Arrangement:
    """Parse an arrangement from JSON or from ';'-separated linear forms.

    JSON inputs look like {"l": 3, "hyperplanes": [[1,0,0], ...]} or
    {"l": 3, "forms": ["x1", "x2 - x3", ...]}; rational matrix entries may
    be written as strings like "1/2".
    """
    if dim not in (None, 2, 3):  # before a form is read against it
        raise ParseError(f"supported ambient dimensions are 2 and 3, got {dim}")
    s = text.strip()
    if s.startswith("{"):
        try:
            data = json.loads(s)
        except ValueError as exc:  # a JSONDecodeError, or an integer longer than int() reads
            raise ParseError(f"bad JSON arrangement: {exc}") from exc
        return arrangement_from_json(data, dim=dim)
    return Arrangement(*parse_forms([p for p in (piece.strip() for piece in s.split(";")) if p], dim))


def arrangement_from_json(data: dict, dim: int | None = None) -> Arrangement:
    if not isinstance(data, dict):
        raise ParseError("JSON arrangement must be an object")
    if "l" in data:
        if isinstance(data["l"], bool) or not isinstance(data["l"], int):
            raise ParseError(f"\"l\" must be an integer, got {data['l']!r}")
        if dim is not None and data["l"] != dim:
            raise ParseError(f"dimension {dim} conflicts with the arrangement's \"l\": {data['l']}")
    width = data.get("l", dim)
    if "hyperplanes" in data and "forms" in data:  # as ``to_json`` writes them: they must agree
        arr = arrangement_from_json({k: v for k, v in data.items() if k != "forms"}, dim)
        if arr != arrangement_from_json({k: v for k, v in data.items() if k != "hyperplanes"}, dim):
            raise ParseError(f"\"forms\" {data['forms']!r} disagree with \"hyperplanes\" {data['hyperplanes']!r}")
        return arr
    if "hyperplanes" in data:
        rows = data["hyperplanes"]
        if not isinstance(rows, list):
            raise ParseError(f"\"hyperplanes\" must be a list of rows, got {rows!r}")
        vectors = []
        for row in rows:
            if not isinstance(row, list):
                raise ParseError(f"hyperplane row {row!r} must be a list of entries")
            vectors.append([_rational(entry) for entry in row])
        if width is None and vectors:
            width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise ParseError("all normal vectors must have length l")
        return Arrangement(*_hyperplanes(vectors, width))
    if "forms" in data:
        forms = data["forms"]
        if not isinstance(forms, list) or not all(isinstance(f, str) for f in forms):
            raise ParseError(f"\"forms\" must be a list of strings, got {forms!r}")
        return Arrangement(*parse_forms(forms, width))
    raise ParseError("JSON arrangement needs a 'hyperplanes' or 'forms' key")


def _rational(entry: int | str, form: str | None = None) -> Fraction | int:
    """A matrix entry (an ``int``, or a string ``Fraction`` reads such as "1/2")
    or a term's coefficient in ``form`` (digits or p/q); integers stay ``int``."""
    problem = "must be an integer or a fraction string"
    if isinstance(entry, int) and not isinstance(entry, bool):
        return entry
    if isinstance(entry, str):
        try:
            return int(entry) if form is not None and "/" not in entry else Fraction(entry)
        except (ValueError, ZeroDivisionError):
            problem = _digit_limit_problem(entry) or "is not an integer or a fraction with a nonzero denominator"
    what = f"coefficient {entry!r} in {form!r}" if form is not None else f"matrix entry {entry!r}"
    raise ParseError(f"{what} {problem}")


def _digit_limit_problem(text: str) -> str:
    """The error for a run of digits in ``text`` longer than ``int`` reads from a string, or ''."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    too_long = limit and any(len(run) > limit for run in re.findall(r"\d+", text))
    return f"exceeds the limit ({limit} digits) for integer string conversion" if too_long else ""
