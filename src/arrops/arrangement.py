"""Central hyperplane arrangements: parsing, normalization and rank-2 flats.

Hyperplanes are stored as primitive integer normal vectors (gcd 1, first
nonzero entry positive), which makes equality testing and deduplication
canonical.  Input order is preserved and drives every downstream iteration.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DuplicateHyperplane, NotCentral, ParseError, ZeroForm
from .linalg import nullspace, rref
from .polynomial import LinearForm, Poly, primitive_int_vector


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane through the origin, identified by its primitive integer normal."""

    normal: tuple[int, ...]

    @staticmethod
    def make(coeffs: Iterable[Fraction | int]) -> Hyperplane:
        vec = [Fraction(c) for c in coeffs]
        if all(c == 0 for c in vec):
            raise ZeroForm("hyperplane normal must be nonzero")
        return Hyperplane(primitive_int_vector(vec))

    @property
    def dim(self) -> int:
        return len(self.normal)

    def form(self) -> LinearForm:
        return LinearForm.make(self.normal)

    def poly(self) -> Poly:
        return self.form().to_poly()

    def contains(self, vector: Sequence[Fraction | int]) -> bool:
        return self.form()(vector) == 0

    def text(self) -> str:
        parts = []
        for i, c in enumerate(self.normal):
            if c == 0:
                continue
            var = f"x{i + 1}"
            if not parts:
                head = "" if c == 1 else "-" if c == -1 else str(c) + "*"
                parts.append(head + var)
            else:
                sign = " + " if c > 0 else " - "
                mag = abs(c)
                parts.append(sign + (var if mag == 1 else f"{mag}*{var}"))
        return "".join(parts)


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
        q = Poly.constant(self.dim, 1)
        for h in self.hyperplanes:
            q = q * h.poly()
        return q

    def rank_and_kernel(self) -> tuple[int, list[tuple[int, ...]]]:
        """Rank of the normal matrix and a primitive basis of the common intersection."""
        rows = [[Fraction(c) for c in h.normal] for h in self.hyperplanes]
        _, pivots = rref(rows, self.dim)
        kernel = [primitive_int_vector(v) for v in nullspace(rows, self.dim)]
        return len(pivots), kernel

    def rank(self) -> int:
        return self.rank_and_kernel()[0]

    def is_essential(self) -> bool:
        return self.rank() == self.dim

    def localization_indices(self, direction: Sequence[Fraction | int]) -> tuple[int, ...]:
        """Indices of hyperplanes containing the given direction, input order."""
        return tuple(i for i, h in enumerate(self.hyperplanes) if h.contains(direction))

    def localization(self, direction: Sequence[Fraction | int]) -> Arrangement:
        return Arrangement(self.dim, (self.hyperplanes[i] for i in self.localization_indices(direction)))

    def flat_directions(self) -> list[tuple[int, ...]]:
        """Primitive directions of the 1-dimensional lattice elements.

        For dimension 3 these are the pairwise intersections (deduplicated,
        first-occurrence order); for dimension 2 each line is its own flat.
        """
        if self.dim == 2:
            dirs = []
            for h in self.hyperplanes:
                a, b = h.normal
                dirs.append(primitive_int_vector((Fraction(-b), Fraction(a))))
            # distinct lines have distinct kernels, no deduplication needed
            return dirs
        out: list[tuple[int, ...]] = []
        seen = set()
        for i, j in combinations(range(self.n), 2):
            v = _cross(self.hyperplanes[i].normal, self.hyperplanes[j].normal)
            if all(c == 0 for c in v):
                raise ZeroForm("distinct normalized hyperplanes cannot be parallel")
            d = primitive_int_vector(v)
            if d not in seen:
                seen.add(d)
                out.append(d)
        return out

    def to_json(self) -> dict:
        return {
            "l": self.dim,
            "hyperplanes": [list(h.normal) for h in self.hyperplanes],
            "forms": [h.text() for h in self.hyperplanes],
            "n": self.n,
        }

    def text(self) -> str:
        return "; ".join(h.text() for h in self.hyperplanes)


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


# -- parsing ------------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?P<var1>x\d+))?
          | (?P<var2>x\d+)
        )\s*""",
    re.VERBOSE,
)


def parse_linear_form(text: str, dim: int | None = None) -> list[Fraction]:
    """Parse a sum of terms c*xi, xi, c into a coefficient vector.

    A nonzero constant term makes the form non-central and is rejected.
    """
    coeffs: dict[int, Fraction] = {}
    constant = Fraction(0)
    pos = 0
    first = True
    s = text.strip()
    if not s:
        raise ParseError("empty linear form")
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse {text!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ParseError(f"missing '+' or '-' between terms in {text!r}")
        sgn = -1 if sign == "-" else 1
        var = m.group("var1") or m.group("var2")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if var is None:
            constant += sgn * coef
        else:
            idx = int(var[1:])
            if idx < 1:
                raise ParseError(f"bad variable {var!r} in {text!r}")
            coeffs[idx - 1] = coeffs.get(idx - 1, Fraction(0)) + sgn * coef
        pos = m.end()
        first = False
    if constant != 0:
        raise NotCentral(f"form {text!r} has constant term {constant}")
    width = dim if dim is not None else max(coeffs, default=-1) + 1
    if any(i >= width for i in coeffs):
        raise ParseError(f"form {text!r} uses a variable beyond dimension {width}")
    vec = [coeffs.get(i, Fraction(0)) for i in range(width)]
    if all(c == 0 for c in vec):
        raise ZeroForm(f"form {text!r} is zero")
    return vec


def parse_arrangement(text: str, dim: int | None = None) -> Arrangement:
    """Parse an arrangement from JSON or from ';'-separated linear forms.

    JSON inputs look like {"l": 3, "hyperplanes": [[1,0,0], ...]} or
    {"l": 3, "forms": ["x1", "x2 - x3", ...]}; rational matrix entries may
    be written as strings like "1/2".
    """
    s = text.strip()
    if s.startswith("{"):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON arrangement: {exc}") from exc
        return arrangement_from_json(data, dim=dim)
    pieces = [p for p in (piece.strip() for piece in s.split(";")) if p]
    if not pieces:
        if dim is None:
            raise ParseError("empty arrangement needs an explicit dimension")
        return Arrangement(dim, [])
    vectors = [parse_linear_form(p, dim=dim) for p in pieces]
    width = dim if dim is not None else max(2, max(len(v) for v in vectors))
    vectors = [v + [Fraction(0)] * (width - len(v)) for v in vectors]
    return Arrangement(width, [Hyperplane.make(v) for v in vectors])


def arrangement_from_json(data: dict, dim: int | None = None) -> Arrangement:
    if not isinstance(data, dict):
        raise ParseError("JSON arrangement must be an object")
    if "l" in data:
        if isinstance(data["l"], bool) or not isinstance(data["l"], int):
            raise ParseError(f"\"l\" must be an integer, got {data['l']!r}")
        if dim is not None and data["l"] != dim:
            raise ParseError(f"dimension {dim} conflicts with the arrangement's \"l\": {data['l']}")
    width = data.get("l", dim)
    if "hyperplanes" in data:
        rows = data["hyperplanes"]
        vectors = []
        for row in rows:
            vec = []
            for entry in row:
                if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                    raise ParseError(f"matrix entry {entry!r} must be an integer or a fraction string")
                vec.append(Fraction(entry))
            vectors.append(vec)
        if width is None:
            if not vectors:
                raise ParseError("empty arrangement needs an explicit dimension")
            width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise ParseError("all normal vectors must have length l")
        return Arrangement(width, [Hyperplane.make(v) for v in vectors])
    if "forms" in data:
        forms = data["forms"]
        vectors = [parse_linear_form(f, dim=width) for f in forms]
        if width is None:
            if not vectors:
                raise ParseError("empty arrangement needs an explicit dimension")
            width = max(len(v) for v in vectors)
            if width < 2:
                width = 2
            vectors = [v + [Fraction(0)] * (width - len(v)) for v in vectors]
        return Arrangement(width, [Hyperplane.make(v) for v in vectors])
    raise ParseError("JSON arrangement needs a 'hyperplanes' or 'forms' key")
