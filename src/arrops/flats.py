"""Per-flat geometry for 1-dimensional intersection lattice elements.

``Arrangement.flats`` returns each rank-2 flat X (each line of a
2-arrangement) as a ``Flat1``: a primitive direction v and the indices of
the planes through it.  X carries the constant derivation
delta_X = sum v_i d_i and one integer coordinate frame read off v by a
pivot rule.  With p the first index where v is nonzero, the frame's rows
are

    v_p * y_i = v_p * x_i - v_i * x_p   for every index i != p (ascending),
    v_p * y   = x_p,

so the kernel coordinates y_i span ker(delta_X) and the section y has
delta_X(y) = 1.  Any such frame works for the theorems downstream; this one
is canonical.  Basis assembly reads the frame as integers
(``Flat1.integer_frame``, with an integer adjugate), the dual pair its rows
and v_p (``Flat1.integer_rows``); ``coordinate_forms`` is its rational
view (the kernel forms, then the section), which only the ``lattice``
output reads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ZeroForm
from .polynomial import LinearForm


class Flat1(NamedTuple):
    """1-dimensional flat: its direction and the planes through it, input order."""

    direction: tuple[int, ...]
    local_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.direction)

    def integer_rows(self) -> tuple[list[tuple[int, ...]], int]:
        """The pivot rule's rows (kernel rows, then the section row) and v_p."""
        v = self.direction
        p = next((i for i, c in enumerate(v) if c), None)
        if p is None:
            raise ZeroForm("flat direction must be nonzero")
        n = len(v)
        rows = [tuple(v[p] if k == i else -v[i] if k == p else 0 for k in range(n)) for i in range(n) if i != p]
        return [*rows, tuple(int(k == p) for k in range(n))], v[p]

    def coordinate_forms(self) -> list[LinearForm]:
        """The frame's rows over v_p: the kernel forms y_i = x_i - (v_i / v_p) x_p,
        then the section y = x_p / v_p; a basis of the dual space."""
        rows, vp = self.integer_rows()
        return [LinearForm(tuple(Fraction(c, vp) for c in row)) for row in rows]

    def integer_frame(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], Fraction]:
        """Rows of M' = v_p * (coordinate forms), columns of adj(M') and
        v_p / det M'.  In dimension 3 column i is row i+1 x row i+2 (indices
        mod 3); in dimension 2, for rows (a, b) and (c, d), the columns are
        (d, -c) and (-b, a).  Row k times column i is det M' * delta_ik, so
        column i times v_p / det M' is dual to form i."""
        rows, vp = self.integer_rows()
        if len(rows) == 2:
            cols = [(rows[1][1], -rows[1][0]), (-rows[0][1], rows[0][0])]
        else:
            cols = [_cross(rows[(i + 1) % 3], rows[(i + 2) % 3]) for i in range(3)]
        det = sum(a * b for a, b in zip(rows[0], cols[0]))
        return rows, cols, Fraction(vp, det)

    def to_json(self) -> dict:
        *kernel, section = self.coordinate_forms()
        return {
            "direction": list(self.direction),
            "localization": list(self.local_indices),
            "delta": [str(v) for v in self.direction],
            "section": section.text(),
            "kernel_forms": [f.text() for f in kernel],
        }


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
