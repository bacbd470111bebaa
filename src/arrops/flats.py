"""Per-flat geometry for 1-dimensional intersection lattice elements.

``Arrangement.lattice`` holds each rank-2 flat X (each line of a
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
and v_p (``Flat1.integer_rows``), and the ``lattice`` output prints the
rows over v_p (``Flat1.to_json``).  The kernel rows alone
(``pivot_rows``) also give the sample's basis of a plane from its normal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import ZeroForm
from .polynomial import int_text, rational_text


class Flat1(NamedTuple):
    """1-dimensional flat: its direction and the planes through it, input order."""

    direction: tuple[int, ...]
    local_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.direction)

    def integer_rows(self) -> tuple[list[tuple[int, ...]], int]:
        """The pivot rule's rows (kernel rows, then the section row) and v_p."""
        rows, p = pivot_rows(self.direction)
        return [*rows, tuple(int(k == p) for k in range(self.dim))], self.direction[p]

    def integer_frame(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Rows of M' = v_p * (coordinate forms) and columns of adj(M').  In
        dimension 3 column i is row i+1 x row i+2 (indices mod 3); in
        dimension 2, for rows (a, b) and (c, d), the columns are (d, -c) and
        (-b, a).  Row k times column i is det M' * delta_ik, so column i
        times v_p / det M' is dual to form i."""
        rows, _ = self.integer_rows()
        if len(rows) == 2:
            return rows, [(rows[1][1], -rows[1][0]), (-rows[0][1], rows[0][0])]
        return rows, [_cross(rows[(i + 1) % 3], rows[(i + 2) % 3]) for i in range(3)]

    def to_json(self) -> dict:
        """The frame's rows over v_p (kernel forms, then the section) as
        ``Poly.text`` prints them: "c*xi" per nonzero c / v_p, index order."""
        rows, vp = self.integer_rows()
        *kernel, section = [" + ".join(f"{rational_text(Fraction(c, vp))}*x{i + 1}" for i, c in enumerate(row) if c) for row in rows]
        return {
            "direction": list(self.direction),
            "localization": list(self.local_indices),
            "delta": [int_text(v) for v in self.direction],
            "section": section,
            "kernel_forms": kernel,
        }


def pivot_rows(v: Sequence[int]) -> tuple[list[tuple[int, ...]], int]:
    """The rows v_p * e_i - v_i * e_p, i != p ascending, for p the first index
    with v_p != 0 (a basis of the vectors orthogonal to v), and p."""
    p = next((i for i, c in enumerate(v) if c), None)
    if p is None:
        raise ZeroForm("flat direction must be nonzero")
    return [tuple(v[p] if k == i else -v[i] if k == p else 0 for k in range(len(v))) for i in range(len(v)) if i != p], p


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
