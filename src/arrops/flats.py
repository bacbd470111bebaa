"""Per-flat geometry for 1-dimensional intersection lattice elements.

Each rank-2 flat X carries a primitive direction v, the constant derivation
delta_X = sum v_i d_i, and one integer coordinate frame read off v by a
pivot rule.  With p the first index where v is nonzero, the frame's rows
are

    v_p * y_i = v_p * x_i - v_i * x_p   for every index i != p (ascending),
    v_p * y   = x_p,

so the kernel coordinates y_i span ker(delta_X) and the section y has
delta_X(y) = 1.  Any such frame works for the theorems downstream; this one
is canonical.  Basis assembly reads the frame as integers
(``Flat1.integer_frame``, with an integer adjugate from cross products);
``section``, ``kernel_forms``, ``coordinate_forms`` and
``dual_derivations`` are its rational views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import Arrangement, _cross
from .errors import ZeroForm
from .polynomial import LinearForm, primitive_int_vector


@dataclass(frozen=True)
class Flat1:
    """1-dimensional flat of a 3-arrangement: its direction and localization."""

    direction: tuple[int, ...]
    local_indices: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def delta(self) -> tuple[Fraction, ...]:
        """Coefficients of the direction derivation sum v_i d_i."""
        return tuple(Fraction(v) for v in self.direction)

    def _frame_rows(self) -> tuple[list[tuple[int, ...]], int]:
        """The pivot rule's rows (kernel rows, then the section row) and v_p."""
        v = self.direction
        p = next((i for i, c in enumerate(v) if c), None)
        if p is None:
            raise ZeroForm("flat direction must be nonzero")
        n = len(v)
        rows = [tuple(v[p] if k == i else -v[i] if k == p else 0 for k in range(n)) for i in range(n) if i != p]
        return [*rows, tuple(int(k == p) for k in range(n))], v[p]

    @property
    def section(self) -> LinearForm:
        return self.coordinate_forms()[-1]

    @property
    def kernel_forms(self) -> tuple[LinearForm, ...]:
        return tuple(self.coordinate_forms()[:-1])

    def coordinate_forms(self) -> list[LinearForm]:
        """The frame's rows over v_p: the kernel forms y_i = x_i - (v_i / v_p) x_p,
        then the section y = x_p / v_p; a basis of the dual space."""
        rows, vp = self._frame_rows()
        return [LinearForm(tuple(Fraction(c, vp) for c in row)) for row in rows]

    def integer_frame(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], Fraction]:
        """Rows of M' = v_p * (coordinate forms), columns of adj(M') (column
        i is row i+1 x row i+2, indices mod 3) and v_p / det M'.  Row k times
        column i is det M' * delta_ik, so column i times v_p / det M' is
        dual to form i."""
        rows, vp = self._frame_rows()
        cols = [_cross(rows[(i + 1) % 3], rows[(i + 2) % 3]) for i in range(3)]
        det = sum(a * b for a, b in zip(rows[0], cols[0]))
        return rows, cols, Fraction(vp, det)

    def dual_derivations(self) -> list[tuple[Fraction, ...]]:
        """Constant derivations dual to the coordinate forms.

        Rows are coefficient vectors w with (sum w_k d_k)(form_j) = delta_ij;
        the last row always equals the flat direction.
        """
        _, duals, scale = self.integer_frame()
        return [tuple(v * scale for v in w) for w in duals]

    def to_json(self) -> dict:
        return {
            "direction": list(self.direction),
            "localization": list(self.local_indices),
            "delta": [str(c) for c in self.delta],
            "section": self.section.text(),
            "kernel_forms": [f.text() for f in self.kernel_forms],
        }


def flat_from_direction(arr: Arrangement, direction: Sequence[int]) -> Flat1:
    d = primitive_int_vector(direction)
    return Flat1(direction=d, local_indices=arr.localization_indices(d))


def dim1_flats(arr: Arrangement) -> list[Flat1]:
    """All 1-dimensional flats with their localizations, deterministic order."""
    return [flat_from_direction(arr, d) for d in arr.flat_directions()]
