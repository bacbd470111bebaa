"""Per-flat geometry for 1-dimensional intersection lattice elements.

Each rank-2 flat X carries a primitive direction v, the constant derivation
delta_X = sum v_i d_i, a deterministic section form y with delta_X(y) = 1,
and kernel coordinate forms spanning ker(delta_X).  The section and kernel
choices are pivot-based: with p the first index where v is nonzero,

    y   = x_p / v_p,
    y_i = x_i - (v_i / v_p) x_p   for every index i != p (ascending).

Any valid section works for the theorems downstream; this one is canonical
and keeps all data rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .arrangement import Arrangement
from .errors import ZeroForm
from .linalg import invert
from .polynomial import LinearForm, primitive_int_vector


@dataclass(frozen=True)
class Flat1:
    """1-dimensional flat of an arrangement, with its coordinate system."""

    direction: tuple[int, ...]
    local_indices: tuple[int, ...]
    section: LinearForm
    kernel_forms: tuple[LinearForm, ...]

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def delta(self) -> tuple[Fraction, ...]:
        """Coefficients of the direction derivation sum v_i d_i."""
        return tuple(Fraction(v) for v in self.direction)

    def coordinate_forms(self) -> list[LinearForm]:
        """Kernel forms followed by the section: a basis of the dual space."""
        return [*self.kernel_forms, self.section]

    def dual_derivations(self) -> list[tuple[Fraction, ...]]:
        """Constant derivations dual to the coordinate forms.

        Rows are coefficient vectors w with (sum w_k d_k)(form_j) = delta_ij;
        the last row always equals the flat direction.
        """
        inv = invert([list(f.coeffs) for f in self.coordinate_forms()])
        return [tuple(row[i] for row in inv) for i in range(self.dim)]

    def to_json(self) -> dict:
        return {
            "direction": list(self.direction),
            "localization": list(self.local_indices),
            "delta": [str(c) for c in self.delta],
            "section": self.section.text(),
            "kernel_forms": [f.text() for f in self.kernel_forms],
        }


def choose_section(direction: Sequence[int]) -> LinearForm:
    """Deterministic form y with value 1 on the direction vector."""
    p = next((i for i, v in enumerate(direction) if v), None)
    if p is None:
        raise ZeroForm("flat direction must be nonzero")
    coeffs = [Fraction(0)] * len(direction)
    coeffs[p] = Fraction(1, direction[p])
    return LinearForm(tuple(coeffs))


def kernel_basis(direction: Sequence[int]) -> tuple[LinearForm, ...]:
    """Forms y_i vanishing on the direction, one per non-pivot index."""
    p = next((i for i, v in enumerate(direction) if v), None)
    if p is None:
        raise ZeroForm("flat direction must be nonzero")
    forms = []
    for i in range(len(direction)):
        if i == p:
            continue
        coeffs = [Fraction(0)] * len(direction)
        coeffs[i] = Fraction(1)
        coeffs[p] = -Fraction(direction[i], direction[p])
        forms.append(LinearForm(tuple(coeffs)))
    return tuple(forms)


def flat_from_direction(arr: Arrangement, direction: Sequence[int]) -> Flat1:
    d = primitive_int_vector(direction)
    return Flat1(
        direction=d,
        local_indices=arr.localization_indices(d),
        section=choose_section(d),
        kernel_forms=kernel_basis(d),
    )


def dim1_flats(arr: Arrangement) -> list[Flat1]:
    """All 1-dimensional flats with their localizations, deterministic order."""
    return [flat_from_direction(arr, d) for d in arr.flat_directions()]

