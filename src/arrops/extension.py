"""Extensions of an essential 3-arrangement to m + 2 hyperplanes.

Auto mode adds hyperplanes from the integer moment-curve family
x1 + t*x2 + t^2*x3 (t = 0, 1, 2, ...), accepting the first candidate that
misses every current rank-2 flat direction and is not already present.  A
fixed flat direction rules out at most two t values, so the search always
terminates quickly and reproducibly, and the genericity condition holds by
construction.  Given mode accepts arbitrary distinct hyperplanes and merely
records whether the genericity condition happens to hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .arrangement import Arrangement, Hyperplane, parse_forms
from .errors import BadOrder, DuplicateHyperplane
from .flats import Flat1, dim1_flats


@dataclass(frozen=True)
class ExtendedArrangement:
    """Base arrangement plus the hyperplanes added to reach m + 2 in total."""

    base: Arrangement
    added: tuple[Hyperplane, ...]
    condition_a: bool

    @property
    def full(self) -> Arrangement:
        return Arrangement(self.base.dim, (*self.base.hyperplanes, *self.added))

    @property
    def m(self) -> int:
        return self.base.n + len(self.added) - 2

    @cached_property
    def profiles(self) -> list[FlatProfile]:
        """``flat_profiles(self)``, computed on first read and kept."""
        return flat_profiles(self)

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "added": [h.text() for h in self.added],
            "condition_a": self.condition_a,
            "m": self.m,
        }


@dataclass(frozen=True)
class FlatProfile:
    """Flat of the extended arrangement with its order bound and cofactors.

    max_order is the number of extended hyperplanes through the flat minus 2.
    off_flat holds the extended hyperplanes avoiding the flat and
    base_off_flat the base ones (the cofactors, of degree m - max_order and
    n - base_local_count).  Both are kept as planes, whose integer normals
    basis assembly and the dual pair take as linear factors.
    """

    flat: Flat1
    max_order: int
    off_flat: tuple[Hyperplane, ...]
    base_off_flat: tuple[Hyperplane, ...]
    base_local_count: int


def generic_hyperplane(arr: Arrangement) -> Hyperplane:
    """Smallest moment-curve hyperplane missing all current flat directions."""
    existing = {h.normal for h in arr.hyperplanes}
    t = 0
    while True:
        cand = Hyperplane((1, t, t * t))  # primitive: the first entry is 1
        if cand.normal not in existing and _misses_all_flats(cand, arr):
            return cand
        t += 1


def _misses_all_flats(h: Hyperplane, arr: Arrangement) -> bool:
    return all(not h.contains(v) for v in arr.flat_directions())


def extend(
    arr: Arrangement,
    m: int,
    added: Iterable[Hyperplane] | None = None,
) -> ExtendedArrangement:
    """Extend to m + 2 hyperplanes, auto-generically or with a given list."""
    if arr.dim != 3:
        raise BadOrder("extensions are defined for 3-arrangements")
    if m < arr.n - 2:
        raise BadOrder(f"need m >= n - 2 = {arr.n - 2}, got m = {m}")
    want = m + 2 - arr.n
    if added is None:
        current = arr
        new: list[Hyperplane] = []
        for _ in range(want):
            h = generic_hyperplane(current)
            new.append(h)
            current = Arrangement(3, (*current.hyperplanes, h))
        return ExtendedArrangement(arr, tuple(new), condition_a=True)
    new = list(added)
    if len(new) != want:
        raise BadOrder(f"extension must supply exactly {want} hyperplanes, got {len(new)}")
    current = arr
    cond = True
    for h in new:
        if h.normal in {g.normal for g in current.hyperplanes}:
            raise DuplicateHyperplane(f"extension hyperplane {h.text()} already present")
        cond = cond and _misses_all_flats(h, current)
        current = Arrangement(3, (*current.hyperplanes, h))
    return ExtendedArrangement(arr, tuple(new), condition_a=cond)


def flat_profiles(ext: ExtendedArrangement) -> list[FlatProfile]:
    """One profile per rank-2 flat of the extended arrangement."""
    n_base = ext.base.n
    full = ext.full
    profiles = []
    for flat in dim1_flats(full):
        local = set(flat.local_indices)
        # lists, then tuple(): a tuple built from a generator is allocated at a
        # guessed size and freed onto another free list, which keeps memory
        off = [h for i, h in enumerate(full.hyperplanes) if i not in local]
        base_off = [h for i, h in enumerate(full.hyperplanes[:n_base]) if i not in local]
        profiles.append(
            FlatProfile(
                flat=flat,
                max_order=len(local) - 2,
                off_flat=tuple(off),
                base_off_flat=tuple(base_off),
                base_local_count=n_base - len(base_off),
            )
        )
    return profiles


def hyperplanes_from_forms(forms: Sequence[str], dim: int = 3) -> list[Hyperplane]:
    """The hyperplanes of listed linear forms, as ``parse_arrangement`` reads them."""
    return parse_forms(forms, dim)[1]
