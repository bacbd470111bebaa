"""Extensions of an essential 3-arrangement to m + 2 hyperplanes.

``extend`` adds one hyperplane at a time and reads each intermediate
arrangement's flats (``Arrangement.lattice``, computed once per arrangement).
Auto mode takes each hyperplane from the integer moment-curve family
x1 + t*x2 + t^2*x3 (t = 0, 1, 2, ...), accepting the first candidate that
misses every current rank-2 flat direction and is not already present.  A
fixed flat direction rules out at most two t values, so the search always
terminates quickly and reproducibly; each plane is new and the genericity
condition holds by construction, so auto mode checks neither again.  Given
mode rejects a hyperplane already present and merely records whether the
genericity condition happens to hold.  The extended arrangement
(``ExtendedArrangement.full``, base planes first) and its flat profiles are
built once per extension.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count
from typing import Iterable, NamedTuple, Sequence

from .arrangement import Arrangement, Hyperplane, parse_forms
from .errors import BadOrder, DuplicateHyperplane
from .flats import Flat1


class ExtendedArrangement:
    """Base arrangement plus the hyperplanes added to reach m + 2 in total."""

    def __init__(self, base: Arrangement, added: tuple[Hyperplane, ...], condition_a: bool):
        self.base = base
        self.added = added
        self.condition_a = condition_a

    @cached_property
    def full(self) -> Arrangement:
        """The base planes, then the added ones, built on first read and kept."""
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


class FlatProfile(NamedTuple):
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
    directions = [f.direction for f in arr.lattice.flats]
    for t in count():
        cand = Hyperplane((1, t, t * t))  # primitive: the first entry is 1
        if cand.normal not in existing and not any(cand.contains(v) for v in directions):
            return cand


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
    given = None if added is None else list(added)
    if given is not None and len(given) != want:
        raise BadOrder(f"extension must supply exactly {want} hyperplanes, got {len(given)}")
    planes = list(arr.hyperplanes)
    cond = True
    for k in range(want):
        # the planes so far, as an arrangement for their flats; none is built
        # after the last plane (``ExtendedArrangement.full`` builds that one)
        current = Arrangement(3, planes) if k else arr
        if given is None:  # new and generic by construction
            h = generic_hyperplane(current)
        else:
            h = given[k]
            if h.normal in {g.normal for g in planes}:
                raise DuplicateHyperplane(f"extension hyperplane {h.text()} already present")
            cond = cond and not any(h.contains(f.direction) for f in current.lattice.flats)
        planes.append(h)
    return ExtendedArrangement(arr, tuple(planes[arr.n :]), condition_a=cond)


def flat_profiles(ext: ExtendedArrangement) -> list[FlatProfile]:
    """One profile per rank-2 flat of the extended arrangement.  The base
    planes come first in it, so a flat's base cofactor is the head of its
    extended one."""
    n_base = ext.base.n
    full = ext.full
    profiles = []
    for flat in full.lattice.flats:
        local = set(flat.local_indices)
        base_local = sum(i < n_base for i in local)
        # a list, then tuple(): a tuple built from a generator is allocated at
        # a guessed size and freed onto another free list, which keeps memory
        off = [h for i, h in enumerate(full.hyperplanes) if i not in local]
        profiles.append(FlatProfile(flat, len(local) - 2, tuple(off), tuple(off[: n_base - base_local]), base_local))
    return profiles


def hyperplanes_from_forms(forms: Sequence[str], dim: int = 3) -> list[Hyperplane]:
    """The hyperplanes of listed linear forms, as ``parse_arrangement`` reads them."""
    return parse_forms(forms, dim)[1]
