"""Closed-form exponent multisets.

Three sources: the two-variable formula (a 2-arrangement is free at every
order), the product formula for arrangements with a trivial factor, and the
closed form for essential 3-arrangements at order m >= n - 2, which reads
the multiset straight off the rank-2 flats of the base arrangement:

    {j + n - k_X : X a flat, 0 <= j <= k_X - 2}
    plus n-1 with multiplicity (m+2)n - n^2 + C(n,2) - sum_X (k_X - 1)
    plus n   with multiplicity C(m+2-n, 2),

where k_X is the number of hyperplanes through X.  The closed form checks
its own cardinality and degree-sum identities before returning, so a
transcription mistake fails loudly rather than producing a plausible multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .arrangement import Arrangement
from .errors import BadOrder, IdentityViolated, NotEssential
from .polynomial import s_dim


@dataclass(frozen=True)
class ExponentMultiset:
    """Sorted multiset of basis degrees for one operator order."""

    entries: tuple[int, ...]
    m: int
    source: str

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {"m": self.m, "exponents": list(self.entries), "source": self.source}


def _sorted(entries: Iterable[int], m: int, source: str) -> ExponentMultiset:
    return ExponentMultiset(tuple(sorted(entries)), m, source)


def exp_2arr(k: int, m: int) -> ExponentMultiset:
    """Exponents of a 2-arrangement with k lines at order m (size m + 1)."""
    if k < 0 or m < 0:
        raise BadOrder("need k >= 0 and m >= 0")
    if m <= k - 1:
        entries = [m] + [k - 1] * m
    else:
        entries = [k - 1] * k + [k] * (m - k + 1)
    return _sorted(entries, m, "closed-form")


def exp_product(lists1: Sequence[Iterable[int]], lists2: Sequence[Iterable[int]]) -> ExponentMultiset:
    """Exponents of a product arrangement from per-order exponents of the factors.

    Arguments are the exponent multisets of each factor for orders 0..m.
    """
    if len(lists1) != len(lists2) or not lists1:
        raise BadOrder("need exponent lists for every order 0..m of both factors")
    m = len(lists1) - 1
    entries = [
        d + e
        for i in range(m + 1)
        for d in lists1[i]
        for e in lists2[m - i]
    ]
    return _sorted(entries, m, "closed-form")


def exp_3arr_closed(arr: Arrangement, m: int) -> ExponentMultiset:
    """Closed-form exponents of an essential 3-arrangement for m >= n - 2."""
    if arr.dim != 3:
        raise BadOrder("closed form applies to 3-arrangements")
    if not arr.is_essential():
        raise NotEssential("closed form needs an essential arrangement")
    n = arr.n
    if m < n - 2:
        raise BadOrder(f"need m >= n - 2 = {n - 2}, got m = {m}")

    local_sizes = [len(arr.localization_indices(v)) for v in arr.flat_directions()]
    entries: list[int] = []
    for k_x in local_sizes:
        entries.extend(j + n - k_x for j in range(k_x - 1))
    mult_nm1 = (m + 2) * n - n * n + comb(n, 2) - sum(k_x - 1 for k_x in local_sizes)
    entries.extend([n - 1] * mult_nm1)
    entries.extend([n] * comb(m + 2 - n, 2))

    if len(entries) != s_dim(m, 3):
        raise IdentityViolated(f"closed form produced {len(entries)} exponents, expected {s_dim(m, 3)}")
    if sum(entries) != n * comb(m + 1, 2):
        raise IdentityViolated(f"closed form degree sum {sum(entries)} != {n * comb(m + 1, 2)}")
    return _sorted(entries, m, "closed-form")


def exp_for_arrangement(arr: Arrangement, m: int) -> ExponentMultiset:
    """Exponents of any supported arrangement at order m.

    Essential 3-arrangements use the closed form (m >= n - 2 required);
    rank <= 2 arrangements in dimension 3 split off a trivial factor, so the
    result is the union over j <= m of the 2-variable multisets; plain
    2-arrangements use the 2-variable formula directly.
    """
    if arr.dim == 2:
        return exp_2arr(arr.n, m)
    if arr.is_essential():
        return exp_3arr_closed(arr, m)
    factor = [list(exp_2arr(arr.n, j)) for j in range(m + 1)]
    trivial = [[0]] * (m + 1)
    result = exp_product(factor, trivial)
    return ExponentMultiset(result.entries, m, "closed-form")


def from_degrees(degrees: Iterable[int], m: int) -> ExponentMultiset:
    return _sorted(degrees, m, "from-basis")
