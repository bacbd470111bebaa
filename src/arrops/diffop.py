"""Homogeneous-order differential operators with polynomial coefficients.

An order-m operator is a finite sum over multi-indices a with |a| = m of
coefficient polynomials f_a times the monomial derivative d^a.  A
``DiffOp`` is such an operator decoded to tuple keys, a value: it is
built, compared, hashed and printed, and has no arithmetic.

Every closed-form operator (the pencil blocks of ``freebasis``) is built
from its factor lists by one packed loop (``_packed_terms``), in the
packed layout that only ``polynomial`` computes (``Packed``: derivative
keys in radix m + 1, coefficient monomials in one radix above every
exponent); this module names radixes and computes no key.  A
``FactoredOp`` is homogeneous (its terms have one form count), has one
radix, its degree + 1, keeps its core packed in it for the certificate and
for ``basis`` output, and decodes to a ``DiffOp`` (``_unpacked``) only
when ``core`` or ``op`` is read (by tests and demos).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .polynomial import (
    MultiIndex,
    Poly,
    _times_form,
    grlex_key,
    monomials_of_degree,
    packed_index,
    packed_product,
    packed_text,
    primitive_int_vector,
    rational_content,
    unpack,
)

# An operator packed: derivative key (radix order + 1) -> its coefficient's
# terms, monomial key -> value, in one radix above every exponent.
Packed = dict[int, dict[int, int | Fraction]]


class DiffOp:
    """Operator sum(f_a * d^a) with all |a| equal to ``order``."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: Mapping[MultiIndex, Poly] | None = None):
        self.nvars = nvars
        self.order = order
        clean: dict[MultiIndex, Poly] = {}
        if coeffs:
            for a, f in coeffs.items():
                if f.is_zero():
                    continue
                if len(a) != nvars or sum(a) != order:
                    raise DimensionMismatch(f"multi-index {a} invalid for order {order} in {nvars} variables")
                clean[tuple(a)] = f
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Common homogeneous degree of all coefficients, or None."""
        degs = set()
        for f in self.coeffs.values():
            d = f.homogeneous_degree()
            if d is None:
                return None
            degs.add(d)
        return degs.pop() if len(degs) == 1 else None

    def sorted_coeffs(self) -> list[tuple[MultiIndex, Poly]]:
        return sorted(self.coeffs.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiffOp)
            and (self.nvars, self.order) == (other.nvars, other.order)
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.order, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"DiffOp({self.text()!r})"

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for a, f in self.sorted_coeffs():
            mono = "*".join(f"d{i + 1}" if e == 1 else f"d{i + 1}^{e}" for i, e in enumerate(a) if e)
            parts.append(f"({f.text()}){('*' + mono) if mono else ''}")
        return " + ".join(parts)

    def to_json(self) -> list:
        return [[list(a), f.text()] for a, f in self.sorted_coeffs()]


Factor = Sequence[int | Fraction]
Term = tuple[int | Fraction, Iterable[Factor], Iterable[Factor]]


def _packed_terms(terms: Iterable[Term], order: int, radix: int) -> Packed:
    """Sum over terms (c, forms, derivations) of c * (product of the forms) *
    (product of the derivations), packed, monomial keys in ``radix`` (above
    every form count); no zero value and no empty coefficient.  Constant
    derivations commute, so ``packed_product`` multiplies out both products,
    each once."""
    out: Packed = {}
    for c, forms, derivs in terms:
        if len(derivs) != order:
            raise DimensionMismatch(f"a term with {len(derivs)} derivations in an operator of order {order}")
        xs = packed_product(forms, radix)
        for a, u in packed_product(derivs, order + 1).items():
            cu = c * u
            coeff = out.setdefault(a, {})
            get = coeff.get
            for b, v in xs.items():
                coeff[b] = get(b, 0) + cu * v
    return {a: f for a, f in ((a, {b: v for b, v in f.items() if v}) for a, f in out.items()) if f}


def _unpacked(packed: Packed, nvars: int, order: int, radix: int) -> DiffOp:
    """The operator of ``packed`` (monomial keys in ``radix``), tuple-keyed."""
    index, columns = packed_index(nvars, order, order + 1), monomials_of_degree(nvars, order)
    return DiffOp(nvars, order, {columns[index[a]]: unpack(f, nvars, radix) for a, f in packed.items()})


class FactoredOp:
    """theta = P * theta', given by factor lists: P is the product of the
    linear forms ``cofactor``, each stored primitive with first nonzero entry
    positive (a zero form stays zero), and theta' the sum of the ``terms``
    (c, forms, derivations), as ``_packed_terms`` reads them.  Every term has
    the same number e of forms (``DimensionMismatch`` otherwise), so theta
    is homogeneous.

    ``degree()`` is read off the factor counts, len(cofactor) + e, and the
    one ``radix`` is degree() + 1.  No exponent of theta' (at most e) or of
    P * theta' (at most degree()) reaches it, so both and their decodings
    (``core``, ``op``) use monomial keys in that radix.

    ``packed``, which the certificate reads, is theta' normalized, the same
    for every nonzero constant multiple, packed: the joint content taken
    out, then the value at the largest monomial key under the largest
    derivative key made positive.  Within one degree descending keys are
    grlex descending (``packed_text``), so that value is the grlex leading
    coefficient.  ``to_json`` multiplies ``packed`` by P on packed keys and
    prints them; ``core`` and ``op`` decode theta' and P * theta' (tests and
    demos).  P * theta' is theta normalized: by Gauss's lemma
    content(P * theta') = content(theta'), and under grlex
    lc(P * f) = lc(P) * lc(f), lc(P) > 0 the product of the forms' first
    nonzero entries."""

    def __init__(self, nvars: int, order: int, cofactor: Sequence[Factor], terms: Sequence[Term]):
        self.nvars, self.order = nvars, order
        self.cofactor = tuple(primitive_int_vector(v) if any(v) else (0,) * len(v) for v in cofactor)
        self.terms = tuple((c, tuple(map(tuple, fs)), tuple(map(tuple, ds))) for c, fs, ds in terms)
        counts = {len(fs) for _, fs, _ in self.terms}
        if len(counts) > 1:
            raise DimensionMismatch(f"a factored operator's terms have unequal form counts {sorted(counts)}")
        self.radix = len(self.cofactor) + max(counts, default=0) + 1

    @cached_property
    def packed(self) -> Packed:
        packed = _packed_terms(self.terms, self.order, self.radix)
        if not packed:
            return packed
        content = rational_content(v for f in packed.values() for v in f.values())
        num, den = content.numerator, content.denominator
        lead = packed[max(packed)]
        if lead[max(lead)] < 0:
            num = -num
        if (num, den) == (1, 1):
            return packed
        # v * den / num is an integer for every value v, so // is exact
        return {a: {k: v * den // num for k, v in f.items()} for a, f in packed.items()}

    def multiplied(self) -> Packed:
        """P * theta', packed: P multiplied out once (``packed_product``), then
        each coefficient of ``packed`` multiplied by it (one ``_times_form``,
        P's terms for the form's); cancelled terms stay, valued 0.
        ``packed`` itself when there is no cofactor."""
        if not self.cofactor:
            return self.packed
        p = {k: v for k, v in packed_product(self.cofactor, self.radix).items() if v}
        return {a: _times_form(p, list(f.items())) if p else {} for a, f in self.packed.items()}

    @cached_property
    def core(self) -> DiffOp:
        return _unpacked(self.packed, self.nvars, self.order, self.radix)

    @cached_property
    def op(self) -> DiffOp:
        if not self.cofactor:
            return self.core
        return _unpacked(self.multiplied(), self.nvars, self.order, self.radix)

    def is_zero(self) -> bool:
        """A zero core or a zero cofactor form."""
        return not self.packed or not all(map(any, self.cofactor))

    def degree(self) -> int:
        return self.radix - 1

    def to_json(self) -> list:
        """``op.to_json()`` from packed keys: [multi-index, ``Poly.text`` of
        its coefficient] in ``monomials_of_degree`` order, P * theta' never
        decoded."""
        full = self.multiplied()
        return [[list(a), packed_text(full[k], self.nvars, self.radix - 1)] for k, a in zip(packed_index(self.nvars, self.order, self.order + 1), monomials_of_degree(self.nvars, self.order)) if k in full]


__all__ = ["DiffOp", "FactoredOp"]
