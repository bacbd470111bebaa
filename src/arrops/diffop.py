"""Homogeneous-order differential operators with polynomial coefficients.

An order-m operator is a finite sum over multi-indices a with |a| = m of
coefficient polynomials f_a times the monomial derivative d^a.  Operators
are immutable by convention, like polynomials.

Every closed-form operator (derivation powers, Euler operators, the
pencil blocks of ``freebasis``) is built by ``product_op``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .polynomial import (
    MultiIndex,
    Poly,
    form_product,
    grlex_key,
    midx_factorial,
    monomials_of_degree,
    primitive_int_vector,
    rational_content,
)


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

    # -- queries ---------------------------------------------------------

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

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: DiffOp) -> DiffOp:
        if (self.nvars, self.order) != (other.nvars, other.order):
            raise DimensionMismatch("operators must share variable count and order")
        out = dict(self.coeffs)
        for a, f in other.coeffs.items():
            s = out.get(a)
            s = f if s is None else s + f
            if s.is_zero():
                out.pop(a, None)
            else:
                out[a] = s
        return DiffOp(self.nvars, self.order, out)

    def __neg__(self) -> DiffOp:
        return DiffOp(self.nvars, self.order, {a: -f for a, f in self.coeffs.items()})

    def __sub__(self, other: DiffOp) -> DiffOp:
        return self + (-other)

    def mul_poly(self, p: Poly) -> DiffOp:
        return DiffOp(self.nvars, self.order, {a: f * p for a, f in self.coeffs.items()})

    # -- normalization and serialization -----------------------------------

    def leading_key(self) -> tuple[MultiIndex, MultiIndex]:
        """Graded-lex-largest (multi-index, monomial) pair with nonzero coefficient."""
        if not self.coeffs:
            raise ValueError("zero operator")
        a = max(self.coeffs, key=grlex_key)
        return a, self.coeffs[a].leading_monomial()

    def normalized_primitive(self) -> DiffOp:
        """Canonical scaling: ``int`` coefficients, joint content 1, leading > 0;
        the same for every nonzero constant multiple of the operator."""
        if not self.coeffs:
            return self
        c = rational_content(v for f in self.coeffs.values() for v in f.terms.values())
        num, den = c.numerator, c.denominator
        a, mono = self.leading_key()
        if self.coeffs[a].terms[mono] < 0:
            num = -num
        # v * den / num is an integer for every coefficient v, so // is exact
        out = {b: Poly._raw(f.nvars, {k: v * den // num for k, v in f.terms.items()}) for b, f in self.coeffs.items()}
        return DiffOp(self.nvars, self.order, out)

    def to_json(self) -> list:
        return [[list(a), f.text()] for a, f in self.sorted_coeffs()]


# -- constructors -----------------------------------------------------------


def identity_op(nvars: int) -> DiffOp:
    return DiffOp(nvars, 0, {(0,) * nvars: Poly.constant(nvars, 1)})


def partial_op(nvars: int, a: MultiIndex, coeff: Poly | int | Fraction = 1) -> DiffOp:
    f = coeff if isinstance(coeff, Poly) else Poly.constant(nvars, coeff)
    return DiffOp(nvars, sum(a), {tuple(a): f})


Factor = Sequence[int | Fraction]
Term = tuple[int | Fraction, Iterable[Factor], Iterable[Factor]]


def product_op(terms: Iterable[Term], nvars: int, order: int) -> DiffOp:
    """Sum over terms (c, forms, derivations) of c * (product of the linear
    forms) * (product of the constant derivations), all given by coefficient
    vectors.  Constant derivations commute, so ``form_product`` multiplies
    out both products, each once."""
    out: dict[MultiIndex, dict[MultiIndex, int | Fraction]] = {}
    for c, forms, derivs in terms:
        xs = form_product(forms, nvars).terms
        for a, u in form_product(derivs, nvars).terms.items():
            cu = c * u
            coeff = out.setdefault(a, {})
            for b, v in xs.items():
                coeff[b] = coeff.get(b, 0) + cu * v
    return DiffOp(nvars, order, {a: Poly._raw(nvars, {b: v for b, v in f.items() if v}) for a, f in out.items()})


class FactoredOp:
    """theta = P * theta', given by factor lists: P is the product of the
    linear forms ``cofactor``, each stored primitive with first nonzero entry
    positive (a zero form stays zero), and theta' = ``product_op(terms)``.
    ``core`` is theta' normalized (``normalized_primitive``) and ``op`` is
    P * ``core``, both built on first read and kept.  ``op`` is theta
    normalized: by Gauss's lemma content(P * theta') = content(theta'), and
    under grlex lc(P * f) = lc(P) * lc(f), lc(P) > 0 the product of the
    forms' first nonzero entries.  ``degree()`` is read off the factor
    counts, len(cofactor) + len(forms) in every term; None if they differ."""

    def __init__(self, nvars: int, order: int, cofactor: Sequence[Factor], terms: Sequence[Term]):
        self.nvars, self.order = nvars, order
        self.cofactor = tuple(primitive_int_vector(v) if any(v) else (0,) * len(v) for v in cofactor)
        self.terms = tuple((c, tuple(map(tuple, fs)), tuple(map(tuple, ds))) for c, fs, ds in terms)

    @cached_property
    def core(self) -> DiffOp:
        return product_op(self.terms, self.nvars, self.order).normalized_primitive()

    @cached_property
    def op(self) -> DiffOp:
        return self.core.mul_poly(form_product(self.cofactor, self.nvars)) if self.cofactor else self.core

    def degree(self) -> int | None:
        counts = {len(fs) for _, fs, _ in self.terms}
        return len(self.cofactor) + counts.pop() if len(counts) == 1 else None


def power_of_derivation(coeffs: Factor, k: int, nvars: int | None = None) -> DiffOp:
    """(sum c_i d_i)^k, expanded (``int`` coefficients for ``int`` c)."""
    if k < 0:
        raise ValueError("negative power")
    n = len(coeffs) if nvars is None else nvars
    if len(coeffs) != n:
        raise DimensionMismatch("coefficient vector length must equal variable count")
    return product_op([(1, (), [coeffs] * k)], n, k)


def euler_op(m: int, nvars: int) -> DiffOp:
    """Order-m Euler operator sum (m!/a!) x^a d^a over |a| = m.

    Acts on a homogeneous polynomial of degree d as multiplication by the
    falling factorial d(d-1)...(d-m+1); belongs to every operator module of
    a central arrangement.
    """
    if m < 0 or nvars < 1:
        raise ValueError("need m >= 0 and at least one variable")
    unit = [tuple(int(i == k) for k in range(nvars)) for i in range(nvars)]
    terms = []
    for a in monomials_of_degree(nvars, m):
        factors = [unit[i] for i, e in enumerate(a) for _ in range(e)]
        terms.append((factorial(m) // midx_factorial(a), factors, factors))
    return product_op(terms, nvars, m)


# -- coefficient matrices ----------------------------------------------------

# Interface constant: the coefficient matrix of a candidate basis has one row
# per operator and one column per multi-index d^a, columns in graded-lex
# descending order.

def saito_columns(nvars: int, order: int) -> list[MultiIndex]:
    return monomials_of_degree(nvars, order)


__all__ = [
    "DiffOp",
    "identity_op",
    "partial_op",
    "product_op",
    "FactoredOp",
    "power_of_derivation",
    "euler_op",
    "saito_columns",
    "primitive_int_vector",
]
