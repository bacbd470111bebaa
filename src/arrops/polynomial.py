"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a dict mapping exponent tuples (one nonnegative int per
variable) to nonzero Fractions.  All ordering, division and serialization
use graded lexicographic order with x1 > x2 > ... > xl, which doubles as
the deterministic tie-breaker everywhere else in the library.

Values are immutable by convention: no method mutates ``terms`` after
construction, so polynomials can be shared freely and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Iterable, Iterator, Mapping

from .errors import DimensionMismatch, NotDivisible

MultiIndex = tuple[int, ...]


def grlex_key(a: MultiIndex) -> tuple[int, MultiIndex]:
    """Sort key realizing graded lex order (larger key = larger monomial)."""
    return (sum(a), a)


def midx_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def midx_factorial(a: MultiIndex) -> int:
    out = 1
    for e in a:
        out *= factorial(e)
    return out


def monomials_of_degree(nvars: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of total degree ``degree``, graded-lex descending."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        out.extend((e, *rest) for rest in monomials_of_degree(nvars - 1, degree - e))
    return out


def s_dim(m: int, l: int) -> int:
    """Number of degree-m monomials in l variables (the rank of the order-m module)."""
    return comb(m + l - 1, m) if m >= 0 else 0


class Poly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, Fraction | int] | None = None):
        self.nvars = nvars
        clean: dict[MultiIndex, Fraction] = {}
        if terms:
            for a, c in terms.items():
                c = Fraction(c)
                if c:
                    if len(a) != nvars:
                        raise DimensionMismatch(f"exponent {a} has wrong length for {nvars} variables")
                    clean[a] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, value: Fraction | int) -> Poly:
        return Poly(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, index: int) -> Poly:
        exp = [0] * nvars
        exp[index] = 1
        return Poly(nvars, {tuple(exp): Fraction(1)})

    @staticmethod
    def variables(nvars: int) -> list[Poly]:
        return [Poly.variable(nvars, i) for i in range(nvars)]

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(a) for a in self.terms}) <= 1

    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous and nonzero, else None."""
        degs = {sum(a) for a in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def leading_monomial(self) -> MultiIndex:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def constant_value(self) -> Fraction:
        """Value of a degree-<=0 polynomial."""
        if self.total_degree() > 0:
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other: Poly | int | Fraction) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            s = out.get(a, Fraction(0)) + c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        p = Poly.__new__(Poly)
        p.nvars, p.terms = self.nvars, out
        return p

    __radd__ = __add__

    def __neg__(self) -> Poly:
        p = Poly.__new__(Poly)
        p.nvars, p.terms = self.nvars, {a: -c for a, c in self.terms.items()}
        return p

    def __sub__(self, other: Poly | int | Fraction) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other: int | Fraction) -> Poly:
        return Poly.constant(self.nvars, other) - self

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if not isinstance(other, Poly):
            c = Fraction(other)
            p = Poly.__new__(Poly)
            p.nvars = self.nvars
            p.terms = {a: v * c for a, v in self.terms.items()} if c else {}
            return p
        self._check(other)
        out: dict[MultiIndex, Fraction] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                k = midx_add(a, b)
                s = out.get(k, Fraction(0)) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
        p = Poly.__new__(Poly)
        p.nvars, p.terms = self.nvars, out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.text()!r})"

    # -- calculus ------------------------------------------------------

    def partial(self, a: MultiIndex) -> Poly:
        """Apply the monomial differential operator d^a.

        d^a(x^b) = (b! / (b-a)!) x^(b-a) when b >= a componentwise, else 0.
        """
        if len(a) != self.nvars:
            raise DimensionMismatch(f"multi-index {a} for {self.nvars} variables")
        out: dict[MultiIndex, Fraction] = {}
        for b, c in self.terms.items():
            coeff = 1
            ok = True
            for bi, ai in zip(b, a):
                if bi < ai:
                    ok = False
                    break
                for t in range(bi, bi - ai, -1):
                    coeff *= t
            if not ok:
                continue
            k = tuple(bi - ai for bi, ai in zip(b, a))
            s = out.get(k, Fraction(0)) + c * coeff
            if s:
                out[k] = s
            else:
                del out[k]
        p = Poly.__new__(Poly)
        p.nvars, p.terms = self.nvars, out
        return p

    # -- division ------------------------------------------------------

    def exact_div(self, g: Poly) -> Poly:
        """Return q with self = q * g, or raise NotDivisible.

        Graded-lex leading-term division; correct exactness test because the
        leading monomial of any product is the product of leading monomials.
        """
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        glm = g.leading_monomial()
        gc = g.terms[glm]
        rem = dict(self.terms)
        quo: dict[MultiIndex, Fraction] = {}
        while rem:
            rlm = max(rem, key=grlex_key)
            diff = tuple(r - s for r, s in zip(rlm, glm))
            if any(e < 0 for e in diff):
                raise NotDivisible(f"remainder term x^{rlm} not divisible by leading term x^{glm}")
            c = rem[rlm] / gc
            quo[diff] = c
            for b, cb in g.terms.items():
                k = midx_add(b, diff)
                s = rem.get(k, Fraction(0)) - c * cb
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        p = Poly.__new__(Poly)
        p.nvars, p.terms = self.nvars, quo
        return p

    def divides(self, f: Poly) -> bool:
        try:
            f.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- substitution and evaluation ------------------------------------

    def substitute(self, images: list[Poly]) -> Poly:
        """Evaluate the polynomial at x_i = images[i] (all in a common ring)."""
        if len(images) != self.nvars:
            raise DimensionMismatch("one image polynomial per variable required")
        tvars = images[0].nvars if images else self.nvars
        caches: list[dict[int, Poly]] = [{0: Poly.constant(tvars, 1)} for _ in images]

        def power(i: int, e: int) -> Poly:
            cache = caches[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * images[i]
            return cache[e]

        out = Poly.zero(tvars)
        for a, c in self.terms.items():
            term = Poly.constant(tvars, c)
            for i, e in enumerate(a):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def evaluate(self, point: Iterable[Fraction | int]) -> Fraction:
        pt = [Fraction(v) for v in point]
        if len(pt) != self.nvars:
            raise DimensionMismatch("point length must equal variable count")
        total = Fraction(0)
        for a, c in self.terms.items():
            v = c
            for x, e in zip(pt, a):
                if e:
                    v *= x**e
            total += v
        return total

    # -- normalization and serialization --------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self / c integer-primitive; 0 for zero."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> Poly:
        """Scale to integer coefficients with gcd 1 and positive leading coefficient."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading_coefficient() < 0:
            c = -c
        return self * (1 / c)

    def text(self) -> str:
        """Canonical text form: graded-lex descending terms 'c*x1^a1*...'."""
        if not self.terms:
            return "0"
        parts = []
        for a, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(a) if e
            )
            parts.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(parts)


@dataclass(frozen=True)
class LinearForm:
    """Homogeneous degree-1 form given by its coefficient vector."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: Iterable[Fraction | int]) -> LinearForm:
        return LinearForm(tuple(Fraction(c) for c in coeffs))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_poly(self) -> Poly:
        n = len(self.coeffs)
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return Poly(n, terms)

    def __call__(self, vector: Iterable[Fraction | int]) -> Fraction:
        return sum((c * Fraction(v) for c, v in zip(self.coeffs, vector)), Fraction(0))

    def text(self) -> str:
        return self.to_poly().text()


def primitive_int_vector(vec: Iterable[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with first nonzero entry positive."""
    fracs = [Fraction(v) for v in vec]
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)
