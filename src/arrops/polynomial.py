"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a dict mapping exponent tuples (one nonnegative int per
variable) to nonzero coefficients, each an ``int`` or a ``Fraction``.
Integer polynomials stay ``int`` under +, - and *; ``exact_div`` divides
exactly, never in floating point.
All ordering, division and serialization use graded lexicographic order
with x1 > x2 > ... > xl, which doubles as the deterministic tie-breaker
everywhere else in the library.

Values are immutable by convention: no method mutates ``terms`` after
construction, so polynomials can be shared freely and used as dict keys.

The packed layout lives here and nowhere else: a monomial of a polynomial
whose exponents stay below a radix R is the one int a_1 R^(l-1) + ... + a_l,
and a term dict maps such keys to values.  Other modules name a radix and
never compute a key: ``pack`` and ``unpack`` convert term dicts,
``packed_index`` is the one key table per degree and radix (positions in
``monomials_of_degree``), ``packed_product`` and ``packed_powers``
multiply by linear forms, and ``packed_text`` prints a packed dict
byte-for-byte as ``Poly.text`` prints its decoding.  ``int_text`` prints an
int of any size and ``rational_text`` an int or ``Fraction``; every number
the library prints goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, NotDivisible, ZeroForm

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


@cache
def monomials_of_degree(nvars: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of total degree ``degree``, graded-lex descending
    (one shared list per argument pair: callers do not modify it)."""
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
        clean: dict[MultiIndex, Fraction | int] = {}
        if terms:
            for a, c in terms.items():
                if type(c) is not int:
                    c = Fraction(c)
                if c:
                    if len(a) != nvars:
                        raise DimensionMismatch(f"exponent {a} has wrong length for {nvars} variables")
                    clean[a] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def _raw(nvars: int, terms: dict[MultiIndex, Fraction | int]) -> Poly:
        """Wrap terms that are already clean (nonzero exact coefficients)."""
        p = Poly.__new__(Poly)
        p.nvars, p.terms = nvars, terms
        return p

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, value: Fraction | int) -> Poly:
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> Poly:
        exp = [0] * nvars
        exp[index] = 1
        return Poly(nvars, {tuple(exp): 1})

    @staticmethod
    def variables(nvars: int) -> list[Poly]:
        return [Poly.variable(nvars, i) for i in range(nvars)]

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        """Degree if homogeneous and nonzero, else None."""
        degs = {sum(a) for a in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def leading_monomial(self) -> MultiIndex:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def sorted_terms(self) -> list[tuple[MultiIndex, Fraction]]:
        """Terms in graded-lex descending order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def constant_value(self) -> Fraction:
        """Value of a degree-<=0 polynomial."""
        if self.total_degree() > 0:
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, 0)

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
            s = out.get(a, 0) + c
            if s:
                out[a] = s
            else:
                out.pop(a, None)
        return Poly._raw(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly._raw(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other: Poly | int | Fraction) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other: int | Fraction) -> Poly:
        return Poly.constant(self.nvars, other) - self

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        if not isinstance(other, Poly):
            c = other if type(other) is int else Fraction(other)
            return Poly._raw(self.nvars, {a: v * c for a, v in self.terms.items()} if c else {})
        self._check(other)
        out: dict[MultiIndex, Fraction | int] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                k = midx_add(a, b)
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Poly._raw(self.nvars, out)

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
            c = Fraction(rem[rlm], gc)
            quo[diff] = c
            for b, cb in g.terms.items():
                k = midx_add(b, diff)
                s = rem.get(k, 0) - c * cb
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return Poly._raw(self.nvars, quo)

    # -- serialization --------------------------------------------------

    def text(self) -> str:
        """Canonical text form: graded-lex descending terms 'c*x1^a1*...'."""
        if not self.terms:
            return "0"
        parts = []
        for a, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(a) if e
            )
            parts.append(f"{rational_text(c)}*{mono}" if mono else rational_text(c))
        return " + ".join(parts)


def rational_content(values: Iterable[Fraction | int]) -> Fraction:
    """Positive rational c with every value / c an integer and their gcd 1;
    0 if every value is 0 or there are none."""
    values = list(values)
    fracs = [v for v in values if type(v) is not int]
    if not fracs:
        return Fraction(gcd(*values))
    return Fraction(gcd(*(v.numerator for v in values)), lcm(*(v.denominator for v in fracs)))


@cache
def packed_weights(radix: int, nvars: int) -> tuple[int, ...]:
    """R^(l-1), ..., R, 1: the packed key of each variable for radix R."""
    return tuple(radix ** (nvars - 1 - i) for i in range(nvars))


@cache
def packed_index(nvars: int, degree: int, radix: int) -> dict[int, int]:
    """The position of each degree-``degree`` monomial in ``monomials_of_degree``
    by packed key (radix above ``degree``), in that order: descending keys
    (``packed_text``).  One shared table per argument triple: callers do not
    modify it."""
    return pack({a: i for i, a in enumerate(monomials_of_degree(nvars, degree))}, nvars, radix)


def pack(terms: Mapping[MultiIndex, object], nvars: int, radix: int) -> dict:
    """``terms`` with each exponent tuple (every exponent below ``radix``)
    replaced by its packed key, values kept."""
    weights = packed_weights(radix, nvars)
    return {sum(map(mul, weights, a)): v for a, v in terms.items()}


def _times_form(terms: dict[int, int], units: list[tuple[int, int]]) -> dict[int, int]:
    """Packed ``terms`` times the form of units (weight of x_i, c_i != 0), for
    ``packed_product`` and ``packed_powers``; any packed polynomial's
    (key, value) pairs serve as units too."""
    w, c = units[0]
    out = {a + w: v * c for a, v in terms.items()}
    get = out.get
    for w, c in units[1:]:
        for a, v in terms.items():
            b = a + w
            out[b] = get(b, 0) + v * c
    return out


def packed_product(normals: Iterable[Sequence[int]], radix: int) -> dict[int, int]:
    """Product of the linear forms with the given coefficient vectors (1 for
    none), one ``_times_form`` per form, as a dict from packed keys (``radix``
    above every exponent the product reaches); {} if a form is zero.
    Cancelled terms stay, with value 0."""
    terms = {0: 1}
    for normal in normals:
        units = [(w, c) for w, c in zip(packed_weights(radix, len(normal)), normal) if c]
        if not units:
            return {}
        terms = _times_form(terms, units)
    return terms


def unpack(terms: Mapping[int, Fraction | int], nvars: int, radix: int) -> Poly:
    """The polynomial of a dict from packed keys in ``radix``, zero values dropped."""
    weights = packed_weights(radix, nvars)
    return Poly._raw(nvars, {tuple(key // w % radix for w in weights): v for key, v in terms.items() if v})


def form_product(normals: Iterable[Sequence[int]], nvars: int) -> Poly:
    """Product of the integer linear forms with the given coefficient vectors
    (1 for none), multiplied out one factor at a time over the integers.

    Inside the loop a monomial is one packed int a_1 R^(l-1) + ... + a_l with
    R = number of factors + 1: no exponent exceeds the number of factors, so
    x_i multiplies by adding R^(l-i) without carries (``packed_product``).
    The keys are decoded to exponent tuples once, at the end (``unpack``)."""
    normals = list(normals)
    return unpack(packed_product(normals, len(normals) + 1), nvars, len(normals) + 1)


@cache
def _monomial_names(nvars: int, degree: int) -> dict[int, str]:
    """``Poly.text``'s name of each degree-``degree`` monomial, with its leading
    '*' ('' for the constant), by packed key in radix degree + 1; one table
    per degree printed."""
    return {
        k: "".join(f"*x{i + 1}" if e == 1 else f"*x{i + 1}^{e}" for i, e in enumerate(a) if e)
        for k, a in zip(packed_index(nvars, degree, degree + 1), monomials_of_degree(nvars, degree))
    }


def packed_text(terms: Mapping[int, Fraction | int], nvars: int, degree: int) -> str:
    """``Poly.text`` of the homogeneous degree-``degree`` polynomial given by
    packed ``terms`` (radix degree + 1), zero values skipped.

    Descending keys are graded-lex descending: every exponent is at most
    ``degree`` < radix, so a key is the numeral with digits a_1 ... a_l,
    numerals of l digits compare as their digit tuples lexicographically, and
    monomials of one total degree compare in graded lex as their tuples do."""
    names = _monomial_names(nvars, degree)
    parts = [rational_text(terms[k]) + names[k] for k in sorted(terms, reverse=True) if terms[k]]
    return " + ".join(parts) if parts else "0"


def int_text(n: int) -> str:
    """``str(n)`` for every int, the interpreter's settings left alone.
    CPython (3.11 on, and 3.10.7 on) refuses to convert an int of more than
    ``sys.get_int_max_str_digits()`` decimal digits, 4300 by default.  This
    is ``int.__repr__`` when that succeeds; past the limit it writes the
    quotient and the remainder by 10^k, k about half the digit count, each
    the same way, the remainder padded to k digits."""
    try:
        return int.__repr__(n)
    except ValueError:
        if n < 0:
            return "-" + int_text(-n)
        k = n.bit_length() * 3 // 20  # log10(2) > 0.3: n has more than 2k digits
        high, low = divmod(n, 10**k)
        return int_text(high) + int_text(low).zfill(k)


def rational_text(c: Fraction | int) -> str:
    """``str(c)`` for every int and ``Fraction``, at any size: ``str`` when
    that succeeds; past the limit p, or p/q when the denominator q is not
    1, each written by ``int_text``."""
    try:
        return str(c)
    except ValueError:
        num, den = c.numerator, c.denominator
        return int_text(num) if den == 1 else f"{int_text(num)}/{int_text(den)}"


def packed_powers(form: Sequence[int], n: int, radix: int) -> list[dict[int, int]]:
    """w^0, ..., w^n of the nonzero integer form w, n one-factor steps, as dicts
    from packed keys (``radix`` > n, so keys of total degree <= n add without carries)."""
    units = [(w, c) for w, c in zip(packed_weights(radix, len(form)), form) if c]
    return list(accumulate(repeat(units, n), _times_form, initial={0: 1}))


def primitive_int_vector(vec: Iterable[Fraction | int | str]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with first nonzero entry
    positive (``ZeroForm`` if zero).  An all-``int`` vector takes one ``gcd``;
    otherwise an entry neither ``int`` nor ``Fraction`` is read as ``Fraction(entry)``."""
    ints = tuple(vec)  # a tuple is not copied
    try:
        g = gcd(*ints)
    except TypeError:
        fracs = [v if type(v) in (int, Fraction) else Fraction(v) for v in ints]
        den = lcm(*(f.denominator for f in fracs))
        ints = [f.numerator * (den // f.denominator) for f in fracs]
        g = gcd(*ints)
    if g == 0:
        raise ZeroForm("zero vector has no primitive form")
    if next(filter(None, ints)) < 0:
        g = -g
    return tuple([v // g for v in ints]) if g != 1 else tuple(ints)
