"""Hypothesis properties of exact division, integer stripping and the
on-demand flat cofactors (profile ``arrops`` in conftest: derandomized,
bounded example counts)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given
from hypothesis import strategies as st

from arrops.arrangement import Arrangement, Hyperplane
from arrops.errors import NotDivisible
from arrops.extension import extend, flat_profiles
from arrops.polynomial import Poly, monomials_of_degree
from arrops.verify import _divide_row

small = st.integers(-4, 4)


@st.composite
def homogeneous(draw, degree, nvars=3):
    """Integer homogeneous polynomial of the given degree, as a term dict."""
    monos = monomials_of_degree(nvars, degree)
    return {a: c for a, c in zip(monos, draw(st.lists(small, min_size=len(monos), max_size=len(monos)))) if c}


normals = st.tuples(small, small, small).filter(any).map(lambda v: Hyperplane.make(v).normal)


def with_degree(strategy, high=4):
    """Pairs (d, x) with x drawn from strategy(d), 0 <= d <= high."""
    return st.integers(0, high).flatmap(lambda d: st.tuples(st.just(d), strategy(d)))


def int_terms(g):
    return {a: int(v) for a, v in g.terms.items()}


@given(with_degree(lambda d: st.lists(homogeneous(d), min_size=1, max_size=3)), normals)
def test_divide_row_inverts_multiplication(case, normal):
    d, row = case
    alpha = Hyperplane(normal).poly()
    products = [Poly(3, f) * alpha for f in row]
    assert _divide_row([int_terms(g) for g in products], normal, monomials_of_degree(3, d + 1)) == row
    assert [g.exact_div(alpha) for g in products] == [Poly(3, f) for f in row]


@given(with_degree(homogeneous), normals, st.data())
def test_divide_row_rejects_non_multiples(case, normal, data):
    # f * alpha plus a monomial free of alpha's leading variable is no multiple of alpha
    d, f = case
    p = next(i for i, c in enumerate(normal) if c)
    b = data.draw(st.sampled_from([a for a in monomials_of_degree(3, d + 1) if a[p] == 0]))
    alpha = Hyperplane(normal).poly()
    g = Poly(3, f) * alpha + Poly(3, {b: data.draw(small.filter(bool))})
    assert _divide_row([int_terms(g)], normal, monomials_of_degree(3, d + 1)) is None
    with pytest.raises(NotDivisible):
        g.exact_div(alpha)


@given(with_degree(homogeneous, high=3), normals, st.integers(0, 2))
def test_divide_row_agrees_with_exact_div(case, normal, var):
    # a multiple of one variable, so that some cases divide (alpha = that variable)
    d, h = case
    g = Poly(3, h) * Poly.variable(3, var)
    quotients = _divide_row([int_terms(g)], normal, monomials_of_degree(3, d + 1))
    try:
        expected = [g.exact_div(Hyperplane(normal).poly())]
    except NotDivisible:
        assert quotients is None
    else:
        assert quotients is not None and [Poly(3, q) for q in quotients] == expected


def test_divide_row_checks_leading_quotients():
    # 3*x1 + x2 - (2*x1 + x2) = x1: the x2 terms cancel, so only the
    # non-integer leading quotient 3/2 shows that 2*x1 + x2 does not divide
    assert _divide_row([{(1, 0, 0): 3, (0, 1, 0): 1}], (2, 1, 0), monomials_of_degree(3, 1)) is None


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polys(draw, max_degree=3):
    monos = [a for d in range(max_degree + 1) for a in monomials_of_degree(2, d)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
    return Poly(2, {a: draw(rationals) for a in chosen})


@given(polys(), polys())
def test_exact_div_inverts_multiplication(f, g):
    assume(not g.is_zero())
    assert (f * g).exact_div(g) == f


@st.composite
def essential(draw):
    planes = draw(st.lists(normals, min_size=3, max_size=5, unique=True))
    arr = Arrangement(3, [Hyperplane(v) for v in planes])
    assume(arr.is_essential())
    return arr


@given(essential(), st.integers(0, 1))
def test_cofactor_times_local_product_is_q(arr, extra):
    ext = extend(arr, arr.n - 2 + extra)
    for profile in flat_profiles(ext):
        direction = profile.flat.direction
        for planes, cofactor in (
            (ext.full, profile.off_flat_product),
            (arr, profile.base_off_flat_product),
        ):
            local = planes.localization(direction)
            assert cofactor * local.defining_polynomial() == planes.defining_polynomial()
