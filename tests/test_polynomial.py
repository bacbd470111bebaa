import random
from fractions import Fraction

import pytest
from reference import partial, substitute

from arrops.errors import NotDivisible
from arrops.polynomial import (
    Poly,
    form_product,
    monomials_of_degree,
    pack,
    packed_index,
    primitive_int_vector,
    s_dim,
    unpack,
)

x1, x2, x3 = Poly.variables(3)


def random_poly(rng, nvars=3, max_terms=6, max_deg=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exp) > max_deg:
            continue
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Poly(nvars, terms)


def test_zero_terms_pruned():
    p = Poly(3, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert list(p.terms) == [(0, 1, 0)]
    assert (p - p).is_zero()


def test_graded_lex_leading():
    p = x1 * x2 + x2**2 + x3**3
    assert p.leading_monomial() == (0, 0, 3)
    q = x1**2 + x1 * x2
    assert q.leading_monomial() == (2, 0, 0)


def test_monomials_of_degree_order():
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 2)[0] == (2, 0, 0)
    assert len(monomials_of_degree(3, 4)) == 15


def test_arithmetic_ring_axioms():
    rng = random.Random(1)
    for _ in range(20):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
        assert (f - f).is_zero()


def test_exact_div_difference_of_squares():
    assert (x1**2 - x2**2).exact_div(x1 - x2) == x1 + x2


def test_exact_div_quad_defining_poly():
    q = x1 * x2 * x3 * (x1 - x2)
    assert q.exact_div(x1 * x2 * (x1 - x2)) == x3


def test_exact_div_rejects_remainder():
    with pytest.raises(NotDivisible):
        (x1 * x2 + 1).exact_div(x1)


def test_exact_div_roundtrip_random():
    rng = random.Random(2)
    done = 0
    while done < 25:
        f, g = random_poly(rng), random_poly(rng)
        if g.is_zero():
            continue
        assert (f * g).exact_div(g) == f
        done += 1


def test_partial_derivative():
    p = x1**2 * x2
    assert partial(p, (1, 1, 0)) == 2 * x1
    assert partial(p, (0, 0, 1)).is_zero()
    assert partial(p, (0, 0, 0)) == p


def test_substitute_linear_change():
    p = x1 * x2
    q = substitute(p, [x1 + x2, x1 - x2, x3])
    assert q == x1**2 - x2**2


def test_form_product_edges():
    # one variable taking every factor: its exponent is the largest digit
    # the packed keys hold
    y1, y2, y3 = Poly.variables(3)
    assert form_product([(0, 0, 1)] * 4, 3) == y3**4
    assert form_product([(1, 1, 0)] * 3 + [(0, 0, 2)], 3) == (y1 + y2) ** 3 * 2 * y3
    assert form_product([(1, -1, 0), (1, 1, 0)], 3) == y1**2 - y2**2
    assert form_product([], 2) == Poly.constant(2, 1)
    assert form_product([(1, 0), (0, 0)], 2).is_zero()
    assert form_product([(5,)] * 3, 1) == Poly(1, {(3,): 125})


@pytest.mark.parametrize("nvars", [2, 3])
def test_packed_index_is_monomials_of_degree_by_descending_key(nvars):
    # the one key table: graded-lex positions by packed key, in graded-lex
    # order, for every radix above the degree
    for degree in range(11):
        monomials = monomials_of_degree(nvars, degree)
        terms = {a: i for i, a in enumerate(monomials)}
        for radix in range(degree + 1, degree + 4):
            index = packed_index(nvars, degree, radix)
            packed = pack(terms, nvars, radix)
            assert list(packed.items()) == list(index.items())
            assert list(index.values()) == list(range(s_dim(degree, nvars)))
            keys = list(index)
            assert all(a > b for a, b in zip(keys, keys[1:]))
            assert unpack(packed, nvars, radix) == Poly(nvars, terms)
            assert unpack({k: 1 for k in index}, nvars, radix) == Poly(nvars, dict.fromkeys(monomials, 1))


def test_homogeneous_degree():
    assert (x1 * x2).homogeneous_degree() == 2
    assert (x1 + x2**2).homogeneous_degree() is None
    assert Poly.zero(3).homogeneous_degree() is None


def test_text_canonical():
    p = x1**2 - x2**2
    assert p.text() == "1*x1^2 + -1*x2^2"
    assert Poly.zero(3).text() == "0"
    assert Poly.constant(3, Fraction(-3, 2)).text() == "-3/2"
    assert (Fraction(1, 2) * x1 * x3).text() == "1/2*x1*x3"


def test_linear_form():
    f = form_product([(1, -1, 0)], 3)
    assert f == x1 - x2
    assert substitute(f, [Poly.constant(3, v) for v in (1, 1, 5)]).is_zero()
    assert substitute(f, [Poly.constant(3, v) for v in (2, 1, 0)]) == Poly.constant(3, 1)


def test_primitive_int_vector():
    assert primitive_int_vector((Fraction(-2, 3), Fraction(4, 3), Fraction(0))) == (1, -2, 0)
    assert primitive_int_vector((0, 0, 5)) == (0, 0, 1)
    with pytest.raises(ValueError):
        primitive_int_vector((0, 0, 0))
