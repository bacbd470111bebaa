import random
from fractions import Fraction

import pytest
from reference import apply, compose_constant, euler_op, normalized_primitive, partial_op, power_of_derivation, saito_matrix

import arrops
from arrops import diffop
from arrops.diffop import DiffOp, FactoredOp
from arrops.errors import DimensionMismatch
from arrops.polynomial import Poly, monomials_of_degree

x1, x2, x3 = Poly.variables(3)


def random_poly(rng, nvars=3, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if sum(exp) <= max_deg:
            terms[exp] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(nvars, terms)


def test_apply_mixed_partial():
    theta = partial_op(3, (1, 1, 0))
    assert apply(theta, x1**2 * x2) == 2 * x1


def test_apply_order_exceeds_degree():
    theta = partial_op(3, (0, 0, 2))
    assert apply(theta, x1 * x2).is_zero()


def test_apply_euler_on_cubic():
    e1 = euler_op(1, 3)
    f = x1 * x2 * (x1 - x2)
    assert apply(e1, f) == 3 * f


def test_apply_linear_in_argument():
    rng = random.Random(3)
    theta = DiffOp(3, 2, {(1, 1, 0): x3, (0, 2, 0): x1 - x2})
    for _ in range(10):
        f, g = random_poly(rng), random_poly(rng)
        assert apply(theta, f + g) == apply(theta, f) + apply(theta, g)


def test_power_of_derivation_expansion():
    op = power_of_derivation((1, 1, 0), 2)
    expected = {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}
    assert {a: f.constant_value() for a, f in op.coeffs.items()} == expected
    assert power_of_derivation((0, 0, 1), 3).coeffs.keys() == {(0, 0, 3)}
    assert power_of_derivation((5, -7, 2), 0) == partial_op(3, (0, 0, 0))


def test_power_of_derivation_is_iterated_application():
    rng = random.Random(4)
    c = (Fraction(2), Fraction(-1, 2), Fraction(3))
    for k in (1, 2, 3):
        opk = power_of_derivation(c, k)
        first = power_of_derivation(c, 1)
        for _ in range(5):
            f = random_poly(rng, max_deg=4)
            once = f
            for _ in range(k):
                once = apply(first, once)
            assert apply(opk, f) == once


def test_compose_constant_examples():
    theta = DiffOp(3, 1, {(0, 1, 0): x2 * (x1 - x2)})
    eta = partial_op(3, (0, 0, 1))
    composed = compose_constant(theta, eta)
    assert composed.coeffs == {(0, 1, 1): x2 * (x1 - x2)}

    assert compose_constant(partial_op(3, (0, 0, 0)), partial_op(3, (2, 0, 0))) == partial_op(3, (2, 0, 0))

    e1 = DiffOp(3, 1, {(1, 0, 0): x1, (0, 1, 0): x2})
    out = compose_constant(e1, partial_op(3, (0, 0, 2)))
    assert out.coeffs == {(1, 0, 2): x1, (0, 1, 2): x2}


def test_compose_constant_rejects_polynomial_right_factor():
    theta = partial_op(3, (0, 0, 0))
    eta = DiffOp(3, 1, {(1, 0, 0): x1})
    with pytest.raises(ValueError):
        compose_constant(theta, eta)


def test_compose_constant_matches_nested_application():
    rng = random.Random(5)
    theta = DiffOp(3, 1, {(1, 0, 0): x3, (0, 0, 1): x1 * x2})
    eta = power_of_derivation((1, 2, 0), 2)
    comp = compose_constant(theta, eta)
    for _ in range(8):
        f = random_poly(rng, max_deg=4)
        assert apply(comp, f) == apply(theta, apply(eta, f))


def test_euler_examples():
    e12 = euler_op(1, 2)
    y1, y2 = Poly.variables(2)
    assert e12.coeffs == {(1, 0): y1, (0, 1): y2}
    assert apply(euler_op(2, 2), y1 * y2) == 2 * y1 * y2
    assert euler_op(0, 3) == partial_op(3, (0, 0, 0))


def test_euler_falling_factorial():
    for m in range(5):
        em = euler_op(m, 3)
        for d in range(7):
            f = x1 ** max(d - 1, 0) * (x2 if d else Poly.constant(3, 1))
            deg = f.total_degree()
            ff = 1
            for i in range(m):
                ff *= deg - i
            assert apply(em, f) == ff * f


def test_degree_and_normalization():
    theta = DiffOp(3, 2, {(0, 2, 0): Fraction(-2, 3) * x1 * x2})
    assert theta.degree() == 2
    norm = normalized_primitive(theta)
    assert norm.coeffs[(0, 2, 0)] == x1 * x2
    mixed = DiffOp(3, 1, {(1, 0, 0): x1 + x1**2})
    assert mixed.degree() is None


def test_factored_output_of_unequal_form_counts_is_refused():
    # x1 * d1 + d2: its terms have 1 and 0 forms, so its coefficients have no
    # one degree to print in; the constructor refuses it before any output
    terms = [(1, [(1, 0, 0)], [(1, 0, 0)]), (1, [], [(0, 1, 0)])]
    with pytest.raises(DimensionMismatch, match=r"unequal form counts \[0, 1\]$"):
        FactoredOp(3, 1, [], terms)


def test_saito_columns_order():
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomials_of_degree(3, 2)[0] == (2, 0, 0)
    partials = [partial_op(3, a) for a in monomials_of_degree(3, 1)]
    one, zero = Poly.constant(3, 1), Poly.zero(3)
    assert saito_matrix(partials) == [[one if i == j else zero for j in range(3)] for i in range(3)]


def test_exports_resolve_and_the_operator_algebra_is_retired():
    retired = {"euler_op", "identity_op", "partial_op", "power_of_derivation", "product_op"}
    for module in (arrops, diffop):
        for name in module.__all__:
            assert hasattr(module, name), name
        assert not retired & set(vars(module)), module.__name__
    for method in ("__add__", "__neg__", "__sub__", "mul_poly", "leading_key", "normalized_primitive", "pack"):
        assert not hasattr(DiffOp, method), method
