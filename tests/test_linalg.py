import random
from fractions import Fraction
from math import gcd

import pytest
from reference import compose_constant, det_cofactor, mul_poly, power_of_derivation, saito_matrix

from arrops import verify
from arrops.arrangement import parse_arrangement
from arrops.diffop import DiffOp
from arrops.linalg import (
    det_int,
    det_poly_matrix,
    echelon_int,
    nullspace,
    nullspace_int,
    rank_int,
    rref,
)
from arrops.polynomial import Poly, primitive_int_vector

x1, x2, x3 = Poly.variables(3)


def F(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rref_and_rank():
    red, pivots = rref(F([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), 3)
    assert pivots == [0, 1]
    assert len(rref(F([[1, 0], [0, 1], [1, 1]]), 2)[1]) == 2


def test_nullspace():
    basis = nullspace(F([[1, 1, 0]]), 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0


def test_rank_int_matches_rational_rank():
    rng = random.Random(6)
    for _ in range(15):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        assert rank_int(rows) == len(rref(F(rows), 5)[1])


def _integer_matrices(rng):
    """Seeded integer matrices: tall, wide, square of low rank, with zero rows or
    columns, and empty (no rows, or rows of length 0)."""
    yield [], 4
    yield [[], []], 0
    yield [[0, 0, 0], [0, 0, 0]], 3
    for nrows, ncols in [(7, 3), (3, 7), (6, 6), (9, 5), (1, 4), (4, 1)]:
        for _ in range(4):
            rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            yield rows, ncols
            yield [[r[0] * v for v in rows[0]] for r in rows], ncols  # rank <= 1
            zero_col = rng.randrange(ncols)
            holes = [[0 if j == zero_col or i % 3 == 1 else v for j, v in enumerate(row)] for i, row in enumerate(rows)]
            yield holes, ncols


def test_echelon_int_rank_matches_rational_rank():
    for rows, ncols in _integer_matrices(random.Random(11)):
        expected = len(rref(F(rows), ncols)[1])
        red, pivots = echelon_int(rows)
        assert len(red) == len(pivots) == expected == rank_int(rows)
        assert pivots == sorted(set(pivots))
        for k, (row, pc) in enumerate(zip(red, pivots)):
            assert row[pc] != 0 and not any(row[:pc])
            assert gcd(*row) == 1
            assert all(other[pc] == 0 for j, other in enumerate(red) if j != k)
        # same row space: stacking the echelon rows adds no rank
        assert len(rref(F(red + rows), ncols)[1]) == expected


def test_nullspace_int_is_exact_primitive_kernel():
    for rows, ncols in _integer_matrices(random.Random(12)):
        kernel = nullspace_int(rows, ncols)
        assert len(kernel) == ncols - len(rref(F(rows), ncols)[1])
        for v in kernel:
            assert len(v) == ncols
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
            assert gcd(*v) == 1 and next(x for x in v if x) > 0
        assert kernel == [primitive_int_vector(v) for v in nullspace(F(rows), ncols)]


def test_rank_and_nullspace_int_match_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    cases = []
    for nrows, ncols in [(6, 9), (9, 6), (12, 20), (20, 12)]:
        for density in (0.1, 0.3):
            rows = [[rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
            rows.append([a - 2 * b for a, b in zip(rows[0], rows[1])])  # rank-deficient
            cases.append(rows)
    # the rank matrices the oracle builds for quad at m = 2, up to its top exponent + 2
    captured = []
    monkeypatch.setattr(verify, "rank_int", lambda rows: captured.append(rows) or rank_int(rows))
    verify.oracle_dims(parse_arrangement("x1; x2; x3; x1-x2"), 2, 5)
    assert len(captured) == 6 and all(captured)  # nonempty rank matrices
    for rows in cases + captured:
        matrix = sympy.Matrix(rows)
        assert rank_int(rows) == matrix.rank()
        expected = [primitive_int_vector(Fraction(int(v.p), int(v.q)) for v in vec) for vec in matrix.nullspace()]
        assert nullspace_int(rows, matrix.cols) == expected


def test_det_int_matches_cofactor():
    rng = random.Random(5)
    assert det_int([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([[7]]) == 7
    for size in range(1, 6):
        for _ in range(20):
            m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(size)] for _ in range(size)]
            expected = det_cofactor([[Poly.constant(1, v) for v in row] for row in m]).constant_value()
            assert det_int(m) == expected, m


def test_det_small_examples():
    assert det_poly_matrix([[x1]]) == x1
    assert det_poly_matrix([[x1, x2], [x2, x1]]) == x1**2 - x2**2


def test_det_elimination_matches_cofactor():
    rng = random.Random(7)

    def rp():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            if sum(e) <= 2:
                terms[e] = Fraction(rng.randint(-3, 3))
        return Poly(3, terms)

    # Bareiss elimination, the one algorithm of det_poly_matrix, against
    # cofactor expansion at 3 rows and at 5
    for _ in range(12):
        m = [[rp() for _ in range(3)] for _ in range(3)]
        assert det_poly_matrix(m) == det_cofactor(m)
    for _ in range(3):
        m = [[rp() for _ in range(5)] for _ in range(5)]
        assert det_poly_matrix(m) == det_cofactor(m)


def quad_display_basis():
    """The six order-2 summand generators of the quad arrangement, written out."""
    d3sq = power_of_derivation((0, 0, 1), 2)
    ops = [
        mul_poly(d3sq, x3),
        mul_poly(compose_constant(DiffOp(3, 1, {(1, 0, 0): x1, (0, 1, 0): x2}), power_of_derivation((0, 0, 1), 1)), x3),
        mul_poly(compose_constant(DiffOp(3, 1, {(0, 1, 0): x2 * (x1 - x2)}), power_of_derivation((0, 0, 1), 1)), x3),
        DiffOp(3, 2, {(0, 2, 0): x2 * (x1 - x2)}),
        DiffOp(3, 2, {(2, 0, 0): x1 * (x1 - x2)}),
        mul_poly(power_of_derivation((1, 1, 0), 2), x1 * x2),
    ]
    return ops


def test_quad_saito_determinant_is_cube_of_q():
    q = x1 * x2 * x3 * (x1 - x2)
    matrix = saito_matrix(quad_display_basis())
    by_cofactor = det_cofactor(matrix)
    by_elimination = det_poly_matrix(matrix)
    assert by_cofactor == by_elimination
    # degree 12 = 4 * 3, so the determinant must be a scalar times Q^3
    ratio = by_elimination.exact_div(q**3)
    c = ratio.constant_value()
    assert c != 0
