import random
from fractions import Fraction

import pytest
from conftest import random_essential

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.diffop import DiffOp, euler_op, partial_op, saito_matrix
from arrops.errors import NotPurePower, ZeroDet
from arrops.extension import extend, hyperplanes_from_forms
from arrops.freebasis import basis_2arr_lines, basis_3arr, basis_nonessential
from arrops.linalg import det_poly_matrix
from arrops.polynomial import Poly
from arrops.verify import (
    check_identities,
    hilbert_check,
    is_member,
    oracle_dim,
    oracle_dim_direct,
    oracle_dims,
    s_dim,
    saito_check,
)

x1, x2, x3 = Poly.variables(3)


def test_is_member_examples(quad_arr):
    assert is_member(DiffOp(3, 2, {(0, 0, 2): x3}), quad_arr)
    single = parse_arrangement("x1", dim=3)
    assert not is_member(partial_op(3, (1, 0, 0)), single)
    for m in (1, 2, 3):
        assert is_member(euler_op(m, 3), quad_arr)


def test_is_member_order_zero_trivial(quad_arr):
    assert is_member(DiffOp(3, 0, {(0, 0, 0): x1}), quad_arr)


def test_saito_check_certificates(quad_arr):
    fb2 = basis_3arr(quad_arr, 2)
    cert = saito_check(list(fb2.operators), quad_arr)
    assert cert.t == 3 and cert.c != 0
    fb3 = basis_3arr(quad_arr, 3)
    cert3 = saito_check(list(fb3.operators), quad_arr)
    assert cert3.t == 6  # degree sum 24 over n = 4


def test_saito_check_zero_det(quad_arr):
    fb = basis_3arr(quad_arr, 2)
    ops = list(fb.operators)
    ops[1] = ops[0]
    with pytest.raises(ZeroDet):
        saito_check(ops, quad_arr)


def test_saito_check_not_pure_power():
    single = parse_arrangement("x1", dim=3)
    ops = [
        DiffOp(3, 1, {(1, 0, 0): x1**2}),
        DiffOp(3, 1, {(0, 1, 0): x2}),
        DiffOp(3, 1, {(0, 0, 1): x3}),
    ]
    assert all(is_member(op, single) for op in ops)
    with pytest.raises(NotPurePower):
        saito_check(ops, single)


def test_saito_check_foreign_factor():
    # right degree sum (t = 1) but det = (x1 + x2) * x2 is not c * x1 * x2
    plane = parse_arrangement("x1; x2", dim=2)
    y1, y2 = Poly.variables(2)
    ops = [DiffOp(2, 1, {(1, 0): y1 + y2}), DiffOp(2, 1, {(0, 1): y2})]
    with pytest.raises(NotPurePower, match=r"not c \* Q\^1: the stripped rows disagree at the point \(1, 1\)"):
        saito_check(ops, plane)


def test_saito_check_zero_row(boolean_arr):
    ops = [DiffOp(3, 1, {(1, 0, 0): x1}), DiffOp(3, 1), DiffOp(3, 1, {(0, 0, 1): x3})]
    with pytest.raises(ZeroDet, match="operator 1 is zero"):
        saito_check(ops, boolean_arr)


def test_saito_check_non_homogeneous_row(boolean_arr):
    ops = [
        DiffOp(3, 1, {(1, 0, 0): x1}),
        DiffOp(3, 1, {(0, 1, 0): x2 + x2**2}),
        DiffOp(3, 1, {(0, 0, 1): x3}),
    ]
    with pytest.raises(NotPurePower, match="operator 1 has non-homogeneous"):
        saito_check(ops, boolean_arr)


def test_saito_check_excess_factor():
    # degree sum 4 gives t = 2, but x1 divides the first row three times
    plane = parse_arrangement("x1; x2", dim=2)
    y1, y2 = Poly.variables(2)
    ops = [DiffOp(2, 1, {(1, 0): y1**3}), DiffOp(2, 1, {(0, 1): y2})]
    with pytest.raises(NotPurePower, match="hyperplane x1 divides the rows 3 times, more than t = 2"):
        saito_check(ops, plane)


def test_saito_check_degree_sum_not_multiple(boolean_arr):
    ops = [DiffOp(3, 1, {(1, 0, 0): x1}), DiffOp(3, 1, {(0, 1, 0): x2}), DiffOp(3, 1, {(0, 0, 1): x3 * x1})]
    with pytest.raises(NotPurePower, match="degree sum 4 is not a multiple of n = 3"):
        saito_check(ops, boolean_arr)


def _assert_matches_direct_determinant(ops, arr):
    cert = saito_check(ops, arr)
    assert cert.c != 0
    assert cert.det == det_poly_matrix(saito_matrix(ops))


def test_certificate_matches_direct_determinant(quad_arr, boolean_arr, pencil3_arr):
    for m in (2, 3):
        _assert_matches_direct_determinant(list(basis_3arr(quad_arr, m).operators), quad_arr)
    for m in (1, 2, 3):
        _assert_matches_direct_determinant(list(basis_3arr(boolean_arr, m).operators), boolean_arr)
    lines = [(1, 0), (0, 1), (1, -1), (1, 2)]
    for k in range(5):
        arr2 = Arrangement(2, [Hyperplane.make(line) for line in lines[:k]])
        for j in range(5):
            _assert_matches_direct_determinant(basis_2arr_lines(lines[:k], j), arr2)
    scaled = list(basis_3arr(quad_arr, 2).operators)
    scaled[0] = scaled[0].scale(Fraction(3, 2))
    scaled[4] = scaled[4].scale(-5)
    _assert_matches_direct_determinant(scaled, quad_arr)
    rank2 = parse_arrangement("x1 + x3; x2 - x3; x1 + x2", dim=3)
    for arr in (pencil3_arr, rank2):
        for m in (0, 1, 2):
            _assert_matches_direct_determinant(list(basis_nonessential(arr, m).operators), arr)


def test_oracle_examples(quad_arr, boolean_arr):
    assert oracle_dim(boolean_arr, 1, 1) == 3
    assert oracle_dim(quad_arr, 2, 0) == 0
    for d in range(4):
        assert oracle_dim(quad_arr, 0, d) == s_dim(d, 3)


def test_oracle_fast_matches_direct(quad_arr, boolean_arr, pencil3_arr):
    single = parse_arrangement("x1", dim=3)
    two_lines = parse_arrangement("x1; x1-x2", dim=2)
    for arr in (quad_arr, boolean_arr, pencil3_arr, single, two_lines):
        for m in range(3):
            for d in range(4):
                assert oracle_dim(arr, m, d) == oracle_dim_direct(arr, m, d), (arr, m, d)


def test_oracle_dims_matches_direct():
    rng = random.Random(5)
    arrs = [random_essential(rng, n) for n in (3, 4)] + [
        parse_arrangement("x1 + x3; x2 - x3; x1 + x2", dim=3),
        parse_arrangement("x2 - 2*x3", dim=3),
        parse_arrangement("", dim=3),
        parse_arrangement("", dim=2),
        parse_arrangement("x1; x1 + 2*x2", dim=2),
    ]
    for arr in arrs:
        for m in range(4):
            d_max = 4 if arr.dim == 3 else 6
            expected = [oracle_dim_direct(arr, m, d) for d in range(d_max + 1)]
            assert oracle_dims(arr, m, d_max) == expected, (arr.text(), m)
    assert oracle_dims(arrs[0], 2, -1) == []


def test_oracle_monotone_beyond_top_exponent(quad_arr):
    dims = [oracle_dim(quad_arr, 2, d) for d in range(3, 8)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_hilbert_check_consistent(quad_arr):
    report = hilbert_check(quad_arr, 2, (1, 2, 2, 2, 2, 3), 5)
    assert report.consistent
    assert report.rows[0] == (0, 0, 0)


def test_hilbert_check_empty():
    empty = parse_arrangement("", dim=3)
    report = hilbert_check(empty, 2, (0,) * 6, 3)
    assert report.consistent


def test_hilbert_check_rejects_wrong_exponents(quad_arr):
    report = hilbert_check(quad_arr, 2, (1, 1, 2, 2, 3, 3), 5)
    assert not report.consistent


def test_emitted_basis_degrees_are_hilbert_consistent(quad_arr):
    fb = basis_3arr(quad_arr, 3)
    report = hilbert_check(quad_arr, 3, fb.exponents, max(fb.exponents) + 2)
    assert report.consistent


def test_check_identities_minimal(quad_arr):
    report = check_identities(extend(quad_arr, 2))
    assert report["rank_identity"] == {"lhs": 6, "rhs": 6, "ok": True}
    assert report["pair_identity"] == {"lhs": 12, "rhs": 12, "ok": True}
    assert report["flat_count_identity"]["ok"]


def test_check_identities_given_extension(quad_arr):
    ext = extend(quad_arr, 3, hyperplanes_from_forms(["x1+x2"]))
    report = check_identities(ext)
    assert report["rank_identity"]["lhs"] == 10
    assert report["pair_identity"] == {"lhs": 16, "rhs": 16, "ok": True}
    assert "flat_count_identity" not in report  # genericity fails for this extension


def test_check_identities_transversal(quad_arr):
    ext = extend(quad_arr, 3, hyperplanes_from_forms(["x1+x2-x3"]))
    report = check_identities(ext)
    assert report["flat_count_identity"] == {"lhs": 8, "rhs": 8, "ok": True}
