import pytest

from arrops.arrangement import parse_arrangement
from arrops.errors import BadOrder, NotEssential
from arrops.exponents import exp_2arr, exp_3arr_closed, exp_for_arrangement
from arrops.extension import extend, hyperplanes_from_forms
from arrops.freebasis import basis_3arr
from arrops.verify import hilbert_check, s_dim


def test_exp_2arr_examples():
    assert list(exp_2arr(3, 2)) == [2, 2, 2]
    assert list(exp_2arr(3, 4)) == [2, 2, 2, 3, 3]
    assert list(exp_2arr(1, 0)) == [0]


def test_exp_2arr_sum_and_size():
    for k in range(6):
        for m in range(7):
            exps = exp_2arr(k, m)
            assert len(exps) == m + 1
            assert sum(exps) == k * m


def test_exp_for_arrangement_triple_line_times_trivial():
    arr = parse_arrangement("x1; x2; x1-x2", dim=3)
    assert exp_for_arrangement(arr, 2).entries == (0, 1, 2, 2, 2, 2)


def test_exp_for_arrangement_no_lines():
    for m in range(4):
        assert exp_for_arrangement(parse_arrangement("", dim=2), m).entries == (0,) * (m + 1)


def test_exp_for_arrangement_two_lines_times_trivial():
    arr = parse_arrangement("x1; x2", dim=3)
    result = exp_for_arrangement(arr, 1)
    assert result.entries == (0, 1, 1)
    report = hilbert_check(arr, 1, result.entries, 3)
    assert report.consistent


def test_exp_3arr_closed_quad(quad_arr):
    assert list(exp_3arr_closed(quad_arr, 2)) == [1, 2, 2, 2, 2, 3]
    assert list(exp_3arr_closed(quad_arr, 3)) == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3]


def test_exp_3arr_closed_generic(generic4_arr):
    exps = exp_3arr_closed(generic4_arr, 2)
    assert list(exps) == [2, 2, 2, 2, 2, 2]
    assert len(exps) == s_dim(2, 3) and sum(exps) == 12
    fb = basis_3arr(generic4_arr, 2)
    assert fb.exponents == exps.entries


def test_exp_3arr_closed_errors(quad_arr, pencil3_arr):
    with pytest.raises(BadOrder):
        exp_3arr_closed(quad_arr, 1)
    with pytest.raises(NotEssential):
        exp_3arr_closed(pencil3_arr, 2)


def test_closed_form_matches_basis_degrees(quad_arr, boolean_arr):
    quint = parse_arrangement("x1; x2; x3; x1-x2; x2-x3")
    cases = [
        (boolean_arr, (1, 2, 3)),
        (quad_arr, (2, 3, 4)),
        (quint, (3, 4)),
    ]
    for arr, orders in cases:
        for m in orders:
            closed = exp_3arr_closed(arr, m)
            fb = basis_3arr(arr, m)
            assert fb.exponents == closed.entries
            assert len(closed) == s_dim(m, 3)
            assert sum(closed) == arr.n * m * (m + 1) // 2


def test_closed_form_matches_basis_both_extensions(quad_arr):
    closed = exp_3arr_closed(quad_arr, 3)
    for forms in (["x1+x2"], ["x1+x2-x3"]):
        ext = extend(quad_arr, 3, hyperplanes_from_forms(forms))
        assert basis_3arr(quad_arr, 3, ext).exponents == closed.entries


def test_closed_form_matches_oracle_at_top_order():
    # m = n case for n = 5, validated through dimensions instead of a basis
    quint = parse_arrangement("x1; x2; x3; x1-x2; x2-x3")
    exps = exp_3arr_closed(quint, 5)
    report = hilbert_check(quint, 5, exps.entries, max(exps.entries) + 2)
    assert report.consistent


def test_exp_for_arrangement_dispatch(quad_arr, pencil3_arr):
    assert exp_for_arrangement(quad_arr, 2).entries == (1, 2, 2, 2, 2, 3)
    assert exp_for_arrangement(pencil3_arr, 2).entries == (0, 1, 2, 2, 2, 2)
    two = parse_arrangement("x1; x2", dim=2)
    assert exp_for_arrangement(two, 3).entries == tuple(exp_2arr(2, 3))
    empty = parse_arrangement("", dim=3)
    assert exp_for_arrangement(empty, 2).entries == (0,) * 6


def test_exp_for_rank_one():
    arr = parse_arrangement("x1", dim=3)
    exps = exp_for_arrangement(arr, 1)
    assert exps.entries == (0, 0, 1)
    assert hilbert_check(arr, 1, exps.entries, 3).consistent
