from math import comb

import pytest

from arrops.arrangement import Hyperplane, parse_arrangement, parse_linear_form
from arrops.errors import DuplicateHyperplane, NotCentral, ParseError, ZeroForm
from arrops.polynomial import Poly

x1, x2, x3 = Poly.variables(3)


def test_parse_quad(quad_arr):
    assert quad_arr.dim == 3
    assert [h.normal for h in quad_arr] == [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0)]


def test_parse_duplicate():
    with pytest.raises(DuplicateHyperplane):
        parse_arrangement("x1; x1")
    with pytest.raises(DuplicateHyperplane):
        parse_arrangement("x1 - x2; 2*x1 - 2*x2")


def test_parse_not_central():
    with pytest.raises(NotCentral):
        parse_arrangement("x1 + 1")


def test_parse_zero_form():
    with pytest.raises(ZeroForm):
        parse_arrangement("x1 - x1")


def test_parse_syntax_errors():
    with pytest.raises(ParseError):
        parse_linear_form("x1 x2")
    with pytest.raises(ParseError):
        parse_linear_form("+")
    with pytest.raises(ParseError):
        parse_linear_form("x1 + y2")


def test_parse_rational_coefficients():
    arr = parse_arrangement("1/2*x1 - 1/3*x2", dim=3)
    assert arr.hyperplanes[0].normal == (3, -2, 0)


def test_parse_json_matrix():
    arr = parse_arrangement('{"l": 3, "hyperplanes": [[1,0,0],[0,1,0],[0,0,1],[1,-1,0]]}')
    assert arr.n == 4
    assert arr.hyperplanes[3].normal == (1, -1, 0)


def test_parse_json_forms():
    arr = parse_arrangement('{"l": 3, "forms": ["x1", "x2", "x3", "x1-x2"]}')
    assert arr.n == 4


def test_parse_json_fraction_entries():
    arr = parse_arrangement('{"l": 3, "hyperplanes": [["1/2", "-1/3", 0]]}')
    assert arr.hyperplanes[0].normal == (3, -2, 0)


def test_parse_json_dimension_must_be_integer():
    for bad in ('3.0', '"3"', "true", "null"):
        with pytest.raises(ParseError, match='"l" must be an integer'):
            parse_arrangement('{"l": %s, "hyperplanes": [[1, 0, 0]]}' % bad)


def test_defining_polynomial(quad_arr):
    q = quad_arr.defining_polynomial()
    assert q == x1 * x2 * x3 * (x1 - x2)
    assert parse_arrangement("", dim=3).defining_polynomial() == Poly.constant(3, 1)
    assert parse_arrangement("x1-x2", dim=3).defining_polynomial() == x1 - x2


def test_rank_and_kernel(quad_arr, pencil3_arr):
    assert quad_arr.rank_and_kernel() == (3, [])
    rank, kernel = pencil3_arr.rank_and_kernel()
    assert rank == 2 and kernel == [(0, 0, 1)]
    assert parse_arrangement("x1", dim=3).rank() == 1


def test_localization(quad_arr):
    assert quad_arr.localization_indices((0, 0, 1)) == (0, 1, 3)
    assert quad_arr.localization_indices((0, 1, 0)) == (0, 2)
    assert quad_arr.localization_indices((5, 7, 1)) == ()


def test_flat_directions_quad(quad_arr):
    assert quad_arr.flat_directions() == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


def test_flat_directions_with_extra_plane():
    arr = parse_arrangement("x1; x2; x3; x1-x2; x1+x2")
    assert len(arr.flat_directions()) == 5


def test_flat_directions_two_planes():
    arr = parse_arrangement("x1; x2", dim=3)
    assert arr.flat_directions() == [(0, 0, 1)]


def test_flat_directions_dim2():
    arr = parse_arrangement("x1; x2; x1-x2", dim=2)
    assert arr.flat_directions() == [(0, 1), (1, 0), (1, 1)]


def test_pair_counting_identity(quad_arr, generic4_arr, random_family):
    for arr in [quad_arr, generic4_arr, *random_family]:
        pairs = sum(
            comb(len(arr.localization_indices(v)), 2) for v in arr.flat_directions()
        )
        assert pairs == comb(arr.n, 2)


def test_flat_direction_localization_consistency(quad_arr):
    for v in quad_arr.flat_directions():
        local = set(quad_arr.localization_indices(v))
        for i, h in enumerate(quad_arr.hyperplanes):
            assert (h.form()(v) == 0) == (i in local)


def test_parse_serialize_roundtrip(quad_arr):
    assert parse_arrangement(quad_arr.text()) == quad_arr
    again = parse_arrangement("2*x2 - 4*x1; x3", dim=3)
    assert parse_arrangement(again.text(), dim=3) == again


def test_hyperplane_normalization():
    assert Hyperplane.make((-2, 4, 0)).normal == (1, -2, 0)
    assert Hyperplane.make((0, 0, 7)).normal == (0, 0, 1)
