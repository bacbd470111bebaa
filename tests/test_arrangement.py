import json
import random
import re
from fractions import Fraction
from math import comb

import pytest
from reference import localization_indices

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement, parse_linear_form
from arrops.errors import DuplicateHyperplane, NotCentral, ParseError, ZeroForm
from arrops.linalg import nullspace_int
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


def test_parse_json_entry_must_be_integer_or_string():
    for bad, shown in (("true", "True"), ("1.5", "1.5"), ("null", "None"), ("[1]", "[1]")):
        with pytest.raises(ParseError, match=rf"^matrix entry {re.escape(shown)} must be an integer or a fraction string$"):
            parse_arrangement('{"l": 2, "hyperplanes": [[%s, 1]]}' % bad)


def test_parse_json_dimension_must_be_integer():
    for bad in ('3.0', '"3"', "true", "null"):
        with pytest.raises(ParseError, match='"l" must be an integer'):
            parse_arrangement('{"l": %s, "hyperplanes": [[1, 0, 0]]}' % bad)


@pytest.mark.parametrize(
    ("text", "named"),
    [
        ('{"hyperplanes": 5}', "got 5"),
        ('{"l": 3, "hyperplanes": ["x"]}', "row 'x'"),
        ('{"l": 3, "hyperplanes": [["abc", 0, 1]]}', "entry 'abc'"),
        ('{"l": 3, "hyperplanes": [["1/0", 0, 1]]}', "entry '1/0'"),
        ("1/0*x1; x2", "coefficient '1/0'"),
        ('{"forms": [1]}', "got [1]"),
        # a huge variable index or dimension is refused before a vector that long is built
        ("x1000000", "got 1000000"),
        ('{"l": 1000000, "forms": ["x1"]}', "got 1000000"),
        ('{"l": 3, "forms": "x1"}', "got 'x1'"),
        ('{"l": 3, "hyperplanes": [[%s, 0, 1]]}' % ("1" * 5000), "bad JSON arrangement"),
        ('{"l": 3, "hyperplanes": [[1, 0, 0]], "forms": ["x2"]}', """"forms" ['x2'] disagree"""),
    ],
    ids=["rows-not-list", "row-not-list", "entry-not-number", "zero-denominator", "inline-zero-denominator",
         "form-not-string", "variable-index-too-large", "dimension-too-large", "forms-not-list", "integer-too-long",
         "keys-disagree"],
)
def test_malformed_input_is_a_parse_error(text, named):
    # the message names the bad value, and no other exception escapes
    with pytest.raises(ParseError, match=re.escape(named)):
        parse_arrangement(text)


def test_defining_polynomial(quad_arr):
    q = quad_arr.defining_polynomial()
    assert q == x1 * x2 * x3 * (x1 - x2)
    assert parse_arrangement("", dim=3).defining_polynomial() == Poly.constant(3, 1)
    assert parse_arrangement("x1-x2", dim=3).defining_polynomial() == x1 - x2


def test_rank_and_kernel(quad_arr, pencil3_arr):
    assert quad_arr.lattice[:2] == (3, ())
    rank, kernel, _ = pencil3_arr.lattice
    assert rank == 2 and kernel == ((0, 0, 1),)
    assert parse_arrangement("x1", dim=3).rank() == 1
    # the lattice skips the elimination when two flats differ: it agrees with
    # nullspace_int on seeded arrangements of every rank, pencils included
    rng = random.Random(77)
    for _ in range(200):
        dim = rng.choice((2, 3))
        u, v = ([rng.randint(-2, 2) for _ in range(dim)] for _ in range(2))
        pencil = rng.random() < 0.5  # combinations of u and v: rank <= 2
        vectors = []
        for _ in range(rng.randint(0, 5)):
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            vectors.append([a * x + b * y for x, y in zip(u, v)] if pencil else [rng.randint(-2, 2) for _ in range(dim)])
        normals = {Hyperplane.make(w).normal for w in vectors if any(w)}
        arr = Arrangement(dim, [Hyperplane(n) for n in sorted(normals)])
        kernel = nullspace_int([list(n) for n in sorted(normals)], dim)
        assert arr.lattice[:2] == (dim - len(kernel), tuple(kernel)), arr


def test_localization(quad_arr):
    assert localization_indices(quad_arr, (0, 0, 1)) == (0, 1, 3)
    assert localization_indices(quad_arr, (0, 1, 0)) == (0, 2)
    assert localization_indices(quad_arr, (5, 7, 1)) == ()


def test_flat_directions_quad(quad_arr):
    assert [f.direction for f in quad_arr.lattice.flats] == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)]


def test_flat_directions_with_extra_plane():
    arr = parse_arrangement("x1; x2; x3; x1-x2; x1+x2")
    assert len(arr.lattice.flats) == 5


def test_flat_directions_two_planes():
    arr = parse_arrangement("x1; x2", dim=3)
    assert [f.direction for f in arr.lattice.flats] == [(0, 0, 1)]


def test_flat_directions_dim2():
    arr = parse_arrangement("x1; x2; x1-x2", dim=2)
    assert [f.direction for f in arr.lattice.flats] == [(0, 1), (1, 0), (1, 1)]


def test_pair_counting_identity(quad_arr, generic4_arr, random_family):
    for arr in [quad_arr, generic4_arr, *random_family]:
        pairs = sum(
            comb(len(localization_indices(arr, f.direction)), 2) for f in arr.lattice.flats
        )
        assert pairs == comb(arr.n, 2)


def test_flat_direction_localization_consistency(quad_arr, random_family):
    for v, _ in quad_arr.lattice.flats:
        local = set(localization_indices(quad_arr, v))
        for i, h in enumerate(quad_arr.hyperplanes):
            assert h.contains(v) == (i in local)
    # ``flats`` reads the incidences off the pairs of planes
    pencil = parse_arrangement("x1; x2; x1-x2; x1+x2; x3", dim=3)
    for arr in [quad_arr, pencil, *random_family, parse_arrangement("x1; x2; x1-x2", dim=2)]:
        assert list(arr.lattice.flats) == [(v, localization_indices(arr, v)) for v, _ in arr.lattice.flats]


def test_parse_serialize_roundtrip(quad_arr):
    assert parse_arrangement(quad_arr.text()) == quad_arr
    again = parse_arrangement("2*x2 - 4*x1; x3", dim=3)
    assert parse_arrangement(again.text(), dim=3) == again


def test_parse_json_output_roundtrip(quad_arr):
    # to_json writes both "hyperplanes" and "forms"; input with both must agree
    assert parse_arrangement(json.dumps(quad_arr.to_json())) == quad_arr


def test_hyperplane_normalization():
    assert Hyperplane.make((-2, 4, 0)).normal == (1, -2, 0)
    assert Hyperplane.make((0, 0, 7)).normal == (0, 0, 1)


@pytest.mark.parametrize("rows", ["[[0, 0, 0]]", '[["0", "0/5", 0]]'], ids=["int", "str"])
def test_json_zero_row_is_zero_form(rows):
    with pytest.raises(ZeroForm, match="hyperplane normal must be nonzero"):
        parse_arrangement('{"l": 3, "hyperplanes": %s}' % rows)


@pytest.mark.parametrize(
    "entries", [(0, 0, 0), (Fraction(0), Fraction(0, 3), 0), ("0", "0/5", "-0")], ids=["int", "Fraction", "str"]
)
def test_hyperplane_make_zero_is_zero_form(entries):
    with pytest.raises(ZeroForm, match="hyperplane normal must be nonzero"):
        Hyperplane.make(entries)


@pytest.mark.parametrize("entry", ["abc", "1/0"])
def test_hyperplane_make_bad_string_is_parse_error(entry):
    # a string entry is read like a JSON matrix entry, and the error names it
    with pytest.raises(ParseError, match=rf"^matrix entry {re.escape(repr(entry))} is not an integer or a fraction"):
        Hyperplane.make((entry, 1, 0))
    assert Hyperplane.make(("1/2", "-1/2", 0)).normal == (1, -1, 0)
