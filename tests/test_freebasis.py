import hashlib
import json
import random

import pytest
from conftest import random_essential

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.diffop import euler_op, identity_op
from arrops.errors import BadOrder, NotEssential
from arrops.exponents import exp_2arr, exp_for_arrangement
from arrops.extension import extend, flat_profiles, hyperplanes_from_forms
from arrops.flats import dim1_flats
from arrops.freebasis import (
    basis_2arr,
    basis_2arr_lines,
    basis_3arr,
    basis_nonessential,
    build_basis,
    dual_pair,
    pencil_basis,
)
from arrops.polynomial import Poly, monomials_of_degree, primitive_int_vector
from arrops.verify import is_member, oracle_dim, s_dim

x1, x2, x3 = Poly.variables(3)


def arr2(text):
    return parse_arrangement(text, dim=2)


# -- two-variable bases -------------------------------------------------------


def test_basis_2arr_order_zero():
    ops = basis_2arr(arr2("x1; x2"), 0)
    assert ops == [identity_op(2)]


def test_basis_2arr_triple_line_order_one():
    a = arr2("x1; x2; x1-x2")
    ops = basis_2arr(a, 1)
    assert len(ops) == 2
    assert ops[0] == euler_op(1, 2)
    assert sorted(op.degree() for op in ops) == [1, 2]
    for op in ops:
        assert is_member(op, a)


def test_basis_2arr_two_lines_order_one():
    # solution space of the membership system at coefficient degree 1 is
    # 2-dimensional (oracle), and the emitted degrees are {1, 1}
    a = arr2("x1; x2")
    assert oracle_dim(a, 1, 1) == 2
    ops = basis_2arr(a, 1)
    assert sorted(op.degree() for op in ops) == [1, 1]


def test_basis_2arr_high_order_matches_formula():
    for k, m in [(2, 3), (3, 4), (3, 3), (4, 5), (1, 2)]:
        lines = [(1, 0), (0, 1), (1, -1), (1, 1)][:k]
        a = Arrangement(2, [Hyperplane.make(line) for line in lines])
        ops = basis_2arr(a, m)
        assert sorted(op.degree() for op in ops) == list(exp_2arr(k, m))
        assert all(is_member(op, a) for op in ops)


def _seeded_lines(k):
    rng = random.Random(1000 + k)
    lines = []
    while len(lines) < k:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if v != (0, 0) and primitive_int_vector(v) not in lines:
            lines.append(primitive_int_vector(v))
    return lines


@pytest.mark.parametrize(
    "k, digest",
    [
        (1, "98840dabfc1498aff5ffe6c733450fbd8d262c0987421149cbc3dc8ebbeaef63"),
        (2, "90503bfd8a288ee3e64b783a8a8a6a7a288a67128c25f8c4317b9062e95caf64"),
        (3, "491bf56b0aab99713dad30703b518a01ba81825bd9c82de2503a53c1df76881c"),
        (4, "e7cb76594153afdf322353e755819cc4964715015b069e1e322d628fb0a8265c"),
        (5, "ab2b655024751686495b5ce3f596b58a113baedc126d2beaa572899f7a03b27c"),
    ],
)
def test_basis_2arr_lines_output_bytes(k, digest):
    # pencil blocks at j = 0..6 cover both closed forms, Euler plus the first
    # j line operators (1 <= j <= k-1) and one line operator per line of a
    # generic extension (j >= k); their bytes reach every 3-arrangement basis
    lines = _seeded_lines(k)
    payload = json.dumps([[op.to_json() for op in basis_2arr_lines(lines, j)] for j in range(7)])
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_basis_2arr_no_lines():
    ops = basis_2arr_lines([], 2)
    assert [set(op.coeffs) for op in ops] == [{a} for a in monomials_of_degree(2, 2)]


# -- pencils ------------------------------------------------------------------


def test_pencil_basis_expressed_in_ambient_ring(quad_arr):
    flat = dim1_flats(quad_arr)[0]  # direction (0,0,1), three planes through it
    ops = pencil_basis(quad_arr, flat, 1)
    assert len(ops) == 2
    local = quad_arr.localization(flat.direction)
    for op in ops:
        assert op.nvars == 3 and op.order == 1
        assert is_member(op, local)
    degrees = sorted(op.degree() for op in ops)
    assert degrees == [1, 2]


def test_pencil_basis_skew_flat(quad_arr):
    flat = dim1_flats(quad_arr)[3]  # direction (1,1,0), planes x3 and x1-x2
    ops = pencil_basis(quad_arr, flat, 0)
    assert ops == [identity_op(3)]
    local = quad_arr.localization(flat.direction)
    for op in pencil_basis(quad_arr, flat, 1):
        assert is_member(op, local)


# -- essential three-variable bases ----------------------------------------------


def test_basis_3arr_minimal_order(quad_arr):
    fb = basis_3arr(quad_arr, 2)
    assert fb.degrees == (1, 2, 3, 2, 2, 2)
    assert fb.exponents == (1, 2, 2, 2, 2, 3)
    assert fb.saito.t == 3 and fb.saito.c != 0
    assert all(is_member(op, quad_arr) for op in fb.operators)


def test_basis_3arr_extension_invariance(quad_arr):
    results = {}
    for tag, forms in [("auto", None), ("sum", ["x1+x2"]), ("skew", ["x1+x2-x3"])]:
        ext = extend(quad_arr, 3, hyperplanes_from_forms(forms) if forms else None)
        fb = basis_3arr(quad_arr, 3, ext)
        results[tag] = fb.exponents
        assert fb.saito.t == 6
        assert all(is_member(op, quad_arr) for op in fb.operators)
    assert results["auto"] == results["sum"] == results["skew"] == (1, 2, 2, 2, 2, 3, 3, 3, 3, 3)


def test_basis_3arr_block_degrees(quad_arr):
    n = quad_arr.n
    for m in (2, 3):
        fb = basis_3arr(quad_arr, m)
        by_block = {}
        for deg, prov in zip(fb.degrees, fb.provenance):
            by_block.setdefault((tuple(prov["flat_direction"]), prov["j"]), []).append(deg)
        for (direction, j), degs in by_block.items():
            k = len(quad_arr.localization_indices(direction))
            if j <= k - 1:
                expected = sorted([j + n - k] + [n - 1] * j)
                assert sorted(degs) == expected


def test_basis_3arr_degree_sum(quad_arr, generic4_arr):
    for arr in (quad_arr, generic4_arr):
        for m in (arr.n - 2, arr.n - 1):
            fb = basis_3arr(arr, m)
            assert sum(fb.degrees) == arr.n * m * (m + 1) // 2
            assert len(fb.operators) == s_dim(m, 3)


def test_basis_3arr_stacked_given_extension(quad_arr):
    # two added planes through the same flat push a pencil block past the
    # usual order regime; the per-line construction must take over
    ext = extend(quad_arr, 4, hyperplanes_from_forms(["x1+x2", "x1+2*x2"]))
    by_dir = {p.flat.direction: p for p in flat_profiles(ext)}
    assert by_dir[(0, 0, 1)].max_order == 3  # exceeds |A_X| - 1 = 2
    fb = basis_3arr(quad_arr, 4, ext)
    auto = basis_3arr(quad_arr, 4)
    assert fb.exponents == auto.exponents
    assert all(is_member(op, quad_arr) for op in fb.operators)


def test_cross_flat_annihilation(quad_arr):
    # for distinct flats X != Y the direction power of X kills the Y summand
    # seeds: delta_X^(m - i_X) (P_Y * f) = 0 for every monomial f of degree i_Y
    from arrops.diffop import power_of_derivation

    for m, forms in [(2, None), (3, ["x1+x2"])]:
        ext = extend(quad_arr, m, hyperplanes_from_forms(forms) if forms else None)
        profiles = flat_profiles(ext)
        for px in profiles:
            dx = power_of_derivation(px.flat.delta, m - px.max_order)
            for py in profiles:
                if px.flat.direction == py.flat.direction:
                    continue
                for f in monomials_of_degree(3, py.max_order):
                    val = dx.apply(py.off_flat_product * Poly(3, {f: 1}))
                    assert val.is_zero()


def test_basis_3arr_errors(quad_arr, pencil3_arr):
    with pytest.raises(BadOrder):
        basis_3arr(quad_arr, 1)
    with pytest.raises(NotEssential):
        basis_3arr(pencil3_arr, 2)


# -- nonessential three-variable bases ---------------------------------------------


def test_basis_nonessential_pencil(pencil3_arr):
    fb = basis_nonessential(pencil3_arr, 2)
    assert fb.exponents == (0, 1, 2, 2, 2, 2)
    assert fb.saito.t == 3
    assert all(is_member(op, pencil3_arr) for op in fb.operators)
    # union of the two-variable multisets for orders 0..2
    combined = sorted(e for j in range(3) for e in exp_2arr(3, j))
    assert list(fb.exponents) == combined


def test_basis_nonessential_rank_one():
    # rank 1 inputs plus one rank-2 input whose kernel is not a coordinate axis
    for text in ["x1", "x2 + x3", "2*x1 - 3*x3", "x1 + x3; x2 - x3; x1 + x2"]:
        arr = parse_arrangement(text, dim=3)
        for m in range(4):
            fb = basis_nonessential(arr, m)
            assert fb.exponents == exp_for_arrangement(arr, m).entries, (text, m)
            assert all(is_member(op, arr) for op in fb.operators), (text, m)


@pytest.mark.parametrize(
    "text, digest",
    [
        ("x1 + x3; x2 - x3; x1 + x2", "a12cc47736c741e329c1801c7977c187e8ca1e7b69e0ffc1f31579737fbd3aa3"),
        ("x2 + x3", "4e4d11e173f06870b6fa6d1af64aaae904daa061ff7be3746bf1bc2010b21c76"),
        # the section is x1 / 3: its flat's coordinate forms have denominator 3
        ("2*x1 - 3*x3", "d079bc6633d87ace110a5bf1dfed0c6180895e0c21ec9a725f6417b1ca06a4ea"),
    ],
    ids=["rank2", "rank1", "rank1-section-denominator"],
)
def test_basis_nonessential_output_bytes(text, digest):
    # operator bytes of rank <= 2 bases depend on the kernel coordinates of
    # their single flat; pin them at m = 3
    fb = basis_nonessential(parse_arrangement(text, dim=3), 3)
    payload = json.dumps(fb.to_json(), sort_keys=True) + json.dumps(fb.saito.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


QUAD = "x1; x2; x3; x1-x2"


@pytest.mark.parametrize(
    "arr, m, digest",
    [
        (parse_arrangement(QUAD), 3, "2d0df20da8c65b29123c7b27fd27f5cb1ed7db9c7f9be43ee17bbb334e80d9a2"),
        (random_essential(random.Random(7), 4), 3, "0d97b569b095493a9abc581552ab160373e31497c45b5970f78d4011526896d0"),
        (parse_arrangement(QUAD), 4, "0bf8805eb6ded32c4c16bd8c5de5ec8e39c80b2bd90f10b64017b41ab40c36c8"),
        (parse_arrangement(QUAD), 5, "0c5eaa2db4b0a8825625d8aa670575eb01734ef05ffab166a192bfcd9465e963"),
        (
            parse_arrangement("x1; x2; x3; x1 - x2; x2 - x3"),
            3,
            "fdc9c5bd3d0b159455484921de63bf8ba4460a140ad10f61fe68b6b5ea45884c",
        ),
        # a random (4,3) arrangement whose primitive normals have 2-bit entries
        (
            parse_arrangement("2*x1 - 2*x2 + x3; 2*x1 - x3; x3; x1 + x2 - x3"),
            3,
            "c46549efd6696f33e5ecfb3af4d1ca19e81c5dff57773eae4c3a90b45dae33e6",
        ),
        # a triple point with coefficients 2 and -3, so the pencil conversion
        # reaches j = 1 and the bytes depend on the flats' dual derivations
        (
            parse_arrangement("x1; x2; x3; 2*x1 - 3*x2; x1 + x2 + x3"),
            3,
            "0883fb0feabf4a3db3d9edb226168d68639798639a5cb046ee22eb364a9c9944",
        ),
    ],
    ids=["quad", "random43", "quad-m4", "quad-m5", "quad5", "random43-bits2", "triple-2-3"],
)
def test_build_basis_output_bytes(arr, m, digest):
    # digests of the rational pencil conversion: the integer one scales each
    # operator by a constant that normalized_primitive must remove
    fb = build_basis(arr, m)
    payload = json.dumps(fb.to_json(), sort_keys=True) + json.dumps(fb.saito.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_basis_nonessential_empty():
    arr = parse_arrangement("", dim=3)
    fb = basis_nonessential(arr, 2)
    assert fb.exponents == (0,) * 6
    assert {tuple(op.coeffs) for op in fb.operators} == {(a,) for a in monomials_of_degree(3, 2)}


def test_basis_nonessential_rejects_essential(quad_arr):
    with pytest.raises(NotEssential):
        basis_nonessential(quad_arr, 2)


# -- dual pair -----------------------------------------------------------------------


def test_dual_pair_minimal_extension(quad_arr):
    pair = dual_pair(extend(quad_arr, 2))
    expected = {
        x3**2,
        x1 * x3,
        x2 * x3,
        x2 * (x1 - x2),
        x1 * (x1 - x2),
        x1 * x2,
    }
    assert set(pair.basis_polys) == expected
    # the dual operator paired with x2(x1-x2) is -1/2 d2^2
    idx = pair.basis_polys.index(x2 * (x1 - x2))
    eta = pair.dual_operators[idx]
    from fractions import Fraction

    assert {a: f.constant_value() for a, f in eta.coeffs.items()} == {(0, 2, 0): Fraction(-1, 2)}


def test_dual_pair_identity_matrix(quad_arr):
    quad5 = parse_arrangement("x1; x2; x3; x1 - x2; x2 - x3")
    cases = [(quad_arr, 2, None), (quad_arr, 3, ["x1+x2"])]
    cases += [(arr, m, None) for arr in (quad_arr, quad5) for m in (3, 4, 5)]
    for arr, m, forms in cases:
        ext = extend(arr, m, hyperplanes_from_forms(forms) if forms else None)
        pair = dual_pair(ext)
        matrix = pair.pairing_matrix()
        size = s_dim(m, 3)
        assert len(pair.basis_polys) == size
        assert matrix == [[1 if i == j else 0 for j in range(size)] for i in range(size)]
