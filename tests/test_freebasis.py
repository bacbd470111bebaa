import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from conftest import random_essential
from reference import add_ops, apply, euler_op, localization, localization_indices, mul_poly, normalized_primitive, off_flat_product, partial_op, power_of_derivation, tuple_product_op

from arrops import extension, freebasis
from arrops.arrangement import Arrangement, Hyperplane, arrangement_from_json, parse_arrangement
from arrops.diffop import FactoredOp
from arrops.errors import BadOrder, DuplicateHyperplane, IdentityViolated, NotEssential, ZeroForm
from arrops.exponents import exp_2arr, exp_for_arrangement
from arrops.extension import extend, flat_profiles, hyperplanes_from_forms
from arrops.freebasis import (
    DualPair,
    basis_2arr_lines,
    basis_3arr,
    basis_nonessential,
    build_basis,
    dual_pair,
)
from arrops.polynomial import Poly, form_product, monomials_of_degree, primitive_int_vector
from arrops.verify import is_member, oracle_dim, s_dim, saito_check

x1, x2, x3 = Poly.variables(3)


def arr2(text):
    return parse_arrangement(text, dim=2)


# -- two-variable bases -------------------------------------------------------


def test_basis_2arr_order_zero():
    ops = build_basis(arr2("x1; x2"), 0).operators
    assert ops == (partial_op(2, (0, 0)),)


def test_basis_2arr_triple_line_order_one():
    a = arr2("x1; x2; x1-x2")
    ops = build_basis(a, 1).operators
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
    ops = build_basis(a, 1).operators
    assert sorted(op.degree() for op in ops) == [1, 1]


def test_basis_2arr_high_order_matches_formula():
    for k, m in [(2, 3), (3, 4), (3, 3), (4, 5), (1, 2)]:
        lines = [(1, 0), (0, 1), (1, -1), (1, 1)][:k]
        a = Arrangement(2, [Hyperplane.make(line) for line in lines])
        ops = build_basis(a, m).operators
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
    blocks = [basis_2arr_lines(lines, j) for j in range(7)]
    # the certified basis of the lines as an arrangement, decoded
    arr = Arrangement(2, [Hyperplane(line) for line in lines])
    assert blocks == [list(build_basis(arr, j).operators) for j in range(7)]
    payload = json.dumps([[op.to_json() for op in ops] for ops in blocks])
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_basis_2arr_lines_are_made_primitive():
    # proportional lines are repeated lines
    with pytest.raises(DuplicateHyperplane, match="repeated"):
        basis_2arr_lines([(1, 0), (2, 0)], 2)
    # (2, 0) is the line (1, 0), so the generic lines skip it
    ops = basis_2arr_lines([(2, 0), (0, 1)], 3)
    assert ops == basis_2arr_lines([(1, 0), (0, 1)], 3)
    assert saito_check(ops, arr2("x1; x2")).t == 3
    # a rational line is scaled, not truncated
    ops = basis_2arr_lines([(Fraction(1, 2), 1), (0, 1)], 2)
    assert ops == basis_2arr_lines([(1, 2), (0, 1)], 2)
    saito_check(ops, arr2("x1 + 2*x2; x2"))
    with pytest.raises(ZeroForm):
        basis_2arr_lines([(0, 0)], 1)


def test_basis_2arr_no_lines():
    ops = basis_2arr_lines([], 2)
    assert [set(op.coeffs) for op in ops] == [{a} for a in monomials_of_degree(2, 2)]


# -- pencils ------------------------------------------------------------------


def pencil_block(arr, flat, j):
    """The order-j block of a flat's pencil in ambient coordinates: the j = m
    operators of the certified basis of its localization at m = j (no
    cofactor, no direction power)."""
    fb = build_basis(localization(arr, flat.direction), j)
    assert {tuple(p["flat_direction"]) for p in fb.provenance} == {flat.direction}
    return [op for op, p in zip(fb.operators, fb.provenance) if p["j"] == j]


def test_pencil_basis_expressed_in_ambient_ring(quad_arr):
    flat = quad_arr.lattice.flats[0]  # direction (0,0,1), three planes through it
    ops = pencil_block(quad_arr, flat, 1)
    assert len(ops) == 2
    local = localization(quad_arr, flat.direction)
    for op in ops:
        assert op.nvars == 3 and op.order == 1
        assert is_member(op, local)
    degrees = sorted(op.degree() for op in ops)
    assert degrees == [1, 2]


def test_pencil_basis_skew_flat(quad_arr):
    flat = quad_arr.lattice.flats[3]  # direction (1,1,0), planes x3 and x1-x2
    ops = pencil_block(quad_arr, flat, 0)
    assert ops == [partial_op(3, (0, 0, 0))]
    local = localization(quad_arr, flat.direction)
    for op in pencil_block(quad_arr, flat, 1):
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
            k = len(localization_indices(quad_arr, direction))
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
    for m, forms in [(2, None), (3, ["x1+x2"])]:
        ext = extend(quad_arr, m, hyperplanes_from_forms(forms) if forms else None)
        profiles = flat_profiles(ext)
        for px in profiles:
            dx = power_of_derivation(px.flat.direction, m - px.max_order)
            for py in profiles:
                if px.flat.direction == py.flat.direction:
                    continue
                for f in monomials_of_degree(3, py.max_order):
                    val = apply(dx, off_flat_product(py) * Poly(3, {f: 1}))
                    assert val.is_zero()


def test_extend_builds_no_arrangement_after_the_last_plane(quad_arr, monkeypatch):
    # each added plane but the last is read through one new arrangement of
    # the planes so far; the extended planes are built once, by ``full``
    built = []
    arrangement = extension.Arrangement
    monkeypatch.setattr(extension, "Arrangement", lambda dim, planes: built.append(len(planes)) or arrangement(dim, planes))
    for given in (None, hyperplanes_from_forms(["x1+x2+x3", "x1+2*x2+4*x3", "x1+3*x2+9*x3"])):
        built.clear()
        ext = extend(quad_arr, 5, given)
        assert built == [5, 6]
        assert ext.full.hyperplanes == (*quad_arr.hyperplanes, *ext.added) and built == [5, 6, 7]


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
        ("x1 + x3; x2 - x3; x1 + x2", "9123d905889e82251d0a2017cb0e21db75d550060e273d19a608ca436237b3ec"),
        ("x2 + x3", "0c2bf3762392fb9471690448e856ab5ed48cf8af8d271b5efd111a3d8ca187ba"),
        # the section is x1 / 3: its flat's coordinate forms have denominator 3
        ("2*x1 - 3*x3", "1f79531d2c69ca85b91448fb69cdb8659e84ee0b1072867cc5684951f68f9624"),
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
        (parse_arrangement(QUAD), 3, "e9b1f79c407c444fcc0af7de5eb9a3de19f66db985624081bb3e60433c32cba2"),
        (random_essential(random.Random(7), 4), 3, "786d1e3eea1cc6d626524b8d09536e41be003a14176a8720a728006e539dceba"),
        (parse_arrangement(QUAD), 4, "d1027183e381285db74645840542586d5b8ccaa0231b96da08ac6d270124925b"),
        (parse_arrangement(QUAD), 5, "c8ce6b8e5acb760d082ea5ed9e438fcbfac634e36c8051303a8b89fa7b42e34f"),
        (
            parse_arrangement("x1; x2; x3; x1 - x2; x2 - x3"),
            3,
            "b3c4a8230d35ffe3f5e2b52b57f6cfcbcd2715c2dff01ac05885115ad62de1e2",
        ),
        # a random (4,3) arrangement whose primitive normals have 2-bit entries
        (
            parse_arrangement("2*x1 - 2*x2 + x3; 2*x1 - x3; x3; x1 + x2 - x3"),
            3,
            "28320fcf497f533051e50059bf494b5f1c82199b3b41946abbd3cef41e77e199",
        ),
        # a triple point with coefficients 2 and -3, so the pencil blocks in
        # the flat's frame reach j = 1 and the bytes depend on its derivations
        (
            parse_arrangement("x1; x2; x3; 2*x1 - 3*x2; x1 + x2 + x3"),
            3,
            "de3f3dcfd1246b2d18ca9059661c1b32c4ce54c8e547de5c8643a355b9176394",
        ),
        # a 2-arrangement: one block in the identity frame, with its
        # provenance and certificate
        (
            parse_arrangement("x1; x2; x1 - x2; x1 + 2*x2", dim=2),
            3,
            "43ed195960ba0dc5dc62ea5449cdb91a0506373d823e63d07b931dfc20ce1aa9",
        ),
        (parse_arrangement("x1", dim=2), 0, "75b833e52d556d9d7a04d6044d1b581ff3f4389af91faa884a855ef877ba9611"),
    ],
    ids=["quad", "random43", "quad-m4", "quad-m5", "quad5", "random43-bits2", "triple-2-3", "2arr-4lines", "2arr-m0"],
)
def test_build_basis_output_bytes(arr, m, digest):
    # digests of the rational-frame bases: the integer frame scales each
    # operator by a constant that the core's normalization must remove
    fb = build_basis(arr, m)
    payload = json.dumps(fb.to_json(), sort_keys=True) + json.dumps(fb.saito.to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
    # each operator is its cofactor times its core, normalized already: by
    # Gauss's lemma and grlex, P * normalized(theta') = normalized(P * theta')
    for op in fb.factored:
        assert normalized_primitive(op.core) == op.core
        assert op.op == mul_poly(op.core, form_product(op.cofactor, arr.dim))
        whole = [(c, op.cofactor + fs, ds) for c, fs, ds in op.terms]
        assert op.op == normalized_primitive(tuple_product_op(whole, arr.dim, m))


def test_basis_nonessential_empty():
    arr = parse_arrangement("", dim=3)
    fb = basis_nonessential(arr, 2)
    assert fb.exponents == (0,) * 6
    assert {tuple(op.coeffs) for op in fb.operators} == {(a,) for a in monomials_of_degree(3, 2)}
    # rank 0 is the kernel-line case: its one flat is (0, 0, 1)
    for m in range(5):
        fb = basis_nonessential(arr, m)
        assert fb.exponents == (0,) * s_dim(m, 3)
        assert (fb.saito.c, fb.saito.t) == (1, 0)
        assert set(fb.operators) == {partial_op(3, a) for a in monomials_of_degree(3, m)}
        assert fb.operators[0] == partial_op(3, (0, 0, m))
        assert {tuple(p["flat_direction"]) for p in fb.provenance} == {(0, 0, 1)}


@pytest.mark.parametrize(
    "arr",
    [
        parse_arrangement("x1; x2; x1 - x2", dim=2),
        arrangement_from_json({"l": 2, "hyperplanes": []}),
        parse_arrangement("", dim=3),
        parse_arrangement("x2 + x3", dim=3),
        parse_arrangement("x1; x2; x1 - x2", dim=3),
        parse_arrangement(QUAD),
    ],
    ids=["2arr", "2arr-empty", "rank0", "rank1", "rank2", "essential"],
)
def test_build_basis_certifies_factored_operators_only(arr, monkeypatch):
    # every basis reaches the certificate through the one per-flat path
    seen = []

    def spy(ops, planes):
        seen.append(list(ops))
        return saito_check(ops, planes)

    monkeypatch.setattr(freebasis, "saito_check", spy)
    orders = range(max(arr.n - 2, 0), 5)  # an essential input needs m >= n - 2
    for m in orders:
        build_basis(arr, m)
    assert len(seen) == len(orders)
    assert all(isinstance(op, FactoredOp) for ops in seen for op in ops)


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


def test_pairing_matrix_is_apolar_dot_product(quad_arr):
    # the dot product against applying each operator, on the dual operators
    # and on mixtures of them whose pairing matrix is not the identity
    for m in (2, 3):  # extend(quad, m) needs m >= n - 2
        pair = dual_pair(extend(quad_arr, m))
        etas = pair.dual_operators
        mixed = tuple(add_ops(eta, mul_poly(etas[(i + 1) % len(etas)], Poly.constant(3, i + 2))) for i, eta in enumerate(etas))
        for ops in (etas, mixed):
            probe = DualPair(pair.basis_polys, ops, pair.labels)
            expected = [[apply(eta, b).constant_value() for b in pair.basis_polys] for eta in ops]
            assert probe.pairing_matrix() == expected
        assert expected != [[int(i == k) for k in range(len(etas))] for i in range(len(etas))]


@pytest.mark.parametrize(
    "text, m, forms, digest",
    [
        (QUAD, 3, None, "ceb6764a98269f8cef0bb0478e6e3465bfbea61c9553e9b0c79d9c88f3503335"),
        (QUAD, 4, None, "6d0d6664f8e997ac702ce33985c728afb38b52a08c0eaca505a8df5d16d6e07f"),
        # condition A fails: the added plane goes through the flat (0, 0, 1)
        (QUAD, 3, ["x1 + x2"], "95699f4f94c3284086b136bdfcf550e54a237de470da49d6bae5e5649d749201"),
        ("x1; x2; x3; x1 - x2; x2 - x3", 3, None, "42c7693a5e37562860a66faa801a36f6621b32574a84f640aa8143c31948d994"),
        # the flat (2, 1, 0) has order cap 1, so its polynomials carry 1/2
        ("x1; x2; x3; x1 - 2*x2; x1 - 2*x2 + x3", 3, None, "a74f61d5f11e7fbfba440e66e6e86d0c076d104b6ecfa0ee5df5f29af7ec9827"),
        # six planes at m = 4: 15 polynomials over eleven flats, two of order cap 1
        ("x1; x2; x3; x1 - x2; x2 - x3; x1 + x2 + x3", 4, None, "dd46980b07823bcc3e185339052b42f23cc5350f314063c35e340ce94a8f5a57"),
    ],
    ids=["quad", "quad-m4", "quad-given", "quad5", "direction-2-1-0", "six-planes-m4"],
)
def test_dual_pair_output_bytes(text, m, forms, digest):
    pair = dual_pair(extend(parse_arrangement(text), m, hyperplanes_from_forms(forms) if forms else None))
    polys = [b.text() for b in pair.basis_polys]
    payload = json.dumps([polys, [eta.text() for eta in pair.dual_operators], pair.labels])
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


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


def test_dual_pair_failures_name_their_source(quad_arr, monkeypatch):
    # each raise names what failed: the counts, the pivots, or the entry of
    # the integer check with the labels of its operator and its polynomial
    pair = dual_pair(extend(quad_arr, 2))
    short = extend(quad_arr, 2)
    short.profiles = short.profiles[:-1]
    found = sum(s_dim(p.max_order, 3) for p in short.profiles)
    with pytest.raises(IdentityViolated, match=rf"wrong cardinality: {found} polynomials, expected 6$"):
        dual_pair(short)

    echelon = freebasis.echelon_int
    size, k = len(pair.basis_polys), 1

    def off_by_one(rows):  # row k's right half gets 1 added at the column of x1^2
        red, pivots = echelon(rows)
        red[k][size] += 1
        return red, pivots

    # the check first fails at the first polynomial with an x1^2 term
    i = next(i for i, b in enumerate(pair.basis_polys) if b.terms.get((2, 0, 0)))
    monkeypatch.setattr(freebasis, "echelon_int", off_by_one)
    message = rf"differs from identity at \({k}, {i}\), labels {re.escape(str(pair.labels[k]))} and {re.escape(str(pair.labels[i]))}$"
    with pytest.raises(IdentityViolated, match=message):
        dual_pair(extend(quad_arr, 2))

    def short_pivots(rows):  # the last pivot is missing
        red, pivots = echelon(rows)
        return red, pivots[:-1]

    monkeypatch.setattr(freebasis, "echelon_int", short_pivots)
    with pytest.raises(IdentityViolated, match="linearly dependent"):
        dual_pair(extend(quad_arr, 2))
