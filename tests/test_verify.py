import random
import re
from fractions import Fraction
from itertools import product

import pytest
from conftest import random_essential
from reference import euler_op, global_etas, mul_poly, oracle_dim_direct, partial_op, saito_matrix

from arrops import cli, freebasis, verify
from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.diffop import DiffOp, FactoredOp
from arrops.errors import DimensionMismatch, IdentityViolated, NotMember, NotPurePower, ZeroDet
from arrops.extension import extend, hyperplanes_from_forms
from arrops.freebasis import basis_2arr_lines, basis_3arr, basis_nonessential, build_basis
from arrops.linalg import det_poly_matrix, nullspace_int
from arrops.polynomial import Poly, midx_factorial, monomials_of_degree, primitive_int_vector
from arrops.verify import (
    check_identities,
    hilbert_check,
    is_member,
    oracle_dim,
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
    # right degree sum (t = 1) but det = (x1 + x2) * x2 is not c * x1 * x2:
    # (x1 + x2) * d1 sends x1 to x1 + x2, no multiple of x1
    plane = parse_arrangement("x1; x2", dim=2)
    y1, y2 = Poly.variables(2)
    ops = [DiffOp(2, 1, {(1, 0): y1 + y2}), DiffOp(2, 1, {(0, 1): y2})]
    with pytest.raises(NotMember, match=r"operator 0 is not a member at x1: .*, b = \(0, 0\)"):
        saito_check(ops, plane)


def test_saito_check_rejects_non_members(quad_arr):
    # both pass a determinant-only check with c = 1, t = 1
    y1, y2 = Poly.variables(2)
    ops = [DiffOp(2, 1, {(1, 0): y2}), partial_op(2, (0, 1))]
    with pytest.raises(NotMember, match=r"operator 1 is not a member at x2: .*, b = \(0, 0\)"):
        saito_check(ops, parse_arrangement("x2", dim=2))
    q = quad_arr.defining_polynomial()
    ops = [partial_op(3, (1, 0, 0)), partial_op(3, (0, 1, 0)), partial_op(3, (0, 0, 1), q)]
    with pytest.raises(NotMember, match=r"operator 0 is not a member at x1: .*, b = \(0, 0, 0\)"):
        saito_check(ops, quad_arr)


def test_non_member_at_one_plane_only():
    # theta_H = (Q / alpha_H) * d_w^m with w off H: at every other plane H',
    # theta_H(alpha_H' * x^b) is a multiple of Q / alpha_H, so of alpha_H'.
    # At H the contraction is a nonzero multiple of Q / alpha_H, which
    # vanishes at every flat point on H: only H's own points detect it.
    arr = parse_arrangement("x1; x2; x3; x1+x2+x3; x1+2*x2+3*x3", dim=3)
    basis = list(build_basis(arr, 3).operators)
    for i, h in enumerate(arr.hyperplanes):
        others = Arrangement(3, arr.hyperplanes[:i] + arr.hyperplanes[i + 1 :])
        w = next(e for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if not h.contains(e))
        for m in (1, 3):
            theta = partial_op(3, tuple(m * c for c in w), others.defining_polynomial())
            assert not is_member(theta, arr), (h.text(), m)
            assert is_member(theta, others), (h.text(), m)
        ops = basis[:i] + [theta] + basis[i + 1 :]  # theta at m = 3, the basis's order
        with pytest.raises(NotMember, match=rf"^operator {i} is not a member at {re.escape(h.text())}: "):
            saito_check(ops, arr)


def test_dimension_mismatch(quad_arr):
    with pytest.raises(DimensionMismatch, match="operator has 2 variables, the arrangement 3"):
        is_member(partial_op(2, (1, 0)), quad_arr)
    with pytest.raises(DimensionMismatch, match="operator 0 has order 0 in 2 variables, need order 0 in 3"):
        saito_check([partial_op(2, (0, 0))], quad_arr)
    # an operator of another order: its rows would read as zero columns
    ops = list(basis_3arr(quad_arr, 2).operators)
    ops[4] = euler_op(1, 3)
    with pytest.raises(DimensionMismatch, match="operator 4 has order 1 in 3 variables, need order 2 in 3"):
        saito_check(ops, quad_arr)


def test_not_member_names_its_block(quad_arr, monkeypatch):
    # swap generator 1 of the order-1 block of the triple point (0, 0, 1) for
    # the term x2^2 * d1, which is not a member at x1 = 0 (the flat's frame is
    # x1, x2); assembly makes it x3 * x2^2 * d1 * d3
    original = freebasis._pencil_terms

    def patched(lines, j, forms, derivs):
        ops = original(lines, j, forms, derivs)
        if len(lines) == 3 and j == 1:
            ops[1] = [(1, [(0, 1, 0)] * 2, [(1, 0, 0)])]
        return ops

    monkeypatch.setattr(freebasis, "_pencil_terms", patched)
    with pytest.raises(NotMember, match=r"is not a member .* \(flat \[0, 0, 1\], j = 1, generator 1\)$") as info:
        build_basis(quad_arr, 2)
    assert info.value.index == 2


def test_factored_check_tests_a_plane_dropped_from_the_cofactor(quad_arr):
    # each core is a member only at the planes through its flat, so an
    # operator whose cofactor lost a plane fails there, under its own index
    ops, _ = freebasis._factored_blocks(quad_arr, 2, extend(quad_arr, 2).profiles)
    for i, op in enumerate(ops):
        for k, normal in enumerate(op.cofactor):
            changed = list(ops)
            changed[i] = FactoredOp(3, 2, op.cofactor[:k] + op.cofactor[k + 1 :], op.terms)
            plane = Hyperplane(normal).text()
            with pytest.raises(NotMember, match=rf"^operator {i} is not a member at {re.escape(plane)}: ") as info:
                saito_check(changed, quad_arr)
            assert info.value.index == i


def test_factored_check_rejects_a_non_member_core(quad_arr):
    # operator 3 is x2 * (x1 - x2) * d2^2 on the flat (0, 1, 0); the core
    # d1^2 in its place is not a member at x1, which its cofactor misses
    ops, _ = freebasis._factored_blocks(quad_arr, 2, extend(quad_arr, 2).profiles)
    assert ops[3].cofactor == ((0, 1, 0), (1, -1, 0)) and ops[3].core == partial_op(3, (0, 2, 0))
    changed = list(ops)
    changed[3] = FactoredOp(3, 2, ops[3].cofactor, [(1, [], [(1, 0, 0)] * 2)])
    for candidate in (changed, [op.op for op in changed]):
        with pytest.raises(NotMember, match=r"^operator 3 is not a member at x1: ") as info:
            saito_check(candidate, quad_arr)
        assert info.value.index == 3
    # without a cofactor the core is the operator itself, built once
    alone = FactoredOp(3, 2, (), [(1, [], [(1, 0, 0)] * 2)])
    assert alone.core is alone.op == partial_op(3, (2, 0, 0))


@pytest.mark.parametrize(
    "text, dim, m",
    [("x1; x2; x3; x1-x2", 3, 3), ("x1; x2; x1-x2; 2*x1+x2", 2, 5), ("x1; x2; x1-x2", 3, 2)],
    ids=["quad", "2arr-j-above-k", "rank2"],
)
def test_one_term_cores_are_tested_at_degree_0_off_their_cofactor(text, dim, m, monkeypatch):
    # a one-term operator's forms join its cofactor, so its core is a
    # constant: the certificate tests it at d = 0, and only at the planes
    # that are not its cofactor forms (one plane or none once j >= 1)
    arr = parse_arrangement(text, dim=dim)
    calls = []
    violation = verify._Planes.violation

    def record(self, dense, d, skip=frozenset()):
        calls.append((d, skip))
        return violation(self, dense, d, skip)

    monkeypatch.setattr(verify._Planes, "violation", record)
    fb = build_basis(arr, m)
    assert len(calls) == len(fb.factored)
    one_term = 0
    for op, p, (d, skip) in zip(fb.factored, fb.provenance, calls):
        assert d == op.degree() - len(op.cofactor)
        if len(op.terms) > 1:
            continue
        one_term += 1
        assert op.core.degree() == 0 and d == 0 and op.degree() == len(op.cofactor)
        tested = [k for k in range(arr.n) if k not in skip]
        assert all(arr.hyperplanes[k].normal not in op.cofactor for k in tested)
        assert all(arr.hyperplanes[k].normal in op.cofactor for k in skip)
        assert p["j"] == 0 or len(tested) <= 1
    assert one_term >= (len(fb.factored) if dim == 2 else 1)


def test_saito_check_reads_each_row_once(quad_arr, monkeypatch):
    # one dense row per operator serves its membership test and its
    # determinant row
    ops = build_basis(quad_arr, 3).factored
    calls = []
    dense = verify._dense
    monkeypatch.setattr(verify, "_dense", lambda row, index: calls.append(len(row)) or dense(row, index))
    saito_check(ops, quad_arr)
    assert len(ops) == 10 and len(calls) == 10


def test_saito_check_zero_row(boolean_arr):
    ops = [DiffOp(3, 1, {(1, 0, 0): x1}), DiffOp(3, 1), DiffOp(3, 1, {(0, 0, 1): x3})]
    with pytest.raises(ZeroDet, match="operator 1 is zero"):
        saito_check(ops, boolean_arr)
    # a zero cofactor form makes a factored operator zero, whatever its core
    factored, _ = freebasis._factored_blocks(boolean_arr, 1, extend(boolean_arr, 1).profiles)
    factored = list(factored)
    factored[1] = FactoredOp(3, 1, [*factored[1].cofactor, (0, 0, 0)], factored[1].terms)
    assert factored[1].op.is_zero()
    with pytest.raises(ZeroDet, match="operator 1 is zero"):
        saito_check(factored, boolean_arr)


def test_saito_check_non_homogeneous_row(boolean_arr):
    ops = [
        DiffOp(3, 1, {(1, 0, 0): x1}),
        DiffOp(3, 1, {(0, 1, 0): x2 + x2**2}),
        DiffOp(3, 1, {(0, 0, 1): x3}),
    ]
    with pytest.raises(NotPurePower, match="operator 1 has non-homogeneous"):
        saito_check(ops, boolean_arr)


def test_factored_core_of_unequal_form_counts():
    # x1 - x2^2 under d1: its terms have 1 and 2 forms, so it has no
    # homogeneous core for a certificate to check; the constructor refuses it
    terms = [(1, [(1, 0, 0)], [(1, 0, 0)]), (-1, [(0, 1, 0)] * 2, [(1, 0, 0)])]
    with pytest.raises(DimensionMismatch, match=r"unequal form counts \[1, 2\]$"):
        FactoredOp(3, 1, (), terms)


def test_saito_check_excess_factor():
    # members, but x1 divides the first row three times: degree sum 4 > n * t = 2
    plane = parse_arrangement("x1; x2", dim=2)
    y1, y2 = Poly.variables(2)
    ops = [DiffOp(2, 1, {(1, 0): y1**3}), DiffOp(2, 1, {(0, 1): y2})]
    with pytest.raises(NotPurePower, match=r"degree sum 4 exceeds n \* t = 2 \* 1"):
        saito_check(ops, plane)


def test_saito_check_degree_sum_not_multiple(boolean_arr):
    ops = [DiffOp(3, 1, {(1, 0, 0): x1}), DiffOp(3, 1, {(0, 1, 0): x2}), DiffOp(3, 1, {(0, 0, 1): x3 * x1})]
    with pytest.raises(NotPurePower, match=r"degree sum 4 exceeds n \* t = 3 \* 1"):
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
    scaled[0] = mul_poly(scaled[0], Poly.constant(3, Fraction(3, 2)))
    scaled[4] = mul_poly(scaled[4], Poly.constant(3, -5))
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


# planes through the line of (0, 0, 1) and through the line of (1, 2, 3)
PENCILS = (
    ((1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 0), (1, -2, 0), (2, 1, 0)),
    ((2, -1, 0), (3, 0, -1), (0, 3, -2), (1, 1, -1), (1, -2, 1), (5, -1, -1)),
)


def test_flat_kernel_is_the_line_of_delta_power(monkeypatch):
    # at a flat of k >= 2 planes the oracle's point carries one unknown: the
    # coefficient vector of delta_X^m, weights m!/a! * v^a
    seen = []
    sample = verify._Planes.points
    monkeypatch.setattr(verify._Planes, "points", lambda self, d: seen.append(self.flats) or sample(self, d))
    kernels = []
    at = verify._oracle_at

    def grouped(sample, d):
        # each group of points with the kernel its unknowns range over
        kernels.append([(points, sample.kernel(planes)) for points, planes in sample.points(d).groups])
        return at(sample, d)

    monkeypatch.setattr(verify, "_oracle_at", grouped)
    for normals in PENCILS:
        for k in range(2, 7):
            arr = Arrangement(3, [Hyperplane(v) for v in normals[:k]])
            for m in range(1, 6):
                seen.clear()
                kernels.clear()
                oracle_dims(arr, m, 1)
                [(direction, planes)] = seen[0]
                assert planes == tuple(range(k))
                # at d = 0 the flat is the only point
                [([point], kernel)] = kernels[0]
                assert point == direction
                weights = [midx_factorial((m,)) // midx_factorial(a) * verify._int_pow(direction, a) for a in monomials_of_degree(3, m)]
                assert kernel == [primitive_int_vector(weights)], (k, m)


def test_flat_kernel_of_wrong_dimension_raises(monkeypatch):
    # every plane given the first plane's contraction rows: the products of
    # derivations along the second plane then break the rows it was given
    rows = verify._contraction_rows
    monkeypatch.setattr(verify, "_contraction_rows", lambda normal, m: rows((1, 0, 0), m))
    with pytest.raises(IdentityViolated, match="kernel of the plane x2: a product of derivations"):
        oracle_dims(Arrangement(3, [Hyperplane(v) for v in PENCILS[0][:3]]), 2, 1)


def test_flat_kernel_off_its_planes_raises(monkeypatch):
    # the flat's direction moved off its planes once the points are drawn:
    # every K_H passes, and delta_X^m breaks the contraction rows of the
    # flat's first plane.  A kernel is built only where it enters a rank: at
    # d = 1 the flat point carries no eta weight, so take d = 2
    arr = Arrangement(3, [Hyperplane(v) for v in PENCILS[0][:3]])
    sample = verify._Planes(arr, 2)
    sample.points(2)
    sample.flats = [((1, 1, 1), planes) for _, planes in sample.flats]
    with pytest.raises(IdentityViolated, match=r"at the flat \(1, 1, 1\) of 3 planes: delta_X\^2 breaks the contraction rows of x1"):
        verify._oracle(arr, 2, [2], sample)
    # moved before the points are drawn, the flat point lands on the fill
    # point (1, 1, 1) of x1 - x2, and the sample's repeated point fails first
    init = verify._Planes.__init__

    def moved(self, arr, m):
        init(self, arr, m)
        self.flats = [((1, 1, 1), planes) for _, planes in self.flats]

    monkeypatch.setattr(verify._Planes, "__init__", moved)
    with pytest.raises(IdentityViolated, match="the sample repeats a point at degree 2"):
        verify._oracle(arr, 2, [2])


def record_kernels(monkeypatch, sample):
    """Record each kernel key the oracle builds (its first read through
    ``_Planes.kernel``) and, by plane index, each plane whose contraction
    rows a kernel vector is checked against."""
    built, checked = [], []
    kernel, broken = verify._Planes.kernel, verify._broken

    def build(self, planes):
        if planes not in self.kernels:
            built.append(planes)
        return kernel(self, planes)

    def check(slots, vec):
        checked.append(next(i for i, rows in enumerate(sample.contraction) if rows is slots))
        return broken(slots, vec)

    monkeypatch.setattr(verify._Planes, "kernel", build)
    monkeypatch.setattr(verify, "_broken", check)
    return built, checked


def test_generic_oracle_builds_no_plane_kernel(generic4_arr, monkeypatch):
    # etas exist at d = 0, 1 only, where every point is a double point: no
    # K_H is built, and each K_X built is checked against both its planes
    sample = verify._Planes(generic4_arr, 2)
    built, checked = record_kernels(monkeypatch, sample)
    assert oracle_dims(generic4_arr, 2, 6, sample) == [oracle_dim_direct(generic4_arr, 2, d) for d in range(7)]
    assert built and all(len(planes) == 2 for planes in built)
    assert checked == [i for planes in built for i in planes]


def test_oracle_builds_the_kernels_of_groups_with_eta_weights(quad_arr, monkeypatch):
    # K_H at (i,) is built exactly for the planes whose own points carry a
    # nonzero eta weight at some degree; quad's x3 never does at m = 2
    sample = verify._Planes(quad_arr, 2)
    built, checked = record_kernels(monkeypatch, sample)
    dims = oracle_dims(quad_arr, 2, 6, sample)
    carriers = set()
    for d in range(7):
        record = sample.points(d)
        etas = global_etas(record.points, 3, d)
        start = 0
        for points, planes in record.groups:
            if any(eta[k] for eta in etas for k in range(start, start + len(points))):
                carriers.add(planes)
            start += len(points)
    assert len(built) == len(set(built)) and set(built) == carriers
    assert {planes for planes in built if len(planes) == 1} == {(0,), (1,), (3,)}
    # a flat's one vector against each of its planes, a plane's s_dim(2, 2)
    # vectors against that plane
    assert checked == [i for planes in built for i in (planes if len(planes) > 1 else planes * s_dim(2, 2))]
    # the sample keeps what it built: a second call on it builds and checks
    # no kernel, and gives the same dimensions
    kept = dict(sample.kernels)
    assert list(kept) == built
    built.clear()
    checked.clear()
    assert oracle_dims(quad_arr, 2, 6, sample) == dims
    assert built == [] and checked == [] and sample.kernels == kept


def test_wrong_plane_kernel_that_enters_a_rank_raises(quad_arr):
    # the first basis vector of x1 - x2 replaced by its normal once the
    # points are drawn: no K_H enters a rank below d = 2, and at d = 2 the
    # wrong products of derivations along it do
    sample = verify._Planes(quad_arr, 2)
    sample.points(2)
    sample.basis[3] = [(1, -1, 0), sample.basis[3][1]]
    assert oracle_dims(quad_arr, 2, 1, sample) == [0, 1]
    with pytest.raises(IdentityViolated, match="contraction kernel of the plane x1 - x2: a product of derivations along it breaks its contraction rows"):
        oracle_dims(quad_arr, 2, 2, sample)


def drop_last_point(monkeypatch):
    """Make the sample's record at each degree leave out the last point of
    its last group, before the record's checks."""
    record = verify._Degree.__init__

    def short(self, arr, d, groups):
        points, planes = groups[-1]
        record(self, arr, d, groups[:-1] + [(points[:-1], planes)])

    monkeypatch.setattr(verify._Degree, "__init__", short)


def test_too_few_points_on_a_plane_raises(generic4_arr, monkeypatch):
    # the last plane keeps three double points and one of its two own points
    # at d = 4: a nonzero quartic then vanishes at every point, and the
    # relations between point values outnumber points minus rank
    drop_last_point(monkeypatch)
    with pytest.raises(IdentityViolated, match="relations"):
        oracle_dim(generic4_arr, 2, 4)


def test_a_point_short_of_the_last_relation_raises(quad_arr, monkeypatch):
    # quad has one triple point, so at d = 4 the intact sample leaves exactly
    # one relation; without the last plane's last own point it leaves none,
    # the oracle takes the no-eta shortcut, and its point count must see the
    # plane left with four of the five points a quartic needs
    intact = verify._Planes(quad_arr, 2).points(4)
    assert len(intact.points) - s_dim(4, 3) + s_dim(0, 3) == intact.relations == 1
    drop_last_point(monkeypatch)
    with pytest.raises(IdentityViolated, match="the plane x1 - x2 holds 4 of the sample's points at degree 4, fewer than 5"):
        oracle_dim(quad_arr, 2, 4)


def test_generic_top_degree_takes_no_rank(generic4_arr, monkeypatch):
    # from d = 2 on, the six double points and the planes' own points are
    # exactly as many as the evaluation rank: no eta remains, and only
    # d = 0, 1 take a rank
    calls = []
    rank = verify.rank_int
    monkeypatch.setattr(verify, "rank_int", lambda rows: calls.append(len(rows)) or rank(rows))
    dims = oracle_dims(generic4_arr, 2, 6)
    assert len(calls) == 2 and all(calls)
    calls.clear()
    assert oracle_dim(generic4_arr, 2, 6) == dims[6] == oracle_dim_direct(generic4_arr, 2, 6)
    assert calls == []


def test_degrees_without_relations_take_no_elimination(generic4_arr, monkeypatch):
    # from d = 2 on no relation remains: the oracle counts instead of
    # peeling etas, and the closed-form kernels take no elimination either;
    # at d = 1 the etas are peeled, with no elimination and no monomial
    # evaluated
    sample = verify._Planes(generic4_arr, 2)
    dims = oracle_dims(generic4_arr, 2, 6)
    calls = []
    assert not hasattr(verify, "nullspace_int")  # the plane bases come from the pivot rule
    for name in ("_int_pow", "_etas"):
        wrapped = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, name=name, wrapped=wrapped: calls.append(name) or wrapped(*args))
    assert verify._oracle(generic4_arr, 2, [2, 3, 4, 5, 6], sample) == dims[2:]
    assert calls == []
    assert verify._oracle(generic4_arr, 2, [1], sample) == dims[1:2]
    assert calls == ["_etas"]


def test_degrees_with_relations_take_no_elimination(quad_arr, monkeypatch):
    # wherever relations remain, the peeled etas call neither nullspace_int
    # nor _int_pow: no table of monomial values and no global solve
    braid = parse_arrangement("x1; x2; x3; x1 - x2; x1 - x3; x2 - x3")
    lines = parse_arrangement("x1; x2; x1 - x2; x1 + x2; 2*x1 + x2", dim=2)
    cases = [(quad_arr, 2, 6), (braid, 3, 9), (lines, 3, 6)]
    samples = [verify._Planes(arr, m) for arr, m, _ in cases]
    dims = [oracle_dims(arr, m, d_max) for arr, m, d_max in cases]
    calls = []
    assert not hasattr(verify, "nullspace_int")  # the plane bases come from the pivot rule
    for name in ("_int_pow", "_etas"):
        wrapped = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, name=name, wrapped=wrapped: calls.append(name) or wrapped(*args))
    for (arr, m, d_max), sample, expected in zip(cases, samples, dims):
        calls.clear()
        assert oracle_dims(arr, m, d_max, sample) == expected
        assert calls and set(calls) == {"_etas"}, arr.text()


def test_peeled_etas_equal_the_global_elimination(random_family, quad_arr, generic4_arr):
    # the relations by peeling the planes, vector for vector and in order,
    # against nullspace_int of the table of monomial values at the points
    forms = [
        "x1; x2; x3; x1 - x2; x1 - x3; x2 - x3",
        "x1; x2; x3; x1 - x2; x2 - x3",
        "x1; x2; x1 - x2; x1 + x2; x3",
        "x1; x2; x3; x1 - x2; x2 - x3; x1 + x2 + x3; x1 - x3; 2*x1 + x2",
    ]
    arrs = [*random_family, quad_arr, generic4_arr, *map(parse_arrangement, forms)]
    arrs += [Arrangement(3, [Hyperplane(v) for v in normals[:k]]) for normals in PENCILS for k in range(1, 7)]
    for lines in ("x1", "x1; x2", "x1; x2; x1 - x2", "x1; x2; x1 + 3*x2; 2*x1 - x2", "x1; x2; x1 - x2; x1 + x2; 2*x1 + x2; x1 - 3*x2"):
        arrs.append(parse_arrangement(lines, dim=2))
    solves = 0
    for arr in arrs:
        sample = verify._Planes(arr, 1)
        for d in range(arr.n + 4):
            record = sample.points(d)
            etas = verify._etas(arr, record.points, d, record.values)
            assert etas == global_etas(record.points, arr.dim, d), (arr.text(), d)
            solves += bool(etas)
    assert solves > 150


def test_2d_etas_take_one_lagrange_construction(monkeypatch):
    # in dimension 2 every relation comes in one step from the Lagrange
    # weights over both coordinates at the base points of every line, with
    # no peel level by level: one _lagrange call per _etas call
    calls = []
    lagrange = verify._lagrange

    def counted(*args):
        calls.append(args[:2])
        return lagrange(*args)

    monkeypatch.setattr(verify, "_lagrange", counted)
    lines = ["x1", "x2", "x1 - x2", "x1 + 3*x2", "2*x1 + x2", "x1 - 3*x2"]
    for n in range(2, 7):
        arr = parse_arrangement("; ".join(lines[:n]), dim=2)
        sample = verify._Planes(arr, 2)
        solves = 0
        for d in range(n + 2):
            record = sample.points(d)
            calls.clear()
            etas = verify._etas(arr, record.points, d, record.values)
            if etas:
                assert calls == [(0, 1)], (n, d)
                solves += 1
        assert solves, n


def test_a_plane_short_at_its_peel_level_raises():
    # braid at d = 4 without the last own point of x2: x2 keeps three points
    # off x1, one fewer than the cubics on it need, while the four triple
    # points leave relations between the point values
    braid = parse_arrangement("x1; x2; x3; x1 - x2; x1 - x3; x2 - x3")
    points = [p for p in verify._Planes(braid, 2).points(4).points if p != (1, 0, 2)]
    assert len(points) - s_dim(4, 3) == 3
    with pytest.raises(IdentityViolated, match="the plane x2 holds 3 of the sample's points off the planes before it at degree 4, fewer than 4"):
        verify._etas(braid, points, 4, [verify._values(h.normal, points) for h in braid])


def test_a_short_plane_with_relations_left_raises(monkeypatch):
    # braid without the last own point of its last plane: the evaluation
    # rank stays full and relations remain, so neither count notices, but a
    # cubic vanishing at the plane's three points need not vanish on it; the
    # point count on every plane raises instead of the wrong dimension
    braid = parse_arrangement("x1; x2; x3; x1 - x2; x1 - x3; x2 - x3")
    assert oracle_dim(braid, 2, 3) == 7
    drop_last_point(monkeypatch)
    with pytest.raises(IdentityViolated, match="the plane x2 - x3 holds 3 of the sample's points at degree 3, fewer than 4"):
        oracle_dim(braid, 2, 3)


BRAID = "x1; x2; x3; x1 - x2; x1 - x3; x2 - x3"


def test_certificate_checks_its_sample(capsys, monkeypatch):
    # operator 2 of braid's m = 4 basis swapped for a non-member: its core
    # is a constant, tested at degree 0 only at x2 - x3, whose one point is
    # the last group's.  The intact sample finds the non-member; without
    # that point the membership test would test nothing at x2 - x3, and the
    # record's point count refuses the sample instead
    braid = parse_arrangement(BRAID)
    ops = list(build_basis(braid, 4).factored)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ops[2] = FactoredOp(3, 4, [h.normal for h in braid.hyperplanes[:5]], [(1, (), [e1, e1, e2, e3])])
    with pytest.raises(NotMember, match="^operator 2 is not a member at x2 - x3: "):
        saito_check(ops, braid)
    drop_last_point(monkeypatch)
    with pytest.raises(IdentityViolated, match="^the plane x2 - x3 holds 0 of the sample's points at degree 0, fewer than 1$"):
        saito_check(ops, braid)
    assert cli.main(["basis", "--m", "4", *BRAID.replace(" ", "").split(";")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("verification failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("scale", [2, -1])
def test_a_point_repeated_up_to_scale_raises(scale, monkeypatch):
    # each plane's second own point a multiple of its first: the two are
    # one projective point, so a plane needing both holds one point too few.
    # The oracle's Lagrange brackets would divide by zero, and the
    # certificate would rest on the short plane; the sample refuses first
    fill = verify._Planes._fill

    def repeated(self, i):
        points = fill(self, i)
        first = next(points)
        yield from (first, tuple(scale * x for x in first))
        yield from points

    monkeypatch.setattr(verify._Planes, "_fill", repeated)
    # braid's planes take their second own point at d = 4, quad's at d = 3
    for text, d in ((BRAID, 4), ("x1; x2; x3; x1 - x2", 3)):
        with pytest.raises(IdentityViolated, match=f"^the sample repeats a point at degree {d}$"):
            oracle_dim(parse_arrangement(text), 2, d)
    # the planes of a pencil take theirs at d = 2, which the certificate reads
    with pytest.raises(IdentityViolated, match="^the sample repeats a point at degree 2$"):
        build_basis(parse_arrangement("x1; x2; x1 - x2", dim=3), 2)


def test_oracle_dims_at_high_degree_are_pinned():
    # eight planes with several multiple points at m = 2 up to d = 24
    arr = parse_arrangement("x1; x2; x3; x1 - x2; x2 - x3; x1 + x2 + x3; x1 - x3; 2*x1 + x2")
    expected = [0, 0, 1, 3, 7, 18, 36, 60, 90, 126, 168, 216, 270, 330, 396, 468, 546, 630, 720, 816, 918, 1026, 1140, 1260, 1386]
    assert oracle_dims(arr, 2, 24) == expected


def test_plane_bases_by_the_pivot_rule_equal_the_integer_kernel():
    # the sample's basis of each plane, from the flats' pivot rule, against
    # nullspace_int of its normal, for every primitive normal in [-5, 5]^l
    normals = [v for l in (2, 3) for v in product(range(-5, 6), repeat=l) if any(v) and Hyperplane.make(v).normal == v]
    assert len(normals) == 617
    for v in normals:
        assert verify._Planes(Arrangement(len(v), [Hyperplane(v)]), 1).basis == [nullspace_int([list(v)], len(v))], v


def test_oracle_reuses_a_matching_sample_only(quad_arr, boolean_arr):
    sample = basis_3arr(quad_arr, 2).saito.sample
    assert oracle_dims(quad_arr, 2, 5, sample) == oracle_dims(quad_arr, 2, 5)
    for arr, m in ((boolean_arr, 2), (quad_arr, 3)):
        with pytest.raises(ValueError, match="another arrangement or order"):
            oracle_dims(arr, m, 5, sample)


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
