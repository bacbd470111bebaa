"""Hypothesis properties of exact division, products of linear forms, the
operator constructor, membership, the certificate and its factored form,
the closed-form pencil blocks and their frames, the on-demand flat
cofactors, the integer echelon kernel, the parse/serialize round trip, the
agreement of the input paths, the dimension oracle and its closed-form
contraction kernels, the closed-form exponents, and the orthogonality of
the basis and the dual pair across flats (profile ``arrops`` in conftest:
derandomized, bounded example counts)."""

import json
import random
from fractions import Fraction
from functools import cache
from math import factorial, gcd

import pytest

pytest.importorskip("hypothesis")

from conftest import random_essential
from hypothesis import assume, given
from hypothesis import strategies as st
from reference import apply, base_off_flat_product, contraction_kernels, convert_2var_op, localization, off_flat_product, oracle_dim_direct, saito_matrix

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.diffop import DiffOp, FactoredOp, euler_op, identity_op, partial_op, product_op
from arrops.errors import NotDivisible, NotMember, SaitoFailed
from arrops.extension import extend, flat_profiles, hyperplanes_from_forms
from arrops.exponents import exp_2arr, exp_3arr_closed
from arrops.freebasis import _factored_blocks as factored_blocks
from arrops.freebasis import basis_2arr_lines, build_basis, dual_pair
from arrops.linalg import echelon_int, rank_int, rref
from arrops.polynomial import Poly, form_product, midx_factorial, monomials_of_degree, primitive_int_vector
from arrops.verify import _kernels, _Planes, hilbert_check, is_member, oracle_dims, saito_check

small = st.integers(-4, 4)


def normals(nvars=3):
    return st.tuples(*[small] * nvars).filter(any).map(lambda v: Hyperplane.make(v).normal)


@st.composite
def operators(draw, nvars, order, degree):
    """Operator of the given order with up to four terms, homogeneous of the given degree."""
    terms = draw(
        st.lists(
            st.tuples(
                st.sampled_from(monomials_of_degree(nvars, order)),
                st.sampled_from(monomials_of_degree(nvars, degree)),
                small.filter(bool),
            ),
            max_size=4,
        )
    )
    coeffs = {}
    for a, c, v in terms:
        coeffs[a] = coeffs.get(a, Poly.zero(nvars)) + Poly(nvars, {c: v})
    return DiffOp(nvars, order, coeffs)


def member_by_definition(theta, arr):
    """The reference: theta(alpha_H * x^b) in alpha_H * S for every H and b,
    by rational polynomial division."""
    for h in arr.hyperplanes:
        alpha = h.poly()
        for b in monomials_of_degree(arr.dim, theta.order - 1):
            try:
                apply(theta, alpha * Poly(arr.dim, {b: 1})).exact_div(alpha)
            except NotDivisible:
                return False
    return True


@given(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 3), st.data())
def test_alpha_times_operator_is_member(l, order, degree, data):
    normal = data.draw(normals(l))
    theta = data.draw(operators(l, order, degree))
    h = Hyperplane(normal)
    assert is_member(theta.mul_poly(h.poly()), Arrangement(l, [h]))


def unit(l, i):
    return tuple(int(k == i) for k in range(l))


@given(st.integers(1, 4), st.data())
def test_form_product_matches_poly_multiplication(l, data):
    # zero entries, repeated factors and up to 30 factors: an exponent can
    # reach the number of factors, the largest digit of the packed keys
    factors = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * l), max_size=30))
    expected = Poly.constant(l, 1)
    for f in factors:
        expected = expected * Poly(l, {unit(l, i): v for i, v in enumerate(f)})
    assert form_product(factors, l) == expected


@given(st.sampled_from([2, 3]), st.integers(0, 3), st.data())
def test_product_op_matches_operator_algebra(l, order, data):
    # the reference multiplies linear polynomials with Poly.__mul__ and
    # composes order-1 operators, where product_op expands both products
    vectors = st.lists(small, min_size=l, max_size=l)
    terms = data.draw(
        st.lists(
            st.tuples(small, st.lists(vectors, max_size=3), st.lists(vectors, min_size=order, max_size=order)),
            max_size=3,
        )
    )
    expected = DiffOp(l, order)
    for c, forms, derivs in terms:
        x = Poly.constant(l, c)
        for f in forms:
            x = x * Poly(l, {unit(l, i): v for i, v in enumerate(f)})
        d = identity_op(l)
        for v in derivs:
            d = d.compose_constant(DiffOp(l, 1, {unit(l, i): Poly.constant(l, w) for i, w in enumerate(v)}))
        expected = expected + d.mul_poly(x)
    assert product_op(terms, l, order) == expected


@given(st.integers(0, 4), st.sampled_from([1, 2, 3]))
def test_euler_op_is_its_sum_of_terms(m, l):
    expected = DiffOp(l, m)
    for a in monomials_of_degree(l, m):
        expected = expected + partial_op(l, a, Poly(l, {a: factorial(m) // midx_factorial(a)}))
    assert euler_op(m, l) == expected


@st.composite
def membership_cases(draw):
    """An arrangement of one to three planes and Q * theta + g * Euler + psi,
    with psi drawn in another degree or left out: members and non-members,
    homogeneous or not."""
    l = draw(st.sampled_from([2, 3]))
    arr = Arrangement(l, [Hyperplane(v) for v in draw(st.lists(normals(l), min_size=1, max_size=3, unique=True))])
    order = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 2))
    theta = draw(operators(l, order, degree)).mul_poly(arr.defining_polynomial())
    g = Poly(l, {c: draw(small) for c in monomials_of_degree(l, degree + arr.n - order)})
    theta = theta + euler_op(order, l).mul_poly(g)
    if draw(st.booleans()):
        theta = theta + draw(operators(l, order, draw(st.integers(0, 3))))
    return theta, arr


@given(membership_cases())
def test_is_member_agrees_with_definition(case):
    theta, arr = case
    assert is_member(theta, arr) == member_by_definition(theta, arr)


@cache
def certified_basis(key):
    text, m = key
    arr = parse_arrangement(text)
    return arr, build_basis(arr, m)


bases = st.sampled_from(
    [("x1; x2; x3; x1 - x2", m) for m in (2, 3)]
    + [(random_essential(random.Random(seed), 4).text(), 2) for seed in range(3)]
)


@given(bases, st.data())
def test_saito_check_rejects_a_non_member_summand(key, data):
    arr, fb = certified_basis(key)
    k = data.draw(st.integers(0, len(fb.operators) - 1))
    psi = data.draw(operators(3, key[1], fb.degrees[k]))
    assume(not member_by_definition(psi, arr))
    ops = list(fb.operators)
    ops[k] = ops[k] + psi
    with pytest.raises(NotMember, match=f"operator {k} is not a member"):
        saito_check(ops, arr)


@cache
def factored_basis(seed, n, offset):
    arr = random_essential(random.Random(seed), n)
    m = n - 2 + offset
    return arr, factored_blocks(arr, m, extend(arr, m).profiles)[0]


def certificate_verdict(ops, arr):
    """c and t, or the failure's type, operator index and message up to the
    first colon (the b a ``NotMember`` names depends on the sample degree)."""
    try:
        cert = saito_check(ops, arr)
    except SaitoFailed as exc:
        return type(exc), exc.index, str(exc).split(":")[0]
    return cert.c, cert.t


@given(st.integers(0, 5), st.integers(3, 5), st.integers(0, 1), st.data())
def test_factored_certificate_agrees_with_the_full_test(seed, n, offset, data):
    # the factored check (the core at the planes its cofactor misses) against
    # the full check of the multiplied-out operators, on assembled bases and
    # on bases with one operator's factor lists changed; one cofactor form of
    # that operator is also scaled by 1, -1 or 2, which keeps its plane
    arr, ops = factored_basis(seed, n, offset)
    ops = list(ops)
    k = data.draw(st.integers(0, len(ops) - 1))
    op = ops[k]
    change = data.draw(st.sampled_from(["none", "drop plane", "add plane", "form", "derivation"]))
    cofactor, terms = list(op.cofactor), [(c, list(fs), list(ds)) for c, fs, ds in op.terms]
    if change == "drop plane":
        assume(cofactor)
        del cofactor[data.draw(st.integers(0, len(cofactor) - 1))]
    elif change == "add plane":
        cofactor.append(data.draw(st.sampled_from([h.normal for h in arr])))
    elif change != "none":
        key = 1 if change == "form" else 2
        t = data.draw(st.integers(0, len(terms) - 1))
        assume(terms[t][key])
        terms[t][key][data.draw(st.integers(0, len(terms[t][key]) - 1))] = data.draw(normals())
    if cofactor:
        i, scale = data.draw(st.integers(0, len(cofactor) - 1)), data.draw(st.sampled_from([1, -1, 2]))
        cofactor[i] = tuple(scale * v for v in cofactor[i])
    ops[k] = FactoredOp(3, op.order, cofactor, terms)
    assert certificate_verdict(ops, arr) == certificate_verdict([op.op for op in ops], arr)


@given(st.lists(normals(2), min_size=1, max_size=6, unique=True), st.data())
def test_pencil_block_certifies_with_closed_form_degrees(lines, data):
    # j runs past k so both closed forms and the switch at j = k are drawn
    k = len(lines)
    j = data.draw(st.integers(0, k + 2))
    ops = build_basis(Arrangement(2, [Hyperplane(line) for line in lines]), j).operators
    assert sorted(op.degree() for op in ops) == list(exp_2arr(k, j))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polys(draw, max_degree=3):
    monos = [a for d in range(max_degree + 1) for a in monomials_of_degree(2, d)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
    return Poly(2, {a: draw(rationals) for a in chosen})


@given(polys(), polys())
def test_exact_div_inverts_multiplication(f, g):
    assume(not g.is_zero())
    assert (f * g).exact_div(g) == f


@st.composite
def essential(draw):
    planes = draw(st.lists(normals(), min_size=3, max_size=5, unique=True))
    arr = Arrangement(3, [Hyperplane(v) for v in planes])
    assume(arr.is_essential())
    return arr


@given(essential(), st.data())
def test_frame_blocks_match_reference_conversion(arr, data):
    # the pencil blocks that basis assembly builds in a flat's integer frame
    # (the j = m blocks of its localization's basis at m = j) against the
    # certified 2-variable blocks rewritten in ambient coordinates
    flat = data.draw(st.sampled_from(arr.flats()))
    k = len(flat.local_indices)
    j = data.draw(st.integers(0, k + 1))
    forms, duals, _ = flat.integer_frame()
    lines = []
    for i in flat.local_indices:
        cy = [sum(c * v for c, v in zip(arr.hyperplanes[i].normal, w)) for w in duals]
        assert cy[2] == 0
        lines.append(primitive_int_vector(cy[:2]))
    ops2 = basis_2arr_lines(lines, j)
    saito_check(ops2, Arrangement(2, [Hyperplane(line) for line in lines]))
    expected = [convert_2var_op(op2, forms[:2], duals[:2]).normalized_primitive() for op2 in ops2]
    fb = build_basis(localization(arr, flat.direction), j)
    assert [op for op, p in zip(fb.operators, fb.provenance) if p["j"] == j] == expected


def rational_vectors(nvars):
    return st.tuples(*[st.builds(Fraction, small, st.integers(1, 4))] * nvars).filter(any)


def form_text(vec):
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*x{i + 1}" for i, c in enumerate(vec) if c)


@given(st.sampled_from([2, 3]), st.data())
def test_parse_round_trips_rational_input(l, data):
    vectors = data.draw(st.lists(rational_vectors(l), min_size=1, max_size=5, unique_by=lambda v: Hyperplane.make(v)))
    arr = parse_arrangement("; ".join(form_text(v) for v in vectors), dim=l)
    assert arr == Arrangement(l, [Hyperplane.make(v) for v in vectors])
    rows = json.dumps({"l": l, "hyperplanes": [[str(c) for c in v] for v in vectors]})
    assert parse_arrangement(rows) == arr
    assert parse_arrangement(json.dumps(arr.to_json())) == arr
    assert parse_arrangement(arr.text(), dim=l) == arr


@given(st.sampled_from([2, 3]), st.data())
def test_input_paths_agree(l, data):
    # inline text, JSON "forms", JSON "hyperplanes" with "p/q" entries and
    # hyperplanes_from_forms read the same arrangement; form_text leaves
    # out zero terms, so a form need not name every variable
    vectors = data.draw(st.lists(rational_vectors(l), min_size=1, max_size=5, unique_by=lambda v: Hyperplane.make(v)))
    forms = [form_text(v) for v in vectors]
    expected = Arrangement(l, [Hyperplane.make(v) for v in vectors])
    assert parse_arrangement("; ".join(forms), dim=l) == expected
    assert parse_arrangement(json.dumps({"l": l, "forms": forms})) == expected
    rows = [[f"{c.numerator}/{c.denominator}" for c in v] for v in vectors]
    assert parse_arrangement(json.dumps({"l": l, "hyperplanes": rows})) == expected
    assert Arrangement(l, hyperplanes_from_forms(forms, dim=l)) == expected
    # without a dimension the width is the largest variable index used, at least 2
    width = max(2, *(i + 1 for v in vectors for i, c in enumerate(v) if c))
    inferred = Arrangement(width, [Hyperplane.make(v[:width]) for v in vectors])
    assert parse_arrangement("; ".join(forms)) == inferred
    assert parse_arrangement(json.dumps({"forms": forms})) == inferred


certificate_cases = st.one_of(
    st.just((parse_arrangement("x1; x2; x3; x1 - x2"), 2)),
    st.tuples(st.lists(normals(2), min_size=1, max_size=4, unique=True), st.integers(0, 4)).map(
        lambda t: (Arrangement(2, [Hyperplane(v) for v in t[0]]), t[1])
    ),
    st.tuples(st.lists(normals(2), min_size=2, max_size=3, unique=True), small, small, st.integers(0, 2)).map(
        lambda t: (Arrangement(3, [Hyperplane.make((a, b, a * t[1] + b * t[2])) for a, b in t[0]]), t[3])
    ),
)


@given(certificate_cases)
def test_certificate_det_matches_sympy(case):
    # the certificate's c * Q^t against sympy's exact determinant of the
    # Saito matrix over Q[x] (bases of at most 6 x 6)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    arr, m = case
    fb = build_basis(arr, m)
    ring = sympy.QQ[sympy.symbols(f"x1:{arr.dim + 1}")]

    def element(f):
        return ring.ring.from_dict({a: sympy.QQ(c.numerator, c.denominator) for a, c in f.terms.items()})

    rows = [[element(f) for f in row] for row in saito_matrix(fb.operators)]
    assert DomainMatrix(rows, (len(rows), len(rows)), ring).det() == element(fb.saito.det)


@given(essential(), st.integers(0, 1))
def test_cofactor_times_local_product_is_q(arr, extra):
    ext = extend(arr, arr.n - 2 + extra)
    for profile in flat_profiles(ext):
        direction = profile.flat.direction
        for planes, cofactor in (
            (ext.full, off_flat_product(profile)),
            (arr, base_off_flat_product(profile)),
        ):
            local = localization(planes, direction)
            assert cofactor * local.defining_polynomial() == planes.defining_polynomial()


def sparse_matrix(rng, nrows, ncols, density):
    """Seeded sparse integer matrix; its last row is the sum of two others, so
    it is rank-deficient whenever it has three rows or more."""
    entries = (-9, -3, -2, -1, 1, 1, 2, 5)
    rows = [[rng.choice(entries) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 3:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
    return rows


def kronecker_stack(rng, planes, etas, kappa, width):
    """Rows of E_H (x) K_H stacked over hyperplanes H, shaped like the oracle's
    rank matrix: E_H a rank <= 2 weight block over ``etas`` columns, K_H
    ``kappa`` kernel vectors of length ``width``."""
    rows = []
    for _ in range(planes):
        u, v = (sparse_matrix(rng, 1, etas, 0.5)[0] for _ in range(2))
        weights = [[s * a + t * b for a, b in zip(u, v)] for s, t in ((1, 0), (0, 1), (1, -2), (3, 1))]
        kernel = sparse_matrix(rng, kappa, width, 0.3)
        rows += [[e * w for e in eta for w in vec] for eta in weights for vec in kernel]
    return rows


def assert_echelon_matches_rref(rows, ncols):
    red, pivots = rref([[Fraction(v) for v in row] for row in rows], ncols)
    for reduce in (False, True):
        out, out_pivots = echelon_int(rows, reduce=reduce)
        assert out_pivots == pivots
        for row, pc in zip(out, pivots):
            assert len(row) == ncols and row[pc] > 0 and not any(row[:pc])
            assert gcd(*row) == 1
        if reduce:  # the primitive form of the matching rref row
            assert [primitive_int_vector(ref) for ref in red] == [tuple(row) for row in out]


@given(st.integers(0, 2**32 - 1), st.integers(1, 14), st.integers(1, 24), st.sampled_from([0.05, 0.15, 0.4]))
def test_echelon_int_matches_rref_on_sparse_matrices(seed, nrows, ncols, density):
    assert_echelon_matches_rref(sparse_matrix(random.Random(seed), nrows, ncols, density), ncols)


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 5), st.integers(1, 3), st.integers(2, 6))
def test_echelon_int_matches_rref_on_kronecker_stacks(seed, planes, etas, kappa, width):
    rows = kronecker_stack(random.Random(seed), planes, etas, kappa, width)
    assert_echelon_matches_rref(rows, etas * width)


height_one = st.tuples(*[st.integers(-1, 1)] * 3).filter(any).map(lambda v: Hyperplane.make(v).normal)
oracle_arrangements = st.one_of(
    # height-1 normals: many triple points
    st.lists(height_one, min_size=1, max_size=5, unique=True).map(lambda planes: Arrangement(3, [Hyperplane(v) for v in planes])),
    # a rank-2 pencil: every plane through the line of (-s, -t, 1)
    st.tuples(st.lists(normals(2), min_size=1, max_size=5, unique=True), small, small).map(
        lambda t: Arrangement(3, [Hyperplane.make((a, b, a * t[1] + b * t[2])) for a, b in t[0]])
    ),
)


@given(oracle_arrangements, st.integers(1, 2))
def test_oracle_matches_direct_on_small_arrangements(arr, m):
    # the lattice-sampled oracle against the literal coefficient-space system
    assert oracle_dims(arr, m, 3) == [oracle_dim_direct(arr, m, d) for d in range(4)]


kernel_arrangements = st.one_of(
    st.tuples(st.integers(0, 2**16), st.integers(3, 6)).map(lambda t: random_essential(random.Random(t[0]), t[1])),
    st.lists(normals(2), min_size=1, max_size=6, unique=True).map(lambda lines: Arrangement(2, [Hyperplane(v) for v in lines])),
)


@given(kernel_arrangements, st.integers(1, 6))
def test_closed_form_kernels_span_the_eliminated_ones(arr, m):
    # K_H from derivations along H and K_X = <delta_X^m> against nullspace_int
    # of the plane's contraction rows and of the flat's stacked rows
    sample = _Planes(arr, m)
    closed, eliminated = _kernels(arr, sample), contraction_kernels(sample)
    assert closed.keys() == eliminated.keys()
    for planes, kernel in closed.items():
        assert rank_int(kernel) == len(kernel) == len(eliminated[planes]) == rank_int(kernel + eliminated[planes]), (planes, m)


@cache
def closed_form_case(seed, n, offset):
    arr = random_essential(random.Random(seed), n)
    m = n - 2 + offset
    return arr, m, exp_3arr_closed(arr, m), build_basis(arr, m)


@given(st.integers(0, 5), st.integers(3, 5), st.integers(0, 2))
def test_closed_form_basis_degrees_and_oracle_agree(seed, n, offset):
    # the closed-form exponents, the certified basis degrees and the oracle's
    # Hilbert function on small random essential arrangements at m >= n - 2
    arr, m, exps, fb = closed_form_case(seed, n, offset)
    assert fb.exponents == exps.entries
    assert hilbert_check(arr, m, exps.entries, max(exps.entries) + 2).consistent


sample_cases = st.one_of(
    # random essential 3-arrangements at m = n - 2, n - 1, n
    st.tuples(st.integers(0, 7), st.integers(3, 6), st.integers(0, 2)).map(lambda t: (random_essential(random.Random(t[0]), t[1]), t[1] - 2 + t[2])),
    st.tuples(st.lists(normals(2), min_size=1, max_size=5, unique=True), st.integers(1, 4)).map(
        lambda t: (Arrangement(2, [Hyperplane(v) for v in t[0]]), t[1])
    ),
)


@given(sample_cases)
def test_certificate_sample_serves_the_oracle(case):
    # the certificate's sample, with the tables its membership test filled,
    # gives the oracle the dimensions of a fresh sample, and every operator
    # of the certified basis passes the membership test on its own sample
    arr, m = case
    fb = build_basis(arr, m)
    d_max = max(fb.exponents) + 2
    assert oracle_dims(arr, m, d_max, fb.saito.sample) == oracle_dims(arr, m, d_max)
    assert all(is_member(op, arr) for op in fb.operators)


cross_flat_arrangements = st.one_of(
    # boolean, quad, generic four planes, quad5
    st.sampled_from(["x1; x2; x3", "x1; x2; x3; x1 - x2", "x1; x2; x3; x1 + x2 + x3", "x1; x2; x3; x1 - x2; x2 - x3"]).map(parse_arrangement),
    st.tuples(st.integers(0, 2**16), st.integers(3, 5)).map(lambda t: random_essential(random.Random(t[0]), t[1])),
)


@given(cross_flat_arrangements, st.integers(0, 2))
def test_basis_operators_kill_the_dual_polynomials_of_other_flats(arr, offset):
    # the direct sum over flats: an operator of flat X ends in delta_X^(m-j),
    # j <= its order cap, so it sends every dual-pair polynomial of a flat
    # Y != X (the extended planes off Y times a degree-cap_Y form) to 0
    m = arr.n - 2 + offset
    ext = extend(arr, m)
    fb = build_basis(arr, m, ext)
    pair = dual_pair(ext)
    for op, p in zip(fb.operators, fb.provenance):
        for poly, (direction, _, _) in zip(pair.basis_polys, pair.labels):
            if tuple(p["flat_direction"]) != direction:
                assert apply(op, poly).is_zero(), (p, direction)
