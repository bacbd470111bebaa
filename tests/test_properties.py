"""Hypothesis properties of exact division, products of linear forms, the
operator constructor, membership, the certificate and its factored form,
the closed-form pencil blocks and their frames, the on-demand flat
cofactors, the integer echelon kernel, the parse/serialize round trip, the
agreement of the input paths, the dimension oracle and its closed-form
contraction kernels (spanning the eliminated ones, and equal to the
primitive products of their factor lists), the closed-form exponents, the
orthogonality of the basis and the dual pair across flats, the JSON report
printer against ``json.dumps``, and the CLI's exit codes and output on
valid and invalid arguments (profile ``arrops`` in conftest: derandomized,
bounded example counts)."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from math import factorial, gcd

import pytest

pytest.importorskip("hypothesis")

from conftest import random_essential
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import (
    add_ops,
    apply,
    base_off_flat_product,
    compose_constant,
    contraction_kernels,
    convert_2var_op,
    coordinate_forms,
    eager_oracle_dims,
    euler_op,
    every_kernel,
    localization,
    mul_poly,
    normalized_primitive,
    off_flat_product,
    oracle_dim_direct,
    parse_linear_form_loop,
    partial_op,
    product_kernels,
    rational_primitive_vector,
    saito_matrix,
    tuple_basis_json,
    tuple_product_op,
)

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement, parse_linear_form
from arrops import cli
from arrops.cli import emit_report
from arrops.diffop import DiffOp, FactoredOp, _packed_terms, _unpacked
from arrops.errors import ArropsError, NotDivisible, NotMember, SaitoFailed, ZeroForm
from arrops.extension import extend, flat_profiles, hyperplanes_from_forms
from arrops.flats import Flat1
from arrops.exponents import exp_2arr, exp_3arr_closed
from arrops.freebasis import _factored_blocks as factored_blocks
from arrops.freebasis import basis_2arr_lines, build_basis, dual_pair
from arrops.linalg import echelon_int, rank_int, rref
from arrops.polynomial import Poly, form_product, midx_factorial, monomials_of_degree, primitive_int_vector
from arrops.verify import _Planes, hilbert_check, is_member, oracle_dims, saito_check

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
        alpha = form_product([h.normal], arr.dim)
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
    assert is_member(mul_poly(theta, form_product([h.normal], l)), Arrangement(l, [h]))


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
    # composes order-1 operators, where _packed_terms expands both products
    # on packed keys in one radix above every form count
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
        d = partial_op(l, (0,) * l)
        for v in derivs:
            d = compose_constant(d, DiffOp(l, 1, {unit(l, i): Poly.constant(l, w) for i, w in enumerate(v)}))
        expected = add_ops(expected, mul_poly(d, x))
    radix = max((len(forms) for _, forms, _ in terms), default=0) + 1
    assert _unpacked(_packed_terms(terms, order, radix), l, order, radix) == expected


@given(st.integers(0, 4), st.sampled_from([1, 2, 3]))
def test_euler_op_is_its_sum_of_terms(m, l):
    expected = DiffOp(l, m)
    for a in monomials_of_degree(l, m):
        expected = add_ops(expected, partial_op(l, a, Poly(l, {a: factorial(m) // midx_factorial(a)})))
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
    theta = mul_poly(draw(operators(l, order, degree)), arr.defining_polynomial())
    g = Poly(l, {c: draw(small) for c in monomials_of_degree(l, degree + arr.n - order)})
    theta = add_ops(theta, mul_poly(euler_op(order, l), g))
    if draw(st.booleans()):
        theta = add_ops(theta, draw(operators(l, order, draw(st.integers(0, 3)))))
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
    ops[k] = add_ops(ops[k], psi)
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
    flat = data.draw(st.sampled_from(arr.lattice.flats))
    k = len(flat.local_indices)
    j = data.draw(st.integers(0, k + 1))
    forms, duals = flat.integer_frame()
    lines = []
    for i in flat.local_indices:
        cy = [sum(c * v for c, v in zip(arr.hyperplanes[i].normal, w)) for w in duals]
        assert cy[2] == 0
        lines.append(primitive_int_vector(cy[:2]))
    ops2 = basis_2arr_lines(lines, j)
    saito_check(ops2, Arrangement(2, [Hyperplane(line) for line in lines]))
    expected = [normalized_primitive(convert_2var_op(op2, forms[:2], duals[:2])) for op2 in ops2]
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


# well-formed terms, and fragments that break a term, a variable, a p/q
# coefficient or the separator between terms
form_tokens = st.sampled_from(["+", "-", " ", "*", "/", "x", "x0", "x1", "x2", "x3", "x4", "y2", "0", "1", "2", "12", "3/4", "1/0", "0/5", "07", "2/3*x2"])
well_formed_terms = st.tuples(
    st.sampled_from(["+", "-", " - ", " + ", ""]),
    st.sampled_from(["", "", "0", "1", "3", "10", "1/2", "6/4", "2/1"]),
    st.sampled_from(["x1", "x2", "x3", "x1", "x2", "x3", "x4", ""]),
)


def term_text(terms):
    return "".join(sign + coef + ("*" if coef and var else "") + var for sign, coef, var in terms)


@given(
    st.one_of(st.lists(form_tokens, max_size=8).map("".join), st.lists(well_formed_terms, max_size=5).map(term_text)),
    st.sampled_from([None, 2, 3]),
)
@example("1" * 5000 + "*x1", None)  # more digits than int() reads
@example("x2 - 3/" + "7" * 5000 + "*x1", 3)
@example("x" + "1" * 5000, None)
@example("- " + "9" * 700 + "*x2", 3)  # a long coefficient within the default limit
@settings(max_examples=200)
@example("x1 + 2/0*x2", 3)
def test_parser_matches_the_reference_loop(text, dim):
    # the same vector, or the same exception type with the same message
    try:
        expected = parse_linear_form_loop(text, dim)
    except ArropsError as exc:
        with pytest.raises(type(exc)) as raised:
            parse_linear_form(text, dim)
        assert str(raised.value) == str(exc)
    else:
        got = parse_linear_form(text, dim)
        assert got == expected and list(map(type, got)) == list(map(type, expected))


entries = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)).map(str),
)


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=4), st.lists(entries, min_size=1, max_size=4))
def test_primitive_int_vector_matches_the_rational_path(ints, mixed):
    # all-int vectors (the gcd path) and vectors with Fraction or string
    # entries give the rational path's tuple of ints, or both raise ZeroForm
    for vec in (ints, mixed):
        zero = not any(Fraction(v) for v in vec)
        for arg in (vec, tuple(vec), iter(vec)):
            if zero:
                with pytest.raises(ZeroForm):
                    primitive_int_vector(arg)
            else:
                got = primitive_int_vector(arg)
                assert got == rational_primitive_vector(vec) and all(type(v) is int for v in got)


@given(st.sampled_from([2, 3]), st.data())
def test_flat_printer_matches_the_rational_forms(l, data):
    # kernel forms and section printed from the integer rows equal the
    # texts of the rational coordinate forms: directions with a zero lead,
    # negative entries and v_p > 1, primitive or not
    v = data.draw(st.tuples(*[st.integers(-9, 9)] * l).filter(any))
    for direction in (v, primitive_int_vector(v)):
        flat = Flat1(direction, ())
        *kernel, section = coordinate_forms(flat)
        printed = flat.to_json()
        assert printed["kernel_forms"] == [f.text() for f in kernel]
        assert printed["section"] == section.text()


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
    out, out_pivots = echelon_int(rows)
    assert out_pivots == pivots
    for row, pc in zip(out, pivots):
        assert len(row) == ncols and row[pc] > 0 and not any(row[:pc])
        assert gcd(*row) == 1
    # the primitive form of the matching rref row
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

with_multiple_points = st.one_of(
    kernel_arrangements,
    # a quadruple point, and braid's four triple points
    st.sampled_from(["x1; x2; x1 - x2; x1 + x2; x3", "x1; x2; x3; x1 - x2; x1 - x3; x2 - x3"]).map(parse_arrangement),
)


@given(kernel_arrangements, st.integers(1, 6))
def test_closed_form_kernels_span_the_eliminated_ones(arr, m):
    # K_H from derivations along H and K_X = <delta_X^m> against nullspace_int
    # of the plane's contraction rows and of the flat's stacked rows
    sample = _Planes(arr, m)
    closed, eliminated = every_kernel(sample), contraction_kernels(sample)
    assert closed.keys() == eliminated.keys()
    for planes, kernel in closed.items():
        assert rank_int(kernel) == len(kernel) == len(eliminated[planes]) == rank_int(kernel + eliminated[planes]), (planes, m)


@given(with_multiple_points, st.integers(1, 8))
def test_kernels_from_shared_powers_equal_the_primitive_products(arr, m):
    # every vector from the shared packed powers, with no primitive pass,
    # equals the primitive form_product of its factor list: same keys, same
    # order, same tuples
    sample = _Planes(arr, m)
    assert list(every_kernel(sample).items()) == list(product_kernels(sample).items()), m


@given(with_multiple_points, st.integers(1, 4))
def test_lazy_kernels_give_the_eager_dimensions(arr, m):
    # kernels built on first read, counted from their proven dimensions, and
    # one-point weight blocks taken as they are, against every kernel built
    # first and every block reduced
    assert oracle_dims(arr, m, arr.n + 2) == eager_oracle_dims(arr, m, arr.n + 2), m


# rank <= 2 3-arrangements: a pencil through the line of (-s, -t, 1) (rank 1
# for one plane) and the empty arrangement (rank 0)
rank_at_most_two = st.one_of(
    st.tuples(st.lists(normals(2), min_size=1, max_size=5, unique=True), small, small).map(
        lambda t: Arrangement(3, [Hyperplane.make((a, b, a * t[1] + b * t[2])) for a, b in t[0]])
    ),
    st.just(Arrangement(3, [])),
)


@given(st.one_of(kernel_arrangements, rank_at_most_two), st.integers(0, 5))
def test_packed_basis_output_matches_the_tuple_path(arr, m):
    # the packed cores and their packed multiply-out and printer against
    # tuple-keyed operators: the same normalized cores, and the same bytes
    if arr.dim == 3 and arr.is_essential():
        m = max(m, arr.n - 2)
    fb = build_basis(arr, m)
    ours, theirs = fb.to_json(), tuple_basis_json(fb)
    assert len(ours) == len(theirs)
    for entry, expected in zip(ours, theirs):
        assert entry == expected
    for op in fb.factored:
        assert op.core == normalized_primitive(tuple_product_op(op.terms, op.nvars, op.order))


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


# quotes, backslashes, control characters, DEL, non-ASCII and a character
# outside the BMP (a surrogate pair in \u escapes), beside any other
report_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7f\xe9\u2202\U0001d400'), st.characters()), max_size=6)
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | report_text,
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple) | st.dictionaries(report_text, kids, max_size=4),
    max_leaves=24,
)


@given(report_values)
def test_report_printer_writes_the_bytes_of_json_dumps(value):
    # empty containers, tuples, bools beside ints and escaped keys all print
    # as the stdlib's indent-2 encoder prints them
    assert emit_report(value, "json") == json.dumps(value, sort_keys=True, indent=2)


@given(st.lists(report_values, max_size=4))
def test_report_text_prints_a_list_as_json_dumps_does(value):
    # the text format writes a list on one line, as the stdlib's encoder
    # writes it without indent
    assert emit_report({"key": value}, "text") == "key: " + json.dumps(value, sort_keys=True)


INPUT = "<input file>"  # stands for the path of a file holding the drawn bytes


@st.composite
def cli_calls(draw):
    """A CLI argv and the bytes of its ``--input`` file: mostly valid
    options, inline forms or a file, at times a bogus subcommand, an order
    or degree below 0, a bad dimension or format, undecodable bytes, or a
    junk, zero, duplicate or affine form or token put anywhere."""
    usually = st.sampled_from([True, True, True, True, False])
    argv = [draw(st.sampled_from(["lattice", "exponents", "basis", "verify", "identities", "oracle", "bogus"]))]
    if (argv[0] != "lattice") == draw(usually):
        argv += ["--m", str(draw(st.integers(-1, 4)))]
    if (argv[0] in ("verify", "oracle")) == draw(usually):
        argv += ["--max-degree", str(draw(st.integers(-1, 6)))]
    if not draw(usually):
        argv += ["--dim", draw(st.sampled_from(["3", "2", "1", "x"]))]
    if not draw(usually):
        argv += ["--format", draw(st.sampled_from(["json", "text", "xml"]))]
    data = b""
    if draw(usually):
        forms = ["x1", "x2", "x3", "x1-x2", "x2-x3", "x1+x2+x3", "2*x1-3*x2"]
        argv += draw(st.lists(st.sampled_from(forms), unique=True, min_size=2, max_size=7))
    else:
        argv += ["--input", INPUT]
        data = draw(st.sampled_from([b"x1; x2; x3; x1-x2", b'{"l": 2, "forms": ["x1", "x2"]}']) | st.binary(max_size=40))
    if not draw(usually):
        junk = ["x1", "0", "x1-x1", "x1+1", "x0", "x4", "1/0*x1", "x1+", "--bogus", "-x", "--m"]
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(junk)))
    return argv, data


@settings(max_examples=200, deadline=None)
@given(cli_calls())
def test_cli_exits_0_with_a_report_or_1_with_an_error_line(tmp_path_factory, call):
    # every argv either prints a report (JSON that parses, unless the text
    # format was asked for) and exits 0, or prints nothing on stdout and an
    # "error:" line on stderr and exits 1; no exception escapes main
    argv, data = call
    path = tmp_path_factory.getbasetemp() / "cli_input"
    path.write_bytes(data)
    argv = [str(path) if token == INPUT else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 0:
        assert err.getvalue() == ""
        if "text" not in argv:
            json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error:"), (argv, err.getvalue())
