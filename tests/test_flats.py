import random
from fractions import Fraction
from math import lcm

from conftest import random_essential
from reference import coordinate_forms, dual_derivations, substitute

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.flats import Flat1
from arrops.linalg import rref
from arrops.polynomial import Poly, form_product, monomials_of_degree

x1, x2, x3 = Poly.variables(3)


def _kernel_forms(direction):
    return coordinate_forms(Flat1(direction, ()))[:-1]


def test_choose_section_values(quad_arr):
    # the section view of the pivot frame, its last coordinate form
    sections = [coordinate_forms(flat)[-1] for flat in quad_arr.lattice.flats]
    # direction (0,0,1): section x3
    assert sections[0] == x3
    # direction (1,1,0): deterministic section x1, and it pairs to 1
    assert sections[3] == x1
    for flat, section in zip(quad_arr.lattice.flats, sections):
        assert substitute(section, [Poly.constant(3, v) for v in flat.direction]) == Poly.constant(3, 1)
    assert coordinate_forms(Flat1((0, 2, 0), ()))[-1] == Fraction(1, 2) * x2


def test_kernel_basis_values():
    # the kernel-form view of the pivot frame
    forms = _kernel_forms((0, 0, 1))
    assert forms == [x1, x2]
    forms4 = _kernel_forms((1, 1, 0))
    assert forms4 == [x2 - x1, x3]
    assert _kernel_forms((1, 0, 0)) == [x2, x3]
    for v in [(0, 0, 1), (1, 1, 0), (1, -2, 3)]:
        for f in _kernel_forms(v):
            assert substitute(f, [Poly.constant(3, c) for c in v]).is_zero()


def test_kernel_basis_spans_same_plane_as_alternative():
    # the subspace spanned by {x2 - x1, x3} equals span{(x1 - x2)/2, x3}
    ours = [[f.terms.get(e, Fraction(0)) for e in monomials_of_degree(3, 1)] for f in _kernel_forms((1, 1, 0))]
    alt = [[Fraction(1, 2), Fraction(-1, 2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert len(rref(ours + alt, 3)[1]) == 2


def _low_rank_arrangements(rng):
    """Seeded 3-arrangements of rank 1 and 2, with their kernel directions."""
    fixed = ["x1", "2*x1 - 3*x3", "x2 + x3", "x1 + x3; x2 - x3; x1 + x2", "2*x1 + 3*x2; x1 - x2", "3*x3; x1"]
    arrs = [parse_arrangement(text, dim=3) for text in fixed]
    while len(arrs) < 20:
        u = [rng.randint(-3, 3) for _ in range(3)]
        v = [rng.randint(-3, 3) for _ in range(3)]
        normals = {Hyperplane.make(u).normal} if any(u) else set()
        for a, b in [(0, 1), (1, 1), (2, -1)][: rng.randint(0, 3)]:
            w = [a * x + b * y for x, y in zip(u, v)]
            if any(w):
                normals.add(Hyperplane.make(w).normal)
        arr = Arrangement(3, [Hyperplane.make(n) for n in sorted(normals)])
        if 1 <= arr.rank() <= 2:
            arrs.append(arr)
    return [(arr, arr.lattice.kernel[-1]) for arr in arrs]


def test_coordinate_system_invertible_and_dual(quad_arr):
    # the flats of quad, of seeded random essential arrangements and of
    # 2-arrangements, and the kernel flat of seeded rank 1 and 2
    # arrangements, as their bases take it (every plane passes through it)
    rng = random.Random(4242)
    flats = list(quad_arr.lattice.flats)
    flats += [flat for n in (3, 3, 4, 4, 5, 5, 6) for flat in random_essential(rng, n).lattice.flats]
    flats += [Flat1(direction, tuple(range(arr.n))) for arr, direction in _low_rank_arrangements(rng)]
    flats += [flat for text in ("x1; x2; x1 - x2", "x1; x2 - 2*x1; 2*x1 + 3*x2") for flat in parse_arrangement(text, dim=2).lattice.flats]
    for flat in flats:
        duals = dual_derivations(flat)
        forms = coordinate_forms(flat)
        for i, w in enumerate(duals):
            for j, f in enumerate(forms):
                assert substitute(f, [Poly.constant(flat.dim, c) for c in w]) == Poly.constant(flat.dim, 1 if i == j else 0), (flat, i, j)
        # the last dual derivation is the flat direction itself
        assert duals[-1] == flat.direction
        # the integer frame: D * forms, D = v_p, and adjugate columns pairing
        # with them to det M' * delta_ij
        rows, cols = flat.integer_frame()
        assert all(type(v) is int for vec in rows + cols for v in vec)
        den = lcm(*(c.denominator for f in forms for c in f.terms.values()))
        assert [form_product([row], flat.dim) for row in rows] == [f * den for f in forms]
        det = sum(a * b for a, b in zip(rows[0], cols[0]))
        assert den == flat.integer_rows()[1] and det != 0
        for i, col in enumerate(cols):
            for j, row in enumerate(rows):
                assert sum(a * b for a, b in zip(row, col)) == (det if i == j else 0)


def test_direction_annihilates_exactly_localized_forms(quad_arr):
    for flat in quad_arr.lattice.flats:
        local = set(flat.local_indices)
        for i, h in enumerate(quad_arr.hyperplanes):
            assert h.contains(flat.direction) == (i in local)


def test_off_flat_product_times_local_product_is_q(quad_arr):
    q = quad_arr.defining_polynomial()
    for flat in quad_arr.lattice.flats:
        local = set(flat.local_indices)
        q_local = Poly.constant(3, 1)
        p_rest = Poly.constant(3, 1)
        for i, h in enumerate(quad_arr.hyperplanes):
            if i in local:
                q_local = q_local * form_product([h.normal], 3)
            else:
                p_rest = p_rest * form_product([h.normal], 3)
        assert q.exact_div(q_local) == p_rest
        assert p_rest * q_local == q
