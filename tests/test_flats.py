import random
from fractions import Fraction
from math import lcm

from conftest import random_essential

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.flats import Flat1, dim1_flats, flat_from_direction
from arrops.linalg import rank
from arrops.polynomial import Poly

x1, x2, x3 = Poly.variables(3)


def _kernel_forms(direction):
    return Flat1(direction, ()).kernel_forms


def test_choose_section_values(quad_arr):
    # the section view of the pivot frame
    flats = dim1_flats(quad_arr)
    # direction (0,0,1): section x3
    assert flats[0].section.to_poly() == x3
    # direction (1,1,0): deterministic section x1, and it pairs to 1
    assert flats[3].section.to_poly() == x1
    for flat in flats:
        assert flat.section(flat.direction) == 1
    assert Flat1((0, 2, 0), ()).section.to_poly() == Fraction(1, 2) * x2


def test_kernel_basis_values():
    # the kernel-form view of the pivot frame
    forms = _kernel_forms((0, 0, 1))
    assert [f.to_poly() for f in forms] == [x1, x2]
    forms4 = _kernel_forms((1, 1, 0))
    assert [f.to_poly() for f in forms4] == [x2 - x1, x3]
    assert [f.to_poly() for f in _kernel_forms((1, 0, 0))] == [x2, x3]
    for v in [(0, 0, 1), (1, 1, 0), (1, -2, 3)]:
        for f in _kernel_forms(v):
            assert f(v) == 0


def test_kernel_basis_spans_same_plane_as_alternative():
    # the subspace spanned by {x2 - x1, x3} equals span{(x1 - x2)/2, x3}
    ours = [list(f.coeffs) for f in _kernel_forms((1, 1, 0))]
    alt = [[Fraction(1, 2), Fraction(-1, 2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert rank(ours + alt, 3) == 2


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
    return [(arr, arr.rank_and_kernel()[1][-1]) for arr in arrs]


def test_coordinate_system_invertible_and_dual(quad_arr):
    # the flats of quad and of seeded random essential arrangements, and the
    # kernel flat of seeded rank 1 and 2 arrangements, as their bases take it
    rng = random.Random(4242)
    flats = dim1_flats(quad_arr)
    flats += [flat for n in (3, 3, 4, 4, 5, 5, 6) for flat in dim1_flats(random_essential(rng, n))]
    flats += [flat_from_direction(arr, direction) for arr, direction in _low_rank_arrangements(rng)]
    for flat in flats:
        duals = flat.dual_derivations()
        forms = flat.coordinate_forms()
        for i, w in enumerate(duals):
            for j, f in enumerate(forms):
                assert f(w) == (1 if i == j else 0), (flat, i, j)
        # the last dual derivation is the flat direction itself
        assert duals[-1] == flat.delta
        # the integer frame: D * forms, and adjugate columns pairing with them
        # to det M' * delta_ij, with D / det M' the returned scale
        rows, cols, scale = flat.integer_frame()
        assert all(type(v) is int for vec in rows + cols for v in vec)
        den = lcm(*(c.denominator for f in forms for c in f.coeffs))
        assert rows == [tuple(c * den for c in f.coeffs) for f in forms]
        det = den / scale
        assert det.denominator == 1 and det != 0
        for i, col in enumerate(cols):
            for j, row in enumerate(rows):
                assert sum(a * b for a, b in zip(row, col)) == (det if i == j else 0)


def test_direction_annihilates_exactly_localized_forms(quad_arr):
    for flat in dim1_flats(quad_arr):
        local = set(flat.local_indices)
        for i, h in enumerate(quad_arr.hyperplanes):
            value = h.form()(flat.direction)
            assert (value == 0) == (i in local)


def test_off_flat_product_times_local_product_is_q(quad_arr):
    q = quad_arr.defining_polynomial()
    for flat in dim1_flats(quad_arr):
        local = set(flat.local_indices)
        q_local = Poly.constant(3, 1)
        p_rest = Poly.constant(3, 1)
        for i, h in enumerate(quad_arr.hyperplanes):
            if i in local:
                q_local = q_local * h.poly()
            else:
                p_rest = p_rest * h.poly()
        assert q.exact_div(q_local) == p_rest
        assert p_rest * q_local == q
