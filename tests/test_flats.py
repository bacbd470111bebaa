from fractions import Fraction

from arrops.flats import choose_section, dim1_flats, kernel_basis
from arrops.linalg import rank
from arrops.polynomial import Poly

x1, x2, x3 = Poly.variables(3)


def test_choose_section_values(quad_arr):
    flats = dim1_flats(quad_arr)
    # direction (0,0,1): section x3
    assert flats[0].section.to_poly() == x3
    # direction (1,1,0): deterministic section x1, and it pairs to 1
    assert flats[3].section.to_poly() == x1
    for flat in flats:
        assert flat.section(flat.direction) == 1
    assert choose_section((0, 2, 0)).to_poly() == Fraction(1, 2) * x2


def test_kernel_basis_values():
    forms = kernel_basis((0, 0, 1))
    assert [f.to_poly() for f in forms] == [x1, x2]
    forms4 = kernel_basis((1, 1, 0))
    assert [f.to_poly() for f in forms4] == [x2 - x1, x3]
    assert [f.to_poly() for f in kernel_basis((1, 0, 0))] == [x2, x3]
    for v in [(0, 0, 1), (1, 1, 0), (1, -2, 3)]:
        for f in kernel_basis(v):
            assert f(v) == 0


def test_kernel_basis_spans_same_plane_as_alternative():
    # the subspace spanned by {x2 - x1, x3} equals span{(x1 - x2)/2, x3}
    ours = [list(f.coeffs) for f in kernel_basis((1, 1, 0))]
    alt = [[Fraction(1, 2), Fraction(-1, 2), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert rank(ours + alt, 3) == 2


def test_coordinate_system_invertible_and_dual(quad_arr):
    for flat in dim1_flats(quad_arr):
        duals = flat.dual_derivations()
        forms = flat.coordinate_forms()
        for i, w in enumerate(duals):
            for j, f in enumerate(forms):
                assert f(w) == (1 if i == j else 0)
        # the last dual derivation is the flat direction itself
        assert duals[-1] == flat.delta


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
