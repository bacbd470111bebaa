import pytest
from reference import base_off_flat_product, off_flat_product

from arrops.errors import BadOrder, DuplicateHyperplane
from arrops.extension import (
    extend,
    flat_profiles,
    generic_hyperplane,
    hyperplanes_from_forms,
)
from arrops.arrangement import Hyperplane, parse_arrangement
from arrops.polynomial import Poly, form_product
from arrops.verify import s_dim

x1, x2, x3 = Poly.variables(3)


def test_generic_hyperplane_first_acceptance(quad_arr):
    # candidates x1 + t x2 + t^2 x3 evaluated on the four flat directions
    # (0,0,1), (0,1,0), (1,0,0), (1,1,0): t = 0 vanishes on (0,0,1), t = 1
    # is nonzero on all four and is not already a hyperplane.
    vals_t0 = [v[0] for v, _ in quad_arr.lattice.flats]
    assert 0 in vals_t0
    h = generic_hyperplane(quad_arr)
    assert h.normal == (1, 1, 1)


def test_generic_hyperplane_empty():
    assert generic_hyperplane(parse_arrangement("", dim=3)).normal == (1, 0, 0)


def test_generic_hyperplane_skips_existing():
    arr = parse_arrangement("x1; x2; x3; x1+x2+x3")
    h = generic_hyperplane(arr)
    assert h.normal != (1, 1, 1)
    assert all(not h.contains(v) for v, _ in arr.lattice.flats)


def test_extend_trivial_at_minimum_order(quad_arr):
    ext = extend(quad_arr, 2)
    assert ext.added == ()
    assert ext.full == quad_arr
    assert ext.m == 2 and ext.condition_a


def test_extend_given_single_plane(quad_arr):
    ext = extend(quad_arr, 3, hyperplanes_from_forms(["x1+x2"]))
    assert ext.full.n == 5
    assert len(flat_profiles(ext)) == 5
    assert not ext.condition_a  # x1 + x2 vanishes on the (0,0,1) flat


def test_extend_given_transversal_plane(quad_arr):
    ext = extend(quad_arr, 3, hyperplanes_from_forms(["x1+x2-x3"]))
    profiles = flat_profiles(ext)
    assert len(profiles) == 8
    assert ext.condition_a
    dirs = [p.flat.direction for p in profiles]
    assert (1, 1, 2) in dirs  # the point where the new plane meets x1 = x2


def test_extend_errors(quad_arr):
    with pytest.raises(BadOrder):
        extend(quad_arr, 1)
    with pytest.raises(BadOrder):
        extend(quad_arr, 3, [])
    with pytest.raises(DuplicateHyperplane):
        extend(quad_arr, 3, [Hyperplane.make((1, 0, 0))])


def test_flat_profiles_minimal_extension(quad_arr):
    profiles = flat_profiles(extend(quad_arr, 2))
    by_dir = {p.flat.direction: p for p in profiles}
    p1 = by_dir[(0, 0, 1)]
    assert p1.max_order == 1
    assert off_flat_product(p1) == x3
    assert off_flat_product(by_dir[(0, 1, 0)]) == x2 * (x1 - x2)
    assert off_flat_product(by_dir[(1, 1, 0)]) == x1 * x2


def test_flat_profiles_given_extension(quad_arr):
    ext = extend(quad_arr, 3, hyperplanes_from_forms(["x1+x2"]))
    by_dir = {p.flat.direction: p for p in flat_profiles(ext)}
    assert by_dir[(0, 0, 1)].max_order == 2
    assert by_dir[(1, -1, 0)].max_order == 0
    assert off_flat_product(by_dir[(1, -1, 0)]) == x1 * x2 * (x1 - x2)
    assert off_flat_product(by_dir[(1, 1, 0)]) == x1 * x2 * (x1 + x2)


def test_flat_profiles_transversal_extension(quad_arr):
    ext = extend(quad_arr, 3, hyperplanes_from_forms(["x1+x2-x3"]))
    by_dir = {p.flat.direction: p for p in flat_profiles(ext)}
    assert base_off_flat_product(by_dir[(1, 1, 2)]) == x1 * x2 * x3


def test_profile_invariants(quad_arr):
    for m, forms in [(2, None), (3, ["x1+x2"]), (3, ["x1+x2-x3"]), (4, None)]:
        ext = extend(quad_arr, m, hyperplanes_from_forms(forms) if forms else None)
        q_full = ext.full.defining_polynomial()
        for p in flat_profiles(ext):
            assert p.max_order >= 0
            assert off_flat_product(p).homogeneous_degree() == m - p.max_order
            # base cofactor divides the extended cofactor
            off_flat_product(p).exact_div(base_off_flat_product(p))
            # cofactor times localized product reconstructs the full polynomial
            local = Poly.constant(3, 1)
            for i in p.flat.local_indices:
                local = local * form_product([ext.full.hyperplanes[i].normal], 3)
            assert off_flat_product(p) * local == q_full


def test_rank_counting_identity(quad_arr, random_family):
    for arr in [quad_arr, *random_family]:
        for m in (arr.n - 2, arr.n - 1, arr.n):
            profiles = flat_profiles(extend(arr, m))
            assert sum(s_dim(p.max_order, 3) for p in profiles) == s_dim(m, 3)


def test_condition_a_flats_have_zero_capacity(quad_arr):
    ext = extend(quad_arr, 5)
    base_dirs = {v for v, _ in quad_arr.lattice.flats}
    for p in flat_profiles(ext):
        if p.flat.direction not in base_dirs:
            assert p.max_order == 0
