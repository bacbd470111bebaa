"""Explicit free bases for modules of order-m arrangement operators.

The constructions follow the direct-sum decomposition over rank-2 flats of
an extended arrangement: each flat X with localization of k lines and order
capacity i contributes blocks P_X * D^(j)(pencil) * delta_X^(m-j) for
0 <= j <= i.  Pencil modules (2-variable arrangements) are built exactly:

* order j <= k-1: the order-j Euler operator plus a deterministic complement
  of the Euler multiples inside the solution space of the membership linear
  system at coefficient degree k-1;
* order j >= k: one summand per line of a generically extended line set,
  the product of the other original lines times a pure power of the line's
  direction derivation;
* k = 0: the monomial derivatives themselves.

One assembly loop builds every 3-arrangement basis: an essential one flat
by flat over its extension, a rank 1 or 2 one from its single flat (the
common kernel line, order cap m, cofactor 1); rank 0 is the monomial
derivatives.  A basis is certified where it is returned, by the determinant
criterion (``verify.saito_check``: strip hyperplane factors from the rows,
then compare both sides on a unisolvent lattice); the blocks of
``basis_2arr_lines`` are not certified on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .arrangement import Arrangement, Hyperplane
from .diffop import (
    DiffOp,
    euler_op,
    identity_op,
    partial_op,
    power_of_derivation,
)
from .errors import (
    BadOrder,
    IdentityViolated,
    NotEssential,
    SolveFailed,
    ZeroNormalizer,
)
from .extension import ExtendedArrangement, FlatProfile, extend, flat_profiles
from .flats import Flat1
from .linalg import nullspace, rref
from .polynomial import (
    LinearForm,
    Poly,
    midx_factorial,
    monomials_of_degree,
    primitive_int_vector,
    s_dim,
)
from .verify import SaitoCertificate, saito_check


@dataclass(frozen=True)
class FreeBasis:
    """Ordered free basis with degrees, provenance tags and a determinant certificate."""

    operators: tuple[DiffOp, ...]
    degrees: tuple[int, ...]
    provenance: tuple[dict, ...]
    saito: SaitoCertificate

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))

    def to_json(self) -> list[dict]:
        return [
            {
                "degree": d,
                "provenance": p,
                "terms": op.to_json(),
            }
            for op, d, p in zip(self.operators, self.degrees, self.provenance)
        ]


@dataclass(frozen=True)
class DualPair:
    """Monomial-style basis of the degree-m polynomials and its dual operators."""

    basis_polys: tuple[Poly, ...]
    dual_operators: tuple[DiffOp, ...]
    labels: tuple[tuple, ...]

    def pairing_matrix(self) -> list[list[Fraction]]:
        return [[eta.apply(b).constant_value() for b in self.basis_polys] for eta in self.dual_operators]


# -- two-variable building blocks ---------------------------------------------


def _line_direction(line: tuple[int, int]) -> tuple[int, ...]:
    return primitive_int_vector((Fraction(-line[1]), Fraction(line[0])))


def _line_poly(line: tuple[int, int]) -> Poly:
    return LinearForm.make(line).to_poly()


def _euler_complement_block(lines: Sequence[tuple[int, int]], j: int) -> list[DiffOp]:
    """Euler operator plus j degree-(k-1) generators, for 1 <= j <= k-1."""
    k = len(lines)
    ops_idx = monomials_of_degree(2, j)
    mon_idx = monomials_of_degree(2, k - 1)
    col = {(a, c): i * len(mon_idx) + ci for i, a in enumerate(ops_idx) for ci, c in enumerate(mon_idx)}
    ncols = len(col)

    rows: list[list[Fraction]] = []
    for line in lines:
        point = _line_direction(line)
        values = {c: Fraction(point[0] ** c[0] * point[1] ** c[1]) for c in mon_idx}
        for b in monomials_of_degree(2, j - 1):
            row = [Fraction(0)] * ncols
            for i in range(2):
                if line[i] == 0:
                    continue
                a = (b[0] + (i == 0), b[1] + (i == 1))
                w = Fraction(line[i] * midx_factorial(a))
                for c in mon_idx:
                    row[col[(a, c)]] += w * values[c]
            rows.append(row)

    solutions = nullspace(rows, ncols)
    if len(solutions) != k:
        raise SolveFailed(f"membership system solution space has dimension {len(solutions)}, expected {k}")

    euler = euler_op(j, 2)
    euler_vecs = []
    for w in monomials_of_degree(2, k - 1 - j):
        vec = [Fraction(0)] * ncols
        for a in ops_idx:
            c = (a[0] + w[0], a[1] + w[1])
            vec[col[(a, c)]] = Fraction(factorial(j), midx_factorial(a))
        euler_vecs.append(vec)

    chosen: list[list[Fraction]] = []
    span = list(euler_vecs)
    base_rank = len(rref(span, ncols)[1])
    for vec in solutions:
        if len(chosen) == j:
            break
        trial = span + [list(vec)]
        if len(rref(trial, ncols)[1]) > base_rank:
            span = trial
            base_rank += 1
            chosen.append(list(vec))
    if len(chosen) != j:
        raise SolveFailed("could not extend Euler multiples to a full complement")

    out = [euler]
    for vec in chosen:
        coeffs = {}
        for a in ops_idx:
            terms = {c: vec[col[(a, c)]] for c in mon_idx if vec[col[(a, c)]]}
            if terms:
                coeffs[a] = Poly(2, terms)
        out.append(DiffOp(2, j, coeffs).normalized_primitive())
    return out


def _per_line_block(lines: Sequence[tuple[int, int]], j: int) -> list[DiffOp]:
    """One summand per line of a generic extension to j+1 lines (j >= k-1)."""
    k = len(lines)
    extended = list(lines)
    have = set(extended)
    t = 0
    while len(extended) < j + 1:
        cand = primitive_int_vector((Fraction(1), Fraction(t)))
        if cand not in have:
            have.add(cand)
            extended.append(cand)
        t += 1
    out = []
    for line in extended:
        pref = Poly.constant(2, 1)
        for other in lines:
            if other != line:
                pref = pref * _line_poly(other)
        op = power_of_derivation(_line_direction(line), j).mul_poly(pref)
        out.append(op.normalized_primitive())
    return out


def basis_2arr_lines(lines: Sequence[tuple[int, int]], j: int) -> list[DiffOp]:
    """Free basis of the order-j module of a 2-variable line arrangement.

    Handles every k >= 0 and j >= 0; degrees follow the two-variable
    exponent formula.  The result is not certified; callers that return a
    basis certify it.
    """
    lines = [tuple(int(c) for c in line) for line in lines]
    if len(set(lines)) != len(lines):
        raise SolveFailed("line arrangement has repeated lines")
    k = len(lines)
    if j == 0:
        return [identity_op(2)]
    if k == 0:
        return [partial_op(2, a) for a in monomials_of_degree(2, j)]
    if j <= k - 1:
        return _euler_complement_block(lines, j)
    return _per_line_block(lines, j)


def basis_2arr(arr2: Arrangement, j: int) -> list[DiffOp]:
    """Certified free basis of D^(j) for a 2-arrangement (j + 1 operators)."""
    if arr2.dim != 2:
        raise BadOrder("basis_2arr expects a 2-arrangement")
    ops = basis_2arr_lines([h.normal for h in arr2.hyperplanes], j)
    saito_check(ops, arr2)
    return ops


# -- pencil conversion into the ambient three-variable ring --------------------


def _convert_2var_op(
    op2: DiffOp,
    forms: tuple[LinearForm, LinearForm],
    duals: tuple[tuple[Fraction, ...], tuple[Fraction, ...]],
) -> DiffOp:
    """Rewrite a 2-variable operator in ambient coordinates.

    Coefficients are composed with the coordinate forms; the two partial
    derivatives become the constant derivations dual to those forms, which
    commute, so powers expand multinomially.
    """
    nvars = forms[0].nvars
    images = [f.to_poly() for f in forms]
    total: DiffOp | None = None
    for a, g in op2.coeffs.items():
        const = power_of_derivation(duals[0], a[0], nvars).compose_constant(
            power_of_derivation(duals[1], a[1], nvars)
        )
        term = const.mul_poly(g.substitute(images))
        total = term if total is None else total + term
    if total is None:
        return DiffOp(nvars, op2.order)
    return total


def _pencil_lines(arr: Arrangement, flat: Flat1) -> tuple[list[tuple[int, int]], list[tuple[Fraction, ...]]]:
    """Localized forms of ``arr`` through the flat, in the flat's kernel coordinates."""
    duals = flat.dual_derivations()
    lines = []
    for i in arr.localization_indices(flat.direction):
        form = arr.hyperplanes[i].form()
        cy = (form(duals[0]), form(duals[1]))
        if form(duals[-1]) != 0:
            raise IdentityViolated("localized form does not lie in the flat's kernel coordinates")
        lines.append(primitive_int_vector(cy))
    return lines, duals


def pencil_basis(arr: Arrangement, flat: Flat1, j: int) -> list[DiffOp]:
    """Free basis of the order-j module of the localization at a flat,
    expressed as ambient operators."""
    lines, duals = _pencil_lines(arr, flat)
    ops2 = basis_2arr(Arrangement(2, [Hyperplane.make(line) for line in lines]), j)
    return [
        _convert_2var_op(op2, (flat.kernel_forms[0], flat.kernel_forms[1]), (duals[0], duals[1]))
        for op2 in ops2
    ]


# -- full three-variable constructions ------------------------------------------


def _assemble(arr: Arrangement, m: int, profiles: Sequence[FlatProfile]) -> FreeBasis:
    """Direct sum over the flats of the blocks P_X * D^(j)(pencil) * delta_X^(m-j),
    0 <= j <= max_order, with P_X the base cofactor; certified once."""
    one = Poly.constant(3, 1)
    operators: list[DiffOp] = []
    degrees: list[int] = []
    provenance: list[dict] = []
    for profile in profiles:
        flat = profile.flat
        cofactor = profile.base_off_flat_product
        lines, duals = _pencil_lines(arr, flat)
        forms = (flat.kernel_forms[0], flat.kernel_forms[1])
        plane_duals = (duals[0], duals[1])
        for j in range(profile.max_order + 1):
            delta_pow = power_of_derivation(flat.delta, m - j)
            for idx, op2 in enumerate(basis_2arr_lines(lines, j)):
                op = _convert_2var_op(op2, forms, plane_duals).compose_constant(delta_pow)
                if cofactor != one:
                    op = op.mul_poly(cofactor)
                op = op.normalized_primitive()
                deg = op.degree()
                if deg is None:
                    raise SolveFailed("constructed operator is not homogeneous")
                operators.append(op)
                degrees.append(deg)
                provenance.append({"flat_direction": list(flat.direction), "j": j, "gen_index": idx})
    return FreeBasis(tuple(operators), tuple(degrees), tuple(provenance), saito_check(operators, arr))


def basis_3arr(arr: Arrangement, m: int, ext: ExtendedArrangement | None = None) -> FreeBasis:
    """Free basis of the order-m module of an essential 3-arrangement, m >= n-2."""
    if arr.dim != 3:
        raise BadOrder("basis_3arr expects a 3-arrangement")
    if not arr.is_essential():
        raise NotEssential("basis_3arr needs an essential arrangement")
    if m < arr.n - 2:
        raise BadOrder(f"need m >= n - 2 = {arr.n - 2}, got m = {m}")
    if ext is None:
        ext = extend(arr, m)
    if ext.base != arr or ext.m != m:
        raise BadOrder("extension does not match the arrangement and order")

    profiles = flat_profiles(ext)
    if sum(s_dim(p.max_order, 3) for p in profiles) != s_dim(m, 3):
        raise IdentityViolated("flat capacities do not add up to the module rank")
    return _assemble(arr, m, profiles)


def _unit_form(col: int, value: Fraction | int = 1) -> LinearForm:
    return LinearForm.make(value if i == col else 0 for i in range(3))


def basis_nonessential(arr: Arrangement, m: int) -> FreeBasis:
    """Free basis for a 3-arrangement of rank <= 2 (a product with a trivial factor)."""
    if arr.dim != 3:
        raise BadOrder("basis_nonessential expects a 3-arrangement")
    rank, kernel = arr.rank_and_kernel()
    if rank == 3:
        raise NotEssential("arrangement is essential; use basis_3arr")

    if rank == 0:
        monomials = monomials_of_degree(3, m)
        operators = [partial_op(3, a) for a in monomials]
        provenance = tuple({"flat_direction": None, "j": 0, "gen_index": list(a)} for a in monomials)
        return FreeBasis(tuple(operators), (0,) * len(operators), provenance, saito_check(operators, arr))

    # The single flat is the kernel line.  Kernel forms: the primitive echelon
    # rows of the normals, padded with unit forms at every free column but the
    # last; the section is the unit form at the last free column, scaled so
    # that it takes the value 1 on the direction.
    red, pivots = rref([[Fraction(c) for c in h.normal] for h in arr.hyperplanes], 3)
    free_cols = [c for c in range(3) if c not in pivots]
    direction = kernel[-1]
    kernel_forms = [LinearForm.make(primitive_int_vector(r)) for r in red]
    kernel_forms += [_unit_form(c) for c in free_cols[:-1]]
    section = _unit_form(free_cols[-1], Fraction(1, direction[free_cols[-1]]))
    flat = Flat1(direction, tuple(range(arr.n)), section, tuple(kernel_forms))
    one = Poly.constant(3, 1)
    return _assemble(arr, m, [FlatProfile(flat, m, one, one, arr.n)])


def build_basis(arr: Arrangement, m: int, ext: ExtendedArrangement | None = None) -> FreeBasis:
    """Dispatch on dimension and essentiality."""
    if arr.dim == 2:
        ops = basis_2arr_lines([h.normal for h in arr.hyperplanes], m)
        cert = saito_check(ops, arr)
        return FreeBasis(
            tuple(ops),
            tuple(op.degree() for op in ops),
            tuple({"flat_direction": None, "j": m, "gen_index": i} for i in range(len(ops))),
            cert,
        )
    if not arr.is_essential():
        return basis_nonessential(arr, m)
    return basis_3arr(arr, m, ext)


# -- dual pair -------------------------------------------------------------------


def dual_pair(ext: ExtendedArrangement) -> DualPair:
    """Degree-m polynomial basis built from flat data, with its dual operators.

    Basis entries are off_flat_product * u * section^(i - j) for u running
    over the degree-j monomials in the flat's kernel coordinates; the dual
    operators are the scaled mixed powers of the dual derivations.  The
    pairing matrix is verified to be the identity.
    """
    base = ext.base
    if not base.is_essential():
        raise NotEssential("dual pair needs an essential base arrangement")
    m = ext.m
    polys: list[Poly] = []
    etas: list[DiffOp] = []
    labels: list[tuple] = []
    for profile in flat_profiles(ext):
        flat = profile.flat
        duals = flat.dual_derivations()
        y1 = flat.kernel_forms[0].to_poly()
        y2 = flat.kernel_forms[1].to_poly()
        sec = flat.section.to_poly()
        i_cap = profile.max_order
        for j in range(i_cap + 1):
            tail_poly = profile.off_flat_product * sec ** (i_cap - j)
            delta_pow = power_of_derivation(flat.delta, m - j)
            normalizer = delta_pow.apply(tail_poly).constant_value()
            if normalizer == 0:
                raise ZeroNormalizer(f"vanishing normalizer at flat {flat.direction}, j={j}")
            for u in monomials_of_degree(2, j):
                polys.append(tail_poly * y1 ** u[0] * y2 ** u[1])
                eta = (
                    power_of_derivation(duals[0], u[0])
                    .compose_constant(power_of_derivation(duals[1], u[1]))
                    .compose_constant(delta_pow)
                    .scale(Fraction(1, factorial(u[0]) * factorial(u[1])) / normalizer)
                )
                etas.append(eta)
                labels.append((flat.direction, j, u))

    pair = DualPair(tuple(polys), tuple(etas), tuple(labels))
    matrix = pair.pairing_matrix()
    size = len(polys)
    if size != s_dim(m, 3):
        raise IdentityViolated("dual pair has the wrong cardinality")
    for i in range(size):
        for k in range(size):
            if matrix[i][k] != (1 if i == k else 0):
                raise IdentityViolated(f"pairing matrix differs from identity at ({i}, {k})")
    return pair
