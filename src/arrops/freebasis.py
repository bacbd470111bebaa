"""Explicit free bases for modules of order-m arrangement operators.

The constructions follow the direct-sum decomposition over rank-2 flats of
an extended arrangement: each flat X with localization of k lines and order
capacity i contributes blocks P_X * D^(j)(pencil) * delta_X^(m-j) for
0 <= j <= i.  Pencil modules (2-variable arrangements) are free at every
order, and their blocks are closed forms, with no linear solve.  Write
theta_l = (product of the other lines) * d_v^j, a member, for a line l with
direction v (``_line_operator``):

* k = 0: the monomial derivatives themselves;
* order j <= k-1: the order-j Euler operator E_j plus theta_l for the first
  j lines in input order.  For B the first j+1 lines, the degree-j
  operators (Q_B/alpha_i) * d_(v_i)^j are a basis of B's order-j module, so
  E_j = sum_i c_i (Q_B/alpha_i) d_(v_i)^j; applied to Q_B/alpha_i this gives
  c_i = 1 / prod_(l in B, l != i) alpha_l(v_i) != 0.  Each theta_l is Q/Q_B
  times B's operator of l, so det = c_(j+1) (Q/Q_B)^j det(B's basis) =
  c * Q^j with c != 0: a basis by Saito's criterion;
* order j >= k: theta_l for the k lines and for j+1-k added lines (1, t),
  whose prefactor is the product of all k lines.

One assembly loop builds every 3-arrangement basis: an essential one flat
by flat over its extension, a rank 1 or 2 one from its single flat (the
common kernel line through ``flat_from_direction``, so the same pivot frame
as every essential flat; order cap m, cofactor 1); rank 0 is the monomial
derivatives.  The loop runs on integers: each pencil block is rewritten in
the flat's integer coordinate frame (``Flat1.integer_frame``), which
scales every operator by a nonzero constant, and ``normalized_primitive``
removes it, so the result is that of the rational frame.  A basis is
certified where it is returned, by Saito's criterion
(``verify.saito_check``: every operator is a member at every hyperplane,
then one integer determinant at one point); the blocks of
``basis_2arr_lines`` are not certified on their own.  ``dual_pair`` reads a
basis of the degree-m polynomials off the same flats and pairs it with its
dual basis under the apolar pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .arrangement import Arrangement, Hyperplane
from .diffop import (
    DiffOp,
    euler_op,
    partial_op,
    power_of_derivation,
)
from .errors import (
    BadOrder,
    IdentityViolated,
    NotEssential,
    SaitoFailed,
    SolveFailed,
)
from .extension import ExtendedArrangement, FlatProfile, extend
from .flats import Flat1, flat_from_direction
from .linalg import echelon_int
from .polynomial import (
    Poly,
    form_product,
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
    return primitive_int_vector((-line[1], line[0]))


def _line_operator(lines: Sequence[tuple[int, int]], line: tuple[int, int], j: int) -> DiffOp:
    """(product of the other lines) * d_v^j, v the direction of ``line``."""
    pref = form_product((other for other in lines if other != line), 2)
    return power_of_derivation(_line_direction(line), j).mul_poly(pref).normalized_primitive()


def basis_2arr_lines(lines: Sequence[tuple[int, int]], j: int) -> list[DiffOp]:
    """Free basis of the order-j module of a 2-variable line arrangement.

    Closed forms for every k >= 0 and j >= 0 (module docstring); degrees
    follow the two-variable exponent formula.  The result is not certified;
    callers that return a basis certify it.
    """
    lines = [tuple(int(c) for c in line) for line in lines]
    if len(set(lines)) != len(lines):
        raise SolveFailed("line arrangement has repeated lines")
    k = len(lines)
    if k == 0:
        return [partial_op(2, a) for a in monomials_of_degree(2, j)]
    if j < k:
        return [euler_op(j, 2)] + [_line_operator(lines, line, j) for line in lines[:j]]
    generic = [(1, t) for t in range(j + 1) if (1, t) not in lines][: j + 1 - k]
    return [_line_operator(lines, line, j) for line in lines + generic]


def basis_2arr(arr2: Arrangement, j: int) -> list[DiffOp]:
    """Certified free basis of D^(j) for a 2-arrangement (j + 1 operators)."""
    if arr2.dim != 2:
        raise BadOrder("basis_2arr expects a 2-arrangement")
    ops = basis_2arr_lines([h.normal for h in arr2.hyperplanes], j)
    saito_check(ops, arr2)
    return ops


# -- pencil conversion into the ambient three-variable ring --------------------


def _convert_2var_op(op2: DiffOp, forms: list[tuple[int, ...]], duals: list[tuple[int, ...]]) -> DiffOp:
    """Rewrite a 2-variable operator in ambient coordinates, over the integers.

    Coefficients are composed with the coordinate forms; the two partial
    derivatives become the derivations ``duals``, which commute, so powers
    expand multinomially.  A flat's ``integer_frame`` scales the exact forms
    by D and their duals by det M' / D, so a term of order j with degree-e
    coefficients is scaled by D^e * (det M' / D)^j: one constant for each
    (homogeneous) operator of ``basis_2arr_lines``, which
    ``normalized_primitive`` removes.
    """
    nvars = len(forms[0])
    images = [form_product([f], nvars) for f in forms]
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


def _pencil_lines(
    arr: Arrangement, flat: Flat1
) -> tuple[list[tuple[int, int]], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Localized forms of ``arr`` through the flat in the flat's kernel
    coordinates, and those coordinates' integer forms and duals."""
    forms, duals, _ = flat.integer_frame()
    lines = []
    for i in arr.localization_indices(flat.direction):
        cy = [sum(c * v for c, v in zip(arr.hyperplanes[i].normal, w)) for w in duals]
        if cy[-1]:
            raise IdentityViolated("localized form does not lie in the flat's kernel coordinates")
        lines.append(primitive_int_vector(cy[:2]))
    return lines, forms[:2], duals[:2]


def pencil_basis(arr: Arrangement, flat: Flat1, j: int) -> list[DiffOp]:
    """Free basis of the order-j module of the localization at a flat,
    expressed as ambient operators (``normalized_primitive``)."""
    lines, forms, duals = _pencil_lines(arr, flat)
    ops2 = basis_2arr(Arrangement(2, [Hyperplane.make(line) for line in lines]), j)
    return [_convert_2var_op(op2, forms, duals).normalized_primitive() for op2 in ops2]


# -- full three-variable constructions ------------------------------------------


def _assemble(arr: Arrangement, m: int, profiles: Sequence[FlatProfile]) -> FreeBasis:
    """Direct sum over the flats of the blocks P_X * D^(j)(pencil) * delta_X^(m-j),
    0 <= j <= max_order, with P_X the base cofactor; certified once."""
    operators: list[DiffOp] = []
    degrees: list[int] = []
    provenance: list[dict] = []
    for profile in profiles:
        flat = profile.flat
        cofactor = profile.base_off_flat_product if profile.base_off_flat else None
        lines, forms, duals = _pencil_lines(arr, flat)
        for j in range(profile.max_order + 1):
            delta_pow = power_of_derivation(flat.direction, m - j)
            for idx, op2 in enumerate(basis_2arr_lines(lines, j)):
                op = _convert_2var_op(op2, forms, duals).compose_constant(delta_pow)
                if cofactor is not None:
                    op = op.mul_poly(cofactor)
                op = op.normalized_primitive()
                operators.append(op)
                degrees.append(op.degree())
                provenance.append({"flat_direction": list(flat.direction), "j": j, "gen_index": idx})
    return _certified(arr, operators, degrees, provenance)


def _certified(arr: Arrangement, operators: list[DiffOp], degrees: list, provenance: list[dict]) -> FreeBasis:
    """The basis with its certificate; a ``SaitoFailed`` that names an
    operator is re-raised with that operator's flat, j and generator index."""
    try:
        cert = saito_check(operators, arr)
    except SaitoFailed as exc:
        if exc.index is None:
            raise
        p = provenance[exc.index]
        where = f"flat {p['flat_direction']}, j = {p['j']}, generator {p['gen_index']}"
        raise type(exc)(f"{exc} ({where})", exc.index) from exc
    return FreeBasis(tuple(operators), tuple(degrees), tuple(provenance), cert)


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
    if sum(s_dim(p.max_order, 3) for p in ext.profiles) != s_dim(m, 3):
        raise IdentityViolated("flat capacities do not add up to the module rank")
    return _assemble(arr, m, ext.profiles)


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
        provenance = [{"flat_direction": None, "j": 0, "gen_index": list(a)} for a in monomials]
        return _certified(arr, operators, [0] * len(operators), provenance)

    flat = flat_from_direction(arr, kernel[-1])
    return _assemble(arr, m, [FlatProfile(flat, m, (), (), arr.n)])


def build_basis(arr: Arrangement, m: int, ext: ExtendedArrangement | None = None) -> FreeBasis:
    """Dispatch on dimension and essentiality."""
    if arr.dim == 2:
        ops = basis_2arr_lines([h.normal for h in arr.hyperplanes], m)
        provenance = [{"flat_direction": None, "j": m, "gen_index": i} for i in range(len(ops))]
        return _certified(arr, ops, [op.degree() for op in ops], provenance)
    if not arr.is_essential():
        return basis_nonessential(arr, m)
    return basis_3arr(arr, m, ext)


# -- dual pair -------------------------------------------------------------------


def dual_pair(ext: ExtendedArrangement) -> DualPair:
    """Degree-m polynomial basis built from flat data, with its dual operators.

    Basis entries are off_flat_product * u * section^(i - j) for u running
    over the degree-j monomials in the flat's kernel coordinates.  The dual
    operators are the dual basis under the apolar pairing <d^a, x^b> =
    a! delta_ab: with B the basis' coefficient matrix over the degree-m
    monomials, operator i is sum_a ((B^T)^-1)_(i,a) / a! * d^a.  The inverse
    comes from one reduced integer echelon form of [B^T | I]; dependent
    polynomials raise ``IdentityViolated``, and so does a pairing matrix
    that is not the identity.
    """
    if not ext.base.is_essential():
        raise NotEssential("dual pair needs an essential base arrangement")
    m = ext.m
    polys: list[Poly] = []
    labels: list[tuple] = []
    for profile in ext.profiles:
        flat = profile.flat
        y1, y2 = (f.to_poly() for f in flat.kernel_forms)
        sec = flat.section.to_poly()
        for j in range(profile.max_order + 1):
            tail_poly = profile.off_flat_product * sec ** (profile.max_order - j)
            for u in monomials_of_degree(2, j):
                polys.append(tail_poly * y1 ** u[0] * y2 ** u[1])
                labels.append((flat.direction, j, u))

    size = len(polys)
    if size != s_dim(m, 3):
        raise IdentityViolated("dual pair has the wrong cardinality")
    monomials = monomials_of_degree(3, m)
    rows = []
    for k, a in enumerate(monomials):
        coeffs = [Fraction(b.terms.get(a, 0)) for b in polys]
        den = lcm(*(c.denominator for c in coeffs))
        rows.append([int(c * den) for c in coeffs] + [den * (i == k) for i in range(size)])
    red, pivots = echelon_int(rows, reduce=True)
    if pivots[:size] != list(range(size)):
        raise IdentityViolated("dual pair polynomials are linearly dependent")
    etas = []
    for i, row in enumerate(red):  # row i is d * [e_i | row i of (B^T)^-1], d = row[i]
        terms = zip(monomials, row[size:])
        etas.append(DiffOp(3, m, {a: Poly.constant(3, Fraction(c, row[i] * midx_factorial(a))) for a, c in terms}))

    pair = DualPair(tuple(polys), tuple(etas), tuple(labels))
    matrix = pair.pairing_matrix()
    for i in range(size):
        for k in range(size):
            if matrix[i][k] != (1 if i == k else 0):
                raise IdentityViolated(f"pairing matrix differs from identity at ({i}, {k})")
    return pair
