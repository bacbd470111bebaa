"""Explicit free bases for modules of order-m arrangement operators.

The constructions follow the direct-sum decomposition over rank-2 flats of
an extended arrangement: each flat X with localization of k lines and order
capacity i contributes blocks P_X * D^(j)(pencil) * delta_X^(m-j) for
0 <= j <= i.  Pencil modules (2-variable arrangements) are free at every
order, and their blocks are closed forms, with no linear solve.  Write
theta_l = (product of the other lines) * d_v^j, a member, for a line l with
direction v:

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

Each operator is a sum of products of linear forms and constant
derivations (E_j has j+1 terms, the others one), so a block is one term
list per operator (``_pencil_terms``).  One assembly loop builds every
basis flat by flat: an essential 3-arrangement over the flats of its
extension, one of rank <= 2 from its single flat (the last common kernel
vector, through every plane, (0, 0, 1) at rank 0; order cap m,
cofactor 1), and a 2-arrangement as one block in the identity frame
(``basis_2arr_lines`` returns that block uncertified).  The terms are
written in the flat's integer frame (``Flat1.integer_frame``: its first
two forms for the kernel coordinates, their adjugate columns for d_y1,
d_y2), take m-j copies of delta_X as further factors and P_X's normals
as the cofactor, and ``diffop.product_op`` multiplies the terms out once.
The frame scales an operator by a nonzero constant that its core's one
``normalized_primitive`` removes.  Every basis reaches the certificate
(``verify.saito_check``: every operator is a member at every hyperplane,
then one integer determinant at one point) as factor lists
(``diffop.FactoredOp``), which reads only the cores and P_X's normals;
``FreeBasis`` multiplies the operators out on first read.  ``dual_pair``
builds a basis of the degree-m polynomials from the same flats' integer
frames and pairs it with its dual basis under the apolar pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Sequence

from .arrangement import Arrangement
from .diffop import DiffOp, FactoredOp, Term
from .errors import (
    BadOrder,
    IdentityViolated,
    NotEssential,
    SaitoFailed,
    SolveFailed,
)
from .extension import ExtendedArrangement, FlatProfile, extend
from .flats import Flat1
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
    """Ordered free basis with degrees, provenance tags and a determinant
    certificate; ``operators`` multiplies out ``factored`` on first read."""

    factored: tuple[FactoredOp, ...]
    degrees: tuple[int, ...]
    provenance: tuple[dict, ...]
    saito: SaitoCertificate

    @cached_property
    def operators(self) -> tuple[DiffOp, ...]:
        return tuple(op.op for op in self.factored)

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
        """Entries eta_i(b_k): for a constant-coefficient order-m operator on a
        degree-m polynomial, the apolar dot product sum_a eta_a * a! * b_a."""
        weighted = [
            [(a, f.constant_value() * midx_factorial(a)) for a, f in eta.coeffs.items()] for eta in self.dual_operators
        ]
        return [[sum(w * b.terms.get(a, 0) for a, w in eta) for b in self.basis_polys] for eta in weighted]


# -- pencil blocks ---------------------------------------------------------------

Line = tuple[int, ...]
Frame = Sequence[Line]
IDENTITY: Frame = ((1, 0), (0, 1))


def _in_frame(pair: Line, vectors: Frame) -> Line:
    """pair[0] * vectors[0] + pair[1] * vectors[1]."""
    return tuple(pair[0] * u + pair[1] * v for u, v in zip(*vectors))


def _pencil_terms(lines: Sequence[Line], j: int, forms: Frame, derivs: Frame) -> list[list[Term]]:
    """The order-j block of the pencil of ``lines`` (primitive, distinct), one
    ``product_op`` term list per operator, in the frame of integer forms
    f0, f1 and constant derivations D0, D1: the line (a, b) is the form
    a*f0 + b*f1, its direction (v0, v1) is v0*D0 + v1*D1, d^a is D0^a0 D1^a1."""

    def power(vectors: Frame, a: tuple[int, ...]) -> list[Line]:
        return [v for v, e in zip(vectors, a) for _ in range(e)]

    def line_op(line: Line) -> list[Term]:
        others = [_in_frame(other, forms) for other in lines if other != line]
        return [(1, others, [_in_frame((-line[1], line[0]), derivs)] * j)]

    k = len(lines)
    if k == 0:
        return [[(1, (), power(derivs, a))] for a in monomials_of_degree(2, j)]
    if j < k:
        euler = [(factorial(j) // midx_factorial(a), power(forms, a), power(derivs, a)) for a in monomials_of_degree(2, j)]
        return [euler] + [line_op(line) for line in lines[:j]]
    generic = [(1, t) for t in range(j + 1) if (1, t) not in lines][: j + 1 - k]
    return [line_op(line) for line in [*lines, *generic]]


def basis_2arr_lines(lines: Sequence[Sequence[int | Fraction]], j: int) -> list[DiffOp]:
    """Free basis of the order-j module of a 2-variable line arrangement,
    normalized, not certified; degrees follow the two-variable exponent
    formula.  Lines are made primitive, so proportional lines are repeated."""
    lines = [primitive_int_vector(line) for line in lines]
    if len(set(lines)) != len(lines):
        raise SolveFailed("line arrangement has repeated lines")
    return [FactoredOp(2, j, (), terms).op for terms in _pencil_terms(lines, j, IDENTITY, IDENTITY)]


def _pencil_lines(arr: Arrangement, flat: Flat1) -> tuple[list[Line], Frame, Frame]:
    """The planes of ``arr`` through the flat (``flat.local_indices`` below
    ``arr.n``: ``arr``'s planes come first in an extension) as lines in the
    flat's kernel coordinates, with the frame of those coordinates: the
    first two integer forms of ``Flat1.integer_frame`` and their adjugate
    columns."""
    forms, duals, _ = flat.integer_frame()
    lines = []
    for i in flat.local_indices:
        if i >= arr.n:
            break
        cy = [sum(c * v for c, v in zip(arr.hyperplanes[i].normal, w)) for w in duals]
        if cy[-1]:
            raise IdentityViolated("localized form does not lie in the flat's kernel coordinates")
        lines.append(primitive_int_vector(cy[:2]))
    return lines, forms[:2], duals[:2]


# -- full three-variable constructions ------------------------------------------


def _factored_blocks(arr: Arrangement, m: int, profiles: Sequence[FlatProfile]) -> tuple[list[FactoredOp], list[dict]]:
    """Direct sum over the flats of the blocks P_X * D^(j)(pencil) * delta_X^(m-j),
    0 <= j <= max_order, with P_X the base cofactor: each operator as its
    factor lists, P_X's normals and the pencil terms with m-j copies of
    delta_X, with its provenance."""
    operators: list[FactoredOp] = []
    provenance: list[dict] = []
    for profile in profiles:
        flat = profile.flat
        cofactor = [h.normal for h in profile.base_off_flat]
        lines, forms, derivs = _pencil_lines(arr, flat)
        for j in range(profile.max_order + 1):
            delta = [flat.direction] * (m - j)
            for idx, terms in enumerate(_pencil_terms(lines, j, forms, derivs)):
                operators.append(FactoredOp(arr.dim, m, cofactor, [(c, fs, [*ds, *delta]) for c, fs, ds in terms]))
                provenance.append({"flat_direction": list(flat.direction), "j": j, "gen_index": idx})
    return operators, provenance


def _certified(arr: Arrangement, operators: Sequence[FactoredOp], provenance: list[dict]) -> FreeBasis:
    """The basis with its certificate, certified once in factored form; a
    ``SaitoFailed`` that names an operator is re-raised with that operator's
    flat, j and generator index."""
    try:
        cert = saito_check(operators, arr)
    except SaitoFailed as exc:
        if exc.index is None:
            raise
        p = provenance[exc.index]
        where = f"flat {p['flat_direction']}, j = {p['j']}, generator {p['gen_index']}"
        raise type(exc)(f"{exc} ({where})", exc.index) from exc
    return FreeBasis(tuple(operators), tuple(op.degree() for op in operators), tuple(provenance), cert)


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
    return _certified(arr, *_factored_blocks(arr, m, ext.profiles))


def basis_nonessential(arr: Arrangement, m: int) -> FreeBasis:
    """Free basis for a 3-arrangement of rank <= 2 (a product with a trivial
    factor): the blocks of its one flat, the last common kernel vector, at
    order cap m with cofactor 1; at rank 0, (0, 0, 1) and d3^m first."""
    if arr.dim != 3:
        raise BadOrder("basis_nonessential expects a 3-arrangement")
    rank, kernel = arr.rank_and_kernel()
    if rank == 3:
        raise NotEssential("arrangement is essential; use basis_3arr")
    flat = Flat1(kernel[-1], tuple(range(arr.n)))  # every plane holds the kernel
    return _certified(arr, *_factored_blocks(arr, m, [FlatProfile(flat, m, (), (), arr.n)]))


def build_basis(arr: Arrangement, m: int, ext: ExtendedArrangement | None = None) -> FreeBasis:
    """Dispatch on dimension and essentiality; a 2-arrangement's normals are
    primitive and distinct lines of one block in the identity frame."""
    if arr.dim == 2:
        blocks = _pencil_terms([h.normal for h in arr.hyperplanes], m, IDENTITY, IDENTITY)
        ops = [FactoredOp(2, m, (), terms) for terms in blocks]
        provenance = [{"flat_direction": None, "j": m, "gen_index": i} for i in range(len(ops))]
        return _certified(arr, ops, provenance)
    if not arr.is_essential():
        return basis_nonessential(arr, m)
    return basis_3arr(arr, m, ext)


# -- dual pair -------------------------------------------------------------------


def dual_pair(ext: ExtendedArrangement) -> DualPair:
    """Degree-m polynomial basis built from flat data, with its dual operators.

    Basis entries are P * u * y^(i - j): P the product of the extended
    planes off the flat, i its order cap, y its section and u a degree-j
    monomial in its kernel coordinates y1, y2.  ``Flat1.integer_rows``
    gives the rows v_p * (y1, y2, y) and v_p > 0, the direction's first
    nonzero entry, so an entry is one ``form_product`` / v_p^i.  The dual
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
        flat, cap = profile.flat, profile.max_order
        (u0, u1, section), vp = flat.integer_rows()
        scale = Fraction(1, vp**cap)
        off = [h.normal for h in profile.off_flat]
        for j in range(cap + 1):
            tail = [*off, *[section] * (cap - j)]
            for u in monomials_of_degree(2, j):
                polys.append(form_product([*tail, *[u0] * u[0], *[u1] * u[1]], 3) * scale)
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
