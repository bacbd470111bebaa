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
(``basis_2arr_lines`` decodes that certified basis from raw lines).  The
terms are written in the flat's integer frame (``Flat1.integer_frame``:
its first two forms for the kernel coordinates, their adjugate columns
for d_y1, d_y2), take m-j copies of delta_X as further factors and P_X's
normals as the cofactor, and ``diffop.FactoredOp`` multiplies the terms
out once.  A one-term operator (every theta_l, and E_0) adds its forms,
the other lines of the pencil, to P_X's normals, so its cofactor holds
every linear factor and its core is c * d_v^j * delta_X^(m-j), a
constant; only E_j for j >= 1 keeps forms in its core.  The frame scales
an operator by a nonzero constant that its core's one normalization
removes.  Every basis the library returns
reaches the certificate (``verify.saito_check``: every operator is a
member at every hyperplane, then one integer determinant at one point)
as factor lists (``diffop.FactoredOp``), which reads only the packed
cores and the cofactor forms.  ``FreeBasis.to_json`` multiplies each core by
P_X on packed keys and prints those keys (``FactoredOp.to_json``), which
is what ``basis`` prints; ``FreeBasis.operators`` decodes the operators to
tuple-keyed ``DiffOp``s on first read, for tests and demos.  ``dual_pair``
builds a basis of the degree-m polynomials as packed products of the same
flats' integer rows, inverts it and checks the inverse on integers, and
decodes the basis and its apolar dual basis once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import NamedTuple, Sequence

from .arrangement import Arrangement, Hyperplane
from .diffop import DiffOp, FactoredOp, Term
from .errors import BadOrder, IdentityViolated, NotEssential, SaitoFailed
from .extension import ExtendedArrangement, FlatProfile, extend
from .flats import Flat1
from .linalg import echelon_int
from .polynomial import (
    Poly,
    midx_factorial,
    monomials_of_degree,
    packed_index,
    packed_product,
    primitive_int_vector,
    s_dim,
)
from .verify import SaitoCertificate, saito_check


class FreeBasis:
    """Ordered free basis with degrees, provenance tags and a determinant
    certificate; ``to_json`` prints ``factored`` from packed keys, and
    ``operators`` decodes it to ``DiffOp``s on first read."""

    def __init__(self, factored: tuple[FactoredOp, ...], provenance: tuple[dict, ...], saito: SaitoCertificate):
        self.factored = factored
        self.provenance = provenance
        self.saito = saito

    @cached_property
    def operators(self) -> tuple[DiffOp, ...]:
        return tuple(op.op for op in self.factored)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(op.degree() for op in self.factored)

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
            for op, d, p in zip(self.factored, self.degrees, self.provenance)
        ]


class DualPair(NamedTuple):
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
    ``FactoredOp`` term list per operator, in the frame of integer forms
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
    """The certified free basis of the order-j module of a 2-variable line
    arrangement (``build_basis``), decoded.  Lines are made primitive, so
    proportional lines are repeated and raise ``DuplicateHyperplane``."""
    return list(build_basis(Arrangement(2, map(Hyperplane.make, lines)), j).operators)


def _pencil_lines(arr: Arrangement, flat: Flat1) -> tuple[list[Line], Frame, Frame]:
    """The planes of ``arr`` through the flat (``flat.local_indices`` below
    ``arr.n``: ``arr``'s planes come first in an extension) as lines in the
    flat's kernel coordinates, with the frame of those coordinates: the
    first two integer forms of ``Flat1.integer_frame`` and their adjugate
    columns."""
    forms, duals = flat.integer_frame()
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
    return FreeBasis(tuple(operators), tuple(provenance), cert)


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
    rank, kernel, _ = arr.lattice
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
    gives the rows v_p * (y1, y2, y) and v_p > 0, so basis entry number i
    is one ``packed_product`` of integer forms, column C_i of an integer
    matrix C over the degree-m monomials, over its flat's scale s_i, v_p to
    the flat's order cap.  The dual operators are the dual basis under the
    apolar pairing <d^a, x^b> = a! delta_ab.  One reduced integer echelon
    form of [C | I] gives row k as r_k * [e_k | R_k], R_k row k of C^-1
    and r_k > 0, so operator k is
    sum_a s_k R_(k,a) / (r_k a!) * d^a and pairs with polynomial i to
    s_k / (r_k s_i) * (R_k . C_i): ``pairing_matrix()`` is the identity
    exactly when R_k . C_i = r_k * delta_ki for all k, i, which is checked
    on the integers before the pair is decoded.  A count other than
    s_dim(m, 3), dependent polynomials or a failed check raise
    ``IdentityViolated``.
    """
    if not ext.base.is_essential():
        raise NotEssential("dual pair needs an essential base arrangement")
    m = ext.m
    index = packed_index(3, m, m + 1)
    columns, scales, labels = [], [], []
    for profile in ext.profiles:
        flat, cap = profile.flat, profile.max_order
        (u0, u1, section), vp = flat.integer_rows()
        off = [h.normal for h in profile.off_flat]
        for j in range(cap + 1):
            for u in monomials_of_degree(2, j):
                product = packed_product([*off, *[section] * (cap - j), *[u0] * u[0], *[u1] * u[1]], m + 1)
                columns.append({index[key]: c for key, c in product.items() if c})
                scales.append(vp**cap)
                labels.append((flat.direction, j, u))

    size = len(columns)
    if size != s_dim(m, 3):
        raise IdentityViolated(f"dual pair has the wrong cardinality: {size} polynomials, expected {s_dim(m, 3)}")
    rows = [[col.get(a, 0) for col in columns] + [int(i == a) for i in range(size)] for a in range(size)]
    red, pivots = echelon_int(rows)
    if pivots[:size] != list(range(size)):
        raise IdentityViolated("dual pair polynomials are linearly dependent")
    for k, row in enumerate(red):  # row k is r_k * [e_k | R_k], r_k = row[k]
        for i, col in enumerate(columns):
            if sum(row[size + a] * c for a, c in col.items()) != row[k] * (i == k):
                raise IdentityViolated(f"pairing matrix differs from identity at ({k}, {i}), labels {labels[k]} and {labels[i]}")
    monomials = monomials_of_degree(3, m)
    polys = [Poly(3, {monomials[a]: Fraction(c, s) for a, c in col.items()}) for col, s in zip(columns, scales)]
    etas = [DiffOp(3, m, {a: Poly.constant(3, Fraction(s * c, r[k] * midx_factorial(a))) for a, c in zip(monomials, r[size:])})
            for k, (r, s) in enumerate(zip(red, scales))]
    return DualPair(tuple(polys), tuple(etas), tuple(labels))
