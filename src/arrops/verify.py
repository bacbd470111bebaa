"""Independent verification: membership, determinant certificates, dimension oracle.

One definition of membership serves the certificate and the oracle: an
order-m operator theta = sum_a f_a d^a is a member when, for every hyperplane H and
monomial x^b of degree m-1, theta(alpha_H * x^b) is in alpha_H * S, i.e. when

    sum_i  c_i (b + e_i)!  f_{b+e_i}        (c = normal of H)

vanishes on H (``_contraction_rows``).

Both read one sample per call (``_Planes``) and its one checked record per
degree (``_Degree``).  A degree-d form vanishes on H exactly when it
vanishes at s_dim(d, l-1) distinct projective points of H (d + 1 on a plane,
one on a line); the record checks once, for both, that every plane holds
that many.  Each hyperplane, in input order, first takes the rank-2 flats on
it, which are points of every plane through them (one taken by an earlier
plane counts), then fills up with points s*u + t*v of its own for the
coprime pairs (s, t) of smallest height, skipping the flats.  The membership
test evaluates the monomials at the points once per degree.

The certificate (``saito_check``) tests every candidate operator with the
sample's membership test (``_Planes.violation``), then takes one integer
determinant of the rows at one point off every plane.  An operator given
by its factor lists (``diffop.FactoredOp``, theta = P * theta', as basis
assembly builds them) is tested through its low-degree core theta', at the
planes whose normal is not a factor of P, and its determinant row is the
core's: theta is never multiplied out.  A one-term operator's linear forms
are all in P, so its core is a constant, tested at degree 0 and only at
the planes P misses (one for a pencil line's operator), and its row is its
constants.  A row, in the packed layout that only ``polynomial`` computes,
is a ``FactoredOp``'s core in the operator's one radix
(``FactoredOp.packed``), or a plain ``DiffOp`` packed once on entry, and
it is read once: one dense list over ``polynomial.packed_index``
(``_dense``), which the membership test evaluates at the sample's points
(through the sample's table of monomial values by point) and the
determinant at its point.  The oracle computes the exact dimension of the
degree-d slice of the module: the same conditions make it an integer
linear system in the coefficient unknowns.  Its fast path also quotients
out the value patterns that polynomials realize, which shrinks
the elimination to matrices indexed by points and multi-indices (the tests
keep the literal coefficient-space system as a cross-check).  The
coefficient vector's value at a point p must lie in K_p, the kernel of the
stacked contraction rows of every plane through p: K_H at a point of H
alone, spanned by the products of m derivations along H, and the line of
delta_X^m at a flat X of two or more planes.  Both are built in closed
form from powers of each form, with no primitive pass, and checked against
the rows, not eliminated (proofs in ``_oracle``); each is built and checked
on first read and kept on the sample (``_Planes.kernel``), so only the
kernels that enter a rank are built, and dim K_p is taken from the proof,
not from a built kernel.  Evaluation at the points has kernel Q * S_(d-n)
(``_Degree``), so the free part is unchanged.  The dimension is

    free part + sum_p dim K_p - rank(rows),

where the rows are the Kronecker products (weights at p of the functionals
eta that vanish on realized value patterns) (x) (a vector of K_p), grouped
by kernel; a group's weight block of two or more points is first reduced
to an echelon basis, which spans the same rows with fewer of them, and a
group whose weights are all zero adds no row.  A flat point carries one
unknown instead of m + 1.  The etas number the points minus the
evaluation rank; where that count is 0 (on a generic arrangement at large
d) no eta is computed and no rank is taken.  Otherwise they are built in
closed form, plane by plane in input order (in dimension 2 in one step),
from Lagrange weights (``_oracle_at``): no table of monomial values and no
elimination.  The oracle's eliminations are integer only
(``linalg.echelon_int``): the hyperplane bases are integer, from the
flats' pivot rule, and the dimension comes from one integer rank.
``oracle_dims`` answers every degree up to d_max in one call and builds
each kernel and the sample's flats at most once per sample; nothing is
cached across calls but the contraction table per (l, m)
(``_contraction_table``) and what a sample handed from call to call holds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import count, islice, repeat
from math import comb, gcd, lcm, prod
from operator import add, floordiv, getitem, mul, neg
from typing import Callable, Iterator, NamedTuple, Sequence

from .arrangement import Arrangement
from .diffop import DiffOp, FactoredOp
from .errors import (
    DimensionMismatch,
    IdentityViolated,
    NotEssential,
    NotMember,
    NotPurePower,
    ZeroDet,
)
from .extension import ExtendedArrangement
from .flats import pivot_rows
from .linalg import det_int, echelon_int, rank_int
from .polynomial import (
    MultiIndex,
    Poly,
    form_product,
    midx_factorial,
    monomials_of_degree,
    pack,
    packed_index,
    packed_powers,
    primitive_int_vector,
    rational_content,
    rational_text,
    s_dim,
)


# -- the shared sample ----------------------------------------------------------


class _Planes:
    """One call's sample of the arrangement and its membership test.

    Per plane: its contraction rows (``_contraction_rows``, order m) and an
    integer basis of its directions, which spans its fill-up points and its
    contraction kernel: the flats' pivot rule on its normal, each row made
    primitive, which is ``nullspace_int([normal], l)`` (tested).  Per flat
    (``arr.lattice.flats``): its direction and the planes through it, input
    order.  In dimension 2 each line is its own flat, on that line alone.  Per
    degree, built on first read and kept here only: the checked record of
    the points (``points``, a ``_Degree``), which both readers read, and the
    values of the monomials at each point (``table``), which only the
    membership test reads.  Per tuple of planes through a point, built on
    first read and kept: the oracle's contraction kernel (``kernel``).
    """

    def __init__(self, arr: Arrangement, m: int):
        self.arr, self.l, self.m = arr, arr.dim, m
        self.normals = [h.normal for h in arr]
        self.contraction = [_contraction_rows(v, m) for v in self.normals]
        self.basis = [[primitive_int_vector(row) for row in pivot_rows(v)[0]] for v in self.normals]
        self.flats = arr.lattice.flats
        self.on_plane: list[list[int]] = [[] for _ in self.normals]
        for f, (_, planes) in enumerate(self.flats):
            for i in planes:
                self.on_plane[i].append(f)
        # each plane's points on no other plane, drawn as the degrees need them
        self.own: list[list[tuple[int, ...]]] = [[] for _ in self.normals]
        self.fill = [self._fill(i) for i in range(len(self.normals))]
        self.degrees: dict[int, _Degree] = {}
        self.tables: dict[int, tuple[list[list[int]], list[list[int]]]] = {}
        self.kernels: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def points(self, d: int) -> _Degree:
        """The checked record (``_Degree``) of distinct projective points, at
        least s_dim(d, l-1) of them on every plane, in groups (points, the
        planes through each of them).

        Each plane H, in input order, counts the flat points already taken
        on it, takes its own flats (``arr.lattice.flats`` order) until it
        has s_dim(d, l-1), then fills up with its points on no other plane
        (``_fill``).  A flat point is a group of its own; the fill-up points
        of H lie on H alone and form one group.  Drawn and checked once per
        degree and kept, for the oracle and for ``table``.
        """
        if d in self.degrees:
            return self.degrees[d]
        need = s_dim(d, self.l - 1)
        have = [0] * len(self.normals)
        taken = [False] * len(self.flats)
        groups = []
        for i, (on, own) in enumerate(zip(self.on_plane, self.own)):
            for f in on:
                if have[i] >= need:
                    break
                if not taken[f]:
                    taken[f] = True
                    direction, planes = self.flats[f]
                    groups.append(([direction], planes))
                    for j in planes:
                        have[j] += 1
            missing = need - have[i]
            if missing > 0:
                if len(own) < missing:
                    own += islice(self.fill[i], missing - len(own))
                groups.append((own[:missing], (i,)))
        self.degrees[d] = record = _Degree(self.arr, d, groups)
        return record

    def table(self, d: int) -> tuple[list[list[int]], list[list[int]]]:
        """The values of the degree-d monomials, in ``monomials_of_degree``
        order, at each point of ``points(d)`` in group order, and the indices
        of each plane's points: the zeros of its form in the record."""
        if d not in self.tables:
            record, monomials = self.points(d), monomials_of_degree(self.l, d)
            on = [[k for k, x in enumerate(at) if not x] for at in record.values]
            self.tables[d] = [[_int_pow(p, c) for c in monomials] for p in record.points], on
        return self.tables[d]

    def violation(self, dense: list[list[int] | None], d: int, skip: frozenset[int] = frozenset()) -> tuple[int, MultiIndex] | None:
        """The first (plane index, b), not in ``skip``, whose condition the
        operator with degree-d coefficients ``dense`` (a ``_dense`` row, in
        ``monomials_of_degree`` order) breaks; it is evaluated once per point
        of a tested plane and checked against every tested plane through
        that point."""
        if not self.m:
            return None  # order 0: no conditions
        values, on = self.table(d)
        at: dict[int, list] = {}
        for j, (slots, points) in enumerate(zip(self.contraction, on)):
            if j in skip:
                continue
            for k in points:
                if k not in at:
                    at[k] = _evaluate(dense, values[k])
                b = _broken(slots, at[k])
                if b is not None:
                    return j, monomials_of_degree(self.l, self.m - 1)[b]
        return None

    def kernel(self, planes: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The oracle's contraction kernel at a point through ``planes``, in
        closed form (proofs in ``_oracle``): K_H at (i,), K_X at the planes
        of a flat of two or more.  Built on first read and kept, and each of
        its vectors is checked against the contraction rows of every plane
        it serves before it is returned.

        Constant derivations multiply like the linear forms with the same
        vectors, so the powers w^0..w^m of each basis vector w of a plane are
        built once per key (``packed_powers``, radix m + 1).  Each K_H vector
        is the product of two of them (l = 3) or one (l = 2), written straight
        into its ``monomials_of_degree`` slots; K_X is the m-th power of the
        flat's direction.  There is no primitive pass, which rests on exactly
        this form of the factors: the plane basis vectors (``basis``) and the
        directions (``Flat1``) are primitive with first nonzero entry
        positive, a product of primitive forms is primitive (Gauss's lemma),
        and its first nonzero entry in ``monomials_of_degree`` order (grlex
        descending) is its leading coefficient, the factors' ones multiplied.
        """
        if planes in self.kernels:
            return self.kernels[planes]
        l, m, hyperplanes = self.l, self.m, self.arr.hyperplanes
        slot = packed_index(l, m, m + 1)
        one = {0: 1}

        def vector(first: dict[int, int], second: dict[int, int] = one) -> tuple[int, ...]:
            vec = [0] * len(slot)
            for a, x in first.items():
                for b, y in second.items():
                    vec[slot[a + b]] += x * y
            return tuple(vec)

        if len(planes) == 1:
            (i,) = planes
            powers = [packed_powers(w, m, m + 1) for w in self.basis[i]]
            kernel = [vector(*map(getitem, powers, k)) for k in monomials_of_degree(l - 1, m)]
            if any(_broken(self.contraction[i], vec) is not None for vec in kernel):
                raise IdentityViolated(f"contraction kernel of the plane {hyperplanes[i].text()}: a product of derivations along it breaks its contraction rows")
        else:
            direction = next(direction for direction, through in self.flats if through == planes)
            kernel = [vector(packed_powers(direction, m, m + 1)[m])]
            for i in planes:
                if _broken(self.contraction[i], kernel[0]) is not None:
                    raise IdentityViolated(f"contraction kernel at the flat {direction} of {len(planes)} planes: delta_X^{m} breaks the contraction rows of {hyperplanes[i].text()}")
        self.kernels[planes] = kernel
        return kernel

    def _fill(self, i: int) -> Iterator[tuple[int, ...]]:
        """The points s*u + t*v of plane i, for its integer basis (u, v) and
        (s, t) in ``_projective_pairs`` order, that lie on no other plane: the
        points of plane i that are not flats."""
        u, v = self.basis[i]
        others = self.normals[:i] + self.normals[i + 1 :]
        for s, t in _projective_pairs():
            p = tuple(s * a + t * b for a, b in zip(u, v))
            if all(sum(map(mul, w, p)) for w in others):
                yield p


class _Degree:
    """The sample at degree d, for both readers: the ``groups`` of
    ``_Planes.points``, the ``points`` in group order, each plane's form at
    each point (``values``), and the number of ``relations`` between the
    point values, the points minus the evaluation rank s_dim(d) - s_dim(d-n).
    That rank, like the membership test, rests on every plane holding
    s_dim(d, l-1) distinct points.  Checked once, in this order, each raising
    ``IdentityViolated``: the relation count is not negative, no point
    repeats up to scale (``primitive_int_vector``; the points stay as
    drawn), and every plane holds enough points, counted by evaluation: a
    plane short of points can leave the evaluation rank full."""

    def __init__(self, arr: Arrangement, d: int, groups: list[tuple[list[tuple[int, ...]], tuple[int, ...]]]):
        self.groups = groups
        self.points = points = [p for group, _ in groups for p in group]
        self.relations = len(points) - s_dim(d, arr.dim) + s_dim(d - arr.n, arr.dim)
        if self.relations < 0:
            raise IdentityViolated(f"{len(points)} points leave {self.relations} relations between the point values at degree {d}, expected at least 0")
        if len(set(map(primitive_int_vector, points))) < len(points):
            raise IdentityViolated(f"the sample repeats a point at degree {d}")
        self.values = [_values(h.normal, points) for h in arr]
        need = s_dim(d, arr.dim - 1)
        for h, at in zip(arr, self.values):
            if at.count(0) < need:
                raise IdentityViolated(f"the plane {h.text()} holds {at.count(0)} of the sample's points at degree {d}, fewer than {need}")


def _projective_pairs() -> Iterator[tuple[int, int]]:
    """The coprime pairs (s, t), one per point of the projective line, by
    height max(|s|, |t|): (1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (1, -2),
    (2, 1), (2, -1), (1, 3), ..."""
    yield from ((1, 0), (0, 1))
    for h in count(1):
        for s in range(1, h + 1):
            if gcd(s, h) == 1:
                yield from ((s, h), (s, -h))
        for u in range(1, h):
            if gcd(h, u) == 1:
                yield from ((h, u), (h, -u))


def _contraction_rows(normal: tuple[int, ...], m: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """The rows b of degree m-1, in ``monomials_of_degree`` order, over the
    order-m multi-indices a in ``monomials_of_degree`` order, held by slot: for
    each nonzero c_i, in index order, the columns of a = b + e_i and their
    weights c_i a! over all b (``_contraction_table``'s a!, scaled by c_i).
    Row b is the combination sum_i c_i (b + e_i)! f_{b+e_i} that vanishes on
    H for a member."""
    return [(cols, [c * f for f in factorials]) for c, (cols, factorials) in zip(normal, _contraction_table(len(normal), m)) if c]


@cache
def _contraction_table(l: int, m: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each i < l: the positions of a = b + e_i in
    ``monomials_of_degree(l, m)`` over the b of degree m-1, in
    ``monomials_of_degree`` order, and their a!.  One
    shared table per (l, m), as ``packed_index``; callers do not modify it."""
    col = {a: i for i, a in enumerate(monomials_of_degree(l, m))}
    table = []
    for i in range(l):
        a = [b[:i] + (b[i] + 1,) + b[i + 1 :] for b in monomials_of_degree(l, m - 1)]
        table.append((tuple(col[x] for x in a), tuple(map(midx_factorial, a))))
    return tuple(table)


def _broken(slots: list[tuple[Sequence[int], list[int]]], vec: Sequence[int]) -> int | None:
    """The index of the first contraction row nonzero on ``vec``, or None."""
    total = [0] * len(slots[0][0])
    for cols, weights in slots:
        total = list(map(add, total, map(mul, weights, map(vec.__getitem__, cols))))
    return next((b for b, v in enumerate(total) if v), None) if any(total) else None


def _dense(row: list[dict[int, int]], index: dict[int, int]) -> list[list[int] | None]:
    """Each coefficient (packed term dict) of ``row`` as a list over ``index``
    (``polynomial.packed_index`` of its degree and radix), None if zero."""
    out = []
    for f in row:
        vec = [0] * len(index) if f else None
        for c, v in f.items():
            vec[index[c]] = v
        out.append(vec)
    return out


def _evaluate(dense: list[list[int] | None], values: list[int]) -> list[int]:
    """Each coefficient of a ``_dense`` row where its monomials take ``values``."""
    return [sum(map(mul, vec, values)) if vec else 0 for vec in dense]


# -- membership ---------------------------------------------------------------


def _packed_components(theta: DiffOp) -> dict[int, list[dict[int, Fraction | int]]]:
    """theta's homogeneous components by degree d, each one packed
    coefficient per ``monomials_of_degree`` column, monomial keys in radix d + 1."""
    l, columns = theta.nvars, monomials_of_degree(theta.nvars, theta.order)
    components: dict[int, list[dict[MultiIndex, Fraction | int]]] = {}
    for k, a in enumerate(columns):
        for c, v in theta.coeffs[a].terms.items() if a in theta.coeffs else ():
            components.setdefault(sum(c), [{} for _ in columns])[k][c] = v
    return {d: [pack(f, l, d + 1) for f in row] for d, row in components.items()}


def is_member(theta: DiffOp, arr: Arrangement) -> bool:
    """Exact membership test: theta(alpha_H * x^b) in alpha_H * S for all H, b;
    the certificate's test on each homogeneous component (the module is graded)."""
    if theta.nvars != arr.dim:
        raise DimensionMismatch(f"operator has {theta.nvars} variables, the arrangement {arr.dim}")
    sample, l = _Planes(arr, theta.order), arr.dim
    return not any(sample.violation(_dense(row, packed_index(l, d, d + 1)), d) for d, row in _packed_components(theta).items())


# -- determinant certificate ----------------------------------------------------


class SaitoCertificate:
    """det = c * Q^t witness that a candidate set is a free basis.

    Only c and t are certified and output (``to_json``); ``det`` expands
    c * Q^t on first read.  ``sample`` is the points the membership test
    drew, which the oracle can reuse for the same arrangement and order.
    """

    def __init__(self, c: Fraction, t: int, arr: Arrangement, sample: _Planes):
        self.c = c
        self.t = t
        self.arr = arr
        self.sample = sample

    @cached_property
    def det(self) -> Poly:
        """c * Q^t, multiplied out over the integers.  Read only by the tests
        (against ``det_poly_matrix`` and sympy) and ``perfbench/spans.py``."""
        normals = (h.normal for h in self.arr.hyperplanes for _ in range(self.t))
        c = self.c.numerator if self.c.denominator == 1 else self.c
        return form_product(normals, self.arr.dim) * c

    def to_json(self) -> dict:
        """c as ``str(self.c)`` writes it, at any size (``rational_text``),
        and t."""
        return {"c": rational_text(self.c), "t": self.t}


def saito_check(ops: Sequence[DiffOp | FactoredOp], arr: Arrangement) -> SaitoCertificate:
    """Prove that ``ops`` is a free basis of the order-m module and return c, t
    with det M = c * Q^t, c != 0, for M the Saito matrix of the operators
    (``FactoredOp.op`` for a factored one).  Each operator is read as a pair
    (core theta', cofactor forms) with theta = P * theta', P the product of
    the forms: a ``FactoredOp``'s normalized core (``packed``) and primitive
    ``cofactor``, or (op, ()) for a plain ``DiffOp``, packed here once.

    Saito's criterion in Holm's version for order m: members with
    det M = c * Q^t, c != 0 and t = s_dim(m-1, l), form a basis.  The checks
    run in this order; operators whose variable count or order differs from
    the arrangement's and ops[0]'s raise ``DimensionMismatch``, and every
    other failure raises a ``SaitoFailed`` (with ``index`` set when its
    message names an operator):

    1. No operator is zero (nor a cofactor form), and there are s_dim(m, l)
       of them (``ZeroDet``).
    2. Every row of M is homogeneous (``NotPurePower``).  A factored
       operator's degree is its factor count (``FactoredOp.degree()``).
    3. Every operator is a member at every H, by ``_Planes.violation`` at the
       points of the sample's checked record (``_Degree``).  ``NotMember``
       names the first failing plane in input order, and the first failing b
       at the first of its points where one fails.  Where alpha_H = x1,
       theta(x1 * x^b) = (b+e1)! f_(b+e1), so membership at H says x1 divides
       the s_dim(m-1, l) columns f_a with a_1 >= 1.  A linear change of
       coordinates multiplies M by a constant invertible matrix, so alpha_H^t
       divides det M; the alpha_H are pairwise coprime, so Q^t does.  The
       core's row, as primitive integers, is tested at its own degree at the
       planes of ``arr`` whose normal is not a cofactor form (both primitive,
       first nonzero entry positive: the planes with alpha_H not dividing P).
       If alpha_H divides P, theta(alpha_H f) = P * theta'(alpha_H f) is in
       alpha_H * S.  If not, S is a UFD and alpha_H is prime, so alpha_H
       divides P * theta'(alpha_H f) exactly when it divides
       theta'(alpha_H f): theta is a member at H exactly when theta' is.  The
       planes come from ``arr`` and the forms from the operator itself, so a
       plane missing from P is tested.  Only a plain ``DiffOp``'s content is
       taken: a normalized core has content 1.
    4. The row degree sum, deg det M, is at most n * t (``NotPurePower``).  A
       smaller sum forces det M = 0, which step 5 reports.
    5. So det M = c * Q^t with c constant, and c = det M(p) / Q(p)^t at the
       first p = (1, k, k^2, ...) off every plane (a plane meets this curve
       at most l - 1 times, so k <= n * (l - 1)).  Row i of M is
       s_i * P_i * (core row i), s_i the content taken out in step 3 (1 for
       a ``FactoredOp``, whose ``op`` is P_i * ``core``), and a determinant
       is linear in each row: det M(p) = prod_i s_i * P_i(p) times one
       integer Bareiss determinant of the core rows evaluated at p.  c = 0
       raises ``ZeroDet``.

    No floating point and no randomness: a passing check is a proof.
    """
    if not ops:
        raise ZeroDet("empty candidate basis")
    m = ops[0].order
    l = arr.dim
    for i, op in enumerate(ops):
        if (op.nvars, op.order) != (l, m):
            raise DimensionMismatch(f"operator {i} has order {op.order} in {op.nvars} variables, need order {m} in {l}")
        if op.is_zero():
            raise ZeroDet(f"operator {i} is zero", i)
    expected = s_dim(m, l)
    if len(ops) != expected:
        raise ZeroDet(f"candidate basis has {len(ops)} operators, need {expected}")
    degrees = [op.degree() for op in ops]
    if None in degrees:
        i = degrees.index(None)
        raise NotPurePower(f"operator {i} has non-homogeneous coefficients", i)

    point = next(p for p in (tuple(k**i for i in range(l)) for k in count()) if not any(h.contains(p) for h in arr))
    at_point: dict[int, list[int]] = {}
    scale = Fraction(1)
    rows, cofactors = [], []
    sample = _Planes(arr, m)
    for i, (op, deg) in enumerate(zip(ops, degrees)):
        # the full operator's radix, deg + 1, keys the core too
        if isinstance(op, FactoredOp):  # a normalized core has content 1
            core, cofactor = op.packed, op.cofactor
            row = [core.get(a, {}) for a in packed_index(l, m, m + 1)]
        else:
            cofactor, row = (), _packed_components(op)[deg]
            content = rational_content(v for f in row for v in f.values())
            if content != 1:
                row = [{a: int(v / content) for a, v in f.items()} for f in row]
                scale *= content
        d = deg - len(cofactor)
        dense = _dense(row, packed_index(l, d, deg + 1))
        skip = frozenset(k for k, h in enumerate(arr) if h.normal in cofactor)
        found = sample.violation(dense, d, skip)
        if found:
            j, b = found
            raise NotMember(f"operator {i} is not a member at {arr.hyperplanes[j].text()}: theta(alpha_H * x^b) is not in alpha_H * S, b = {b}", i)
        if d not in at_point:
            at_point[d] = [_int_pow(point, c) for c in monomials_of_degree(l, d)]
        rows.append(_evaluate(dense, at_point[d]))
        cofactors += cofactor

    n = arr.n
    t = s_dim(m - 1, l) if n else 0
    degree_sum = sum(degrees)
    if degree_sum > n * t:
        raise NotPurePower(f"row degree sum {degree_sum} exceeds n * t = {n} * {t}")

    det = det_int(rows)
    det *= prod(sum(map(mul, v, point)) for v in cofactors)
    if not det:
        raise ZeroDet("candidate basis matrix is singular")
    q = prod(sum(map(mul, h.normal, point)) for h in arr)
    return SaitoCertificate(scale * Fraction(det, q**t), t, arr, sample)


# -- dimension oracle -------------------------------------------------------------


def oracle_dim(arr: Arrangement, m: int, d: int) -> int:
    """Exact dimension of the space of order-m members with degree-d coefficients."""
    if d < 0:
        return 0
    return _oracle(arr, m, [d])[0]


def oracle_dims(arr: Arrangement, m: int, d_max: int, sample: _Planes | None = None) -> list[int]:
    """``oracle_dim(arr, m, d)`` for d = 0..d_max, computing each contraction
    kernel, the flats and the hyperplane bases at most once; ``sample`` is a
    ``_Planes`` of the same arrangement and order to draw the points and
    kernels from (``SaitoCertificate.sample``), or None to build one."""
    return _oracle(arr, m, list(range(d_max + 1)), sample)


def _oracle(arr: Arrangement, m: int, degrees: list[int], sample: _Planes | None = None) -> list[int]:
    """The degree-independent data once, then the dimension at each degree.

    The sample (``_Planes``) gives each point the planes through it, and the
    point's kernel K_p is read off that tuple: K_H, the kernel of H's
    contraction rows, at a point of H alone, and K_X, the kernel of the
    stacked rows of its planes, at a flat X of two or more.  A vector of
    K_p is a constant order-m operator theta with theta(alpha_H * S_(m-1)) = 0
    for each such H (row b of H is theta(alpha_H * x^b)).  Both kernels are
    built in closed form, not eliminated:

    - K_H is spanned by the s_dim(m, l-1) products of m derivations in the
      directions of H's integer basis (``_Planes.basis``), in
      ``monomials_of_degree`` order, each primitive.  A derivation D along H
      has D(alpha_H) = 0, so it commutes with multiplication by alpha_H, and
      a product of m of them maps alpha_H * g, deg g = m-1, to alpha_H * 0.
      The products are independent (the monomials of degree m in a basis of
      H's directions are a basis of Sym^m of them).  Multiplication by
      alpha_H is injective on S_(m-1), and the apolar pairing of order-m
      operators with S_m is perfect, so H's s_dim(m-1, l) rows are
      independent and dim K_H = s_dim(m, l) - s_dim(m-1, l) = s_dim(m, l-1):
      the products span K_H.
    - K_X is the line of delta_X^m, the m-th power of the derivation along
      X's direction w, primitive.  K_X is the intersection of
      Sym^m(U_H) over the planes H through X, U_H the directions of H.  Two
      planes of a flat (l = 3) have U_1 = <w, u_1> and U_2 = <w, u_2> with
      w, u_1, u_2 a basis, and the monomials in w, u_1, u_2 are a basis of
      Sym^m: the two spans share the line of w^m, which lies in every
      Sym^m(U_H).

    ``_Planes.kernel`` builds them from each form's powers and needs no
    primitive pass (Gauss's lemma; proof there).  It builds a key the first
    time a group whose eta weights are not all zero reads it, so only
    vectors that enter a rank are built, keeps it on the sample, and checks
    every vector against the contraction rows of every plane it serves
    before it is used (a product, not an elimination); a failure raises
    ``IdentityViolated`` naming the plane, or the flat and the plane.  The unknowns are counted from the
    dimensions proven above, s_dim(m, l-1) at a point of one plane and 1 at
    a flat point, without building a kernel.
    """
    l = arr.dim
    if m < 0:
        return [0] * len(degrees)
    if arr.n == 0 or m == 0:
        return [s_dim(m, l) * s_dim(d, l) for d in degrees]
    if sample is None:
        sample = _Planes(arr, m)
    elif (sample.arr, sample.m) != (arr, m):
        raise ValueError("the sample is of another arrangement or order")
    return [_oracle_at(sample, d) for d in degrees]


def _oracle_at(sample: _Planes, d: int) -> int:
    """Dimension at degree d from the sample's checked record (``_Degree``),
    its points grouped by kernel.  Where the record counts no relation
    between the point values (the etas), none is computed.  Otherwise
    ``_etas`` peels the planes in input order.
    Let P_i be the points off H_0..H_(i-1), in sample order, and e = d - i:

    - At each plane H_i with e >= 0, the points ``on`` of P_i on H_i
      number at least need = s_dim(e, l-1) (``_etas``), and the first need
      of them are the base.  The Lagrange weights L_q of the degree-e forms
      in the coordinates other than the first c with alpha_c != 0
      interpolate at the base: for l = 3, L_q(t) = prod_(q' != q) [t, q'] /
      [q, q'] (``_lagrange``), with [.,.] the 2x2 bracket of the two kept
      coordinates; for l = 2, L_q(t) = (t_a / q_a)^e.
    - A relation rho of P_(i+1) at degree e - 1 lifts to eta_p =
      rho_p / alpha_i(p) off H_i, eta_q = -sum_p eta_p L_q(p) at each base
      point q and 0 at the rest of ``on``.  Each further point t of ``on``
      gives one relation: eta_t = 1 and eta_q = -L_q(t).
    - At e < 0 every point is its own relation; no point is left past the
      last plane.

    Proof.  S_e = C + alpha_i * S_(e-1), a direct sum, where C is the forms
    in the two kept coordinates, and restriction maps C isomorphically onto
    the forms on H_i, which the base points (distinct, need of them)
    interpolate.  So eta is a relation at degree e exactly when
    (alpha_i(p) eta_p) off H_i is a relation of P_(i+1) at degree e - 1 and
    sum_p eta_p L_q(p) = 0 at every base point q.  The map
    eta -> (alpha_i(p) eta_p) is therefore onto, the lift being a
    preimage, and its kernel is the relations supported on H_i, which the
    further points span, one free point each.  By induction the result is
    a basis, with sum_i (|on_i| - need_i) + |P at e < 0| elements; their
    number is checked against the count above.  In dimension 2 a line is
    one point of the projective line, so every level holds one base point
    and no further point.  The lift of a point t left at e < 0 is then a
    relation supported on t and the d + 1 base points, distinct points of
    the projective line, and such a relation is unique up to a factor:
    ``_etas`` builds it in one step, as the Lagrange relation of t at the
    base points on the whole projective line: ``_lagrange`` over both
    coordinates, made integral by the peel's lift (``_lifted``).

    Each relation is cleared of denominators, made primitive with its
    first nonzero entry positive, and the relations are sorted by their
    free points (t, or the point at e < 0).  Each is supported on base
    points and its free point, and they then equal ``nullspace_int`` of
    the table of monomial values at the points vector for vector (tested),
    so the Kronecker rows, and with them the rank's pivots and work, are
    those of that global solve.
    """
    arr, l, m, record = sample.arr, sample.l, sample.m, sample.points(d)
    free_part = s_dim(m, l) * s_dim(d - arr.n, l)
    # dim K_H and dim K_X, proven in ``_oracle``
    plane_dim = s_dim(m, l - 1)
    unknowns = sum(len(group) * (plane_dim if len(planes) == 1 else 1) for group, planes in record.groups)
    if not record.relations:
        return free_part + unknowns

    etas = _etas(arr, record.points, d, record.values)
    if len(etas) != record.relations:
        raise IdentityViolated(f"{len(etas)} relations between the point values at degree {d}, expected {record.relations}")

    # The rows of a group are (eta weights at a point of it) (x) (a vector of
    # its kernel); an echelon basis of its weight block spans the same rows,
    # as does the one row of a one-point block.  A group whose weights are
    # all zero adds no row and reads no kernel.
    rows: list[list[int]] = []
    weights, start = list(zip(*etas)), 0
    for group, planes in record.groups:
        block = weights[start : start + len(group)]
        start += len(group)
        if len(block) > 1:
            block = echelon_int(block)[0]
        if any(map(any, block)):
            rows.extend([wq * wa for wq in e for wa in w] for e in block for w in sample.kernel(planes))
    return free_part + unknowns - rank_int(rows)


def _etas(arr: Arrangement, points: list[tuple[int, ...]], d: int, values: list[list[int]]) -> list[tuple[int, ...]]:
    """The relations between the values of the degree-d forms at ``points``,
    peeled plane by plane in input order (construction and proof in
    ``_oracle_at``): primitive, first nonzero entry positive, sorted by
    their free points.  ``values`` holds each plane's form at each point.
    On a checked record (``_Degree``) each level's count holds: an earlier
    plane meets H_i in one projective point (none for l = 2), so at least
    d + 1 - i = s_dim(e, 2) of H_i's points are left (H_i's one, l = 2)."""
    l, size = arr.dim, len(points)
    alive, levels = list(range(size)), []
    for i, (h, at) in enumerate(zip(arr, values)):
        e = d - i
        if e < 0:
            break
        on = [k for k in alive if not at[k]]
        need = s_dim(e, l - 1)
        if len(on) < need:
            raise IdentityViolated(f"the plane {h.text()} holds {len(on)} of the sample's points off the planes before it at degree {d}, fewer than {need}")
        off = {k: at[k] for k in alive if at[k]}
        levels.append((h.normal, on[:need], on[need:], off))
        alive = list(off)
    else:
        if alive:
            raise IdentityViolated(f"{len(alive)} of the sample's points lie on no plane at degree {d}")
    # at e < 0 every point left is a relation of its own
    relations = []
    for k in alive:
        vec = [0] * size
        vec[k] = 1
        relations.append((k, vec))
    if l == 2:
        # one base point per level and no further point: the lift of a point t
        # left at e < 0 is its Lagrange relation at every level's base point
        # on the projective line, over both coordinates (no bracket [t, q] is 0)
        base = [q for _, (q,), _, _ in levels]
        weights, den = _lagrange(0, 1, [points[q] for q in base])
        relations = [(t, _lifted(vec, row, base, den)) for (t, vec), row in zip(relations, weights([points[t] for t in alive]))]
    else:
        support = alive
        for normal, base, extra, off in reversed(levels):
            if not relations and not extra:
                continue
            # the coordinates other than the first c with normal[c] != 0
            c = next(j for j, x in enumerate(normal) if x)
            weights, den = _lagrange(*(j for j in range(3) if j != c), [points[q] for q in base])
            if relations:
                # divide by alpha off the plane, over one common multiple
                support = sorted(support)
                common = lcm(*(off[k] for k in support))
                divide = [0] * size
                for k in support:
                    divide[k] = common // off[k]
                columns = list(zip(*weights([points[k] for k in support])))
                lift = []
                for k, vec in relations:
                    vec = list(map(mul, vec, divide))
                    at = list(map(vec.__getitem__, support))
                    vec = _lifted(vec, [sum(map(mul, at, col)) for col in columns], base, den)
                    g = gcd(*vec)
                    lift.append((k, vec if g == 1 else [x // g for x in vec]))
                relations = lift
            for t, row in zip(extra, weights([points[t] for t in extra])):
                vec = [0] * size
                vec[t] = 1
                relations.append((t, _lifted(vec, row, base, den)))
            support = [*support, *base, *extra]
    relations.sort()
    return [tuple(vec) if next(filter(None, vec)) > 0 else tuple(map(neg, vec)) for _, vec in relations]


def _lifted(vec: list[int], sums: list[int], base: list[int], den: list[int]) -> list[int]:
    """``vec`` with -sums / den at the base points, by the least scale that
    keeps it integral: s = lcm of D / gcd(x, D) over the pairs (x, D) of
    ``sums`` and ``den``.  The lift of a relation is made primitive by its
    caller.  The lift of a unit vector e_t, t off the base, is primitive
    already, so it takes no gcd.  Its entry at t is s, so a common divisor
    divides s.  For a prime p with p^k exactly dividing s, some pair has
    p^k dividing D' = D / gcd(x, D), and x' = x / gcd(x, D) is prime to D'.
    That pair's entry, -x' * (s / D'), is then prime to p.  So no prime
    divides every entry."""
    scale = lcm(*map(floordiv, den, map(gcd, sums, den)))
    if scale != 1:
        vec = list(map(mul, vec, repeat(scale)))
    for q, x, D in zip(base, sums, den):
        vec[q] = -x * scale // D
    return vec


def _lagrange(a: int, b: int, base: list[tuple[int, ...]]) -> tuple[Callable[[list[tuple[int, ...]]], list[list[int]]], list[int]]:
    """The map from points p to their rows [N_q(p) for q in base], where
    N_q(p) is the product of the brackets [p, q'] = p_a q'_b - p_b q'_a over
    the other base points q', and the denominators N_q(q): the Lagrange
    weight L_q(p) = N_q(p) / N_q(q) of the forms of degree len(base) - 1 in
    the coordinates a and b: a peel level's two kept ones, or both for l = 2."""
    kept = [(q[a], q[b]) for q in base]
    den = [prod([qa * y - qb * x for k, (x, y) in enumerate(kept) if k != j]) for j, (qa, qb) in enumerate(kept)]

    def weights(pts: list[tuple[int, ...]]) -> list[list[int]]:
        out = []
        for p in pts:
            pa, pb = p[a], p[b]
            row = [pa * y - pb * x for x, y in kept]
            if all(row):
                full = prod(row)
                out.append([full // x for x in row])
                continue
            # N_q(p) is 0 unless [p, q] is the only zero bracket
            zeros = [j for j, x in enumerate(row) if not x]
            weight = [0] * len(row)
            if len(zeros) == 1:
                (j,) = zeros
                weight[j] = prod(row[:j]) * prod(row[j + 1 :])
            out.append(weight)
        return out

    return weights, den


def _values(normal: tuple[int, ...], points: list[tuple[int, ...]]) -> list[int]:
    """The form with coefficients ``normal`` at each of ``points``."""
    if len(normal) == 3:
        a, b, c = normal
        return [a * x + b * y + c * z for x, y, z in points]
    a, b = normal
    return [a * x + b * y for x, y in points]


def _int_pow(point: tuple[int, ...], exp: MultiIndex) -> int:
    return prod(map(pow, point, exp))


# -- Hilbert-series consistency ----------------------------------------------------


class OracleReport(NamedTuple):
    """Per-degree comparison of oracle dimensions with the free-module prediction."""

    rows: tuple[tuple[int, int, int], ...]  # (degree, oracle, predicted)

    @property
    def consistent(self) -> bool:
        return all(dim == pred for _, dim, pred in self.rows)


def hilbert_check(arr: Arrangement, m: int, exponents, d_max: int, sample: _Planes | None = None) -> OracleReport:
    """Compare oracle dimensions against sum_i s_{d - e_i} for d <= d_max
    (``sample`` as in ``oracle_dims``)."""
    exps = list(exponents)
    rows = []
    for d, dim in enumerate(oracle_dims(arr, m, d_max, sample)):
        rows.append((d, dim, sum(s_dim(d - e, arr.dim) for e in exps)))
    return OracleReport(tuple(rows))


# -- combinatorial identities -------------------------------------------------------


def check_identities(ext: ExtendedArrangement) -> dict:
    """Exact counting identities tying the extension's flats to the module rank."""
    base = ext.base
    if not base.is_essential():
        raise NotEssential("identity checks need an essential base arrangement")
    n, added, profiles = base.n, len(ext.added), ext.profiles

    lhs_rank = s_dim(ext.m, 3)
    rhs_rank = sum(s_dim(p.max_order, 3) for p in profiles)

    lhs_pairs = (n + added - 1) * n
    rhs_pairs = sum((len(p.flat.local_indices) - 1) * p.base_local_count for p in profiles)

    report = {
        "rank_identity": {"lhs": lhs_rank, "rhs": rhs_rank, "ok": lhs_rank == rhs_rank},
        "pair_identity": {"lhs": lhs_pairs, "rhs": rhs_pairs, "ok": lhs_pairs == rhs_pairs},
    }

    if ext.condition_a:
        expected = len(base.lattice.flats) + comb(added, 2) + n * added
        actual = len(profiles)
        report["flat_count_identity"] = {"lhs": actual, "rhs": expected, "ok": actual == expected}
        new_flat_orders_ok = all(
            p.max_order == 0
            for p in profiles
            if p.base_local_count < 2
        )
        report["new_flats_minimal"] = {"ok": new_flat_orders_ok}

    for key, entry in report.items():
        if not entry["ok"]:
            raise IdentityViolated(f"{key} failed: {entry}")
    return report
