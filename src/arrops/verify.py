"""Independent verification: membership, determinant certificates, dimension oracle.

One definition of membership serves the certificate and the oracle: an
order-m operator theta = sum_a f_a d^a is a member when, for every hyperplane H and
monomial x^b of degree m-1, theta(alpha_H * x^b) is in alpha_H * S, i.e. when

    sum_i  c_i (b + e_i)!  f_{b+e_i}        (c = normal of H)

vanishes on H (``_contraction_rows``).

Both read one sample per call (``_Planes``).  A degree-d form vanishes on
H exactly when it vanishes at s_dim(d, l-1) distinct projective points of
H (d + 1 on a plane, one on a line).  Each hyperplane, in input order,
first takes the rank-2 flats on it, which are points of every plane
through them (one taken by an earlier plane counts), then fills up with
points s*u + t*v of its own for the coprime pairs (s, t) of smallest
height, skipping the flats.  A flat point serves every plane through it.
Per degree the sample evaluates the monomials at its points once.

The certificate (``saito_check``) tests every candidate operator with the
sample's membership test (``_Planes.violation``), then takes one integer
determinant of the rows at one point off every plane.  An operator given
by its factor lists (``diffop.FactoredOp``, theta = P * theta', as basis
assembly builds them) is tested through its low-degree core theta', at the
planes whose normal is not a factor of P, and its determinant row is the
core's: theta is never multiplied out.  The oracle computes the exact
dimension of the degree-d slice of the module: the same conditions make it
an integer linear system in the coefficient unknowns.  Its fast path also
quotients out the value patterns that polynomials realize, which shrinks
the elimination to matrices indexed by points and multi-indices (the tests
keep the literal coefficient-space system as a cross-check).  The
coefficient vector's value at a point p must lie in K_p, the kernel of the
stacked contraction rows of every plane through p: K_H at a point of H
alone, spanned by the products of m derivations along H, and the line of
delta_X^m at a flat X of two or more planes.  Both are built in closed
form and checked against the rows, not eliminated (proofs in ``_oracle``).
Since every plane holds enough distinct points, a degree-d form vanishing
at all points is a multiple of Q, so evaluation has kernel Q * S_(d-n) and
the free part is unchanged.  The dimension is

    free part + sum_p dim K_p - rank(rows),

where the rows are the Kronecker products (weights at p of the functionals
eta that vanish on realized value patterns) (x) (a vector of K_p), grouped
by kernel; each group's weight block is first reduced to an echelon basis,
which spans the same rows with fewer of them.  A flat point carries one
unknown instead of m + 1.  The etas number the points minus the
evaluation rank; where that count is 0 (on a generic arrangement at large
d) no eta is computed and no rank is taken, and the points on every plane
are counted instead.  The oracle's eliminations are integer only
(``linalg.echelon_int``): the etas and the hyperplane bases are integer
kernel bases, and the dimension comes from one integer rank.
``oracle_dims`` answers every degree up to d_max in one call and computes
the kernels and the sample's flats once; nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from math import comb, gcd, prod
from operator import add, itemgetter, mul
from typing import Iterator, Sequence

from .arrangement import Arrangement
from .diffop import DiffOp, FactoredOp, saito_columns
from .errors import (
    DimensionMismatch,
    IdentityViolated,
    NotEssential,
    NotMember,
    NotPurePower,
    ZeroDet,
)
from .extension import ExtendedArrangement
from .linalg import det_int, echelon_int, nullspace_int, rank_int
from .polynomial import (
    MultiIndex,
    Poly,
    form_product,
    midx_factorial,
    monomials_of_degree,
    primitive_int_vector,
    rational_content,
    s_dim,
)


# -- the shared sample ----------------------------------------------------------


class _Planes:
    """One call's sample of the arrangement and its membership test.

    Per plane: its contraction rows (``_contraction_rows``, order m) and an
    integer basis of its directions (``nullspace_int`` of its normal), which
    spans its fill-up points and its contraction kernel.  Per flat
    (``arr.flats()``): its direction and the planes through it, input order.
    In dimension 2 each line is its own flat, on that line alone.  Per
    degree, built on first read and kept here only: the table of monomial
    values at the points (``table``), which the membership test and the
    oracle's etas read.  ``points`` evaluates nothing.
    """

    def __init__(self, arr: Arrangement, m: int):
        self.l, self.m = arr.dim, m
        self.normals = [h.normal for h in arr]
        self.contraction = [_contraction_rows(v, m) for v in self.normals]
        self.basis = [nullspace_int([list(v)], self.l) for v in self.normals]
        self.flats = arr.flats()
        self.on_plane: list[list[int]] = [[] for _ in self.normals]
        for f, (_, planes) in enumerate(self.flats):
            for i in planes:
                self.on_plane[i].append(f)
        # each plane's points on no other plane, drawn as the degrees need them
        self.own: list[list[tuple[int, ...]]] = [[] for _ in self.normals]
        self.fill = [self._fill(i) for i in range(len(self.normals))]
        self.tables: dict[int, tuple[dict[MultiIndex, int], list[list[int]], list[list[int]]]] = {}

    def points(self, d: int) -> list[tuple[list[tuple[int, ...]], tuple[int, ...]]]:
        """Distinct projective points, at least s_dim(d, l-1) of them on every
        plane, in groups (points, the planes through each of them).

        Each plane H, in input order, counts the flat points already taken
        on it, takes its own flats (``arr.flats()`` order) until it has
        s_dim(d, l-1), then fills up with its points on no other plane
        (``_fill``).  A flat point is a group of its own; the fill-up points
        of H lie on H alone and form one group.
        """
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
        return groups

    def table(self, d: int) -> tuple[dict[MultiIndex, int], list[list[int]], list[list[int]]]:
        """``_monomial_index(l, d)``, the values of each degree-d monomial at
        the points of ``points(d)`` in group order (the oracle's eta matrix),
        and the indices of each plane's points."""
        if d not in self.tables:
            points, on = [], [[] for _ in self.normals]
            for group, planes in self.points(d):
                for i in planes:
                    on[i] += range(len(points), len(points) + len(group))
                points += group
            index = _monomial_index(self.l, d)
            self.tables[d] = index, [[_int_pow(p, c) for p in points] for c in index], on
        return self.tables[d]

    def violation(self, row: list[dict[MultiIndex, int]], d: int, skip: frozenset[int] = frozenset()) -> tuple[int, MultiIndex] | None:
        """The first (plane index, b), not in ``skip``, whose condition the
        operator with coefficients ``row`` (term dicts in ``saito_columns``
        order, degree d) breaks; it is evaluated once per point of a tested
        plane and checked against every tested plane through that point."""
        if not self.m:
            return None  # order 0: no conditions
        index, values, on = self.table(d)
        dense = _dense(row, index)
        at: dict[int, list] = {}
        for j, (slots, points) in enumerate(zip(self.contraction, on)):
            if j in skip:
                continue
            for k in points:
                if k not in at:
                    at[k] = _evaluate(dense, list(map(itemgetter(k), values)))
                b = _broken(slots, at[k])
                if b is not None:
                    return j, monomials_of_degree(self.l, self.m - 1)[b]
        return None

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


def _contraction_rows(normal: tuple[int, ...], m: int) -> list[tuple[list[int], list[int]]]:
    """The rows b of degree m-1, in ``monomials_of_degree`` order, over the
    order-m multi-indices a in ``saito_columns`` order, held by slot: for
    each nonzero c_i, in index order, the columns of a = b + e_i and their
    weights c_i a! over all b.  Row b is the combination
    sum_i c_i (b + e_i)! f_{b+e_i} that vanishes on H for a member."""
    l = len(normal)
    col = {a: i for i, a in enumerate(saito_columns(l, m))}
    slots = []
    for i, c in enumerate(normal):
        if c:
            a = [b[:i] + (b[i] + 1,) + b[i + 1 :] for b in monomials_of_degree(l, m - 1)]
            slots.append(([col[x] for x in a], [c * midx_factorial(x) for x in a]))
    return slots


def _broken(slots: list[tuple[list[int], list[int]]], vec: Sequence[int]) -> int | None:
    """The index of the first contraction row nonzero on ``vec``, or None."""
    total = [0] * len(slots[0][0])
    for cols, weights in slots:
        total = list(map(add, total, map(mul, weights, map(vec.__getitem__, cols))))
    return next((b for b, v in enumerate(total) if v), None) if any(total) else None


def _monomial_index(l: int, d: int) -> dict[MultiIndex, int]:
    """The position of each degree-d monomial in ``monomials_of_degree``."""
    return {c: i for i, c in enumerate(monomials_of_degree(l, d))}


def _dense(row: list[dict[MultiIndex, int]], index: dict[MultiIndex, int]) -> list[list[int] | None]:
    """Each coefficient (term dict) of ``row`` as a list over ``index``, None if zero."""
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


def is_member(theta: DiffOp, arr: Arrangement) -> bool:
    """Exact membership test: theta(alpha_H * x^b) in alpha_H * S for all H, b;
    the certificate's test on each homogeneous component (the module is graded)."""
    if theta.nvars != arr.dim:
        raise DimensionMismatch(f"operator has {theta.nvars} variables, the arrangement {arr.dim}")
    columns = saito_columns(arr.dim, theta.order)
    components: dict[int, list[dict[MultiIndex, Fraction | int]]] = {}
    for k, a in enumerate(columns):
        for c, v in theta.coeffs[a].terms.items() if a in theta.coeffs else ():
            components.setdefault(sum(c), [{} for _ in columns])[k][c] = v
    sample = _Planes(arr, theta.order)
    return not any(sample.violation(row, d) for d, row in components.items())


# -- determinant certificate ----------------------------------------------------


@dataclass(frozen=True)
class SaitoCertificate:
    """det = c * Q^t witness that a candidate set is a free basis.

    Only c and t are certified and output (``to_json``); ``det`` expands
    c * Q^t on first read.  ``sample`` is the points the membership test
    drew, which the oracle can reuse for the same arrangement and order.
    """

    c: Fraction
    t: int
    arr: Arrangement = field(repr=False)
    sample: _Planes = field(repr=False, compare=False)

    @cached_property
    def det(self) -> Poly:
        """c * Q^t, multiplied out over the integers.  Read only by the tests
        (against ``det_poly_matrix`` and sympy) and ``perfbench/spans.py``."""
        normals = (h.normal for h in self.arr.hyperplanes for _ in range(self.t))
        c = self.c.numerator if self.c.denominator == 1 else self.c
        return form_product(normals, self.arr.dim) * c

    def to_json(self) -> dict:
        return {"c": str(self.c), "t": self.t}


def saito_check(ops: Sequence[DiffOp | FactoredOp], arr: Arrangement) -> SaitoCertificate:
    """Prove that ``ops`` is a free basis of the order-m module and return c, t
    with det M = c * Q^t, c != 0, for M the Saito matrix of the operators
    (``FactoredOp.op`` for a factored one).  Each operator is read as a pair
    (core theta', cofactor forms) with theta = P * theta', P the product of
    the forms: a ``FactoredOp``'s normalized ``core`` and primitive
    ``cofactor``, or (op, ()) for a plain ``DiffOp``.

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
    3. Every operator is a member at every H, by ``_Planes.violation``
       (``NotMember`` names the first failing plane in input order, and the
       first failing b at the first of its points where one fails).  Where
       alpha_H = x1, theta(x1 * x^b) = (b+e1)! f_(b+e1), so
       membership at H says x1 divides the s_dim(m-1, l) columns f_a with
       a_1 >= 1.  A linear change of coordinates multiplies M by a constant
       invertible matrix, so alpha_H^t divides det M; the alpha_H are
       pairwise coprime, so Q^t does.
       The core's row, scaled to primitive integers, is tested at its own
       degree at the planes of ``arr`` whose normal is not a cofactor form
       (both primitive, first nonzero entry positive: the planes with
       alpha_H not dividing P).  If alpha_H divides P, theta(alpha_H f) =
       P * theta'(alpha_H f) is in alpha_H * S.  If not, S is a UFD and
       alpha_H is prime, so alpha_H divides P * theta'(alpha_H f) exactly
       when it divides theta'(alpha_H f): theta is a member at H exactly
       when theta' is.  The planes come from ``arr`` and the forms from the
       operator itself, so a plane missing from P is tested.
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
    pairs = []
    for i, op in enumerate(ops):
        if (op.nvars, op.order) != (l, m):
            raise DimensionMismatch(f"operator {i} has order {op.order} in {op.nvars} variables, need order {m} in {l}")
        core, cofactor = (op.core, op.cofactor) if isinstance(op, FactoredOp) else (op, ())
        if core.is_zero() or not all(map(any, cofactor)):
            raise ZeroDet(f"operator {i} is zero", i)
        pairs.append((core, cofactor))
    expected = s_dim(m, l)
    if len(ops) != expected:
        raise ZeroDet(f"candidate basis has {len(ops)} operators, need {expected}")
    degrees = [op.degree() for op in ops]
    if None in degrees:
        i = degrees.index(None)
        raise NotPurePower(f"operator {i} has non-homogeneous coefficients", i)

    columns = saito_columns(l, m)
    scale = Fraction(1)
    rows = []
    sample = _Planes(arr, m)
    for i, ((core, cofactor), deg) in enumerate(zip(pairs, degrees)):
        # primitive integer rows (a normalized core has content 1 already)
        row = [core.coeffs[a].terms if a in core.coeffs else {} for a in columns]
        content = rational_content(v for f in row for v in f.values())
        if content != 1:
            row = [{a: int(v / content) for a, v in f.items()} for f in row]
            scale *= content
        skip = frozenset(k for k, h in enumerate(arr) if h.normal in cofactor)
        found = sample.violation(row, deg - len(cofactor), skip)
        if found:
            j, b = found
            raise NotMember(f"operator {i} is not a member at {arr.hyperplanes[j].text()}: theta(alpha_H * x^b) is not in alpha_H * S, b = {b}", i)
        rows.append((row, deg - len(cofactor)))

    n = arr.n
    t = s_dim(m - 1, l) if n else 0
    degree_sum = sum(degrees)
    if degree_sum > n * t:
        raise NotPurePower(f"row degree sum {degree_sum} exceeds n * t = {n} * {t}")

    point = next(p for p in (tuple(k**i for i in range(l)) for k in count()) if not any(h.contains(p) for h in arr))
    indices = {d: _monomial_index(l, d) for _, d in rows}
    at_point = {d: [_int_pow(point, c) for c in index] for d, index in indices.items()}
    det = det_int([_evaluate(_dense(row, indices[d]), at_point[d]) for row, d in rows])
    det *= prod(sum(map(mul, v, point)) for _, cofactor in pairs for v in cofactor)
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
    """``oracle_dim(arr, m, d)`` for d = 0..d_max, computing the contraction
    kernels, the flats and the hyperplane bases once; ``sample`` is a
    ``_Planes`` of the same arrangement and order to draw the points from
    (``SaitoCertificate.sample``), or None to build one."""
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
      ``saito_columns`` order, each made primitive.  A derivation D along H
      has D(alpha_H) = 0, so it commutes with multiplication by alpha_H, and
      a product of m of them maps alpha_H * g, deg g = m-1, to alpha_H * 0.
      The products are independent (the monomials of degree m in a basis of
      H's directions are a basis of Sym^m of them).  Multiplication by
      alpha_H is injective on S_(m-1), and the apolar pairing of order-m
      operators with S_m is perfect, so H's s_dim(m-1, l) rows are
      independent and dim K_H = s_dim(m, l) - s_dim(m-1, l) = s_dim(m, l-1):
      the products span K_H.
    - K_X is the line of delta_X^m, the m-th power of the derivation along
      X's direction w, made primitive.  K_X is the intersection of
      Sym^m(U_H) over the planes H through X, U_H the directions of H.  Two
      planes of a flat (l = 3) have U_1 = <w, u_1> and U_2 = <w, u_2> with
      w, u_1, u_2 a basis, and the monomials in w, u_1, u_2 are a basis of
      Sym^m: the two spans share the line of w^m, which lies in every
      Sym^m(U_H).

    ``_kernels`` builds them and checks every vector against the contraction
    rows of every plane it serves (a product, not an elimination); a failure
    raises ``IdentityViolated`` naming the plane, or the flat and the plane.
    """
    l = arr.dim
    if m < 0:
        return [0] * len(degrees)
    if arr.n == 0 or m == 0:
        return [s_dim(m, l) * s_dim(d, l) for d in degrees]
    if sample is None:
        sample = _Planes(arr, m)
    elif (sample.normals, sample.m) != ([h.normal for h in arr], m):
        raise ValueError("the sample is of another arrangement or order")
    kernels = _kernels(arr, sample)
    return [_oracle_at(arr, d, sample, kernels) for d in degrees]


def _kernels(arr: Arrangement, sample: _Planes) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The contraction kernels of ``_oracle``, in closed form, keyed by the
    planes through a point: K_H at (i,) for every plane, K_X at the planes
    of every flat of two or more; each checked against those planes' rows."""
    l, m = sample.l, sample.m
    columns = saito_columns(l, m)

    def derivations(factors: list[tuple[int, ...]]) -> tuple[int, ...]:
        terms = form_product(factors, l).terms
        return primitive_int_vector([terms.get(a, 0) for a in columns])

    exponents = monomials_of_degree(l - 1, m)
    kernels = {}
    for i, basis in enumerate(sample.basis):
        kernels[(i,)] = [derivations([w for w, e in zip(basis, k) for _ in range(e)]) for k in exponents]
        if any(_broken(sample.contraction[i], vec) is not None for vec in kernels[(i,)]):
            raise IdentityViolated(f"contraction kernel of the plane {arr.hyperplanes[i].text()}: a product of derivations along it breaks its contraction rows")
    for direction, planes in sample.flats:
        if len(planes) > 1:
            kernels[planes] = [derivations([direction] * m)]
            for i in planes:
                if _broken(sample.contraction[i], kernels[planes][0]) is not None:
                    raise IdentityViolated(
                        f"contraction kernel at the flat {direction} of {len(planes)} planes: delta_X^{m} breaks the contraction rows of {arr.hyperplanes[i].text()}"
                    )
    return kernels


def _oracle_at(arr: Arrangement, d: int, sample: _Planes, kernels: dict[tuple[int, ...], list[tuple[int, ...]]]) -> int:
    """Dimension at degree d from the sample's points, grouped by kernel.

    Every hyperplane holds s_dim(d, l-1) distinct points, so a degree-d form
    vanishing at all of them vanishes on every hyperplane: evaluation has
    kernel Q * S_(d-n) (the free part) and rank s_dim(d) - s_dim(d-n), and
    the etas, the relations between point values, number the points minus
    that rank.  A negative count raises ``IdentityViolated``.  At a count of
    0 no eta is computed and no monomial evaluated; the premise is checked
    instead, by counting the sample's points on every plane.  Otherwise the
    etas are an integer kernel basis of the values in ``_Planes.table``,
    and their number is checked against the count.
    """
    l, m = arr.dim, sample.m
    groups = sample.points(d)
    points = [p for group, _ in groups for p in group]
    relations = len(points) - s_dim(d, l) + s_dim(d - arr.n, l)
    if relations < 0:
        raise IdentityViolated(f"{len(points)} points leave {relations} relations between the point values at degree {d}, expected at least 0")
    free_part = s_dim(m, l) * s_dim(d - arr.n, l)
    unknowns = sum(len(group) * len(kernels[planes]) for group, planes in groups)
    if not relations:
        need, distinct = s_dim(d, l - 1), set(points)
        for h in arr:
            on = sum(1 for p in distinct if not sum(map(mul, h.normal, p)))
            if on < need:
                raise IdentityViolated(f"the plane {h.text()} holds {on} of the sample's points at degree {d}, fewer than {need}")
        return free_part + unknowns

    # functionals vanishing on every achievable value pattern
    etas = nullspace_int(sample.table(d)[1], len(points))
    if len(etas) != relations:
        raise IdentityViolated(f"{len(etas)} relations between the point values at degree {d}, expected {relations}")

    # The rows of a group are (eta weights at a point of it) (x) (a vector of
    # its kernel); an echelon basis of its weight block spans the same rows.
    rows: list[list[int]] = []
    start = 0
    for group, planes in groups:
        block = [[eta[pi] for eta in etas] for pi in range(start, start + len(group))]
        start += len(group)
        weights, _ = echelon_int(block, reduce=True)
        rows.extend([wq * wa for wq in e for wa in w] for e in weights for w in kernels[planes])
    return free_part + unknowns - rank_int(rows)


def _int_pow(point: tuple[int, ...], exp: MultiIndex) -> int:
    return prod(map(pow, point, exp))


# -- Hilbert-series consistency ----------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Per-degree comparison of oracle dimensions with the free-module prediction."""

    rows: tuple[tuple[int, int, int], ...]  # (degree, oracle, predicted)
    consistent: bool

    def to_json(self) -> dict:
        return {
            "table": [{"d": d, "dim": dim, "predicted": pred} for d, dim, pred in self.rows],
            "verdict": "consistent" if self.consistent else "inconsistent",
        }


def hilbert_check(arr: Arrangement, m: int, exponents, d_max: int, sample: _Planes | None = None) -> OracleReport:
    """Compare oracle dimensions against sum_i s_{d - e_i} for d <= d_max
    (``sample`` as in ``oracle_dims``)."""
    exps = list(exponents)
    rows = []
    ok = True
    for d, dim in enumerate(oracle_dims(arr, m, d_max, sample)):
        pred = sum(s_dim(d - e, arr.dim) for e in exps)
        rows.append((d, dim, pred))
        ok = ok and dim == pred
    return OracleReport(tuple(rows), ok)


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
        expected = len(base.flats()) + comb(added, 2) + n * added
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
