"""Independent verification: membership, determinant certificates, dimension oracle.

One definition of membership serves the certificate and the oracle: an
order-m operator theta = sum_a f_a d^a is a member when, for every hyperplane H and
monomial x^b of degree m-1, theta(alpha_H * x^b) is in alpha_H * S, i.e. when

    sum_i  c_i (b + e_i)!  f_{b+e_i}        (c = normal of H)

vanishes on H (``_contraction_rows``).  A degree-d form vanishes on H
exactly when it vanishes at the integer points of ``_hyperplane_points``: one
point of a line, or, on a plane with basis (u, v), s*u + t*v for the d + 1
coprime pairs (s, t) of smallest height (distinct projective points).

The certificate (``saito_check``) evaluates these conditions for every
candidate operator, then takes one integer determinant.  The oracle computes
the exact dimension of the degree-d slice of the module: the same conditions
make it an integer linear system in the coefficient unknowns.  Its fast path
also quotients out the value patterns that polynomials realize, which
shrinks the elimination to matrices indexed by points and multi-indices;
``oracle_dim_direct`` keeps the literal coefficient-space system as a
cross-check.  The fast path is integer elimination only
(``linalg.echelon_int``): the functionals eta that vanish on realized value
patterns, the contraction kernels and the hyperplane bases are integer kernel
bases, and the dimension comes from one integer rank.  The rows of hyperplane
H are the Kronecker products (weights of the etas at a point of H) (x) (a
contraction kernel vector of H); the weight block of H is first reduced to an
echelon basis, which spans the same rows with fewer of them (the block has
d + 1 rows on a plane but rank at most about n - 1).  ``oracle_dims`` answers
every degree up to d_max in one call and computes the contraction kernels and
hyperplane bases once; nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import comb, gcd, prod
from operator import add, mul

from .arrangement import Arrangement, Hyperplane
from .diffop import DiffOp, saito_matrix
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
    rational_content,
    s_dim,
)


# -- membership ---------------------------------------------------------------


def is_member(theta: DiffOp, arr: Arrangement) -> bool:
    """Exact membership test: theta(alpha_H * x^b) in alpha_H * S for all H, b;
    the certificate's test on each homogeneous component (the module is graded)."""
    if theta.nvars != arr.dim:
        raise DimensionMismatch(f"operator has {theta.nvars} variables, the arrangement {arr.dim}")
    columns = monomials_of_degree(arr.dim, theta.order)
    components: dict[int, list[dict[MultiIndex, Fraction | int]]] = {}
    for k, a in enumerate(columns):
        for c, v in theta.coeffs[a].terms.items() if a in theta.coeffs else ():
            components.setdefault(sum(c), [{} for _ in columns])[k][c] = v
    test = _Membership(arr, theta.order)
    return not any(test.violation(test.dense(row, d), d) for d, row in components.items())


class _Membership:
    """The order-m membership conditions of ``arr`` at the points of each H.
    A row is one operator's coefficients f_a (term dicts, integer or rational)
    in ``saito_matrix`` column order, homogeneous of degree d."""

    def __init__(self, arr: Arrangement, m: int):
        self.l = arr.dim
        self.planes = list(arr) if m > 0 else []  # order 0 has no conditions
        self.bs = monomials_of_degree(self.l, m - 1)
        self.lines = [nullspace_int([list(h.normal)], self.l) for h in self.planes]
        self.slots, self.reads, self.tables = [], [], {}
        for h in self.planes:
            # row b has one entry per nonzero c_i, at column b + e_i; slot j
            # holds the j-th entry of every row, as (columns, weights)
            rows = _contraction_rows(h.normal, m)
            entries = ([(k, w) for k, w in enumerate(row) if w] for row in rows)
            self.slots.append([[list(v) for v in zip(*slot)] for slot in zip(*entries)])
            self.reads.append([any(col) for col in zip(*rows)])

    def dense(self, row: list[dict[MultiIndex, int]], d: int) -> list[list[int] | None]:
        """Each f_a as a list over the degree-d monomials, None if zero."""
        if d not in self.tables:
            monos = monomials_of_degree(self.l, d)
            groups = _hyperplane_points(self.lines, d) if self.lines else []
            values = [[[_int_pow(p, c) for c in monos] for p in group] for group in groups]
            self.tables[d] = ({c: i for i, c in enumerate(monos)}, values)
        index = self.tables[d][0]
        out = []
        for f in row:
            vec = [0] * len(index) if f else None
            for c, v in f.items():
                vec[index[c]] = v
            out.append(vec)
        return out

    def violation(self, dense: list[list[int] | None], d: int) -> tuple[Hyperplane, MultiIndex] | None:
        """The first (H, b) whose condition a ``dense`` row of degree d breaks."""
        for h, slots, reads, points in zip(self.planes, self.slots, self.reads, self.tables[d][1]):
            for values in points:
                at = [sum(map(mul, vec, values)) if vec and r else 0 for vec, r in zip(dense, reads)]
                total = [0] * len(self.bs)
                for cols, weights in slots:
                    total = list(map(add, total, map(mul, weights, map(at.__getitem__, cols))))
                if any(total):
                    return h, self.bs[next(i for i, v in enumerate(total) if v)]
        return None


# -- determinant certificate ----------------------------------------------------


@dataclass(frozen=True)
class SaitoCertificate:
    """det = c * Q^t witness that a candidate set is a free basis.

    Only c and t are certified; ``det`` expands c * Q^t on first access.
    """

    c: Fraction
    t: int
    arr: Arrangement = field(repr=False)

    @cached_property
    def det(self) -> Poly:
        """c * Q^t, multiplied out one linear factor at a time over the integers."""
        normals = (h.normal for h in self.arr.hyperplanes for _ in range(self.t))
        return form_product(normals, self.arr.dim) * self.c

    def to_json(self) -> dict:
        return {"c": str(self.c), "t": self.t, "det": self.det.text()}


def saito_check(ops: list[DiffOp], arr: Arrangement) -> SaitoCertificate:
    """Prove that ``ops`` is a free basis of the order-m module and return c, t
    with det M = c * Q^t, c != 0, for M = saito_matrix(ops).

    Saito's criterion in Holm's version for order m: members with
    det M = c * Q^t, c != 0 and t = s_dim(m-1, l), form a basis.  The checks
    run in this order; operators whose variable count or order differs from
    the arrangement's and ops[0]'s raise ``DimensionMismatch``, and every
    other failure raises a ``SaitoFailed`` (with ``index`` set when its
    message names an operator):

    1. No operator is zero, and there are s_dim(m, l) of them (``ZeroDet``).
    2. Every row of M is homogeneous (``NotPurePower``).
    3. Every operator is a member at every H (``NotMember``).  Where
       alpha_H = x1, theta(x1 * x^b) = (b+e1)! f_(b+e1), so membership at H
       says x1 divides the s_dim(m-1, l) columns f_a with a_1 >= 1.  A linear
       change of coordinates multiplies M by a constant invertible matrix, so
       alpha_H^t divides det M; the alpha_H are pairwise coprime, so Q^t does.
    4. The row degree sum, deg det M, is at most n * t (``NotPurePower``).  A
       smaller sum forces det M = 0, which step 5 reports.
    5. So det M = c * Q^t with c constant, and c = det M(p) / Q(p)^t at the
       first p = (1, k, k^2, ...) off every plane (a plane meets this curve
       at most l - 1 times, so k <= n * (l - 1)).  det M(p) is one integer
       Bareiss determinant of the primitive rows; c = 0 raises ``ZeroDet``.

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

    scale = Fraction(1)
    rows = []
    membership = _Membership(arr, m)
    for i, (row, deg) in enumerate(zip(saito_matrix(ops), degrees)):
        # primitive integer rows (assembled operators have content 1 already)
        ints = [f.terms for f in row]
        content = rational_content(v for f in ints for v in f.values())
        if content != 1:
            ints = [{a: int(v / content) for a, v in f.items()} for f in ints]
            scale *= content
        rows.append(membership.dense(ints, deg))
        found = membership.violation(rows[-1], deg)
        if found:
            h, b = found
            raise NotMember(f"operator {i} is not a member at {h.text()}: theta(alpha_H * x^b) is not in alpha_H * S, b = {b}", i)

    n = arr.n
    t = s_dim(m - 1, l) if n else 0
    degree_sum = sum(degrees)
    if degree_sum > n * t:
        raise NotPurePower(f"row degree sum {degree_sum} exceeds n * t = {n} * {t}")

    point = next(p for p in (tuple(k**i for i in range(l)) for k in count()) if not any(h.contains(p) for h in arr))
    values = {d: [_int_pow(point, c) for c in monomials_of_degree(l, d)] for d in set(degrees)}
    matrix = [[sum(map(mul, vec, values[d])) if vec else 0 for vec in row] for row, d in zip(rows, degrees)]
    det = det_int(matrix)
    if not det:
        raise ZeroDet("candidate basis matrix is singular")
    q = prod(sum(map(mul, h.normal, point)) for h in arr)
    return SaitoCertificate(scale * Fraction(det, q**t), t, arr)


# -- dimension oracle -------------------------------------------------------------


def _hyperplane_points(lines: list[list[tuple[int, ...]]], d: int) -> list[list[tuple[int, ...]]]:
    """Deterministic integer points on each hyperplane, enough to separate
    restricted degree-d polynomials: the basis vector of a line, or the
    points s*u + t*v on a plane with basis (u, v) for the d + 1 projective
    pairs (s, t) of smallest height (distinct points of the projective line,
    so a degree-d binary form vanishing at all of them is zero)."""
    if len(lines[0]) == 1:
        return [basis[:1] for basis in lines]
    pairs = _projective_pairs(d + 1)
    return [[tuple(s * a + t * b for a, b in zip(u, v)) for s, t in pairs] for u, v in lines]


def _projective_pairs(count: int) -> list[tuple[int, int]]:
    """The first ``count`` coprime pairs (s, t), one per point of the projective
    line, by height max(|s|, |t|): (1, 0), (0, 1), (1, 1), (1, -1), (1, 2),
    (1, -2), (2, 1), (2, -1), (1, 3), ..."""
    pairs = [(1, 0), (0, 1)]
    h = 1
    while len(pairs) < count:
        pairs += [(s, t) for s in range(1, h + 1) if gcd(s, h) == 1 for t in (h, -h)]
        pairs += [(h, t) for u in range(1, h) if gcd(h, u) == 1 for t in (u, -u)]
        h += 1
    return pairs[:count]


def _contraction_rows(normal: tuple[int, ...], m: int) -> list[list[int]]:
    """One row per b of degree m-1, in ``monomials_of_degree`` order, over the
    order-m multi-indices a: the weights c_i (b + e_i)! of the combination
    sum_i c_i (b + e_i)! f_{b+e_i} that vanishes on H for a member."""
    l = len(normal)
    a_idx = monomials_of_degree(l, m)
    col = {a: i for i, a in enumerate(a_idx)}
    rows = []
    for b in monomials_of_degree(l, m - 1):
        row = [0] * len(a_idx)
        for i, c in enumerate(normal):
            if c:
                a = tuple(b[k] + (k == i) for k in range(l))
                row[col[a]] += c * midx_factorial(a)
        rows.append(row)
    return rows


def oracle_dim(arr: Arrangement, m: int, d: int) -> int:
    """Exact dimension of the space of order-m members with degree-d coefficients."""
    if d < 0:
        return 0
    return _oracle(arr, m, [d])[0]


def oracle_dims(arr: Arrangement, m: int, d_max: int) -> list[int]:
    """``oracle_dim(arr, m, d)`` for d = 0..d_max, computing the contraction
    kernels and the hyperplane bases once."""
    return _oracle(arr, m, list(range(d_max + 1)))


def _oracle(arr: Arrangement, m: int, degrees: list[int]) -> list[int]:
    """The degree-independent data once, then the dimension at each degree."""
    l = arr.dim
    if m < 0:
        return [0] * len(degrees)
    if arr.n == 0 or m == 0:
        return [s_dim(m, l) * s_dim(d, l) for d in degrees]
    lines = [nullspace_int([list(h.normal)], l) for h in arr.hyperplanes]
    kernels = [nullspace_int(_contraction_rows(h.normal, m), s_dim(m, l)) for h in arr.hyperplanes]
    kappa = s_dim(m, l) - s_dim(m - 1, l)
    if any(len(basis) != kappa for basis in kernels):
        raise IdentityViolated("contraction kernel has unexpected dimension")
    return [_oracle_at(arr, m, d, lines, kernels) for d in degrees]


def _oracle_at(
    arr: Arrangement, m: int, d: int, lines: list[list[tuple[int, ...]]], kernels: list[list[tuple[int, ...]]]
) -> int:
    """Dimension at degree d from the per-hyperplane bases and contraction kernels."""
    l = arr.dim
    groups = _hyperplane_points(lines, d)
    points = [p for group in groups for p in group]
    mon_d = monomials_of_degree(l, d)
    # functionals vanishing on every achievable value pattern
    transpose = [[_int_pow(p, c) for p in points] for c in mon_d]
    etas = nullspace_int(transpose, len(points))

    free_part = s_dim(m, l) * s_dim(d - arr.n, l)
    kappa = len(kernels[0])
    if not etas:
        return free_part + len(points) * kappa

    # The rows of hyperplane H are (eta weights at a point of H) (x) (a kernel
    # vector of H); an echelon basis of H's weight block spans the same rows.
    rows: list[list[int]] = []
    start = 0
    for group, kernel in zip(groups, kernels):
        block = [[eta[pi] for eta in etas] for pi in range(start, start + len(group))]
        start += len(group)
        weights, _ = echelon_int(block, reduce=True)
        rows.extend([wq * wa for wq in e for wa in w] for e in weights for w in kernel)
    return free_part + len(points) * kappa - rank_int(rows)


def _int_pow(point: tuple[int, ...], exp: MultiIndex) -> int:
    v = 1
    for x, e in zip(point, exp):
        if e:
            v *= x**e
    return v


def oracle_dim_direct(arr: Arrangement, m: int, d: int) -> int:
    """Literal coefficient-space formulation (small instances; cross-check)."""
    l = arr.dim
    if d < 0 or m < 0:
        return 0
    mon_m = monomials_of_degree(l, m)
    mon_d = monomials_of_degree(l, d)
    col = {(a, c): i * len(mon_d) + ci for i, a in enumerate(mon_m) for ci, c in enumerate(mon_d)}
    ncols = len(mon_m) * len(mon_d)
    if m == 0 or arr.n == 0:
        return ncols

    rows: list[list[Fraction]] = []
    for h in arr.hyperplanes:
        normal = h.normal
        p = next(i for i, c in enumerate(normal) if c)
        # substitution x_p -> -(sum_{i != p} c_i x_i) / c_p realizes reduction mod alpha_H
        images = []
        for i in range(l):
            if i == p:
                images.append(
                    Poly(l, {tuple(int(k == i2) for k in range(l)): Fraction(-normal[i2], normal[p]) for i2 in range(l) if i2 != p})
                )
            else:
                images.append(Poly.variable(l, i))
        reduced = {c: Poly(l, {c: Fraction(1)}).substitute(images) for c in mon_d}
        reduced_monomials = sorted({mono for poly in reduced.values() for mono in poly.terms}, reverse=True)
        rmcol = {mono: i for i, mono in enumerate(reduced_monomials)}
        for b in monomials_of_degree(l, m - 1):
            block = [[Fraction(0)] * ncols for _ in reduced_monomials]
            for i in range(l):
                if normal[i] == 0:
                    continue
                a = tuple(b[k] + (k == i) for k in range(l))
                w = Fraction(normal[i] * midx_factorial(a))
                for c in mon_d:
                    for mono, cv in reduced[c].terms.items():
                        block[rmcol[mono]][col[(a, c)]] += w * cv
            rows.extend(block)

    int_rows = []
    for row in rows:
        if any(row):
            den = 1
            for v in row:
                den = den * v.denominator // gcd(den, v.denominator)
            int_rows.append([int(v * den) for v in row])
    return ncols - rank_int(int_rows)


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


def hilbert_check(arr: Arrangement, m: int, exponents, d_max: int) -> OracleReport:
    """Compare oracle dimensions against sum_i s_{d - e_i} for d <= d_max."""
    exps = list(exponents)
    rows = []
    ok = True
    for d, dim in enumerate(oracle_dims(arr, m, d_max)):
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
    full = ext.full
    m = ext.m
    profiles = ext.profiles

    lhs_rank = s_dim(m, 3)
    rhs_rank = sum(s_dim(p.max_order, 3) for p in profiles)

    n = base.n
    n_full = full.n
    lhs_pairs = (n_full - 1) * n
    rhs_pairs = sum((len(p.flat.local_indices) - 1) * p.base_local_count for p in profiles)

    report = {
        "rank_identity": {"lhs": lhs_rank, "rhs": rhs_rank, "ok": lhs_rank == rhs_rank},
        "pair_identity": {"lhs": lhs_pairs, "rhs": rhs_pairs, "ok": lhs_pairs == rhs_pairs},
    }

    if ext.condition_a:
        added = n_full - n
        expected = len(base.flat_directions()) + comb(added, 2) + n * added
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
