"""Independent verification: membership, determinant certificates, dimension oracle.

The determinant certificate proves det M = c * Q^t, c != 0, for the
coefficient matrix M of a candidate basis without expanding det M: rows are
stripped of the hyperplane forms that divide them, and the remaining
identity between homogeneous polynomials is checked at every point of a
principal lattice, which is unisolvent (Chung and Yao, 1977), by integer
Bareiss determinants (see ``saito_check``).

The oracle computes the exact dimension of the degree-d slice of the order-m
operator module.  The defining conditions say that for every hyperplane H
and every monomial x^b of degree m-1 the combination

    sum_i  c_i (b + e_i)!  f_{b+e_i}        (c = normal of H)

is divisible by the form of H, i.e. vanishes on H.  Vanishing of a degree-d
polynomial on H is equivalent to vanishing at finitely many fixed rational
points of H (enough points to separate the restricted monomials), so the
whole system is an exact rational linear system in the coefficient unknowns.
The production path additionally quotients out the subspace of value
patterns realized by polynomials, which shrinks the elimination to matrices
indexed by points and multi-indices; ``oracle_dim_direct`` keeps the literal
coefficient-space formulation and is used to cross-check the fast path.

The fast path is integer elimination only (``linalg.echelon_int``): the
functionals eta that vanish on realized value patterns, the contraction
kernels and the hyperplane bases are integer kernel bases, and the dimension
comes from one integer rank.  The rows of hyperplane H are the Kronecker
products (weights of the etas at a point of H) (x) (a contraction kernel
vector of H); the weight block of H is first reduced to an echelon basis,
which spans the same rows with fewer of them (the block has d + 1 rows on a
plane but rank at most about n - 1).  ``oracle_dims`` answers every degree up to d_max
in one call and computes the contraction kernels and hyperplane bases once;
nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd

from .arrangement import Arrangement
from .diffop import DiffOp, saito_matrix
from .errors import (
    IdentityViolated,
    NotDivisible,
    NotEssential,
    NotPurePower,
    ZeroDet,
)
from .extension import ExtendedArrangement, flat_profiles
from .linalg import det_int, echelon_int, nullspace_int, rank_int
from .polynomial import (
    MultiIndex,
    Poly,
    midx_factorial,
    monomials_of_degree,
    s_dim,
)


# -- membership ---------------------------------------------------------------


def is_member(theta: DiffOp, arr: Arrangement) -> bool:
    """Exact membership test: theta(alpha_H * x^b) in alpha_H * S for all H, b."""
    if theta.order == 0:
        return True
    if theta.nvars != arr.dim:
        raise NotDivisible("operator and arrangement dimensions differ")
    for h in arr.hyperplanes:
        alpha = h.poly()
        for b in monomials_of_degree(arr.dim, theta.order - 1):
            value = theta.apply(alpha * Poly(arr.dim, {b: Fraction(1)}))
            if value.is_zero():
                continue
            if not alpha.divides(value):
                return False
    return True


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
        terms = {(0,) * self.arr.dim: 1}
        for h in self.arr.hyperplanes:
            units = [(i, v) for i, v in enumerate(h.normal) if v]
            for _ in range(self.t):
                out: dict[MultiIndex, int] = {}
                for a, v in terms.items():
                    for i, ci in units:
                        b = (*a[:i], a[i] + 1, *a[i + 1 :])
                        out[b] = out.get(b, 0) + v * ci
                terms = out
        return Poly(self.arr.dim, {a: self.c * v for a, v in terms.items()})

    def to_json(self) -> dict:
        return {"c": str(self.c), "t": self.t, "det": self.det.text()}


def saito_check(ops: list[DiffOp], arr: Arrangement) -> SaitoCertificate:
    """Certify det M = c * Q^t with c != 0 for M = saito_matrix(ops), exactly
    and without expanding the determinant.

    1. Strip: divide each row of M by each alpha_H as often as alpha_H divides
       every entry, and add the multiplicities into E_H.  By multilinearity
       det M = prod_H alpha_H^E_H * det M'.
    2. Every row is homogeneous, so det M' is homogeneous of degree D', the
       sum of the stripped row degrees; the claim left to prove is
       det M' = c * prod_H alpha_H^(t - E_H) with t = (sum of row degrees) / n.
    3. Evaluate both sides at the points (1, a) with a in N^(l-1), |a| <= D'.
       Setting x1 = 1 is injective on homogeneous polynomials of degree D',
       and this principal lattice is unisolvent for polynomials of degree
       <= D' (Chung-Yao 1977), so agreement at every point proves the
       identity.  Each value of det M' is an integer Bareiss determinant
       after the rows are scaled to primitive integer rows.
    4. c comes from a point where the right-hand side is nonzero, which
       unisolvence guarantees exists.

    No floating point and no randomness: a passing check is a proof.
    """
    if not ops:
        raise ZeroDet("empty candidate basis")
    order = ops[0].order
    l = arr.dim
    expected = s_dim(order, l)
    if len(ops) != expected:
        raise ZeroDet(f"candidate basis has {len(ops)} operators, need {expected}")

    alphas = [h.poly() for h in arr.hyperplanes]
    strips = [0] * len(alphas)
    degree_sum = 0
    scale = Fraction(1)
    rows: list[list[list[tuple[MultiIndex, int]]]] = []
    residual_degree = 0
    for i, (op, row) in enumerate(zip(ops, saito_matrix(ops))):
        if op.is_zero():
            raise ZeroDet(f"operator {i} is zero")
        deg = op.degree()
        if deg is None:
            raise NotPurePower(f"operator {i} has non-homogeneous coefficients")
        degree_sum += deg
        for hi, alpha in enumerate(alphas):
            while deg:
                try:
                    row = [f.exact_div(alpha) for f in row]
                except NotDivisible:
                    break
                strips[hi] += 1
                deg -= 1
        residual_degree += deg
        content = _row_content(row)
        scale *= content
        rows.append([[(a, int(v / content)) for a, v in f.terms.items()] for f in row])

    points = [(1, *a[1:]) for a in monomials_of_degree(l, residual_degree)]
    dets = [det_int([[_int_value(f, p) for f in row] for row in rows]) for p in points]
    if not any(dets):
        raise ZeroDet("candidate basis matrix is singular")

    n = arr.n
    if n == 0:
        if degree_sum:
            raise NotPurePower("determinant of an empty-arrangement basis must be constant")
        t = 0
    else:
        t, rest = divmod(degree_sum, n)
        if rest:
            raise NotPurePower(f"row degree sum {degree_sum} is not a multiple of n = {n}")
    for h, e in zip(arr.hyperplanes, strips):
        if e > t:
            raise NotPurePower(f"hyperplane {h.text()} divides the rows {e} times, more than t = {t}")

    rhs = [_rhs_value(arr, strips, t, p) for p in points]
    k0 = next(k for k, v in enumerate(rhs) if v)  # exists: the lattice is unisolvent
    for p, d, r in zip(points, dets, rhs):
        if d * rhs[k0] != dets[k0] * r:
            raise NotPurePower(f"determinant is not c * Q^{t}: the stripped rows disagree at the point {p}")
    return SaitoCertificate(scale * Fraction(dets[k0], rhs[k0]), t, arr)


def _row_content(row: list[Poly]) -> Fraction:
    """Positive rational c with every entry of row / c integer and coprime."""
    num, den = 0, 1
    for f in row:
        for v in f.terms.values():
            num = gcd(num, v.numerator)
            den = den * v.denominator // gcd(den, v.denominator)
    return Fraction(num, den)


def _int_value(terms: list[tuple[MultiIndex, int]], point: tuple[int, ...]) -> int:
    return sum(v * _int_pow(point, a) for a, v in terms)


def _rhs_value(arr: Arrangement, strips: list[int], t: int, point: tuple[int, ...]) -> int:
    """prod_H alpha_H(point)^(t - E_H)."""
    out = 1
    for h, e in zip(arr.hyperplanes, strips):
        out *= sum(c * x for c, x in zip(h.normal, point)) ** (t - e)
    return out


# -- dimension oracle -------------------------------------------------------------


def _hyperplane_points(lines: list[list[tuple[int, ...]]], d: int) -> list[list[tuple[int, ...]]]:
    """Deterministic integer points on each hyperplane, enough to separate
    restricted degree-d polynomials: the basis vector of a line, or d + 1
    points u + t*v on a plane with basis (u, v)."""
    if len(lines[0]) == 1:
        return [basis[:1] for basis in lines]
    return [[tuple(a + t * b for a, b in zip(u, v)) for t in range(d + 1)] for u, v in lines]


def _contraction_kernel(normal: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Integer basis of the operators of order m killed by contraction with the normal."""
    l = len(normal)
    a_idx = monomials_of_degree(l, m)
    col = {a: i for i, a in enumerate(a_idx)}
    rows = []
    for b in monomials_of_degree(l, m - 1):
        row = [0] * len(a_idx)
        for i in range(l):
            if normal[i] == 0:
                continue
            a = tuple(b[k] + (k == i) for k in range(l))
            row[col[a]] += normal[i] * midx_factorial(a)
        rows.append(row)
    return nullspace_int(rows, len(a_idx))


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
    kernels = [_contraction_kernel(h.normal, m) for h in arr.hyperplanes]
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
    profiles = flat_profiles(ext)

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
