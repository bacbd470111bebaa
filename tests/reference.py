"""Test-side reference implementations that no production path uses."""

from fractions import Fraction
from math import gcd

from arrops.arrangement import Arrangement
from arrops.diffop import DiffOp, power_of_derivation, saito_columns
from arrops.errors import DimensionMismatch
from arrops.extension import FlatProfile
from arrops.flats import Flat1
from arrops.linalg import nullspace_int, rank_int
from arrops.polynomial import MultiIndex, Poly, form_product, midx_factorial, monomials_of_degree, s_dim


def partial(f: Poly, a: MultiIndex) -> Poly:
    """Apply the monomial differential operator d^a.

    d^a(x^b) = (b! / (b-a)!) x^(b-a) when b >= a componentwise, else 0.
    """
    if len(a) != f.nvars:
        raise DimensionMismatch(f"multi-index {a} for {f.nvars} variables")
    out: dict[MultiIndex, Fraction | int] = {}
    for b, c in f.terms.items():
        if any(bi < ai for bi, ai in zip(b, a)):
            continue
        coeff = 1
        for bi, ai in zip(b, a):
            for t in range(bi, bi - ai, -1):
                coeff *= t
        k = tuple(bi - ai for bi, ai in zip(b, a))
        out[k] = out.get(k, 0) + c * coeff
    return Poly(f.nvars, out)


def apply(theta: DiffOp, f: Poly) -> Poly:
    """Apply the operator to a polynomial."""
    if f.nvars != theta.nvars:
        raise DimensionMismatch("operator and polynomial variable counts differ")
    out = Poly.zero(theta.nvars)
    for a, coeff in theta.coeffs.items():
        out = out + coeff * partial(f, a)
    return out


def dual_derivations(flat: Flat1) -> list[tuple[Fraction, ...]]:
    """Constant derivations dual to the flat's coordinate forms.

    Rows are coefficient vectors w with (sum w_k d_k)(form_j) = delta_ij;
    the last row always equals the flat direction.
    """
    _, duals, scale = flat.integer_frame()
    return [tuple(v * scale for v in w) for w in duals]


def off_flat_product(profile: FlatProfile) -> Poly:
    """The extended cofactor of a flat: the product of the extended
    hyperplanes avoiding it, multiplied out."""
    return form_product((h.normal for h in profile.off_flat), profile.flat.dim)


def base_off_flat_product(profile: FlatProfile) -> Poly:
    """The base cofactor of a flat: the product of the base hyperplanes
    avoiding it, multiplied out."""
    return form_product((h.normal for h in profile.base_off_flat), profile.flat.dim)


def localization(arr: Arrangement, direction) -> Arrangement:
    """The hyperplanes of ``arr`` through ``direction``, input order."""
    return Arrangement(arr.dim, [arr.hyperplanes[i] for i in arr.localization_indices(direction)])


def substitute(f: Poly, images: list[Poly]) -> Poly:
    """f evaluated at x_i = images[i] (all in a common ring)."""
    assert len(images) == f.nvars
    out = Poly.zero(images[0].nvars)
    for a, c in f.terms.items():
        term = Poly.constant(images[0].nvars, c)
        for image, e in zip(images, a):
            term = term * image**e
        out = out + term
    return out


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
        reduced = {c: substitute(Poly(l, {c: Fraction(1)}), images) for c in mon_d}
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


def contraction_kernels(sample) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The oracle's contraction kernels by elimination, keyed as
    ``verify._kernels``: ``nullspace_int`` of each plane's contraction rows
    at (i,), and of the stacked rows of a flat's two or more planes."""
    size = s_dim(sample.m, sample.l)
    dense = []
    for slots in sample.contraction:  # (columns, weights) of every row, per slot
        rows = [[0] * size for _ in slots[0][0]]
        for cols, weights in slots:
            for row, k, w in zip(rows, cols, weights):
                row[k] = w
        dense.append(rows)
    kernels = {(i,): nullspace_int(rows, size) for i, rows in enumerate(dense)}
    for _, planes in sample.flats:
        if len(planes) > 1:
            kernels[planes] = nullspace_int([row for i in planes for row in dense[i]], size)
    return kernels


def convert_2var_op(op2: DiffOp, forms: list[tuple[int, ...]], duals: list[tuple[int, ...]]) -> DiffOp:
    """Rewrite a 2-variable operator in ambient coordinates: coefficients are
    composed with the coordinate forms, and the two partial derivatives
    become the derivations ``duals``, which commute, so powers expand
    multinomially."""
    nvars = len(forms[0])
    images = [form_product([f], nvars) for f in forms]
    total = DiffOp(nvars, op2.order)
    for a, g in op2.coeffs.items():
        const = power_of_derivation(duals[0], a[0], nvars).compose_constant(power_of_derivation(duals[1], a[1], nvars))
        total = total + const.mul_poly(substitute(g, images))
    return total


def saito_matrix(ops: list[DiffOp]) -> list[list[Poly]]:
    """The coefficient matrix of multiplied-out operators, one row per
    operator, columns in ``saito_columns`` order."""
    zero = Poly.zero(ops[0].nvars)
    return [[op.coeffs.get(a, zero) for a in saito_columns(op.nvars, op.order)] for op in ops]
