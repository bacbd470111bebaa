"""Test-side reference implementations that no production path uses."""

from fractions import Fraction
from math import gcd

from arrops.arrangement import Arrangement
from arrops.diffop import DiffOp, power_of_derivation
from arrops.linalg import rank_int
from arrops.polynomial import Poly, form_product, midx_factorial, monomials_of_degree


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
