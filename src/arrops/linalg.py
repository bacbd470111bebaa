"""Exact linear algebra over the rationals, the integers and the polynomial ring.

Everything here is deterministic: columns are processed in the order given
(callers fix column semantics, typically graded-lex on multi-indices), and
pivot rows are chosen by fixed tie-breaking rules, so repeated runs produce
bit-identical results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotDivisible
from .polynomial import Poly

Row = list[Fraction]


def rref(rows: list[Row], ncols: int) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: list[Row], ncols: int) -> int:
    return len(rref(rows, ncols)[1])


def nullspace(rows: list[Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Deterministic kernel basis: one vector per free column, in column order."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[free]
        basis.append(tuple(vec))
    return basis


def invert(matrix: list[Row]) -> list[Row]:
    """Inverse of a square rational matrix."""
    n = len(matrix)
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(matrix)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Rows are gcd-stripped after every update to keep entries small; pivot
    choice is the sparsest candidate row (ties by smallest |pivot|, then
    row order), which is deterministic and controls fill-in.
    """
    work = [_strip([int(v) for v in r]) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    rk = 0
    for c in range(ncols):
        cands = [(sum(1 for v in r if v), abs(r[c]), i) for i, r in enumerate(work) if i >= rk and r[c]]
        if not cands:
            continue
        _, _, pr = min(cands)
        work[rk], work[pr] = work[pr], work[rk]
        piv_row = work[rk]
        p = piv_row[c]
        for i in range(rk + 1, len(work)):
            row = work[i]
            v = row[c]
            if v:
                work[i] = _strip([p * a - v * b for a, b in zip(row, piv_row)])
        rk += 1
        work = work[:rk] + [r for r in work[rk:] if any(r)]
        if rk == len(work) or rk == ncols:
            break
    return rk


def _strip(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return row
    return row if g <= 1 else [v // g for v in row]


def det_int(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every intermediate entry is a minor of the input, so each
    division by the previous pivot is exact."""
    work = [list(row) for row in matrix]
    n = len(work)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not work[k][k]:
            pr = next((i for i in range(k + 1, n) if work[i][k]), None)
            if pr is None:
                return 0
            work[k], work[pr] = work[pr], work[k]
            sign = -sign
        piv_row = work[k]
        piv = piv_row[k]
        for i in range(k + 1, n):
            row = work[i]
            v = row[k]
            work[i] = row[: k + 1] + [(piv * a - v * b) // prev for a, b in zip(row[k + 1 :], piv_row[k + 1 :])]
        prev = piv
    return sign * work[n - 1][n - 1] if n else 1


# -- determinants of polynomial matrices --------------------------------


def det_cofactor(matrix: list[list[Poly]]) -> Poly:
    """Determinant by Laplace expansion along the first row."""
    n = len(matrix)
    nvars = matrix[0][0].nvars
    if n == 1:
        return matrix[0][0]
    total = Poly.zero(nvars)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        sub = entry * det_cofactor(minor)
        total = total + (sub if j % 2 == 0 else -sub)
    return total


def det_poly_matrix(matrix: list[list[Poly]]) -> Poly:
    """Exact determinant of a square polynomial matrix (test-side reference
    for ``verify.saito_check``, which never expands a determinant).

    Sizes up to 4 use cofactor expansion; larger matrices use fraction-free
    (Bareiss) elimination, whose intermediate entries are minors of the
    input, with the rational content of each row stripped up front and
    restored at the end.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
    if n <= 4:
        return det_cofactor(matrix)

    scale = Fraction(1)
    work: list[list[Poly]] = []
    for row in matrix:
        c = Fraction(0)
        for entry in row:
            ec = entry.content()
            num = gcd(c.numerator, ec.numerator)
            den = c.denominator * ec.denominator // gcd(c.denominator, ec.denominator)
            c = Fraction(num, den)
        if c == 0:
            return Poly.zero(nvars)
        scale *= c
        inv = 1 / c
        work.append([entry * inv for entry in row])

    sign = 1
    prev = Poly.constant(nvars, 1)
    for k in range(n - 1):
        cands = [(len(work[i][k].terms), i) for i in range(k, n) if not work[i][k].is_zero()]
        if not cands:
            return Poly.zero(nvars)
        pr = min(cands)[1]
        if pr != k:
            work[k], work[pr] = work[pr], work[k]
            sign = -sign
        piv = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = piv * work[i][j] - work[i][k] * work[k][j]
                try:
                    work[i][j] = num.exact_div(prev)
                except NotDivisible as exc:  # Bareiss guarantees divisibility
                    raise AssertionError("fraction-free elimination lost exactness") from exc
            work[i][k] = Poly.zero(nvars)
        prev = piv
    return work[n - 1][n - 1] * (scale * sign)
