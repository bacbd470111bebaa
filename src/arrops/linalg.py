"""Exact linear algebra over the rationals, the integers and the polynomial ring.

- Rationals: ``rref``, ``rank`` and ``nullspace``, the tests' reference for
  the integer kernel; no production path uses them.
- Integers: ``echelon_int`` is one fraction-free elimination kernel (primitive
  rows, sparsest-row pivots); ``rank_int`` and ``nullspace_int`` are built
  on it and serve arrangement kernels, the certificate's hyperplane lines
  and the dimension oracle, and ``dual_pair`` inverts with it.  ``det_int``
  is a Bareiss determinant for the determinant certificate.
- Polynomials: ``det_poly_matrix``, the tests' reference determinant.

Everything here is deterministic: columns are processed in the order given
(callers fix column semantics, typically graded-lex on multi-indices), and
pivot rows are chosen by fixed tie-breaking rules, so repeated runs produce
bit-identical results.  There is no floating point and no modular step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotDivisible
from .polynomial import Poly, rational_content

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


def echelon_int(rows: list[list[int]], reduce: bool = False) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (rows, pivot columns): one primitive integer row per pivot
    column, zero left of its pivot.  With ``reduce`` every row is also zero
    in the other rows' pivot columns.  Columns are eliminated in order; the
    pivot row of a column is the sparsest candidate (ties by smallest
    |pivot|, then row order), which is deterministic and controls fill-in.
    An update ``a*row - b*pivot_row`` uses the pivot and the entry divided by
    their gcd, and the result is divided by its content.
    """
    active: list[list[int]] = []
    counts: list[int] = []
    for r in rows:
        r = list(r)
        nz = len(r) - r.count(0)
        if nz:
            active.append(_strip(r))
            counts.append(nz)
    if not active:
        return [], []
    out: list[list[int]] = []
    pivots: list[int] = []
    for c in range(len(active[0])):
        hits = [i for i, r in enumerate(active) if r[c]]
        if not hits:
            continue
        best = min(hits, key=lambda i: (counts[i], abs(active[i][c]), i))
        piv_row = active[best]
        p = piv_row[c]
        piv_tail = piv_row[c + 1 :]
        for i in hits:
            if i == best:
                continue
            row = active[i]
            tail = _combine(row[c + 1 :], piv_tail, p, row[c])
            counts[i] = len(tail) - tail.count(0)
            active[i] = [0] * (c + 1) + tail
        out.append(piv_row)
        pivots.append(c)
        keep = [i for i, n in enumerate(counts) if n and i != best]
        active = [active[i] for i in keep]
        counts = [counts[i] for i in keep]
        if not active:
            break
    if reduce:
        for k in range(len(out) - 1, 0, -1):
            pc = pivots[k]
            p = out[k][pc]
            for j in range(k):
                v = out[j][pc]
                if v:
                    out[j] = _combine(out[j], out[k], p, v)
    return out, pivots


def _combine(row: list[int], piv_row: list[int], p: int, v: int) -> list[int]:
    """Primitive form of (p*row - v*piv_row) / gcd(p, v)."""
    g = gcd(p, v)
    if g != 1:
        p //= g
        v //= g
    return _strip([p * a - v * b for a, b in zip(row, piv_row)])


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix (``echelon_int``)."""
    return len(echelon_int(rows)[1])


def nullspace_int(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Integer kernel basis: one vector per free column, in column order.

    The vector of free column f is 1 there, 0 at the other free columns and
    solved at the pivots, then scaled to coprime integers with its first
    nonzero entry positive; so it is ``primitive_int_vector`` of the
    corresponding ``nullspace`` vector.
    """
    red, pivots = echelon_int(rows, reduce=True)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        scale = 1
        for row, pc in zip(red, pivots):
            if row[f]:
                scale = lcm(scale, row[pc])
        vec = [0] * ncols
        vec[f] = scale
        for row, pc in zip(red, pivots):
            if row[f]:
                vec[pc] = -row[f] * (scale // row[pc])
        vec = _strip(vec)
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        basis.append(tuple(vec))
    return basis


def _strip(row: list[int]) -> list[int]:
    # a loop, not gcd(*row): it stops at the first unit gcd and builds no
    # argument tuple (CPython 3.11 parks every freed 20-item tuple on a free
    # list that allocation never takes from)
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    return row if not g else [v // g for v in row]


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
        c = rational_content(v for entry in row for v in entry.terms.values())
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
