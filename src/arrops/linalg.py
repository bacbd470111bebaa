"""Exact linear algebra over the rationals, the integers and the polynomial ring.

- Rationals: ``rref`` and ``nullspace``, the tests' reference for the
  integer kernel and rank; no production path uses them.
- Integers: ``echelon_int`` is one fraction-free elimination kernel.  It
  holds rows as sparse ``{column: value}`` dicts, bucketed by leading column,
  takes the sparsest row of a bucket as pivot and removes a row's content
  only when it becomes a pivot row or after a back-substitution step;
  dense lists come in and go out.  ``rank_int`` counts its pivots and
  ``nullspace_int`` solves its reduced rows.  ``nullspace_int`` serves only
  the kernel of an arrangement of rank < 3 (plane bases and the oracle's
  relations have closed forms), ``rank_int`` the dimension oracle,
  and ``dual_pair`` inverts with ``echelon_int``.
  ``det_int`` is a Bareiss determinant for the determinant certificate.
- Polynomials: ``det_poly_matrix``, the tests' reference determinant, one
  Bareiss elimination at every size (the tests check it against the
  Laplace expansion in ``tests/reference.py``).

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


def echelon_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of an integer matrix.

    Returns (rows, pivot columns): one primitive integer row per pivot
    column, zero left of its pivot and in the other rows' pivot columns,
    with a positive pivot.

    Rows are held sparse, as ``{column: value}`` dicts, in buckets by their
    leading column, so column c touches only the rows that start there.  The
    pivot row of column c is the sparsest of them (ties by smallest |pivot|,
    then input order), which is deterministic and controls fill-in.  Each
    other row becomes ``a*row - b*pivot_row``, with a and b the pivot and
    the row's entry divided by their gcd; the update runs over the pivot
    row's nonzeros only, in place, and moves the row to the bucket of its
    new leading column.  Content is removed from a row when it becomes a pivot
    row and after each back-substitution step, not after every update.
    """
    ncols = len(rows[0]) if rows else 0
    out, pivots = _echelon_sparse(rows, ncols)
    for k in range(len(out) - 1, 0, -1):
        pc = pivots[k]
        for j in range(k):
            if pc in out[j]:
                _primitive(_eliminate(out[j], out[k], pc), pivots[j])
    return [_dense(row, ncols) for row in out], pivots


def _echelon_sparse(rows: list[list[int]], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """``echelon_int``'s pivot rows, sparse and not reduced, and their columns."""
    sparse = [{c: v for c, v in enumerate(r) if v} for r in rows]
    buckets: dict[int, list[int]] = {}
    for i, row in enumerate(sparse):
        if row:
            buckets.setdefault(next(iter(row)), []).append(i)
    out: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(ncols):
        hits = buckets.pop(c, None)
        if hits is None:
            continue
        best = min(hits, key=lambda i: (len(sparse[i]), abs(sparse[i][c]), i))
        piv_row = _primitive(sparse[best], c)
        for i in hits:
            if i != best:
                row = _eliminate(sparse[i], piv_row, c)
                if row:
                    buckets.setdefault(min(row), []).append(i)
        out.append(piv_row)
        pivots.append(c)
    return out, pivots


def _eliminate(row: dict[int, int], piv_row: dict[int, int], c: int) -> dict[int, int]:
    """row := a*row - b*piv_row in place, with a and b the entries
    piv_row[c] and row[c] divided by their gcd, so that column c drops out."""
    p, v = piv_row[c], row[c]
    g = gcd(p, v)
    a, b = p // g, v // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, w in piv_row.items():
        x = row.get(k, 0) - b * w
        if x:
            row[k] = x
        else:
            del row[k]
    return row


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """Divide a nonzero sparse row in place by its content, signed so that
    the entry at ``lead`` is positive."""
    # a loop, not gcd(*values): it stops at the first unit gcd and builds no
    # argument tuple (CPython 3.11 parks every freed 20-item tuple on a free
    # list that allocation never takes from)
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
    return row


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix: the pivot count of ``echelon_int``, no dense rows."""
    return len(_echelon_sparse(rows, len(rows[0]) if rows else 0)[1])


def nullspace_int(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Integer kernel basis: one vector per free column, in column order.

    The vector of free column f is 1 there, 0 at the other free columns and
    solved at the pivots, then scaled to coprime integers with its first
    nonzero entry positive; so it is ``primitive_int_vector`` of the
    corresponding ``nullspace`` vector.
    """
    red, pivots = echelon_int(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        scale = 1
        for row, pc in zip(red, pivots):
            if row[f]:
                scale = lcm(scale, row[pc])
        vec = {f: scale}
        for row, pc in zip(red, pivots):
            if row[f]:
                vec[pc] = -row[f] * (scale // row[pc])
        basis.append(tuple(_dense(_primitive(vec, min(vec)), ncols)))
    return basis


def _dense(row: dict[int, int], ncols: int) -> list[int]:
    vec = [0] * ncols
    for c, v in row.items():
        vec[c] = v
    return vec


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


def det_poly_matrix(matrix: list[list[Poly]]) -> Poly:
    """Exact determinant of a square polynomial matrix (test-side reference
    for ``verify.saito_check``, which never expands a determinant).

    Fraction-free (Bareiss) elimination at every size, whose intermediate
    entries are minors of the input, with the rational content of each row
    stripped up front and restored at the end.  The tests check it against
    an independent Laplace expansion.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
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
