"""Test-side reference implementations that no production path uses."""

import sys
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from arrops.arrangement import _TERM_RE, Arrangement
from arrops.diffop import DiffOp
from arrops.errors import DimensionMismatch, NotCentral, ParseError, ZeroForm
from arrops.extension import FlatProfile
from arrops.flats import Flat1
from arrops.linalg import echelon_int, nullspace_int, rank_int
from arrops.polynomial import MultiIndex, Poly, form_product, grlex_key, midx_add, midx_factorial, monomials_of_degree, primitive_int_vector, rational_content, s_dim
from arrops.verify import _Planes


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


def is_constant_coefficient(theta: DiffOp) -> bool:
    return all(f.total_degree() <= 0 for f in theta.coeffs.values())


def compose_constant(theta: DiffOp, eta: DiffOp) -> DiffOp:
    """Compose with a constant-coefficient operator on the right.

    The right factor commutes with the coefficient polynomials, so the
    product is the multi-index convolution of the two coefficient maps.
    """
    if eta.nvars != theta.nvars:
        raise DimensionMismatch("operators must share variable count")
    if not is_constant_coefficient(eta):
        raise ValueError("right factor must have constant coefficients")
    out: dict[MultiIndex, Poly] = {}
    for a, f in theta.coeffs.items():
        for b, g in eta.coeffs.items():
            k = midx_add(a, b)
            term = f * g.constant_value()
            s = out.get(k)
            s = term if s is None else s + term
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
    return DiffOp(theta.nvars, theta.order + eta.order, out)


def apply(theta: DiffOp, f: Poly) -> Poly:
    """Apply the operator to a polynomial."""
    if f.nvars != theta.nvars:
        raise DimensionMismatch("operator and polynomial variable counts differ")
    out = Poly.zero(theta.nvars)
    for a, coeff in theta.coeffs.items():
        out = out + coeff * partial(f, a)
    return out


def add_ops(theta: DiffOp, eta: DiffOp) -> DiffOp:
    """theta + eta, coefficient by coefficient (``DimensionMismatch`` from
    ``DiffOp`` when their variable counts or orders differ)."""
    out = dict(theta.coeffs)
    for a, f in eta.coeffs.items():
        out[a] = out[a] + f if a in out else f
    return DiffOp(theta.nvars, theta.order, out)


def mul_poly(theta: DiffOp, p: Poly) -> DiffOp:
    """Every coefficient of theta times p."""
    return DiffOp(theta.nvars, theta.order, {a: f * p for a, f in theta.coeffs.items()})


def normalized_primitive(theta: DiffOp) -> DiffOp:
    """Canonical scaling: ``int`` coefficients, joint content 1, the grlex
    leading coefficient (largest multi-index, then largest monomial) > 0;
    the same for every nonzero constant multiple of the operator."""
    if theta.is_zero():
        return theta
    c = rational_content(v for f in theta.coeffs.values() for v in f.terms.values())
    num, den = c.numerator, c.denominator
    lead = theta.coeffs[max(theta.coeffs, key=grlex_key)]
    if lead.terms[lead.leading_monomial()] < 0:
        num = -num
    # v * den / num is an integer for every coefficient v, so // is exact
    return DiffOp(theta.nvars, theta.order, {a: Poly(f.nvars, {k: v * den // num for k, v in f.terms.items()}) for a, f in theta.coeffs.items()})


def partial_op(nvars: int, a: MultiIndex, coeff: Poly | int | Fraction = 1) -> DiffOp:
    """coeff * d^a; ``partial_op(l, (0,) * l)`` is the identity."""
    f = coeff if isinstance(coeff, Poly) else Poly.constant(nvars, coeff)
    return DiffOp(nvars, sum(a), {tuple(a): f})


def power_of_derivation(coeffs, k: int) -> DiffOp:
    """(sum c_i d_i)^k in len(coeffs) variables, expanded."""
    return tuple_product_op([(1, (), [coeffs] * k)], len(coeffs), k)


def euler_op(m: int, nvars: int) -> DiffOp:
    """The order-m Euler operator sum (m!/a!) x^a d^a over |a| = m, which acts
    on a homogeneous polynomial of degree d as multiplication by the falling
    factorial d(d-1)...(d-m+1); a member of every central arrangement's module."""
    unit = [tuple(int(i == k) for k in range(nvars)) for i in range(nvars)]
    terms = []
    for a in monomials_of_degree(nvars, m):
        factors = [unit[i] for i, e in enumerate(a) for _ in range(e)]
        terms.append((factorial(m) // midx_factorial(a), factors, factors))
    return tuple_product_op(terms, nvars, m)


def coordinate_forms(flat: Flat1) -> list[Poly]:
    """The flat's frame rows over v_p: the kernel forms y_i = x_i - (v_i / v_p) x_p,
    then the section y = x_p / v_p; a basis of the dual space, whose texts
    ``Flat1.to_json`` prints."""
    rows, vp = flat.integer_rows()
    return [form_product([row], flat.dim) * Fraction(1, vp) for row in rows]


def dual_derivations(flat: Flat1) -> list[tuple[Fraction, ...]]:
    """Constant derivations dual to the flat's coordinate forms.

    Rows are coefficient vectors w with (sum w_k d_k)(form_j) = delta_ij;
    the last row always equals the flat direction.
    """
    rows, duals = flat.integer_frame()
    scale = Fraction(flat.integer_rows()[1], sum(map(mul, rows[0], duals[0])))  # v_p / det M'
    return [tuple(v * scale for v in w) for w in duals]


def off_flat_product(profile: FlatProfile) -> Poly:
    """The extended cofactor of a flat: the product of the extended
    hyperplanes avoiding it, multiplied out."""
    return form_product((h.normal for h in profile.off_flat), profile.flat.dim)


def base_off_flat_product(profile: FlatProfile) -> Poly:
    """The base cofactor of a flat: the product of the base hyperplanes
    avoiding it, multiplied out."""
    return form_product((h.normal for h in profile.base_off_flat), profile.flat.dim)


def localization_indices(arr: Arrangement, direction) -> tuple[int, ...]:
    """Indices of the hyperplanes containing the given direction, input order."""
    return tuple(i for i, h in enumerate(arr.hyperplanes) if h.contains(direction))


def localization(arr: Arrangement, direction) -> Arrangement:
    """The hyperplanes of ``arr`` through ``direction``, input order."""
    return Arrangement(arr.dim, [arr.hyperplanes[i] for i in localization_indices(arr, direction)])


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


def every_kernel(sample) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every key of the sample's kernel builder (``verify._Planes.kernel``),
    read through it in order: K_H at (i,) for every plane, then K_X at the
    planes of every flat of two or more, each built and checked as on a
    first read by a rank."""
    keys = [(i,) for i in range(sample.arr.n)] + [planes for _, planes in sample.flats if len(planes) > 1]
    return {key: sample.kernel(key) for key in keys}


def global_etas(points: list[tuple[int, ...]], l: int, d: int) -> list[tuple[int, ...]]:
    """The relations between the values of the degree-d forms at ``points``
    by one elimination: ``nullspace_int`` of the table of every degree-d
    monomial's values at the points, monomials in ``monomials_of_degree``
    order."""
    table = [[prod(map(pow, p, c)) for p in points] for c in monomials_of_degree(l, d)]
    return nullspace_int(table, len(points))


def eager_oracle_dims(arr: Arrangement, m: int, d_max: int) -> list[int]:
    """``verify.oracle_dims`` (m >= 1, at least one plane) with every kernel
    built and checked first (``every_kernel``), the unknowns counted as the
    kernels' lengths, the etas solved at every degree by one elimination
    (``global_etas``) and every group's weight block reduced by
    ``echelon_int``, zero and one-row blocks included."""
    l, sample = arr.dim, _Planes(arr, m)
    kernels = every_kernel(sample)
    dims = []
    for d in range(d_max + 1):
        groups = sample.points(d)
        etas = global_etas([p for points, _ in groups for p in points], l, d)
        rows, start = [], 0
        for points, planes in groups:
            block = [[eta[k] for eta in etas] for k in range(start, start + len(points))]
            start += len(points)
            rows += [[wq * wa for wq in e for wa in w] for e in echelon_int(block)[0] for w in kernels[planes]]
        unknowns = sum(len(points) * len(kernels[planes]) for points, planes in groups)
        dims.append(s_dim(m, l) * s_dim(d - arr.n, l) + unknowns - rank_int(rows))
    return dims


def contraction_kernels(sample) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The oracle's contraction kernels by elimination, keyed as
    ``every_kernel``: ``nullspace_int`` of each plane's contraction rows
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


def product_kernels(sample) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The oracle's closed-form kernels keyed as ``every_kernel``, each
    vector one ``form_product`` of its factor list (the plane's basis
    vectors to the exponents k, or the flat's direction m times), read over
    ``monomials_of_degree`` and made primitive."""
    l, m = sample.l, sample.m
    columns = monomials_of_degree(l, m)

    def derivations(factors: list[tuple[int, ...]]) -> tuple[int, ...]:
        terms = form_product(factors, l).terms
        return primitive_int_vector([terms.get(a, 0) for a in columns])

    exponents = monomials_of_degree(l - 1, m)
    kernels = {(i,): [derivations([w for w, e in zip(basis, k) for _ in range(e)]) for k in exponents] for i, basis in enumerate(sample.basis)}
    for direction, planes in sample.flats:
        if len(planes) > 1:
            kernels[planes] = [derivations([direction] * m)]
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
        const = compose_constant(power_of_derivation(duals[0], a[0]), power_of_derivation(duals[1], a[1]))
        total = add_ops(total, mul_poly(const, substitute(g, images)))
    return total


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


def saito_matrix(ops: list[DiffOp]) -> list[list[Poly]]:
    """The coefficient matrix of multiplied-out operators, one row per
    operator, columns in ``monomials_of_degree`` order."""
    zero = Poly.zero(ops[0].nvars)
    return [[op.coeffs.get(a, zero) for a in monomials_of_degree(op.nvars, op.order)] for op in ops]


def tuple_product_op(terms, nvars: int, order: int) -> DiffOp:
    """Sum over terms (c, forms, derivations) of c * (product of the linear
    forms) * (product of the constant derivations), all given by coefficient
    vectors, on exponent tuples: each term's two ``form_product``s,
    accumulated per multi-index, no packed key outside ``form_product``."""
    out: dict[MultiIndex, dict[MultiIndex, int | Fraction]] = {}
    for c, forms, derivs in terms:
        xs = form_product(forms, nvars).terms
        for a, u in form_product(derivs, nvars).terms.items():
            coeff = out.setdefault(a, {})
            for b, v in xs.items():
                coeff[b] = coeff.get(b, 0) + c * u * v
    return DiffOp(nvars, order, {a: Poly(nvars, f) for a, f in out.items()})


def tuple_basis_json(fb) -> list[dict]:
    """``FreeBasis.to_json`` on tuple-keyed operators: each core normalized
    (``normalized_primitive``), multiplied by its cofactor's ``form_product``
    (``mul_poly``) and printed with ``Poly.text``."""
    out = []
    for op, degree, provenance in zip(fb.factored, fb.degrees, fb.provenance):
        core = normalized_primitive(tuple_product_op(op.terms, op.nvars, op.order))
        theta = mul_poly(core, form_product(op.cofactor, op.nvars))
        out.append({"degree": degree, "provenance": provenance, "terms": [[list(a), f.text()] for a, f in theta.sorted_coeffs()]})
    return out


def rational_coefficient(entry: str, form: str) -> Fraction | int:
    """A term's coefficient as ``arrangement._rational`` reads it (digits as
    ``int``, p/q as ``Fraction``), written apart from it so that the parser's
    property compares two independent readings."""
    try:
        return int(entry) if "/" not in entry else Fraction(entry)
    except ZeroDivisionError:
        raise ParseError(f"coefficient {entry!r} in {form!r} is not an integer or a fraction with a nonzero denominator") from None
    except ValueError:  # digits past the int-string conversion limit
        raise ParseError(f"coefficient {entry!r} in {form!r} exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion") from None


def parse_linear_form_loop(text: str, dim: int | None = None) -> list[Fraction | int]:
    """``arrangement.parse_linear_form`` as a term loop that reads each group
    by name, every coefficient through ``rational_coefficient`` and each
    term's sign as a factor: the reference for the parser's values and error
    messages."""
    coeffs: dict[int, Fraction | int] = {}
    constant = 0
    pos = 0
    first = True
    s = text.strip()
    if not s:
        raise ParseError("empty linear form")
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse {text!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ParseError(f"missing '+' or '-' between terms in {text!r}")
        sgn = -1 if sign == "-" else 1
        var = m.group("var1") or m.group("var2")
        coef = rational_coefficient(m.group("coef"), text) if m.group("coef") else 1
        if var is None:
            constant += sgn * coef
        else:
            try:
                idx = int(var[1:])
            except ValueError:
                raise ParseError(f"variable index in {text!r} exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion") from None
            if idx < 1:
                raise ParseError(f"bad variable {var!r} in {text!r}")
            coeffs[idx - 1] = coeffs.get(idx - 1, 0) + sgn * coef
        pos = m.end()
        first = False
    if constant != 0:
        raise NotCentral(f"form {text!r} has constant term {constant}")
    width = dim if dim is not None else max(coeffs, default=-1) + 1
    if width > 3:
        raise ParseError(f"supported ambient dimensions are 2 and 3, got {width}")
    if any(i >= width for i in coeffs):
        raise ParseError(f"form {text!r} uses a variable beyond dimension {width}")
    vec = [coeffs.get(i, 0) for i in range(width)]
    if not any(vec):
        raise ZeroForm(f"form {text!r} is zero")
    return vec


def rational_primitive_vector(vec) -> tuple[int, ...]:
    """``polynomial.primitive_int_vector`` through one rational path: every
    entry read as a ``Fraction``, scaled by the lcm of the denominators,
    divided by the gcd and signed by the first nonzero entry."""
    fracs = [Fraction(v) for v in vec]
    den = lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ZeroForm("zero vector has no primitive form")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)
