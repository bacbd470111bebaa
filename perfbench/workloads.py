"""Seeded case generation for the three benchmark workloads.

Every case is one CLI invocation: a subcommand, an order ``m`` and an
arrangement given as inline linear forms, exactly as a user would type it.
Alongside the argv each case records its input properties (n, m, module
rank, expected determinant degree, largest coefficient bit length) and the
values its output must match, so correctness is checked outside the timed
region (see ``checks.py``).  Timings quoted here were measured on a 2-CPU
Intel Xeon virtual machine with CPython 3.11.

Random arrangements are drawn from one fixed family seed.  A fresh random
(4,3) arrangement costs anywhere from 2 s to 17 s to certify, a fresh n = 5
oracle case varies about threefold, and fresh draws moved the sweep's median
case time by a third between seeds, so runs with different seeds would not
be comparable.  The run seed shuffles the order of the cases, and on
``sweep`` the hyperplane order of every arrangement too.  ``certify`` and
``oracle`` keep the family's hyperplane order: their eliminations choose
pivots in that order, and shuffling it moved single cases by up to 35 %.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement
from arrops.exponents import exp_for_arrangement

# Base seed of the fixed certify and oracle families (the source paper's arXiv id).
FAMILY_SEED = 190303249

QUAD = "x1; x2; x3; x1 - x2"
QUAD5 = "x1; x2; x3; x1 - x2; x2 - x3"
GOLDEN_QUAD_M2 = [1, 2, 2, 2, 2, 3]


def s_dim(m: int, l: int) -> int:
    """Number of order-m monomial derivatives in l variables."""
    return comb(m + l - 1, m) if m >= 0 else 0


# -- generators -------------------------------------------------------------------


def random_essential(rng: random.Random, n: int, height: int = 3) -> Arrangement:
    """Random essential 3-arrangement with rational coefficients of height <= ``height``.

    The same logic as ``random_essential`` in ``tests/conftest.py`` (which
    fixes the height at 3), copied so that edits to the tests cannot move
    the benchmark.
    """
    while True:
        planes = []
        seen = set()
        guard = 0
        while len(planes) < n:
            guard += 1
            if guard > 200:
                break
            vec = tuple(Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(3))
            if not any(vec):
                continue
            h = Hyperplane.make(vec)
            if h.normal in seen:
                continue
            seen.add(h.normal)
            planes.append(h)
        if len(planes) != n:
            continue
        arr = Arrangement(3, planes)
        if arr.is_essential():
            return arr


def random_lines(rng: random.Random, k: int, height: int = 3) -> Arrangement:
    """Random 2-arrangement of k distinct lines, coefficients drawn as in ``random_essential``."""
    planes: list[Hyperplane] = []
    seen = set()
    while len(planes) < k:
        vec = tuple(Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(2))
        if not any(vec):
            continue
        h = Hyperplane.make(vec)
        if h.normal not in seen:
            seen.add(h.normal)
            planes.append(h)
    return Arrangement(2, planes)


def random_rank2(rng: random.Random, k: int, height: int = 3) -> Arrangement:
    """Random rank-2 3-arrangement of k >= 2 planes: a 2-arrangement times a line.

    The pencil's lines a*y1 + b*y2 are pulled back along y1 = x1 + c1*x3,
    y2 = x2 + c2*x3 with c1, c2 in {-1, 0, 1}, so the trivial factor is not
    always the x3 axis while coefficients stay as small as the pencil's.
    """
    c1, c2 = rng.randint(-1, 1), rng.randint(-1, 1)
    pencil = random_lines(rng, k, height)
    return Arrangement(3, [Hyperplane.make((a, b, a * c1 + b * c2)) for a, b in (h.normal for h in pencil.hyperplanes)])


def shuffled(arr: Arrangement, rng: random.Random) -> Arrangement:
    planes = list(arr.hyperplanes)
    rng.shuffle(planes)
    return Arrangement(arr.dim, planes)


# -- cases -------------------------------------------------------------------------


@dataclass
class Case:
    """One CLI invocation with its input properties and expected results."""

    id: str
    command: str
    arr: Arrangement
    m: int
    extra: list[str] = field(default_factory=list)
    props: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return self.arr.text()

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        if self.command != "lattice":
            argv += ["--m", str(self.m)]
        argv += ["--dim", str(self.arr.dim), *self.extra]
        return argv + [h.text() for h in self.arr.hyperplanes]

    def to_json(self) -> dict:
        return {"id": self.id, "argv": self.argv, "text": self.text, "m": self.m, **self.props}


def coeff_bits(arr: Arrangement) -> int:
    """Largest bit length of the primitive integer normals' entries."""
    return max((abs(c).bit_length() for h in arr.hyperplanes for c in h.normal), default=0)


def _flat_count(arr: Arrangement) -> int:
    """Rank-2 flats counted independently of the library: distinct primitive cross products."""
    if arr.dim == 2:
        return arr.n
    dirs = set()
    planes = [h.normal for h in arr.hyperplanes]
    for i in range(len(planes)):
        for j in range(i + 1, len(planes)):
            u, v = planes[i], planes[j]
            w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
            g = gcd(gcd(w[0], w[1]), w[2])
            w = tuple(c // g for c in w)
            if next(c for c in w if c) < 0:
                w = tuple(-c for c in w)
            dirs.add(w)
    return len(dirs)


def make_case(case_id: str, command: str, arr: Arrangement, m: int) -> Case:
    n, l = arr.n, arr.dim
    rank = arr.rank()
    props = {
        "command": command,
        "dim": l,
        "n": n,
        "rank": rank,
        "coeff_bits": coeff_bits(arr),
    }
    case = Case(case_id, command, arr, m, props=props)
    if command == "lattice":
        case.expect = {"rank": rank, "flats": _flat_count(arr)}
        return case
    exps = list(exp_for_arrangement(arr, m).entries)
    t = sum(exps) // n if n else 0
    props.update({"module_rank": s_dim(m, l), "det_degree": n * t})
    if command in ("basis", "verify"):
        if l == 3 and rank == 3:
            t = s_dim(m - 1, 3)
        case.expect = {"exponents": exps, "t": t}
    elif command == "exponents":
        case.expect = {"exponents": exps}
    elif command == "identities":
        case.expect = {"module_rank": s_dim(m, 3)}
    if command in ("verify", "oracle"):
        d_max = max(exps) + 2
        case.expect["dims"] = [sum(s_dim(d - e, l) for e in exps) for d in range(d_max + 1)]
        if command == "oracle":
            case.extra = ["--max-degree", str(d_max)]
    return case


def arrangement(text: str) -> Arrangement:
    return parse_arrangement(text, dim=3)


# -- workloads -----------------------------------------------------------------------


# (n, largest coefficient bit length, how many) of the random certify cases,
# all at m = 3.  The bit length of the primitive normals sets the
# certificate's cost: (4,3) draws of height 2 took 3.7-6 s with 2-bit and
# 7.6-15.6 s with 3-bit coefficients, and random (5,3) draws 5-7 s already
# at 1 bit.  Those, and x1; x2; x3; x1 - x2; x2 - x3 at m = 4 (3 s), are
# left out so that a run repeats every case at least three times; the (5,3)
# case is that arrangement at m = 3.
CERTIFY_MIX = ((4, 1, 3), (4, 2, 1))


def certify_cases(family: random.Random) -> list[Case]:
    """``basis`` on dense cases, where the determinant certificate does the work."""
    specs = [
        ("quad-m4", arrangement(QUAD), 4),
        ("quad-m5", arrangement(QUAD), 5),
        ("quad5-m3", arrangement(QUAD5), 3),
    ]
    for n, bits, count in CERTIFY_MIX:
        for i in range(count):
            arr = random_essential(family, n, height=bits)
            while coeff_bits(arr) != bits:
                arr = random_essential(family, n, height=bits)
            specs.append((f"r{n}3-b{bits}-{i}", arr, 3))
    # Hyperplane order is kept: the certificate's pivot order follows it, and
    # shuffling moved single cases by up to 35 %.
    return [make_case(f"certify-{name}", "basis", arr, m) for name, arr, m in specs]


# (n, number of family arrangements, orders relative to n) for the oracle workload:
# a subset of the acceptance suite's oracle family, with n = 6 only at its lowest order.
ORACLE_MIX = ((3, 3, (-2, -1, 0)), (4, 3, (-2, -1, 0)), (5, 2, (-2, -1, 0)), (6, 1, (-2,)))


def oracle_cases(family: random.Random) -> list[Case]:
    """``oracle`` up to max exponent + 2 on the random essential family at orders n-2..n."""
    cases = []
    for n, count, offsets in ORACLE_MIX:
        for i in range(count):
            arr = random_essential(family, n)
            for off in offsets:
                cases.append(make_case(f"oracle-n{n}-{i}-m{n + off}", "oracle", arr, n + off))
    return cases


def sweep_cases(family: random.Random, rng: random.Random) -> list[Case]:
    """About 130 small invocations of every subcommand."""
    cases: list[Case] = []

    def add(name: str, command: str, arr: Arrangement, m: int) -> Case:
        cases.append(make_case(f"sweep-{name}-{command}", command, shuffled(arr, rng), m))
        return cases[-1]

    for k in range(1, 6):
        lines = [random_lines(family, k) for _ in range(6)]
        for m in range(6):
            add(f"2arr-k{k}-m{m}", "basis", lines[m], m)
            add(f"2arr-k{k}-m{m}", "verify" if (k + m) % 2 == 0 else "oracle", lines[m], m)
        add(f"2arr-k{k}", "lattice", lines[0], 0)
        add(f"2arr-k{k}-m{k}", "exponents", lines[k], k)
    # m <= 2: at m = 3 one rank-2 certificate already takes seconds
    for k in range(2, 5):
        for m in (1, 2):
            arr = random_rank2(family, k)
            add(f"rank2-k{k}-m{m}", "basis", arr, m)
            add(f"rank2-k{k}-m{m}", "verify", arr, m)
    quad = arrangement(QUAD)
    for command, m in (
        ("basis", 2), ("basis", 3), ("verify", 2), ("identities", 2),
        ("identities", 3), ("exponents", 2), ("exponents", 3), ("oracle", 2),
    ):
        case = add(f"quad-m{m}", command, quad, m)
        if (command, m) == ("basis", 2):
            case.expect["golden"] = GOLDEN_QUAD_M2
    for n in (3, 4, 5, 6):
        for i in range(2):
            arr = random_essential(family, n)
            add(f"r{n}-{i}", "lattice", arr, 0)
            for m in (n - 2, n):
                add(f"r{n}-{i}-m{m}", "exponents", arr, m)
                add(f"r{n}-{i}-m{m}", "identities", arr, m)
    return cases


def build(workload: str, seed: int) -> list[Case]:
    """The workload's cases for a run seed, in the order the run executes them."""
    rng = random.Random(seed)
    family = random.Random(FAMILY_SEED)
    if workload == "certify":
        cases = certify_cases(family)
    elif workload == "oracle":
        cases = oracle_cases(family)
    else:
        cases = sweep_cases(family, rng)
    rng.shuffle(cases)
    return cases
