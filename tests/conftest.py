import random
from fractions import Fraction

import pytest

from arrops.arrangement import Arrangement, Hyperplane, parse_arrangement

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # same examples on every run, no example database, no timing flakes
    settings.register_profile("arrops", derandomize=True, database=None, max_examples=40, deadline=None)
    settings.load_profile("arrops")


@pytest.fixture(scope="session")
def quad_arr():
    """Three coordinate planes plus one diagonal plane (n = 4, essential)."""
    return parse_arrangement("x1; x2; x3; x1-x2")


@pytest.fixture(scope="session")
def boolean_arr():
    return parse_arrangement("x1; x2; x3")


@pytest.fixture(scope="session")
def generic4_arr():
    """Generic arrangement: every three hyperplanes meet only at the origin."""
    return parse_arrangement("x1; x2; x3; x1+x2+x3")


@pytest.fixture(scope="session")
def pencil3_arr():
    """Rank-2 arrangement in dimension 3 (product with a trivial line factor)."""
    return parse_arrangement("x1; x2; x1-x2", dim=3)


def random_essential(rng: random.Random, n: int) -> Arrangement:
    """Random essential 3-arrangement with rational coefficients in [-3, 3]."""
    while True:
        planes = []
        seen = set()
        guard = 0
        while len(planes) < n:
            guard += 1
            if guard > 200:
                break
            vec = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
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


@pytest.fixture(scope="session")
def random_family():
    """20 seeded random essential 3-arrangements with 3 <= n <= 6."""
    rng = random.Random(20240817)
    counts = {3: 7, 4: 6, 5: 5, 6: 2}
    family = []
    for n, how_many in counts.items():
        for _ in range(how_many):
            family.append(random_essential(rng, n))
    return family
