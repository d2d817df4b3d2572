import random
from fractions import Fraction

import pytest

from entroflow.entropy import JointDistribution


def random_rational_distribution(
    rng: random.Random, n_vars: int, max_alphabet: int = 4, max_weight: int = 12
) -> JointDistribution:
    """A random exact-rational pmf over random small alphabets."""
    sizes = [rng.randint(1, max_alphabet) for _ in range(n_vars)]
    cells = []
    stack = [()]
    for s in sizes:
        stack = [t + (v,) for t in stack for v in range(s)]
    cells = stack
    weights = [rng.randint(0, max_weight) for _ in cells]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    pmf = {c: Fraction(w, total) for c, w in zip(cells, weights) if w}
    names = [f"X{i + 1}" for i in range(n_vars)]
    return JointDistribution.of(tuple(zip(names, sizes)), pmf)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(autouse=True)
def empty_basis_store():
    """Every test starts with no stored optimal bases, so that no test's
    counts depend on the tests run before it."""
    from entroflow.highs import BASES

    BASES.clear()
