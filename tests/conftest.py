import math

import numpy as np
import pytest

import gwrange as g


@pytest.fixture(scope="session")
def law():
    return g.default_law()


@pytest.fixture(scope="session")
def extinguishing_law():
    """Calibrated law whose trees die out with probability 0.3 per vertex."""
    b = math.log(2.1)
    return g.generic_law([(0.3, ()), (0.7, (b, b, b))])


@pytest.fixture(scope="session")
def small_tree(law):
    return g.generate(law, 6, seed=101)


@pytest.fixture(scope="session")
def medium_tree(law):
    return g.generate(law, 10, seed=202)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def figure_tree():
    """Four-slot fixture with splits at three distinct generations.

    Stem to generation 1, first split there, the two sides split again at
    generations 2 and 3 respectively; slot depths differ so a shallow slot
    exercises the virtual-leaf convention.
    """
    parents = [-1, 0, 1, 1, 2, 3, 4, 4, 5, 5, 9]
    disps = [0.0, 0.1, 0.2, -0.1, 0.3, 0.2, 0.1, 0.4, 0.2, 0.1, 0.3]
    return g.tree_from_parents(parents, disps)


def assert_within_se(actual, expected, se, factor=4.0, context=""):
    gap = abs(actual - expected)
    assert gap <= factor * se, (
        f"{context}: |{actual} - {expected}| = {gap} > {factor} * {se}"
    )
