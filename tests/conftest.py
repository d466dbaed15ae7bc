import numpy as np
import pytest

from curvecrack import (FarFieldLoad, Material, make_circular_arc,
                        make_semicircle, make_straight, solve_problem)
from curvecrack.fields import _node_side


@pytest.fixture
def cold_tables():
    """Empty the table cache, the node sides of `_node_side` with every
    table they keep, so the test's first run builds all its tables, as the
    first run of a process does; the fixture's value empties it again."""
    _node_side.cache_clear()
    return _node_side.cache_clear


@pytest.fixture(scope="session")
def material():
    return Material(mu=60.0, kappa=2.5)


@pytest.fixture(scope="session")
def semicircle():
    return make_semicircle()


@pytest.fixture(scope="session")
def arc_half():
    return make_circular_arc(0.5)


@pytest.fixture(scope="session")
def straight2():
    return make_straight(2.0)


@pytest.fixture(scope="session")
def load_h():
    """Horizontal stretching."""
    return FarFieldLoad(sigma1=1.0, sigma2=0.0)


@pytest.fixture(scope="session")
def load_v():
    """Vertical stretching."""
    return FarFieldLoad(sigma1=0.0, sigma2=1.0)


@pytest.fixture(scope="session")
def solved_semicircle(material, semicircle, load_h):
    """Reference solve: semicircle, mu=60, kappa=2.5, gamma1=1, N=30."""
    return solve_problem(semicircle, material, load_h, 1.0, N=30)


@pytest.fixture(scope="session")
def solved_semicircle_by_n(material, semicircle, load_h):
    return {n: solve_problem(semicircle, material, load_h, 1.0, N=n)
            for n in (16, 20, 30)}


@pytest.fixture(scope="session")
def solved_straight(material, straight2, load_v):
    return solve_problem(straight2, material, load_v, 1.0, N=30)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
