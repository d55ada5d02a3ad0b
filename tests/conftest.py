import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from homlab.core import DoubleWell
from homlab.geometry import Direction
from homlab.solve import SolverConfig


@pytest.fixture(scope="session")
def quartic():
    return DoubleWell()


@pytest.fixture(scope="session")
def e1():
    return Direction.from_integers(1)


@pytest.fixture(scope="session")
def e2():
    return Direction.from_integers(0, 1)


@pytest.fixture(scope="session")
def quick_solver():
    return SolverConfig(max_iters=8000, grad_tol=1e-3 * 0.25**2)
