import numpy as np
import pytest

import bicheb as bc
import bicheb.paper as bp


def f_cosxy(x, y):
    return np.cos(x * y)


def f_example2(x, y):
    return np.cos(10.0 * x * y ** 2) + np.exp(-x ** 2)


@pytest.fixture(scope="session")
def cosxy():
    """Full-tolerance approximant of cos(x y) on the unit square."""
    return bc.build_adaptive(f_cosxy, 1e-15)


@pytest.fixture(scope="session")
def example2():
    """Full-tolerance approximant of cos(10 x y^2) + exp(-x^2)."""
    return bc.build_adaptive(f_example2, 1e-15)


@pytest.fixture(scope="session")
def cosxy_alpha32():
    """High-accuracy 32x32 coefficient matrix of cos(x y) from a 64-point grid."""
    grid = bp.sample_grid(f_cosxy, 64)
    return bp.coeffs_from_samples(grid, 31)
