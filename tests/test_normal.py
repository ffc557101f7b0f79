import math

import numpy as np

from e2credit.structural import norm_cdf


def quadrature_norm_cdf(x: float) -> float:
    """Independent oracle: Gauss-Legendre integration of the normal density
    from 0 to x, plus one half."""
    nodes, weights = np.polynomial.legendre.leggauss(200)
    half = 0.5 * x
    t = half * nodes + half
    integral = half * np.sum(weights * np.exp(-0.5 * t * t)) / math.sqrt(2.0 * math.pi)
    return 0.5 + integral


def test_norm_cdf_matches_quadrature_on_grid():
    grid = np.linspace(-8.0, 8.0, 20)
    for x in grid:
        assert abs(norm_cdf(float(x)) - quadrature_norm_cdf(float(x))) < 1e-12


def test_center_and_symmetry():
    assert norm_cdf(0.0) == 0.5
    for x in (0.1, 0.5, 1.0, 2.3, 4.7, 9.0):
        assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) < 1e-15


def test_monotone_increasing():
    xs = np.linspace(-10, 10, 400)
    values = [norm_cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_extreme_tails():
    assert norm_cdf(-40.0) == 0.0
    assert norm_cdf(40.0) == 1.0
    assert 0.0 < norm_cdf(-8.0) < 1e-14

