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
    for x, value in zip(grid, norm_cdf(grid)):
        assert abs(value - quadrature_norm_cdf(float(x))) < 1e-12


def test_center_and_symmetry():
    assert norm_cdf(np.zeros(1)).tolist() == [0.5]
    xs = np.array([0.1, 0.5, 1.0, 2.3, 4.7, 9.0])
    assert (np.abs(norm_cdf(xs) + norm_cdf(-xs) - 1.0) < 1e-15).all()


def test_monotone_increasing():
    values = norm_cdf(np.linspace(-10, 10, 400))
    assert (np.diff(values) >= 0).all()


def test_extreme_tails():
    low, high, far = norm_cdf(np.array([-40.0, 40.0, -8.0])).tolist()
    assert low == 0.0
    assert high == 1.0
    assert 0.0 < far < 1e-14


def test_stdlib_erfc_bits():
    xs = np.random.default_rng(5).normal(0.0, 3.0, 1000)
    assert norm_cdf(xs).tolist() == [0.5 * math.erfc(-x / math.sqrt(2.0)) for x in xs.tolist()]
