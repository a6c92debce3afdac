"""Gauss-Legendre / Gauss-Hermite rules against analytic and dense oracles."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import expit

from sgp_hawkes import quadrature
from sgp_hawkes.kernels import KernelHyperparams, gram, uniform_inducing_grid
from sgp_hawkes.quadrature import (
    expected_log_sigmoid,
    expected_sigmoid_moments,
    gauss_hermite,
    gauss_legendre,
    hermite_order,
)


def test_legendre_exact_for_low_degree(integrate):
    grid = gauss_legendre(1, 0.0, 1.0)
    assert integrate(grid, lambda x: x) == pytest.approx(0.5, abs=1e-15)
    grid = gauss_legendre(3, -1.0, 1.0)
    assert abs(integrate(grid, lambda x: x**3)) < 1e-14


def test_legendre_sin_integral(integrate):
    grid = gauss_legendre(20, 0.0, np.pi)
    assert abs(integrate(grid, np.sin) - 2.0) < 1e-12


def test_legendre_constant_functions(integrate):
    grid = gauss_legendre(10, 0.0, 37.5)
    assert integrate(grid, lambda x: np.ones_like(x)) == pytest.approx(37.5, rel=1e-14)
    grid = gauss_legendre(50, 0.0, 100.0)
    assert integrate(grid, lambda x: expit(np.zeros_like(x))) == pytest.approx(50.0, rel=1e-14)


def test_legendre_vs_dense_trapezoid_on_latent_rate_integrand(rng, integrate, sparse_mean):
    """lambda* . sigmoid(-f(t)) for a sampled sparse-GP f against a 1e5-point
    trapezoid reference, to 1e-6 relative."""
    grid = uniform_inducing_grid(10, 100.0)
    hp = KernelHyperparams(1.0, 0.05)
    gm = gram(grid, hp)
    u = rng.normal(0.0, 1.0, grid.count)
    lam = 2.7

    def integrand(t):
        return lam * expit(-sparse_mean(t, grid, gm, u, hp))

    dense_t = np.linspace(0.0, 100.0, 100_001)
    want = np.trapezoid(integrand(dense_t), dense_t)
    got = integrate(gauss_legendre(200, 0.0, 100.0), integrand)
    assert abs(got - want) / abs(want) < 1e-6
    # the engine-default order stays within fit-relevant accuracy
    coarse = integrate(gauss_legendre(50, 0.0, 100.0), integrand)
    assert abs(coarse - want) / abs(want) < 1e-4


def test_quadrature_validation_errors():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(5, 2.0, 1.0)


def test_gaussian_expectation_moments():
    mean, var = 0.7, 2.3
    z, w = gauss_hermite(30)
    x = mean + np.sqrt(var) * z
    assert w.sum() == pytest.approx(1.0, rel=1e-13)
    assert w @ x == pytest.approx(mean, rel=1e-12)
    assert w @ (x * x) == pytest.approx(var + mean * mean, rel=1e-12)


def test_gauss_hermite_rule_is_cached_and_read_only():
    z, w = gauss_hermite(12)
    assert gauss_hermite(12)[0] is z
    x, wx = np.polynomial.hermite.hermgauss(12)
    np.testing.assert_array_equal(z, np.sqrt(2.0) * x)
    np.testing.assert_array_equal(w, wx / np.sqrt(np.pi))
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = quadrature._legendre(50)
    assert quadrature._legendre(50)[0] is x
    fresh_x, fresh_w = np.polynomial.legendre.leggauss(50)
    np.testing.assert_array_equal(x, fresh_x)
    np.testing.assert_array_equal(w, fresh_w)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    grid = gauss_legendre(50, 0.0, 37.5)  # the affine map of the cached rule, bit for bit
    np.testing.assert_array_equal(grid.nodes, 18.75 * (fresh_x + 1.0))
    np.testing.assert_array_equal(grid.weights, 18.75 * fresh_w)
    assert grid.nodes.flags.writeable


def test_expected_log_sigmoid_zero_variance():
    m = np.array([-2.0, 0.0, 1.5])
    got = expected_log_sigmoid(m, np.zeros_like(m), 30)
    want = np.log(expit(m))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_expected_log_sigmoid_vs_adaptive_quadrature():
    mean, var = 0.3, 1.2
    sd = np.sqrt(var)

    def density(x):
        return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))

    want, err = scipy_quad(
        lambda x: np.log(expit(x)) * density(x), -40, 40, limit=400, epsabs=1e-13, epsrel=1e-13
    )
    assert err < 1e-9
    got = expected_log_sigmoid(np.array([mean]), np.array([var]), 30)[0]
    assert abs(got - want) < 1e-8


def test_expected_sigmoid_moments_vs_adaptive_quadrature():
    mean, var = -0.8, 0.9
    sd = np.sqrt(var)

    def density(x):
        return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))

    m1_want, _ = scipy_quad(lambda x: expit(x) * density(x), -40, 40, limit=200)
    m2_want, _ = scipy_quad(lambda x: expit(x) ** 2 * density(x), -40, 40, limit=200)
    m1, m2 = expected_sigmoid_moments(np.array([mean]), np.array([var]), 30)
    assert abs(m1[0] - m1_want) < 1e-8
    assert abs(m2[0] - m2_want) < 1e-8
    # zero variance collapses to the plug-in values
    m1, m2 = expected_sigmoid_moments(np.array([mean]), np.array([0.0]), 30)
    assert m1[0] == pytest.approx(expit(mean), abs=1e-12)
    assert m2[0] == pytest.approx(expit(mean) ** 2, abs=1e-12)


def test_hermite_order_keeps_both_sigmoid_moments_exact():
    """The order picked for a variance keeps E[sigma], E[sigma^2] and
    E[log sigma] within 1e-13 of a 150-node rule for variances up to 0.5 and
    means in [-20, 20]."""
    mean = np.linspace(-20.0, 20.0, 4001)
    limits = np.array([limit for limit, _ in quadrature._HERMITE_STEPS])
    # every step at its largest variance, and the next step just past it
    edges = np.concatenate([limits, limits * (1.0 + 1e-9)])
    for var in np.concatenate([np.linspace(0.0, 0.5, 51), edges]):
        var_arr = np.full_like(mean, var)
        order = hermite_order(var_arr)
        got = (*expected_sigmoid_moments(mean, var_arr, order), expected_log_sigmoid(mean, var_arr, order))
        ref = (*expected_sigmoid_moments(mean, var_arr, 150), expected_log_sigmoid(mean, var_arr, 150))
        for moment, exact in zip(got, ref):
            assert np.max(np.abs(moment - exact)) <= 1e-13, var
    assert hermite_order(np.array([0.01, 0.3])) == hermite_order(0.3)


def test_expected_log_sigmoid_matches_logaddexp_reference():
    """The min(x, 0) - log1p(exp(-|x|)) kernel against -logaddexp(0, -x) on
    the same nodes and weights, to 1e-15, deep into both tails and without
    a floating-point warning; NaN propagates."""
    mean = np.array([-1e3, -745.0, -20.0, 0.0, 20.0, 745.0, 1e3])
    z, w = gauss_hermite(30)
    for var in (0.0, 0.5):
        with np.errstate(under="ignore"):
            want = -np.logaddexp(0.0, -(mean[:, None] + np.sqrt(var) * z)) @ w
        with np.errstate(all="raise"):
            got = expected_log_sigmoid(mean, np.full_like(mean, var), 30)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    got = expected_log_sigmoid(np.array([np.nan, 0.0]), np.array([0.5, np.nan]), 10)
    assert np.isnan(got).all()
