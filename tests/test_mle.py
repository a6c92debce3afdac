"""Parametric exponential-kernel baseline: recursion, gradients, fitting."""

import numpy as np
import pytest

from sgp_hawkes import ExpHawkesParams, exp_hawkes_nll, fit_mle
from sgp_hawkes.mle import _window_nll_grad, model_rates
from sgp_hawkes.process import EventSequence, RateFunctions, simulate_thinning


def exp_rate_functions(mu, alpha, beta, t_phi):
    return RateFunctions(
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), mu),
        phi=lambda x: alpha * np.exp(-beta * np.asarray(x, dtype=float)),
        T_phi=t_phi,
        mu_integral=lambda t: mu * np.asarray(t, dtype=float),
        phi_integral=lambda x: (alpha / beta) * -np.expm1(-beta * np.asarray(x, dtype=float)),
    )


def direct_nll(params, times, T):
    """O(N^2) reference evaluation of the exponential-Hawkes likelihood."""
    mu, alpha, beta = params.mu, params.alpha, params.beta
    ll = 0.0
    for i, t in enumerate(times):
        lam = mu + alpha * np.sum(np.exp(-beta * (t - times[:i])))
        ll += np.log(lam)
    ll -= mu * T
    ll -= (alpha / beta) * np.sum(1.0 - np.exp(-beta * (T - times)))
    return -ll


def test_params_validation():
    ExpHawkesParams(1.0, 0.0, 1.0)  # alpha = 0 is a valid (Poisson) boundary
    with pytest.raises(ValueError):
        ExpHawkesParams(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        ExpHawkesParams(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        ExpHawkesParams(1.0, 0.5, 0.0)
    params = ExpHawkesParams(1.0, 0.4, 2.0)
    assert params.alpha / params.beta == pytest.approx(0.2)  # branching ratio


def test_zero_alpha_reduces_to_poisson():
    seq = EventSequence(np.array([1.0, 2.5, 7.0]), 10.0)
    params = ExpHawkesParams(2.0, 0.0, 1.0)
    want = -(3 * np.log(2.0) - 2.0 * 10.0)
    assert exp_hawkes_nll(params, seq) == pytest.approx(want, rel=1e-14)


def test_two_event_direct_evaluation():
    params = ExpHawkesParams(1.2, 0.6, 0.9)
    times = np.array([2.0, 5.0])
    T = 8.0
    lam2 = 1.2 + 0.6 * np.exp(-0.9 * 3.0)
    want = -(
        np.log(1.2)
        + np.log(lam2)
        - 1.2 * T
        - (0.6 / 0.9) * ((1 - np.exp(-0.9 * 6.0)) + (1 - np.exp(-0.9 * 3.0)))
    )
    assert exp_hawkes_nll(params, EventSequence(times, T)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [60, 200])
def test_recursion_matches_direct_sum(n, rng):
    times = np.sort(rng.uniform(0.0, 50.0, n))
    seq = EventSequence(times, 50.0)
    params = ExpHawkesParams(0.9, 0.5, 1.3)
    got = exp_hawkes_nll(params, seq)
    want = direct_nll(params, times, 50.0)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_gradient_matches_finite_differences(rng):
    times = np.sort(rng.uniform(0.0, 40.0, 80))
    feasible = [
        (0.8, 0.5, 1.0),
        (1.5, 0.2, 0.4),
        (0.3, 0.9, 2.5),
    ]
    for mu, alpha, beta in feasible:
        _, grad = _window_nll_grad(mu, alpha, beta, times, 0.0, 40.0)
        eps = 1e-6
        for k, name in enumerate(("mu", "alpha", "beta")):
            theta = np.array([mu, alpha, beta])
            theta_hi = theta.copy()
            theta_lo = theta.copy()
            theta_hi[k] += eps
            theta_lo[k] -= eps
            hi, _ = _window_nll_grad(*theta_hi, times, 0.0, 40.0)
            lo, _ = _window_nll_grad(*theta_lo, times, 0.0, 40.0)
            fd = (hi - lo) / (2 * eps)
            assert abs(grad[k] - fd) / max(1.0, abs(fd)) < 1e-5, name


def test_window_translation_invariance():
    # dyadic-rational times keep the shift exact in floating point, so the
    # kernel memory (gaps only) makes the NLL bitwise identical
    times = np.array([1.0, 2.25, 3.5, 7.75, 9.0])
    base, _ = _window_nll_grad(0.7, 0.4, 1.5, times, 0.0, 16.0)
    shift = 1024.0
    moved, _ = _window_nll_grad(0.7, 0.4, 1.5, times + shift, shift, 16.0 + shift)
    assert moved == base
    assert base == exp_hawkes_nll(ExpHawkesParams(0.7, 0.4, 1.5), EventSequence(times, 16.0))


def test_fit_recovers_parameters_and_beats_truth_nll():
    truth = ExpHawkesParams(1.0, 0.4, 1.0)
    rates = exp_rate_functions(truth.mu, truth.alpha, truth.beta, t_phi=25.0)
    estimates = []
    for seed in range(20):
        seq = simulate_thinning(rates, 2000.0, seed=3000 + seed)
        params, report = fit_mle([seq], t_phi_report=25.0)
        estimates.append([params.mu, params.alpha, params.beta])
        # the fit can never be worse than the truth on its own data
        assert exp_hawkes_nll(params, seq) <= exp_hawkes_nll(truth, seq) + 1e-6
        assert report.converged
    means = np.mean(estimates, axis=0)
    for got, want in zip(means, (truth.mu, truth.alpha, truth.beta)):
        assert abs(got - want) / want < 0.15


def test_fit_on_poisson_data_finds_negligible_excitation():
    rates = exp_rate_functions(1.0, 0.0, 1.0, t_phi=1.0)
    seqs = [simulate_thinning(rates, 500.0, seed=s) for s in range(4)]
    params, _ = fit_mle(seqs, t_phi_report=1.0)
    assert params.alpha <= 0.05
    assert params.mu == pytest.approx(1.0, abs=0.15)


def test_model_rates_closed_form_integrals():
    params = ExpHawkesParams(0.8, 0.5, 2.0)
    rates = model_rates(params, t_phi=10.0)
    t = np.array([0.0, 3.0, 7.5])
    np.testing.assert_allclose(rates.mu(t), 0.8, rtol=1e-15)
    np.testing.assert_allclose(rates.mu_integral(t), 0.8 * t, rtol=1e-15)
    x = np.array([0.5, 2.5])
    np.testing.assert_allclose(rates.phi(x), 0.5 * np.exp(-2.0 * x), rtol=1e-15)
    np.testing.assert_allclose(
        rates.phi_integral(x), 0.25 * (1.0 - np.exp(-2.0 * x)), rtol=1e-12
    )
    assert rates.T_phi == 10.0


def test_fit_report_shape(small_case1_seqs):
    params, report = fit_mle(small_case1_seqs, t_phi_report=6.0)
    assert report.method == "mle"
    assert report.grid_phi[-1] == 6.0 and report.grid_phi.size == report.phi_hat.size
    assert len(report.objective_trace) == 1
    assert np.isfinite(report.objective_trace[0])
    assert report.grid_mu.size == report.mu_hat.size
    assert params.alpha / params.beta < 1.0  # branching ratio
