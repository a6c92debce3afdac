"""Held-out scoring, estimation error, and time-rescaling diagnostics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from sgp_hawkes import fit_em, rates_for_eval
from sgp_hawkes.evaluation import RescaledSample, est_err, ks_statistic, qq_pairs, rescale
from sgp_hawkes.evaluation import test_ll as held_out_ll
from sgp_hawkes.process import (
    EventSequence,
    RateFunctions,
    case1_rates,
    log_likelihood,
    simulate_thinning,
)
from sgp_hawkes.quadrature import gauss_legendre


def poisson_rates(rate, t_phi=1.0):
    return RateFunctions(
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), rate),
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        T_phi=t_phi,
        mu_integral=lambda t: rate * np.asarray(t, dtype=float),
        phi_integral=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


# ---------------------------------------------------------------------------
# held-out log likelihood


def test_test_ll_empty_holdout_is_minus_background_mass():
    quad = gauss_legendre(50, 0.0, 10.0)
    got = held_out_ll(poisson_rates(1.0), EventSequence(np.empty(0), 10.0), quad)
    assert got == pytest.approx(-10.0, abs=1e-12)


def test_truth_beats_matched_poisson_on_its_own_data():
    truth = case1_rates()
    quad = gauss_legendre(200, 0.0, 100.0)
    margins = []
    for s in range(20):
        seq = simulate_thinning(truth, 100.0, seed=500 + s)
        rival = poisson_rates(len(seq) / 100.0, t_phi=truth.T_phi)
        margins.append(held_out_ll(truth, seq, quad) - held_out_ll(rival, seq, quad))
    margins = np.array(margins)
    assert np.all(margins > 0.0)  # measured min ~1.19, mean ~16.6
    assert margins.mean() > 5.0


def test_test_ll_splits_across_a_quiet_gap():
    # with an empty stretch longer than the kernel support, the window
    # likelihood decomposes exactly into the two half-window likelihoods
    rng_a = np.random.default_rng(7)
    rng_b = np.random.default_rng(8)
    left = np.sort(rng_a.uniform(0.0, 12.0, 25))
    right = np.sort(rng_b.uniform(18.0, 30.0, 20))

    def mu(t):
        return 1.2 + 0.4 * np.sin(2 * np.pi * np.asarray(t, dtype=float) / 30.0)

    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.where((x > 0) & (x <= 2.0), 0.3 * np.exp(-x), 0.0)

    def mu_integral(t):
        t = np.asarray(t, dtype=float)
        return 1.2 * t + 0.4 * (30.0 / (2 * np.pi)) * (1.0 - np.cos(2 * np.pi * t / 30.0))

    def phi_integral(x):
        return 0.3 * -np.expm1(-np.asarray(x, dtype=float))

    full = RateFunctions(mu, phi, T_phi=2.0, mu_integral=mu_integral, phi_integral=phi_integral)
    shifted = RateFunctions(
        lambda t: mu(np.asarray(t, dtype=float) + 15.0),
        phi,
        T_phi=2.0,
        mu_integral=lambda t: mu_integral(np.asarray(t, dtype=float) + 15.0),
        phi_integral=phi_integral,
    )
    quad_full = gauss_legendre(200, 0.0, 30.0)
    quad_half = gauss_legendre(200, 0.0, 15.0)
    whole = held_out_ll(full, EventSequence(np.concatenate([left, right]), 30.0), quad_full)
    part_a = held_out_ll(full, EventSequence(left, 15.0), quad_half)
    part_b = held_out_ll(shifted, EventSequence(right - 15.0, 15.0), quad_half)
    assert whole == pytest.approx(part_a + part_b, abs=1e-8)


def test_test_ll_is_plain_truncated_log_likelihood():
    truth = case1_rates()
    seq = simulate_thinning(truth, 100.0, seed=11)
    quad = gauss_legendre(200, 0.0, 100.0)
    assert held_out_ll(truth, seq, quad) == log_likelihood(seq, truth)


def test_scoring_uses_the_exact_antiderivatives_only(small_case1_seqs, small_config):
    # the held-out likelihood and the time rescaling charge one compensator:
    # the table's own antiderivatives, with no quadrature in between
    rates = rates_for_eval(fit_em(small_case1_seqs, small_config)[0])
    seq = simulate_thinning(case1_rates(), 100.0, seed=901)
    t, T, t_phi = seq.times, seq.T, rates.T_phi
    lags = t[:, None] - t[None, :]
    earlier = lags > 0.0
    lam = rates.mu(t) + np.where(earlier, rates.phi(lags), 0.0).sum(axis=1)
    mu_mass = rates.mu_integral(T) - rates.mu_integral(0.0)
    want = np.sum(np.log(lam)) - mu_mass - np.sum(rates.phi_integral(np.minimum(t_phi, T - t)))
    assert held_out_ll(rates, seq) == pytest.approx(want, rel=1e-12)
    # what is charged is the antiderivative itself, not an integral of mu
    doubled = replace(rates, mu_integral=lambda x: 2.0 * rates.mu_integral(x))
    assert held_out_ll(doubled, seq) == pytest.approx(want - mu_mass, rel=1e-12)
    trigger = np.where(earlier, rates.phi_integral(np.clip(lags, 0.0, t_phi)), 0.0).sum(axis=1)
    np.testing.assert_allclose(rescale(rates, seq).lam, rates.mu_integral(t) + trigger, rtol=1e-12)
    # quad is optional and only checked against the window
    with pytest.raises(ValueError, match="does not cover"):
        held_out_ll(rates, seq, gauss_legendre(50, 0.0, 50.0))
    with pytest.raises(ValueError, match="does not cover"):
        rescale(rates, seq, gauss_legendre(50, 0.0, 50.0))


# ---------------------------------------------------------------------------
# estimation error


def test_est_err_zero_for_identical_functions():
    grid = np.linspace(0.0, 6.0, 101)
    f = lambda t: np.sin(t) + 2.0
    assert est_err(f, f, grid) == 0.0


def test_est_err_constant_offset():
    grid = np.linspace(0.0, 100.0, 200)
    f = lambda t: 1.0 + 0.5 * np.cos(t / 7.0)
    g = lambda t: f(t) + 0.1
    assert est_err(g, f, grid) == pytest.approx(0.01, rel=1e-12)


def test_est_err_accepts_arrays_and_ignores_grid_order(rng):
    grid = np.linspace(0.0, 5.0, 64)
    est = rng.uniform(0.5, 2.0, grid.size)
    tru = rng.uniform(0.5, 2.0, grid.size)
    base = est_err(est, tru, grid)
    perm = rng.permutation(grid.size)
    assert est_err(est[perm], tru[perm], grid[perm]) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        est_err(est[:-1], tru, grid)


# ---------------------------------------------------------------------------
# time rescaling


def test_rescale_unit_poisson_gives_exact_z_values():
    quad = gauss_legendre(100, 0.0, 10.0)
    seq = EventSequence(np.array([1.0, 2.0, 3.0]), 10.0)
    samp = rescale(poisson_rates(1.0), seq, quad)
    np.testing.assert_array_equal(samp.lam, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(samp.tau, 1.0, rtol=1e-15)
    np.testing.assert_allclose(samp.z, -np.expm1(-1.0), rtol=1e-15)
    assert samp.n_clamped == 0


@given(data=st.data())
def test_rescale_increments_are_the_integrated_intensity_between_events(
    data, smooth_hawkes_windows, window_compensator
):
    """tau_i = Lambda(t_i) - Lambda(t_{i-1}), with Lambda a quadrature of lambda from 0: every
    lag in (0, T_phi] counts at its own value, every expired one at phi's whole mass."""
    rates, seq = data.draw(smooth_hawkes_windows)
    compensator = window_compensator(rates, seq.times, seq.times)
    samp = rescale(rates, seq)
    assert samp.tau.size == max(len(seq) - 1, 0)
    scale = 1e-10 * (1.0 + compensator[-1]) if len(seq) else 0.0
    np.testing.assert_allclose(samp.tau, np.diff(compensator), rtol=1e-10, atol=scale)


def test_rescale_raises_without_an_antiderivative():
    # no quadrature stands in for a missing antiderivative; the error names it
    seq = EventSequence(np.array([0.7, 2.0, 3.1, 9.9]), 10.0)
    exact = poisson_rates(1.3)
    for field in ("mu_integral", "phi_integral"):
        bare = replace(exact, **{field: None})
        with pytest.raises(ValueError, match=field):
            rescale(bare, seq)
        with pytest.raises(ValueError, match=field):
            held_out_ll(bare, seq)


def test_rescale_flags_negative_increments():
    # a (deliberately broken) decreasing compensator must be clamped and counted
    bad = RateFunctions(
        mu=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        T_phi=1.0,
        mu_integral=lambda t: np.interp(np.asarray(t, dtype=float), [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.5, 1.5]),
        phi_integral=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    quad = gauss_legendre(50, 0.0, 3.0)
    samp = rescale(bad, EventSequence(np.array([1.0, 2.0, 3.0]), 3.0), quad)
    assert samp.n_clamped == 1
    assert samp.tau[0] == 0.0 and samp.z[0] == 0.0
    assert samp.z[1] > 0.0


def test_rescale_empty_sequence_and_empty_ks():
    quad = gauss_legendre(50, 0.0, 5.0)
    samp = rescale(poisson_rates(1.0), EventSequence(np.empty(0), 5.0), quad)
    assert samp.z.size == 0 and samp.lam.size == 0
    with pytest.raises(ValueError):
        ks_statistic(samp)


def test_rescale_under_true_model_passes_ks():
    truth = case1_rates()
    quad = gauss_legendre(200, 0.0, 100.0)
    p_values = []
    for s in range(5):
        seq = simulate_thinning(truth, 100.0, seed=s)
        samp = rescale(truth, seq, quad)
        assert samp.n_clamped == 0
        _, p = ks_statistic(samp)
        p_values.append(p)
    assert min(p_values) > 0.01  # measured: 0.179, 0.625, 0.450, 0.252, 0.878


# ---------------------------------------------------------------------------
# KS statistic and Q-Q pairs


def sample_of(z):
    z = np.asarray(z, dtype=float)
    return RescaledSample(z=z, tau=-np.log1p(-z), lam=np.cumsum(-np.log1p(-z)), n_clamped=0)


def test_ks_single_midpoint():
    d, _ = ks_statistic(sample_of([0.5]))
    assert d == pytest.approx(0.5, abs=1e-15)


def test_ks_ideal_grid():
    n = 10
    d, p = ks_statistic(sample_of((np.arange(1, n + 1) - 0.5) / n))
    assert d == pytest.approx(0.5 / n, abs=1e-15)
    assert p > 0.99


def test_ks_uniform_calibration():
    passes = 0
    for s in range(100):
        z = np.random.default_rng(s).uniform(0.0, 1.0, 10_000)
        _, p = ks_statistic(sample_of(np.minimum(z, np.nextafter(1.0, 0.0))))
        passes += p > 0.01
    assert passes >= 97  # measured 99/100 with these seeds


@given(
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.floats(0.0, 1.0),
    top=st.floats(0.0, 0.2),
    repeats=st.integers(1, 4),
    power=st.floats(0.25, 4.0),
)
def test_ks_statistic_is_scipys_to_the_bit(n, seed, zeros, top, repeats, power):
    """ks_statistic's (D, p) are the floats of scipy's asymptotic one-sample test, on
    samples with runs of exact zeros (clamped increments), values at the largest double
    below 1 and repeated values; ``power`` moves the sample away from uniform."""
    rng = np.random.default_rng(seed)
    z = np.repeat(rng.uniform(0.0, 1.0, -(-n // repeats)) ** power, repeats)[:n]
    z[rng.random(n) < zeros] = 0.0
    z[rng.random(n) < top] = np.nextafter(1.0, 0.0)
    rng.shuffle(z)
    res = stats.kstest(z, "uniform", method="asymp")
    d, p = ks_statistic(sample_of(z))
    assert type(d) is float and type(p) is float
    assert (d, p) == (float(res.statistic), float(res.pvalue))


def test_qq_pairs_ordering_and_content(rng):
    z = rng.uniform(0.0, 1.0, 37)
    theo, emp = qq_pairs(sample_of(z))
    assert theo.shape == emp.shape == z.shape
    np.testing.assert_array_equal(theo, (np.arange(1, 38) - 0.5) / 37)
    np.testing.assert_array_equal(emp, np.sort(z))
    theo0, emp0 = qq_pairs(sample_of([]))
    assert theo0.size == 0 and emp0.size == 0


def test_rescaled_sample_rejects_out_of_range():
    for bad in ([-0.1], [1.0], [np.nan]):
        with pytest.raises(ValueError):
            RescaledSample(z=np.array(bad), tau=np.zeros(1), lam=np.zeros(1), n_clamped=0)
