"""Event-sequence plumbing, intensities, likelihoods, and the thinning sampler."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgp_hawkes.process import (
    CASE_T,
    CASE_T_PHI,
    EventSequence,
    NonFiniteLikelihoodError,
    RateFunctions,
    TabulationError,
    admissible_pairs,
    case1_rates,
    case2_rates,
    intensities_at_events,
    log_likelihood,
    read_events_csv,
    read_manifest,
    simulate_thinning,
    table_rates,
    tabulate,
    trigger_integral,
    write_events_csv,
    write_manifest,
)
from sgp_hawkes.quadrature import gauss_legendre

CASE2_BRANCHING_RATIO = 0.54905907532430  # quadrature value of the trigger mass


def constant_rates(mu_value, phi_value, t_phi):
    return RateFunctions(
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), mu_value),
        phi=lambda x: np.full_like(np.asarray(x, dtype=float), phi_value),
        T_phi=t_phi,
        mu_integral=lambda t: mu_value * np.asarray(t, dtype=float),
        phi_integral=lambda x: phi_value * np.asarray(x, dtype=float),
    )


def exp_rates(mu_value, alpha, beta, t_phi):
    return RateFunctions(
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), mu_value),
        phi=lambda x: alpha * np.exp(-beta * np.asarray(x, dtype=float)),
        T_phi=t_phi,
        mu_integral=lambda t: mu_value * np.asarray(t, dtype=float),
        phi_integral=lambda x: (alpha / beta) * -np.expm1(-beta * np.asarray(x, dtype=float)),
    )


def test_event_sequence_validation():
    EventSequence(times=np.array([]), T=5.0)
    EventSequence(times=np.array([0.0, 5.0]), T=5.0)
    with pytest.raises(ValueError):
        EventSequence(times=np.array([3.0, 1.0]), T=10.0)
    with pytest.raises(ValueError):
        EventSequence(times=np.array([-1.0]), T=10.0)
    with pytest.raises(ValueError):
        EventSequence(times=np.array([11.0]), T=10.0)


def test_admissible_pairs_bruteforce(rng):
    times = np.sort(rng.uniform(0.0, 20.0, 12))
    t_phi = 3.0
    child, lag = admissible_pairs(times, t_phi)
    want = [
        (i, times[i] - times[j])
        for i in range(times.size)
        for j in range(i)
        if 0.0 < times[i] - times[j] <= t_phi
    ]
    assert list(child) == [c for c, _ in want]
    np.testing.assert_allclose(lag, [l for _, l in want], rtol=0, atol=0)


@given(
    times=st.lists(st.floats(0.0, 50.0), max_size=40, unique=True).map(sorted),
    t_phi=st.floats(1e-3, 20.0),
)
def test_admissible_pairs_match_quadratic_scan(times, t_phi):
    times = np.array(times, dtype=float)
    child, lag = admissible_pairs(times, t_phi)
    want = [
        (i, times[i] - times[j])
        for i in range(times.size)
        for j in range(i)
        if 0.0 < times[i] - times[j] <= t_phi
    ]
    assert child.tolist() == [c for c, _ in want]
    assert lag.tolist() == [l for _, l in want]


def test_admissible_pairs_empty_when_spread_out():
    times = np.array([0.0, 10.0, 20.0])
    child, lag = admissible_pairs(times, 3.0)
    assert child.size == 0 and lag.size == 0


def test_intensities_match_bruteforce_pair_sum(rng):
    times = np.sort(rng.uniform(0.0, 30.0, 10))
    seq = EventSequence(times, 30.0)
    rates = case1_rates()
    got = intensities_at_events(seq, rates)
    for i in range(times.size):
        lam = rates.mu(np.array([times[i]]))[0]
        for j in range(i):
            tau = times[i] - times[j]
            if 0.0 < tau <= rates.T_phi:
                lam += rates.phi(np.array([tau]))[0]
        assert got[i] == pytest.approx(lam, rel=1e-12)


def test_log_likelihood_empty_sequence():
    rates = constant_rates(1.0, 0.0, 2.0)
    seq = EventSequence(np.array([]), 10.0)
    assert log_likelihood(seq, rates) == pytest.approx(-10.0, rel=1e-13)


def test_log_likelihood_single_event_constant_background():
    rates = constant_rates(2.0, 0.0, 2.0)
    seq = EventSequence(np.array([5.0]), 10.0)
    want = np.log(2.0) - 20.0
    assert log_likelihood(seq, rates) == pytest.approx(want, rel=1e-13)


def test_log_likelihood_exponential_kernel_closed_form():
    """Three events under an exponential trigger: hand-assembled value."""
    mu0, alpha, beta = 1.5, 0.8, 1.2
    T = 10.0
    times = np.array([1.0, 2.0, 4.5])
    rates = exp_rates(mu0, alpha, beta, T)  # support covers the whole window
    lam1 = mu0
    lam2 = mu0 + alpha * np.exp(-beta * 1.0)
    lam3 = mu0 + alpha * np.exp(-beta * 3.5) + alpha * np.exp(-beta * 2.5)
    comp = mu0 * T + (alpha / beta) * sum(1.0 - np.exp(-beta * (T - t)) for t in times)
    want = np.log(lam1) + np.log(lam2) + np.log(lam3) - comp
    got = log_likelihood(EventSequence(times, T), rates, truncate_trigger=True)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_likelihood_trigger_truncation_convention():
    # untruncated mode charges the full kernel mass per event regardless of
    # how close the event sits to the right edge
    rates = exp_rates(1.0, 0.5, 1.0, 2.0)
    times = np.array([9.5])
    seq = EventSequence(times, 10.0)
    full = log_likelihood(seq, rates, truncate_trigger=False)
    trunc = log_likelihood(seq, rates, truncate_trigger=True)
    phi_int = rates.phi_integral
    want_gap = phi_int(np.array([2.0]))[0] - phi_int(np.array([0.5]))[0]
    assert trunc - full == pytest.approx(want_gap, rel=1e-12)


def test_trigger_integral_raises_without_an_antiderivative():
    # scoring has one compensator per rate: no quadrature stands in for a
    # missing phi_integral, and the error names the field
    exact = exp_rates(1.0, 0.8, 1.1, 6.0)
    upper = np.array([0.0, 0.3, 1.7, np.pi, 5.9])
    want = (0.8 / 1.1) * -np.expm1(-1.1 * upper)
    np.testing.assert_allclose(trigger_integral(exact, upper), want, rtol=1e-15)
    bare = replace(exact, phi_integral=None)
    with pytest.raises(ValueError, match="phi_integral"):
        trigger_integral(bare, upper)
    with pytest.raises(ValueError, match="phi_integral"):
        log_likelihood(EventSequence(np.array([1.0, 2.0]), 10.0), bare)
    with pytest.raises(ValueError, match="mu_integral"):
        log_likelihood(EventSequence(np.array([1.0, 2.0]), 10.0), replace(exact, mu_integral=None))


def test_log_likelihood_truncation_flag_is_keyword_only():
    # a stray positional third argument must raise, not bind to truncate_trigger
    rates = exp_rates(1.0, 0.5, 1.0, 2.0)
    with pytest.raises(TypeError):
        log_likelihood(EventSequence(np.array([9.5]), 10.0), rates, False)


def test_simulation_is_deterministic():
    rates = case1_rates()
    a = simulate_thinning(rates, 50.0, seed=7)
    b = simulate_thinning(rates, 50.0, seed=7)
    np.testing.assert_array_equal(a.times, b.times)
    c = simulate_thinning(rates, 50.0, seed=8)
    assert not np.array_equal(a.times, c.times)


def test_simulation_zero_intensity_yields_empty():
    rates = constant_rates(0.0, 0.0, 1.0)
    seq = simulate_thinning(rates, 100.0, seed=3)
    assert seq.times.size == 0


def test_simulation_poisson_mean_count():
    rates = constant_rates(1.0, 0.0, 1.0)
    counts = [simulate_thinning(rates, 1000.0, seed=s).times.size for s in range(200)]
    assert abs(np.mean(counts) - 1000.0) < 3.0 * np.sqrt(1000.0)


def test_simulation_case2_mean_count_matches_branching_theory(integrate):
    rates = case2_rates()
    quad_mu = gauss_legendre(200, 0.0, CASE_T)
    quad_phi = gauss_legendre(200, 0.0, CASE_T_PHI)
    mu_mass = integrate(quad_mu, rates.mu)
    trigger_mass = integrate(quad_phi, rates.phi)
    expected = mu_mass / (1.0 - trigger_mass)
    counts = [simulate_thinning(rates, CASE_T, seed=s).times.size for s in range(100)]
    assert abs(np.mean(counts) - expected) / expected < 0.10


def test_case1_rate_definitions():
    rates = case1_rates()
    t = np.linspace(0.0, CASE_T, 7)
    np.testing.assert_array_equal(rates.mu(t), np.ones_like(t))
    tau = np.array([0.1, 1.0, np.pi / 2, 3.0])
    np.testing.assert_allclose(rates.phi(tau), 0.33 * np.sin(tau), rtol=1e-15)
    assert rates.phi(np.array([3.5]))[0] == 0.0  # support ends at pi
    assert rates.T_phi == CASE_T_PHI


def test_case2_rate_definitions():
    rates = case2_rates()
    t = np.array([0.0, 12.5, 60.0])
    np.testing.assert_allclose(rates.mu(t), np.sin(2 * np.pi * t / CASE_T) + 1.0, atol=1e-15)
    tau = np.array([0.5, 2.0, 5.5])
    want = 0.3 * (np.sin(2 * np.pi * tau / 3.0) + 1.0) * np.exp(-0.7 * tau)
    np.testing.assert_allclose(rates.phi(tau), want, rtol=1e-15)


def test_preset_integrals_match_quadrature(integrate):
    for rates in (case1_rates(), case2_rates()):
        quad = gauss_legendre(400, 0.0, CASE_T)
        upper = np.array([13.7])
        got = rates.mu_integral(upper)[0]
        want = integrate(gauss_legendre(400, 0.0, 13.7), rates.mu)
        assert got == pytest.approx(want, rel=1e-10)
        got_phi = rates.phi_integral(np.array([2.5]))[0]
        want_phi = integrate(gauss_legendre(400, 0.0, 2.5), rates.phi)
        assert got_phi == pytest.approx(want_phi, rel=1e-10)


def test_preset_branching_ratios():
    assert case1_rates().phi_integral(np.array([CASE_T_PHI]))[0] == pytest.approx(0.66, abs=1e-12)
    got = case2_rates().phi_integral(np.array([CASE_T_PHI]))[0]
    assert got == pytest.approx(CASE2_BRANCHING_RATIO, abs=1e-10)


def test_table_rates_interpolation():
    mu_t = np.array([0.0, 5.0, 10.0])
    mu_v = np.array([1.0, 3.0, 2.0])
    phi_t = np.array([0.0, 1.0, 2.0])
    phi_v = np.array([0.0, 0.5, 0.0])
    rates = table_rates(mu_t, mu_v, phi_t, phi_v, t_phi=2.0)
    t = np.array([2.5, 7.5])
    np.testing.assert_allclose(rates.mu(t), np.interp(t, mu_t, mu_v), rtol=1e-15)
    assert rates.phi(np.array([0.5]))[0] == pytest.approx(0.25, rel=1e-15)
    assert rates.T_phi == 2.0


def test_tabulate_matches_smooth_rates_and_their_integrals():
    exact = case2_rates()
    table = tabulate(exact, CASE_T)
    t = np.linspace(0.0, CASE_T, 10_001)
    tau = np.linspace(1e-9, CASE_T_PHI, 10_001)
    # 1e-10 of the maximum at cell midpoints; elsewhere in a cell within 10x that
    np.testing.assert_allclose(table.mu(t), exact.mu(t), rtol=0, atol=1e-9 * exact.mu(t).max())
    np.testing.assert_allclose(table.phi(tau), exact.phi(tau), rtol=0, atol=1e-9 * exact.phi(tau).max())
    np.testing.assert_allclose(table.mu_integral(t), exact.mu_integral(t), rtol=0, atol=1e-8)
    np.testing.assert_allclose(table.phi_integral(tau), exact.phi_integral(tau), rtol=0, atol=1e-9)
    assert table.T_phi == exact.T_phi
    # the support mask is applied again outside the table
    np.testing.assert_array_equal(table.phi(np.array([-1.0, 0.0, CASE_T_PHI + 1.0])), 0.0)
    assert table.phi(np.array([1e-300]))[0] == pytest.approx(0.3, rel=1e-9)
    # no extrapolation beyond the tabulated window
    assert np.isnan(table.mu(np.array([CASE_T + 1.0]))[0])
    with pytest.raises(NonFiniteLikelihoodError, match="background compensator"):
        log_likelihood(EventSequence(np.empty(0), 2 * CASE_T), table)


def test_tabulate_never_goes_negative():
    # zero on [0, 50]: the spline rings slightly below zero there, the table clips
    ramp = RateFunctions(
        mu=lambda t: (np.maximum(np.asarray(t) - 50.0, 0.0) / 50.0) ** 4, phi=case2_rates().phi, T_phi=CASE_T_PHI
    )
    table = tabulate(ramp, CASE_T)
    t = np.linspace(0.0, CASE_T, 200_001)
    assert np.all(table.mu(t) >= 0.0)
    np.testing.assert_allclose(table.mu(t), ramp.mu(t), rtol=0, atol=1e-9)


def test_tabulate_raises_rather_than_miss_its_tolerance():
    # case 1's trigger has a kink at pi that no cubic-spline table resolves
    with pytest.raises(TabulationError, match="phi table of 1048577 nodes"):
        tabulate(case1_rates(), CASE_T)
    nan_rates = RateFunctions(mu=lambda t: np.full_like(t, np.nan), phi=case2_rates().phi, T_phi=CASE_T_PHI)
    with pytest.raises(TabulationError, match="mu is not finite"):
        tabulate(nan_rates, CASE_T)


def test_events_csv_roundtrip(tmp_path, rng):
    times = np.sort(rng.uniform(0.0, 10.0, 25))
    seq = EventSequence(times, 10.0)
    path = tmp_path / "events.csv"
    write_events_csv(path, seq)
    text = path.read_text()
    assert text.splitlines()[0] == "t"
    back = read_events_csv(path, 10.0)
    np.testing.assert_array_equal(back.times, seq.times)  # 17-digit repr is lossless
    assert back.T == 10.0


def test_empty_events_csv_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    write_events_csv(path, EventSequence(np.array([]), 4.0))
    back = read_events_csv(path, 4.0)
    assert back.times.size == 0


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, T=100.0, T_phi=6.0, preset="case1", n_train=3)
    info = read_manifest(path)
    assert info["T"] == 100.0
    assert info["T_phi"] == 6.0
    assert info["preset"] == "case1"
    assert info["n_train"] == 3
