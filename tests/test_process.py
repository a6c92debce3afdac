"""Event-sequence plumbing, intensities, likelihoods, and the thinning sampler."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.special import expit

from sgp_hawkes import fit_em, fit_vi, process, rates_for_eval
from sgp_hawkes.fitbase import model_rates
from sgp_hawkes.process import (
    _BOUND_GRID,
    _MAX_EVENTS,
    _TABLE_CHUNK,
    _TABLE_MAX_NODES,
    _TABLE_NODES,
    _TABLE_RTOL,
    CASE_T,
    CASE_T_PHI,
    EventSequence,
    NonFiniteLikelihoodError,
    RateFunctions,
    TabulationError,
    _checked_spline,
    _not_a_knot,
    admissible_pairs,
    case1_rates,
    case2_rates,
    intensities_at_events,
    log_likelihood,
    read_events_csv,
    simulate_thinning,
    table_rates,
    tabulate,
    trigger_integral,
    write_csv,
)
from sgp_hawkes.quadrature import gauss_legendre
from sgp_hawkes.serialize import read_manifest, write_manifest

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
    got = log_likelihood(EventSequence(times, T), rates)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_likelihood_trigger_truncation_convention():
    # an event 0.5 before the window's end is charged phi's mass up to 0.5, not up to T_phi = 2
    rates = exp_rates(1.0, 0.5, 1.0, 2.0)
    seq = EventSequence(np.array([9.5]), 10.0)
    want = np.log(1.0) - 10.0 - rates.phi_integral(np.array([0.5]))[0]
    assert log_likelihood(seq, rates) == pytest.approx(want, rel=1e-12)


@given(data=st.data())
def test_log_likelihood_is_the_log_intensities_minus_the_integrated_intensity(
    data, smooth_hawkes_windows, window_compensator
):
    """Sum of log lambda(t_i), each summed over its lags in (0, T_phi], minus a quadrature of
    lambda over [0, T]: events near T shed the trigger mass past the window."""
    rates, seq = data.draw(smooth_hawkes_windows)
    t = seq.times
    lag = t[:, None] - t[None, :]
    inside = (lag > 0.0) & (lag <= rates.T_phi)
    lam = rates.mu(t) + np.where(inside, rates.phi(np.where(inside, lag, 0.0)), 0.0).sum(axis=1)
    want = float(np.sum(np.log(lam)) - window_compensator(rates, t, [seq.T])[0])
    assert log_likelihood(seq, rates) == pytest.approx(want, rel=1e-10, abs=1e-10)


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


def reference_tail_max_table(f, upper: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid x_k and M_k >= sup_{tau >= x_k} f(tau) over [0, upper] (the list-based sampler's table)."""
    x = np.linspace(0.0, upper, size)
    vals = np.asarray(f(x), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("trigger rate must be finite and non-negative on [0, T_phi]")
    tail = np.maximum.accumulate(vals[::-1])[::-1]
    # headroom for the sup-on-a-grid underestimate of smooth rates
    return x, tail * (1.0 + 1e-3) + 1e-12


def reference_simulate_thinning(rates: RateFunctions, T: float, seed: int) -> EventSequence:
    """Ogata thinning as a plain loop over a list of events: at every candidate it
    copies the active events into an array, draws rng.uniform() after evaluating
    the full intensity mu + sum phi, and sums with np.sum. simulate_thinning must
    give the same bytes."""
    if not np.isfinite(T) or T <= 0.0:
        raise ValueError(f"window length must be positive, got {T}")
    rng = np.random.default_rng(seed)
    mu_grid = np.asarray(rates.mu(np.linspace(0.0, T, 2 * _BOUND_GRID + 1)), dtype=float)
    if np.any(~np.isfinite(mu_grid)) or np.any(mu_grid < 0.0):
        raise ValueError("background rate must be finite and non-negative on [0, T]")
    mu_sup = float(np.max(mu_grid)) * (1.0 + 1e-3) + 1e-12
    tail_x, tail_m = reference_tail_max_table(rates.phi, rates.T_phi, _BOUND_GRID + 1)

    events: list[float] = []
    t = 0.0
    start = 0  # index of the oldest event still within T_phi of t
    while True:
        while start < len(events) and t - events[start] > rates.T_phi:
            start += 1
        active = np.asarray(events[start:], dtype=float)
        bound = mu_sup
        if active.size:
            idx = np.searchsorted(tail_x, t - active, side="right") - 1
            bound += float(np.sum(tail_m[np.maximum(idx, 0)]))
        if bound <= 1e-12:
            break
        t = t + rng.exponential(1.0 / bound)
        if t > T:
            break
        while start < len(events) and t - events[start] > rates.T_phi:
            start += 1
        active = np.asarray(events[start:], dtype=float)
        lam = float(np.asarray(rates.mu(np.array([t])), dtype=float)[0])
        if active.size:
            lam += float(np.sum(np.asarray(rates.phi(t - active), dtype=float)))
        if rng.uniform() * bound <= lam:
            events.append(t)
            if len(events) >= _MAX_EVENTS:
                raise RuntimeError(f"simulation exceeded {_MAX_EVENTS} events; rates look non-stationary")
    return EventSequence(np.asarray(events, dtype=float), float(T))


def assert_reference_draws(rates, T, seeds) -> list[int]:
    """simulate_thinning's times equal the reference loop's, bytes and all; returns the event counts."""
    counts = []
    for seed in seeds:
        ours, ref = simulate_thinning(rates, T, seed).times, reference_simulate_thinning(rates, T, seed).times
        assert ours.dtype == ref.dtype and np.array_equal(ours, ref), f"seed {seed}"
        assert ours.tobytes() == ref.tobytes(), f"seed {seed}"
        counts.append(ours.size)
    return counts


@pytest.mark.parametrize("preset", [case1_rates, case2_rates])
def test_simulation_is_the_reference_loop_on_the_presets(preset):
    """The acceptance seeds 0-49, the held-out seed 104729 and the first 20 seeds of
    criterion 3's replication."""
    assert_reference_draws(preset(), CASE_T, [*range(50), 104729, *range(30_000, 30_020)])


def test_simulation_is_the_reference_loop_on_table_rates():
    rates = table_rates(
        np.linspace(0.0, CASE_T, 11),
        np.array([0.5, 1.5, 0.2, 0.0, 2.0, 1.0, 1.0, 0.3, 0.9, 1.2, 0.4]),
        np.array([0.0, 0.5, 1.0, 3.0, 4.0]),
        np.array([0.45, 0.3, 0.15, 0.025, 0.0]),
        4.0,
    )
    assert sum(assert_reference_draws(rates, CASE_T, range(10))) > 0


@pytest.mark.parametrize("fit", [fit_em, fit_vi])
def test_simulation_is_the_reference_loop_on_fitted_rates(fit, small_case1_seqs, small_config):
    rates = rates_for_eval(fit(small_case1_seqs, replace(small_config, max_iter=5))[0])
    assert sum(assert_reference_draws(rates, CASE_T, range(5))) > 0


def test_simulation_is_the_reference_loop_without_events():
    """A zero rate stops at the first bound, and a window too short for any event ends
    at the first candidate."""
    assert assert_reference_draws(constant_rates(0.0, 0.0, 1.0), CASE_T, range(5)) == [0] * 5
    assert assert_reference_draws(case1_rates(), 1e-6, range(5)) == [0] * 5


def test_simulation_is_the_reference_loop_past_several_buffer_doublings():
    assert min(assert_reference_draws(case1_rates(), 1000.0, [0, 1])) > 1000


def test_simulation_stops_at_the_event_cap(monkeypatch):
    """A trigger of mass 2 per event is supercritical: this window holds 530 events
    without a cap. The cap is read at call time."""
    monkeypatch.setattr(process, "_MAX_EVENTS", 50)
    with pytest.raises(RuntimeError, match="exceeded 50 events; rates look non-stationary"):
        simulate_thinning(constant_rates(1.0, 0.5, 4.0), 15.0, seed=0)


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


@pytest.mark.parametrize(
    "name, tables",
    [
        ("mu", ([0.0, np.nan], [1.0, 1.0], [0.0, 1.0], [0.1, 0.1])),
        ("mu", ([0.0, 10.0], [np.nan, 1.0], [0.0, 1.0], [0.1, 0.1])),
        ("phi", ([0.0, 10.0], [1.0, 1.0], [0.0, np.inf], [0.1, 0.1])),
        ("phi", ([0.0, 10.0], [1.0, 1.0], [0.0, 1.0], [np.inf, 0.1])),
    ],
)
def test_table_rates_rejects_non_finite_tables(name, tables):
    # the order checks are false on NaN, so they alone would let a NaN through
    with pytest.raises(ValueError, match=f"^{name} table needs finite abscissae and values"):
        table_rates(*tables, t_phi=1.0)


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


# ---------------------------------------------------------------------------
# Rate tables: the same splines as a CubicSpline built and checked at every level


def reference_checked_spline(f, upper: float, name: str) -> CubicSpline:
    """The per-level loop that _checked_spline replaced: every level builds a
    CubicSpline and evaluates it at the cell midpoints."""

    def values(x):
        chunks = [f(x[i : i + _TABLE_CHUNK]) for i in range(0, x.size, _TABLE_CHUNK)]
        return np.concatenate([np.asarray(c, dtype=float) for c in chunks])

    x = np.linspace(0.0, upper, _TABLE_NODES)
    y = values(x)
    while True:
        mid = 0.5 * (x[:-1] + x[1:])
        y_mid = values(mid)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_mid))):
            raise TabulationError(f"{name} is not finite on [0, {upper}]")
        spline = CubicSpline(x, y, extrapolate=False)
        error = float(np.max(np.abs(spline(mid) - y_mid)))
        if error <= _TABLE_RTOL * max(float(np.max(np.abs(y))), float(np.max(np.abs(y_mid)))):
            return spline
        if x.size >= _TABLE_MAX_NODES:
            raise TabulationError(
                f"{name} table of {x.size} nodes misses its tolerance: midpoint error {error:.3g}"
            )
        x = np.insert(x, np.arange(1, x.size), mid)
        y = np.insert(y, np.arange(1, y.size), y_mid)


def phi_from_zero(phi):
    """The trigger as tabulate tabulates it: the smallest positive lag stands in for 0."""
    return lambda tau: phi(np.maximum(tau, np.nextafter(0.0, 1.0)))


def assert_same_bytes(ours, ref):
    """Two piecewise polynomials with the same breakpoints and coefficients, bytes and all."""
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.c.shape == ref.c.shape and ours.c.tobytes() == ref.c.tobytes()


def assert_reference_table(f, upper, name) -> int:
    """_checked_spline(f) is the reference loop's spline and integrates to the same
    antiderivative; returns its node count."""
    ours, ref = _checked_spline(f, upper, name), reference_checked_spline(f, upper, name)
    assert_same_bytes(ours, ref)
    assert_same_bytes(ours.antiderivative(), ref.antiderivative())
    assert ours.extrapolate == ref.extrapolate is False
    return ours.x.size


@pytest.mark.parametrize("preset", [case1_rates, case2_rates])
def test_tables_are_the_reference_loops_on_the_preset_backgrounds(preset):
    assert assert_reference_table(preset().mu, CASE_T, "mu") >= _TABLE_NODES


def test_tables_are_the_reference_loops_on_the_case2_trigger():
    assert assert_reference_table(phi_from_zero(case2_rates().phi), CASE_T_PHI, "phi") >= _TABLE_NODES


@pytest.mark.parametrize("fit", [fit_em, fit_vi])
def test_tables_are_the_reference_loops_on_fitted_rates(fit, small_case1_seqs, small_config):
    """rates_for_eval's antiderivatives are those of the reference loop's mu and phi splines."""
    model = fit(small_case1_seqs, replace(small_config, max_iter=5))[0]
    exact, table = model_rates(model), rates_for_eval(model)
    for name, f, upper, integral in (
        ("mu", exact.mu, model.T, table.mu_integral),
        ("phi", phi_from_zero(exact.phi), exact.T_phi, table.phi_integral),
    ):
        assert_reference_table(f, upper, name)
        assert_same_bytes(integral, reference_checked_spline(f, upper, name).antiderivative())


def test_tables_are_the_reference_loops_past_four_levels():
    """A background that takes 257 -> 513 -> 1025 -> 2049 -> ... nodes to meet the bound."""
    nodes = assert_reference_table(lambda t: 1.0 + 0.5 * np.sin(np.asarray(t)), CASE_T, "mu")
    assert nodes >= 8 * (_TABLE_NODES - 1) + 1


def test_tables_raise_the_reference_loops_errors():
    """The same messages, after the same 1 048 577-node table for case 1's kinked trigger."""
    for f, upper, name, message in (
        (phi_from_zero(case1_rates().phi), CASE_T_PHI, "phi", "phi table of 1048577 nodes misses"),
        (lambda t: np.full_like(t, np.nan), CASE_T, "mu", "mu is not finite"),
    ):
        errors = []
        for build in (_checked_spline, reference_checked_spline):
            with pytest.raises(TabulationError, match=message) as info:
                build(f, upper, name)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def test_tabulate_rejects_an_empty_or_reversed_window():
    """A window [0, T] with T <= 0 is refused before any level is evaluated, as the
    per-level CubicSpline refused its non-increasing grid."""
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match=r"^mu table needs a positive window"):
            tabulate(case2_rates(), T)


def test_level_check_reads_the_cubic_splines_midpoints(rng):
    """_not_a_knot's coefficients and midpoint values are CubicSpline(x, y)'s, to the bit,
    on a uniform grid, on that grid refined by one to three levels and on uneven grids."""
    grids = [np.linspace(0.0, CASE_T, _TABLE_NODES)]
    for _ in range(3):
        x = grids[-1]
        grids.append(np.insert(x, np.arange(1, x.size), 0.5 * (x[:-1] + x[1:])))
    grids += [np.cumsum(rng.uniform(0.01, 1.0, n)) for n in (4, 5, 257, 1000)]
    for x in grids:
        for y in (case2_rates().mu(x), rng.normal(size=x.size)):
            c, at_mid = _not_a_knot(x, y)
            spline = CubicSpline(x, y)
            assert c.tobytes() == spline.c.tobytes()
            assert at_mid.tobytes() == spline(0.5 * (x[:-1] + x[1:])).tobytes()


def sigmoid_gp_rate(bound, u, lengthscale, upper):
    """t -> bound * sigmoid(k(t, z) K^-1 u): a sparse GP mean through a sigmoid, z even on [0, upper]."""
    z = np.linspace(0.0, upper, u.size)
    gram = np.exp(-0.5 * ((z[:, None] - z) / lengthscale) ** 2) + 1e-8 * np.eye(u.size)
    weights = np.linalg.solve(gram, u)

    def rate(t):
        return bound * expit(np.exp(-0.5 * ((np.asarray(t, dtype=float)[..., None] - z) / lengthscale) ** 2) @ weights)

    return rate


def midpoint_error(integral, table_rate, f) -> float:
    """Largest miss of the table at its own cell midpoints, over the tolerance allowed there."""
    x = integral.x
    mid = 0.5 * (x[:-1] + x[1:])
    scale = max(float(np.max(np.abs(f(x)))), float(np.max(np.abs(f(mid)))))
    return float(np.max(np.abs(table_rate(mid) - f(mid)))) / (_TABLE_RTOL * scale)


@given(
    seed=st.integers(0, 2**32 - 1),
    lengthscale=st.floats(0.5, 12.0),
    amplitude=st.floats(0.1, 3.0),
    bounds=st.tuples(st.floats(0.05, 5.0), st.floats(0.05, 5.0)),
)
def test_tabulate_meets_its_bound_at_its_own_midpoints_or_raises(seed, lengthscale, amplitude, bounds):
    """Smooth random rates bound * sigmoid(k K^-1 u): every returned table, mu and phi,
    is within _TABLE_RTOL of the rate's maximum at the midpoints of its final cells."""
    rng = np.random.default_rng(seed)
    rates = RateFunctions(
        mu=sigmoid_gp_rate(bounds[0], amplitude * rng.normal(size=12), lengthscale, CASE_T),
        phi=sigmoid_gp_rate(bounds[1], amplitude * rng.normal(size=8), lengthscale * CASE_T_PHI / CASE_T, CASE_T_PHI),
        T_phi=CASE_T_PHI,
    )
    try:
        table = tabulate(rates, CASE_T)
    except TabulationError:
        return
    assert midpoint_error(table.mu_integral, table.mu, rates.mu) <= 1.0
    assert midpoint_error(table.phi_integral, table.phi, rates.phi) <= 1.0


def test_events_csv_roundtrip(tmp_path, rng):
    times = np.sort(rng.uniform(0.0, 10.0, 25))
    seq = EventSequence(times, 10.0)
    path = tmp_path / "events.csv"
    write_csv(path, "t", seq.times)
    text = path.read_text()
    assert text.splitlines()[0] == "t"
    back = read_events_csv(path, 10.0)
    np.testing.assert_array_equal(back.times, seq.times)  # 17-digit repr is lossless
    assert back.T == 10.0


def test_empty_events_csv_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, "t", np.array([]))
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
