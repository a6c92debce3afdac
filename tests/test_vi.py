"""Mean-field engine: factor closed forms, coordinate-update purity, the
free-energy monitor, and the degenerate-variance coupling to EM."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import digamma, expit

from sgp_hawkes import FitConfig, fit_em, fit_vi
from sgp_hawkes.em import build_caches, estep_branching, init_model
from sgp_hawkes.em import model_rates as em_model_rates
from sgp_hawkes.fitbase import build_dataset
from sgp_hawkes.kernels import gram, se_cross
from sgp_hawkes.process import EventSequence
from sgp_hawkes.vi import (
    GammaFactor,
    GaussianFactor,
    PoissonRates,
    ViModel,
    init_vi_model,
    model_rates,
    posterior_bands,
    vi_branching_update,
    vi_gp_update,
    vi_lambda_update,
    vi_monitor,
    vi_pg_update,
    vi_poisson_update,
)

EULER_GAMMA = 0.5772156649015328606


def vi_state(seqs, config, n_sweeps=4):
    """A mid-trajectory variational state plus its neighbor factors."""
    data = build_dataset(seqs, config.T_phi)
    caches = build_caches(data, config)
    model, _ = fit_vi(seqs, replace(config, max_iter=n_sweeps, tol=0.0))
    return model, data, caches


@pytest.fixture(scope="module")
def state():
    seqs = [
        EventSequence(np.sort(np.random.default_rng(s).uniform(0.0, 30.0, 25)), 30.0)
        for s in range(3)
    ]
    config = FitConfig(T=30.0, T_phi=3.0, max_iter=6, hyper_refresh_every=0)
    return vi_state(seqs, config)


def test_gamma_factor_moments():
    g = GammaFactor(1.0, 1.0)
    assert g.mean() == 1.0
    assert abs(g.mean_log() - (-EULER_GAMMA)) < 1e-10
    assert abs(g.geometric_mean() - np.exp(-EULER_GAMMA)) < 1e-10
    h = GammaFactor(3.0, 2.0)
    assert h.mean() == 1.5
    assert h.mean_log() == pytest.approx(digamma(3.0) - np.log(2.0), abs=1e-14)


def test_gamma_factor_validation():
    with pytest.raises(ValueError):
        GammaFactor(0.0, 1.0)
    with pytest.raises(ValueError):
        GammaFactor(1.0, -2.0)


def test_tilt_closed_forms(state):
    model, data, caches = state
    zero = ViModel(
        gp_mu=GaussianFactor(np.zeros(model.grid_mu.count), 1e-300 * np.eye(model.grid_mu.count)),
        gp_phi=GaussianFactor(np.zeros(model.grid_phi.count), 1e-300 * np.eye(model.grid_phi.count)),
        lam_mu=model.lam_mu,
        lam_phi=model.lam_phi,
        grid_mu=model.grid_mu,
        grid_phi=model.grid_phi,
        hp_mu=model.hp_mu,
        hp_phi=model.hp_phi,
        T=model.T,
        T_phi=model.T_phi,
    )
    tilts = vi_pg_update(zero, data, caches)
    np.testing.assert_allclose(tilts.events, 0.0, atol=1e-148)
    # mean 3, variance 4 -> tilt sqrt(13); build via a carefully scaled factor
    assert np.hypot(3.0, 2.0) == pytest.approx(np.sqrt(13.0), rel=1e-15)


def test_poisson_rate_flat_state(state):
    model, data, caches = state
    ngrid = model.grid_mu.count
    flat = replace(
        model,
        gp_mu=GaussianFactor(np.zeros(ngrid), 1e-300 * np.eye(ngrid)),
    )
    rates = vi_poisson_update(flat, caches)
    lam_geo = flat.lam_mu.geometric_mean()
    np.testing.assert_allclose(rates.marginal_mu, lam_geo / 2.0, rtol=1e-12)
    np.testing.assert_allclose(rates.mass_mu, lam_geo / 2.0 * model.T, rtol=1e-12)


def test_poisson_rate_decreases_with_variance(state):
    """At zero projected mean the thinned-process rate shrinks as the
    projected variance grows: the tilt is c = sqrt(v) and the factor
    e^{c/2} sigma(-c) has derivative 1/2 - sigma(c) < 0 for c > 0 (log-sigmoid
    concavity: extra uncertainty can only lower exp(E[log sigma(-f)]))."""
    model, data, caches = state
    ngrid = model.grid_mu.count
    gm = caches["mu"].gm
    masses = []
    for scale in (1e-12, 0.25, 1.0, 4.0):
        m = replace(model, gp_mu=GaussianFactor(np.zeros(ngrid), scale * gm.values))
        masses.append(vi_poisson_update(m, caches).mass_mu)
    assert np.all(np.diff(masses) < 0)
    # direct scan of the scalar factor
    c = np.linspace(0.0, 6.0, 100)
    factor = np.exp(c / 2.0) * expit(-c)
    assert np.all(np.diff(factor) < 0)


def test_poisson_rate_gamma_one_one(state):
    model, data, caches = state
    ngrid = model.grid_mu.count
    m = replace(
        model,
        gp_mu=GaussianFactor(np.zeros(ngrid), 1e-300 * np.eye(ngrid)),
        lam_mu=GammaFactor(1.0, 1.0),
    )
    rates = vi_poisson_update(m, caches)
    want = np.exp(-EULER_GAMMA) / 2.0
    np.testing.assert_allclose(rates.marginal_mu, want, atol=1e-10)


def test_lambda_update_no_events():
    seqs = [EventSequence(np.array([]), 20.0)]
    data = build_dataset(seqs, 2.0)
    from sgp_hawkes.fitbase import uniform_branching

    branching = uniform_branching(data)
    rates = PoissonRates(
        marginal_mu=np.zeros(1), first_mu=np.zeros(1), mass_mu=7.5,
        marginal_phi=np.zeros(1), first_phi=np.zeros(1), mass_phi=0.0,
    )
    lam_mu, lam_phi = vi_lambda_update(branching, rates, data)
    assert lam_mu.alpha == pytest.approx(7.5)
    assert lam_mu.beta == pytest.approx(20.0)
    assert lam_phi is None


def test_lambda_update_all_background():
    times = np.array([2.0, 6.0, 10.0, 14.0, 18.0])
    seqs = [EventSequence(times, 20.0)]
    data = build_dataset(seqs, 1.0)  # spacing 4 > T_phi: no admissible pairs
    from sgp_hawkes.fitbase import uniform_branching

    branching = uniform_branching(data)
    rates = PoissonRates(
        marginal_mu=np.zeros(1), first_mu=np.zeros(1), mass_mu=0.0,
        marginal_phi=np.zeros(1), first_phi=np.zeros(1), mass_phi=0.0,
    )
    lam_mu, lam_phi = vi_lambda_update(branching, rates, data)
    assert lam_mu.alpha == pytest.approx(5.0, abs=1e-10)
    assert lam_mu.mean() == pytest.approx(5.0 / 20.0, rel=1e-10)
    # no pairwise evidence: the trigger factor degenerates to the alpha floor,
    # which drives its geometric mean (and hence the trigger rate) to zero
    assert lam_phi.alpha == pytest.approx(1e-12)
    assert lam_phi.beta == pytest.approx(5.0)
    assert lam_phi.geometric_mean() == 0.0


def test_gp_update_prior_recovery(state):
    model, data, caches = state
    empty_data = build_dataset([EventSequence(np.array([]), model.T)], model.T_phi)
    empty_caches = build_caches(
        empty_data, FitConfig(T=model.T, T_phi=model.T_phi, hyper_refresh_every=0)
    )
    from sgp_hawkes.fitbase import uniform_branching
    from sgp_hawkes.vi import PgTilts

    tilts = PgTilts(events=np.zeros(0), pairs=np.zeros(0))
    branching = uniform_branching(empty_data)
    nq = empty_caches["mu"].quad.nodes.size
    nq_phi = empty_caches["phi"].quad.nodes.size
    rates = PoissonRates(
        marginal_mu=np.zeros(nq), first_mu=np.zeros(nq), mass_mu=0.0,
        marginal_phi=np.zeros(nq_phi), first_phi=np.zeros(nq_phi), mass_phi=0.0,
    )
    gp_mu, gp_phi = vi_gp_update(tilts, branching, rates, empty_data, empty_caches)
    np.testing.assert_allclose(gp_mu.mean, 0.0, atol=1e-13)
    np.testing.assert_allclose(gp_mu.cov, empty_caches["mu"].gm.values, atol=1e-9)


def test_gp_update_matches_dense_assembly(rng):
    """S=2 toy: the Gaussian factor equals K(U+K)^-1 c and K(U+K)^-1 K with
    U, c assembled by explicit loops over points and quadrature nodes."""
    times = np.sort(rng.uniform(0.0, 10.0, 4))
    seqs = [EventSequence(times, 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, S_mu=2, S_phi=2, hyper_refresh_every=0)
    model, data, caches = vi_state(seqs, config, n_sweeps=3)
    tilts = vi_pg_update(model, data, caches)
    branching = vi_branching_update(model, data, caches)
    rates = vi_poisson_update(model, caches)
    gp_mu, _ = vi_gp_update(tilts, branching, rates, data, caches)

    cache = caches["mu"]

    def pg_of(c):
        c = np.asarray(c, dtype=float)
        return np.where(np.abs(c) < 1e-4, 0.25 - c * c / 48.0, np.tanh(c / 2.0) / (2.0 * c))

    a_pt = pg_of(tilts.events) * branching.background
    b_pt = 0.5 * branching.background
    a_q = rates.first_mu
    b_q = -0.5 * rates.marginal_mu
    u_dense = np.zeros((2, 2))
    c_dense = np.zeros(2)
    for a, b, x in zip(a_pt, b_pt, data.events):
        k = se_cross(np.array([x]), cache.grid.points, cache.hp)[0]
        u_dense += a * np.outer(k, k)
        c_dense += b * k
    for w, a, b, x in zip(cache.quad.weights, a_q, b_q, cache.quad.nodes):
        k = se_cross(np.array([x]), cache.grid.points, cache.hp)[0]
        u_dense += w * a * np.outer(k, k)
        c_dense += w * b * k
    kmat = cache.gm.values
    solve = np.linalg.solve(u_dense + kmat, np.eye(2))
    np.testing.assert_allclose(gp_mu.mean, kmat @ solve @ c_dense, rtol=0, atol=1e-8)
    np.testing.assert_allclose(gp_mu.cov, kmat @ solve @ kmat, rtol=0, atol=1e-8)


def test_gp_update_contracts_prior_covariance(state):
    """Adding a PSD term to the precision can only shrink the covariance:
    eigenvalues of K - cov must be >= -1e-8."""
    model, data, caches = state
    tilts = vi_pg_update(model, data, caches)
    branching = vi_branching_update(model, data, caches)
    rates = vi_poisson_update(model, caches)
    gp_mu, gp_phi = vi_gp_update(tilts, branching, rates, data, caches)
    for factor, cache in ((gp_mu, caches["mu"]), (gp_phi, caches["phi"])):
        gap = cache.gm.values - factor.cov
        eigs = np.linalg.eigvalsh(0.5 * (gap + gap.T))
        assert eigs.min() > -1e-8


def test_branching_first_event_background_one(state):
    model, data, caches = state
    br = vi_branching_update(model, data, caches)
    assert br.background[0] == 1.0
    np.testing.assert_allclose(br.row_sums(), 1.0, atol=1e-13)


def test_branching_symmetric_two_event_toy():
    seqs = [EventSequence(np.array([4.0, 5.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, hyper_refresh_every=0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_vi_model(data, caches, config)
    sym = replace(
        model,
        gp_mu=GaussianFactor(np.zeros(model.grid_mu.count), 1e-300 * np.eye(model.grid_mu.count)),
        gp_phi=GaussianFactor(np.zeros(model.grid_phi.count), 1e-300 * np.eye(model.grid_phi.count)),
        lam_mu=GammaFactor(40.0, 10.0),
        lam_phi=GammaFactor(40.0, 10.0),
    )
    br = vi_branching_update(sym, data, caches)
    assert br.background[1] == pytest.approx(0.5, abs=1e-12)
    assert br.parent[0] == pytest.approx(0.5, abs=1e-12)


def test_branching_degenerate_variance_matches_em(state):
    """With huge Gamma shapes (geometric mean -> mean) and collapsed GP
    covariance the variational responsibilities coincide with EM's."""
    model, data, caches = state
    lam_mu_hat = 1.1
    lam_phi_hat = 0.6
    big = 1e12
    degenerate = replace(
        model,
        gp_mu=GaussianFactor(model.gp_mu.mean, 1e-300 * np.eye(model.grid_mu.count)),
        gp_phi=GaussianFactor(model.gp_phi.mean, 1e-300 * np.eye(model.grid_phi.count)),
        lam_mu=GammaFactor(big, big / lam_mu_hat),
        lam_phi=GammaFactor(big, big / lam_phi_hat),
    )
    br_vi = vi_branching_update(degenerate, data, caches)

    em_model = init_model(data, caches)
    from sgp_hawkes.em import EmModel, SgpComponent

    em_point = EmModel(
        mu=SgpComponent(lam_mu_hat, model.grid_mu, model.gp_mu.mean, model.hp_mu),
        phi=SgpComponent(lam_phi_hat, model.grid_phi, model.gp_phi.mean, model.hp_phi),
        T=model.T,
        T_phi=model.T_phi,
    )
    br_em = estep_branching(em_point, data, caches)
    np.testing.assert_allclose(br_vi.background, br_em.background, atol=1e-8)
    np.testing.assert_allclose(br_vi.parent, br_em.parent, atol=1e-8)


def test_single_updates_are_idempotent(state):
    """Re-running any coordinate update with unchanged neighbors must return
    the same factor (difference below 1e-12)."""
    model, data, caches = state
    t1 = vi_pg_update(model, data, caches)
    t2 = vi_pg_update(model, data, caches)
    assert np.max(np.abs(t1.events - t2.events)) <= 1e-12
    assert np.max(np.abs(t1.pairs - t2.pairs)) <= 1e-12

    r1 = vi_poisson_update(model, caches)
    r2 = vi_poisson_update(model, caches)
    assert abs(r1.mass_mu - r2.mass_mu) <= 1e-12
    assert np.max(np.abs(r1.marginal_phi - r2.marginal_phi)) <= 1e-12

    b1 = vi_branching_update(model, data, caches)
    b2 = vi_branching_update(model, data, caches)
    assert np.max(np.abs(b1.background - b2.background)) <= 1e-12
    assert np.max(np.abs(b1.parent - b2.parent)) <= 1e-12

    l1 = vi_lambda_update(b1, r1, data)
    l2 = vi_lambda_update(b1, r1, data)
    assert abs(l1[0].alpha - l2[0].alpha) <= 1e-12
    assert abs(l1[1].beta - l2[1].beta) <= 1e-12

    g1 = vi_gp_update(t1, b1, r1, data, caches)
    g2 = vi_gp_update(t1, b1, r1, data, caches)
    assert np.max(np.abs(g1[0].mean - g2[0].mean)) <= 1e-12
    assert np.max(np.abs(g1[1].cov - g2[1].cov)) <= 1e-12


def test_monitor_monotone_and_factors_valid():
    seqs = [
        EventSequence(np.sort(np.random.default_rng(100 + s).uniform(0.0, 40.0, 40)), 40.0)
        for s in range(2)
    ]
    config = FitConfig(T=40.0, T_phi=3.0, max_iter=30, tol=0.0, hyper_refresh_every=0)
    model, report = fit_vi(seqs, config)
    trace = np.array(report.objective_trace)
    assert trace.size == 30
    assert np.isfinite(trace).all()
    diffs = np.diff(trace)
    floor = -1e-3 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(diffs >= floor)
    # final factors in valid domains
    assert model.lam_mu.alpha > 0 and model.lam_mu.beta > 0
    assert model.lam_phi.alpha > 0 and model.lam_phi.beta > 0
    np.linalg.cholesky(model.gp_mu.cov + 1e-12 * np.eye(model.grid_mu.count))


def test_monitor_evaluates_finite(state):
    model, data, caches = state
    branching = vi_branching_update(model, data, caches)
    value = vi_monitor(model, branching, data, caches)
    assert np.isfinite(value)


def test_fix_variance_trajectory_tracks_em(small_case1_seqs):
    """Near-zero-variance sweeps reduce to the EM fixed-point iteration: the
    background estimates agree within 5% over the first iterations."""
    grid = np.linspace(0.0, 100.0, 200)
    for k in (3, 10):
        cfg = dict(T=100.0, T_phi=6.0, max_iter=k, tol=0.0, hyper_refresh_every=0)
        em_model, _ = fit_em(small_case1_seqs, FitConfig(**cfg))
        vi_model, _ = fit_vi(small_case1_seqs, FitConfig(**cfg, fix_variance=True))
        em_mu = em_model_rates(em_model).mu(grid)
        vi_mu = model_rates(vi_model).mu(grid)
        rel = np.max(np.abs(vi_mu - em_mu) / np.maximum(np.abs(em_mu), 1e-12))
        assert rel < 0.05


def test_model_rates_and_bands_consistency(small_case1_seqs):
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=15, hyper_refresh_every=0)
    model, report = fit_vi(small_case1_seqs, config)
    rates = model_rates(model)
    grid_mu = report.grid_mu
    mean_band, std_band = posterior_bands(model, grid_mu, "mu")
    np.testing.assert_allclose(rates.mu(grid_mu), mean_band, rtol=1e-10)
    np.testing.assert_array_equal(report.mu_hat, mean_band)
    assert np.all(std_band >= 0.0)
    assert np.all(report.phi_std >= 0.0)
    # phi support mask
    assert rates.phi(np.array([-1.0]))[0] == 0.0
    assert rates.phi(np.array([6.0 + 1e-9]))[0] == 0.0
    assert rates.phi(np.array([3.0]))[0] > 0.0


def test_fit_vi_zero_event_input():
    """No events: the trigger factors stay at their initialization while the
    baseline is updated and refreshed (refresh every 2 sweeps)."""
    seqs = [EventSequence(np.array([]), 50.0)]
    config = FitConfig(T=50.0, T_phi=3.0, max_iter=5, tol=0.0, hyper_refresh_every=2)
    model, report = fit_vi(seqs, config)
    assert np.isfinite(report.objective_trace).all()
    assert len(report.objective_trace) == 5
    data = build_dataset(seqs, 3.0)
    init = init_vi_model(data, build_caches(data, config), config)
    np.testing.assert_array_equal(model.gp_phi.mean, init.gp_phi.mean)
    np.testing.assert_array_equal(model.gp_phi.cov, init.gp_phi.cov)
    assert model.lam_phi == init.lam_phi
    assert model.hp_phi == init.hp_phi
    assert [sorted(record) for record in report.hyper_history] == [["iteration", "mu"]] * 2
    assert model.lam_mu.mean() < init.lam_mu.mean()


def test_fit_vi_rejects_mismatched_window(small_case1_seqs):
    with pytest.raises(ValueError):
        fit_vi(small_case1_seqs, FitConfig(T=50.0, T_phi=6.0))
