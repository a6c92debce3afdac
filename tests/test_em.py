"""EM engine: expectation formulas against closed forms and brute force,
maximization identities, objective monotonicity, and degenerate inputs."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from sgp_hawkes import FitConfig, fit_em, fitbase
from sgp_hawkes.em import (
    _EmEngine,
    estep_branching,
    estep_latent_rate,
    estep_pg,
    init_model,
    mstep,
    penalty,
    project,
)
from sgp_hawkes.fitbase import COMPONENTS, SgpComponent, SgpModel, build_caches, build_dataset, model_rates
from sgp_hawkes.fitbase import estep as fitbase_estep
from sgp_hawkes.kernels import (
    InducingGrid,
    KernelHyperparams,
    gram,
    se_cross,
    uniform_inducing_grid,
)
from sgp_hawkes.process import EventSequence, RateFunctions, log_likelihood, trigger_integral
from sgp_hawkes.quadrature import gauss_legendre


def estep(model, data, caches):
    """(PG means, weights r, responsibilities) of one E-step at ``model``."""
    links = project(model, caches)
    return estep_pg(links), *fitbase_estep(links, data, caches)


def latent_mu(model, comp, caches):
    """(thinned-point rate at the nodes, its integral) of the baseline component ``comp`` on one
    window, from the node weight x rate of the E-step."""
    weighted = estep_latent_rate(project(replace(model, mu=comp), caches)["mu"], caches["mu"])
    return weighted / caches["mu"].quad.weights, float(np.sum(weighted))


def installed(model, updates, caches):
    """``model`` with each component's M-step update installed by EM."""
    for name, (_, *update) in updates.items():
        model = _EmEngine().install(model, name, caches[name].hp, *update)
    return model


def em_state(seqs, config, n_iter):
    """Run a few fixed-point iterations and return (model, data, caches)."""
    data = build_dataset(seqs, config.T_phi)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    for _ in range(n_iter):
        pg, r, _ = estep(model, data, caches)
        model = installed(model, mstep(data, caches, pg, r), caches)
    return model, data, caches


def test_estep_pg_zero_function():
    seqs = [EventSequence(np.array([2.0, 20.0, 50.0]), 100.0)]
    config = FitConfig(T=100.0, T_phi=6.0)
    data = build_dataset(seqs, 6.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)  # u = 0 for both components
    pg = estep_pg(project(model, caches))
    np.testing.assert_array_equal(pg["mu"], 0.25 * np.ones(3 + 50))  # 3 events, then 50 nodes
    np.testing.assert_array_equal(pg["phi"], 0.25 * np.ones(50))  # no pairs, only the nodes


def test_estep_pg_single_inducing_point_closed_form():
    # one inducing point at the event location, coefficient chosen so the
    # projected function value is exactly 2 -> E[omega] = tanh(1)/4
    t1 = 10.0
    seqs = [EventSequence(np.array([t1, 90.0]), 100.0)]
    config = FitConfig(T=100.0, T_phi=6.0)
    data = build_dataset(seqs, 6.0)
    caches = build_caches(data, config)
    grid = InducingGrid(np.array([t1]), 100.0)
    hp = KernelHyperparams(1.0, 1.0)
    cache_mu = caches["mu"].__class__.build(data.events, grid, hp, caches["mu"].quad)
    jitter_factor = cache_mu.gm.values[0, 0]  # 1 + jitter
    model = init_model(data, caches)
    comp = SgpComponent(grid, hp, np.array([2.0 * jitter_factor]), None, model.mu.lambda_star)
    model = SgpModel(mu=comp, phi=model.phi, T=model.T, T_phi=model.T_phi)
    pg = estep_pg(project(model, {"mu": cache_mu, "phi": caches["phi"]}))
    assert pg["mu"][0] == pytest.approx(np.tanh(1.0) / 4.0, abs=1e-15)


def test_latent_rate_constant_function():
    seqs = [EventSequence(np.array([5.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    comp = SgpComponent(model.mu.grid, model.mu.hp, np.zeros(model.mu.grid.count), None, 2.0)
    marginal, mass = latent_mu(model, comp, caches)
    np.testing.assert_allclose(marginal, 1.0, rtol=1e-13)  # 2 * sigmoid(0) * pg-free
    assert mass == pytest.approx(10.0, rel=1e-13)


def test_latent_rate_saturated_function_vanishes():
    seqs = [EventSequence(np.array([5.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    # coefficients that push the projection far positive across the domain
    comp = SgpComponent(model.mu.grid, model.mu.hp, 30.0 * np.ones(model.mu.grid.count), None, 5.0)
    _, mass = latent_mu(model, comp, caches)
    assert mass < 1e-3


def test_latent_rate_mass_matches_dense_trapezoid(rng):
    seqs = [EventSequence(np.sort(rng.uniform(0.0, 100.0, 40)), 100.0)]
    config = FitConfig(T=100.0, T_phi=6.0, quad_order_T=200)
    data = build_dataset(seqs, 6.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    u = rng.normal(0.0, 1.0, model.mu.grid.count)
    comp = SgpComponent(model.mu.grid, model.mu.hp, u, None, 2.3)
    _, mass = latent_mu(model, comp, caches)
    gm = gram(comp.grid, comp.hp)
    dense = np.linspace(0.0, 100.0, 100_001)
    f_dense = se_cross(dense, comp.grid.points, comp.hp) @ np.linalg.solve(gm.values, u)
    want = np.trapezoid(2.3 * expit(-f_dense), dense)
    assert abs(mass - want) / want < 1e-6


def test_branching_first_event_is_background():
    seqs = [EventSequence(np.array([1.0, 2.0, 2.5]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    br = estep_branching(project(model, caches), data)
    assert br.background[0] == 1.0


def test_branching_symmetric_two_event_case():
    # with u = 0 both rates are lambda*/2; equal lambda* makes background and
    # the single parent exactly tied
    seqs = [EventSequence(np.array([4.0, 5.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    mu = SgpComponent(model.mu.grid, model.mu.hp, np.zeros(model.mu.grid.count), None, 0.7)
    phi = SgpComponent(model.phi.grid, model.phi.hp, np.zeros(model.phi.grid.count), None, 0.7)
    model = SgpModel(mu=mu, phi=phi, T=10.0, T_phi=2.0)
    br = estep_branching(project(model, caches), data)
    assert br.background[1] == pytest.approx(0.5, abs=1e-15)
    assert br.parent[0] == pytest.approx(0.5, abs=1e-15)


def test_branching_matches_bruteforce_enumeration(rng):
    """Fitted model, 8 events: responsibilities vs direct normalization of
    lambda*sigmoid(f) numerators computed with dense solves, to 1e-12."""
    times = np.sort(rng.uniform(0.0, 10.0, 8))
    seqs = [EventSequence(times, 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, S_mu=5, S_phi=5)
    model, data, caches = em_state(seqs, config, n_iter=3)
    br = estep_branching(project(model, caches), data)

    def dense_eval(comp, x):
        k_x = se_cross(np.asarray(x), comp.grid.points, comp.hp)
        gm = gram(comp.grid, comp.hp)
        return k_x @ np.linalg.solve(gm.values, comp.mean)

    bg_numer = model.mu.lambda_star * expit(dense_eval(model.mu, times))
    for i in range(8):
        parents = [j for j in range(i) if 0.0 < times[i] - times[j] <= 2.0]
        numers = [bg_numer[i]]
        for j in parents:
            tau = times[i] - times[j]
            numers.append(model.phi.lambda_star * expit(dense_eval(model.phi, [tau]))[0])
        numers = np.array(numers)
        want = numers / numers.sum()
        assert abs(br.background[i] - want[0]) < 1e-12
        mask = data.child == i
        np.testing.assert_allclose(br.parent[mask], want[1:], rtol=0, atol=1e-12)


def test_mstep_background_rate_closed_form():
    # spread-out events: all background, u stays 0, so the update is
    # (N + lambda_old * T/2) / T; the exposure, the sum of the node weights, is
    # the replication count (1 window, 4 events) times the domain
    times = np.array([10.0, 30.0, 50.0, 70.0])
    seqs = [EventSequence(times, 100.0)]
    config = FitConfig(T=100.0, T_phi=6.0)
    data = build_dataset(seqs, 6.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    lam0 = model.mu.lambda_star
    pg, r, br = estep(model, data, caches)
    updates = mstep(data, caches, pg, r)
    new = installed(model, updates, caches)
    want = (4.0 + lam0 * 50.0) / 100.0
    assert new.mu.lambda_star == pytest.approx(want, rel=1e-12)
    for name, scale, domain in (("mu", 1, 100.0), ("phi", 4, 6.0)):
        assert updates[name][2] == caches[name].exposure == pytest.approx(scale * domain, rel=1e-14, abs=0)


def test_mstep_zero_events_keeps_zero_coefficients():
    seqs = [EventSequence(np.array([]), 50.0)]
    config = FitConfig(T=50.0, T_phi=3.0)
    data = build_dataset(seqs, 3.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    lam0 = model.mu.lambda_star
    pg, r, br = estep(model, data, caches)
    new = installed(model, mstep(data, caches, pg, r), caches)
    # the right-hand side is not identically zero: the thinned-point linear
    # term -1/2 int Lambda k survives, but it scales with the empty-data
    # initialization lambda* ~ 1e-8, so the coefficients stay at that level
    np.testing.assert_allclose(new.mu.mean, 0.0, atol=1e-6)
    np.testing.assert_array_equal(new.phi.mean, model.phi.mean)
    assert new.mu.lambda_star == pytest.approx(lam0 / 2.0, rel=1e-12)
    assert new.phi.lambda_star == model.phi.lambda_star


def test_mstep_matches_dense_assembly_small_grid(rng):
    """S=2 toy through the real mstep vs an explicit dense reconstruction. Each
    component's lambda* count, the sum of its weights r, is its responsibilities
    plus its replication count (1 window, 3 events) times the Gauss-Legendre
    integral of the link's thinned-point rate, to rounding."""
    times = np.sort(rng.uniform(0.0, 10.0, 3))
    seqs = [EventSequence(times, 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, S_mu=2, S_phi=2)
    model, data, caches = em_state(seqs, config, n_iter=2)
    pg, r, br = estep(model, data, caches)
    updates = mstep(data, caches, pg, r)
    new = installed(model, updates, caches)
    links = project(model, caches)
    for name, domain, order in (("mu", 10.0, config.quad_order_T), ("phi", 2.0, config.quad_order_Tphi)):
        points, scale, _ = data.component(name)
        rate = links[name][0][points.size:]
        want = np.sum(br.weights(name)) + scale * (gauss_legendre(order, 0.0, domain).weights @ rate)
        assert updates[name][1] == pytest.approx(want, rel=1e-14, abs=0)

    cache = caches["mu"]
    hp, grid = cache.hp, cache.grid
    p = data.n_events
    a_pt = pg["mu"][:p] * br.background
    b_pt = 0.5 * br.background
    quad = cache.quad
    f_q = cache.project_mean(model.mu.mean)[p:]
    pg_q = np.where(
        np.abs(f_q) < 1e-4, 0.25 - f_q**2 / 48.0, np.tanh(f_q / 2.0) / (2.0 * f_q)
    )
    marginal = r["mu"][p:] / quad.weights  # lambda* sigma(-f), from node weight x rate
    a_q = marginal * pg_q  # lambda* sigma(-f) E[omega| tilted]
    b_q = -0.5 * marginal
    u_dense = np.zeros((2, 2))
    c_dense = np.zeros(2)
    for a, b, x in zip(a_pt, b_pt, data.events):
        k = se_cross(np.array([x]), grid.points, hp)[0]
        u_dense += a * np.outer(k, k)
        c_dense += b * k
    for w, a, b, x in zip(quad.weights, a_q, b_q, quad.nodes):
        k = se_cross(np.array([x]), grid.points, hp)[0]
        u_dense += w * a * np.outer(k, k)
        c_dense += w * b * k
    gm = gram(grid, hp)
    want_u = gm.values @ np.linalg.solve(u_dense + gm.values, c_dense)
    np.testing.assert_allclose(new.mu.mean, want_u, rtol=0, atol=1e-8)


def test_penalty_zero_for_zero_coefficients():
    seqs = [EventSequence(np.array([2.0, 8.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    assert penalty(model.mu, caches["mu"].gm) == 0.0
    assert penalty(model.phi, caches["phi"].gm) == 0.0


def untruncated_log_likelihood(seq, rates):
    """log_likelihood with every event charged phi's whole mass on [0, T_phi], as if each
    event's offspring window were fully observed: the convention the engines optimize."""
    full = trigger_integral(rates, rates.T_phi)[0]  # trigger_integral clips T - t_i to [0, T_phi]
    return log_likelihood(seq, rates) - np.sum(full - trigger_integral(rates, seq.T - seq.times))


@pytest.fixture()
def em_objective(quadrature_antiderivatives):
    """Penalized log posterior objective (trigger compensator untruncated).

    The sum over sequences of the untruncated likelihood at the point-estimate
    rates, minus the RKHS penalties; the compensators come from Gauss-Legendre,
    since the exact EM rates carry no antiderivatives.
    """

    def objective(model, seqs):
        rates = quadrature_antiderivatives(model_rates(model))
        total = sum(untruncated_log_likelihood(s, rates) for s in seqs)
        return total - sum(penalty(c, gram(c.grid, c.hp)) for c in (model.mu, model.phi))

    return objective


def test_objective_reduces_to_constant_rate_likelihood(em_objective):
    # u = 0 means mu = lambda_mu/2 and phi = lambda_phi/2 everywhere; the
    # penalized objective must equal the plain log-likelihood in the
    # untruncated-compensator convention
    seqs = [EventSequence(np.array([2.0, 2.7, 8.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)
    got = em_objective(model, seqs)
    mu_c = model.mu.lambda_star / 2.0
    phi_c = model.phi.lambda_star / 2.0
    rates = RateFunctions(
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), mu_c),
        phi=lambda x: np.full_like(np.asarray(x, dtype=float), phi_c),
        T_phi=2.0,
        mu_integral=lambda t: mu_c * np.asarray(t, dtype=float),
        phi_integral=lambda x: phi_c * np.asarray(x, dtype=float),
    )
    want = untruncated_log_likelihood(seqs[0], rates)
    assert got == pytest.approx(want, abs=1e-10)


def test_objective_penalizes_large_coefficients(rng, em_objective):
    seqs = [EventSequence(np.sort(rng.uniform(0, 10, 6)), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0)
    model, data, caches = em_state(seqs, config, n_iter=2)
    base = em_objective(model, seqs)
    blown = SgpModel(
        mu=SgpComponent(model.mu.grid, model.mu.hp, model.mu.mean * 1e3, None, model.mu.lambda_star),
        phi=model.phi,
        T=model.T,
        T_phi=model.T_phi,
    )
    assert em_objective(blown, seqs) < base


def test_fit_em_trace_monotone_with_frozen_hyperparameters(small_case1_seqs):
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=40, tol=0.0, hyper_refresh_every=0)
    _, report = fit_em(small_case1_seqs, config)
    trace = np.array(report.objective_trace)
    assert trace.size == 40
    diffs = np.diff(trace)
    floor = -1e-3 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(diffs >= floor)


def test_fit_em_zero_event_input():
    seqs = [EventSequence(np.array([]), 50.0)]
    config = FitConfig(T=50.0, T_phi=3.0, max_iter=5, tol=0.0, hyper_refresh_every=0)
    model, report = fit_em(seqs, config)
    assert np.isfinite(report.objective_trace).all()
    assert model.phi.lambda_star == pytest.approx(1.0 / 3.0, rel=1e-12)
    np.testing.assert_array_equal(model.phi.mean, np.zeros(model.phi.grid.count))
    assert 0 < model.mu.lambda_star < 1e-2  # halves every iteration toward 0


def test_fit_em_hyper_refresh_shrinks_overlong_lengthscale(small_case1_seqs, monkeypatch):
    # both components start at theta1 = 100, far above 1/spacing^2 of their grids
    starts = []
    monkeypatch.setattr(fitbase, "auto_theta", lambda grid: starts.append(grid) or KernelHyperparams(1.0, 100.0))
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=6, tol=0.0, hyper_refresh_every=3)
    _, report = fit_em(small_case1_seqs, config)
    assert len(starts) == 2
    assert report.hyper_history, "refresh iterations should be recorded"
    first = report.hyper_history[0]["mu"]
    assert first["theta1"] < 100.0
    for record in report.hyper_history:
        for name in ("mu", "phi"):
            assert 1e-3 <= record[name]["theta0"] <= 1e3
            assert 1e-3 <= record[name]["theta1"] <= 1e3


def test_model_rates_support_mask(small_case1_seqs, small_config):
    model, _ = fit_em(small_case1_seqs, small_config)
    rates = model_rates(model)
    assert rates.phi(np.array([-0.5]))[0] == 0.0
    assert rates.phi(np.array([0.0]))[0] == 0.0
    assert rates.phi(np.array([6.0]))[0] > 0.0
    assert rates.phi(np.array([6.0 + 1e-9]))[0] == 0.0
    assert np.all(rates.mu(np.linspace(0, 100, 50)) > 0.0)


def test_component_rate_preserves_input_shape(small_case1_seqs, small_config, rng):
    model, _ = fit_em(small_case1_seqs, small_config)
    fn = model.phi.rate()
    arr = rng.uniform(0.0, 6.0, (4, 5))
    out = fn(arr)
    assert out.shape == (4, 5)
    np.testing.assert_array_equal(out.ravel(), fn(arr.ravel()))
