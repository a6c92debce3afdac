"""Mean-field engine: factor closed forms, coordinate-update purity, the
free-energy monitor, and the degenerate-variance coupling to EM."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import digamma, expit, gammaln, log_expit, xlogy

from sgp_hawkes import FitConfig, case1_rates, case2_rates, fit_em, fit_vi, simulate_thinning
from sgp_hawkes.em import _EmEngine
from sgp_hawkes.em import project as em_project
from sgp_hawkes.fitbase import (
    COMPONENTS,
    GammaFactor,
    SgpComponent,
    SgpModel,
    build_caches,
    build_dataset,
    estep,
    estep_pg,
    model_rates,
    mstep,
    run_sweeps,
)
from sgp_hawkes.kernels import gram, se_cross
from sgp_hawkes.pg import pg_mean
from sgp_hawkes.process import EventSequence, trigger_support
from sgp_hawkes.quadrature import expected_log_sigmoid, gauss_legendre
from sgp_hawkes.vi import (
    init_vi_model,
    project,
    vi_monitor,
)
from sgp_hawkes.vi import _gamma_elbo_term, _gaussian_kl, _log_sigmoid_bound, _ViEngine

EULER_GAMMA = 0.5772156649015328606


def vi_state(seqs, config, n_sweeps=4):
    """A mid-trajectory variational state plus its neighbor factors."""
    data = build_dataset(seqs, config.T_phi)
    caches = build_caches(data, config)
    model, _ = fit_vi(seqs, replace(config, max_iter=n_sweeps, tol=0.0))
    return model, data, caches


def full_estep(links, data, caches):
    """(PG weights, weights r, responsibilities) of one E-step at ``links``."""
    return estep_pg(links), *estep(links, data, caches)


def vi_estep(model, data, caches):
    """(PG weights, weights r, responsibilities) of one E-step at the factors."""
    return full_estep(project(model, caches), data, caches)


def vi_mstep(model, data, caches, pg, r):
    """``model`` after the one M-step from (pg, r), installed by VI."""
    for name, (_, *update) in mstep(data, caches, pg, r).items():
        model = _ViEngine().install(model, name, caches[name].hp, *update)
    return model


def thinned(r, data, caches, name):
    """(thinned-point rate at the nodes, its integral per window or per event) of component
    ``name``, from the node entries of its weights r: node weight x rate."""
    nodes = r[name][caches[name].points.size:]
    return nodes / caches[name].quad.weights, float(np.sum(nodes)) / data.component(name)[1]


def monitor(model, data, caches):
    """The VI monitor at the factors, from the E-step at their links."""
    links = project(model, caches)
    return vi_monitor(model, links, estep(links, data, caches), caches)


def long_form_monitor(model, links, expectations, caches):
    """The VI monitor the long way, with vi_monitor's arguments: at each data point the responsibility w
    times E[log lambda*] + the bound on E[log sigma] at the factors, minus the branching entropy
    sum xlogy(w, w), in place of sum_i log normalizer_i; the node, Gamma and KL terms as the monitor's.
    Unlike the monitor it reads the responsibilities themselves, so it holds at any branching."""
    r, branching = expectations
    value = 0.0
    for n in COMPONENTS:
        comp, cache = getattr(model, n), caches[n]
        p = cache.points.size
        bound = _log_sigmoid_bound(cache.project_meanvar(comp.mean, comp.cov)[0][:p], links[n][1][:p])
        weights = branching.weights(n)
        value += float(np.einsum("p,p->", weights, comp.lambda_star.mean_log() + bound))
        value -= float(np.sum(xlogy(weights, weights)))
        value += float(np.sum(r[n][p:])) - comp.lambda_star.mean() * cache.exposure
        value += _gamma_elbo_term(comp.lambda_star) - _gaussian_kl(comp, cache.gm)
    return value


def collapsed(comp, mean=None, **changes):
    """``comp`` with its Gaussian factor collapsed onto ``mean`` (zeros by default)."""
    count = comp.grid.count
    mean = np.zeros(count) if mean is None else mean
    return replace(comp, mean=mean, cov=1e-300 * np.eye(count), **changes)


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
    zero = SgpModel(mu=collapsed(model.mu), phi=collapsed(model.phi), T=model.T, T_phi=model.T_phi)
    links = project(zero, caches)
    np.testing.assert_allclose(links["mu"][1], 0.0, atol=1e-148)
    # mean 3, variance 4 -> tilt sqrt(13); build via a carefully scaled factor
    assert np.hypot(3.0, 2.0) == pytest.approx(np.sqrt(13.0), rel=1e-15)


def test_poisson_rate_flat_state(state):
    """At u = 0 the thinned-point rate is lambda~/2 everywhere. On 3 windows the exposure, the sum of
    the node weights, is the replication count (3 windows, the events) times the domain."""
    model, data, caches = state
    flat = replace(model, mu=collapsed(model.mu))
    marginal, mass = thinned(vi_estep(flat, data, caches)[1], data, caches, "mu")
    lam_geo = np.exp(flat.mu.lambda_star.mean_log())
    np.testing.assert_allclose(marginal, lam_geo / 2.0, rtol=1e-12)
    np.testing.assert_allclose(mass, lam_geo / 2.0 * model.T, rtol=1e-12)
    assert data.n_sequences == 3
    for name, scale, domain in (("mu", 3, model.T), ("phi", data.n_events, model.T_phi)):
        assert caches[name].exposure == pytest.approx(scale * domain, rel=1e-14, abs=0)


def test_poisson_rate_decreases_with_variance(state):
    """At zero projected mean the thinned-process rate shrinks as the
    projected variance grows: the tilt is c = sqrt(v) and the factor
    e^{c/2} sigma(-c) has derivative 1/2 - sigma(c) < 0 for c > 0 (log-sigmoid
    concavity: extra uncertainty can only lower exp(E[log sigma(-f)]))."""
    model, data, caches = state
    ngrid = model.mu.grid.count
    gm = caches["mu"].gm
    masses = []
    for scale in (1e-12, 0.25, 1.0, 4.0):
        m = replace(model, mu=replace(model.mu, mean=np.zeros(ngrid), cov=scale * gm.values))
        masses.append(thinned(vi_estep(m, data, caches)[1], data, caches, "mu")[1])
    assert np.all(np.diff(masses) < 0)
    # direct scan of the scalar factor
    c = np.linspace(0.0, 6.0, 100)
    factor = np.exp(c / 2.0) * expit(-c)
    assert np.all(np.diff(factor) < 0)


def test_poisson_rate_gamma_one_one(state):
    model, data, caches = state
    m = replace(model, mu=collapsed(model.mu, lambda_star=GammaFactor(1.0, 1.0)))
    marginal, _ = thinned(vi_estep(m, data, caches)[1], data, caches, "mu")
    want = np.exp(-EULER_GAMMA) / 2.0
    np.testing.assert_allclose(marginal, want, atol=1e-10)


def flat_weights(branching, caches, rates):
    """Weights r: the responsibilities at each component's data points, then node weight x the
    constant thinned-point rate rates[name] at its nodes."""
    return {n: np.concatenate([branching.weights(n), rates[n] * caches[n].quad.weights]) for n in rates}


def zero_pg(caches):
    """Zero PG weights over each component's point set."""
    return {n: np.zeros(caches[n].x.size) for n in COMPONENTS}


def test_lambda_update_no_events(uniform_branching):
    seqs = [EventSequence(np.array([]), 20.0)]
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, FitConfig(T=20.0, T_phi=2.0))
    r = flat_weights(uniform_branching(data), caches, {"mu": 7.5 / 20.0, "phi": 0.0})  # 7.5 points on [0, 20]
    model = init_vi_model(data, caches)
    new = vi_mstep(model, data, caches, zero_pg(caches), r)
    assert new.mu.lambda_star.alpha == pytest.approx(7.5)
    assert new.mu.lambda_star.beta == pytest.approx(20.0)
    assert new.phi is model.phi  # no events: phi is not updated


def test_lambda_update_all_background(uniform_branching):
    times = np.array([2.0, 6.0, 10.0, 14.0, 18.0])
    seqs = [EventSequence(times, 20.0)]
    data = build_dataset(seqs, 1.0)  # spacing 4 > T_phi: no admissible pairs
    caches = build_caches(data, FitConfig(T=20.0, T_phi=1.0))
    r = flat_weights(uniform_branching(data), caches, {"mu": 0.0, "phi": 0.0})
    pg = {"mu": np.full(caches["mu"].x.size, 0.25), "phi": np.zeros(caches["phi"].x.size)}
    new = vi_mstep(init_vi_model(data, caches), data, caches, pg, r)
    lam_mu, lam_phi = new.mu.lambda_star, new.phi.lambda_star
    assert lam_mu.alpha == pytest.approx(5.0, abs=1e-10)
    assert lam_mu.mean() == pytest.approx(5.0 / 20.0, rel=1e-10)
    # no pairwise evidence: the trigger factor degenerates to the alpha floor,
    # which drives its geometric mean (and hence the trigger rate) to zero
    assert lam_phi.alpha == pytest.approx(1e-12)
    assert lam_phi.beta == pytest.approx(5.0)
    assert np.exp(lam_phi.mean_log()) == 0.0


def test_gp_update_prior_recovery(state, uniform_branching):
    model, data, caches = state
    empty_data = build_dataset([EventSequence(np.array([]), model.T)], model.T_phi)
    empty_caches = build_caches(
        empty_data, FitConfig(T=model.T, T_phi=model.T_phi, hyper_refresh_every=0)
    )
    r = flat_weights(uniform_branching(empty_data), empty_caches, {"mu": 0.0, "phi": 0.0})
    model = init_vi_model(empty_data, empty_caches)
    gp_mu = vi_mstep(model, empty_data, empty_caches, zero_pg(empty_caches), r).mu
    np.testing.assert_allclose(gp_mu.mean, 0.0, atol=1e-13)
    np.testing.assert_allclose(gp_mu.cov, empty_caches["mu"].gm.values, atol=1e-9)


def test_gp_update_matches_dense_assembly(rng):
    """S=2 toy: the Gaussian factor equals K(U+K)^-1 c and K(U+K)^-1 K with
    U, c assembled by explicit loops over points and quadrature nodes."""
    times = np.sort(rng.uniform(0.0, 10.0, 4))
    seqs = [EventSequence(times, 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, S_mu=2, S_phi=2, hyper_refresh_every=0)
    model, data, caches = vi_state(seqs, config, n_sweeps=3)
    p = data.n_events
    tilts = project(model, caches)["mu"][1]
    pg, r, branching = vi_estep(model, data, caches)
    gp_mu = vi_mstep(model, data, caches, pg, r).mu

    cache = caches["mu"]

    def pg_of(c):
        c = np.asarray(c, dtype=float)
        return np.where(np.abs(c) < 1e-4, 0.25 - c * c / 48.0, np.tanh(c / 2.0) / (2.0 * c))

    a_pt = pg_of(tilts[:p]) * branching.background
    b_pt = 0.5 * branching.background
    marginal = r["mu"][p:] / cache.quad.weights  # the thinned-point rate, from node weight x rate
    a_q = marginal * pg_of(tilts[p:])
    b_q = -0.5 * marginal
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
    pg, r, _ = vi_estep(model, data, caches)
    new = vi_mstep(model, data, caches, pg, r)
    for factor, cache in ((new.mu, caches["mu"]), (new.phi, caches["phi"])):
        gap = cache.gm.values - factor.cov
        eigs = np.linalg.eigvalsh(0.5 * (gap + gap.T))
        assert eigs.min() > -1e-8


def test_branching_first_event_background_one(state, row_sums):
    model, data, caches = state
    br = vi_estep(model, data, caches)[2]
    assert br.background[0] == 1.0
    np.testing.assert_allclose(row_sums(br, data.child, data.n_events), 1.0, atol=1e-13)


def test_branching_symmetric_two_event_toy():
    seqs = [EventSequence(np.array([4.0, 5.0]), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, hyper_refresh_every=0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_vi_model(data, caches)
    sym = replace(
        model,
        mu=collapsed(model.mu, lambda_star=GammaFactor(40.0, 10.0)),
        phi=collapsed(model.phi, lambda_star=GammaFactor(40.0, 10.0)),
    )
    br = vi_estep(sym, data, caches)[2]
    assert br.background[1] == pytest.approx(0.5, abs=1e-12)
    assert br.parent[0] == pytest.approx(0.5, abs=1e-12)


def test_estep_degenerate_variance_matches_em(state):
    """EM is the zero-variance case of VI: at cov = 1e-12 K and Gamma(1e12, 1e12 / lambda_hat)
    factors, the VI link gives EM's PG weights, thinned-point rates and masses, and
    responsibilities at (lambda_hat, mean) to 1e-8. Fed from either E-step, the one
    M-step gives the same (count, exposure, mean) to 1e-8, and VI's E[lambda*] after
    its install is EM's lambda*. Either way, the PG means over the point set x are
    those of its data points and of its nodes taken apart, bit for bit."""
    model, data, caches = state
    lam_hat = {"mu": 1.1, "phi": 0.6}
    big = 1e12
    degenerate, points = model, {}
    for n in COMPONENTS:
        comp = getattr(model, n)
        lam = GammaFactor(big, big / lam_hat[n])
        degenerate = replace(degenerate, **{n: replace(comp, cov=1e-12 * caches[n].gm.values, lambda_star=lam)})
        points[n] = SgpComponent(comp.grid, comp.hp, comp.mean, None, lam_hat[n])
    vi_links = project(degenerate, caches)
    pg_vi, r_vi, br_vi = full_estep(vi_links, data, caches)
    em_model = SgpModel(**points, T=model.T, T_phi=model.T_phi)
    em_links = em_project(em_model, caches)
    pg_em, r_em, br_em = full_estep(em_links, data, caches)
    for n in COMPONENTS:
        p = caches[n].points.size
        for links, pg in ((vi_links, pg_vi), (em_links, pg_em)):
            tilt = links[n][1]
            assert np.array_equal(pg[n], np.concatenate([pg_mean(tilt[:p]), pg_mean(tilt[p:])]))
        (marginal_vi, mass_vi), (marginal_em, mass_em) = (thinned(r, data, caches, n) for r in (r_vi, r_em))
        np.testing.assert_allclose(pg_vi[n], pg_em[n], rtol=0, atol=1e-8)
        np.testing.assert_allclose(marginal_vi, marginal_em, rtol=0, atol=1e-8)
        np.testing.assert_allclose(marginal_vi * pg_vi[n][p:], marginal_em * pg_em[n][p:], rtol=0, atol=1e-8)
        assert abs(mass_vi - mass_em) <= 1e-8
    np.testing.assert_allclose(br_vi.background, br_em.background, rtol=0, atol=1e-8)
    np.testing.assert_allclose(br_vi.parent, br_em.parent, rtol=0, atol=1e-8)

    up_vi = mstep(data, caches, pg_vi, r_vi)
    up_em = mstep(data, caches, pg_em, r_em)
    vi_new, em_new = degenerate, em_model
    for n in COMPONENTS:
        _, count_vi, exposure_vi, mean_vi, _ = up_vi[n]
        _, count_em, exposure_em, mean_em, _ = up_em[n]
        assert abs(count_vi - count_em) <= 1e-8 and abs(exposure_vi - exposure_em) <= 1e-8
        np.testing.assert_allclose(mean_vi, mean_em, rtol=0, atol=1e-8)
        vi_new = _ViEngine().install(vi_new, n, caches[n].hp, *up_vi[n][1:])
        em_new = _EmEngine().install(em_new, n, caches[n].hp, *up_em[n][1:])
        assert getattr(vi_new, n).lambda_star.mean() == pytest.approx(getattr(em_new, n).lambda_star, rel=1e-8, abs=0)
        # one update installed by both engines: the same division, bit for bit
        same = _ViEngine().install(vi_new, n, caches[n].hp, *up_em[n][1:])
        assert getattr(same, n).lambda_star.mean() == getattr(em_new, n).lambda_star


def test_single_updates_are_idempotent(state):
    """Re-running any coordinate update with unchanged neighbors must return
    the same factor (difference below 1e-12)."""
    model, data, caches = state
    t1, r1, b1 = vi_estep(model, data, caches)
    t2, r2, b2 = vi_estep(model, data, caches)
    assert np.max(np.abs(t1["mu"] - t2["mu"])) <= 1e-12
    assert np.max(np.abs(t1["phi"] - t2["phi"])) <= 1e-12

    assert abs(thinned(r1, data, caches, "mu")[1] - thinned(r2, data, caches, "mu")[1]) <= 1e-12
    assert np.max(np.abs(thinned(r1, data, caches, "phi")[0] - thinned(r2, data, caches, "phi")[0])) <= 1e-12

    assert np.max(np.abs(b1.background - b2.background)) <= 1e-12
    assert np.max(np.abs(b1.parent - b2.parent)) <= 1e-12

    m1 = vi_mstep(model, data, caches, t1, r1)
    m2 = vi_mstep(model, data, caches, t1, r1)
    assert abs(m1.mu.lambda_star.alpha - m2.mu.lambda_star.alpha) <= 1e-12
    assert abs(m1.phi.lambda_star.beta - m2.phi.lambda_star.beta) <= 1e-12

    assert np.max(np.abs(m1.mu.mean - m2.mu.mean)) <= 1e-12
    assert np.max(np.abs(m1.phi.cov - m2.phi.cov)) <= 1e-12


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
    assert model.mu.lambda_star.alpha > 0 and model.mu.lambda_star.beta > 0
    assert model.phi.lambda_star.alpha > 0 and model.phi.lambda_star.beta > 0
    np.linalg.cholesky(model.mu.cov + 1e-12 * np.eye(model.mu.grid.count))


@pytest.mark.parametrize("preset", [case1_rates, case2_rates])
def test_monitor_does_not_fall_at_a_theta_refresh(preset):
    """The refresh maximizes the variational bound over theta with q(u) held
    fixed, then re-solves q(u) at the new theta: the monitor must not fall at
    a refresh sweep (2 windows, 4 seeds, a refresh every 5 of 30 sweeps)."""
    rates = preset()
    config = FitConfig(T=100.0, T_phi=rates.T_phi, max_iter=30, tol=0.0, hyper_refresh_every=5)
    for seed in range(4):
        seqs = [simulate_thinning(rates, 100.0, seed=2 * seed + w) for w in range(2)]
        trace = fit_vi(seqs, config)[1].objective_trace
        for sweep in range(5, 31, 5):
            before, after = trace[sweep - 2], trace[sweep - 1]
            assert after >= before - 1e-9 * abs(before), (seed, sweep, before, after)


def test_monitor_evaluates_finite(state):
    model, data, caches = state
    assert np.isfinite(monitor(model, data, caches))


class _LongFormCheck(_ViEngine):
    """VI sweeps that also record (monitor, long form, sum_i |log normalizer_i|) at every monitor call."""

    def __init__(self):
        self.values = []

    def objective(self, model, links, expectations, caches):
        value = super().objective(model, links, expectations, caches)
        scale = float(np.sum(np.abs(np.log(expectations[1].normalizer))))
        self.values.append((value, long_form_monitor(model, links, expectations, caches), scale))
        return value


@pytest.mark.parametrize("preset", ["case1", "case2", "empty window", "no events"])
def test_monitor_is_its_long_form(preset):
    """The monitor's data term sum_i log normalizer_i is the long form's sum w (E[log lambda*] + bound)
    minus sum xlogy(w, w), since each event's responsibilities sum to 1: the two monitors agree to 1e-13
    relative at every sweep of 10-window case1 and case2 fits (theta refreshed every 8 sweeps), of a fit
    with an empty window among four and of one without events. Relative means to the monitor plus the
    size of the data term, sum_i |log normalizer_i|: at the first sweeps the monitor is a few tens while
    the terms it adds up are thousands (2e-13 of the monitor, 2e-15 of that sum, on case2)."""
    if preset in ("case1", "case2"):
        rates = case1_rates() if preset == "case1" else case2_rates()
        seqs = [simulate_thinning(rates, 100.0, seed=7 + w) for w in range(10)]
    elif preset == "empty window":
        seqs = [simulate_thinning(case1_rates(), 100.0, seed=w) for w in range(3)] + [EventSequence(np.array([]), 100.0)]
    else:
        seqs = [EventSequence(np.array([]), 100.0)]
    engine = _LongFormCheck()
    run_sweeps(engine, seqs, FitConfig(T=100.0, T_phi=6.0, max_iter=20, tol=0.0, hyper_refresh_every=8))
    got, want, scale = np.array(engine.values).T
    assert got.size == 20
    assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(want) + scale))


def brute_force_elbo(model, data, caches, background, parent):
    """The PG-augmented evidence lower bound, without its constants, by explicit
    loops: q(omega) = PG(1, c) and the thinned points at their optimal forms."""
    total = 0.0
    for name in ("mu", "phi"):
        comp = getattr(model, name)
        theta0, theta1 = comp.hp.theta0, comp.hp.theta1
        s_pts = comp.grid.points
        kmat = np.array([[theta0 * np.exp(-0.5 * theta1 * (a - b) ** 2) for b in s_pts] for a in s_pts])
        kmat += 1e-6 * theta0 * np.eye(s_pts.size)
        kinv = np.linalg.inv(kmat)
        mean_u, cov_u = comp.mean, comp.cov
        alpha, beta = comp.lambda_star.alpha, comp.lambda_star.beta
        e_log_lam = digamma(alpha) - np.log(beta)

        def moments(x):
            k = np.array([theta0 * np.exp(-0.5 * theta1 * (x - s) ** 2) for s in s_pts])
            m = k @ kinv @ mean_u
            v = k @ kinv @ cov_u @ kinv @ k
            return m, np.sqrt(m * m + v), v

        if name == "mu":
            points, weights, scale, domain = data.events, background, data.n_sequences, data.T
        else:
            points, weights, scale, domain = data.lag, parent, data.n_events, data.T_phi
        quad = gauss_legendre(caches[name].quad.nodes.size, 0.0, domain)  # the plain rule on one window
        for x, w in zip(points, weights):
            m, c, v = moments(x)
            e_omega = np.tanh(c / 2.0) / (2.0 * c)
            # E[log lambda*] + E[log p(point | f, omega)] - KL(PG(1, c) || PG(1, 0))
            point = e_log_lam + m / 2.0 - e_omega * (m * m + v) / 2.0 - np.log(2.0)
            point -= np.log(np.cosh(c / 2.0)) - c * c * e_omega / 2.0
            total += w * point
            if w > 0.0:
                total -= w * np.log(w)
        mass = 0.0
        for x, qw in zip(quad.nodes, quad.weights):
            m, c, _ = moments(x)
            mass += qw * np.exp(e_log_lam) * np.exp(-m / 2.0) / (2.0 * np.cosh(c / 2.0))
        total += scale * mass - alpha / beta * scale * domain
        _, logdet_k = np.linalg.slogdet(kmat)
        _, logdet_cov = np.linalg.slogdet(cov_u)
        trace = np.trace(kinv @ cov_u) + mean_u @ kinv @ mean_u
        total -= 0.5 * (trace - s_pts.size + logdet_k - logdet_cov)
        # E[log p(lambda*)] under the improper prior 1/lambda*, plus the Gamma entropy
        total += -e_log_lam + alpha - np.log(beta) + gammaln(alpha) + (1.0 - alpha) * digamma(alpha)
    return total


def brute_force_state():
    """A 3-sweep VI state with S=2 per component on 7 events."""
    times = np.array([0.7, 1.5, 2.1, 4.0, 5.2, 5.9, 8.3])
    config = FitConfig(T=10.0, T_phi=2.0, S_mu=2, S_phi=2, hyper_refresh_every=0)
    model, data, caches = vi_state([EventSequence(times, 10.0)], config, n_sweeps=3)
    assert data.n_pairs > 0
    return model, data, caches


def test_monitor_matches_brute_force_augmented_elbo():
    """S=2 per component on 7 events: at the branching of its E-step, the monitor equals the
    explicit-loop PG-augmented bound to 1e-10 relative."""
    model, data, caches = brute_force_state()
    fitted = vi_estep(model, data, caches)[2]
    want = brute_force_elbo(model, data, caches, fitted.background, fitted.parent)
    assert monitor(model, data, caches) == pytest.approx(want, rel=1e-10, abs=0)


def test_long_form_monitor_matches_brute_force_at_a_random_branching(rng):
    """The monitor reads the branching normalizer, so it holds only at its E-step's branching; the long
    form reads the responsibilities and equals the explicit-loop bound at a random branching too, to 1e-10
    relative (S=2 per component on 7 events)."""
    model, data, caches = brute_force_state()
    links = project(model, caches)
    r, fitted = estep(links, data, caches)
    bg, pair = rng.uniform(0.1, 1.0, data.n_events), rng.uniform(0.0, 1.0, data.n_pairs)
    denom = bg.copy()
    for k, i in enumerate(data.child):
        denom[i] += pair[k]
    random = replace(fitted, background=bg / denom, parent=pair / denom[data.child])
    want = brute_force_elbo(model, data, caches, random.background, random.parent)
    assert long_form_monitor(model, links, (r, random), caches) == pytest.approx(want, rel=1e-10, abs=0)


@given(mean=st.floats(-30.0, 30.0), var=st.floats(0.0, 5.0))
def test_log_sigmoid_bound_never_exceeds_expectation(mean, var):
    """The closed form lower-bounds E[log sigma(f)] from a 150-node Gauss-Hermite rule."""
    bound = _log_sigmoid_bound(mean, np.sqrt(mean * mean + var))
    assert bound <= expected_log_sigmoid(mean, var, 150)[0] + 1e-12


@given(mean=st.floats(-30.0, 30.0))
def test_log_sigmoid_bound_is_exact_at_zero_variance(mean):
    bound = _log_sigmoid_bound(mean, np.sqrt(mean * mean + 0.0))
    assert abs(bound - log_expit(mean)) <= 1e-15 * max(1.0, abs(log_expit(mean)))


@given(mean=st.floats(-30.0, 30.0), var=st.floats(0.0, 5.0), other=st.floats(1e-6, 60.0))
def test_log_sigmoid_bound_is_the_tightest_tangent(mean, var, other):
    """At c = sqrt(mean^2 + var) the bound is at least the Jaakkola-Jordan
    tangent log sigma(c') + (mean - c')/2 - tanh(c'/2)/(4c') (mean^2 + var - c'^2)
    at any other c' > 0."""
    bound = _log_sigmoid_bound(mean, np.sqrt(mean * mean + var))
    tangent = log_expit(other) + (mean - other) / 2.0
    tangent -= np.tanh(other / 2.0) / (4.0 * other) * (mean * mean + var - other * other)
    assert bound >= tangent - 1e-12


class _PinnedCovariance(_ViEngine):
    """VI sweeps with every Gaussian factor's covariance pinned at 1e-12 K."""

    def init(self, data, caches):
        model = init_vi_model(data, caches)
        for name in COMPONENTS:
            comp = getattr(model, name)
            model = replace(model, **{name: replace(comp, cov=1e-12 * caches[name].gm.values)})
        return model

    def install(self, model, name, hp, count, exposure, mean, cov):
        pinned = 1e-12 * gram(getattr(model, name).grid, hp).values
        return super().install(model, name, hp, count, exposure, mean, lambda: pinned)


def test_fix_variance_trajectory_tracks_em(small_case1_seqs):
    """Near-zero-variance sweeps reduce to the EM fixed-point iteration: the
    background estimates agree within 5% over the first iterations."""
    grid = np.linspace(0.0, 100.0, 200)
    for k in (3, 10):
        cfg = dict(T=100.0, T_phi=6.0, max_iter=k, tol=0.0, hyper_refresh_every=0)
        em_model, _ = fit_em(small_case1_seqs, FitConfig(**cfg))
        vi_model, _ = run_sweeps(_PinnedCovariance(), small_case1_seqs, FitConfig(**cfg))
        em_mu = model_rates(em_model).mu(grid)
        vi_mu = model_rates(vi_model).mu(grid)
        rel = np.max(np.abs(vi_mu - em_mu) / np.maximum(np.abs(em_mu), 1e-12))
        assert rel < 0.05


def gauss_hermite_sigmoid_moments(mean, var, order=150):
    """(E[sigma(f)], E[sigma(f)^2]) for f ~ N(mean, var), elementwise, by an ``order``-node Gauss-Hermite rule."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    s = expit(mean[:, None] + np.sqrt(2.0 * var)[:, None] * nodes)
    return s @ weights / np.sqrt(np.pi), (s * s) @ weights / np.sqrt(np.pi)


def test_model_rates_and_bands_consistency(small_case1_seqs):
    """The report's estimates are the rates that eval scores (``model_rates``), bit for bit, for EM and VI fits.
    VI's std is sqrt(E[lambda*^2] E[sigma^2] - (E[lambda*] E[sigma])^2), with the sigma moments of a 150-node
    Gauss-Hermite rule over f's projected marginal from dense solves: its square to 1e-12 of E[rate^2]."""
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=15, hyper_refresh_every=0)
    for fit in (fit_em, fit_vi):
        model, report = fit(small_case1_seqs, config)
        rates = model_rates(model)
        for name in COMPONENTS:
            grid, std = getattr(report, f"grid_{name}"), getattr(report, f"{name}_std")
            np.testing.assert_array_equal(getattr(report, f"{name}_hat"), getattr(rates, name)(grid))
            if fit is fit_em:
                assert std is None
                continue
            comp = getattr(model, name)
            rows = np.linalg.solve(gram(comp.grid, comp.hp).values, se_cross(grid, comp.grid.points, comp.hp).T).T
            s1, s2 = gauss_hermite_sigmoid_moments(rows @ comp.mean, np.einsum("ns,ns->n", rows @ comp.cov, rows))
            alpha, beta = comp.lambda_star.alpha, comp.lambda_star.beta
            second = alpha * (alpha + 1.0) / beta**2 * s2
            var = second - (alpha / beta * s1) ** 2
            inside = trigger_support(grid, model.T_phi) if name == "phi" else True
            np.testing.assert_allclose(std**2, np.where(inside, var, 0.0), rtol=0, atol=1e-12 * second.max())
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
    init = init_vi_model(data, build_caches(data, config))
    np.testing.assert_array_equal(model.phi.mean, init.phi.mean)
    np.testing.assert_array_equal(model.phi.cov, init.phi.cov)
    assert model.phi.lambda_star == init.phi.lambda_star
    assert model.phi.hp == init.phi.hp
    assert [sorted(record) for record in report.hyper_history] == [["iteration", "mu"]] * 2
    assert model.mu.lambda_star.mean() < init.mu.lambda_star.mean()


def test_fit_vi_rejects_mismatched_window(small_case1_seqs):
    with pytest.raises(ValueError):
        fit_vi(small_case1_seqs, FitConfig(T=50.0, T_phi=6.0))
