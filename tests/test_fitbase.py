"""Pooled datasets, branching normalization, Gaussian updates, theta search."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

from sgp_hawkes import FitConfig, case2_rates, fit_em, fit_vi, simulate_thinning
from sgp_hawkes import fitbase
from sgp_hawkes.fitbase import (
    ComponentCache,
    ComponentStats,
    _compact_stats,
    _profile_objective,
    _theta_profile,
    assemble_system,
    auto_theta,
    build_dataset,
    gaussian_update,
    normalize_branching,
    relative_change,
    search_theta,
    solve_gaussian_update,
)
from sgp_hawkes.kernels import (
    THETA_BOUNDS,
    KernelHyperparams,
    gram,
    se_cross,
    uniform_inducing_grid,
)
from sgp_hawkes.process import EventSequence, admissible_pairs
from sgp_hawkes.quadrature import gauss_legendre


def toy_stats(rng, grid, n_points=3, quad_order=12):
    """Random positive-weight sufficient statistics on a tiny domain."""
    pts = np.sort(rng.uniform(0.0, grid.domain, n_points))
    quad = gauss_legendre(quad_order, 0.0, grid.domain)
    return ComponentStats(
        points=pts,
        a_point=rng.uniform(0.1, 1.0, n_points),
        b_point=rng.uniform(-0.5, 0.5, n_points),
        quad=quad,
        a_quad=rng.uniform(0.05, 0.4, quad_order),
        b_quad=rng.uniform(-0.3, 0.3, quad_order),
        domain=grid.domain,
    )


def nelder_mead_theta(stats, grid, hp, fixed):
    """Reference refresh: two-start Nelder-Mead in log (theta0, theta1) on the
    compacted statistics, with the exact accept check of ``search_theta``."""
    compact = _compact_stats(stats)
    lo, hi = np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1])

    def negative(x):
        t0, t1 = np.exp(np.clip(x, lo, hi))
        val = _profile_objective(compact, grid, KernelHyperparams(t0, t1), fixed)
        return -val if np.isfinite(val) else 1e300

    best_x, best_val = None, np.inf
    for start in (hp, KernelHyperparams(hp.theta0, 1.0 / grid.spacing**2)):
        res = minimize(
            negative,
            np.log([start.theta0, start.theta1]),
            method="Nelder-Mead",
            bounds=[(lo, hi), (lo, hi)],
            options={"maxfev": 200, "xatol": 1e-3, "fatol": 1e-10},
        )
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    candidate = KernelHyperparams(*(float(v) for v in np.exp(np.clip(best_x, lo, hi))))
    j_old = _profile_objective(stats, grid, hp, fixed)
    j_new = _profile_objective(stats, grid, candidate, fixed)
    if np.isfinite(j_new) and j_new >= j_old - 1e-9 - 1e-12 * abs(j_old):
        return candidate, True
    return hp, False


def toy_em_searches(rng, n=6):
    """search_theta arguments on random toy statistics, grids and incumbents."""
    out = []
    for _ in range(n):
        count = int(rng.integers(3, 12))
        grid = uniform_inducing_grid(count, float(rng.uniform(2.0, 50.0)))
        stats = toy_stats(rng, grid, n_points=int(rng.integers(0, 40)), quad_order=16)
        hp = KernelHyperparams(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.01, 2.0)))
        out.append((stats, grid, hp, (rng.normal(size=count) * rng.uniform(0.05, 3.0), None)))
    return out


def record_refreshes(fit, small_case1_seqs):
    """search_theta arguments of every refresh of small case1 and case2 fits."""
    calls = {"case1": [], "case2": []}
    case2 = [simulate_thinning(case2_rates(), 100.0, seed=s) for s in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        for name, seqs, t_phi in (("case1", small_case1_seqs, 6.0), ("case2", case2, case2_rates().T_phi)):

            def recording(*args, calls=calls[name]):
                calls.append(args)
                return search_theta(*args)

            mp.setattr(fitbase, "search_theta", recording)
            fit(seqs, FitConfig(T=100.0, T_phi=t_phi, max_iter=40, tol=0.0, hyper_refresh_every=20))
    assert [len(c) for c in calls.values()] == [4, 4]  # two refreshes of mu and phi each
    return calls


@pytest.fixture(scope="module")
def em_refresh_args(small_case1_seqs):
    return record_refreshes(fit_em, small_case1_seqs)


@pytest.fixture(scope="module")
def vi_refresh_args(small_case1_seqs):
    return record_refreshes(fit_vi, small_case1_seqs)


def test_build_dataset_pools_sequences():
    seqs = [
        EventSequence(np.array([1.0, 2.0]), 10.0),
        EventSequence(np.array([0.5, 3.0, 3.4]), 10.0),
    ]
    data = build_dataset(seqs, 2.0)
    assert data.T == 10.0
    assert data.T_phi == 2.0
    np.testing.assert_array_equal(data.events, [1.0, 2.0, 0.5, 3.0, 3.4])
    # pairs are per sequence, with child indices offset into the pooled arrays
    c0, l0 = admissible_pairs(seqs[0].times, 2.0)
    c1, l1 = admissible_pairs(seqs[1].times, 2.0)
    np.testing.assert_array_equal(data.child, np.concatenate([c0, c1 + 2]))
    np.testing.assert_allclose(data.lag, np.concatenate([l0, l1]), atol=0)
    assert len(data.sequences) == 2


def test_build_dataset_rejects_mixed_windows():
    seqs = [EventSequence(np.array([1.0]), 10.0), EventSequence(np.array([1.0]), 12.0)]
    with pytest.raises(ValueError):
        build_dataset(seqs, 2.0)


def test_build_dataset_single_sequence_promotion():
    seq = EventSequence(np.array([1.0, 1.5]), 10.0)
    data = build_dataset(seq, 2.0)
    assert len(data.sequences) == 1
    assert data.events.size == 2


@st.composite
def branching_numerators(draw):
    """(background numerators, pair numerators, child index per pair, event count)."""
    n_events = draw(st.integers(1, 20))
    child = draw(st.lists(st.integers(0, n_events - 1), max_size=60))
    bg = draw(st.lists(st.floats(1e-12, 1e12), min_size=n_events, max_size=n_events))
    pair = draw(st.lists(st.floats(0.0, 1e12), min_size=len(child), max_size=len(child)))
    return np.array(bg), np.array(pair), np.array(child, dtype=np.int64), n_events


@given(branching_numerators())
def test_normalize_branching_rows_sum_to_one(row_sums, numerators):
    br = normalize_branching(*numerators)
    np.testing.assert_allclose(row_sums(br, *numerators[2:]), 1.0, rtol=0, atol=1e-12)


def test_normalize_branching_rows(rng, row_sums):
    seqs = [EventSequence(np.sort(rng.uniform(0, 40, 30)), 40.0)]
    data = build_dataset(seqs, 3.0)
    bg = rng.uniform(0.1, 2.0, data.events.size)
    pair = rng.uniform(0.1, 2.0, data.child.size)
    br = normalize_branching(bg, pair, data.child, data.events.size)
    np.testing.assert_allclose(row_sums(br, data.child, data.n_events), 1.0, rtol=0, atol=1e-13)
    assert np.all(br.background > 0)
    assert np.all(br.parent >= 0)
    # ratios within a row are preserved by normalization
    i = int(data.child[0])
    mask = data.child == i
    np.testing.assert_allclose(
        br.parent[mask] / br.background[i], pair[mask] / bg[i], rtol=1e-12
    )


def test_uniform_branching_rows(rng, uniform_branching, row_sums):
    seqs = [EventSequence(np.sort(rng.uniform(0, 20, 12)), 20.0)]
    data = build_dataset(seqs, 4.0)
    br = uniform_branching(data)
    np.testing.assert_allclose(row_sums(br, data.child, data.n_events), 1.0, rtol=0, atol=1e-13)


def test_relative_change_definition():
    assert relative_change(11.0, 10.0) == pytest.approx(0.1)
    assert relative_change(0.5, 0.2) == pytest.approx(0.3)  # denominator floored at 1
    assert relative_change(-100.0, -101.0) == pytest.approx(1.0 / 101.0)


def test_auto_theta_from_grid_spacing():
    config = FitConfig(T=100.0, T_phi=6.0)
    grid = uniform_inducing_grid(10, 100.0)
    hp = auto_theta(config, grid)
    assert hp.theta0 == config.theta0_init
    assert hp.theta1 == pytest.approx(1.0 / grid.spacing**2)
    explicit = FitConfig(T=100.0, T_phi=6.0, theta1_init=0.42)
    assert auto_theta(explicit, grid).theta1 == 0.42


@pytest.mark.parametrize(
    "key, value", [("T", np.nan), ("T", np.inf), ("T", 0.0), ("T_phi", np.nan), ("T_phi", np.inf), ("T_phi", -6.0)]
)
def test_fit_config_rejects_windows_that_are_not_positive_finite(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a positive finite number"):
        FitConfig(**{"T": 100.0, "T_phi": 6.0, key: value})


def test_gaussian_update_prior_recovery():
    grid = uniform_inducing_grid(4, 5.0)
    gm = gram(grid, KernelHyperparams(1.0, 0.5))
    mean, cov = solve_gaussian_update(gm, np.zeros((4, 4)), np.zeros(4))
    np.testing.assert_allclose(mean, 0.0, atol=1e-14)
    np.testing.assert_allclose(cov, gm.values, atol=1e-10)


def test_gaussian_update_matches_dense_assembly(rng):
    """S=2 toy: U, c assembled by explicit loops; posterior by dense solves."""
    grid = uniform_inducing_grid(2, 2.0)
    hp = KernelHyperparams(1.1, 0.9)
    gm = gram(grid, hp)
    stats = toy_stats(rng, grid)
    k_points = se_cross(stats.points, grid.points, hp)
    k_quad = se_cross(stats.quad.nodes, grid.points, hp)

    u_mat, c_vec = assemble_system(stats, k_points, k_quad)

    u_dense = np.zeros((2, 2))
    c_dense = np.zeros(2)
    for a, b, x in zip(stats.a_point, stats.b_point, stats.points):
        k = se_cross(grid.points, np.array([x]), hp)[:, 0]
        u_dense += a * np.outer(k, k)
        c_dense += b * k
    for w, a, b, x in zip(stats.quad.weights, stats.a_quad, stats.b_quad, stats.quad.nodes):
        k = se_cross(grid.points, np.array([x]), hp)[:, 0]
        u_dense += w * a * np.outer(k, k)
        c_dense += w * b * k
    np.testing.assert_allclose(u_mat, u_dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c_vec, c_dense, rtol=0, atol=1e-12)

    mean, cov = solve_gaussian_update(gm, u_mat, c_vec)
    solve = np.linalg.solve(u_dense + gm.values, np.eye(2))
    np.testing.assert_allclose(mean, gm.values @ solve @ c_dense, rtol=0, atol=1e-8)
    np.testing.assert_allclose(cov, gm.values @ solve @ gm.values, rtol=0, atol=1e-8)


@st.composite
def pair_statistics(draw):
    """(lags, PG-weighted and halved responsibilities, a permutation) of up to 40 admissible pairs."""
    n = draw(st.integers(1, 40))
    lags = np.array(draw(st.lists(st.floats(1e-6, 3.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.floats(0.0, 0.25), min_size=n, max_size=n)))
    b = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
    return lags, a, b, np.array(draw(st.permutations(range(n))))


@given(pair_statistics())
def test_gaussian_update_ignores_the_order_of_pairs(drawn):
    """Permuting the admissible pairs leaves the trigger update (mean, cov) unchanged to 1e-12."""
    lags, a, b, perm = drawn
    grid = uniform_inducing_grid(6, 3.0)
    hp = KernelHyperparams(1.0, 1.0 / grid.spacing**2)
    quad = gauss_legendre(12, 0.0, 3.0)

    def update(order):
        cache = ComponentCache.build(lags[order], grid, hp, quad)
        stats = ComponentStats(lags[order], a[order], b[order], quad, np.full(12, 0.1), np.full(12, -0.2), 3.0)
        return gaussian_update(stats, cache)

    (mean, cov), (mean_p, cov_p) = update(np.arange(lags.size)), update(perm)
    assert max(np.max(np.abs(mean_p - mean)), np.max(np.abs(cov_p - cov))) <= 1e-12


def test_search_theta_respects_bounds_and_contract(rng):
    grid = uniform_inducing_grid(5, 10.0)
    hp = KernelHyperparams(1.0, 1.0)
    stats = toy_stats(rng, grid, n_points=6, quad_order=16)
    u = rng.normal(size=5) * 0.3
    root = rng.normal(size=(5, 5)) * 0.3
    for fixed in ((u, None), (u, root @ root.T)):
        hp_new, accepted = search_theta(stats, grid, hp, fixed)
        assert 1e-3 <= hp_new.theta0 <= 1e3
        assert 1e-3 <= hp_new.theta1 <= 1e3
        j_old = _profile_objective(stats, grid, hp, fixed)
        j_new = _profile_objective(stats, grid, hp_new, fixed)
        assert j_new >= j_old - 1e-9 - 1e-12 * abs(j_old)
        if accepted:
            assert j_new >= j_old - 1e-9


def test_refresh_onto_a_theta_bound_is_reported(monkeypatch, small_case1_seqs):
    low = float(np.exp(np.log(THETA_BOUNDS[0])))  # what the log-space clip returns
    assert low != THETA_BOUNDS[0]

    def onto_lower_bound(stats, grid, hp, fixed):
        return KernelHyperparams(low, hp.theta1), True

    monkeypatch.setattr(fitbase, "search_theta", onto_lower_bound)
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=2, tol=0.0, hyper_refresh_every=1)
    _, report = fit_em(small_case1_seqs, config)
    bound_warnings = [w for w in report.warnings if "bound" in w]
    assert bound_warnings == [
        f"{name} theta0 = 0.001 sits on its bound 0.001 after the refresh at iteration {it}"
        for it in (1, 2)
        for name in ("mu", "phi")
    ]


def test_em_theta0_closed_form_maximizes_the_objective(rng, em_refresh_args, vi_refresh_args):
    """theta0* = clip(q/S) beats a dense log-theta0 scan of the exact objective,
    and the search's value there is the exact objective."""
    cases = [(stats, grid, fixed) for stats, grid, _, fixed in toy_em_searches(rng, n=2)]
    for recorded in (em_refresh_args, vi_refresh_args):
        cases += [(_compact_stats(stats), grid, fixed) for stats, grid, _, fixed in recorded["case1"][:2]]
    scan = np.exp(np.linspace(np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1]), 2001))
    for stats, grid, fixed in cases:
        for theta1 in (1e-3, 1.0 / grid.spacing**2, 30.0):
            theta0, value = _theta_profile(stats, grid, theta1, fixed)
            exact = _profile_objective(stats, grid, KernelHyperparams(theta0, theta1), fixed)
            assert value == pytest.approx(exact, rel=1e-10)
            scanned = [_profile_objective(stats, grid, KernelHyperparams(t0, theta1), fixed) for t0 in scan]
            assert max(scanned) <= value + 1e-12 * max(1.0, abs(value))


def test_em_search_reaches_the_nelder_mead_objective(rng, em_refresh_args, vi_refresh_args):
    recorded = [args for calls in (em_refresh_args, vi_refresh_args) for args in calls["case1"] + calls["case2"]]
    for stats, grid, hp, fixed in toy_em_searches(rng) + recorded:
        ours, _ = search_theta(stats, grid, hp, fixed)
        ref, _ = nelder_mead_theta(stats, grid, hp, fixed)
        j_ours = _profile_objective(stats, grid, ours, fixed)
        j_ref = _profile_objective(stats, grid, ref, fixed)
        assert j_ours >= j_ref - 1e-6 * max(1.0, abs(j_ref))


def test_em_search_assembles_at_most_64_kernel_systems(monkeypatch, rng, em_refresh_args, vi_refresh_args):
    assembled = 0

    def counting_gram(*args, **kwargs):
        nonlocal assembled
        assembled += 1
        return gram(*args, **kwargs)

    monkeypatch.setattr(fitbase, "gram", counting_gram)
    recorded = [args for calls in (em_refresh_args, vi_refresh_args) for args in calls["case1"] + calls["case2"]]
    for args in toy_em_searches(rng) + recorded:
        assembled = 0
        search_theta(*args)
        assert 0 < assembled <= 64


def test_vi_theta_objective_matches_the_dense_bound(rng):
    """S=2: with q(u) = N(m, cov) held, differences of the theta objective are
    differences of E_q[sum b f - 0.5 a f^2] - KL(q(u) || N(0, K)), computed by
    dense loops over the statistics' points and quadrature nodes."""
    grid = uniform_inducing_grid(2, 2.0)
    stats = toy_stats(rng, grid)
    root = rng.normal(size=(2, 2))
    fixed = (rng.normal(size=2), root @ root.T + 0.1 * np.eye(2))
    terms = list(zip(stats.a_point, stats.b_point, stats.points))
    terms += list(zip(stats.quad.weights * stats.a_quad, stats.quad.weights * stats.b_quad, stats.quad.nodes))

    def dense(hp):
        mean, cov = fixed
        k_inv = np.linalg.inv(gram(grid, hp).values)
        value = 0.0
        for a, b, x in terms:
            k = se_cross(np.array([x]), grid.points, hp)[0]
            f = k @ k_inv @ mean
            var = k @ k_inv @ cov @ k_inv @ k
            value += b * f - 0.5 * a * (f * f + var)
        logdet_k = -np.linalg.slogdet(k_inv)[1]
        kl = 0.5 * (np.trace(k_inv @ cov) + mean @ k_inv @ mean - 2 + logdet_k - np.linalg.slogdet(cov)[1])
        return value - kl

    hps = [KernelHyperparams(0.7, 0.4), KernelHyperparams(2.5, 3.0), KernelHyperparams(0.05, 20.0)]
    for hp_a, hp_b in zip(hps, hps[1:] + hps[:1]):
        ours = _profile_objective(stats, grid, hp_a, fixed) - _profile_objective(stats, grid, hp_b, fixed)
        assert ours == pytest.approx(dense(hp_a) - dense(hp_b), rel=0, abs=1e-10)
