"""Pooled datasets, branching normalization, Gaussian updates, theta search."""

import numpy as np
import pytest

from sgp_hawkes import FitConfig, fit_em
from sgp_hawkes import fitbase
from sgp_hawkes.fitbase import (
    ComponentStats,
    _profile_objective,
    assemble_system,
    auto_theta,
    build_dataset,
    normalize_branching,
    relative_change,
    search_theta,
    solve_gaussian_update,
    uniform_branching,
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


def test_normalize_branching_rows(rng):
    seqs = [EventSequence(np.sort(rng.uniform(0, 40, 30)), 40.0)]
    data = build_dataset(seqs, 3.0)
    bg = rng.uniform(0.1, 2.0, data.events.size)
    pair = rng.uniform(0.1, 2.0, data.child.size)
    br = normalize_branching(bg, pair, data.child, data.events.size)
    np.testing.assert_allclose(br.row_sums(), 1.0, rtol=0, atol=1e-13)
    assert np.all(br.background > 0)
    assert np.all(br.parent >= 0)
    # ratios within a row are preserved by normalization
    i = int(data.child[0])
    mask = data.child == i
    np.testing.assert_allclose(
        br.parent[mask] / br.background[i], pair[mask] / bg[i], rtol=1e-12
    )


def test_uniform_branching_rows(rng):
    seqs = [EventSequence(np.sort(rng.uniform(0, 20, 12)), 20.0)]
    data = build_dataset(seqs, 4.0)
    br = uniform_branching(data)
    np.testing.assert_allclose(br.row_sums(), 1.0, rtol=0, atol=1e-13)


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


def test_search_theta_respects_bounds_and_contract(rng):
    grid = uniform_inducing_grid(5, 10.0)
    hp = KernelHyperparams(1.0, 1.0)
    stats = toy_stats(rng, grid, n_points=6, quad_order=16)
    for kind, u_fixed in (("em", rng.normal(size=5) * 0.3), ("vi", None)):
        hp_new, accepted = search_theta(stats, grid, hp, kind, u_fixed=u_fixed)
        assert 1e-3 <= hp_new.theta0 <= 1e3
        assert 1e-3 <= hp_new.theta1 <= 1e3
        j_old = _profile_objective(stats, grid, hp, kind, u_fixed=u_fixed)
        j_new = _profile_objective(stats, grid, hp_new, kind, u_fixed=u_fixed)
        assert j_new >= j_old - 1e-9 - 1e-12 * abs(j_old)
        if accepted:
            assert j_new >= j_old - 1e-9


def test_refresh_onto_a_theta_bound_is_reported(monkeypatch, small_case1_seqs):
    low = float(np.exp(np.log(THETA_BOUNDS[0])))  # what the log-space clip returns
    assert low != THETA_BOUNDS[0]

    def onto_lower_bound(stats, grid, hp, kind, u_fixed=None):
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
