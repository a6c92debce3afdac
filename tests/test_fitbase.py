"""Pooled datasets, branching normalization, Gaussian updates, theta search."""

import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from sgp_hawkes import FitConfig, case2_rates, fit_em, fit_vi, simulate_thinning
from sgp_hawkes import em, fitbase
from sgp_hawkes.fitbase import (
    ComponentCache,
    ComponentStats,
    _compact_stats,
    _cache_objective,
    _scan_terms,
    _search_bins,
    _theta_candidate,
    _theta_scan,
    assemble_system,
    auto_theta,
    band_products,
    build_dataset,
    estep,
    estep_pg,
    gaussian_update,
    normalize_branching,
    mstep,
    relative_change,
    search_theta,
    solve_gaussian_update,
)
from sgp_hawkes.kernels import (
    THETA_BOUNDS,
    InducingGrid,
    KernelHyperparams,
    SingularMatrixError,
    gp_projector,
    gram,
    se_cross,
    uniform_inducing_grid,
)
from sgp_hawkes.process import EventSequence, admissible_pairs
from sgp_hawkes.quadrature import gauss_legendre
from sgp_hawkes.serialize import dumps_json, model_to_dict


def weighted(points, a_point, b_point, quad, a_quad, b_quad):
    """Statistics of data weights and quadrature densities on the point set of the data locations and
    the nodes, the quadrature weights folded into the nodes' entries as the node weights fold into r."""
    return ComponentStats(
        np.concatenate([points, quad.nodes]),
        np.concatenate([a_point, quad.weights * a_quad]),
        np.concatenate([b_point, quad.weights * b_quad]),
    )


def toy_stats(rng, grid, n_points=3, quad_order=12):
    """(random positive-weight sufficient statistics on a tiny domain, their quadrature grid)."""
    pts = np.sort(rng.uniform(0.0, grid.domain, n_points))
    quad = gauss_legendre(quad_order, 0.0, grid.domain)
    a_point, b_point = rng.uniform(0.1, 1.0, n_points), rng.uniform(-0.5, 0.5, n_points)
    a_quad, b_quad = rng.uniform(0.05, 0.4, quad_order), rng.uniform(-0.3, 0.3, quad_order)
    return weighted(pts, a_point, b_point, quad, a_quad, b_quad), quad


def data_points(stats, quad):
    """The data part of the statistics' point set."""
    return stats.x[:stats.x.size - quad.nodes.size]


def cache_of(stats, grid, hp, quad):
    """The cache of the statistics' point set at ``hp``."""
    return ComponentCache.build(data_points(stats, quad), grid, hp, quad)


def compacted(stats, grid, quad):
    """The statistics binned as the theta search bins them."""
    return _compact_stats(stats, _search_bins(data_points(stats, quad), grid.domain), grid.domain)


def nelder_mead_theta(stats, grid, hp, quad, fixed):
    """Reference refresh: two-start Nelder-Mead in log (theta0, theta1) on the
    compacted statistics, with the exact accept check of ``search_theta``."""
    compact = compacted(stats, grid, quad)
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


def refresh(stats, grid, hp, quad, fixed):
    """(hp, accepted) of search_theta from a cache of ``stats`` at ``hp``."""
    caches = {"c": cache_of(stats, grid, hp, quad)}
    hp_new, accepted = search_theta(stats, caches, "c", fixed)
    assert caches["c"].hp == hp_new
    return hp_new, accepted


def toy_em_searches(rng, n=6):
    """(statistics, grid, incumbent, quadrature grid, fixed factor) of searches on random toy statistics,
    grids and incumbents."""
    out = []
    for _ in range(n):
        count = int(rng.integers(3, 12))
        grid = uniform_inducing_grid(count, float(rng.uniform(2.0, 50.0)))
        stats, quad = toy_stats(rng, grid, n_points=int(rng.integers(0, 40)), quad_order=16)
        hp = KernelHyperparams(float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.01, 2.0)))
        out.append((stats, grid, hp, quad, (rng.normal(size=count) * rng.uniform(0.05, 3.0), None)))
    return out


def record_refreshes(fit, small_case1_seqs):
    """(statistics, grid, incumbent, quadrature grid, fixed factor) of every refresh of small case1 and case2 fits."""
    calls = {"case1": [], "case2": []}
    case2 = [simulate_thinning(case2_rates(), 100.0, seed=s) for s in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        for name, seqs, t_phi in (("case1", small_case1_seqs, 6.0), ("case2", case2, case2_rates().T_phi)):

            def recording(stats, caches, component, fixed, calls=calls[name]):
                cache = caches[component]
                calls.append((stats, cache.grid, cache.hp, cache.quad, fixed))
                return search_theta(stats, caches, component, fixed)

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
    assert data.n_sequences == 2


def test_build_dataset_rejects_mixed_windows():
    seqs = [EventSequence(np.array([1.0]), 10.0), EventSequence(np.array([1.0]), 12.0)]
    with pytest.raises(ValueError):
        build_dataset(seqs, 2.0)


def test_build_dataset_single_sequence_promotion():
    seq = EventSequence(np.array([1.0, 1.5]), 10.0)
    data = build_dataset(seq, 2.0)
    assert data.n_sequences == 1
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
    grid = uniform_inducing_grid(10, 100.0)
    hp = auto_theta(grid)
    assert hp.theta0 == 1.0
    assert hp.theta1 == pytest.approx(1.0 / grid.spacing**2)
    # a fine grid's 1/spacing^2 lies past the upper bound and is clipped to it
    assert auto_theta(uniform_inducing_grid(10, 0.01)).theta1 == 1e3


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
    stats, quad = toy_stats(rng, grid)

    u_mat, c_vec = assemble_system(stats, cache_of(stats, grid, hp, quad))

    u_dense = np.zeros((2, 2))
    c_dense = np.zeros(2)
    for a, b, x in zip(stats.a, stats.b, stats.x):  # quadrature weights folded into a and b
        k = se_cross(grid.points, np.array([x]), hp)[:, 0]
        u_dense += a * np.outer(k, k)
        c_dense += b * k
    np.testing.assert_allclose(u_mat, u_dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(c_vec, c_dense, rtol=0, atol=1e-12)

    mean, cov = solve_gaussian_update(gm, u_mat, c_vec)
    solve = np.linalg.solve(u_dense + gm.values, np.eye(2))
    np.testing.assert_allclose(mean, gm.values @ solve @ c_dense, rtol=0, atol=1e-8)
    np.testing.assert_allclose(cov, gm.values @ solve @ gm.values, rtol=0, atol=1e-8)


@pytest.mark.parametrize("theta1", [1e-3, 100.0, 1e3])
def test_assembly_matches_explicit_loops_off_the_band(rng, theta1):
    """S=7, spacing 0.1 (theta1 = 100 is 1/h^2): every U entry off the anti-diagonal
    band of p = (s+r)//2, q = s+r-p comes from the fill factors, and U and c match
    sums of explicit outer products to 1e-12 of their largest entry."""
    grid = uniform_inducing_grid(7, 0.6)
    hp = KernelHyperparams(1.3, theta1)
    points = np.concatenate([grid.points, rng.uniform(0.0, 0.6, 40)])
    quad = gauss_legendre(30, 0.0, 0.6)
    stats = weighted(
        points, rng.uniform(0.0, 0.25, points.size), rng.uniform(-0.5, 0.5, points.size),
        quad, rng.uniform(0.0, 2.0, 30), rng.uniform(-1.0, 0.0, 30),
    )

    u_mat, c_vec = assemble_system(stats, ComponentCache.build(points, grid, hp, quad))

    u_dense, c_dense = np.zeros((7, 7)), np.zeros(7)
    for a, b, x in zip(stats.a, stats.b, stats.x):  # quadrature weights folded into a and b
        k = se_cross(grid.points, np.array([x]), hp)[:, 0]
        u_dense += a * np.outer(k, k)
        c_dense += b * k
    assert np.max(np.abs(u_mat - u_dense)) <= 1e-12 * np.max(np.abs(u_dense))
    assert np.max(np.abs(c_vec - c_dense)) <= 1e-12 * np.max(np.abs(c_dense))


def test_component_cache_rejects_a_non_uniform_grid():
    grid = InducingGrid(np.array([0.0, 1.0, 3.0]), 3.0)
    with pytest.raises(ValueError, match="uniform inducing grid"):
        ComponentCache.build(np.array([0.5, 2.0]), grid, KernelHyperparams(1.0, 1.0), gauss_legendre(8, 0.0, 3.0))


@pytest.mark.parametrize("theta1", [THETA_BOUNDS[0], None, THETA_BOUNDS[1]])
def test_band_product_variance_is_the_projector_variance(small_dataset, small_caches, theta1):
    """With each cache of a case1 fit rebuilt at theta1 = 1e-3, 1/spacing^2 and 1e3,
    and cov = K (U + K)^{-1} K at the cache's own hp, as every fit installs it:
    project_meanvar's variance from the band products is gp_projector's on the
    kernel rows, at the data points and at the quadrature nodes of x, to 1e-12 of its
    largest value plus the rounding bound S eps k^T |W| k of a sum over the S^2
    terms W_sr k_s k_r (W = K^{-1} cov K^{-1}). That bound matters only at theta1 =
    1e-3, where the terms cancel: they reach 1.5e9 times max(var), and a long-double
    sum of the same terms puts the band form 1.0e-7 of max(var) off, gp_projector
    2.9e-8. The mean is project_mean's bit for bit, and the cache's rows are
    se_cross(x, grid).T bit for bit. Splitting is exact: the rows are those of the
    data locations next to those of the nodes, and each half of both projections is
    the einsum over that half's rows and band products alone, bit for bit."""
    caches = {}
    for name, cache in small_caches.items():
        hp = KernelHyperparams(cache.hp.theta0, theta1 or 1.0 / cache.grid.spacing**2)
        caches[name] = ComponentCache.build(cache.points, cache.grid, hp, cache.quad)
    links = em.project(em.init_model(small_dataset, caches), caches)
    updates = mstep(small_dataset, caches, estep_pg(links), estep(links, small_dataset, caches)[0])
    for name, (_, _, _, mean, cov) in updates.items():
        cache = caches[name]
        ours, at = cache.project_meanvar(mean, cov), gp_projector(cache.gm, mean, cov)
        w_abs = np.abs(cache.gm.solve(cache.gm.solve(cov).T))
        halves = [se_cross(cache.grid.points, x, cache.hp) for x in (cache.points, cache.quad.nodes)]
        assert np.array_equal(cache.k, np.hstack(halves))
        alpha, s = cache.gm.solve(mean), np.arange(cache.grid.count)
        w_fill = cache.fill * cache.gm.solve(cache.gm.solve(cov).T)
        w_band = np.bincount((s[:, None] + s).ravel(), weights=w_fill.ravel())
        p = cache.points.size
        for x, k, f, var in ((cache.points, halves[0], ours[0][:p], ours[1][:p]),
                             (cache.quad.nodes, halves[1], ours[0][p:], ours[1][p:])):
            assert np.array_equal(k, se_cross(x, cache.grid.points, cache.hp).T)
            assert np.array_equal(f, np.einsum("s,sp->p", alpha, k))
            assert np.array_equal(var, np.maximum(np.einsum("m,mp->p", w_band, band_products(k)), 0.0))
            var_ref = at(k.T)[1]
            rounding = cache.grid.count * np.finfo(float).eps * np.max(np.einsum("sp,sr,rp->p", k, w_abs, k))
            assert np.max(np.abs(var - var_ref)) <= 1e-12 * np.max(var_ref) + rounding
        assert np.array_equal(ours[0], cache.project_mean(mean))


_PROJECTIONS = """
import sys
import numpy as np
from sgp_hawkes import fitbase
from sgp_hawkes.fitbase import ComponentCache, ComponentStats, _cache_objective
from sgp_hawkes.kernels import KernelHyperparams, uniform_inducing_grid
from sgp_hawkes.quadrature import gauss_legendre
rng = np.random.default_rng(7)
grid = uniform_inducing_grid(10, 6.0)
cache = ComponentCache.build(rng.uniform(0.0, 6.0, 98765), grid, KernelHyperparams(1.0, 2.25), gauss_legendre(50, 0.0, 6.0))
root = rng.normal(size=(10, 10))
out = [cache.project_mean(rng.normal(size=10)), *cache.project_meanvar(rng.normal(size=10), root @ root.T)]
a, b, w = rng.uniform(0.0, 1.0, 98765), rng.normal(size=98765), cache.quad.weights
stats = ComponentStats(cache.x, np.concatenate([a, w * rng.uniform(0.0, 1.0, 50)]),
                       np.concatenate([b, w * rng.normal(size=50)]))
data_term = fitbase._data_term  # record the projections as well: a changed row seldom shows in the sum
fitbase._data_term = lambda proj, a, b: out.append(proj) or data_term(proj, a, b)
mean = rng.normal(size=10)
out.append(np.array([_cache_objective(stats, cache, (mean, cov)) for cov in (None, root @ root.T)]))
sys.stdout.buffer.write(b"".join(x.tobytes() for x in out))
"""


def test_cache_projections_do_not_depend_on_blas_threads():
    """project_mean and project_meanvar at 98 765 data points, and the refresh's exact
    check ``_cache_objective`` there for EM (one column) and VI, give the same bytes
    under one and two BLAS threads (OpenBLAS's threaded matrix-vector product, which
    splits the points between threads, changed a few of them)."""
    src = str(Path(fitbase.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _PROJECTIONS], env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    # three cache projections, the check's projections of 1 (EM) and 11 (VI) columns, two objective values
    assert len(outputs[0]) == 8 * ((3 + 1 + 11) * (98765 + 50) + 2) and outputs[0] == outputs[1]


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
        stats = weighted(lags[order], a[order], b[order], quad, np.full(12, 0.1), np.full(12, -0.2))
        return gaussian_update(stats, cache)

    (mean, cov), (mean_p, cov_p) = update(np.arange(lags.size)), update(perm)
    assert max(np.max(np.abs(mean_p - mean)), np.max(np.abs(cov_p - cov))) <= 1e-12


def test_compaction_bins_the_data_part_and_passes_the_nodes_through(rng):
    """At 2048 data points the search's statistics are the fit's; above that each
    bin's a and b are the sums of its data points' (to rounding), and the quadrature
    nodes' entries of x, a and b come back bit for bit, even where data points sit
    exactly on nodes: no data point's weight lands on a node."""
    grid = uniform_inducing_grid(10, 6.0)
    stats, quad = toy_stats(rng, grid, n_points=2048, quad_order=50)
    assert compacted(stats, grid, quad) is stats
    stats, quad = toy_stats(rng, grid, n_points=5000, quad_order=50)
    points = np.sort(np.concatenate([data_points(stats, quad)[:-50], quad.nodes]))
    stats = ComponentStats(np.concatenate([points, quad.nodes]), stats.a, stats.b)
    bins = _search_bins(points, grid.domain)
    compact, p = _compact_stats(stats, bins, grid.domain), points.size
    m = compact.x.size - quad.nodes.size
    for field in ("x", "a", "b"):
        assert np.array_equal(getattr(compact, field)[m:], getattr(stats, field)[p:])
    edges = np.linspace(0.0, grid.domain, fitbase._SEARCH_BINS + 1)
    kept = _search_bins(compact.x[:m], grid.domain)
    assert np.array_equal(kept, np.unique(bins))  # every occupied bin once, at its center
    assert np.array_equal(compact.x[:m], 0.5 * (edges[kept] + edges[kept + 1]))
    for field in ("a", "b"):
        sums = np.array([math.fsum(getattr(stats, field)[:p][bins == j]) for j in kept])
        np.testing.assert_allclose(getattr(compact, field)[:m], sums, rtol=1e-13, atol=1e-14)


def test_search_theta_respects_bounds_and_contract(rng):
    grid = uniform_inducing_grid(5, 10.0)
    hp = KernelHyperparams(1.0, 1.0)
    stats, quad = toy_stats(rng, grid, n_points=6, quad_order=16)
    u = rng.normal(size=5) * 0.3
    root = rng.normal(size=(5, 5)) * 0.3
    for fixed in ((u, None), (u, root @ root.T)):
        hp_new, accepted = refresh(stats, grid, hp, quad, fixed)
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

    def onto_lower_bound(stats, caches, name, fixed):
        cache = caches[name]
        hp = KernelHyperparams(low, cache.hp.theta1)
        caches[name] = ComponentCache.build(cache.points, cache.grid, hp, cache.quad)
        return hp, True

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
    """The scan's theta0* = clip(q/S) beats a dense log-theta0 scan of the exact
    objective, and the scan's value there is the refresh's exact check at (theta0*,
    theta1). (The check, not the reference: at theta1 = 1e-3 the reference's VI
    variance K1^{-1} cov K1^{-1}, formed in double, was 7.5e-6 relative off a 50-digit
    evaluation, and the scan 1.2e-10.) The dense scan forms each value from the
    reference's theta0-free terms at theta1, computed once: every 100th point is the
    per-point reference, bit for bit."""
    cases = [(stats, grid, quad, fixed) for stats, grid, _, quad, fixed in toy_em_searches(rng, n=2)]
    for recorded in (em_refresh_args, vi_refresh_args):
        cases += [(compacted(stats, grid, quad), grid, quad, fixed)
                  for stats, grid, _, quad, fixed in recorded["case1"][:2]]
    scan = np.exp(np.linspace(np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1]), 2001))
    for stats, grid, quad, fixed in cases:
        for theta1 in (1e-3, 1.0 / grid.spacing**2, 30.0):
            theta0s, values = _theta_scan(_scan_terms(stats, grid, fixed), np.array([theta1]))
            hp = KernelHyperparams(float(theta0s[0]), theta1)
            check = _cache_objective(stats, cache_of(stats, grid, hp, quad), fixed)
            assert values[0] == pytest.approx(check, rel=1e-10)
            exact = _profile_objective(stats, grid, hp, fixed)
            terms = reference_theta_terms(stats, grid, theta1, fixed)
            scanned = [profile_at(terms, grid, t0)[1] for t0 in scan]
            for t0, value in zip(scan[::100], scanned[::100]):
                assert value == _profile_objective(stats, grid, KernelHyperparams(t0, theta1), fixed)
            assert max(scanned) <= exact + 1e-12 * max(1.0, abs(exact))


def long_double_solve(chol, rhs):
    """(L L^T)^{-1} rhs for a lower Cholesky factor L, by substitution in long double."""
    low, out = chol.astype(np.longdouble), np.array(rhs, dtype=np.longdouble)
    for i in range(len(low)):
        out[i] = (out[i] - low[i, :i] @ out[:i]) / low[i, i]
    for i in reversed(range(len(low))):
        out[i] = (out[i] - low[i + 1:, i] @ out[i + 1:]) / low[i, i]
    return out


def reference_theta_terms(stats, grid, theta1, fixed):
    """The theta0-free terms (data term, q, log|K1|) of the theta profile at theta1, None where K1
    does not factor: on fresh se_cross rows with scipy's solves, the projected variance as
    gp_projector forms it, K1^{-1} cov solved twice, but in long double: in double, at
    ill-conditioned K1, it put the profile up to 1.1e-4 relative off a 50-digit evaluation of a
    recorded VI refresh, and the scan 1.1e-8."""
    mean, cov = fixed
    hp = KernelHyperparams(1.0, theta1)
    try:
        gm = gram(grid, hp)
    except SingularMatrixError:
        return None

    def solve(rhs):
        return cho_solve((gm.chol, True), rhs)

    k = se_cross(stats.x, grid.points, hp)
    alpha = solve(mean)
    f = k @ alpha
    sq, q = f**2, float(mean @ alpha)
    if cov is not None:
        w_cov = long_double_solve(gm.chol, long_double_solve(gm.chol, cov).T)
        sq = sq + np.maximum(np.einsum("ns,ns->n", k @ w_cov, k), 0.0).astype(float)
        q += float(np.trace(solve(cov)))
    data = float(np.einsum("p,p->", stats.b, f)) - 0.5 * float(np.einsum("p,p->", stats.a, sq))
    return data, q, gm.logdet()


def profile_at(terms, grid, theta0=None):
    """(theta0, value) of the theta profile from its ``reference_theta_terms`` at theta0, by
    default its maximizer clip(q / S); -inf where K1 does not factor or the value is not finite."""
    if terms is None:
        return theta0, -np.inf
    data, q, logdet = terms
    if theta0 is None:
        theta0 = float(np.clip(q / grid.count, *THETA_BOUNDS))
    value = data - 0.5 * q / theta0 - 0.5 * (logdet + grid.count * np.log(theta0))
    return theta0, value if np.isfinite(value) else -np.inf


def reference_theta_profile(stats, grid, theta1, fixed, theta0=None):
    """The reference theta profile at (theta0, theta1): ``profile_at`` of its ``reference_theta_terms``."""
    return profile_at(reference_theta_terms(stats, grid, theta1, fixed), grid, theta0)


def _profile_objective(stats, grid, hp, fixed):
    """The theta objective at ``hp`` on the statistics as given (the unbinned
    data points for the refresh's exact check): the oracle of ``_cache_objective``."""
    return reference_theta_profile(stats, grid, hp.theta1, fixed, hp.theta0)[1]


@pytest.mark.parametrize("engine", ["em", "vi"])
def test_theta_scan_of_one_theta1_is_its_batch_slice_bit_for_bit(engine, em_refresh_args, vi_refresh_args):
    """Brent's points and the coarse grid are valued alike: the scan of one theta1
    gives the (theta0, value) of that theta1 in a batch, bit for bit, on a theta1
    grid with both THETA_BOUNDS, 1/spacing^2 and the incumbent, for EM's point
    mass and VI's q(u)."""
    recorded = {"em": em_refresh_args, "vi": vi_refresh_args}[engine]
    for stats, grid, hp, quad, fixed in recorded["case1"] + recorded["case2"]:
        assert (fixed[1] is None) == (engine == "em")
        terms = _scan_terms(compacted(stats, grid, quad), grid, fixed)
        theta1s = np.array([*np.geomspace(*THETA_BOUNDS, 13), 1.0 / grid.spacing**2, hp.theta1])
        assert (theta1s[0], theta1s[12]) == THETA_BOUNDS
        batch = np.stack(_theta_scan(terms, theta1s))
        alone = np.hstack([np.stack(_theta_scan(terms, t[None])) for t in theta1s])
        assert np.all(np.isfinite(batch))
        assert np.array_equal(alone, batch)


def test_em_search_reaches_the_nelder_mead_objective(rng, em_refresh_args, vi_refresh_args):
    recorded = [args for calls in (em_refresh_args, vi_refresh_args) for args in calls["case1"] + calls["case2"]]
    for stats, grid, hp, quad, fixed in toy_em_searches(rng) + recorded:
        ours, _ = refresh(stats, grid, hp, quad, fixed)
        ref, _ = nelder_mead_theta(stats, grid, hp, quad, fixed)
        j_ours = _profile_objective(stats, grid, ours, fixed)
        j_ref = _profile_objective(stats, grid, ref, fixed)
        assert j_ours >= j_ref - 1e-6 * max(1.0, abs(j_ref))


def test_theta_search_scans_at_most_33_theta1_values(monkeypatch, rng, em_refresh_args, vi_refresh_args):
    """At most 33 theta1 values passed to _theta_scan per search (the coarse grid and
    Brent's points): the most any of these searches takes."""
    evaluated = 0

    def counting_scan(terms, theta1s):
        nonlocal evaluated
        evaluated += theta1s.size
        return _theta_scan(terms, theta1s)

    monkeypatch.setattr(fitbase, "_theta_scan", counting_scan)
    recorded = [args for calls in (em_refresh_args, vi_refresh_args) for args in calls["case1"] + calls["case2"]]
    for args in toy_em_searches(rng) + recorded:
        evaluated = 0
        refresh(*args)
        assert 0 < evaluated <= 33


def test_vi_theta_objective_matches_the_dense_bound(rng):
    """S=2: with q(u) = N(m, cov) held, differences of the theta objective are
    differences of E_q[sum b f - 0.5 a f^2] - KL(q(u) || N(0, K)), computed by
    dense loops over the statistics' points and quadrature nodes."""
    grid = uniform_inducing_grid(2, 2.0)
    stats, quad = toy_stats(rng, grid)
    root = rng.normal(size=(2, 2))
    fixed = (rng.normal(size=2), root @ root.T + 0.1 * np.eye(2))
    terms = list(zip(stats.a, stats.b, stats.x))  # quadrature weights folded into a and b

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

    def oracle(hp):
        return _profile_objective(stats, grid, hp, fixed)

    def exact_check(hp):
        return _cache_objective(stats, cache_of(stats, grid, hp, quad), fixed)

    hps = [KernelHyperparams(0.7, 0.4), KernelHyperparams(2.5, 3.0), KernelHyperparams(0.05, 20.0)]
    for hp_a, hp_b in zip(hps, hps[1:] + hps[:1]):
        for objective in (oracle, exact_check):
            ours = objective(hp_a) - objective(hp_b)
            assert ours == pytest.approx(dense(hp_a) - dense(hp_b), rel=0, abs=1e-10)


def scanned_grids(recorded):
    """For every recorded search, (compacted statistics, grid, fixed factor, scan terms, theta1s of each
    _theta_scan call): the coarse grid first, then Brent's points one by one."""
    out = []
    for stats, grid, hp, quad, fixed in recorded["case1"] + recorded["case2"]:
        compact, calls = compacted(stats, grid, quad), []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fitbase, "_theta_scan", lambda terms, ts: calls.append((terms, ts)) or _theta_scan(terms, ts))
            _theta_candidate(compact, grid, hp, fixed)
        out.append((compact, grid, fixed, calls[0][0], [ts for _, ts in calls]))
    return out


@pytest.mark.parametrize("engine", ["em", "vi"])
def test_theta_scan_is_the_profile_on_every_recorded_search(engine, em_refresh_args, vi_refresh_args):
    """The scan of each theta1 a recorded search values alone (its coarse grid,
    which spans THETA_BOUNDS, and Brent's points) is the reference profile: the
    grid has its argmax, EM's values agree to 1e-12 relative, VI's to 1e-4 (largest
    gap 5.2e-8, at ill-conditioned K1, where a 50-digit evaluation puts the scan's
    variance from K1^{-1} L within 1.1e-8; the reference's K1^{-1} cov K1^{-1} is
    formed in long double, as in double it was up to 1.1e-4 off)."""
    searches = scanned_grids({"em": em_refresh_args, "vi": vi_refresh_args}[engine])
    assert len(searches) == 8
    for stats, grid, fixed, terms, (coarse, *brent) in searches:
        assert (coarse[0], coarse[-1]) == pytest.approx(THETA_BOUNDS, rel=1e-12)
        assert brent and all(theta1s.size == 1 for theta1s in brent)
        theta1s = np.concatenate([coarse, *brent])
        scanned = np.array([_theta_scan(terms, t[None])[1][0] for t in theta1s])
        reference = np.array([reference_theta_profile(stats, grid, t, fixed)[1] for t in theta1s])
        assert np.all(np.isfinite(reference))
        assert np.argmax(scanned[:coarse.size]) == np.argmax(reference[:coarse.size])
        gap = np.max(np.abs(scanned - reference) / np.abs(reference))
        assert gap <= (1e-12 if engine == "em" else 1e-4)


def test_theta_scan_blocks_and_clamp_do_not_change_the_values(monkeypatch, em_refresh_args, vi_refresh_args):
    """One theta1 per block, and no clamp of the exponents, give the same values to 1e-13."""
    for _, _, _, terms, (theta1s, *_) in scanned_grids(em_refresh_args)[:2] + scanned_grids(vi_refresh_args)[:2]:
        blocked = _theta_scan(terms, theta1s)[1]
        with monkeypatch.context() as mp:
            mp.setattr(fitbase, "_SCAN_DOUBLES", 1)
            mp.setattr(fitbase, "MIN_EXPONENT", -np.inf)
            single = _theta_scan(terms, theta1s)[1]
        np.testing.assert_allclose(blocked, single, rtol=1e-13, atol=0)


@pytest.mark.parametrize("engine", ["em", "vi"])
def test_theta_scan_falls_back_slice_by_slice(monkeypatch, engine, em_refresh_args, vi_refresh_args):
    """Without jitter, K1 on the S = 10, T_phi = 6 grid does not factor at theta1 =
    1e-3 and does at 1 and 1/spacing^2: the scan falls back slice by slice, the first
    value is -inf and the others are their single-theta1 scans."""
    stats, grid, _, quad, fixed = {"em": em_refresh_args, "vi": vi_refresh_args}[engine]["case1"][1]
    assert (grid.count, grid.domain) == (10, 6.0)
    terms = _scan_terms(compacted(stats, grid, quad), grid, fixed)
    theta1s = np.array([1e-3, 1.0, 1.0 / grid.spacing**2])
    monkeypatch.setattr(fitbase, "JITTER", 0.0)
    theta0s, values = _theta_scan(terms, theta1s)
    assert values[0] == -np.inf and np.all(np.isfinite(values[1:]))
    for g in (1, 2):
        assert np.array_equal(np.stack(_theta_scan(terms, theta1s[g:g + 1])), [theta0s[g:g + 1], values[g:g + 1]])


@pytest.mark.parametrize("engine", ["em", "vi"])
def test_theta_scan_slices_do_not_depend_on_the_batch(monkeypatch, engine):
    """On 40 seeded synthetic compacted statistics per engine (S = 10 grid on [0, 6]),
    every finite slice of the coarse grid, and of the no-jitter fallback batch of
    theta1 in {1e-3, 1, 1/spacing^2}, is its single-theta1 scan bit for bit."""
    rng = np.random.default_rng(20261019 + (engine == "vi"))
    grid = uniform_inducing_grid(10, 6.0)
    lo, hi = np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1])
    searches, finite = [], 0

    def check(terms, theta1s):
        nonlocal finite
        theta0s, values = _theta_scan(terms, theta1s)
        for g in np.flatnonzero(np.isfinite(values)):
            alone = _theta_scan(terms, theta1s[g:g + 1])
            assert (alone[0][0], alone[1][0]) == (theta0s[g], values[g])
            finite += 1

    for _ in range(40):
        stats, quad = toy_stats(rng, grid, n_points=int(rng.integers(50, 4000)), quad_order=50)
        stats = compacted(stats, grid, quad)
        mean = rng.normal(size=grid.count) * rng.uniform(0.05, 3.0)
        root = rng.normal(size=(grid.count, grid.count)) * rng.uniform(0.01, 1.0)
        fixed = (mean, None) if engine == "em" else (mean, root @ root.T + 1e-3 * np.eye(grid.count))
        searches.append(_scan_terms(stats, grid, fixed))
        starts = np.log([rng.uniform(0.01, 10.0), 1.0 / grid.spacing**2])
        check(searches[-1], np.exp(np.unique(np.concatenate([np.linspace(lo, hi, 15), starts]))))
    assert finite == 40 * 17
    monkeypatch.setattr(fitbase, "JITTER", 0.0)
    for terms in searches:
        check(terms, np.array([1e-3, 1.0, 1.0 / grid.spacing**2]))
    assert finite >= 40 * 17 + 40


@pytest.mark.parametrize("engine", ["em", "vi"])
def test_cache_objective_is_the_unbinned_oracle(engine, em_refresh_args, vi_refresh_args):
    """The refresh's exact check, from a cache's kernel rows, equals the theta
    objective on the unbinned points to 1e-10 relative at every recorded incumbent
    and at its theta0 with theta1 on either bound, and VI at theta1 = 1e-3, where K1
    is ill-conditioned, to 1e-8 (largest 1.8e-12; with the oracle's K1^{-1} cov
    K1^{-1} formed in double it was 1.1e-9, and a 40-digit evaluation of three
    recorded cases puts the check within 1.6e-11)."""
    recorded = {"em": em_refresh_args, "vi": vi_refresh_args}[engine]
    for stats, grid, hp, quad, fixed in recorded["case1"] + recorded["case2"]:
        for theta in (hp, *(KernelHyperparams(hp.theta0, t) for t in THETA_BOUNDS)):
            ours = _cache_objective(stats, cache_of(stats, grid, theta, quad), fixed)
            rel = 1e-8 if engine == "vi" and theta.theta1 == THETA_BOUNDS[0] else 1e-10
            assert ours == pytest.approx(_profile_objective(stats, grid, theta, fixed), rel=rel, abs=0)


@pytest.mark.parametrize("fit", [fit_em, fit_vi])
def test_a_rejected_refresh_rebuilds_the_incumbent(monkeypatch, small_case1_seqs, fit):
    """A candidate that lowers the exact objective is rejected: the refresh records
    it, rebuilds the incumbent's cache array for array, and the fit ends where a
    fit whose search returned the incumbent ends."""
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=6, tol=0.0, hyper_refresh_every=3)
    rebuilt = []

    def spying(stats, caches, name, fixed):
        before = caches[name]
        result = search_theta(stats, caches, name, fixed)
        rebuilt.append((before, caches[name]))
        return result

    monkeypatch.setattr(fitbase, "search_theta", spying)
    monkeypatch.setattr(fitbase, "_theta_candidate", lambda stats, grid, hp, fixed: (KernelHyperparams(1e3, hp.theta1), 0.0))
    model, report = fit(small_case1_seqs, config)
    assert [record[n]["accepted"] for record in report.hyper_history for n in ("mu", "phi")] == [False] * 4
    assert len(rebuilt) == 4
    for before, after in rebuilt:
        assert after is not before and after.hp == before.hp
        for field in fields(ComponentCache):
            old, new = getattr(before, field.name), getattr(after, field.name)
            if field.name == "gm":
                old, new = np.stack([old.values, old.chol]), np.stack([new.values, new.chol])
            assert old is new or np.array_equal(old, new)

    monkeypatch.setattr(fitbase, "_theta_candidate", lambda stats, grid, hp, fixed: (hp, 0.0))
    kept, kept_report = fit(small_case1_seqs, config)
    assert [record[n]["accepted"] for record in kept_report.hyper_history for n in ("mu", "phi")] == [True] * 4
    assert dumps_json(model_to_dict(model)) == dumps_json(model_to_dict(kept))
    assert report.objective_trace == kept_report.objective_trace


def test_a_search_without_a_finite_value_keeps_theta_and_is_rejected(monkeypatch, small_case1_seqs, em_refresh_args):
    """Where no profile value is finite, the incumbent and its cache are kept, and
    the refresh is recorded as rejected and warned about."""
    monkeypatch.setattr(fitbase, "_theta_scan", lambda terms, ts: (ts, np.full(ts.size, -np.inf)))
    stats, grid, hp, quad, fixed = em_refresh_args["case1"][0]
    caches = {"c": cache_of(stats, grid, hp, quad)}
    cache = caches["c"]
    assert search_theta(stats, caches, "c", fixed) == (hp, False)
    assert caches["c"] is cache
    config = FitConfig(T=100.0, T_phi=6.0, max_iter=2, tol=0.0, hyper_refresh_every=1)
    _, report = fit_em(small_case1_seqs, config)
    assert [record[n]["accepted"] for record in report.hyper_history for n in ("mu", "phi")] == [False] * 4
    assert [w for w in report.warnings if "kept theta" in w] == [
        f"hyperparameter search for {name} kept theta at iteration {it}" for it in (1, 2) for name in ("mu", "phi")
    ]
