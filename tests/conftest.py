"""Shared fixtures: small simulated datasets reused across test modules."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings

from sgp_hawkes import FitConfig, case1_rates, simulate_thinning
from sgp_hawkes.fitbase import BranchingPosterior, build_caches, build_dataset, normalize_branching
from sgp_hawkes.kernels import gp_projector, se_cross
from sgp_hawkes.quadrature import QuadratureGrid, gauss_legendre

# Every property test draws the same examples on every run: seeded from the
# test itself, a fixed count, no deadline and no example database.
settings.register_profile("deterministic", derandomize=True, max_examples=200, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_case1_seqs():
    return [simulate_thinning(case1_rates(), 100.0, seed=s) for s in range(3)]


@pytest.fixture(scope="session")
def small_config():
    return FitConfig(T=100.0, T_phi=6.0, max_iter=10, hyper_refresh_every=0)


@pytest.fixture(scope="session")
def small_dataset(small_case1_seqs):
    return build_dataset(small_case1_seqs, 6.0)


@pytest.fixture(scope="session")
def small_caches(small_dataset, small_config):
    return build_caches(small_dataset, small_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _legendre_integral(f, upper, order: int) -> np.ndarray:
    """int_0^x f for every x in ``upper``: one Gauss-Legendre rule rescaled onto each [0, x]."""
    base = gauss_legendre(order, 0.0, 1.0)
    x = np.atleast_1d(np.asarray(upper, dtype=float))
    return (np.asarray(f(x[:, None] * base.nodes), dtype=float) @ base.weights) * x


@pytest.fixture(scope="session")
def quadrature_antiderivatives():
    """Rates -> the same rates with Gauss-Legendre antiderivatives attached.

    Scoring needs ``mu_integral`` and ``phi_integral``; the exact EM/VI rate
    adapters have none, so oracle tests that score them use these (200 nodes
    on [0, t] for mu, 48 on [0, x] for phi).
    """

    def attach(rates):
        return replace(
            rates,
            mu_integral=lambda t: _legendre_integral(rates.mu, t, 200),
            phi_integral=lambda x: _legendre_integral(rates.phi, x, 48),
        )

    return attach


def _integrate(grid: QuadratureGrid, f) -> float:
    vals = np.asarray(f(grid.nodes), dtype=float)
    if vals.shape != grid.nodes.shape:
        raise ValueError("integrand must return one value per node")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ValueError(f"non-finite integrand value {vals[idx]} at node index {idx} (t={grid.nodes[idx]})")
    return float(grid.weights @ vals)


@pytest.fixture(scope="session")
def integrate():
    """(grid, f) -> the rule applied to the callable f; rejects non-finite integrand values."""
    return _integrate


def _sparse_mean(t, grid, gm, u, hp):
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.count,):
        raise ValueError(f"u has shape {u.shape}, expected ({grid.count},)")
    scalar = np.isscalar(t) or np.ndim(t) == 0
    out = gp_projector(gm, u)(se_cross(t, grid.points, hp))
    return float(out[0]) if scalar else out


@pytest.fixture(scope="session")
def sparse_mean():
    """(t, grid, gm, u, hp) -> the sparse GP projection k(t, s)^T K^{-1} u at t (scalar or array)."""
    return _sparse_mean


def _uniform_branching(data) -> BranchingPosterior:
    return normalize_branching(np.ones(data.n_events), np.ones(data.n_pairs), data.child, data.n_events)


@pytest.fixture(scope="session")
def row_sums():
    """(branching, child, n_events) -> each event's background plus parent responsibilities."""
    return lambda br, child, n_events: br.background + np.bincount(child, weights=br.parent, minlength=n_events)


@pytest.fixture(scope="session")
def uniform_branching():
    """data -> the branching posterior that weighs background and every admissible parent equally."""
    return _uniform_branching
