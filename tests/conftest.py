"""Shared fixtures: small simulated datasets reused across test modules."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sgp_hawkes import FitConfig, case1_rates, simulate_thinning
from sgp_hawkes.fitbase import BranchingPosterior, build_caches, build_dataset, normalize_branching
from sgp_hawkes.kernels import gp_projector, se_cross
from sgp_hawkes.process import EventSequence, RateFunctions
from sgp_hawkes.quadrature import QuadratureGrid, gauss_legendre

# The checkout root, the same value perfbench/tests/conftest.py gives ROOT: whichever
# of the two conftest modules ``from conftest import ROOT`` finds, it reads this path.
ROOT = Path(__file__).resolve().parents[1]

# Every property test draws the same examples on every run: seeded from the
# test itself, a fixed count, no deadline and no example database.
settings.register_profile("deterministic", derandomize=True, max_examples=200, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.hookimpl(trylast=True)  # after the durations table, next to the test count
def pytest_terminal_summary(terminalreporter):
    """Report the size of the package, ``cat src/sgp_hawkes/*.py | wc -l``, after every run."""
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "sgp_hawkes").glob("*.py"))
    terminalreporter.write_line(f"src/sgp_hawkes: {lines} lines")


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


_CELL = gauss_legendre(16, 0.0, 1.0)


def _window_compensator(rates, times, upper) -> np.ndarray:
    """int_0^u lambda for each u in ``upper``, by quadrature of the intensity's definition.

    lambda(t) = mu(t) + phi(t - t_j) over every event t_j with t - t_j in (0, T_phi]. The
    window is cut at every event and every expiry t_j + T_phi, so lambda is smooth on each
    piece, and each piece is split into cells at most 0.25 long, 16 Gauss-Legendre nodes each.
    """
    upper = np.asarray(upper, dtype=float)
    cuts = np.concatenate([[0.0], times, times + rates.T_phi, upper])
    cuts = np.unique(cuts[cuts <= upper.max(initial=0.0)])
    counts = np.maximum(1, np.ceil(np.diff(cuts) / 0.25).astype(int))
    edges = np.concatenate(
        [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(cuts[:-1], cuts[1:], counts)] + [cuts[-1:]]
    )
    width = np.diff(edges)
    nodes = (edges[:-1, None] + width[:, None] * _CELL.nodes).ravel()
    lag = nodes[:, None] - np.asarray(times, dtype=float)[None, :]
    inside = (lag > 0.0) & (lag <= rates.T_phi)
    lam = rates.mu(nodes) + np.where(inside, rates.phi(np.where(inside, lag, 0.0)), 0.0).sum(axis=1)
    cum = np.concatenate([[0.0], np.cumsum((lam.reshape(width.size, _CELL.nodes.size) @ _CELL.weights) * width)])
    return cum[np.searchsorted(edges, upper)]


@st.composite
def _smooth_hawkes_windows(draw):
    a, c = draw(st.floats(0.2, 3.0)), draw(st.floats(0.1, 2.0))
    b = a * draw(st.floats(0.0, 0.9))
    alpha, beta, t_phi = draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 3.0)), draw(st.floats(0.3, 5.0))
    T = draw(st.floats(1.0, 20.0))
    times = sorted(draw(st.lists(st.floats(0.0, T), max_size=30, unique=True)))
    rates = RateFunctions(
        mu=lambda t: a + b * np.sin(c * np.asarray(t, dtype=float)),
        phi=lambda x: alpha * np.exp(-beta * np.asarray(x, dtype=float)),
        T_phi=t_phi,
        mu_integral=lambda t: a * np.asarray(t, dtype=float) + b / c * (1.0 - np.cos(c * np.asarray(t, dtype=float))),
        phi_integral=lambda x: alpha / beta * -np.expm1(-beta * np.asarray(x, dtype=float)),
    )
    return rates, EventSequence(np.array(times, dtype=float), T)


@pytest.fixture(scope="session")
def window_compensator():
    """(rates, times, upper) -> int_0^u lambda for each u in upper, by quadrature (``_window_compensator``)."""
    return _window_compensator


@pytest.fixture(scope="session")
def smooth_hawkes_windows():
    """Strategy of (rates, sequence): mu = a + b sin(c t) > 0 and phi = alpha exp(-beta x) on
    (0, T_phi], with exact antiderivatives, and up to 30 events anywhere in a window [0, T]
    of length 1-20; draw from it with ``st.data()``."""
    return _smooth_hawkes_windows()


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
