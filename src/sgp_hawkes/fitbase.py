"""Shared plumbing and the one sweep of the EM and variational engines.

Both engines run on one weighted point set x per component: its Dirac locations,
the events (baseline component) or the pairwise lags (trigger component), then the
nodes of a fixed quadrature grid. Each point carries one weight r (a responsibility,
or node weight x thinned-point rate) and one Polya-Gamma tilt. ``run_sweeps`` runs
the whole sweep for both: the engine's projection into a per-component link,
the one E-step (``estep_pg``, ``estep_latent_rate``, ``estep_branching``),
the one M-step (``mstep``: the lambda* counts and the Gaussian update of each
active component) and the kernel-hyperparameter refresh, which re-solves the
Gaussian update from that sweep's statistics. The refresh maximizes the
engine's own objective over theta with the Gaussian factor of the inducing
values held fixed, a point mass for EM and q(u) = N(m, cov) for VI. An engine
keeps only what tells the two apart: its link, its objective and how it
installs an M-step update into its model.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .kernels import (
    JITTER,
    MIN_EXPONENT,
    THETA_BOUNDS,
    GramMatrix,
    InducingGrid,
    KernelHyperparams,
    SingularMatrixError,
    chol_solve,
    gp_projector,
    gram,
    se_cross,
    uniform_inducing_grid,
)
from .pg import pg_mean
from .process import EventSequence, RateFunctions, admissible_pairs, as_sequences, trigger_support
from .quadrature import QuadratureGrid, gauss_legendre

_SEARCH_BINS = 2048
_COARSE_THETA1 = 15  # log-spaced theta1 values of the theta search's bracketing grid
_SCAN_DOUBLES = 1 << 16  # doubles (512 KiB) per kernel-row block of the coarse theta1 scan
REPORT_GRID = 200  # points of a fit report's mu and phi grids
COMPONENTS = ("mu", "phi")
_INT_MINIMUMS = {  # smallest accepted value of each integer FitConfig field
    "S_mu": 2, "S_phi": 2, "quad_order_T": 1, "quad_order_Tphi": 1,
    "max_iter": 1, "hyper_refresh_every": 0,
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_int(key: str, value, low: int) -> int:
    """``value`` if it is an integer (not a bool) >= low; else a ValueError naming ``key``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    return value


def check_positive(key: str, value) -> float:
    """``value`` as a float if it is a positive finite number; else a ValueError naming ``key``."""
    if not (_is_real(value) and 0 < value <= np.finfo(float).max):
        raise ValueError(f"{key} must be a positive finite number, got {value!r}")
    return float(value)


@dataclass
class FitConfig:
    """Knobs shared by the EM and variational fitters."""

    T: float
    T_phi: float
    S_mu: int = 10
    S_phi: int = 10
    quad_order_T: int = 50
    quad_order_Tphi: int = 50
    max_iter: int = 200
    tol: float = 1e-4
    hyper_refresh_every: int = 20

    def __post_init__(self):
        for key, low in _INT_MINIMUMS.items():
            check_int(key, getattr(self, key), low)
        if not (_is_real(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be a number >= 0, got {self.tol!r}")
        for key in ("T", "T_phi"):
            check_positive(key, getattr(self, key))


@dataclass
class FitReport:
    """Outcome of one fit: trace, estimates on an evaluation grid, timings."""

    method: str
    converged: bool
    n_iter: int
    runtime_seconds: float
    objective_trace: list[float]
    hyper_history: list[dict]
    warnings: list[str]
    grid_mu: np.ndarray
    mu_hat: np.ndarray
    grid_phi: np.ndarray
    phi_hat: np.ndarray
    mu_std: np.ndarray | None = None
    phi_std: np.ndarray | None = None


@dataclass(frozen=True)
class Dataset:
    """One or more same-window sequences with pooled admissible pairs."""

    n_sequences: int
    T: float
    T_phi: float
    events: np.ndarray  # all events, sequence by sequence
    child: np.ndarray  # pair -> index into ``events`` of the later event
    lag: np.ndarray  # pair -> t_child - t_parent, in (0, T_phi]

    @property
    def n_events(self) -> int:
        return self.events.size

    @property
    def n_pairs(self) -> int:
        return self.lag.size

    @property
    def active(self) -> tuple[str, ...]:
        """Components that are updated; without events phi keeps its initial state."""
        return COMPONENTS if self.n_events else ("mu",)

    def component(self, name: str) -> tuple[np.ndarray, int, float]:
        """(data locations, replication count, domain) of component mu or phi."""
        if name == "mu":
            return self.events, self.n_sequences, self.T
        return self.lag, self.n_events, self.T_phi


def build_dataset(seqs: EventSequence | Sequence[EventSequence], t_phi: float) -> Dataset:
    seqs = as_sequences(seqs)
    T = seqs[0].T
    for s in seqs:
        if abs(s.T - T) > 1e-9 * max(1.0, T):
            raise ValueError("all training sequences must share the same window length")
    events, children, lags = [], [], []
    offset = 0
    for s in seqs:
        child, lag = admissible_pairs(s.times, t_phi)
        events.append(s.times)
        children.append(child + offset)
        lags.append(lag)
        offset += len(s)
    return Dataset(
        n_sequences=len(seqs),
        T=float(T),
        T_phi=float(t_phi),
        events=np.concatenate(events),
        child=np.concatenate(children),
        lag=np.concatenate(lags),
    )


@dataclass(frozen=True)
class BranchingPosterior:
    """Per-event cause distribution: background weight + flat parent weights.

    ``parent[k]`` is the responsibility of admissible pair k (lag in
    (0, T_phi]), so storage is O(number of admissible pairs). ``normalizer``
    is each event's sum of numerators, the intensity at it for EM's links.
    """

    background: np.ndarray
    parent: np.ndarray
    normalizer: np.ndarray

    def weights(self, name: str) -> np.ndarray:
        """Responsibilities at the data locations of component mu or phi."""
        return self.background if name == "mu" else self.parent

    def log_normalizer(self) -> float:
        """sum_i log normalizer_i, the data term of both objectives: EM's log intensity at each event, and VI's
        sum w log numerator minus sum w log w, as each event's responsibilities w = numerator / normalizer sum to 1."""
        return float(np.sum(np.log(self.normalizer)))


def normalize_branching(bg_numer, pair_numer, child, n_events) -> BranchingPosterior:
    bg_numer = np.asarray(bg_numer, dtype=float)
    pair_numer = np.asarray(pair_numer, dtype=float)
    denom = bg_numer + np.bincount(child, weights=pair_numer, minlength=n_events)
    if np.any(denom <= 0.0) or np.any(~np.isfinite(denom)):
        raise ValueError("branching normalizer must be positive and finite")
    return BranchingPosterior(
        background=bg_numer / denom,
        parent=pair_numer / denom[child] if pair_numer.size else pair_numer,
        normalizer=denom,
    )


def band_products(k: np.ndarray) -> np.ndarray:
    """Products of neighbouring rows of component-major kernel rows k (S x n), as a
    (2S-1) x n array: row 2p holds k_p^2 and row 2p+1 holds k_p k_{p+1}."""
    out = np.empty((2 * k.shape[0] - 1, k.shape[1]))
    np.multiply(k, k, out=out[0::2])
    np.multiply(k[:-1], k[1:], out=out[1::2])
    return out


def band_fill(grid: InducingGrid, hp: KernelHyperparams) -> np.ndarray:
    """S x S factors F with k_s k_r = F[s, r] k_p k_q, p = (s+r)//2 and q = s+r-p.

    On a uniform grid z_s = z_0 + s h, k_s(x) k_r(x) = theta0^2 exp(-theta1 (x - m)^2)
    exp(-theta1 (z_s - z_r)^2 / 4) with m = (z_s + z_r)/2, so F = exp(-theta1 h^2
    ((s-r)^2 - ((s-r) mod 2)) / 4) <= 1. Raises ValueError on a non-uniform grid.
    """
    steps = np.diff(grid.points)
    h = float(np.mean(steps)) if steps.size else 0.0
    if np.any(np.abs(steps - h) > 1e-9 * h):
        raise ValueError("the Gaussian-update assembly needs a uniform inducing grid")
    d = np.subtract.outer(np.arange(grid.count), np.arange(grid.count))
    return np.exp(-0.25 * hp.theta1 * h * h * (d * d - d % 2))


@dataclass
class ComponentCache:
    """One component's point set x, its P data locations followed by the nodes of its quadrature
    grid (weights times the replication count), with the kernel rows k from x to the inducing grid,
    which must be uniform, stored component-major (S x (P + Q), so every pass streams contiguous
    rows), their band products, the fill factors of the assembly (``band_products``, ``band_fill``)
    and the theta search's bin of each data location (``_search_bins``)."""

    grid: InducingGrid
    hp: KernelHyperparams
    gm: GramMatrix
    x: np.ndarray
    k: np.ndarray
    quad: QuadratureGrid
    band: np.ndarray
    fill: np.ndarray
    bins: np.ndarray

    @classmethod
    def build(cls, points, grid: InducingGrid, hp: KernelHyperparams, quad: QuadratureGrid, bins=None):
        points, fill = np.asarray(points, dtype=float), band_fill(grid, hp)
        x = np.concatenate([points, quad.nodes])
        k = se_cross(grid.points, x, hp)
        bins = _search_bins(points, grid.domain) if bins is None else bins
        return cls(grid, hp, gram(grid, hp), x, k, quad, band_products(k), fill, bins)

    @property
    def points(self) -> np.ndarray:
        """The data part of x, the points before the quadrature nodes."""
        return self.x[:self.x.size - self.quad.nodes.size]

    @cached_property
    def sign(self) -> np.ndarray:
        """+1 at the data points and -1 at the nodes: the sign of f in each point's sigma(+-f)."""
        return np.where(np.arange(self.x.size) < self.points.size, 1.0, -1.0)

    @property
    def exposure(self) -> float:
        """The sum of the node weights: the domain times the replication count, to rounding."""
        return float(np.sum(self.quad.weights))

    def project_mean(self, u: np.ndarray) -> np.ndarray:
        """The projection at each point of x."""
        return np.einsum("s,sp->p", self.gm.solve(np.asarray(u, dtype=float)), self.k)

    def project_meanvar(self, mean_u: np.ndarray, cov_u: np.ndarray):
        """Projected marginal (mean, variance) at each point of x. The variance k^T W k,
        W = K^{-1} cov K^{-1}, is sum_m w_m B[m] over the band products B, with
        w_m = sum_{s+r=m} W_sr F_sr and F the fill factors (``band_fill``)."""
        alpha = self.gm.solve(np.asarray(mean_u, dtype=float))
        w = self.fill * self.gm.solve(self.gm.solve(np.asarray(cov_u, dtype=float)).T)
        s = np.arange(self.grid.count)
        w = np.bincount((s[:, None] + s).ravel(), weights=w.ravel())
        return np.einsum("s,sp->p", alpha, self.k), np.maximum(np.einsum("m,mp->p", w, self.band), 0.0)


def component_rate(grid: InducingGrid, hp: KernelHyperparams, mean, cov, link, t_phi: float | None = None):
    """Shape-preserving x -> link(gp_projector output at x), zero outside (0, t_phi] if given."""
    project = gp_projector(gram(grid, hp), mean, cov)

    def rate(x):
        x = np.asarray(x, dtype=float)
        out = link(project(se_cross(x.ravel(), grid.points, hp))).reshape(x.shape)
        return out if t_phi is None else np.where(trigger_support(x, t_phi), out, 0.0)

    return rate


def model_rates(model) -> RateFunctions:
    """Rate functions of a fitted EM or VI model, each component through its own ``rate``."""
    return RateFunctions(mu=model.mu.rate(), phi=model.phi.rate(model.T_phi), T_phi=model.T_phi)


def build_caches(data: Dataset, config: FitConfig) -> dict[str, ComponentCache]:
    """Each component's cache; its node weights carry its replication count (``Dataset.component``)."""
    caches = {}
    for name, count, domain, order in (
        ("mu", config.S_mu, config.T, config.quad_order_T),
        ("phi", config.S_phi, config.T_phi, config.quad_order_Tphi),
    ):
        points, scale, _ = data.component(name)
        grid = uniform_inducing_grid(count, domain)
        quad = gauss_legendre(order, 0.0, domain)
        quad = replace(quad, weights=scale * quad.weights)
        caches[name] = ComponentCache.build(points, grid, auto_theta(grid), quad)
    return caches


def estep_pg(links: dict[str, tuple]) -> dict[str, np.ndarray]:
    """PG means E[omega] = tanh(c/2) / (2c) at each point of each component's x, c the tilt there."""
    return {n: pg_mean(links[n][1]) for n in COMPONENTS}


def estep_latent_rate(link: tuple, cache: ComponentCache) -> np.ndarray:
    """Node weight x thinned-point rate of one component's latent process at its quadrature nodes."""
    return cache.quad.weights * link[0][cache.points.size:]


def estep_branching(links: dict[str, tuple], data: Dataset) -> BranchingPosterior:
    """Responsibilities p(own background) / p(parent j) from the link numerators at the data points."""
    numerators = links["mu"][0][:data.n_events], links["phi"][0][:data.n_pairs]
    return normalize_branching(*numerators, data.child, data.n_events)


def estep(links: dict[str, tuple], data: Dataset, caches: dict[str, ComponentCache]):
    """The one E-step of both engines, without its PG means (``estep_pg``), which only the M-step
    reads: (r, responsibilities), r the weight of each point of each component's x, from its link
    (numerator, PG tilt) over x: the responsibility that the branching numerators give at a data
    point, and node weight x numerator, the thinned-point rate, at a node."""
    branching = estep_branching(links, data)
    r = {n: np.concatenate([branching.weights(n), estep_latent_rate(links[n], caches[n])]) for n in COMPONENTS}
    return r, branching


@dataclass(frozen=True)
class ComponentStats:
    """A/B statistics of one GP component: weights a and b at each point of its
    point set x (``ComponentCache``), the data locations and then the quadrature nodes.

    The Gaussian update solves
        cov = K (U + K)^{-1} K,   mean = K (U + K)^{-1} c
    with U = sum_i a_i k_i k_i^T and c = sum_i b_i k_i over x. The integral over the latent
    thinned process is the sum over the nodes, whose weights carry the replication count.
    """

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray


def assemble_system(stats: ComponentStats, cache: ComponentCache):
    """(U, c) of one component's Gaussian update, with ``cache`` built at the
    statistics' point set.

    U[s, r] = F[s, r] B[s + r] with F the cache's fill factors and B the band
    products weighted by a (``band_fill``); c = k b over the S x (P + Q) kernel
    rows. B and c are einsums, not BLAS matrix-vector products, whose threaded
    reduction over the points changes the bits with the thread count.
    """
    band = np.einsum("mp,p->m", cache.band, stats.a)
    s = np.arange(cache.grid.count)
    return cache.fill * band[s[:, None] + s], np.einsum("sp,p->s", cache.k, stats.b)


def solve_gaussian_update(gm: GramMatrix, u_mat: np.ndarray, c_vec: np.ndarray):
    """(mean, cov) of the penalized-Gaussian update: mean = K (U+K)^{-1} c, cov() forms K (U+K)^{-1} K."""
    system = u_mat + gm.values
    try:
        chol = np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("GP update system U + K is not positive definite") from None

    def cov():
        full = gm.values @ chol_solve(chol, gm.values, "GP update covariance")
        return 0.5 * (full + full.T)

    return gm.values @ chol_solve(chol, c_vec, "GP update mean"), cov


def gaussian_update(stats: ComponentStats, cache: ComponentCache):
    """(mean, cov) of one component's Gaussian-form update from its statistics."""
    u_mat, c_vec = assemble_system(stats, cache)
    return solve_gaussian_update(cache.gm, u_mat, c_vec)


def mstep(data: Dataset, caches, pg, r) -> dict[str, tuple]:
    """The one M-step of both engines, from an E-step's PG means and weights r: for each active component,
    (statistics, count, exposure, mean, cov), with a = E[omega] r and b = +-r/2 over x, count sum(r),
    exposure the sum of the node weights of its lambda* update and (mean, cov) its ``solve_gaussian_update``."""
    updates = {}
    for name in data.active:
        cache, weight = caches[name], r[name]
        stats = ComponentStats(cache.x, pg[name] * weight, 0.5 * cache.sign * weight)
        updates[name] = (stats, float(np.sum(weight)), cache.exposure, *gaussian_update(stats, cache))
    return updates


def _moment_factor(fixed) -> np.ndarray:
    """[m, L] with cov = L L^T (m alone for EM): for kernel rows k and Z = K^{-1} [m, L], f = k Z[:, 0],
    f^2 + var = |k Z|^2 row by row and m^T K^{-1} m + tr(K^{-1} cov) = sum([m, L] * Z)."""
    mean, cov = fixed
    if cov is None:
        return mean[:, None]
    lam, vec = np.linalg.eigh(cov)
    return np.column_stack([mean, vec * np.sqrt(np.maximum(lam, 0.0))])


def _data_term(proj: np.ndarray, a: np.ndarray, b: np.ndarray):
    """E[sum b f - 0.5 a f^2] from the projections k Z (``_moment_factor``), over any leading axes."""
    second = np.einsum("...pr,...pr->...p", proj, proj)
    return np.einsum("...p,p->...", proj[..., 0], b) - 0.5 * np.einsum("...p,p->...", second, a)


def _scan_terms(stats: ComponentStats, grid: InducingGrid, fixed):
    """What every scan of one search reuses: the squared distances to the grid of the statistics' points
    and of the grid itself (as in se_cross), the weights a and b, and [m, L]."""
    diffs = [np.subtract.outer(x, grid.points) for x in (stats.x, grid.points)]
    return *(np.square(d, out=d) for d in diffs), stats.a, stats.b, _moment_factor(fixed)


def _theta_scan(terms, theta1s: np.ndarray):
    """(theta0s, values) of the theta objective at each of ``theta1s``, theta0 at its maximizer in
    THETA_BOUNDS, holding the Gaussian factor (mean, cov) of the inducing values (cov None: EM's point mass
    at u = mean), from the ``_scan_terms`` of the statistics, the grid and that factor.

    The objective is E[sum b f - 0.5 a f^2] - KL(q(u) || N(0, K)) up to terms free of theta. K = theta0 K1
    exactly, jitter included, so the projected moments of f and the data terms D do not depend on theta0,
    and the objective is D - 0.5 q / theta0 - 0.5 (log|K1| + S log theta0) with q = m^T K1^{-1} m +
    tr(K1^{-1} cov) (``_moment_factor``): concave in log theta0, it peaks at q / S. One Cholesky of the
    stack of K1, each slice solved by ``chol_solve``, and kernel rows for blocks of theta1 of about
    _SCAN_DOUBLES doubles, their exponents floored at MIN_EXPONENT as in se_kernel; the value is -inf where
    K1 does not factor or a solve or value is not finite.
    """
    rows_sq, grid_sq, a, b, rhs = terms
    k1 = np.exp(np.maximum(np.multiply.outer(-0.5 * theta1s, grid_sq), MIN_EXPONENT)) + JITTER * np.eye(len(rhs))
    try:
        chols = np.linalg.cholesky(k1)
        solved = np.stack([chol_solve(chol, rhs, "theta scan") for chol in chols])
    except (np.linalg.LinAlgError, FloatingPointError):  # slice by slice, NaN (so -inf) where one fails
        chols, solved = np.full_like(k1, np.nan), np.full((theta1s.size, *rhs.shape), np.nan)
        for g, k in enumerate(k1):
            with suppress(np.linalg.LinAlgError, FloatingPointError):
                chols[g] = np.linalg.cholesky(k)
                solved[g] = chol_solve(chols[g], rhs, "theta scan")
    data = np.empty(theta1s.size)
    block = max(1, _SCAN_DOUBLES // max(1, rows_sq.size))
    for lo in range(0, theta1s.size, block):
        rows = np.multiply.outer(-0.5 * theta1s[lo:lo + block], rows_sq)
        np.exp(np.maximum(rows, MIN_EXPONENT, out=rows), out=rows)
        data[lo:lo + block] = _data_term(rows @ solved[lo:lo + block], a, b)
    q = np.sum((solved * rhs).reshape(theta1s.size, -1), axis=1)  # slice by slice: bits free of the batch
    theta0 = np.clip(q / len(rhs), *THETA_BOUNDS)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    values = data - 0.5 * q / theta0 - 0.5 * (logdet + len(rhs) * np.log(theta0))
    return theta0, np.where(np.isfinite(values), values, -np.inf)


def _search_bins(points: np.ndarray, domain: float) -> np.ndarray:
    """Bin of each point among the _SEARCH_BINS equal bins of [0, domain]."""
    edges = np.linspace(0.0, domain, _SEARCH_BINS + 1)
    return np.clip(np.searchsorted(edges, points, side="right") - 1, 0, _SEARCH_BINS - 1)


def _compact_stats(stats: ComponentStats, bins: np.ndarray, domain: float) -> ComponentStats:
    """Histogram the data part, the first ``bins.size`` points, onto the centers of their ``_search_bins``
    of [0, domain], to speed up the theta search; the quadrature nodes pass through."""
    p = bins.size
    if p <= _SEARCH_BINS:
        return stats
    a = np.bincount(bins, weights=stats.a[:p], minlength=_SEARCH_BINS)
    b = np.bincount(bins, weights=stats.b[:p], minlength=_SEARCH_BINS)
    keep = (a != 0.0) | (b != 0.0)
    edges = np.linspace(0.0, domain, _SEARCH_BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    binned = zip((centers, a, b), (stats.x, stats.a, stats.b))
    return ComponentStats(*(np.concatenate([v[keep], whole[p:]]) for v, whole in binned))


def _theta_candidate(stats: ComponentStats, grid: InducingGrid, hp: KernelHyperparams, fixed):
    """(maximizer, value) of the theta objective (``_theta_scan``) over log theta1, (``hp``, -inf) if no
    value is finite: the best of a coarse log grid over THETA_BOUNDS plus the incumbent and 1/spacing^2,
    scanned in one pass, refined by bounded Brent in its bracket to 1e-3, each of its points scanned alone."""
    terms = _scan_terms(stats, grid, fixed)
    lo, hi = np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1])
    best_value, candidate = -np.inf, hp

    def scan(xs):
        nonlocal best_value, candidate
        theta1s = np.exp(xs)
        theta0s, values = _theta_scan(terms, theta1s)
        i = int(np.argmax(values))
        if values[i] > best_value:
            best_value, candidate = float(values[i]), KernelHyperparams(float(theta0s[i]), float(theta1s[i]))
        return i, values[i]

    def negative(x):
        value = scan(np.array([x]))[1]
        return -value if np.isfinite(value) else 1e300

    starts = np.clip(np.log([hp.theta1, 1.0 / grid.spacing**2]), lo, hi)
    xs = np.unique(np.concatenate([np.linspace(lo, hi, _COARSE_THETA1), starts]))
    i, _ = scan(xs)
    bracket = (xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)])
    minimize_scalar(negative, bounds=bracket, method="bounded", options={"xatol": 1e-3})
    return candidate, best_value


def _cache_objective(stats: ComponentStats, cache: ComponentCache, fixed) -> float:
    """The theta objective (``_theta_scan``) at the cache's hp from its kernel rows k = theta0 k1, or -inf,
    with K1 factored as the scan factors it: K^{-1} = K1^{-1} / theta0 and log|K| = log|K1| + S log theta0."""
    rhs, theta0 = _moment_factor(fixed), cache.hp.theta0
    unit = gram(cache.grid, KernelHyperparams(1.0, cache.hp.theta1))
    z, logdet = unit.solve(rhs) / theta0, unit.logdet() + cache.grid.count * np.log(theta0)
    # k^T z; EM's one column is an einsum, like the cache's projections: a BLAS GEMV's threaded sum changes bits
    proj = np.einsum("s,sp->p", z[:, 0], cache.k)[:, None] if z.shape[1] == 1 else cache.k.T @ z
    value = _data_term(proj, stats.a, stats.b) - 0.5 * (np.sum(rhs * z) + logdet)
    return float(value) if np.isfinite(value) else -np.inf


def search_theta(stats: ComponentStats, caches: dict, name: str, fixed: tuple) -> tuple[KernelHyperparams, bool]:
    """Bounded refresh of (theta0, theta1) of component ``name``, holding the Gaussian factor ``fixed`` =
    (mean, cov) of its inducing values (cov None for EM): (hp, accepted), with caches[name] built at hp.

    theta0 is the closed-form maximizer clip(q / S) at every theta1, so the search is over log theta1
    alone (``_theta_candidate``), on the statistics binned by the cache's search bins; a search that finds
    no finite value keeps the incumbent and is flagged as rejected. Else the exact objective comes from the
    kernel rows of the incumbent's and the candidate's caches (``_cache_objective``), the old one freed
    before the new one is built; unless it does not decrease, the incumbent is kept, its cache rebuilt
    and the move flagged as rejected.
    """
    cache = caches[name]
    hp, points, grid, quad, bins = cache.hp, cache.points, cache.grid, cache.quad, cache.bins
    candidate, best = _theta_candidate(_compact_stats(stats, bins, grid.domain), grid, hp, fixed)
    if candidate == hp:
        return hp, bool(np.isfinite(best))
    j_old = _cache_objective(stats, cache, fixed)
    caches[name] = cache = None  # free the old kernel rows before building the new ones
    caches[name] = cache = ComponentCache.build(points, grid, candidate, quad, bins)
    j_new = _cache_objective(stats, cache, fixed)
    if np.isfinite(j_new) and j_new >= j_old - 1e-9 - 1e-12 * abs(j_old):
        return candidate, True
    caches[name] = cache = None
    caches[name] = ComponentCache.build(points, grid, hp, quad, bins)
    return hp, False


def auto_theta(grid: InducingGrid) -> KernelHyperparams:
    """Initial kernel parameters: theta0 = 1 and theta1 = 1/spacing^2 of the grid, within the bounds."""
    return KernelHyperparams(1.0, float(np.clip(1.0 / grid.spacing**2, *THETA_BOUNDS)))


def relative_change(new: float, old: float) -> float:
    return abs(new - old) / max(1.0, abs(old))


def run_sweeps(engine, seqs: EventSequence | Sequence[EventSequence], config: FitConfig):
    """Sweep an engine to convergence: the one sweep of both fit_em and fit_vi.

    Each sweep runs the M-step from the E-step of the current model, installs
    each component's update, refreshes theta every hyper_refresh_every sweeps
    (0: never) and projects the new model once, for its E-step and objective.
    The PG means of an E-step are computed when the next sweep starts, so the
    final model gets none. It stops when the relative objective change falls
    below config.tol, or after config.max_iter sweeps. The engine supplies
    ``kind``, ``label`` and six hooks: ``init(data, caches)``;
    ``project(model, caches)``, the link of each component (see ``estep``);
    ``objective(model, links, expectations, caches)``, with
    ``expectations`` the E-step at those links (``estep``);
    ``install(model, name, hp, count, exposure, mean, cov)``, which puts one
    component's M-step update into the model, cov() forming its covariance;
    ``gaussian(model, name)``, the factor (mean, cov) of the inducing values
    that the theta search holds fixed (cov None for EM's point estimate); and
    ``estimates(model, grids)``, the report's rates.
    """
    t_start = time.perf_counter()
    data = build_dataset(seqs, config.T_phi)
    if abs(data.T - config.T) > 1e-9 * max(1.0, config.T):
        raise ValueError(f"config T={config.T} does not match sequence window T={data.T}")
    caches = build_caches(data, config)
    model = engine.init(data, caches)
    links = engine.project(model, caches)
    expectations = estep(links, data, caches)
    trace: list[float] = []
    hyper_history: list[dict] = []
    warnings: list[str] = []
    converged = False
    for iteration in range(1, config.max_iter + 1):
        updates = mstep(data, caches, estep_pg(links), expectations[0])
        for name, (_, *update) in updates.items():
            model = engine.install(model, name, caches[name].hp, *update)

        if config.hyper_refresh_every and iteration % config.hyper_refresh_every == 0:
            record = {"iteration": iteration}
            for name, (stats, count, exposure, _, _) in updates.items():
                incumbent = caches[name].hp
                hp, accepted = search_theta(stats, caches, name, engine.gaussian(model, name))
                if hp != incumbent:
                    model = engine.install(model, name, hp, count, exposure, *gaussian_update(stats, caches[name]))
                record[name] = {"theta0": hp.theta0, "theta1": hp.theta1, "accepted": accepted}
                if not accepted:
                    warnings.append(f"hyperparameter search for {name} kept theta at iteration {iteration}")
                for param in ("theta0", "theta1"):
                    value = getattr(hp, param)
                    # the search clips in log space: 1e-3 comes back as 1.0000000000000002e-3
                    for bound in (b for b in THETA_BOUNDS if abs(value - b) <= 1e-9 * b):
                        warnings.append(
                            f"{name} {param} = {value:.6g} sits on its bound {bound:g}"
                            f" after the refresh at iteration {iteration}"
                        )
            hyper_history.append(record)

        links = engine.project(model, caches)
        expectations = estep(links, data, caches)
        objective = engine.objective(model, links, expectations, caches)
        if not np.isfinite(objective):
            raise FloatingPointError(f"{engine.label} became non-finite at iteration {iteration}")
        trace.append(objective)
        if len(trace) > 1 and relative_change(objective, trace[-2]) < config.tol:
            converged = True
            break

    grids = {name: np.linspace(0.0, data.component(name)[2], REPORT_GRID) for name in COMPONENTS}
    return model, FitReport(
        method=engine.kind,
        converged=converged,
        n_iter=iteration,
        runtime_seconds=time.perf_counter() - t_start,
        objective_trace=trace,
        hyper_history=hyper_history,
        warnings=warnings,
        grid_mu=grids["mu"],
        grid_phi=grids["phi"],
        **engine.estimates(model, grids),
    )
