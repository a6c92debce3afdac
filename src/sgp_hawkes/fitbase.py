"""Shared plumbing and the sweep loop of the EM and variational engines.

Both engines consume the same sufficient-statistic shapes: Dirac weights at
event locations (baseline component) or pairwise lags (trigger component),
plus weighted rate densities on a fixed quadrature grid. The Gaussian-map
update, the posterior covariance, the kernel-hyperparameter profile search
and the sweep driver ``run_sweeps`` are shared, so the two engines cannot
drift apart numerically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from .kernels import (
    THETA_BOUNDS,
    GramMatrix,
    InducingGrid,
    KernelHyperparams,
    SingularMatrixError,
    gp_projector,
    gram,
    se_cross,
    uniform_inducing_grid,
)
from .process import EventSequence, admissible_pairs, trigger_support
from .quadrature import DEFAULT_GH_ORDER, QuadratureGrid, gauss_legendre

_SEARCH_BINS = 2048
COMPONENTS = ("mu", "phi")


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
    theta0_init: float = 1.0
    theta1_init: float | None = None  # None -> per-component 1/spacing^2
    gh_order: int = DEFAULT_GH_ORDER
    eval_grid: int = 200
    fix_variance: bool = False  # debug: pin the GP factor covariance near zero

    def __post_init__(self):
        if self.T <= 0 or self.T_phi <= 0:
            raise ValueError("T and T_phi must be positive")
        if self.S_mu < 2 or self.S_phi < 2:
            raise ValueError("need at least two inducing points per component")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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

    sequences: tuple[EventSequence, ...]
    T: float
    T_phi: float
    events: np.ndarray  # all events, sequence by sequence
    child: np.ndarray  # pair -> index into ``events`` of the later event
    lag: np.ndarray  # pair -> t_child - t_parent, in (0, T_phi]

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

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
        """(data locations, replication scale, domain) of component mu or phi."""
        if name == "mu":
            return self.events, self.n_sequences, self.T
        return self.lag, self.n_events, self.T_phi


def build_dataset(seqs: EventSequence | Sequence[EventSequence], t_phi: float) -> Dataset:
    if isinstance(seqs, EventSequence):
        seqs = [seqs]
    seqs = tuple(seqs)
    if not seqs:
        raise ValueError("need at least one sequence")
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
        sequences=seqs,
        T=float(T),
        T_phi=float(t_phi),
        events=np.concatenate(events),
        child=np.concatenate(children),
        lag=np.concatenate(lags),
    )


@dataclass(frozen=True)
class BranchingPosterior:
    """Per-event cause distribution: background weight + flat parent weights.

    ``parent[k]`` is the responsibility of the pair with child ``child[k]``;
    entries exist only for admissible pairs (lag in (0, T_phi]), so storage
    is O(number of admissible pairs).
    """

    background: np.ndarray
    parent: np.ndarray
    child: np.ndarray
    n_events: int

    def row_sums(self) -> np.ndarray:
        return self.background + np.bincount(
            self.child, weights=self.parent, minlength=self.n_events
        )

    def weights(self, name: str) -> np.ndarray:
        """Responsibilities at the data locations of component mu or phi."""
        return self.background if name == "mu" else self.parent


def normalize_branching(bg_numer, pair_numer, child, n_events) -> BranchingPosterior:
    bg_numer = np.asarray(bg_numer, dtype=float)
    pair_numer = np.asarray(pair_numer, dtype=float)
    denom = bg_numer + np.bincount(child, weights=pair_numer, minlength=n_events)
    if np.any(denom <= 0.0) or np.any(~np.isfinite(denom)):
        raise ValueError("branching normalizer must be positive and finite")
    return BranchingPosterior(
        background=bg_numer / denom,
        parent=pair_numer / denom[child] if pair_numer.size else pair_numer,
        child=child,
        n_events=n_events,
    )


def uniform_branching(data: Dataset) -> BranchingPosterior:
    return normalize_branching(
        np.ones(data.n_events), np.ones(data.n_pairs), data.child, data.n_events
    )


@dataclass
class ComponentCache:
    """Kernel matrices from one component's data locations to its inducing grid."""

    grid: InducingGrid
    hp: KernelHyperparams
    gm: GramMatrix
    points: np.ndarray
    k_points: np.ndarray
    quad: QuadratureGrid
    k_quad: np.ndarray

    @classmethod
    def build(cls, points, grid: InducingGrid, hp: KernelHyperparams, quad: QuadratureGrid):
        points = np.asarray(points, dtype=float)
        return cls(
            grid=grid,
            hp=hp,
            gm=gram(grid, hp),
            points=points,
            k_points=se_cross(points, grid.points, hp),
            quad=quad,
            k_quad=se_cross(quad.nodes, grid.points, hp),
        )

    def with_hp(self, hp: KernelHyperparams) -> "ComponentCache":
        return ComponentCache.build(self.points, self.grid, hp, self.quad)

    def project_mean(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(projection at data points, projection at quadrature nodes)."""
        at = gp_projector(self.gm, u)
        return at(self.k_points), at(self.k_quad)

    def project_meanvar(self, mean_u: np.ndarray, cov_u: np.ndarray):
        """Projected marginal mean/variance at data points and quad nodes."""
        at = gp_projector(self.gm, mean_u, cov_u)
        return (*at(self.k_points), *at(self.k_quad))


def component_rate(grid: InducingGrid, hp: KernelHyperparams, mean, cov, link, t_phi: float | None = None):
    """Shape-preserving x -> link(gp_projector output at x), zero outside (0, t_phi] if given."""
    project = gp_projector(gram(grid, hp), mean, cov)

    def rate(x):
        x = np.asarray(x, dtype=float)
        out = link(project(se_cross(x.ravel(), grid.points, hp))).reshape(x.shape)
        return out if t_phi is None else np.where(trigger_support(x, t_phi), out, 0.0)

    return rate


def build_caches(data: Dataset, config: FitConfig) -> dict[str, ComponentCache]:
    caches = {}
    for name, count, domain, order in (
        ("mu", config.S_mu, config.T, config.quad_order_T),
        ("phi", config.S_phi, config.T_phi, config.quad_order_Tphi),
    ):
        grid = uniform_inducing_grid(count, domain)
        quad = gauss_legendre(order, 0.0, domain)
        caches[name] = ComponentCache.build(data.component(name)[0], grid, auto_theta(config, grid), quad)
    return caches


@dataclass(frozen=True)
class LatentRate:
    """Marginalized thinned-point rate of one component on its quadrature grid."""

    marginal: np.ndarray  # thinned-point rate at the nodes
    first_moment: np.ndarray  # marginal * E[omega] at the nodes
    mass: float  # integral of the marginal over one window


@dataclass(frozen=True)
class ComponentStats:
    """A/B statistics of one GP component, in assembly-ready form.

    The Gaussian update solves
        cov = K (U + K)^{-1} K,   mean = K (U + K)^{-1} c
    with U = sum_i a_point_i k_i k_i^T + int a_quad(t) k(t) k(t)^T dt and
    c = sum_i b_point_i k_i + int b_quad(t) k(t) dt. Any replication scaling
    (number of windows / number of events) is already folded into the
    quadrature densities.
    """

    points: np.ndarray
    a_point: np.ndarray
    b_point: np.ndarray
    quad: QuadratureGrid
    a_quad: np.ndarray
    b_quad: np.ndarray
    domain: float


def component_stats(data: Dataset, caches, branching, pg_weight, latent) -> dict[str, ComponentStats]:
    """Statistics of the updated components from their E-step quantities:
    ``pg_weight`` and ``latent`` map each component to E[omega] at its data
    locations and to its ``LatentRate`` (per window for mu, per event for phi).
    """
    stats = {}
    for name in data.active:
        points, scale, domain = data.component(name)
        weights = branching.weights(name)
        stats[name] = ComponentStats(
            points=points,
            a_point=pg_weight[name] * weights,
            b_point=0.5 * weights,
            quad=caches[name].quad,
            a_quad=scale * latent[name].first_moment,
            b_quad=-0.5 * scale * latent[name].marginal,
            domain=domain,
        )
    return stats


def rate_bound_counts(data: Dataset, name: str, branching: BranchingPosterior, mass: float):
    """(expected point count, exposure) of one component's lambda* update."""
    _, scale, domain = data.component(name)
    return float(np.sum(branching.weights(name))) + scale * mass, scale * domain


def assemble_system(stats: ComponentStats, k_points: np.ndarray, k_quad: np.ndarray):
    """(U, c) from precomputed kernel matrices at the stat locations."""
    wa = stats.quad.weights * stats.a_quad
    wb = stats.quad.weights * stats.b_quad
    u_mat = k_quad.T @ (wa[:, None] * k_quad)
    c_vec = k_quad.T @ wb
    if stats.points.size:
        u_mat = u_mat + k_points.T @ (stats.a_point[:, None] * k_points)
        c_vec = c_vec + k_points.T @ stats.b_point
    return u_mat, c_vec


def solve_gaussian_update(gm: GramMatrix, u_mat: np.ndarray, c_vec: np.ndarray):
    """(mean, cov) of the penalized-Gaussian update; cov = K (U+K)^{-1} K."""
    system = u_mat + gm.values
    try:
        chol = np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("GP update system U + K is not positive definite") from None
    mean = gm.values @ cho_solve((chol, True), c_vec)
    cov = gm.values @ cho_solve((chol, True), gm.values)
    cov = 0.5 * (cov + cov.T)
    return mean, cov


def gaussian_update(stats: ComponentStats, cache: ComponentCache):
    """(mean, cov) of one component's Gaussian-form update from its statistics."""
    u_mat, c_vec = assemble_system(stats, cache.k_points, cache.k_quad)
    return solve_gaussian_update(cache.gm, u_mat, c_vec)


def _profile_objective(
    stats: ComponentStats,
    grid: InducingGrid,
    hp: KernelHyperparams,
    kind: str,
    u_fixed: np.ndarray | None = None,
) -> float:
    """Theta objective for the hyperparameter refresh, coefficients frozen.

    EM (``u_fixed`` required): the expected complete-data objective with the
    inducing values held at their current estimate — linear/quadratic data
    terms in the reprojected f, the RKHS penalty, and the prior normalizer
    -0.5 log|K|. VI: the evidence bound with the Gaussian factor re-optimized
    for the candidate theta, 0.5 c^T (U+K)^{-1} c + 0.5 log|K| - log|U+K|.
    The exact evidence has -0.5 log|U+K|, but with it the every-k-sweeps
    refresh keeps raising phi's theta0 and VI stops meeting its stop rule.
    """
    try:
        gm = gram(grid, hp)
    except SingularMatrixError:
        return -np.inf
    k_points = se_cross(stats.points, grid.points, hp) if stats.points.size else np.empty((0, grid.count))
    k_quad = se_cross(stats.quad.nodes, grid.points, hp)
    if kind == "em":
        if u_fixed is None:
            raise ValueError("the EM theta objective needs the current inducing values")
        alpha = gm.solve(u_fixed)
        f_pts = k_points @ alpha
        f_q = k_quad @ alpha
        w = stats.quad.weights
        value = float(stats.b_point @ f_pts) + float(w @ (stats.b_quad * f_q))
        value -= 0.5 * (float(stats.a_point @ f_pts**2) + float(w @ (stats.a_quad * f_q**2)))
        value -= 0.5 * float(u_fixed @ alpha) + 0.5 * gm.logdet()
        return value if np.isfinite(value) else -np.inf
    u_mat, c_vec = assemble_system(stats, k_points, k_quad)
    system = u_mat + gm.values
    try:
        chol = np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        return -np.inf
    value = 0.5 * float(c_vec @ cho_solve((chol, True), c_vec))
    value += 0.5 * gm.logdet() - 2.0 * float(np.sum(np.log(np.diag(chol))))
    return value


def _compact_stats(stats: ComponentStats, n_bins: int = _SEARCH_BINS) -> ComponentStats:
    """Histogram the Dirac part onto bin centers to speed up the theta search."""
    if stats.points.size <= n_bins:
        return stats
    edges = np.linspace(0.0, stats.domain, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, stats.points, side="right") - 1, 0, n_bins - 1)
    a = np.bincount(idx, weights=stats.a_point, minlength=n_bins)
    b = np.bincount(idx, weights=stats.b_point, minlength=n_bins)
    keep = (a != 0.0) | (b != 0.0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return replace(stats, points=centers[keep], a_point=a[keep], b_point=b[keep])


def search_theta(
    stats: ComponentStats,
    grid: InducingGrid,
    hp: KernelHyperparams,
    kind: str,
    u_fixed: np.ndarray | None = None,
) -> tuple[KernelHyperparams, bool]:
    """Bounded derivative-free refresh of (theta0, theta1) for one component.

    Runs Nelder-Mead in log-theta space on compacted statistics, from the
    incumbent and from theta1 = 1/spacing^2, then checks the exact objective
    at the winner; the incumbent is kept (and the move flagged as rejected)
    unless the exact objective does not decrease.
    """
    compact = _compact_stats(stats)
    lo, hi = np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1])

    def negative(x):
        t0, t1 = np.exp(np.clip(x, lo, hi))
        val = _profile_objective(compact, grid, KernelHyperparams(t0, t1), kind, u_fixed)
        return -val if np.isfinite(val) else 1e300

    best_x, best_val = None, np.inf
    for start in (hp, KernelHyperparams(hp.theta0, 1.0 / grid.spacing**2)):
        x0 = np.log([start.theta0, start.theta1])
        res = minimize(
            negative,
            x0,
            method="Nelder-Mead",
            bounds=[(lo, hi), (lo, hi)],
            options={"maxfev": 200, "xatol": 1e-3, "fatol": 1e-10},
        )
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    t0, t1 = np.exp(np.clip(best_x, lo, hi))
    candidate = KernelHyperparams(float(t0), float(t1))
    j_old = _profile_objective(stats, grid, hp, kind, u_fixed)
    j_new = _profile_objective(stats, grid, candidate, kind, u_fixed)
    if np.isfinite(j_new) and j_new >= j_old - 1e-9 - 1e-12 * abs(j_old):
        return candidate, True
    return hp, False


def auto_theta(config: FitConfig, grid: InducingGrid) -> KernelHyperparams:
    """Initial kernel parameters; theta1 defaults to 1/spacing^2 of the grid."""
    theta1 = config.theta1_init
    if theta1 is None:
        theta1 = 1.0 / grid.spacing**2
    theta1 = float(np.clip(theta1, *THETA_BOUNDS))
    theta0 = float(np.clip(config.theta0_init, *THETA_BOUNDS))
    return KernelHyperparams(theta0, theta1)


def relative_change(new: float, old: float) -> float:
    return abs(new - old) / max(1.0, abs(old))


def run_sweeps(engine, seqs: EventSequence | Sequence[EventSequence], config: FitConfig):
    """Sweep an engine to convergence: the loop of both fit_em and fit_vi.

    Stops when the relative objective change falls below config.tol, or after
    config.max_iter sweeps; theta is re-searched every hyper_refresh_every
    sweeps (0: never). The engine supplies the rest: ``kind``, ``label``,
    ``init``; ``observe`` projects a model state once and returns (what the
    updates need, objective); ``sweep`` returns the updated model and a builder
    of the statistics it used; ``u_fixed`` gives the inducing values the theta
    objective holds fixed; ``set_gaussian`` installs an update re-solved after
    a theta move; ``estimates`` fills the report's rates.
    """
    t_start = time.perf_counter()
    data = build_dataset(seqs, config.T_phi)
    if abs(data.T - config.T) > 1e-9 * max(1.0, config.T):
        raise ValueError(f"config T={config.T} does not match sequence window T={data.T}")
    caches = build_caches(data, config)
    model = engine.init(data, caches, config)
    seen, _ = engine.observe(model, data, caches, config)
    trace: list[float] = []
    hyper_history: list[dict] = []
    warnings: list[str] = []
    converged = False
    for iteration in range(1, config.max_iter + 1):
        model, build_stats = engine.sweep(model, seen, data, caches, config)

        if config.hyper_refresh_every and iteration % config.hyper_refresh_every == 0:
            stats = build_stats()
            record = {"iteration": iteration}
            for name in data.active:
                cache = caches[name]
                u_fixed = engine.u_fixed(model, name)
                hp_new, accepted = search_theta(stats[name], cache.grid, cache.hp, engine.kind, u_fixed)
                if accepted and hp_new != cache.hp:
                    caches[name] = cache = cache.with_hp(hp_new)
                    model = engine.set_gaussian(model, name, *gaussian_update(stats[name], cache), cache, config)
                record[name] = {
                    "theta0": cache.hp.theta0,
                    "theta1": cache.hp.theta1,
                    "accepted": accepted,
                }
                if not accepted:
                    warnings.append(f"hyperparameter search for {name} kept theta at iteration {iteration}")
                for param in ("theta0", "theta1"):
                    value = getattr(cache.hp, param)
                    # the search clips in log space: 1e-3 comes back as 1.0000000000000002e-3
                    for bound in (b for b in THETA_BOUNDS if abs(value - b) <= 1e-9 * b):
                        warnings.append(
                            f"{name} {param} = {value:.6g} sits on its bound {bound:g}"
                            f" after the refresh at iteration {iteration}"
                        )
            hyper_history.append(record)

        seen, objective = engine.observe(model, data, caches, config)
        if not np.isfinite(objective):
            raise FloatingPointError(f"{engine.label} became non-finite at iteration {iteration}")
        trace.append(objective)
        if len(trace) > 1 and relative_change(objective, trace[-2]) < config.tol:
            converged = True
            break

    grids = {name: np.linspace(0.0, data.component(name)[2], config.eval_grid) for name in COMPONENTS}
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
        **engine.estimates(model, grids, config),
    )
