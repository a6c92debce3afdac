"""Shared plumbing and the one sweep of the EM and variational engines.

Both engines consume the same sufficient-statistic shapes: Dirac weights at
event locations (baseline component) or pairwise lags (trigger component),
plus weighted rate densities on a fixed quadrature grid. ``run_sweeps`` runs
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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize_scalar

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
from .pg import pg_mean
from .process import EventSequence, RateFunctions, admissible_pairs, trigger_support
from .quadrature import QuadratureGrid, gauss_legendre

_SEARCH_BINS = 2048
_COARSE_THETA1 = 15  # log-spaced theta1 values of the theta search's bracketing grid
COMPONENTS = ("mu", "phi")
_INT_MINIMUMS = {  # smallest accepted value of each integer FitConfig field
    "S_mu": 2, "S_phi": 2, "quad_order_T": 1, "quad_order_Tphi": 1,
    "max_iter": 1, "hyper_refresh_every": 0, "eval_grid": 2,
}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    eval_grid: int = 200

    def __post_init__(self):
        for key, low in _INT_MINIMUMS.items():
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
        if not (_is_real(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be a number >= 0, got {self.tol!r}")
        for key in ("T", "T_phi", "theta0_init", "theta1_init"):
            value = getattr(self, key)
            if key == "theta1_init" and value is None:
                continue
            if not (_is_real(value) and 0 < value < np.inf):
                raise ValueError(f"{key} must be a positive finite number, got {value!r}")


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

    ``parent[k]`` is the responsibility of admissible pair k (lag in
    (0, T_phi]), so storage is O(number of admissible pairs).
    """

    background: np.ndarray
    parent: np.ndarray

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


def model_rates(model) -> RateFunctions:
    """Rate functions of a fitted EM or VI model, each component through its own ``rate``."""
    return RateFunctions(mu=model.mu.rate(), phi=model.phi.rate(model.T_phi), T_phi=model.T_phi)


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


def estep_pg(links: dict[str, tuple]) -> dict[str, np.ndarray]:
    """PG means E[omega] = tanh(c/2) / (2c) at each component's data points, c the tilt there."""
    return {n: pg_mean(1.0, links[n][1]) for n in COMPONENTS}


def estep_latent_rate(link: tuple, cache: ComponentCache) -> LatentRate:
    """Omega-marginalized rate of one component's latent thinned process on its quadrature grid."""
    rate, tilt = link[2], link[3]
    return LatentRate(marginal=rate, first_moment=rate * pg_mean(1.0, tilt), mass=float(cache.quad.weights @ rate))


def estep_branching(links: dict[str, tuple], data: Dataset) -> BranchingPosterior:
    """Responsibilities p(own background) / p(parent j) from the link numerators."""
    return normalize_branching(links["mu"][0], links["phi"][0], data.child, data.n_events)


def estep(links: dict[str, tuple], data: Dataset, caches: dict[str, ComponentCache]):
    """The one E-step of both engines: (PG means, thinned-point rates, responsibilities)
    from each component's link, which starts (branching numerator, PG tilt) at its
    data points and (thinned-point rate, PG tilt) at its quadrature nodes."""
    latent = {n: estep_latent_rate(links[n], caches[n]) for n in COMPONENTS}
    return estep_pg(links), latent, estep_branching(links, data)


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


def mstep(data: Dataset, caches, pg, latent, branching) -> dict[str, tuple]:
    """The one M-step of both engines, from the E-step's (pg, latent, branching):
    for each active component, (statistics, count, exposure, mean, cov) with
    (count, exposure) of its lambda* update and (mean, cov) of its Gaussian update."""
    updates = {}
    for name, stats in component_stats(data, caches, branching, pg, latent).items():
        count, exposure = rate_bound_counts(data, name, branching, latent[name].mass)
        updates[name] = (stats, count, exposure, *gaussian_update(stats, caches[name]))
    return updates


def _kernel_rows(stats: ComponentStats, grid: InducingGrid, hp: KernelHyperparams):
    """Kernel rows at the statistics' data points and quadrature nodes."""
    k_points = se_cross(stats.points, grid.points, hp) if stats.points.size else np.empty((0, grid.count))
    return k_points, se_cross(stats.quad.nodes, grid.points, hp)


def _theta_terms(stats: ComponentStats, grid: InducingGrid, theta1: float, fixed: tuple):
    """(D, q, log|K1|) of the theta objective at (1, theta1), holding the
    Gaussian factor ``fixed`` = (mean, cov) of the inducing values (cov None:
    EM's point mass at u = mean).

    The objective is E[sum b f - 0.5 a f^2] - KL(q(u) || N(0, K)) up to terms
    free of theta. K = theta0 K1 exactly, jitter included, so the projected
    moments of f and the data terms D do not depend on theta0, and the
    objective at any theta0 is D - 0.5 q / theta0 - 0.5 (log|K1| + S log theta0)
    with q = m^T K1^{-1} m + tr(K1^{-1} cov) (``_theta_profile``).
    Raises SingularMatrixError.
    """
    mean, cov = fixed
    hp = KernelHyperparams(1.0, theta1)
    gm = gram(grid, hp)
    k_points, k_quad = _kernel_rows(stats, grid, hp)
    alpha = gm.solve(mean)
    f_pts = k_points @ alpha
    f_q = k_quad @ alpha
    sq_pts, sq_q, q = f_pts**2, f_q**2, float(mean @ alpha)
    if cov is not None:
        project = gp_projector(gm, mean, cov)
        sq_pts = sq_pts + project(k_points)[1]
        sq_q = sq_q + project(k_quad)[1]
        q += float(np.trace(gm.solve(cov)))
    w = stats.quad.weights
    data = float(stats.b_point @ f_pts) + float(w @ (stats.b_quad * f_q))
    data -= 0.5 * (float(stats.a_point @ sq_pts) + float(w @ (stats.a_quad * sq_q)))
    return data, q, gm.logdet()


def _theta_profile(stats: ComponentStats, grid: InducingGrid, theta1: float, fixed, theta0: float | None = None):
    """(theta0, objective at (theta0, theta1)). Without ``theta0``, its
    maximizer in THETA_BOUNDS: the theta0 term -0.5 q / theta0 - 0.5 S log theta0
    is concave in log theta0 and peaks at q / S. The value is -inf where the
    Gram matrix does not factor."""
    try:
        data, q, logdet = _theta_terms(stats, grid, theta1, fixed)
    except SingularMatrixError:
        return theta0, -np.inf
    if theta0 is None:
        theta0 = float(np.clip(q / grid.count, *THETA_BOUNDS))
    value = data - 0.5 * q / theta0 - 0.5 * (logdet + grid.count * np.log(theta0))
    return theta0, value if np.isfinite(value) else -np.inf


def _profile_objective(stats: ComponentStats, grid: InducingGrid, hp: KernelHyperparams, fixed) -> float:
    """Theta objective of the refresh at ``hp`` (``_theta_terms``)."""
    return _theta_profile(stats, grid, hp.theta1, fixed, hp.theta0)[1]


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
    stats: ComponentStats, grid: InducingGrid, hp: KernelHyperparams, fixed: tuple
) -> tuple[KernelHyperparams, bool]:
    """Bounded refresh of (theta0, theta1) for one component, holding the
    Gaussian factor ``fixed`` = (mean, cov) of its inducing values (cov None
    for EM's point estimate).

    theta0 is the closed-form maximizer clip(q / S) at every theta1 (see
    ``_theta_terms``), so the search is over log theta1 alone: the best of a
    coarse log grid over THETA_BOUNDS plus the incumbent and 1/spacing^2,
    refined by bounded Brent in its bracket to 1e-3. It runs on compacted
    statistics, then checks the exact objective at the winner; the incumbent
    is kept (and the move flagged as rejected) unless the exact objective
    does not decrease.
    """
    compact = _compact_stats(stats)
    lo, hi = np.log(THETA_BOUNDS[0]), np.log(THETA_BOUNDS[1])
    best_value, candidate = -np.inf, hp

    def negative(x):
        nonlocal best_value, candidate
        theta1 = float(np.exp(x))
        theta0, value = _theta_profile(compact, grid, theta1, fixed)
        if value > best_value:
            best_value, candidate = value, KernelHyperparams(theta0, theta1)
        return -value if np.isfinite(value) else 1e300

    starts = np.clip(np.log([hp.theta1, 1.0 / grid.spacing**2]), lo, hi)
    xs = np.unique(np.concatenate([np.linspace(lo, hi, _COARSE_THETA1), starts]))
    i = int(np.argmin([negative(x) for x in xs]))
    bracket = (xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)])
    minimize_scalar(negative, bounds=bracket, method="bounded", options={"xatol": 1e-3})
    j_old = _profile_objective(stats, grid, hp, fixed)
    j_new = _profile_objective(stats, grid, candidate, fixed)
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
    """Sweep an engine to convergence: the one sweep of both fit_em and fit_vi.

    Each sweep runs the M-step from the E-step of the current model, installs
    each component's update, refreshes theta every hyper_refresh_every sweeps
    (0: never) and projects the new model once, for its E-step and objective.
    It stops when the relative objective change falls below config.tol, or
    after config.max_iter sweeps. The engine supplies ``kind``, ``label`` and
    six hooks: ``init(data, caches)``; ``project(model, caches)``, the link of
    each component (see ``estep``); ``objective(model, links, expectations,
    data, caches)``, with ``expectations`` the E-step at those links;
    ``install(model, name, hp, count, exposure, mean, cov)``, which puts one
    component's M-step update into the model; ``gaussian(model, name)``, the
    factor (mean, cov) of the inducing values that the theta search holds
    fixed (cov None for EM's point estimate); and ``estimates(model, grids)``,
    the report's rates.
    """
    t_start = time.perf_counter()
    data = build_dataset(seqs, config.T_phi)
    if abs(data.T - config.T) > 1e-9 * max(1.0, config.T):
        raise ValueError(f"config T={config.T} does not match sequence window T={data.T}")
    caches = build_caches(data, config)
    model = engine.init(data, caches)
    expectations = estep(engine.project(model, caches), data, caches)
    trace: list[float] = []
    hyper_history: list[dict] = []
    warnings: list[str] = []
    converged = False
    for iteration in range(1, config.max_iter + 1):
        updates = mstep(data, caches, *expectations)
        for name, (_, *update) in updates.items():
            model = engine.install(model, name, caches[name].hp, *update)

        if config.hyper_refresh_every and iteration % config.hyper_refresh_every == 0:
            record = {"iteration": iteration}
            for name, (stats, count, exposure, _, _) in updates.items():
                cache = caches[name]
                hp_new, accepted = search_theta(stats, cache.grid, cache.hp, engine.gaussian(model, name))
                if accepted and hp_new != cache.hp:
                    caches[name] = cache = cache.with_hp(hp_new)
                    model = engine.install(model, name, cache.hp, count, exposure, *gaussian_update(stats, cache))
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

        links = engine.project(model, caches)
        expectations = estep(links, data, caches)
        objective = engine.objective(model, links, expectations, data, caches)
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
        **engine.estimates(model, grids),
    )
