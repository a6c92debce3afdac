"""Mean-field variational inference for the sigmoid-GP Hawkes model.

The posterior is factorized into Gamma factors for the rate bounds, Gaussian
factors for the inducing values of both GP components, Polya-Gamma factors at
events/pairs, a marked-Poisson factor for the thinned points, and a
multinomial branching factor. One sweep applies the closed-form coordinate
updates in the order: PG tilts, latent-Poisson rates, Gamma, Gaussian,
branching. Every update is a pure function of the *other* factors, so
re-applying any single update is exactly idempotent.

The convergence monitor is a negative variational free energy in which the
PG and latent-Poisson factors are collapsed to their optimal forms (their
entropy terms cancel analytically, leaving the masses and -E[lambda*]*volume);
constant reference-measure offsets are dropped, so the value is useful for
trend/monotonicity only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from .fitbase import (
    COMPONENTS,
    BranchingPosterior,
    ComponentCache,
    Dataset,
    FitConfig,
    FitReport,
    LatentRate,
    assemble_system,  # noqa: F401  re-export; perfbench's tracing test rebinds it here
    component_rate,
    component_stats,
    gaussian_update,
    normalize_branching,
    rate_bound_counts,
    run_sweeps,
)
from .kernels import InducingGrid, KernelHyperparams, gp_projector, gram, se_cross
from .pg import pg_mean
from .process import EventSequence, RateFunctions, trigger_support
from .quadrature import expected_log_sigmoid, expected_sigmoid_moments

_COV_FLOOR = 1e-12  # covariance scale used by the fix_variance debug mode


@dataclass(frozen=True)
class GaussianFactor:
    """q(u) = N(mean, cov) over one component's inducing values."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class GammaFactor:
    """q(lambda*) = Gamma(alpha, beta) with rate parametrization E = alpha/beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha) and self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError(f"Gamma factor parameters must be positive finite, got {self}")

    def mean(self) -> float:
        return self.alpha / self.beta

    def mean_log(self) -> float:
        return float(digamma(self.alpha)) - np.log(self.beta)

    def geometric_mean(self) -> float:
        """exp(E[log lambda*]) — the intensity scale used by the updates."""
        return float(np.exp(self.mean_log()))


@dataclass(frozen=True)
class ViModel:
    gp_mu: GaussianFactor
    gp_phi: GaussianFactor
    lam_mu: GammaFactor
    lam_phi: GammaFactor
    grid_mu: InducingGrid
    grid_phi: InducingGrid
    hp_mu: KernelHyperparams
    hp_phi: KernelHyperparams
    T: float
    T_phi: float


@dataclass(frozen=True)
class PgTilts:
    """Tilt c = sqrt(mean^2 + var) of the PG factors at events and pairs."""

    events: np.ndarray
    pairs: np.ndarray


@dataclass(frozen=True)
class PoissonRates:
    """Optimal thinned-process rates on the quadrature grids (one window/event)."""

    marginal_mu: np.ndarray
    first_mu: np.ndarray
    mass_mu: float
    marginal_phi: np.ndarray
    first_phi: np.ndarray
    mass_phi: float


def _project(model: ViModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """Projected q(f) of each component: (mean, var) at data points, then at quad nodes."""
    factors = {n: getattr(model, f"gp_{n}") for n in COMPONENTS}
    return {n: caches[n].project_meanvar(f.mean, f.cov) for n, f in factors.items()}


def _expected_log_sigmoid(proj: dict[str, tuple], gh_order: int) -> dict[str, np.ndarray]:
    """E[log sigma(f)] at each component's data points."""
    return {n: expected_log_sigmoid(proj[n][0], proj[n][1], gh_order) for n in COMPONENTS}


def _tilt(mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    return np.sqrt(mean * mean + var)


def _gaussian(mean: np.ndarray, cov: np.ndarray, cache: ComponentCache, config: FitConfig) -> GaussianFactor:
    """q(u) = N(mean, cov); fix_variance pins cov near zero."""
    return GaussianFactor(mean, _COV_FLOOR * cache.gm.values if config.fix_variance else cov)


def vi_pg_update(model: ViModel, data: Dataset, caches: dict[str, ComponentCache], proj=None) -> PgTilts:
    proj = proj or _project(model, caches)
    return PgTilts(events=_tilt(*proj["mu"][:2]), pairs=_tilt(*proj["phi"][:2]))


def vi_poisson_update(model: ViModel, caches: dict[str, ComponentCache], proj=None) -> PoissonRates:
    """Optimal thinned-point rates lambda~ sigma(-c) exp((c - mean)/2), c the PG tilt."""
    proj = proj or _project(model, caches)
    fields = {}
    for name in COMPONENTS:
        _, _, mean, var = proj[name]
        tilt = _tilt(mean, var)
        lam_geo = getattr(model, f"lam_{name}").geometric_mean()
        rate = lam_geo * np.exp(0.5 * (tilt - mean) - np.logaddexp(0.0, tilt))
        fields[f"marginal_{name}"] = rate
        fields[f"first_{name}"] = rate * pg_mean(1.0, tilt)
        fields[f"mass_{name}"] = float(caches[name].quad.weights @ rate)
    return PoissonRates(**fields)


def vi_lambda_update(
    branching: BranchingPosterior, rates: PoissonRates, data: Dataset
) -> tuple[GammaFactor, GammaFactor | None]:
    factors = {}
    for name in data.active:
        count, exposure = rate_bound_counts(data, name, branching, getattr(rates, f"mass_{name}"))
        factors[name] = GammaFactor(max(count, 1e-12), exposure)
    return factors.get("mu"), factors.get("phi")


def _stats(data, caches, tilts: PgTilts, branching, rates: PoissonRates) -> dict:
    pg_weight = {n: pg_mean(1.0, t) for n, t in zip(data.active, (tilts.events, tilts.pairs))}
    latent = {}
    for n in COMPONENTS:
        marginal, first, mass = (getattr(rates, f"{key}_{n}") for key in ("marginal", "first", "mass"))
        latent[n] = LatentRate(marginal=marginal, first_moment=first, mass=mass)
    return component_stats(data, caches, branching, pg_weight, latent)


def vi_gp_update(
    tilts: PgTilts,
    branching: BranchingPosterior,
    rates: PoissonRates,
    data: Dataset,
    caches: dict[str, ComponentCache],
) -> tuple[GaussianFactor, GaussianFactor | None]:
    stats = _stats(data, caches, tilts, branching, rates)
    factors = {n: GaussianFactor(*gaussian_update(s, caches[n])) for n, s in stats.items()}
    return factors.get("mu"), factors.get("phi")


def vi_branching_update(
    model: ViModel, data: Dataset, caches: dict[str, ComponentCache], gh_order: int = 30, els=None
) -> BranchingPosterior:
    els = els or _expected_log_sigmoid(_project(model, caches), gh_order)
    bg, pair = (getattr(model, f"lam_{n}").geometric_mean() * np.exp(els[n]) for n in COMPONENTS)
    return normalize_branching(bg, pair, data.child, data.n_events)


def _gaussian_kl(factor: GaussianFactor, gm) -> float:
    """KL(q(u) || N(0, K)) with K the jittered Gram matrix."""
    s = factor.mean.size
    half = gm.half_solve(factor.mean)
    quad_term = float(half @ half)
    trace_term = float(np.trace(gm.solve(factor.cov)))
    sign, logdet_cov = np.linalg.slogdet(factor.cov)
    if sign <= 0:
        raise FloatingPointError("Gaussian factor covariance lost positive definiteness")
    return 0.5 * (quad_term + trace_term - s + gm.logdet() - logdet_cov)


def _gamma_elbo_term(factor: GammaFactor) -> float:
    """E[log p(lambda)] - E[log q] under the improper prior p = 1/lambda."""
    return factor.alpha + float(gammaln(factor.alpha)) - factor.alpha * float(digamma(factor.alpha))


def vi_monitor(
    model: ViModel,
    branching: BranchingPosterior,
    data: Dataset,
    caches: dict[str, ComponentCache],
    gh_order: int = 30,
    els=None,
    rates=None,
) -> float:
    """Negative variational free energy surrogate at the current factors."""
    els = els or _expected_log_sigmoid(_project(model, caches), gh_order)
    rates = rates or vi_poisson_update(model, caches)
    lam = {n: getattr(model, f"lam_{n}") for n in COMPONENTS}
    value = 0.0
    for n in COMPONENTS:
        weights = branching.weights(n)
        value += float(weights @ (lam[n].mean_log() + els[n]))
        value -= float(np.sum(xlogy(weights, weights)))
    for n in COMPONENTS:
        _, scale, domain = data.component(n)
        value += scale * getattr(rates, f"mass_{n}") - lam[n].mean() * scale * domain
    for n in COMPONENTS:
        value -= _gaussian_kl(getattr(model, f"gp_{n}"), caches[n].gm)
    return value + sum(_gamma_elbo_term(lam[n]) for n in COMPONENTS)


def init_vi_model(data: Dataset, caches: dict[str, ComponentCache], config: FitConfig) -> ViModel:
    """Prior Gaussian factors, Gamma factors matching the EM initialization."""
    counts = {"mu": 2.0 * data.n_events, "phi": float(data.n_events)}
    parts = {}
    for name, cache in caches.items():
        _, scale, domain = data.component(name)
        parts[f"gp_{name}"] = _gaussian(np.zeros(cache.grid.count), cache.gm.values, cache, config)
        parts[f"lam_{name}"] = GammaFactor(max(counts[name], 0.5), max(scale, 1) * domain)
        parts[f"grid_{name}"] = cache.grid
        parts[f"hp_{name}"] = cache.hp
    return ViModel(**parts, T=data.T, T_phi=data.T_phi)


def model_rates(model: ViModel, gh_order: int = 30) -> RateFunctions:
    """Posterior-mean rates E[lambda*] E[sigma(f(.))] of a fitted VI model."""

    def rate(name, t_phi=None):
        factor, lam = getattr(model, f"gp_{name}"), getattr(model, f"lam_{name}")

        def link(marginal):
            return lam.mean() * expected_sigmoid_moments(*marginal, gh_order)[0]

        grid, hp = getattr(model, f"grid_{name}"), getattr(model, f"hp_{name}")
        return component_rate(grid, hp, factor.mean, factor.cov, link, t_phi)

    return RateFunctions(mu=rate("mu"), phi=rate("phi", model.T_phi), T_phi=model.T_phi)


def posterior_bands(model: ViModel, grid: np.ndarray, component: str, gh_order: int = 30):
    """(mean, std) of lambda* sigma(f(x)) pointwise under the fitted factors.

    Gamma and Gaussian uncertainties combine multiplicatively:
    var = E[lambda*^2] E[sigma^2] - (E[lambda*] E[sigma])^2.
    """
    grid_c, hp = getattr(model, f"grid_{component}"), getattr(model, f"hp_{component}")
    factor, lam = getattr(model, f"gp_{component}"), getattr(model, f"lam_{component}")
    project = gp_projector(gram(grid_c, hp), factor.mean, factor.cov)
    k = se_cross(np.asarray(grid, dtype=float), grid_c.points, hp)
    s1, s2 = expected_sigmoid_moments(*project(k), gh_order)
    lam_m2 = lam.alpha * (lam.alpha + 1.0) / (lam.beta**2)
    mean = lam.mean() * s1
    var = np.maximum(lam_m2 * s2 - mean * mean, 0.0)
    inside = trigger_support(grid, model.T_phi) if component == "phi" else True
    return np.where(inside, mean, 0.0), np.sqrt(np.where(inside, var, 0.0))


class _ViEngine:
    """The mean-field pieces of the shared sweep driver (see fitbase.run_sweeps)."""

    kind, label = "vi", "VI monitor"

    init = staticmethod(init_vi_model)

    def observe(self, model, data, caches, config):
        proj = _project(model, caches)
        els = _expected_log_sigmoid(proj, config.gh_order)
        branching = vi_branching_update(model, data, caches, els=els)
        rates = vi_poisson_update(model, caches, proj)
        return (proj, branching, rates), vi_monitor(model, branching, data, caches, els=els, rates=rates)

    def sweep(self, model, seen, data, caches, config):
        proj, branching, rates = seen
        tilts = vi_pg_update(model, data, caches, proj)
        lams = vi_lambda_update(branching, rates, data)
        gps = vi_gp_update(tilts, branching, rates, data, caches)
        for name, lam, gp in zip(COMPONENTS, lams, gps):
            if gp is not None:
                model = replace(model, **{f"lam_{name}": lam})
                model = self.set_gaussian(model, name, gp.mean, gp.cov, caches[name], config)
        return model, lambda: _stats(data, caches, tilts, branching, rates)

    def u_fixed(self, model, name):
        return None

    def set_gaussian(self, model, name, mean, cov, cache, config):
        return replace(model, **{f"gp_{name}": _gaussian(mean, cov, cache, config), f"hp_{name}": cache.hp})

    def estimates(self, model, grids, config):
        out = {}
        for name in COMPONENTS:
            out[f"{name}_hat"], out[f"{name}_std"] = posterior_bands(model, grids[name], name, config.gh_order)
        return out


def fit_vi(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[ViModel, FitReport]:
    """Coordinate-ascent sweeps to convergence of the free-energy monitor."""
    return run_sweeps(_ViEngine(), seqs, config)
