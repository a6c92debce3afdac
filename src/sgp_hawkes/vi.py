"""Mean-field variational inference for the sigmoid-GP Hawkes model.

The posterior is factorized into Gamma factors for the rate bounds, Gaussian
factors for the inducing values of both GP components, Polya-Gamma factors at
events/pairs, a marked-Poisson factor for the thinned points, and a
multinomial branching factor. One sweep applies the closed-form coordinate
updates in the order: PG tilts, latent-Poisson rates, Gamma, Gaussian,
branching. Every update is a pure function of the *other* factors, so
re-applying any single update is exactly idempotent.

Each sweep projects q(f) once, with its PG tilts c = sqrt(mean^2 + var). The
branching update and the monitor read the bound log sigma(c) + (mean - c)/2 on
E[log sigma(f)], the Jaakkola-Jordan tangent at its optimal c, so no quadrature
runs in the sweep. The monitor is the PG-augmented evidence lower bound without
its constants: with q(omega) and the marked-Poisson factor at their optimal
forms, their KL terms fold into that bound and into the thinned-point masses
minus E[lambda*]*volume. Every VI step, the theta refresh included, ascends
this one bound.
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
from .quadrature import expected_log_sigmoid  # noqa: F401  re-export; perfbench's layer targets pin it here
from .quadrature import expected_sigmoid_moments, hermite_order


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
class ViComponent:
    """The variational factors of one component: rate(x) = lambda* sigma(f(x))."""

    gp: GaussianFactor
    lam: GammaFactor
    grid: InducingGrid
    hp: KernelHyperparams


@dataclass(frozen=True)
class ViModel:
    mu: ViComponent
    phi: ViComponent
    T: float
    T_phi: float


def _log_sigmoid_bound(mean: np.ndarray, tilt: np.ndarray) -> np.ndarray:
    """log sigma(c) + (mean - c)/2: the PG bound on E[log sigma(f)] at tilt c >= 0.

    For f ~ N(mean, var) and c = sqrt(mean^2 + var) this is the tightest
    Jaakkola-Jordan tangent, and log sigma(mean) at var = 0.
    """
    return 0.5 * (mean - tilt) - np.log1p(np.exp(-tilt))


def _project(model: ViModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """Projected q(f) of each component, through its PG tilts c = sqrt(mean^2 + var):
    (bound on E[log sigma(f)], c) at data points, then (bound on E[log sigma(-f)], c) at quad nodes."""
    proj = {}
    for name in COMPONENTS:
        gp = getattr(model, name).gp
        mean, var, mean_q, var_q = caches[name].project_meanvar(gp.mean, gp.cov)
        tilt, tilt_q = np.sqrt(mean * mean + var), np.sqrt(mean_q * mean_q + var_q)
        proj[name] = (_log_sigmoid_bound(mean, tilt), tilt, _log_sigmoid_bound(-mean_q, tilt_q), tilt_q)
    return proj


def vi_pg_update(
    model: ViModel, data: Dataset, caches: dict[str, ComponentCache], proj=None
) -> dict[str, np.ndarray]:
    """Tilt c = sqrt(mean^2 + var) of the PG factors at each component's data points."""
    proj = proj or _project(model, caches)
    return {n: proj[n][1] for n in COMPONENTS}


def vi_poisson_update(model: ViModel, caches: dict[str, ComponentCache], proj=None) -> dict[str, LatentRate]:
    """Optimal thinned-point rates lambda~ sigma(-c) exp((c - mean)/2), c the PG tilt."""
    proj = proj or _project(model, caches)
    rates = {}
    for name in COMPONENTS:
        _, _, thin_bound, tilt = proj[name]
        rate = getattr(model, name).lam.geometric_mean() * np.exp(thin_bound)
        mass = float(caches[name].quad.weights @ rate)
        rates[name] = LatentRate(marginal=rate, first_moment=rate * pg_mean(1.0, tilt), mass=mass)
    return rates


def vi_lambda_update(
    branching: BranchingPosterior, rates: dict[str, LatentRate], data: Dataset
) -> dict[str, GammaFactor]:
    factors = {}
    for name in data.active:
        count, exposure = rate_bound_counts(data, name, branching, rates[name].mass)
        factors[name] = GammaFactor(max(count, 1e-12), exposure)
    return factors


def _stats(data, caches, tilts: dict[str, np.ndarray], branching, rates: dict[str, LatentRate]) -> dict:
    pg_weight = {n: pg_mean(1.0, tilts[n]) for n in data.active}
    return component_stats(data, caches, branching, pg_weight, rates)


def vi_gp_update(
    tilts: dict[str, np.ndarray],
    branching: BranchingPosterior,
    rates: dict[str, LatentRate],
    data: Dataset,
    caches: dict[str, ComponentCache],
) -> dict[str, GaussianFactor]:
    stats = _stats(data, caches, tilts, branching, rates)
    return {n: GaussianFactor(*gaussian_update(s, caches[n])) for n, s in stats.items()}


def vi_branching_update(
    model: ViModel, data: Dataset, caches: dict[str, ComponentCache], proj=None
) -> BranchingPosterior:
    proj = proj or _project(model, caches)
    bg, pair = (getattr(model, n).lam.geometric_mean() * np.exp(proj[n][0]) for n in COMPONENTS)
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
    model: ViModel, branching: BranchingPosterior, data: Dataset, caches: dict[str, ComponentCache], proj=None, rates=None
) -> float:
    """PG-augmented evidence lower bound at the current factors, without its constants."""
    proj = proj or _project(model, caches)
    rates = rates or vi_poisson_update(model, caches, proj)
    comps = {n: getattr(model, n) for n in COMPONENTS}
    value = 0.0
    for n in COMPONENTS:
        weights = branching.weights(n)
        value += float(weights @ (comps[n].lam.mean_log() + proj[n][0]))
        value -= float(np.sum(xlogy(weights, weights)))
    for n in COMPONENTS:
        _, scale, domain = data.component(n)
        value += scale * rates[n].mass - comps[n].lam.mean() * scale * domain
    for n in COMPONENTS:
        value -= _gaussian_kl(comps[n].gp, caches[n].gm)
    return value + sum(_gamma_elbo_term(comps[n].lam) for n in COMPONENTS)


def init_vi_model(data: Dataset, caches: dict[str, ComponentCache]) -> ViModel:
    """Prior Gaussian factors, Gamma factors matching the EM initialization."""
    counts = {"mu": 2.0 * data.n_events, "phi": float(data.n_events)}
    comps = {}
    for name, cache in caches.items():
        _, scale, domain = data.component(name)
        gp = GaussianFactor(np.zeros(cache.grid.count), cache.gm.values)
        lam = GammaFactor(max(counts[name], 0.5), max(scale, 1) * domain)
        comps[name] = ViComponent(gp=gp, lam=lam, grid=cache.grid, hp=cache.hp)
    return ViModel(**comps, T=data.T, T_phi=data.T_phi)


def component_function(comp: ViComponent, t_phi: float | None = None):
    """Shape-preserving x -> E[lambda*] E[sigma(f(x))], zero outside (0, t_phi] if given."""

    def link(marginal):
        mean, var = marginal
        return comp.lam.mean() * expected_sigmoid_moments(mean, var, hermite_order(var))[0]

    return component_rate(comp.grid, comp.hp, comp.gp.mean, comp.gp.cov, link, t_phi)


def model_rates(model: ViModel) -> RateFunctions:
    """Posterior-mean rates E[lambda*] E[sigma(f(.))] of a fitted VI model."""
    phi = component_function(model.phi, model.T_phi)
    return RateFunctions(mu=component_function(model.mu), phi=phi, T_phi=model.T_phi)


def posterior_bands(model: ViModel, grid: np.ndarray, component: str):
    """(mean, std) of lambda* sigma(f(x)) pointwise under the fitted factors.

    Gamma and Gaussian uncertainties combine multiplicatively:
    var = E[lambda*^2] E[sigma^2] - (E[lambda*] E[sigma])^2.
    """
    comp = getattr(model, component)
    lam = comp.lam
    project = gp_projector(gram(comp.grid, comp.hp), comp.gp.mean, comp.gp.cov)
    k = se_cross(np.asarray(grid, dtype=float), comp.grid.points, comp.hp)
    mean_f, var_f = project(k)
    s1, s2 = expected_sigmoid_moments(mean_f, var_f, hermite_order(var_f))
    lam_m2 = lam.alpha * (lam.alpha + 1.0) / (lam.beta**2)
    mean = lam.mean() * s1
    var = np.maximum(lam_m2 * s2 - mean * mean, 0.0)
    inside = trigger_support(grid, model.T_phi) if component == "phi" else True
    return np.where(inside, mean, 0.0), np.sqrt(np.where(inside, var, 0.0))


class _ViEngine:
    """The mean-field pieces of the shared sweep driver (see fitbase.run_sweeps)."""

    kind, label = "vi", "VI monitor"

    def init(self, data, caches, config):
        return init_vi_model(data, caches)

    def observe(self, model, data, caches, config):
        proj = _project(model, caches)
        branching = vi_branching_update(model, data, caches, proj)
        rates = vi_poisson_update(model, caches, proj)
        return (proj, branching, rates), vi_monitor(model, branching, data, caches, proj, rates)

    def sweep(self, model, seen, data, caches, config):
        proj, branching, rates = seen
        tilts = vi_pg_update(model, data, caches, proj)
        lams = vi_lambda_update(branching, rates, data)
        for name, gp in vi_gp_update(tilts, branching, rates, data, caches).items():
            model = replace(model, **{name: replace(getattr(model, name), lam=lams[name])})
            model = self.set_gaussian(model, name, gp.mean, gp.cov, caches[name])
        return model, lambda: _stats(data, caches, tilts, branching, rates)

    def gaussian(self, model, name):
        gp = getattr(model, name).gp
        return gp.mean, gp.cov

    def set_gaussian(self, model, name, mean, cov, cache):
        comp = replace(getattr(model, name), gp=GaussianFactor(mean, cov), hp=cache.hp)
        return replace(model, **{name: comp})

    def estimates(self, model, grids, config):
        out = {}
        for name in COMPONENTS:
            out[f"{name}_hat"], out[f"{name}_std"] = posterior_bands(model, grids[name], name)
        return out


def fit_vi(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[ViModel, FitReport]:
    """Coordinate-ascent sweeps to convergence of the free-energy monitor."""
    return run_sweeps(_ViEngine(), seqs, config)
