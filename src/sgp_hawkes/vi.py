"""Mean-field variational inference for the sigmoid-GP Hawkes model.

The posterior is factorized into Gamma factors for the rate bounds, Gaussian
factors for the inducing values of both GP components, Polya-Gamma factors at
events/pairs, a marked-Poisson factor for the thinned points, and a
multinomial branching factor. One sweep applies the closed-form coordinate
updates in the order: PG tilts, latent-Poisson rates, Gamma, Gaussian,
branching. Every update is a pure function of the *other* factors, so
re-applying any single update is exactly idempotent.

The sweep is fitbase.run_sweeps, shared with EM: its one E-step gives the PG,
latent-Poisson and branching updates, its one M-step the Gamma counts and the
Gaussian update. VI supplies its link (``project``: q(f) projected once per
sweep, with its PG tilts c = sqrt(mean^2 + var)), its monitor and the install
of an M-step update as q(lambda*) = Gamma(count, exposure) and q(u) = N(mean,
cov) (``vi_gp_update``). The link and the monitor use the bound
log sigma(c) + (mean - c)/2 on E[log sigma(f)], the Jaakkola-Jordan tangent at
its optimal c, so no quadrature runs in the sweep. The monitor is the
PG-augmented evidence lower bound without its constants: with q(omega) and the
marked-Poisson factor at their optimal forms, their KL terms fold into that
bound and into the node weights r minus E[lambda*]*exposure. Every VI step,
the theta refresh included, ascends this one bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import digamma, gammaln, xlogy

from .fitbase import (
    COMPONENTS,
    ComponentCache,
    Dataset,
    FitConfig,
    FitReport,
    assemble_system,  # noqa: F401  re-export; perfbench's tracing test rebinds it here
    component_rate,
    run_sweeps,
)
from .kernels import InducingGrid, KernelHyperparams, gp_projector, gram, se_cross
from .process import EventSequence, trigger_support
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


@dataclass(frozen=True)
class ViComponent:
    """The variational factors of one component: rate(x) = lambda* sigma(f(x))."""

    gp: GaussianFactor
    lam: GammaFactor
    grid: InducingGrid
    hp: KernelHyperparams

    def rate(self, t_phi: float | None = None):
        """Shape-preserving x -> E[lambda*] E[sigma(f(x))], zero outside (0, t_phi] if given."""

        def link(marginal):
            mean, var = marginal
            return self.lam.mean() * expected_sigmoid_moments(mean, var, hermite_order(var))[0]

        return component_rate(self.grid, self.hp, self.gp.mean, self.gp.cov, link, t_phi)


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


def project(model: ViModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """The E-step link of each component's q over its point set x at its PG tilts
    c = sqrt(mean^2 + var): (lambda~ e^{bound(+-mean, c)}, c), + at its data points and -
    at its quadrature nodes, with lambda~ = exp E[log lambda*] and ``bound`` the bound on
    E[log sigma]; last, that bound at the data points, which the monitor reads."""
    links = {}
    for name in COMPONENTS:
        comp, cache = getattr(model, name), caches[name]
        mean, var = cache.project_meanvar(comp.gp.mean, comp.gp.cov)
        tilt = np.sqrt(mean * mean + var)
        bound = _log_sigmoid_bound(cache.sign * mean, tilt)
        links[name] = (np.exp(comp.lam.mean_log()) * np.exp(bound), tilt, bound[:cache.points.size])
    return links


def vi_gp_update(model: ViModel, name: str, hp: KernelHyperparams, count, exposure, mean, cov) -> ViModel:
    """VI's install of one component's M-step update at kernel parameters ``hp``:
    q(lambda*) = Gamma(max(count, 1e-12), exposure) and q(u) = N(mean, cov)."""
    lam, gp = GammaFactor(max(count, 1e-12), exposure), GaussianFactor(mean, cov)
    return replace(model, **{name: replace(getattr(model, name), lam=lam, gp=gp, hp=hp)})


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


def vi_monitor(model: ViModel, links: dict[str, tuple], expectations, caches) -> float:
    """PG-augmented evidence lower bound at the current factors, without its constants, from their
    ``project`` links and the (weights r, responsibilities) of an E-step (``fitbase.estep``): the
    thinned points add their weights r at the nodes minus E[lambda*] times the exposure."""
    r, branching = expectations
    comps = {n: getattr(model, n) for n in COMPONENTS}
    value = 0.0
    for n in COMPONENTS:
        weights = branching.weights(n)
        value += float(np.einsum("p,p->", weights, comps[n].lam.mean_log() + links[n][2]))
        value -= float(np.sum(xlogy(weights, weights)))
    for n in COMPONENTS:
        value += float(np.sum(r[n][caches[n].points.size:])) - comps[n].lam.mean() * caches[n].exposure
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


def posterior_bands(model: ViModel, grid: np.ndarray, component: str):
    """(mean, std) of lambda* sigma(f(x)) pointwise under the fitted factors.

    Gamma and Gaussian uncertainties combine multiplicatively:
    var = E[lambda*^2] E[sigma^2] - (E[lambda*] E[sigma])^2.
    """
    comp = getattr(model, component)
    lam = comp.lam
    at = gp_projector(gram(comp.grid, comp.hp), comp.gp.mean, comp.gp.cov)
    k = se_cross(np.asarray(grid, dtype=float), comp.grid.points, comp.hp)
    mean_f, var_f = at(k)
    s1, s2 = expected_sigmoid_moments(mean_f, var_f, hermite_order(var_f))
    lam_m2 = lam.alpha * (lam.alpha + 1.0) / (lam.beta**2)
    mean = lam.mean() * s1
    var = np.maximum(lam_m2 * s2 - mean * mean, 0.0)
    inside = trigger_support(grid, model.T_phi) if component == "phi" else True
    return np.where(inside, mean, 0.0), np.sqrt(np.where(inside, var, 0.0))


class _ViEngine:
    """VI's hooks of the shared sweep (see fitbase.run_sweeps)."""

    kind, label = "vi", "VI monitor"
    init = staticmethod(init_vi_model)
    project = staticmethod(project)
    objective = staticmethod(vi_monitor)

    def install(self, model, name, hp, count, exposure, mean, cov):
        """``vi_gp_update`` at cov(), looked up per call so that its rebinding (perfbench's tracing) applies."""
        return vi_gp_update(model, name, hp, count, exposure, mean, cov())

    def gaussian(self, model, name):
        gp = getattr(model, name).gp
        return gp.mean, gp.cov

    def estimates(self, model, grids):
        out = {}
        for name in COMPONENTS:
            out[f"{name}_hat"], out[f"{name}_std"] = posterior_bands(model, grids[name], name)
        return out


def fit_vi(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[ViModel, FitReport]:
    """Coordinate-ascent sweeps to convergence of the free-energy monitor."""
    return run_sweeps(_ViEngine(), seqs, config)
