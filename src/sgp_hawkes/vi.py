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
cov) (``vi_gp_update``) into fitbase's SgpModel, whose components hold q(u)
and q(lambda*) as their (mean, cov) and their GammaFactor; their rates and
posterior bands are fitbase's ``rate_moments``, re-exported here as
``posterior_bands``. Its link, like EM's, is (numerator, tilt) over x, the
numerator exp(E[log lambda*] + bound) with the bound log sigma(c) + (mean - c)/2
on E[log sigma(f)], the Jaakkola-Jordan tangent at its optimal c, so no
quadrature runs in the sweep. The monitor is the PG-augmented evidence lower
bound without its constants: with q(omega) and the marked-Poisson factor at
their optimal forms, their KL terms fold into that bound and into the node
weights r minus E[lambda*]*exposure. Its data term, sum w log numerator minus
the branching entropy sum w log w, is EM's sum_i log normalizer_i
(``BranchingPosterior.log_normalizer``), since each event's responsibilities
sum to 1. Every VI step, the theta refresh included, ascends this one bound.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np
from scipy.special import digamma, gammaln

from .fitbase import (
    COMPONENTS,
    ComponentCache,
    Dataset,
    FitConfig,
    FitReport,
    GammaFactor,
    SgpComponent,
    SgpModel,
    assemble_system,  # noqa: F401  re-export; perfbench's tracing test rebinds it here
    run_sweeps,
)
from .fitbase import rate_moments as posterior_bands  # noqa: F401  re-export; perfbench's layer targets pin it here
from .process import EventSequence
from .quadrature import expected_log_sigmoid  # noqa: F401  re-export; perfbench's layer targets pin it here


def _log_sigmoid_bound(mean: np.ndarray, tilt: np.ndarray) -> np.ndarray:
    """log sigma(c) + (mean - c)/2: the PG bound on E[log sigma(f)] at tilt c >= 0.

    For f ~ N(mean, var) and c = sqrt(mean^2 + var) this is the tightest
    Jaakkola-Jordan tangent, and log sigma(mean) at var = 0.
    """
    return 0.5 * (mean - tilt) - np.log1p(np.exp(-tilt))


def project(model: SgpModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """The E-step link of each component's q over its point set x at its PG tilts
    c = sqrt(mean^2 + var): (exp(E[log lambda*] + bound(+-mean, c)), c), + at its data points
    and - at its quadrature nodes, with ``bound`` the bound on E[log sigma]."""
    links = {}
    for name in COMPONENTS:
        comp, cache = getattr(model, name), caches[name]
        mean, var = cache.project_meanvar(comp.mean, comp.cov)
        tilt = np.sqrt(mean * mean + var)
        bound = _log_sigmoid_bound(cache.sign * mean, tilt)
        bound += comp.lambda_star.mean_log()
        links[name] = (np.exp(bound, out=bound), tilt)
    return links


def vi_gp_update(model: SgpModel, name: str, hp, count, exposure, mean, cov) -> SgpModel:
    """VI's install of one component's M-step update at kernel parameters ``hp``:
    q(lambda*) = Gamma(max(count, 1e-12), exposure) and q(u) = N(mean, cov)."""
    lam = GammaFactor(max(count, 1e-12), exposure)
    return replace(model, **{name: replace(getattr(model, name), lambda_star=lam, mean=mean, cov=cov, hp=hp)})


def _gaussian_kl(comp: SgpComponent, gm) -> float:
    """KL(q(u) || N(0, K)) of one component's q(u) = N(mean, cov), with K the jittered Gram matrix."""
    s = comp.mean.size
    half = gm.half_solve(comp.mean)
    quad_term = float(half @ half)
    trace_term = float(np.trace(gm.solve(comp.cov)))
    sign, logdet_cov = np.linalg.slogdet(comp.cov)
    if sign <= 0:
        raise FloatingPointError("Gaussian factor covariance lost positive definiteness")
    return 0.5 * (quad_term + trace_term - s + gm.logdet() - logdet_cov)


def _gamma_elbo_term(factor: GammaFactor) -> float:
    """E[log p(lambda)] - E[log q] under the improper prior p = 1/lambda."""
    return factor.alpha + float(gammaln(factor.alpha)) - factor.alpha * float(digamma(factor.alpha))


def vi_monitor(model: SgpModel, links: dict[str, tuple], expectations, caches) -> float:
    """PG-augmented evidence lower bound at the current factors, without its constants, from the
    (weights r, responsibilities) of the E-step at their ``project`` links (``fitbase.estep``): the data
    points add the responsibilities' ``log_normalizer``, the thinned points their weights r at the nodes
    minus E[lambda*] times the exposure."""
    r, branching = expectations
    value = branching.log_normalizer()
    for n in COMPONENTS:
        comp, cache = getattr(model, n), caches[n]
        value += float(np.sum(r[n][cache.points.size:])) - comp.lambda_star.mean() * cache.exposure
        value += _gamma_elbo_term(comp.lambda_star) - _gaussian_kl(comp, cache.gm)
    return value


def init_vi_model(data: Dataset, caches: dict[str, ComponentCache]) -> SgpModel:
    """Prior Gaussian factors, Gamma factors matching the EM initialization."""
    counts = {"mu": 2.0 * data.n_events, "phi": float(data.n_events)}
    comps = {}
    for name, cache in caches.items():
        _, scale, domain = data.component(name)
        lam = GammaFactor(max(counts[name], 0.5), max(scale, 1) * domain)
        comps[name] = SgpComponent(cache.grid, cache.hp, np.zeros(cache.grid.count), cache.gm.values, lam)
    return SgpModel(**comps, T=data.T, T_phi=data.T_phi)


class _ViEngine:
    """VI's hooks of the shared sweep (see fitbase.run_sweeps)."""

    kind, label = "vi", "VI monitor"
    init = staticmethod(init_vi_model)
    project = staticmethod(project)
    objective = staticmethod(vi_monitor)

    def install(self, model, name, hp, count, exposure, mean, cov):
        """``vi_gp_update`` at cov(), looked up per call so that its rebinding (perfbench's tracing) applies."""
        return vi_gp_update(model, name, hp, count, exposure, mean, cov())


def fit_vi(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[SgpModel, FitReport]:
    """Coordinate-ascent sweeps to convergence of the free-energy monitor."""
    return run_sweeps(_ViEngine(), seqs, config)
