"""Augmented-likelihood EM for the sigmoid-GP Hawkes model (MAP estimates).

Each iteration computes the conditional expectations of the augmentation
(Polya-Gamma variables at events/pairs, latent thinned-point rates on a
quadrature grid, branching responsibilities) at the current point estimates
and then maximizes the expected complete-data objective jointly over the
rate bounds lambda* and the inducing values u of both components, with the
RKHS penalty 0.5 u^T K^{-1} u per component.

Multi-sequence input is treated as i.i.d. replicate windows: Dirac statistics
pool over all sequences, continuous statistics scale with the number of
windows (baseline) or the total event count (trigger).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fitbase import (
    COMPONENTS,
    BranchingPosterior,
    ComponentCache,
    Dataset,
    FitConfig,
    FitReport,
    LatentRate,
    assemble_system,  # noqa: F401  re-export; perfbench's tracing test rebinds it here
    build_caches,  # noqa: F401  re-export
    component_rate,
    component_stats,
    gaussian_update,
    normalize_branching,
    rate_bound_counts,
    run_sweeps,
)
from .kernels import InducingGrid, KernelHyperparams, gram
from .pg import pg_mean, sigmoid
from .process import EventSequence, RateFunctions, log_likelihood
from .quadrature import gauss_legendre


@dataclass(frozen=True)
class SgpComponent:
    """One sigmoid-GP rate component: rate(x) = lambda_star * sigma(f(x))."""

    lambda_star: float
    grid: InducingGrid
    u: np.ndarray
    hp: KernelHyperparams


@dataclass(frozen=True)
class EmModel:
    mu: SgpComponent
    phi: SgpComponent
    T: float
    T_phi: float


@dataclass(frozen=True)
class PgMeans:
    """E[omega] at each observed event (baseline) and admissible pair (trigger)."""

    events: np.ndarray
    pairs: np.ndarray


def component_function(comp: SgpComponent, t_phi: float | None = None):
    """Shape-preserving x -> lambda* sigma(f(x)), zero outside (0, t_phi] if given."""
    return component_rate(comp.grid, comp.hp, comp.u, None, lambda f: comp.lambda_star * sigmoid(f), t_phi)


def model_rates(model: EmModel) -> RateFunctions:
    """Point-estimate rate functions of a fitted EM model."""
    phi = component_function(model.phi, model.T_phi)
    return RateFunctions(mu=component_function(model.mu), phi=phi, T_phi=model.T_phi)


def init_model(data: Dataset, caches: dict[str, ComponentCache]) -> EmModel:
    """Flat start: u = 0 and lambda* sized so mu ~ N/T and int phi ~ 0.5."""
    lam_mu = 2.0 * data.n_events / (data.n_sequences * data.T)
    lam_mu = max(lam_mu, 1e-8)  # keep the intensity positive for empty data
    lam_phi = 1.0 / data.T_phi
    mu = SgpComponent(lam_mu, caches["mu"].grid, np.zeros(caches["mu"].grid.count), caches["mu"].hp)
    phi = SgpComponent(lam_phi, caches["phi"].grid, np.zeros(caches["phi"].grid.count), caches["phi"].hp)
    return EmModel(mu=mu, phi=phi, T=data.T, T_phi=data.T_phi)


def _project(model: EmModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """f at (data points, quadrature nodes) of each component."""
    return {n: caches[n].project_mean(getattr(model, n).u) for n in COMPONENTS}


def _numerators(model: EmModel, proj: dict[str, tuple]) -> tuple[np.ndarray, ...]:
    """lambda* sigma(f) of each component at its data points."""
    return tuple(getattr(model, n).lambda_star * sigmoid(proj[n][0]) for n in COMPONENTS)


def estep_pg(model: EmModel, data: Dataset, caches: dict[str, ComponentCache], proj=None) -> PgMeans:
    """Conditional PG means at the current point estimates."""
    proj = proj or _project(model, caches)
    return PgMeans(events=pg_mean(1.0, proj["mu"][0]), pairs=pg_mean(1.0, proj["phi"][0]))


def estep_latent_rate(comp: SgpComponent, cache: ComponentCache, f_q=None) -> LatentRate:
    """Omega-marginalized rate of the latent thinned process for one component."""
    f_q = cache.project_mean(comp.u)[1] if f_q is None else f_q
    marginal = comp.lambda_star * sigmoid(-f_q)
    first = marginal * pg_mean(1.0, f_q)
    return LatentRate(marginal=marginal, first_moment=first, mass=float(cache.quad.weights @ marginal))


def estep_branching(
    model: EmModel, data: Dataset, caches: dict[str, ComponentCache], proj=None
) -> BranchingPosterior:
    """Responsibilities p(own background) / p(parent j) at current estimates."""
    bg, pair = _numerators(model, proj or _project(model, caches))
    return normalize_branching(bg, pair, data.child, data.n_events)


def _stats(data, caches, pg: PgMeans, lat: dict[str, LatentRate], branching) -> dict:
    return component_stats(data, caches, branching, {"mu": pg.events, "phi": pg.pairs}, lat)


def mstep(
    model: EmModel,
    data: Dataset,
    caches: dict[str, ComponentCache],
    pg: PgMeans,
    lat_mu: LatentRate,
    lat_phi: LatentRate,
    branching: BranchingPosterior,
) -> EmModel:
    """Joint maximizer of the expected augmented objective over (lambda*, u)."""
    lat = {"mu": lat_mu, "phi": lat_phi}
    updated = {}
    for name, stats in _stats(data, caches, pg, lat, branching).items():
        count, exposure = rate_bound_counts(data, name, branching, lat[name].mass)
        u, _ = gaussian_update(stats, caches[name])
        updated[name] = replace(getattr(model, name), lambda_star=max(count / exposure, 1e-300), u=u)
    return replace(model, **updated)


def penalty(comp: SgpComponent, gm=None) -> float:
    """RKHS penalty 0.5 u^T K^{-1} u of one component."""
    gm = gram(comp.grid, comp.hp) if gm is None else gm
    half = gm.half_solve(comp.u)
    return 0.5 * float(half @ half)


def em_objective(model: EmModel, seqs: EventSequence | Sequence[EventSequence], quad_order: int = 50) -> float:
    """Penalized log posterior objective (trigger compensator untruncated).

    Equals the sum over sequences of log_likelihood(..., truncate_trigger=False)
    at the point-estimate rates, minus the RKHS penalties.
    """
    if isinstance(seqs, EventSequence):
        seqs = [seqs]
    rates = model_rates(model)
    quad = gauss_legendre(quad_order, 0.0, model.T)
    total = sum(log_likelihood(s, rates, quad, truncate_trigger=False) for s in seqs)
    return total - penalty(model.mu) - penalty(model.phi)


class _EmEngine:
    """The EM pieces of the shared sweep driver (see fitbase.run_sweeps)."""

    kind, label = "em", "EM objective"

    def init(self, data, caches, config):
        return init_model(data, caches)

    def observe(self, model, data, caches, config):
        """Projections of ``model`` and em_objective evaluated through them."""
        proj = _project(model, caches)
        bg, pair = _numerators(model, proj)
        value = float(np.sum(np.log(bg + np.bincount(data.child, weights=pair, minlength=data.n_events))))
        compensators, penalties = [], []
        for n in COMPONENTS:
            comp = getattr(model, n)
            integral = float(caches[n].quad.weights @ sigmoid(proj[n][1]))
            compensators.append(data.component(n)[1] * (comp.lambda_star * integral))
            penalties.append(penalty(comp, caches[n].gm))
        for term in compensators + penalties:
            value -= term
        return proj, value

    def sweep(self, model, proj, data, caches, config):
        pg = estep_pg(model, data, caches, proj)
        lat = {n: estep_latent_rate(getattr(model, n), caches[n], proj[n][1]) for n in COMPONENTS}
        branching = estep_branching(model, data, caches, proj)
        new = mstep(model, data, caches, pg, lat["mu"], lat["phi"], branching)
        return new, lambda: _stats(data, caches, pg, lat, branching)

    def u_fixed(self, model, name):
        return getattr(model, name).u

    def set_gaussian(self, model, name, mean, cov, cache, config):
        return replace(model, **{name: replace(getattr(model, name), hp=cache.hp, u=mean)})

    def estimates(self, model, grids, config):
        rates = model_rates(model)
        return {f"{n}_hat": np.asarray(getattr(rates, n)(grids[n]), dtype=float) for n in COMPONENTS}


def fit_em(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[EmModel, FitReport]:
    """Run EM to convergence of the penalized objective (see fitbase.run_sweeps)."""
    return run_sweeps(_EmEngine(), seqs, config)
