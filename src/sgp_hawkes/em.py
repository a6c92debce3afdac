"""Augmented-likelihood EM for the sigmoid-GP Hawkes model (MAP estimates).

Each iteration computes the conditional expectations of the augmentation
(Polya-Gamma variables at events/pairs, latent thinned-point rates on a
quadrature grid, branching responsibilities) at the current point estimates
and then maximizes the expected complete-data objective jointly over the
rate bounds lambda* and the inducing values u of both components, with the
RKHS penalty 0.5 u^T K^{-1} u per component.

This E-step is the only one: ``estep_pg``, ``estep_latent_rate`` and
``estep_branching`` read just each component's link (numerators and PG tilt at
its data points, thinned-point rate and tilt at its quadrature nodes), which
``project`` builds from the point estimate and vi.project from q(f).

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
    component_rate,
    component_stats,
    gaussian_update,
    model_rates,
    normalize_branching,
    rate_bound_counts,
    run_sweeps,
)
from .kernels import InducingGrid, KernelHyperparams, gram
from .pg import pg_mean, sigmoid
from .process import EventSequence


@dataclass(frozen=True)
class SgpComponent:
    """One sigmoid-GP rate component: rate(x) = lambda_star * sigma(f(x))."""

    lambda_star: float
    grid: InducingGrid
    u: np.ndarray
    hp: KernelHyperparams

    def rate(self, t_phi: float | None = None):
        """Shape-preserving x -> lambda* sigma(f(x)), zero outside (0, t_phi] if given."""
        return component_rate(self.grid, self.hp, self.u, None, lambda f: self.lambda_star * sigmoid(f), t_phi)


@dataclass(frozen=True)
class EmModel:
    mu: SgpComponent
    phi: SgpComponent
    T: float
    T_phi: float


def init_model(data: Dataset, caches: dict[str, ComponentCache]) -> EmModel:
    """Flat start: u = 0 and lambda* sized so mu ~ N/T and int phi ~ 0.5."""
    lam_mu = 2.0 * data.n_events / (data.n_sequences * data.T)
    lam_mu = max(lam_mu, 1e-8)  # keep the intensity positive for empty data
    lam_phi = 1.0 / data.T_phi
    mu = SgpComponent(lam_mu, caches["mu"].grid, np.zeros(caches["mu"].grid.count), caches["mu"].hp)
    phi = SgpComponent(lam_phi, caches["phi"].grid, np.zeros(caches["phi"].grid.count), caches["phi"].hp)
    return EmModel(mu=mu, phi=phi, T=data.T, T_phi=data.T_phi)


def project(model: EmModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """The E-step link of each component at the point estimate f: (lambda* sigma(f), f)
    at its data points, then (lambda* sigma(-f), f) at its quadrature nodes."""
    links = {}
    for n in COMPONENTS:
        comp = getattr(model, n)
        f, f_q = caches[n].project_mean(comp.u)
        links[n] = (comp.lambda_star * sigmoid(f), f, comp.lambda_star * sigmoid(-f_q), f_q)
    return links


def estep_pg(links: dict[str, tuple]) -> dict[str, np.ndarray]:
    """PG means E[omega] = tanh(c/2) / (2c) at each component's data points, c the tilt there."""
    return {n: pg_mean(1.0, links[n][1]) for n in COMPONENTS}


def estep_latent_rate(link: tuple, cache: ComponentCache) -> LatentRate:
    """Omega-marginalized rate of one component's latent thinned process on its quadrature grid."""
    _, _, rate, tilt = link
    return LatentRate(marginal=rate, first_moment=rate * pg_mean(1.0, tilt), mass=float(cache.quad.weights @ rate))


def estep_branching(links: dict[str, tuple], data: Dataset) -> BranchingPosterior:
    """Responsibilities p(own background) / p(parent j) from the link numerators."""
    return normalize_branching(links["mu"][0], links["phi"][0], data.child, data.n_events)


def mstep(
    model: EmModel,
    data: Dataset,
    caches: dict[str, ComponentCache],
    pg: dict[str, np.ndarray],
    lat: dict[str, LatentRate],
    branching: BranchingPosterior,
) -> EmModel:
    """Joint maximizer of the expected augmented objective over (lambda*, u)."""
    updated = {}
    for name, stats in component_stats(data, caches, branching, pg, lat).items():
        count, exposure = rate_bound_counts(data, name, branching, lat[name].mass)
        u, _ = gaussian_update(stats, caches[name])
        updated[name] = replace(getattr(model, name), lambda_star=max(count / exposure, 1e-300), u=u)
    return replace(model, **updated)


def penalty(comp: SgpComponent, gm=None) -> float:
    """RKHS penalty 0.5 u^T K^{-1} u of one component."""
    gm = gram(comp.grid, comp.hp) if gm is None else gm
    half = gm.half_solve(comp.u)
    return 0.5 * float(half @ half)


class _EmEngine:
    """The EM pieces of the shared sweep driver (see fitbase.run_sweeps)."""

    kind, label = "em", "EM objective"

    def init(self, data, caches, config):
        return init_model(data, caches)

    def observe(self, model, data, caches, config):
        """The E-step links of ``model`` and, through them, the penalized log posterior
        (untruncated trigger compensator, on the fit's quadrature grids)."""
        links = project(model, caches)
        bg, pair = links["mu"][0], links["phi"][0]
        value = float(np.sum(np.log(bg + np.bincount(data.child, weights=pair, minlength=data.n_events))))
        compensators, penalties = [], []
        for n in COMPONENTS:
            comp = getattr(model, n)
            integral = float(caches[n].quad.weights @ sigmoid(links[n][3]))
            compensators.append(data.component(n)[1] * (comp.lambda_star * integral))
            penalties.append(penalty(comp, caches[n].gm))
        for term in compensators + penalties:
            value -= term
        return links, value

    def sweep(self, model, links, data, caches, config):
        pg = estep_pg(links)
        lat = {n: estep_latent_rate(links[n], caches[n]) for n in COMPONENTS}
        branching = estep_branching(links, data)
        new = mstep(model, data, caches, pg, lat, branching)
        return new, lambda: component_stats(data, caches, branching, pg, lat)

    def gaussian(self, model, name):
        return getattr(model, name).u, None

    def set_gaussian(self, model, name, mean, cov, cache):
        return replace(model, **{name: replace(getattr(model, name), hp=cache.hp, u=mean)})

    def estimates(self, model, grids, config):
        rates = model_rates(model)
        return {f"{n}_hat": np.asarray(getattr(rates, n)(grids[n]), dtype=float) for n in COMPONENTS}


def fit_em(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[EmModel, FitReport]:
    """Run EM to convergence of the penalized objective (see fitbase.run_sweeps)."""
    return run_sweeps(_EmEngine(), seqs, config)
