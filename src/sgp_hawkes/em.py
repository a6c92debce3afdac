"""Augmented-likelihood EM for the sigmoid-GP Hawkes model (MAP estimates).

Each iteration computes the conditional expectations of the augmentation
(Polya-Gamma variables at events/pairs, latent thinned-point rates on a
quadrature grid, branching responsibilities) at the current point estimates
and then maximizes the expected complete-data objective jointly over the
rate bounds lambda* and the inducing values u of both components, with the
RKHS penalty 0.5 u^T K^{-1} u per component.

The sweep is fitbase.run_sweeps, shared with VI. EM supplies its link
(``project``, from the point estimate), its penalized log posterior and the
install of an M-step update: lambda* = count / exposure and u = mean, the
point maximizer. The E-step and M-step functions named here (``estep_pg``,
``estep_latent_rate``, ``estep_branching``, ``mstep``) are fitbase's, re-exported.

Multi-sequence input is treated as i.i.d. replicate windows: Dirac statistics
pool over all sequences, and the quadrature node weights carry the number of
windows (baseline) or the total event count (trigger).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .fitbase import (
    COMPONENTS,
    ComponentCache,
    Dataset,
    FitConfig,
    FitReport,
    component_rate,
    model_rates,
    run_sweeps,
)
# re-exports: perfbench pins the E-step and M-step here and rebinds assemble_system
from .fitbase import assemble_system, estep_branching, estep_latent_rate, estep_pg, mstep  # noqa: F401
from .kernels import GramMatrix, InducingGrid, KernelHyperparams
from .pg import sigmoid
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
    """The E-step link of each component at the point estimate f over its point set x:
    (lambda* sigma(+-f), f), + at its data points and - at its quadrature nodes."""
    links = {}
    for n in COMPONENTS:
        comp, cache = getattr(model, n), caches[n]
        f = cache.project_mean(comp.u)
        links[n] = (comp.lambda_star * sigmoid(cache.sign * f), f)
    return links


def penalty(comp: SgpComponent, gm: GramMatrix) -> float:
    """RKHS penalty 0.5 u^T K^{-1} u of one component."""
    half = gm.half_solve(comp.u)
    return 0.5 * float(half @ half)


class _EmEngine:
    """EM's hooks of the shared sweep (see fitbase.run_sweeps)."""

    kind, label = "em", "EM objective"
    init = staticmethod(init_model)
    project = staticmethod(project)

    def objective(self, model, links, expectations, caches):
        """The penalized log posterior at ``model`` from its links (untruncated trigger
        compensator, on the fit's quadrature grids); the intensity at each event is the
        normalizer of the E-step's responsibilities."""
        value = float(np.sum(np.log(expectations[1].normalizer)))
        compensators, penalties = [], []
        for n in COMPONENTS:
            comp, cache = getattr(model, n), caches[n]
            f_nodes = links[n][1][cache.points.size:]
            compensators.append(comp.lambda_star * float(cache.quad.weights @ sigmoid(f_nodes)))
            penalties.append(penalty(comp, cache.gm))
        for term in compensators + penalties:
            value -= term
        return value

    def install(self, model, name, hp, count, exposure, mean, cov):
        """The point maximizer lambda* = count / exposure and u = mean; cov is dropped."""
        comp = replace(getattr(model, name), lambda_star=max(count / exposure, 1e-300), u=mean, hp=hp)
        return replace(model, **{name: comp})

    def gaussian(self, model, name):
        return getattr(model, name).u, None

    def estimates(self, model, grids):
        rates = model_rates(model)
        return {f"{n}_hat": np.asarray(getattr(rates, n)(grids[n]), dtype=float) for n in COMPONENTS}


def fit_em(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[EmModel, FitReport]:
    """Run EM to convergence of the penalized objective (see fitbase.run_sweeps)."""
    return run_sweeps(_EmEngine(), seqs, config)
