"""Augmented-likelihood EM for the sigmoid-GP Hawkes model (MAP estimates).

Each iteration computes the conditional expectations of the augmentation
(Polya-Gamma variables at events/pairs, latent thinned-point rates on a
quadrature grid, branching responsibilities) at the current point estimates
and then maximizes the expected complete-data objective jointly over the
rate bounds lambda* and the inducing values u of both components, with the
RKHS penalty 0.5 u^T K^{-1} u per component.

The sweep is fitbase.run_sweeps, shared with VI, and so is the model:
fitbase's SgpModel at a point estimate, each component's cov None and its
lambda* a float. EM supplies its link (``project``, from the point
estimate), its penalized log posterior and the install of an M-step update:
lambda* = count / exposure and u = mean, the point maximizer. The E-step and
M-step functions named here (``estep_pg``, ``estep_latent_rate``,
``estep_branching``, ``mstep``) are fitbase's, re-exported.

Multi-sequence input is treated as i.i.d. replicate windows: Dirac statistics
pool over all sequences, and the quadrature node weights carry the number of
windows (baseline) or the total event count (trigger).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .fitbase import COMPONENTS, ComponentCache, Dataset, FitConfig, FitReport, SgpComponent, SgpModel, run_sweeps
# re-exports: perfbench pins the E-step and M-step here and rebinds assemble_system
from .fitbase import assemble_system, estep_branching, estep_latent_rate, estep_pg, mstep  # noqa: F401
from .kernels import GramMatrix
from .pg import sigmoid
from .process import EventSequence


def init_model(data: Dataset, caches: dict[str, ComponentCache]) -> SgpModel:
    """Flat start: u = 0 and lambda* sized so mu ~ N/T and int phi ~ 0.5."""
    # mu's floor keeps the intensity positive for empty data
    lams = {"mu": max(2.0 * data.n_events / (data.n_sequences * data.T), 1e-8), "phi": 1.0 / data.T_phi}
    comps = {n: SgpComponent(c.grid, c.hp, np.zeros(c.grid.count), None, lams[n]) for n, c in caches.items()}
    return SgpModel(**comps, T=data.T, T_phi=data.T_phi)


def project(model: SgpModel, caches: dict[str, ComponentCache]) -> dict[str, tuple]:
    """The E-step link of each component at the point estimate f over its point set x:
    (lambda* sigma(+-f), f), + at its data points and - at its quadrature nodes."""
    links = {}
    for n in COMPONENTS:
        comp, cache = getattr(model, n), caches[n]
        f = cache.project_mean(comp.mean)
        links[n] = (comp.lambda_star * sigmoid(cache.sign * f), f)
    return links


def penalty(comp: SgpComponent, gm: GramMatrix) -> float:
    """RKHS penalty 0.5 u^T K^{-1} u of one component."""
    half = gm.half_solve(comp.mean)
    return 0.5 * float(half @ half)


class _EmEngine:
    """EM's hooks of the shared sweep (see fitbase.run_sweeps)."""

    kind, label = "em", "EM objective"
    init = staticmethod(init_model)
    project = staticmethod(project)

    def objective(self, model, links, expectations, caches):
        """The penalized log posterior at ``model`` from its links (untruncated trigger
        compensator, on the fit's quadrature grids); the intensity at each event is the
        normalizer of the E-step's responsibilities (``BranchingPosterior.log_normalizer``)."""
        value = expectations[1].log_normalizer()
        for n in COMPONENTS:  # the compensators, then the penalties
            comp, cache = getattr(model, n), caches[n]
            value -= comp.lambda_star * float(cache.quad.weights @ sigmoid(links[n][1][cache.points.size:]))
        for n in COMPONENTS:
            value -= penalty(getattr(model, n), caches[n].gm)
        return value

    def install(self, model, name, hp, count, exposure, mean, cov):
        """The point maximizer lambda* = count / exposure and u = mean; the covariance is never formed."""
        comp = replace(getattr(model, name), lambda_star=max(count / exposure, 1e-300), mean=mean, hp=hp)
        return replace(model, **{name: comp})


def fit_em(
    seqs: EventSequence | Sequence[EventSequence], config: FitConfig
) -> tuple[SgpModel, FitReport]:
    """Run EM to convergence of the penalized objective (see fitbase.run_sweeps)."""
    return run_sweeps(_EmEngine(), seqs, config)
