"""Parametric baseline: maximum likelihood for the exponential Hawkes process.

    lambda(t) = mu + alpha * sum_{t_i < t} exp(-beta (t - t_i))

The log likelihood and its gradient are computed exactly with the standard
O(N) recursion A_i = e^{-beta dt_i} (1 + A_{i-1}). Optimization runs over
(mu, rho, beta) with rho = alpha / beta the branching ratio, so a simple box
constraint rho < 1 keeps every iterate subcritical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .fitbase import FitReport
from .process import EventSequence, RateFunctions, trigger_support

_BOUNDS = ((1e-8, 1e4), (1e-8, 0.999), (1e-4, 1e3))  # mu, rho, beta
_EVAL_GRID = 200  # points of the report's mu and phi grids


@dataclass(frozen=True)
class ExpHawkesParams:
    mu: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("mu", "alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if self.beta == 0.0:
            raise ValueError("beta must be positive")


def _window_nll_grad(mu: float, alpha: float, beta: float, times: np.ndarray, t0: float, t1: float):
    """Negative log likelihood over [t0, t1] and its (mu, alpha, beta) gradient.

    The history is empty at t0; only inter-event gaps and distances to t1
    enter, so the value is invariant under a common shift of times and window.
    """
    sum_log = 0.0
    s_mu = 0.0
    s_alpha = 0.0
    s_beta = 0.0
    a = 0.0  # sum of exp(-beta (t_i - t_j)) over earlier events j
    b = 0.0  # d a / d beta
    prev = None
    for t in times:
        if prev is not None:
            decay = math.exp(-beta * (t - prev))
            a = decay * (1.0 + a)
            b = -(t - prev) * a + decay * b
        lam = mu + alpha * a
        if not lam > 0.0:
            return math.inf, np.zeros(3)
        sum_log += math.log(lam)
        s_mu += 1.0 / lam
        s_alpha += a / lam
        s_beta += b / lam
        prev = t
    u = t1 - times
    w = np.exp(-beta * u)
    tail = float(np.sum(1.0 - w))
    comp = mu * (t1 - t0) + alpha / beta * tail
    grad = np.array(
        [
            (t1 - t0) - s_mu,
            tail / beta - s_alpha,
            alpha * (float(u @ w) / beta - tail / beta**2) - alpha * s_beta,
        ]
    )
    return comp - sum_log, grad


def window_nll(params: ExpHawkesParams, times, t0: float, t1: float) -> float:
    """Exact negative log likelihood of events in a window [t0, t1]."""
    times = np.asarray(times, dtype=float)
    if times.size and (times[0] < t0 or times[-1] > t1):
        raise ValueError("events must lie inside the window [t0, t1]")
    if t1 <= t0:
        raise ValueError("window must have positive length")
    value, _ = _window_nll_grad(params.mu, params.alpha, params.beta, times, float(t0), float(t1))
    return value


def exp_hawkes_nll(params: ExpHawkesParams, seq: EventSequence) -> float:
    return window_nll(params, seq.times, 0.0, seq.T)


def model_rates(params: ExpHawkesParams, t_phi: float) -> RateFunctions:
    """Rate-function adapter; pass t_phi = T to keep the exponential untruncated."""
    mu, alpha, beta = params.mu, params.alpha, params.beta

    def mu_fn(t):
        return np.full_like(np.asarray(t, dtype=float), mu)

    def phi(tau):
        tau = np.asarray(tau, dtype=float)
        return np.where(trigger_support(tau, t_phi), alpha * np.exp(-beta * tau), 0.0)

    def mu_integral(t):
        return mu * np.asarray(t, dtype=float)

    def phi_integral(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, t_phi)
        return alpha / beta * (1.0 - np.exp(-beta * x))

    return RateFunctions(mu_fn, phi, T_phi=float(t_phi), mu_integral=mu_integral, phi_integral=phi_integral)


def _total_nll_grad(x: np.ndarray, seqs: Sequence[EventSequence]):
    """Objective in (mu, rho, beta) coordinates, chain-ruled from (mu, alpha, beta)."""
    mu, rho, beta = float(x[0]), float(x[1]), float(x[2])
    alpha = rho * beta
    total = 0.0
    grad = np.zeros(3)
    for seq in seqs:
        value, g = _window_nll_grad(mu, alpha, beta, seq.times, 0.0, seq.T)
        if not np.isfinite(value):
            return 1e300, np.zeros(3)
        total += value
        grad += np.array([g[0], beta * g[1], rho * g[1] + g[2]])
    return total, grad


def fit_mle(
    seqs: EventSequence | Sequence[EventSequence],
    t_phi_report: float | None = None,
) -> tuple[ExpHawkesParams, FitReport]:
    """Fit (mu, alpha, beta) by L-BFGS-B from three deterministic starts."""
    t_start = time.perf_counter()
    if isinstance(seqs, EventSequence):
        seqs = [seqs]
    seqs = list(seqs)
    if not seqs:
        raise ValueError("need at least one sequence")
    t_window = seqs[0].T
    n_total = sum(len(s) for s in seqs)
    rate_hat = max(n_total / (len(seqs) * t_window), 1e-3)
    starts = [
        (0.5 * rate_hat, 0.5, 1.0),
        (0.9 * rate_hat, 0.1, 2.0),
        (0.3 * rate_hat, 0.7, 0.5),
    ]
    best = None
    warnings: list[str] = []
    for k, x0 in enumerate(starts):
        res = minimize(
            _total_nll_grad,
            np.asarray(x0, dtype=float),
            args=(seqs,),
            jac=True,
            method="L-BFGS-B",
            bounds=_BOUNDS,
        )
        if not res.success:
            warnings.append(f"start {k} did not report convergence: {res.message}")
        if best is None or res.fun < best.fun:
            best = res
    mu, rho, beta = best.x
    params = ExpHawkesParams(float(mu), float(rho * beta), float(beta))
    if t_phi_report is None:
        t_phi_report = float(np.clip(5.0 / params.beta, 1e-3, 1e6))
    grid_mu = np.linspace(0.0, t_window, _EVAL_GRID)
    grid_phi = np.linspace(0.0, t_phi_report, _EVAL_GRID)
    rates = model_rates(params, t_phi_report)
    report = FitReport(
        method="mle",
        converged=bool(best.success),
        n_iter=int(best.nit),
        runtime_seconds=time.perf_counter() - t_start,
        objective_trace=[-float(best.fun)],
        hyper_history=[],
        warnings=warnings,
        grid_mu=grid_mu,
        mu_hat=np.asarray(rates.mu(grid_mu), dtype=float),
        grid_phi=grid_phi,
        phi_hat=np.asarray(rates.phi(grid_phi), dtype=float),
    )
    return params, report
