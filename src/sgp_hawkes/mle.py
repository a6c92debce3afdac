"""Parametric baseline: maximum likelihood for the exponential Hawkes process.

    lambda(t) = mu + alpha * sum_{t_i < t} exp(-beta (t - t_i))

The log likelihood and its gradient are exact, for all windows in one numpy evaluation:
A_i = sum_{j<i} e^{-beta (t_i - t_j)} sums the pairs inside blocks of _BLOCK events plus
e^{-beta (t_i - t_L)} (1 + A_L) from the last event L of the block before, Ozaki's recursion
a block at a time, so every sum adds terms of one sign. Optimization runs over (mu, rho, beta)
with rho = alpha / beta the branching ratio, so the box constraint rho < 1 keeps every iterate subcritical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .fitbase import REPORT_GRID, FitReport
from .kernels import MIN_EXPONENT
from .process import EventSequence, RateFunctions, as_sequences, trigger_support

_BOUNDS = ((1e-8, 1e4), (1e-8, 0.999), (1e-4, 1e3))  # mu, rho, beta
_BLOCK = 16  # events per block of the pair sums (``_nll_grad``)
_CHILD, _PARENT = np.tril_indices(_BLOCK, -1)  # the slot pairs j < i of a block, ordered by i
_FIRST_PAIR = np.arange(1, _BLOCK) * np.arange(_BLOCK - 1) // 2  # where the pairs of each slot i >= 1 start


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


def _layout(windows) -> tuple:
    """What the likelihood of windows (times, t0, t1) needs of the data, built once per fit. With each
    window's events in blocks of _BLOCK slots, its last block padded with copies of its last event: the lags
    t_i - t_j of each block's slot pairs j < i in the order of i; each slot's gap to the last event of the
    block before and a 0/1 carry flag, both 0 in a window's first block; each event's slot and distance to
    its window's end; the summed window lengths."""
    times = [np.asarray(w[0], dtype=float) for w in windows]
    counts = np.array([t.size for t in times], dtype=int)
    blocks = -(-counts // _BLOCK)
    first = np.cumsum(blocks) - blocks  # each window's first block
    slots = np.repeat(first * _BLOCK - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    t, filled = np.zeros(blocks.sum() * _BLOCK), np.zeros(blocks.sum() * _BLOCK, dtype=int)
    t[slots], filled[slots] = np.concatenate(times), slots
    t = t[np.maximum.accumulate(filled)].reshape(-1, _BLOCK)  # padding repeats the event before it
    carry = np.ones_like(t)
    carry[first[counts > 0]] = 0.0
    return (t[:, _CHILD] - t[:, _PARENT], carry * (t - np.roll(t[:, -1], 1)[:, None]), carry, slots,
            np.concatenate([w[2] - ts for w, ts in zip(windows, times)]), float(sum(w[2] - w[1] for w in windows)))


def _nll_grad(mu: float, alpha: float, beta: float, layout: tuple):
    """Negative log likelihood of the windows of a ``_layout`` and its (mu, alpha, beta) gradient; (inf, 0)
    where an intensity at an event is not positive. a_i and b_i = d a_i / d beta sum the pairs of i's block,
    then add the carry from the block before: a and b at its last event, from one Python step per block.
    Exponents are floored at MIN_EXPONENT, as in the kernel rows: exp that underflows runs a slow path."""
    lag, gap, carry, slots, to_end, exposure = layout
    pair, decay, w = (np.exp(np.maximum(-beta * x, MIN_EXPONENT)) for x in (lag, gap, to_end))
    a, b = np.zeros(gap.shape), np.zeros(gap.shape)
    a[:, 1:], b[:, 1:] = (np.add.reduceat(x, _FIRST_PAIR, axis=1) for x in (pair, -lag * pair))
    decay *= carry
    carried, acc_a, acc_b = [], 0.0, 0.0
    for a_l, b_l, g, d in zip(*(v[:, -1].tolist() for v in (a, b, decay, gap))):
        carried.append((acc_a, acc_b))
        acc_a, acc_b = a_l + g * (1.0 + acc_a), b_l + g * (acc_b - d * (1.0 + acc_a))
    prev_a, prev_b = np.array(carried, dtype=float).reshape(-1, 2).T[:, :, None]
    a = (a + decay * (1.0 + prev_a)).ravel()[slots]
    b = (b + decay * (prev_b - gap * (1.0 + prev_a))).ravel()[slots]
    lam = mu + alpha * a
    if not np.all(lam > 0.0):
        return math.inf, np.zeros(3)
    inv = 1.0 / lam
    tail = float(np.sum(1.0 - w))
    s_alpha, s_beta, s_w = (float(np.einsum("i,i->", x, y)) for x, y in ((a, inv), (b, inv), (to_end, w)))
    value = mu * exposure + alpha / beta * tail - float(np.sum(np.log(lam)))
    return value, np.array([exposure - float(np.sum(inv)), tail / beta - s_alpha,
                            alpha * (s_w / beta - tail / beta**2 - s_beta)])


def _window_nll_grad(mu: float, alpha: float, beta: float, times: np.ndarray, t0: float, t1: float):
    """Negative log likelihood over [t0, t1] and its (mu, alpha, beta) gradient.

    The history is empty at t0; only inter-event gaps and distances to t1
    enter, so the value is invariant under a common shift of times and window.
    """
    return _nll_grad(mu, alpha, beta, _layout([(times, t0, t1)]))


def exp_hawkes_nll(params: ExpHawkesParams, seq: EventSequence) -> float:
    """Exact negative log likelihood of a sequence on its window [0, T]."""
    return _window_nll_grad(params.mu, params.alpha, params.beta, seq.times, 0.0, seq.T)[0]


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


def _total_nll_grad(x: np.ndarray, layout: tuple):
    """Objective in (mu, rho, beta) coordinates, chain-ruled from (mu, alpha, beta)."""
    mu, rho, beta = float(x[0]), float(x[1]), float(x[2])
    value, g = _nll_grad(mu, rho * beta, beta, layout)
    if not np.isfinite(value):
        return 1e300, np.zeros(3)
    return value, np.array([g[0], beta * g[1], rho * g[1] + g[2]])


def fit_mle(
    seqs: EventSequence | Sequence[EventSequence],
    t_phi_report: float,
) -> tuple[ExpHawkesParams, FitReport]:
    """Fit (mu, alpha, beta) by L-BFGS-B from three deterministic starts; report phi on [0, t_phi_report]."""
    t_start = time.perf_counter()
    seqs = as_sequences(seqs)
    layout = _layout([(s.times, 0.0, s.T) for s in seqs])
    rate_hat = max(sum(len(s) for s in seqs) / layout[-1], 1e-3)  # events over the summed window lengths
    starts = [(0.5 * rate_hat, 0.5, 1.0), (0.9 * rate_hat, 0.1, 2.0), (0.3 * rate_hat, 0.7, 0.5)]
    best = None
    warnings: list[str] = []
    for k, x0 in enumerate(starts):
        res = minimize(
            _total_nll_grad,
            np.asarray(x0, dtype=float),
            args=(layout,),
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
    grid_mu = np.linspace(0.0, max(s.T for s in seqs), REPORT_GRID)
    grid_phi = np.linspace(0.0, t_phi_report, REPORT_GRID)
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
