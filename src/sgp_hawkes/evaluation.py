"""Held-out scoring, estimation error, and time-rescaling goodness of fit.

The time-rescaling transform maps event times through the fitted compensator
Lambda(t) = int_0^t lambda; if the fitted model is the true generator, the
increments tau_i = Lambda(t_i) - Lambda(t_{i-1}) are i.i.d. Exponential(1),
so z_i = 1 - exp(-tau_i) are i.i.d. Uniform(0,1) and can be checked with a
one-sample Kolmogorov-Smirnov test or a Q-Q plot.

Both the held-out likelihood and the rescaling take Lambda from the rates'
exact antiderivatives ``mu_integral`` and ``phi_integral``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .process import EventSequence, RateFunctions, admissible_pairs, log_likelihood, trigger_integral
from .quadrature import QuadratureGrid


@dataclass(frozen=True)
class RescaledSample:
    """Time-rescaled test events: z values, their tau increments, Lambda at events.

    One entry per event after the first (the first event's increment depends on
    the unobserved pre-window history and is dropped). ``n_clamped`` counts
    numerically negative increments that were clamped to zero; such entries sit
    at exactly z = 0, healthy samples lie strictly inside (0, 1).
    """

    z: np.ndarray
    tau: np.ndarray
    lam: np.ndarray  # Lambda(t_i) for every event, including the first
    n_clamped: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.size and (np.any(z < 0.0) or np.any(z >= 1.0) or np.any(~np.isfinite(z))):
            raise ValueError("rescaled values must lie in [0, 1)")


def _check_window(quad: QuadratureGrid | None, T: float) -> None:
    """An optional ``quad`` of test_ll/rescale is not integrated with, only checked to span [0, T]."""
    if quad is not None and (abs(quad.lower) > 1e-12 or abs(quad.upper - T) > 1e-9 * max(1.0, T)):
        raise ValueError(f"quadrature grid [{quad.lower}, {quad.upper}] does not cover [0, {T}]")


def test_ll(fitted: RateFunctions, holdout: EventSequence, quad: QuadratureGrid | None = None) -> float:
    """Log likelihood of one held-out sequence, history empty at its origin."""
    _check_window(quad, holdout.T)
    return log_likelihood(holdout, fitted)


def est_err(estimate, truth, grid: np.ndarray) -> float:
    """Mean squared difference between two rate functions on a grid.

    ``estimate`` and ``truth`` may be callables or precomputed value arrays.
    """
    grid = np.asarray(grid, dtype=float)
    est = np.asarray(estimate(grid) if callable(estimate) else estimate, dtype=float)
    tru = np.asarray(truth(grid) if callable(truth) else truth, dtype=float)
    if est.shape != grid.shape or tru.shape != grid.shape:
        raise ValueError("estimate/truth values must match the grid shape")
    return float(np.mean((est - tru) ** 2))


def rescale(fitted: RateFunctions, seq: EventSequence, quad: QuadratureGrid | None = None) -> RescaledSample:
    """Time-rescaling transform of a sequence under fitted rates.

    Lambda(t_i) is ``mu_integral(t_i)`` plus ``phi_integral`` of every lag to
    an earlier event, capped at T_phi.
    """
    _check_window(quad, seq.T)
    mu_integral = fitted.antiderivative("mu")
    times = seq.times
    if times.size == 0:
        return RescaledSample(np.empty(0), np.empty(0), np.empty(0), 0)
    lam = np.asarray(mu_integral(times), dtype=float)
    child, lag = admissible_pairs(times, fitted.T_phi)
    if child.size:
        lam = lam + np.bincount(child, weights=trigger_integral(fitted, lag), minlength=times.size)
    full = float(trigger_integral(fitted, fitted.T_phi)[0])
    expired = np.searchsorted(times, times - fitted.T_phi, side="left")
    lam = lam + expired * full
    tau = np.diff(lam)
    n_clamped = int(np.sum(tau < 0.0))
    tau = np.maximum(tau, 0.0)
    z = np.minimum(-np.expm1(-tau), np.nextafter(1.0, 0.0))
    return RescaledSample(z=z, tau=tau, lam=lam, n_clamped=n_clamped)


def ks_statistic(sample: RescaledSample) -> tuple[float, float]:
    """One-sample KS distance of the z values against Uniform(0,1), and its asymptotic p-value.

    ``scipy.stats.kstest(z, "uniform", method="asymp")`` to the bit: D = max over i of i/n - z_(i)
    and z_(i) - (i-1)/n, and p is the Kolmogorov survival function at D*sqrt(n), clipped to [0, 1].
    """
    z = np.sort(sample.z)
    n = z.size
    if n == 0:
        raise ValueError("cannot run a KS test on an empty rescaled sample")
    d = max(float((np.arange(1.0, n + 1) / n - z).max()), float((z - np.arange(0.0, n) / n).max()))
    return d, float(np.clip(kolmogorov(d * np.sqrt(n)), 0.0, 1.0))


def qq_pairs(sample: RescaledSample) -> tuple[np.ndarray, np.ndarray]:
    """(theoretical, empirical) uniform quantile pairs for Q-Q plotting."""
    z = np.sort(sample.z)
    n = z.size
    theoretical = (np.arange(1, n + 1) - 0.5) / n if n else np.empty(0)
    return theoretical, z
