"""Polya-Gamma moment helpers for the sigmoid augmentation.

Only first moments of tilted PG(1, c) variables are ever needed: the sigmoid
is represented as
sigma(z) = integral exp(z/2 - z^2 omega/2 - log 2) p_PG(omega | 1, 0) domega
and every expectation that touches omega collapses onto pg_mean.
"""

from __future__ import annotations

import numpy as np

_SMALL_C = 1e-4


def sigmoid(z):
    """Logistic function 1/(1 + exp(-z)) on numpy's vectorized exp in one buffer, scipy.special's formula
    for it; exp(-z) overflows to inf below z = -709.78, where sigma is 0 as in scipy."""
    z = np.asarray(z, dtype=float)
    out = np.negative(z, out=np.empty(z.shape))
    with np.errstate(over="ignore", under="ignore"):
        np.divide(1.0, np.add(np.exp(out, out=out), 1.0, out=out), out=out)
    return float(out) if out.ndim == 0 else out


def pg_mean(c):
    """First moment of a tilted Polya-Gamma PG(1, c) variable.

    E[omega] = tanh(c / 2) / (2c), with the even limit 1/4 at c = 0, built
    in one buffer. For |c| < 1e-4 the Taylor branch 1/4 - c^2/48 replaces
    the 0/0 at only those entries.
    """
    c = np.asarray(c, dtype=float)
    out = np.divide(c, 2.0, out=np.empty(c.shape))
    np.tanh(out, out=out)
    with np.errstate(invalid="ignore", over="ignore"):  # 0/0 at c = 0 (fixed below); 2c = inf gives 0
        out /= 2.0 * c
    small = np.abs(c) < _SMALL_C
    if small.any():
        tilt = c[small]
        out[small] = 0.25 - tilt * tilt / 48.0
    if out.ndim == 0:
        return float(out)
    return out
