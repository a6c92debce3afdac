"""Polya-Gamma moment helpers for the sigmoid augmentation.

Only first moments of tilted PG(1, c) variables are ever needed: the sigmoid
is represented as
sigma(z) = integral exp(z/2 - z^2 omega/2 - log 2) p_PG(omega | 1, 0) domega
and every expectation that touches omega collapses onto pg_mean.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

_SMALL_C = 1e-4


def sigmoid(z):
    """Logistic function, overflow-safe for any real input."""
    return expit(np.asarray(z, dtype=float))


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
