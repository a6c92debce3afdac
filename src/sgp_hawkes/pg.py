"""Polya-Gamma moment helpers for the sigmoid augmentation.

Only first moments of tilted PG(b, c) variables are ever needed: the sigmoid
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


def pg_mean(b, c):
    """First moment of a tilted Polya-Gamma PG(b, c) variable.

    E[omega] = b tanh(c / 2) / (2c), with the even limit b/4 at c = 0, built
    in one buffer. For |c| < 1e-4 the Taylor branch b * (1/4 - c^2/48)
    replaces the 0/0 at only those entries.
    """
    b, c = np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    out = np.divide(c, 2.0, out=np.empty(np.broadcast(b, c).shape))
    np.tanh(out, out=out)
    out *= b
    with np.errstate(invalid="ignore", over="ignore"):  # 0/0 at c = 0 (fixed below); 2c = inf gives 0
        out /= 2.0 * c
    small = np.abs(c) < _SMALL_C
    if small.any():
        small, b, c = np.broadcast_arrays(small, b, c)
        tilt = c[small]
        out[small] = b[small] * (0.25 - tilt * tilt / 48.0)
    if out.ndim == 0:
        return float(out)
    return out
