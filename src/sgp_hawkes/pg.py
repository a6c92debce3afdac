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

    E[omega] = (b / 2c) tanh(c / 2), with the even limit b/4 at c = 0.
    For |c| < 1e-4 the Taylor branch b * (1/4 - c^2/48) avoids the 0/0.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    small = np.abs(c) < _SMALL_C
    # Where c is small, substitute 1 to keep the division well-defined; the
    # result there is overwritten by the series branch.
    c_safe = np.where(small, 1.0, c)
    out = np.where(small, b * (0.25 - c * c / 48.0), b * np.tanh(c_safe / 2.0) / (2.0 * c_safe))
    if out.ndim == 0:
        return float(out)
    return out
