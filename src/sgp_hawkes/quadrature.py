"""Fixed Gauss-Legendre / Gauss-Hermite rules used throughout the package.

All continuous-time integrals (compensators, latent-process masses, the
A/B statistics of the inference engines) run over frozen Gauss-Legendre
grids; E[sigma] and E[sigma^2] under a Gaussian, in the VI rate tables and
posterior bands, run over Gauss-Hermite rules with the change of variables
mean + sqrt(2 var) * node, at the order ``hermite_order`` picks from the
largest variance. The VI sweep itself runs none: it uses the closed-form
Polya-Gamma bound on E[log sigma].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .pg import sigmoid

DEFAULT_GH_ORDER = 30
# (largest variance, Gauss-Hermite order) steps of ``hermite_order``
_HERMITE_STEPS = (
    (0.001, 4), (0.003, 5), (0.01, 6), (0.02, 7), (0.05, 8), (0.1, 10), (0.2, 15), (0.4, 20)
)
_GH_CHUNK = 1024  # rows per Gauss-Hermite block: two 1024 x 30 temporaries stay near 490 KB


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights of a fixed rule on the interval [lower, upper]."""

    nodes: np.ndarray
    weights: np.ndarray
    lower: float
    upper: float


def gauss_legendre(n: int, a: float, b: float) -> QuadratureGrid:
    """Gauss-Legendre rule of order n mapped affinely onto [a, b].

    Parameters
    ----------
    n : int
        Number of nodes (exact for polynomials of degree <= 2n - 1).
    a, b : float
        Integration interval; must satisfy a < b and be finite.
    """
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]")
    x, w = _legendre(n)
    half = 0.5 * (b - a)
    return QuadratureGrid(nodes=a + half * (x + 1.0), weights=half * w, lower=float(a), upper=float(b))


@functools.lru_cache(maxsize=16)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)``, cached per order; shared by every caller, so read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=16)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[g(Z)], Z ~ N(0, 1): sum_k w_k g(z_k).

    Cached per order (``hermgauss`` costs about half a millisecond at 30
    nodes); the arrays are shared by every caller, so they are read-only.
    """
    x, w = hermgauss(n)
    z, w = np.sqrt(2.0) * x, w / np.sqrt(np.pi)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def hermite_order(var) -> int:
    """Gauss-Hermite order for E[sigma] and E[sigma^2] (rate tables, posterior
    bands) of Gaussians whose largest variance is max(var): the first
    ``_HERMITE_STEPS`` step whose limit covers it (4 nodes up to 0.001, 8 up to
    0.05, 20 up to 0.4), which keeps both within 1e-13 of a 150-node rule for
    means in [-20, 20]; DEFAULT_GH_ORDER above that (20 nodes at a variance of
    0.5 miss E[sigma^2] by 8e-13 near mean 0)."""
    top = float(np.max(var, initial=0.0))
    for limit, order in _HERMITE_STEPS:
        if top <= limit:
            return order
    return DEFAULT_GH_ORDER


def _mean_sd(mean, var):
    """Flat, broadcast means and standard deviations sqrt(max(var, 0))."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    mean, var = np.broadcast_arrays(mean, var)
    return mean, np.sqrt(np.maximum(var, 0.0))


def expected_log_sigmoid(mean, var, n: int):
    """E[log sigma(X)] for X ~ N(mean, var), elementwise over arrays.

    Uses log sigma(x) = min(x, 0) - log1p(exp(-|x|)), which numpy evaluates
    with vectorized exp/log1p and which stays finite in both tails (exp
    underflows harmlessly to 0 for |x| > 745); chunks the outer dimension to
    bound temporary memory.
    """
    mean, sd = _mean_sd(mean, var)
    z, w = gauss_hermite(n)
    out = np.empty(mean.shape[0], dtype=float)
    with np.errstate(under="ignore"):
        for start in range(0, mean.shape[0], _GH_CHUNK):
            sl = slice(start, start + _GH_CHUNK)
            x = mean[sl, None] + sd[sl, None] * z
            t = np.abs(x)
            np.negative(t, out=t)
            np.exp(t, out=t)
            np.log1p(t, out=t)
            np.minimum(x, 0.0, out=x)
            x -= t
            out[sl] = x @ w
    return out


def expected_sigmoid_moments(mean, var, n: int):
    """(E[sigma(X)], E[sigma(X)^2]) for X ~ N(mean, var), elementwise."""
    mean, sd = _mean_sd(mean, var)
    z, w = gauss_hermite(n)
    m1 = np.empty(mean.shape[0], dtype=float)
    m2 = np.empty(mean.shape[0], dtype=float)
    for start in range(0, mean.shape[0], _GH_CHUNK):
        sl = slice(start, start + _GH_CHUNK)
        s = sigmoid(mean[sl, None] + sd[sl, None] * z)
        m1[sl] = s @ w
        m2[sl] = (s * s) @ w
    return m1, m2
