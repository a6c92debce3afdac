"""Fixed Gauss-Legendre / Gauss-Hermite rules used throughout the package.

All continuous-time integrals (compensators, latent-process masses, the
A/B statistics of the inference engines) run over frozen Gauss-Legendre
grids; Gaussian expectations of sigmoid transforms run over Gauss-Hermite
rules with the change of variables mean + sqrt(2 var) * node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import expit

DEFAULT_GH_ORDER = 30
_GH_CHUNK = 1024  # rows per Gauss-Hermite block: 1024 x 30 temporaries stay near 245 KB


class QuadratureError(ValueError):
    """Integrand evaluated to a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights of a fixed rule on the interval [lower, upper]."""

    nodes: np.ndarray
    weights: np.ndarray
    lower: float
    upper: float

    @property
    def order(self) -> int:
        return self.nodes.size


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
    x, w = leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureGrid(nodes=a + half * (x + 1.0), weights=half * w, lower=float(a), upper=float(b))


def integrate(grid: QuadratureGrid, f) -> float:
    """Apply the rule to a callable; rejects non-finite integrand values."""
    vals = np.asarray(f(grid.nodes), dtype=float)
    if vals.shape != grid.nodes.shape:
        raise ValueError("integrand must return one value per node")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise QuadratureError(
            f"non-finite integrand value {vals[idx]} at node index {idx} (t={grid.nodes[idx]})"
        )
    return float(grid.weights @ vals)


def gauss_hermite(n: int = DEFAULT_GH_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for E[g(Z)], Z ~ N(0, 1): sum_k w_k g(z_k)."""
    x, w = hermgauss(n)
    return np.sqrt(2.0) * x, w / np.sqrt(np.pi)


def _gaussian_nodes(mean, var, z):
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    sd = np.sqrt(np.maximum(var, 0.0))
    return mean[..., None] + sd[..., None] * z


def gaussian_expectation(g, mean, var, n: int = DEFAULT_GH_ORDER):
    """E[g(X)] for X ~ N(mean, var), vectorized over mean/var arrays."""
    z, w = gauss_hermite(n)
    vals = g(_gaussian_nodes(mean, var, z))
    return vals @ w


def expected_log_sigmoid(mean, var, n: int = DEFAULT_GH_ORDER):
    """E[log sigma(X)] for X ~ N(mean, var), elementwise over arrays.

    Uses log sigma(x) = -log(1 + e^{-x}) via logaddexp for stability and
    chunks the outer dimension to bound temporary memory.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    mean, var = np.broadcast_arrays(mean, var)
    z, w = gauss_hermite(n)
    out = np.empty(mean.shape[0], dtype=float)
    for start in range(0, mean.shape[0], _GH_CHUNK):
        sl = slice(start, start + _GH_CHUNK)
        x = _gaussian_nodes(mean[sl], var[sl], z)
        out[sl] = -np.logaddexp(0.0, -x) @ w
    return out


def expected_sigmoid_moments(mean, var, n: int = DEFAULT_GH_ORDER):
    """(E[sigma(X)], E[sigma(X)^2]) for X ~ N(mean, var), elementwise."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    mean, var = np.broadcast_arrays(mean, var)
    z, w = gauss_hermite(n)
    m1 = np.empty(mean.shape[0], dtype=float)
    m2 = np.empty(mean.shape[0], dtype=float)
    for start in range(0, mean.shape[0], _GH_CHUNK):
        sl = slice(start, start + _GH_CHUNK)
        s = expit(_gaussian_nodes(mean[sl], var[sl], z))
        m1[sl] = s @ w
        m2[sl] = (s * s) @ w
    return m1, m2
