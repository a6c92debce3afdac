"""Squared-exponential kernels, jittered Gram matrices, and sparse GP projections.

The rate functions of the model are parametrized through a latent function
evaluated at a small set of inducing points; everything downstream only ever
needs ``k(x, inducing)``, the Cholesky factor of the inducing Gram matrix, and
the projection ``k(x, .)^T K^{-1} u``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

THETA_BOUNDS = (1e-3, 1e3)


class SingularMatrixError(np.linalg.LinAlgError):
    """A kernel or system matrix could not be Cholesky-factorized."""


@dataclass(frozen=True)
class KernelHyperparams:
    """Parameters of k(x, y) = theta0 * exp(-theta1/2 * (x - y)^2).

    theta0 is the signal variance, theta1 the inverse squared length scale.
    """

    theta0: float
    theta1: float

    def __post_init__(self):
        if not (np.isfinite(self.theta0) and self.theta0 > 0.0):
            raise ValueError(f"theta0 must be positive and finite, got {self.theta0}")
        if not (np.isfinite(self.theta1) and self.theta1 > 0.0):
            raise ValueError(f"theta1 must be positive and finite, got {self.theta1}")


@dataclass(frozen=True)
class InducingGrid:
    """Strictly increasing inducing-point locations inside [0, domain]."""

    points: np.ndarray
    domain: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("inducing grid needs at least one point")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("inducing points must be strictly increasing")
        if pts[0] < 0.0 or pts[-1] > self.domain:
            raise ValueError("inducing points must lie within [0, domain]")

    @property
    def count(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        if self.points.size < 2:
            raise ValueError("spacing is undefined for a single-point grid")
        return float(np.min(np.diff(self.points)))


def uniform_inducing_grid(count: int, domain: float) -> InducingGrid:
    """Evenly spaced inducing points covering [0, domain] inclusively."""
    if count < 2:
        raise ValueError("need at least two inducing points")
    if not domain > 0.0:
        raise ValueError("domain must be positive")
    return InducingGrid(np.linspace(0.0, domain, count), float(domain))


def se_kernel(x, y, hp: KernelHyperparams):
    """Squared-exponential kernel, broadcasting over array arguments."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return hp.theta0 * np.exp(-0.5 * hp.theta1 * (x - y) ** 2)


def se_cross(a, b, hp: KernelHyperparams) -> np.ndarray:
    """Kernel matrix k(a_i, b_j) of shape (len(a), len(b))."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return se_kernel(a[:, None], b[None, :], hp)


def _first_nonpositive_pivot(mat: np.ndarray) -> tuple[int, float]:
    """Run an outer-product Cholesky until it breaks; report the bad pivot."""
    a = mat.copy()
    n = a.shape[0]
    for k in range(n):
        pivot = a[k, k]
        if pivot <= 0.0 or not np.isfinite(pivot):
            return k, float(pivot)
        root = np.sqrt(pivot)
        a[k:, k] /= root
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k + 1:, k])
    return n - 1, float(a[n - 1, n - 1])


@dataclass
class GramMatrix:
    """Jittered inducing-point Gram matrix with its lower Cholesky factor."""

    values: np.ndarray
    chol: np.ndarray = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + jitter I) x = rhs using the cached factor."""
        return cho_solve((self.chol, True), rhs)

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L x = rhs (useful for quadratic forms u^T K^{-1} u)."""
        return solve_triangular(self.chol, rhs, lower=True)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def gram(grid: InducingGrid, hp: KernelHyperparams, jitter: float | None = None) -> GramMatrix:
    """Gram matrix at the inducing points with additive diagonal jitter.

    Default jitter is 1e-6 * theta0. Raises SingularMatrixError naming the
    first non-positive pivot if factorization fails.
    """
    if jitter is None:
        jitter = 1e-6 * hp.theta0
    if jitter < 0.0:
        raise ValueError("jitter must be non-negative")
    values = se_cross(grid.points, grid.points, hp)
    values[np.diag_indices_from(values)] += jitter
    try:
        chol = np.linalg.cholesky(values)
    except np.linalg.LinAlgError:
        idx, pivot = _first_nonpositive_pivot(values)
        raise SingularMatrixError(
            f"kernel Gram matrix is not positive definite: pivot {pivot:.3e} "
            f"at index {idx} (jitter={jitter:.3e}); increase jitter or adjust theta"
        ) from None
    return GramMatrix(values=values, chol=chol)


def gp_projector(gm: GramMatrix, mean: np.ndarray, cov: np.ndarray | None = None):
    """Kernel rows k(x, inducing) -> projected mean of f(x) = k K^{-1} u, or
    (mean, variance) under u ~ N(mean, cov) when ``cov`` is given."""
    alpha = gm.solve(np.asarray(mean, dtype=float))
    w = None if cov is None else gm.solve(gm.solve(np.asarray(cov, dtype=float)).T)

    def project(k: np.ndarray):
        if w is None:
            return k @ alpha
        return k @ alpha, np.maximum(np.einsum("ns,ns->n", k @ w, k), 0.0)

    return project
