"""Squared-exponential kernels, jittered Gram matrices, and sparse GP projections.

The rate functions of the model are parametrized through a latent function
evaluated at a small set of inducing points; everything downstream only ever
needs ``k(x, inducing)``, the Cholesky factor of the inducing Gram matrix, and
the projection ``k(x, .)^T K^{-1} u``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

THETA_BOUNDS = (1e-3, 1e3)
JITTER = 1e-6  # diagonal jitter of every Gram matrix, relative to theta0
MIN_EXPONENT = -600.0  # floor of every kernel exponent: below about -708 exp and its products turn subnormal


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
    """Squared-exponential kernel, broadcasting over array arguments, its exponent
    floored at MIN_EXPONENT. The result is built in one buffer of the broadcast
    shape, in place."""
    out = np.asarray(np.subtract(x, y, dtype=float))
    np.square(out, out=out)
    np.multiply(out, -0.5 * hp.theta1, out=out)
    np.exp(np.maximum(out, MIN_EXPONENT, out=out), out=out)
    return np.multiply(out, hp.theta0, out=out)[()]


def se_cross(a, b, hp: KernelHyperparams) -> np.ndarray:
    """Kernel matrix k(a_i, b_j) of shape (len(a), len(b))."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return se_kernel(a[:, None], b[None, :], hp)


def chol_solve(chol: np.ndarray, rhs: np.ndarray, what: str, half: bool = False) -> np.ndarray:
    """x with L L^T x = rhs (L x = rhs if ``half``), L a C-ordered lower Cholesky factor, by the LAPACK calls
    of scipy's cho_solve and solve_triangular (so their bits); FloatingPointError naming ``what`` if they fail."""
    x, info = dtrtrs(chol.T, rhs, lower=0, trans=1) if half else dpotrs(chol, rhs, lower=1)
    if info != 0 or not np.isfinite(x).all():
        raise FloatingPointError(f"{what}: Cholesky solve gave a non-finite solution (LAPACK info {info})")
    return x


@dataclass
class GramMatrix:
    """Jittered inducing-point Gram matrix with its lower Cholesky factor."""

    values: np.ndarray
    chol: np.ndarray = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + jitter I) x = rhs using the cached factor."""
        return chol_solve(self.chol, rhs, "kernel Gram solve")

    def half_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L x = rhs (useful for quadratic forms u^T K^{-1} u)."""
        return chol_solve(self.chol, rhs, "kernel Gram half solve", half=True)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


def gram(grid: InducingGrid, hp: KernelHyperparams) -> GramMatrix:
    """Gram matrix at the inducing points with diagonal jitter JITTER * theta0,
    so that K(theta0, theta1) = theta0 K(1, theta1), jitter included.

    Raises SingularMatrixError naming the first non-positive pivot, as LAPACK's
    dpotrf finds it, if factorization fails. The factor is numpy's: scipy's
    dpotrf gives other bits on some matrices.
    """
    jitter = JITTER * hp.theta0
    values = se_cross(grid.points, grid.points, hp)
    values[np.diag_indices_from(values)] += jitter
    try:
        chol = np.linalg.cholesky(values)
    except np.linalg.LinAlgError:
        factor, info = dpotrf(values, lower=1)  # info = 1 + the failing pivot's index, 0 if dpotrf factors it
        where = f": pivot {factor[info - 1, info - 1]:.3e} at index {info - 1}" if info > 0 else ""
        raise SingularMatrixError(
            f"kernel Gram matrix is not positive definite{where} (jitter={jitter:.3e}); adjust theta"
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
