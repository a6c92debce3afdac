"""Squared-exponential kernel, Gram factorizations, and sparse projections."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular, toeplitz

from sgp_hawkes import kernels
from sgp_hawkes.kernels import (
    JITTER,
    MIN_EXPONENT,
    THETA_BOUNDS,
    GramMatrix,
    InducingGrid,
    KernelHyperparams,
    SingularMatrixError,
    chol_solve,
    gram,
    se_cross,
    se_kernel,
    uniform_inducing_grid,
)


def test_se_kernel_diagonal_is_theta0():
    assert se_kernel(3.0, 3.0, KernelHyperparams(2.0, 1.0)) == 2.0


def test_se_kernel_closed_form():
    val = se_kernel(0.0, 1.0, KernelHyperparams(1.0, 2.0))
    assert val == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_se_kernel_symmetry():
    hp = KernelHyperparams(0.7, 5.0)
    assert se_kernel(1.3, 0.4, hp) == se_kernel(0.4, 1.3, hp)


def test_se_cross_matrix_against_scalar():
    hp = KernelHyperparams(1.4, 0.6)
    a = np.array([0.0, 1.0, 2.5])
    b = np.array([0.3, 1.7])
    mat = se_cross(a, b, hp)
    assert mat.shape == (3, 2)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            assert mat[i, j] == pytest.approx(se_kernel(x, y, hp), rel=1e-15)


@pytest.mark.parametrize("theta1", [1e-3, 0.081, 1.0, 1e3])
def test_se_cross_is_the_broadcast_kernel_bit_for_bit_in_one_buffer(theta1):
    """se_cross builds k in place: the bits of the broadcast formula, and at most
    one extra percent of the P x S result allocated on top of it."""
    hp = KernelHyperparams(1.7, theta1)
    a = np.random.default_rng(5).uniform(0.0, 100.0, 20_000)
    b = np.linspace(0.0, 100.0, 10)
    tracemalloc.start()
    try:
        mat = se_cross(a, b, hp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    broadcast = hp.theta0 * np.exp(np.maximum(-0.5 * hp.theta1 * (a[:, None] - b[None, :]) ** 2, MIN_EXPONENT))
    assert np.array_equal(mat, broadcast)
    assert peak <= 1.1 * mat.nbytes


def test_se_cross_floors_the_exponent_at_far_lags():
    """Lags whose exponent falls below MIN_EXPONENT = -600 give theta0 exp(-600):
    neither zero nor a subnormal."""
    hp = KernelHyperparams(2.5, 1e3)
    mat = se_cross(np.array([0.0, 0.5, 2.0, 6.0, 1e3]), np.array([0.0]), hp)[:, 0]
    assert MIN_EXPONENT == -600.0
    assert np.array_equal(mat[:2], hp.theta0 * np.exp([0.0, -125.0]))
    assert np.all(mat[2:] == hp.theta0 * np.exp(-600.0))
    assert np.all(mat >= np.finfo(float).tiny)


def test_gram_single_point_with_explicit_jitter():
    grid = InducingGrid(points=np.array([0.0]), domain=1.0)
    gm = gram(grid, KernelHyperparams(1.0, 1.0))
    assert JITTER == 1e-6
    np.testing.assert_array_equal(gm.values, np.array([[1.000001]]))


def test_gram_toeplitz_on_uniform_grid():
    # Exactly-representable spacing: pairwise distances depend only on |i-j|,
    # so the Gram matrix must be bitwise Toeplitz.
    points = np.linspace(0.0, 1.75, 8)  # spacing 0.25, exact in binary
    grid = InducingGrid(points=points, domain=1.75)
    gm = gram(grid, KernelHyperparams(1.3, 0.7))
    np.testing.assert_array_equal(gm.values, toeplitz(gm.values[0]))


@pytest.mark.parametrize(
    "theta0, theta1", [(1e-3, 1e-3), (0.37, 2.5), (4.0, 0.05), (17.3, 0.9), (1e3, 1e-3), (1e3, 1e3)]
)
def test_gram_scales_with_theta0_jitter_included(theta0, theta1):
    """K(theta0, theta1) = theta0 K(1, theta1): the EM theta search takes
    theta0 in closed form from this, so the default jitter must scale too."""
    grid = uniform_inducing_grid(8, 10.0)
    gm = gram(grid, KernelHyperparams(theta0, theta1))
    unit = gram(grid, KernelHyperparams(1.0, theta1))
    np.testing.assert_allclose(gm.values, theta0 * unit.values, rtol=1e-15, atol=0)
    # Cholesky rounding on the near-singular theta1 = 1e-3 matrices reaches 6e-10
    assert gm.logdet() - unit.logdet() == pytest.approx(grid.count * np.log(theta0), abs=1e-8)


def test_gram_two_point_determinant():
    grid = InducingGrid(points=np.array([0.0, 0.5]), domain=0.5)
    hp = KernelHyperparams(1.0, 1.0)
    # closed form: 1 - exp(-theta1 * 0.25 / 2)^2 = 1 - exp(-0.25)
    det = np.linalg.det(se_cross(grid.points, grid.points, hp))
    assert det == pytest.approx(1.0 - np.exp(-0.25), rel=1e-12)
    assert det > 0
    assert np.linalg.det(gram(grid, hp).values) > 0  # jittered too


def test_gram_solve_and_logdet_match_numpy():
    grid = uniform_inducing_grid(6, 10.0)
    gm = gram(grid, KernelHyperparams(1.5, 0.3))
    rhs = np.linspace(-1.0, 1.0, 6)
    np.testing.assert_allclose(gm.solve(rhs), np.linalg.solve(gm.values, rhs), atol=1e-12)
    sign, logdet = np.linalg.slogdet(gm.values)
    assert sign > 0
    assert gm.logdet() == pytest.approx(logdet, rel=1e-12)


def test_gram_half_solve_reconstructs_inverse_quadratic_form(rng):
    grid = uniform_inducing_grid(5, 4.0)
    gm = gram(grid, KernelHyperparams(0.9, 0.8))
    v = rng.normal(size=5)
    half = gm.half_solve(v)
    assert half @ half == pytest.approx(v @ np.linalg.solve(gm.values, v), rel=1e-10)


def test_gram_degenerate_grid_raises(monkeypatch):
    # two points whose kernel distance underflows to zero: singular without the
    # jitter, which keeps the Gram matrix factorable
    grid = InducingGrid(points=np.array([0.0, 1e-18]), domain=2.0)
    assert np.linalg.matrix_rank(se_cross(grid.points, grid.points, KernelHyperparams(1.0, 1.0))) == 1
    assert np.isfinite(gram(grid, KernelHyperparams(1.0, 1.0)).logdet())
    # a negative jitter makes that matrix indefinite: [[1 - e, 1], [1, 1 - e]] with e = 1e-6
    # has the second pivot (1 - e) - 1 / (1 - e) = -2e-6 - O(e^2)
    monkeypatch.setattr(kernels, "JITTER", -1e-6)
    with pytest.raises(SingularMatrixError, match=r"pivot -2\.000e-06 at index 1 \(jitter=-1\.000e-06\)"):
        gram(grid, KernelHyperparams(1.0, 1.0))


def test_gram_failure_that_lapack_does_not_see_names_no_pivot(monkeypatch):
    # numpy's and LAPACK's factorizations can disagree at the margin; where LAPACK's
    # succeeds, the error reports the failure without inventing a pivot
    def refuse(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(SingularMatrixError) as info:
        gram(uniform_inducing_grid(5, 4.0), KernelHyperparams(0.9, 0.8))
    assert str(info.value) == "kernel Gram matrix is not positive definite (jitter=9.000e-07); adjust theta"


def test_sparse_mean_zero_coefficients(sparse_mean):
    grid = uniform_inducing_grid(5, 10.0)
    hp = KernelHyperparams(1.0, 1.0)
    gm = gram(grid, hp)
    assert sparse_mean(np.array([0.37]), grid, gm, np.zeros(5), hp)[0] == 0.0


def test_sparse_mean_interpolates_at_inducing_points(rng, sparse_mean):
    grid = uniform_inducing_grid(5, 10.0)
    hp = KernelHyperparams(1.0, 0.5)
    values = se_cross(grid.points, grid.points, hp) + 1e-12 * np.eye(5)
    gm = GramMatrix(values, np.linalg.cholesky(values))
    u = rng.normal(size=5)
    at_points = sparse_mean(grid.points, grid, gm, u, hp)
    np.testing.assert_allclose(at_points, u, rtol=0, atol=1e-6)


def test_sparse_mean_matches_dense_solve(rng, sparse_mean):
    """Projection k(t,.)' K^{-1} u against an independent dense solve, 1e-10."""
    grid = uniform_inducing_grid(5, 10.0)
    hp = KernelHyperparams(1.3, 0.4)
    gm = gram(grid, hp)
    u = rng.normal(size=5)
    t = np.array([0.37, 2.2, 9.9])
    got = sparse_mean(t, grid, gm, u, hp)
    k_t = se_cross(t, grid.points, hp)
    want = k_t @ np.linalg.solve(gm.values, u)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_uniform_grid_layout():
    grid = uniform_inducing_grid(10, 100.0)
    assert grid.count == 10
    assert grid.points[0] == 0.0
    assert grid.points[-1] == 100.0
    assert grid.spacing == pytest.approx(100.0 / 9.0, rel=1e-15)


def test_theta_bounds_ordering():
    low, high = THETA_BOUNDS
    assert 0 < low < high


@pytest.mark.parametrize("shape", [(10,), (10, 1), (10, 10), (10, 3)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_chol_solve_is_scipys_solve_bit_for_bit(shape, order):
    """The one small-solve path gives the bits, and the memory order, of scipy's
    cho_solve and solve_triangular on random SPD systems factored by numpy."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        root = rng.normal(size=(10, 10))
        chol = np.linalg.cholesky(root @ root.T + 0.1 * np.eye(10))
        rhs = np.asarray(rng.normal(size=shape), order=order)
        for got, want in (
            (chol_solve(chol, rhs, "full"), cho_solve((chol, True), rhs)),
            (chol_solve(chol, rhs, "half", half=True), solve_triangular(chol, rhs, lower=True)),
        ):
            assert np.array_equal(got, want)
            assert got.flags.f_contiguous == want.flags.f_contiguous


@pytest.mark.parametrize("half", [False, True])
def test_chol_solve_names_a_non_finite_solution(half):
    chol = np.linalg.cholesky(np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(FloatingPointError, match="probe solve"):
        chol_solve(chol, np.array([1.0, np.nan]), "probe solve", half=half)
