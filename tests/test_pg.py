"""Polya-Gamma moment helpers: closed forms, limits, and branch continuity."""

import numpy as np

from sgp_hawkes.pg import pg_mean, sigmoid

# Reference values computed with 50-digit mpmath: (b/2c)*tanh(c/2).
PG_REFERENCE = {
    0.5: 0.2449186624037091,
    2.0: 0.19039853898894122,
    5.0: 0.09866142981514303,
}


def test_pg_mean_at_zero_tilt():
    assert pg_mean(1.0, 0.0) == 0.25


def test_pg_mean_closed_form_values():
    for c, expected in PG_REFERENCE.items():
        assert abs(pg_mean(1.0, c) - expected) < 1e-15
    assert np.isclose(pg_mean(1.0, 2.0), np.tanh(1.0) / 4.0, rtol=0, atol=1e-16)


def test_pg_mean_even_in_tilt():
    assert pg_mean(1.0, -3.0) == pg_mean(1.0, 3.0)
    c = np.array([-2.0, -0.5, 0.5, 2.0])
    np.testing.assert_array_equal(pg_mean(1.0, c), pg_mean(1.0, -c))


def test_pg_mean_linear_in_b():
    for b in (0.5, 2.0, 7.5):
        assert np.isclose(pg_mean(b, 1.3), b * pg_mean(1.0, 1.3), rtol=1e-15)


def test_pg_mean_small_tilt_branch_matches_series():
    # Near the branch switch the Taylor form b*(1/4 - c^2/48) and the exact
    # tanh form must agree to float precision, whichever one is active.
    for c in (5e-5, 9.9e-5, 1.01e-4, 2e-4):
        taylor = 0.25 - c * c / 48.0
        exact = np.tanh(c / 2.0) / (2.0 * c)
        assert abs(taylor - exact) < 1e-16
        assert abs(pg_mean(1.0, c) - taylor) < 1e-16
    # and both are within float precision of 1/4 - c^2/48 at this scale
    for c in (1e-6, 5e-5, 9e-5):
        assert abs(pg_mean(1.0, c) - (0.25 - c * c / 48.0)) < 1e-16


def test_pg_mean_decreasing_in_tilt_magnitude():
    c = np.linspace(0.0, 20.0, 200)
    vals = pg_mean(1.0, c)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals > 0)


def test_pg_mean_array_shapes():
    c = np.linspace(-3, 3, 12).reshape(3, 4)
    out = pg_mean(2.0, c)
    assert out.shape == c.shape


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    z = np.array([-5.0, -0.3, 0.7, 11.0])
    np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, rtol=0, atol=1e-15)


def test_sigmoid_saturates_without_overflow():
    with np.errstate(over="raise"):
        assert sigmoid(700.0) == 1.0
        tail = sigmoid(-700.0)
    assert 0.0 <= tail < 1e-300


def where_pg_mean(b, c):
    """The two-branch formula pg_mean replaced: np.where over both branches, 1 in for small c."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    small = np.abs(c) < 1e-4
    c_safe = np.where(small, 1.0, c)
    out = np.where(small, b * (0.25 - c * c / 48.0), b * np.tanh(c_safe / 2.0) / (2.0 * c_safe))
    return float(out) if out.ndim == 0 else out


def test_pg_mean_is_the_two_branch_formula_bit_for_bit(rng):
    """The in-place formula with the series fixed up at |c| < 1e-4 gives the bits
    of the two-branch formula on random tilts and on the edges: 0, +-1e-4 and the
    ulps beside it, subnormals, +-inf and large |c|, for scalar and array b."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-150, 1e-8, 40.0, 710.0, 1e20,
             1e300, 8.98846567431158e307, np.finfo(float).max, np.inf]
    edges += [np.nextafter(1e-4, d) for d in (0.0, np.inf)] + [1e-4]
    c = np.concatenate([rng.normal(size=20000) * 3.0, rng.standard_cauchy(2000), edges, np.negative(edges)])
    with np.errstate(over="ignore"):
        for b in (1.0, 2.5, rng.uniform(0.0, 3.0, c.size)):
            assert np.array_equal(pg_mean(b, c), where_pg_mean(b, c))
        for x in c[-2 * len(edges):]:
            assert pg_mean(1.0, x) == where_pg_mean(1.0, x)
            assert isinstance(pg_mean(1.0, x), float)
