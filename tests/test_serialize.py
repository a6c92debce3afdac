"""Deterministic JSON output and exact model round trips."""

import json
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sgp_hawkes import FitConfig, fit_em, fit_vi, rescale, simulate_thinning
from sgp_hawkes.em import EmModel, SgpComponent
from sgp_hawkes.evaluation import test_ll as held_out_ll
from sgp_hawkes.fitbase import FitReport, model_rates
from sgp_hawkes.kernels import InducingGrid, KernelHyperparams, gram, uniform_inducing_grid
from sgp_hawkes.mle import ExpHawkesParams, model_rates as mle_rates
from sgp_hawkes.process import CASE_T, CASE_T_PHI, case1_rates, case2_rates
from sgp_hawkes.quadrature import gauss_legendre
from sgp_hawkes.serialize import (
    dumps_json,
    load_json,
    load_model,
    model_from_dict,
    model_to_dict,
    rates_for_eval,
    report_to_dict,
    save_json,
    save_model,
)
from sgp_hawkes.vi import GammaFactor, GaussianFactor, ViComponent, ViModel

AWKWARD_FLOATS = [
    np.pi,
    1.0 / 3.0,
    0.1,
    2.0 / 3.0,
    1e-300,
    1e300,
    5e-324,  # smallest subnormal
    np.nextafter(1.0, 2.0),
    -7.234567890123456e-12,
]


def test_floats_round_trip_exactly():
    for x in AWKWARD_FLOATS:
        assert json.loads(dumps_json(x)) == x


def test_output_is_byte_deterministic():
    payload = {"a": AWKWARD_FLOATS, "b": {"c": [1, 2, 3], "d": "text"}, "e": None, "f": True}
    assert dumps_json(payload) == dumps_json(dict(payload))
    assert dumps_json(np.float64(0.1)) == dumps_json(0.1) == "0.10000000000000001"


def test_rejects_non_finite_and_unknown_types():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            dumps_json({"x": bad})
    with pytest.raises(TypeError):
        dumps_json({"x": {1, 2}})
    with pytest.raises(TypeError):
        dumps_json({1: "non-string key"})


def test_nested_structures_parse_back():
    obj = {
        "arr": np.array([[1.5, 2.5], [3.5, 4.5]]),
        "mixed": [1, "s", None, False, {"deep": np.array([0.25])}],
        "empty_list": [],
        "empty_dict": {},
        "int": np.int64(42),
    }
    back = json.loads(dumps_json(obj))
    assert back["arr"] == [[1.5, 2.5], [3.5, 4.5]]
    assert back["mixed"] == [1, "s", None, False, {"deep": [0.25]}]
    assert back["empty_list"] == [] and back["empty_dict"] == {}
    assert back["int"] == 42


def test_save_json_ends_with_single_newline(tmp_path):
    path = tmp_path / "out.json"
    save_json(path, {"k": 1.0})
    text = path.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert load_json(path) == {"k": 1.0}


def em_model_fixture(rng):
    def comp(span, s):
        grid = InducingGrid(np.linspace(0.0, span, s), span)
        return SgpComponent(
            lambda_star=float(rng.uniform(1.0, 4.0)),
            grid=grid,
            u=rng.normal(size=s),
            hp=KernelHyperparams(1.0, float(rng.uniform(0.01, 0.2))),
        )

    return EmModel(mu=comp(20.0, 7), phi=comp(4.0, 5), T=20.0, T_phi=4.0)


def test_em_model_round_trip(tmp_path, rng):
    model = em_model_fixture(rng)
    path = tmp_path / "em.json"
    save_model(path, model)
    back = load_model(path)
    assert isinstance(back, EmModel)
    assert back.mu.lambda_star == model.mu.lambda_star
    np.testing.assert_array_equal(back.mu.u, model.mu.u)
    np.testing.assert_array_equal(back.phi.grid.points, model.phi.grid.points)
    assert back.phi.hp.theta1 == model.phi.hp.theta1
    t = np.linspace(0.0, 20.0, 61)
    x = np.linspace(0.0, 4.0, 41)
    np.testing.assert_array_equal(model_rates(back).mu(t), model_rates(model).mu(t))
    np.testing.assert_array_equal(model_rates(back).phi(x), model_rates(model).phi(x))


def vi_model_fixture(rng):
    def comp(span, s):
        grid = InducingGrid(np.linspace(0.0, span, s), span)
        hp = KernelHyperparams(1.0, 0.08)
        cov = gram(grid, hp).values  # any SPD matrix works here
        return ViComponent(GaussianFactor(rng.normal(size=s), cov), GammaFactor(3.2, 1.1), grid, hp)

    return ViModel(mu=comp(15.0, 6), phi=comp(3.0, 4), T=15.0, T_phi=3.0)


def test_vi_model_round_trip(tmp_path, rng):
    model = vi_model_fixture(rng)
    path = tmp_path / "vi.json"
    save_model(path, model)
    back = load_model(path)
    assert isinstance(back, ViModel)
    np.testing.assert_array_equal(back.mu.gp.mean, model.mu.gp.mean)
    np.testing.assert_array_equal(back.phi.gp.cov, model.phi.gp.cov)
    assert back.mu.lam.alpha == 3.2 and back.phi.lam.beta == 1.1
    t = np.linspace(0.0, 15.0, 31)
    np.testing.assert_array_equal(model_rates(back).mu(t), model_rates(model).mu(t))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def any_model(draw):
    """Any valid EM, VI or exponential-MLE model, its floats drawn from the whole double range."""
    method = draw(st.sampled_from(["em", "vi", "mle"]))
    if method == "mle":
        non_negative = st.floats(min_value=0.0, allow_infinity=False)
        return ExpHawkesParams(draw(non_negative), draw(non_negative), draw(POSITIVE))
    windows = {"mu": draw(POSITIVE), "phi": draw(POSITIVE)}
    comps = {}
    for name, domain in windows.items():
        points = np.unique(draw(st.lists(st.floats(0.0, domain), min_size=1, max_size=4)))
        grid, hp = InducingGrid(points, domain), KernelHyperparams(draw(POSITIVE), draw(POSITIVE))
        values = np.array(draw(st.lists(FINITE, min_size=points.size, max_size=points.size)))
        if method == "em":
            comps[name] = SgpComponent(draw(FINITE), grid, values, hp)
        else:
            cov = np.array(draw(st.lists(FINITE, min_size=points.size**2, max_size=points.size**2)))
            gp = GaussianFactor(values, cov.reshape(points.size, points.size))
            comps[name] = ViComponent(gp, GammaFactor(draw(POSITIVE), draw(POSITIVE)), grid, hp)
    return (EmModel if method == "em" else ViModel)(**comps, T=windows["mu"], T_phi=windows["phi"])


def float_bits(d: dict) -> np.ndarray:
    """Every number of a model dict, in order, as the raw bits of its float64."""
    flat = []
    for value in d.values():
        if isinstance(value, dict):
            flat += float_bits(value).tolist()
        elif not isinstance(value, str):
            flat += np.ravel(np.asarray(value, dtype=float)).view(np.int64).tolist()
    return np.array(flat, dtype=np.int64)


NEGATIVE_ZEROS = SgpComponent(-0.0, InducingGrid(np.array([0.0, 1.0]), 1.0), np.array([-0.0, 0.0]), KernelHyperparams(1.0, 1.0))


@given(any_model())
@example(EmModel(mu=NEGATIVE_ZEROS, phi=NEGATIVE_ZEROS, T=1.0, T_phi=1.0))
def test_any_model_round_trips_byte_for_byte(tmp_path_factory, model):
    """save_model -> load_model gives the same type and the same float64 bits,
    signs of zeros included, and saving the loaded model writes the same bytes."""
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    save_model(path, model)
    written = path.read_bytes()
    back = load_model(path)
    assert type(back) is type(model)
    np.testing.assert_array_equal(float_bits(model_to_dict(back)), float_bits(model_to_dict(model)))
    save_model(path, back)
    assert path.read_bytes() == written


def test_mle_round_trip_and_rates_guard(tmp_path):
    params = ExpHawkesParams(1.1, 0.3, 0.9)
    path = tmp_path / "mle.json"
    save_model(path, params)
    back = load_model(path)
    assert back == params
    with pytest.raises(ValueError):
        rates_for_eval(back)
    rates = rates_for_eval(back, t_phi=50.0)
    assert rates.T_phi == 50.0
    assert float(rates.mu(np.array([3.0]))[0]) == 1.1


def test_rates_for_eval_keeps_mle_closed_forms():
    params = ExpHawkesParams(1.1, 0.3, 0.9)
    rates, exact = rates_for_eval(params, t_phi=50.0), mle_rates(params, 50.0)
    x = np.linspace(0.0, 50.0, 1001)
    for name in ("mu", "phi", "mu_integral", "phi_integral"):
        np.testing.assert_array_equal(getattr(rates, name)(x), getattr(exact, name)(x))


@pytest.mark.parametrize("preset", [case1_rates, case2_rates], ids=["case1", "case2"])
@pytest.mark.parametrize("fit", [fit_em, fit_vi])
def test_rates_for_eval_tables_match_exact_adapters(preset, fit, quadrature_antiderivatives):
    truth = preset()
    train = [simulate_thinning(truth, CASE_T, seed=s) for s in range(3)]
    model, _ = fit(train, FitConfig(T=CASE_T, T_phi=CASE_T_PHI, max_iter=40))
    exact = quadrature_antiderivatives(model_rates(model))
    table = rates_for_eval(model)
    quad = gauss_legendre(200, 0.0, CASE_T)
    for s in range(900, 903):
        seq = simulate_thinning(truth, CASE_T, seed=s)
        assert abs(held_out_ll(table, seq, quad) - held_out_ll(exact, seq, quad)) <= 1e-6
        np.testing.assert_allclose(rescale(table, seq, quad).z, rescale(exact, seq, quad).z, rtol=0, atol=1e-9)


def em_model(u, theta1=None):
    """EM model with the same inducing values on both components."""

    def comp(span):
        grid = uniform_inducing_grid(u.size, span)
        return SgpComponent(2.0, grid, u, KernelHyperparams(1.0, theta1 or 1.0 / grid.spacing**2))

    return EmModel(mu=comp(CASE_T), phi=comp(CASE_T_PHI), T=CASE_T, T_phi=CASE_T_PHI)


@pytest.mark.parametrize(
    "model",
    [
        em_model(np.random.default_rng(0).normal(scale=3.0, size=10), theta1=1e3),  # narrow bumps
        em_model(20.0 * np.array([1, 1, 1, 1, -1, -1, 1, 1, 1, 1.0])),  # dips to ~1e-13 of the maximum
    ],
    ids=["theta1-1e3", "deep-dip"],
)
def test_rate_tables_of_stress_models(model):
    start = time.perf_counter()
    table = rates_for_eval(model)
    assert time.perf_counter() - start < 1.0
    exact = model_rates(model)
    for name, x in (("mu", np.linspace(0.0, CASE_T, 200_001)), ("phi", np.linspace(1e-9, CASE_T_PHI, 200_001))):
        want, got = getattr(exact, name)(x), getattr(table, name)(x)
        assert np.all(got >= 0.0)
        # 1e-10 of the maximum at cell midpoints; elsewhere in a cell within 10x that
        assert np.max(np.abs(got - want)) <= 1e-9 * want.max()


def test_model_dict_layout(rng):
    """The on-disk model format: exact keys, in order, for every method."""
    em_keys = ["lambda_star", "inducing_points", "domain", "u", "theta0", "theta1"]
    vi_keys = ["alpha", "beta", "inducing_points", "domain", "mean", "cov", "theta0", "theta1"]
    for method, model, keys in (("em", em_model_fixture(rng), em_keys), ("vi", vi_model_fixture(rng), vi_keys)):
        d = model_to_dict(model)
        assert list(d) == ["method", "T", "T_phi", "mu", "phi"] and d["method"] == method
        assert list(d["mu"]) == list(d["phi"]) == keys
    d = model_to_dict(ExpHawkesParams(0.5, 0.3, 1.2))
    assert list(d) == ["method", "mu", "alpha", "beta"] and d["method"] == "mle"


def test_model_dict_rejects_unknown():
    with pytest.raises(TypeError):
        model_to_dict(object())
    with pytest.raises(ValueError):
        model_from_dict({"method": "nope"})
    with pytest.raises(TypeError):
        rates_for_eval(object(), t_phi=1.0)


def test_report_to_dict_is_json_ready():
    report = FitReport(
        method="em",
        converged=True,
        n_iter=12,
        runtime_seconds=0.5,
        objective_trace=[-3.0, -2.5],
        hyper_history=[{"mu": {"theta0": 1.0, "theta1": 0.1}}],
        warnings=["w"],
        grid_mu=np.zeros(3),
        mu_hat=np.zeros(3),
        grid_phi=np.zeros(3),
        phi_hat=np.zeros(3),
    )
    d = report_to_dict(report)
    assert set(d) == {
        "method", "converged", "n_iter", "runtime_seconds",
        "objective_trace", "hyper_history", "warnings",
    }
    parsed = json.loads(dumps_json(d))
    assert parsed["objective_trace"] == [-3.0, -2.5]
    assert parsed["hyper_history"][0]["mu"]["theta1"] == 0.1
