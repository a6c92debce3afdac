"""End-to-end command-line behavior, run in process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sgp_hawkes
from sgp_hawkes import cli, fitbase
from sgp_hawkes.cli import _load_split, main
from sgp_hawkes.fitbase import SgpComponent, SgpModel, build_dataset
from sgp_hawkes.kernels import KernelHyperparams, uniform_inducing_grid
from sgp_hawkes.process import write_csv
from sgp_hawkes.serialize import dumps_json, model_to_dict, save_model, write_manifest
from sgp_hawkes.mle import ExpHawkesParams


def write_config(path, payload):
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, out_name, seed=None, config_name="config.json"):
    cfg = write_config(tmp_path / config_name, payload)
    out = tmp_path / out_name
    argv = [command, "--config", cfg, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


SIM_PAYLOAD = {"preset": "case1", "T": 100.0, "n_train": 3, "n_test": 2, "seed": 0}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sim")
    rc, out = run(tmp, "simulate", SIM_PAYLOAD, "data")
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def em_fit_dir(tmp_path_factory, sim_dir):
    tmp = tmp_path_factory.mktemp("emfit")
    rc, out = run(
        tmp,
        "fit",
        {"method": "em", "data": str(sim_dir), "tol": 1e-3, "max_iter": 60},
        "fit",
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_deterministic_artifacts(tmp_path):
    payload = {"preset": "case1", "T": 30.0, "n_train": 2, "n_test": 1, "seed": 4}
    rc_a, out_a = run(tmp_path, "simulate", payload, "a")
    rc_b, out_b = run(tmp_path, "simulate", payload, "b")
    assert rc_a == rc_b == 0
    for name in ("train_000.csv", "train_001.csv", "test_000.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    echo = json.loads((out_a / "config_echo.json").read_text())
    assert echo["command"] == "simulate"
    assert echo["config"]["seed"] == 4
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["T"] == 30.0 and manifest["T_phi"] == 6.0
    assert manifest["preset"] == "case1"


def test_simulate_replicate_seeding_rule(tmp_path):
    # train i uses seed + i and test j uses seed + n_train + j, so shifting the
    # base seed must reproduce individual replicates exactly
    base = {"preset": "case1", "T": 20.0, "n_train": 2, "n_test": 1, "seed": 5}
    _, out5 = run(tmp_path, "simulate", base, "s5")
    _, out6 = run(tmp_path, "simulate", {**base, "seed": 6}, "s6")
    _, out7 = run(tmp_path, "simulate", {**base, "seed": 7}, "s7")
    assert (out5 / "train_001.csv").read_bytes() == (out6 / "train_000.csv").read_bytes()
    assert (out5 / "test_000.csv").read_bytes() == (out7 / "train_000.csv").read_bytes()


def test_simulate_manifest_only(tmp_path):
    rc, out = run(
        tmp_path, "simulate", {"preset": "case2", "n_train": 0, "n_test": 0, "seed": 0}, "o"
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_events_total"] == 0
    assert not list(out.glob("*.csv"))


def test_simulate_custom_tables(tmp_path):
    rates = {
        "mu_t": [0.0, 5.0, 10.0],
        "mu_value": [1.0, 2.0, 1.0],
        "phi_tau": [0.0, 1.0],
        "phi_value": [0.5, 0.0],
    }
    payload = {"rates": rates, "T": 10.0, "T_phi": 1.0, "n_train": 1, "n_test": 0, "seed": 1}
    rc, out = run(tmp_path, "simulate", payload, "ok")
    assert rc == 0
    assert (out / "train_000.csv").read_text().startswith("t\n")

    incomplete = {k: v for k, v in rates.items() if k != "phi_value"}
    rc, _ = run(tmp_path, "simulate", {**payload, "rates": incomplete}, "bad1", config_name="c1.json")
    assert rc == 1
    no_window = {k: v for k, v in payload.items() if k != "T"}
    rc, _ = run(tmp_path, "simulate", no_window, "bad2", config_name="c2.json")
    assert rc == 1


def test_simulate_reports_a_rate_table_that_table_rates_rejects(tmp_path, capsys):
    rates = {"mu_t": [0.0, 10.0], "mu_value": [1.0, -1.0], "phi_tau": [0.0, 1.0], "phi_value": [0.1, 0.1]}
    rc, out = run(tmp_path, "simulate", {"rates": rates, "T": 10.0, "T_phi": 1.0}, "x")
    assert rc == 1
    assert capsys.readouterr().err == "error: rate tables must be non-negative\n"
    assert not out.exists()


def test_simulate_rejects_unknown_preset_and_keys(tmp_path, capsys):
    rc, _ = run(tmp_path, "simulate", {"preset": "case9"}, "x1", config_name="c1.json")
    assert rc == 1
    assert "case9" in capsys.readouterr().err
    rc, _ = run(tmp_path, "simulate", {"preset": "case1", "bogus": 1}, "x2", config_name="c2.json")
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("T_phi", 2.0), ("rates", {"bogus": 1})])
def test_simulate_rejects_preset_overrides(tmp_path, capsys, key, value):
    """A preset fixes its own trigger window and rates, so either key next to it is an error."""
    rc, out = run(tmp_path, "simulate", {"preset": "case1", "T": 20.0, "n_train": 1, key: value}, "x")
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit


def test_fit_em_converges_with_full_artifacts(em_fit_dir):
    model = json.loads((em_fit_dir / "model.json").read_text())
    assert model["method"] == "em"
    assert model["T"] == 100.0 and model["T_phi"] == 6.0
    report = json.loads((em_fit_dir / "report.json").read_text())
    assert report["converged"] is True
    assert report["n_iter"] <= 60
    assert (em_fit_dir / "estimates_mu.csv").read_text().startswith("x,value\n")
    lines = (em_fit_dir / "estimates_phi.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 200  # header + fitbase.REPORT_GRID rows


def test_fit_em_hits_iteration_cap(tmp_path, sim_dir, capsys):
    rc, out = run(tmp_path, "fit", {"method": "em", "data": str(sim_dir), "max_iter": 2}, "f")
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err
    # partial artifacts are still written and flagged
    assert json.loads((out / "report.json").read_text())["converged"] is False
    assert (out / "model.json").exists()
    assert (out / "estimates_mu.csv").exists()


def test_fit_vi_writes_uncertainty_column(tmp_path, sim_dir):
    rc, out = run(
        tmp_path,
        "fit",
        {"method": "vi", "data": str(sim_dir), "tol": 1e-3, "max_iter": 60},
        "f",
    )
    assert rc == 0
    assert json.loads((out / "model.json").read_text())["method"] == "vi"
    header = (out / "estimates_mu.csv").read_text().splitlines()[0]
    assert header == "x,value,std"


def fit_under_blas_threads(tmp_path, payload, threads):
    """CLI fit of ``payload`` in a fresh interpreter with ``threads`` BLAS threads."""
    cfg = write_config(tmp_path / "fit.json", payload)
    src = str(Path(sgp_hawkes.__file__).resolve().parents[1])
    out = tmp_path / f"fit_{threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "sgp_hawkes.cli", "fit", "--config", cfg, "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr  # a fixed sweep budget with tol 0 ends at the cap
    return out


def test_fit_vi_output_does_not_depend_on_blas_threads(tmp_path):
    # the same config must give the same bytes whatever the BLAS thread count
    rc, data = run(tmp_path, "simulate", {"preset": "case2", "n_train": 2, "n_test": 0, "seed": 3}, "data")
    assert rc == 0
    payload = {"method": "vi", "data": str(data), "max_iter": 12, "tol": 0.0, "hyper_refresh_every": 5}
    names = ("model.json", "estimates_mu.csv", "estimates_phi.csv")
    outputs = []
    for threads in ("1", "2"):
        out = fit_under_blas_threads(tmp_path, payload, threads)
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def many_pairs_dir(tmp_path_factory):
    """18 case1 windows, about 98k admissible pairs: at this size OpenBLAS splits a
    matrix-vector or dot product over the pairs between threads, which changes its bits."""
    tmp = tmp_path_factory.mktemp("many_pairs")
    rc, out = run(tmp, "simulate", {"preset": "case1", "n_train": 18, "n_test": 0, "seed": 3}, "data")
    assert rc == 0
    manifest, seqs = _load_split(out, "train")
    assert build_dataset(seqs, float(manifest["T_phi"])).n_pairs >= 40_000
    return out


@pytest.mark.parametrize("method", ["em", "vi"])
def test_fit_at_many_pairs_does_not_depend_on_blas_threads(tmp_path, many_pairs_dir, method):
    """Three sweeps with a theta refresh: the same model.json and report (but its
    runtime) under one and two BLAS threads."""
    payload = {"method": method, "data": str(many_pairs_dir), "max_iter": 3, "tol": 0.0, "hyper_refresh_every": 3}
    outputs = []
    for threads in ("1", "2"):
        out = fit_under_blas_threads(tmp_path, payload, threads)
        report = json.loads((out / "report.json").read_text())
        report.pop("runtime_seconds")
        outputs.append(((out / "model.json").read_bytes(), report))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("method", ["em", "vi"])
def test_fit_non_finite_gaussian_solve_is_a_numerical_failure(tmp_path, sim_dir, monkeypatch, capsys, method):
    assemble = fitbase.assemble_system

    def nan_c(stats, cache):
        u_mat, c_vec = assemble(stats, cache)
        return u_mat, np.full_like(c_vec, np.nan)

    monkeypatch.setattr(fitbase, "assemble_system", nan_c)
    rc, _ = run(tmp_path, "fit", {"method": method, "data": str(sim_dir), "max_iter": 3}, "f")
    assert rc == 2
    assert "numerical failure: GP update mean" in capsys.readouterr().err


def test_fit_mle_model_schema(tmp_path, sim_dir):
    rc, out = run(tmp_path, "fit", {"method": "mle", "data": str(sim_dir)}, "f")
    assert rc == 0
    model = json.loads((out / "model.json").read_text())
    assert set(model) == {"method", "mu", "alpha", "beta"}
    assert model["method"] == "mle"
    assert 0.0 < model["alpha"] / model["beta"] < 1.0


def test_fit_missing_manifest_names_path(tmp_path, capsys):
    empty = tmp_path / "nodata"
    empty.mkdir()
    rc, _ = run(tmp_path, "fit", {"method": "em", "data": str(empty)}, "f")
    assert rc == 1
    err = capsys.readouterr().err
    assert "manifest" in err and str(empty) in err


def test_fit_config_validation(tmp_path, sim_dir, capsys):
    rc, _ = run(tmp_path, "fit", {"method": "gibbs", "data": str(sim_dir)}, "f1", config_name="c1.json")
    assert rc == 1
    rc, _ = run(tmp_path, "fit", {"method": "em"}, "f2", config_name="c2.json")
    assert rc == 1
    rc, _ = run(
        tmp_path, "fit", {"method": "em", "data": str(sim_dir), "n_iter": 3}, "f3", config_name="c3.json"
    )
    assert rc == 1
    assert "n_iter" in capsys.readouterr().err  # unknown key is named


def test_fit_mle_rejects_engine_keys(tmp_path, sim_dir, capsys):
    rc, _ = run(tmp_path, "fit", {"method": "mle", "data": str(sim_dir), "tol": 5}, "f")
    assert rc == 1
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("fix_variance", "no"),
        ("fix_variance", 1),
        ("tol", -1),
        ("tol", float("nan")),
        ("hyper_refresh_every", -2),
        ("eval_grid", 0),
        ("eval_grid", 1),
        ("theta0_init", -5),
        ("theta0_init", 0),
        ("theta0_init", float("inf")),
        ("theta1_init", -1.0),
        ("theta1_init", float("nan")),
        ("quad_order_T", 0),
        ("quad_order_Tphi", 0),
        ("gh_order", 0),
        ("S_mu", 4.5),
        ("S_phi", "10"),
        ("max_iter", True),
        ("seed", 1),
        ("split", "test"),
        ("max_sequences", 2),
    ],
)
def test_fit_rejects_invalid_settings(tmp_path, sim_dir, capsys, key, value):
    rc, out = run(tmp_path, "fit", {"method": "em", "data": str(sim_dir), key: value}, "f")
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_broken_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert main(["fit", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "missing.json" in err


# ---------------------------------------------------------------------------
# eval


def test_eval_metrics_and_qq(tmp_path, sim_dir, em_fit_dir):
    payload = {"model": str(em_fit_dir / "model.json"), "data": str(sim_dir)}
    rc, out = run(tmp_path, "eval", payload, "e")
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {
        "test_ll_mean", "test_ll_sum", "est_err_mu", "est_err_phi",
        "ks_distance", "ks_p", "n_sequences", "n_rescaled", "n_clamped",
    }
    assert metrics["n_sequences"] == 2
    assert metrics["test_ll_sum"] == pytest.approx(2 * metrics["test_ll_mean"], rel=1e-12)
    # the manifest records the generating preset, so estimation error is filled in
    assert metrics["est_err_mu"] is not None and metrics["est_err_phi"] > 0.0
    assert 0.0 < metrics["ks_distance"] < 1.0 and 0.0 <= metrics["ks_p"] <= 1.0
    qq = (out / "qq.csv").read_text().splitlines()
    assert qq[0] == "theoretical,empirical"
    assert len(qq) == 1 + metrics["n_rescaled"]
    first = [float(v) for v in qq[1].split(",")]
    assert 0.0 < first[0] < 1.0 and 0.0 <= first[1] < 1.0


def test_eval_empty_holdout(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_manifest(data / "manifest.json", 10.0, 2.0)
    write_csv(data / "test_000.csv", "t", np.empty(0))
    model_path = tmp_path / "model.json"
    save_model(model_path, ExpHawkesParams(1.5, 0.0, 1.0))
    rc, out = run(tmp_path, "eval", {"model": str(model_path), "data": str(data)}, "e")
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["test_ll_mean"] == pytest.approx(-15.0, abs=1e-9)
    assert metrics["ks_distance"] is None and metrics["ks_p"] is None
    assert metrics["est_err_mu"] is None  # no preset recorded, no truth to compare
    assert (out / "qq.csv").read_text() == "theoretical,empirical\n"


def test_eval_rate_table_miss_exits_2(tmp_path, sim_dir, capsys):
    # length scale 1e-3: no spline table within the size cap meets its tolerance
    def comp(span):
        return SgpComponent(uniform_inducing_grid(10, span), KernelHyperparams(1.0, 1e6), np.full(10, 3.0), None, 2.0)

    model_path = tmp_path / "model.json"
    save_model(model_path, SgpModel(mu=comp(100.0), phi=comp(6.0), T=100.0, T_phi=6.0))
    rc, _ = run(tmp_path, "eval", {"model": str(model_path), "data": str(sim_dir)}, "e")
    assert rc == 2
    assert "misses its tolerance" in capsys.readouterr().err


def test_eval_missing_model(tmp_path, sim_dir, capsys):
    rc, _ = run(
        tmp_path, "eval", {"model": str(tmp_path / "nope.json"), "data": str(sim_dir)}, "e"
    )
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


def test_eval_rejects_holdout_longer_than_model_window(tmp_path, em_fit_dir, capsys):
    # the EM model is fitted on T = 100, so its rates exist only on [0, 100]
    sim = {"preset": "case1", "T": 200.0, "n_train": 0, "n_test": 1, "seed": 0}
    rc, data = run(tmp_path, "simulate", sim, "data")
    assert rc == 0
    rc, out = run(tmp_path, "eval", {"model": str(em_fit_dir / "model.json"), "data": str(data)}, "e")
    assert rc == 1
    err = capsys.readouterr().err
    assert "T=200" in err and "T=100" in err
    assert not out.exists()


def test_eval_rejects_quad_order(tmp_path, sim_dir, em_fit_dir, capsys):
    # both compensators are exact antiderivatives: no quadrature order is read
    payload = {"model": str(em_fit_dir / "model.json"), "data": str(sim_dir), "quad_order": 200}
    rc, out = run(tmp_path, "eval", payload, "e")
    assert rc == 1
    assert "quad_order" in capsys.readouterr().err
    assert not (out / "metrics.json").exists()


def test_eval_rejects_a_model_file_that_is_not_an_object(tmp_path, sim_dir, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text("[1, 2]")
    rc, out = run(tmp_path, "eval", {"model": str(model_path), "data": str(sim_dir)}, "e")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object" in err and "list" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, missing",
    [
        ({"method": "em"}, "em model lacks keys T, T_phi, mu, phi"),
        ({"method": "mle", "mu": 0.5}, "mle model lacks keys alpha, beta"),
    ],
    ids=["em", "mle"],
)
def test_eval_names_the_model_file_and_its_missing_keys(tmp_path, sim_dir, capsys, payload, missing):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    rc, out = run(tmp_path, "eval", {"model": str(model_path), "data": str(sim_dir)}, "e")
    assert rc == 1
    assert capsys.readouterr().err == f"error: model file {model_path}: {missing}\n"
    assert not out.exists()


@pytest.mark.parametrize("broken", ["missing", "not-an-object"])
def test_eval_names_the_model_file_of_a_broken_component(tmp_path, sim_dir, em_fit_dir, capsys, broken):
    model = json.loads((em_fit_dir / "model.json").read_text())
    if broken == "missing":
        del model["phi"]["u"]
    else:
        model["phi"] = 3
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model))
    rc, out = run(tmp_path, "eval", {"model": str(model_path), "data": str(sim_dir)}, "e")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: model file {model_path}: ")
    assert "'u'" in err if broken == "missing" else "int" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_timing_table(tmp_path):
    payload = {"method": "em", "sizes": [50, 100], "iters": 2, "repeats": 1, "seed": 0}
    rc, out = run(tmp_path, "bench", payload, "b")
    assert rc == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,seconds"
    assert len(lines) == 3
    ns = [int(row.split(",")[0]) for row in lines[1:]]
    assert ns == [50, 100]
    assert all(float(row.split(",")[1]) > 0.0 for row in lines[1:])


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("simulate", {"preset": "case1", "n_train": -1}, "n_train must be an integer >= 0, got -1"),
        ("simulate", {"preset": "case1", "T": 1e400}, "T must be a positive finite number, got inf"),
        ("bench", {"method": "em", "sizes": [50], "iters": True}, "iters must be an integer >= 1, got True"),
        ("bench", {"method": "em", "sizes": [50], "S_mu": 1}, "S_mu must be an integer >= 2, got 1"),
    ],
)
def test_cli_and_fit_config_share_one_wording_per_rule(tmp_path, capsys, command, payload, message):
    """The CLI's own integers and windows and FitConfig's fields go through the same checks
    (fitbase.check_int and check_positive), so each rule has one message."""
    rc, out = run(tmp_path, command, payload, "x")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bench_rejects_bad_sizes(tmp_path):
    for bad in ("nope", [], [5], [100.5]):
        rc, _ = run(tmp_path, "bench", {"method": "em", "sizes": bad}, "b", config_name=f"c{len(str(bad))}.json")
        assert rc == 1


@pytest.mark.parametrize("method, key", [("em", "quad_order_T"), ("em", "quad_order_Tphi")])
def test_bench_honours_quadrature_keys(tmp_path, capsys, method, key):
    # each key alone, with a method that reads it: an order of 0 must reach the fit
    payload = {"method": method, "sizes": [50], "iters": 2, key: 0}
    rc, _ = run(tmp_path, "bench", payload, "b")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "bench"])
def test_gh_order_is_an_unknown_key(tmp_path, sim_dir, capsys, command):
    # the Gauss-Hermite order follows the variance (quadrature.hermite_order)
    payload = {"method": "vi", "data": str(sim_dir)} if command == "fit" else {"method": "vi", "sizes": [50]}
    rc, out = run(tmp_path, command, {**payload, "gh_order": 30}, "o")
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown" in err and "gh_order" in err
    assert not (out / "model.json").exists() and not (out / "bench.csv").exists()


TABLES = {"mu_t": [0.0, 10.0], "mu_value": [1.0, 1.0], "phi_tau": [0.0, 1.0], "phi_value": [0.1, 0.1]}


def spoiled_model(path, spoil):
    """An EM model file on the simulated windows (5 inducing points per component), its dict changed by ``spoil``
    and written by Python's json, which writes NaN and Infinity as bare tokens."""

    def comp(span):
        return SgpComponent(uniform_inducing_grid(5, span), KernelHyperparams(1.0, 0.1), np.zeros(5), None, 2.0)

    model = json.loads(dumps_json(model_to_dict(SgpModel(mu=comp(100.0), phi=comp(6.0), T=100.0, T_phi=6.0))))
    spoil(model)
    path.write_text(json.dumps(model))


SPOILED_MODELS = {  # file name -> change of a valid model's dict
    "short-u.json": lambda d: d["mu"].update(u=d["mu"]["u"][:3]),  # 3 values for 5 inducing points
    "nan-lambda.json": lambda d: d["mu"].update(lambda_star=float("nan")),
}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("fit", {"method": "em", "data": "SIM", "tol": -1}),
        ("fit", {"method": "em", "data": "no-such-dir"}),
        ("eval", {"model": "no-such-model.json", "data": "SIM"}),
        ("eval", {"model": "short-u.json", "data": "SIM"}),
        ("eval", {"model": "nan-lambda.json", "data": "SIM"}),
        ("bench", {"method": "em", "sizes": [50], "S_mu": 0}),
        ("simulate", {"preset": "case1", "T": -5}),
        ("simulate", {"preset": "case2", "T": 0}),
        ("simulate", {"preset": "case1", "T": "NaN"}),
        ("simulate", '{"preset": "case1", "T": 1e400}'),  # raw JSON text: parses as inf
        ("simulate", {"rates": TABLES, "T": 10.0, "T_phi": -1.0}),
        ("simulate", {"rates": TABLES, "T": 10.0, "T_phi": "NaN"}),
        ("simulate", {"rates": TABLES, "T": 10.0}),
        # raw JSON text: Python's json parses NaN and Infinity
        ("simulate", '{"rates": {"mu_t": [0, 10], "mu_value": [NaN, 1], "phi_tau": [0, 1], "phi_value": [0.1, 0.1]},'
                     ' "T": 10, "T_phi": 1}'),
        ("simulate", '{"rates": {"mu_t": [0, 10], "mu_value": [1, 1], "phi_tau": [0, 1], "phi_value": [Infinity, 0.1]},'
                     ' "T": 10, "T_phi": 1}'),
    ],
    ids=[
        "fit-tol", "fit-missing-data", "eval-missing-model", "eval-short-u", "eval-nan-lambda", "bench-S_mu",
        "simulate-T-negative", "simulate-T-zero",
        "simulate-T-string", "simulate-T-overflow", "simulate-T_phi-negative", "simulate-T_phi-string",
        "simulate-T_phi-missing", "simulate-mu_value-NaN", "simulate-phi_value-Infinity",
    ],
)
def test_rejected_config_creates_no_output_directory(tmp_path, sim_dir, command, payload):
    # every check runs before --out is created, so a run that exits 1 leaves nothing behind
    paths = {"SIM": str(sim_dir)}
    if isinstance(payload, dict) and payload.get("model") in SPOILED_MODELS:
        spoiled_model(tmp_path / payload["model"], SPOILED_MODELS[payload["model"]])
    if isinstance(payload, dict):
        payload = {k: paths.get(v, str(tmp_path / v)) if k in ("data", "model") else v for k, v in payload.items()}
    rc, out = run(tmp_path, command, payload, "out")
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "name, fault",
    [("short-u.json", "component mu: 5 inducing points but inducing values of shape (3,)"),
     ("nan-lambda.json", "NaN is not a finite number\n")],
)
def test_eval_names_the_fault_of_a_model_file(tmp_path, sim_dir, capsys, name, fault):
    spoiled_model(tmp_path / name, SPOILED_MODELS[name])
    rc, out = run(tmp_path, "eval", {"model": str(tmp_path / name), "data": str(sim_dir)}, "out")
    assert rc == 1 and not out.exists()
    assert f"error: model file {tmp_path / name}: {fault}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# shared plumbing


def test_seed_flag_overrides_config(tmp_path):
    payload = {"preset": "case1", "T": 20.0, "n_train": 1, "n_test": 0, "seed": 3}
    rc, forced = run(tmp_path, "simulate", payload, "forced", seed=9)
    assert rc == 0
    echo = json.loads((forced / "config_echo.json").read_text())
    assert echo["config"]["seed"] == 9
    _, native = run(tmp_path, "simulate", {**payload, "seed": 9}, "native")
    assert (forced / "train_000.csv").read_bytes() == (native / "train_000.csv").read_bytes()


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_fit_and_eval_take_no_seed(tmp_path, sim_dir, em_fit_dir, capsys, command):
    # the fits and the scoring are deterministic: a seed key or a --seed flag exits 1 before --out exists
    if command == "fit":
        payload = {"method": "em", "data": str(sim_dir)}
    else:
        payload = {"model": str(em_fit_dir / "model.json"), "data": str(sim_dir)}
    rc, keyed = run(tmp_path, command, {**payload, "seed": 1}, "keyed", config_name="keyed.json")
    assert rc == 1 and not keyed.exists()
    err = capsys.readouterr().err
    assert "unknown" in err and "seed" in err
    rc, flagged = run(tmp_path, command, payload, "flagged", seed=1)
    assert rc == 1 and not flagged.exists()
    assert "--seed" in capsys.readouterr().err


def test_bench_seed_flag_reaches_its_sequences(tmp_path, monkeypatch):
    seen = []
    simulate = cli._bench_sequence
    monkeypatch.setattr(cli, "_bench_sequence", lambda preset, n, seed: seen.append(seed) or simulate(preset, n, seed))
    payload = {"method": "em", "sizes": [50], "iters": 1, "seed": 0}
    rc, out = run(tmp_path, "bench", payload, "b", seed=7)
    assert rc == 0
    assert seen == [7]
    assert json.loads((out / "config_echo.json").read_text())["config"]["seed"] == 7


def test_usage_errors(tmp_path):
    assert main(["frobnicate", "--config", "c", "--out", "o"]) == 1
    assert main(["simulate", "--out", str(tmp_path / "o")]) == 1  # --config required
