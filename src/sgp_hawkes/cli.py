"""Batch command-line front end: simulate | fit | eval | bench.

Every command reads one JSON config (--config), writes its artifacts plus a
``config_echo.json`` into --out, and is fully reproducible from its config;
``simulate`` and ``bench`` take a --seed that overrides the config's seed.
Exit codes: 0 success, 1 usage or I/O problem, 2 numerical failure or
non-convergence (partial artifacts are still written and flagged).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from statistics import median

import numpy as np

from .em import fit_em
from .evaluation import RescaledSample, est_err, ks_statistic, qq_pairs, rescale, test_ll
from .fitbase import FitConfig, check_int, check_positive
from .kernels import SingularMatrixError
from .mle import fit_mle
from .process import (
    CASE_T,
    CASE_T_PHI,
    EventSequence,
    NonFiniteLikelihoodError,
    case1_rates,
    case2_rates,
    read_events_csv,
    simulate_thinning,
    table_rates,
    write_csv,
)
from .serialize import load_json, load_model, rates_for_eval, read_manifest, report_to_dict
from .serialize import save_json, save_model, write_manifest
from .vi import fit_vi

_NUMERICAL_ERRORS = (
    SingularMatrixError,
    NonFiniteLikelihoodError,
    FloatingPointError,
    RuntimeError,
)

_FIT_KEYS = {f.name for f in fields(FitConfig)} - {"T", "T_phi"}


def _check_keys(config: dict, allowed: set, context: str) -> None:
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown {context} config keys: {', '.join(sorted(unknown))}")


def _get_int(config: dict, key: str, default: int, minimum: int) -> int:
    return check_int(key, config.get(key, default), minimum)


def _get_positive(config: dict, key: str, default: float | None = None) -> float:
    return check_positive(key, config.get(key, default))


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from None
    return out


def _load_config(args) -> dict:
    path = Path(args.config)
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    try:
        config = load_json(path)
    except ValueError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    return config


def _echo_config(out: Path, command: str, config: dict) -> None:
    save_json(out / "config_echo.json", {"command": command, "config": config})


def _preset_rates(name: str, t_window: float):
    if name == "case1":
        return case1_rates()
    if name == "case2":
        return case2_rates(t_window)
    raise ValueError(f"unknown preset {name!r}; choose case1 or case2")


def _load_split(data_dir: Path, split: str):
    manifest = read_manifest(data_dir / "manifest.json")
    seqs = [read_events_csv(p, manifest["T"]) for p in sorted(data_dir.glob(f"{split}_*.csv"))]
    return manifest, seqs


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    config = _load_config(args)
    _check_keys(config, {"preset", "rates", "T", "T_phi", "n_train", "n_test", "seed"}, "simulate")
    n_train = _get_int(config, "n_train", 100, 0)
    n_test = _get_int(config, "n_test", 10, 0)
    seed = _get_int(config, "seed", 0, 0)
    preset = config.get("preset")
    if preset is not None:
        for key in ("rates", "T_phi"):
            if key in config:
                raise ValueError(f"simulate config key '{key}' cannot be combined with 'preset'")
        t_window = _get_positive(config, "T", CASE_T)
        rates = _preset_rates(preset, t_window)
        t_phi = rates.T_phi
    elif "rates" in config:
        tables = config["rates"]
        for key in ("mu_t", "mu_value", "phi_tau", "phi_value"):
            if key not in tables:
                raise ValueError(f"custom rates need key '{key}'")
        t_window = _get_positive(config, "T")
        t_phi = _get_positive(config, "T_phi")
        rates = table_rates(tables["mu_t"], tables["mu_value"], tables["phi_tau"], tables["phi_value"], t_phi)
    else:
        raise ValueError("simulate config needs either 'preset' or 'rates'")
    out = _out_dir(args)
    _echo_config(out, "simulate", config)

    n_events_total = 0
    for split, first, count in (("train", 0, n_train), ("test", n_train, n_test)):
        for index in range(count):
            times = simulate_thinning(rates, t_window, seed + first + index).times
            write_csv(out / f"{split}_{index:03d}.csv", "t", times)
            n_events_total += times.size
    write_manifest(
        out / "manifest.json",
        t_window,
        t_phi,
        n_train=n_train,
        n_test=n_test,
        preset=preset,
        seed=seed,
        n_events_total=n_events_total,
    )
    print(f"wrote {n_train} train + {n_test} test sequences to {out}")
    return 0


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    config = _load_config(args)
    method = config.get("method")
    if method not in ("em", "vi", "mle"):
        raise ValueError(f"fit method must be one of em, vi, mle; got {method!r}")
    # the exponential MLE baseline honours none of the EM/VI settings
    engine_keys = set() if method == "mle" else _FIT_KEYS
    _check_keys(config, engine_keys | {"method", "data"}, "fit")
    if "data" not in config:
        raise ValueError("fit config needs a 'data' directory")
    manifest, seqs = _load_split(Path(config["data"]), "train")
    if not seqs:
        raise ValueError(f"no train_*.csv sequences in {config['data']}")
    if method != "mle":
        settings = {k: config[k] for k in _FIT_KEYS if k in config}
        fit_config = FitConfig(T=manifest["T"], T_phi=manifest["T_phi"], **settings)
    out = _out_dir(args)
    _echo_config(out, "fit", config)

    if method == "mle":
        model, report = fit_mle(seqs, t_phi_report=manifest["T_phi"])
    else:
        model, report = (fit_em if method == "em" else fit_vi)(seqs, fit_config)

    save_model(out / "model.json", model)
    save_json(out / "report.json", report_to_dict(report))
    for name, *columns in (("mu", report.grid_mu, report.mu_hat, report.mu_std),
                           ("phi", report.grid_phi, report.phi_hat, report.phi_std)):
        columns = [c for c in columns if c is not None]  # a std column only where the fit has one
        write_csv(out / f"estimates_{name}.csv", ",".join(["x", "value", "std"][:len(columns)]), *columns)
    if not report.converged:
        print(f"{method} fit did not converge in {report.n_iter} iterations", file=sys.stderr)
        return 2
    print(f"{method} fit converged in {report.n_iter} iterations ({report.runtime_seconds:.1f}s)")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    config = _load_config(args)
    _check_keys(config, {"model", "data", "split", "truth_preset"}, "eval")
    for key in ("model", "data"):
        if key not in config:
            raise ValueError(f"eval config needs key '{key}'")
    model_path = Path(config["model"])
    if not model_path.exists():
        raise ValueError(f"model file not found: {model_path}")
    try:
        model = load_model(model_path)
    except (KeyError, TypeError, ValueError) as exc:  # the file's content, not the command, is at fault
        raise ValueError(f"model file {model_path}: {exc}") from None
    manifest, seqs = _load_split(Path(config["data"]), config.get("split", "test"))
    if not seqs:
        raise ValueError(f"no holdout sequences found in {config['data']}")
    t_window, t_phi = float(manifest["T"]), float(manifest["T_phi"])
    model_window = getattr(model, "T", None)  # EM/VI rates exist only on [0, T]; the MLE's everywhere
    if model_window is not None and t_window > model_window:
        raise ValueError(f"holdout window T={t_window:g} is longer than the model's window T={model_window:g}")
    out = _out_dir(args)
    _echo_config(out, "eval", config)
    rates = rates_for_eval(model, t_phi=t_window)

    lls = [test_ll(rates, s) for s in seqs]
    samples = [rescale(rates, s) for s in seqs]
    z_all = np.concatenate([s.z for s in samples])
    # qq_pairs and ks_statistic read only z
    pooled = RescaledSample(z=z_all, tau=np.empty(0), lam=np.empty(0), n_clamped=sum(s.n_clamped for s in samples))
    theoretical, empirical = qq_pairs(pooled)
    write_csv(out / "qq.csv", "theoretical,empirical", theoretical, empirical)

    ks_distance = ks_p = None
    if z_all.size:
        ks_distance, ks_p = ks_statistic(pooled)

    est_mu = est_phi = None
    preset = config.get("truth_preset", manifest.get("preset"))
    if preset is not None:
        truth = _preset_rates(preset, t_window)
        est_mu = est_err(rates.mu, truth.mu, np.linspace(0.0, t_window, 200))
        est_phi = est_err(rates.phi, truth.phi, np.linspace(0.0, t_phi, 200))

    metrics = {
        "test_ll_mean": float(np.mean(lls)),
        "test_ll_sum": float(np.sum(lls)),
        "est_err_mu": est_mu,
        "est_err_phi": est_phi,
        "ks_distance": ks_distance,
        "ks_p": ks_p,
        "n_sequences": len(seqs),
        "n_rescaled": int(z_all.size),
        "n_clamped": pooled.n_clamped,
    }
    save_json(out / "metrics.json", metrics)
    print(f"test_ll_mean={metrics['test_ll_mean']:.4f} over {len(seqs)} sequences")
    return 0


# ---------------------------------------------------------------------------
# bench


def _bench_sequence(preset: str, n_events: int, seed: int) -> EventSequence:
    """First n_events of a preset simulation, window cut at the last event."""
    t_window = max(n_events / 2.0, 10.0)
    for _ in range(4):
        rates = _preset_rates(preset, t_window)
        seq = simulate_thinning(rates, t_window, seed)
        if len(seq) >= n_events:
            times = seq.times[:n_events]
            return EventSequence(times, float(times[-1]))
        t_window *= 2.0
    raise RuntimeError(f"could not generate {n_events} events from preset {preset}")


def cmd_bench(args) -> int:
    config = _load_config(args)
    fit_keys = ("S_mu", "S_phi", "quad_order_T", "quad_order_Tphi")
    _check_keys(config, {"method", "sizes", "iters", "repeats", "preset", "seed", *fit_keys}, "bench")
    method = config.get("method", "em")
    if method not in ("em", "vi"):
        raise ValueError(f"bench method must be em or vi, got {method!r}")
    sizes = config.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        raise ValueError("bench config needs 'sizes': a list of integers >= 10")
    sizes = [check_int("each bench size", n, 10) for n in sizes]
    iters = _get_int(config, "iters", 50, 1)
    repeats = _get_int(config, "repeats", 1, 1)
    preset = config.get("preset", "case1")
    seed = _get_int(config, "seed", 0, 0)
    settings = {k: config[k] for k in fit_keys if k in config}
    # the preset and the fit settings are checked before --out exists; every fit shares base but its T
    _preset_rates(preset, CASE_T)
    base = FitConfig(T=CASE_T, T_phi=CASE_T_PHI, max_iter=iters, tol=0.0, hyper_refresh_every=0, **settings)
    out = _out_dir(args)
    _echo_config(out, "bench", config)

    fitter = fit_em if method == "em" else fit_vi
    medians = []
    for idx, n_events in enumerate(sizes):
        times = []
        for r in range(repeats):
            seq = _bench_sequence(preset, n_events, seed + 101 * idx + r)
            fit_config = replace(base, T=seq.T)
            start = time.perf_counter()
            fitter(seq, fit_config)
            times.append(time.perf_counter() - start)
        medians.append(median(times))
        print(f"n={n_events}: {medians[-1]:.3f}s median of {repeats} ({iters} iterations)")
    write_csv(out / "bench.csv", "n,seconds", sizes, medians)
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgp-hawkes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("simulate", cmd_simulate),
        ("fit", cmd_fit),
        ("eval", cmd_eval),
        ("bench", cmd_bench),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        if name in ("simulate", "bench"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
