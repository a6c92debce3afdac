"""JSON persistence with deterministic float formatting.

All numeric output goes through one writer that renders floats with 17
significant digits, so identical runs produce byte-identical files and every
value round-trips exactly through ``json.loads``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import mle
from .em import EmModel, SgpComponent
from .fitbase import COMPONENTS, model_rates
from .kernels import InducingGrid, KernelHyperparams
from .mle import ExpHawkesParams
from .process import RateFunctions, tabulate
from .vi import GammaFactor, GaussianFactor, ViComponent, ViModel


def _emit(obj, level: int):
    pad = "  " * (level + 1)  # two spaces per nesting level
    close = "  " * level
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            yield pad + json.dumps(key) + ": "
            yield from _emit(value, level + 1)
            yield ",\n" if i < len(obj) - 1 else "\n"
        yield close + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            yield "[]"
            return
        yield "[\n"
        for i, value in enumerate(items):
            yield pad
            yield from _emit(value, level + 1)
            yield ",\n" if i < len(items) - 1 else "\n"
        yield close + "]"
    elif isinstance(obj, (bool, np.bool_)):
        yield "true" if obj else "false"
    elif obj is None:
        yield "null"
    elif isinstance(obj, (int, np.integer)):
        yield str(int(obj))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        yield "-0.0" if value == 0.0 and np.signbit(value) else format(value, ".17g")  # "-0" parses as int 0
    elif isinstance(obj, str):
        yield json.dumps(obj)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj) -> str:
    return "".join(_emit(obj, 0))


def save_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def write_manifest(path, T: float, T_phi: float, **extra) -> None:
    """A dataset's sidecar manifest: its window T, its trigger window T_phi and ``extra``."""
    payload = {"T": float(T), "T_phi": float(T_phi)}
    payload.update(extra)
    save_json(path, payload)


def read_manifest(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset manifest not found: {p}")
    data = load_json(p)
    for key in ("T", "T_phi"):
        if key not in data:
            raise ValueError(f"{p}: manifest is missing required key '{key}'")
    return data


# ---------------------------------------------------------------------------
# Model <-> dict


_SGP_MODELS = {"em": EmModel, "vi": ViModel}
_MODEL_KEYS = {"mle": ("mu", "alpha", "beta"), **{m: ("T", "T_phi", *COMPONENTS) for m in _SGP_MODELS}}


def _component_dict(comp: SgpComponent | ViComponent) -> dict:
    if isinstance(comp, SgpComponent):
        head, values = {"lambda_star": comp.lambda_star}, {"u": comp.u}
    else:
        head = {"alpha": comp.lam.alpha, "beta": comp.lam.beta}
        values = {"mean": comp.gp.mean, "cov": comp.gp.cov}
    grid = {"inducing_points": comp.grid.points, "domain": comp.grid.domain}
    return {**head, **grid, **values, "theta0": comp.hp.theta0, "theta1": comp.hp.theta1}


def _component_from_dict(method: str, d: dict) -> SgpComponent | ViComponent:
    grid = InducingGrid(np.asarray(d["inducing_points"], dtype=float), float(d["domain"]))
    hp = KernelHyperparams(float(d["theta0"]), float(d["theta1"]))
    if method == "em":
        return SgpComponent(float(d["lambda_star"]), grid, np.asarray(d["u"], dtype=float), hp)
    gp = GaussianFactor(np.asarray(d["mean"], dtype=float), np.asarray(d["cov"], dtype=float))
    return ViComponent(gp, GammaFactor(float(d["alpha"]), float(d["beta"])), grid, hp)


def model_to_dict(model) -> dict:
    if isinstance(model, (EmModel, ViModel)):
        method = "em" if isinstance(model, EmModel) else "vi"
        components = {n: _component_dict(getattr(model, n)) for n in COMPONENTS}
        return {"method": method, "T": model.T, "T_phi": model.T_phi, **components}
    if isinstance(model, ExpHawkesParams):
        return {"method": "mle", "mu": model.mu, "alpha": model.alpha, "beta": model.beta}
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(data: dict):
    if not isinstance(data, dict):
        raise ValueError(f"a model file must hold a JSON object, got {type(data).__name__}")
    method = data.get("method")
    missing = [key for key in _MODEL_KEYS.get(method, ()) if key not in data]
    if missing:
        raise ValueError(f"{method} model lacks keys {', '.join(missing)}")
    if method in _SGP_MODELS:
        components = {n: _component_from_dict(method, data[n]) for n in COMPONENTS}
        return _SGP_MODELS[method](**components, T=float(data["T"]), T_phi=float(data["T_phi"]))
    if method == "mle":
        return ExpHawkesParams(float(data["mu"]), float(data["alpha"]), float(data["beta"]))
    raise ValueError(f"unknown model method {method!r}")


def save_model(path, model) -> None:
    save_json(path, model_to_dict(model))


def load_model(path):
    return model_from_dict(load_json(path))


def rates_for_eval(model, t_phi: float | None = None) -> RateFunctions:
    """Rate functions of any fitted model, for scoring, rescaling and simulation.

    EM and VI rates are compiled once into self-checked spline tables with
    exact antiderivatives (``process.tabulate``) on the model's windows. For
    the exponential-kernel baseline, whose rates are closed forms, ``t_phi``
    must be given (pass the holdout window length to keep its compensator
    effectively untruncated).
    """
    if isinstance(model, (EmModel, ViModel)):
        return tabulate(model_rates(model), model.T)
    if isinstance(model, ExpHawkesParams):
        if t_phi is None:
            raise ValueError("t_phi is required to evaluate the exponential baseline")
        return mle.model_rates(model, t_phi)
    raise TypeError(f"cannot build rates for model of type {type(model).__name__}")


def report_to_dict(report) -> dict:
    return {
        "method": report.method,
        "converged": report.converged,
        "n_iter": report.n_iter,
        "runtime_seconds": report.runtime_seconds,
        "objective_trace": list(report.objective_trace),
        "hyper_history": report.hyper_history,
        "warnings": list(report.warnings),
    }
