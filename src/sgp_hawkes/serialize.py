"""JSON persistence with deterministic float formatting.

All numeric output goes through one writer that renders floats with 17
significant digits, so identical runs produce byte-identical files and every
value round-trips exactly through ``json.loads``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .em import EmModel, SgpComponent
from .kernels import InducingGrid, KernelHyperparams
from .mle import ExpHawkesParams
from .process import RateFunctions, tabulate
from .vi import GammaFactor, GaussianFactor, ViModel


def _emit(obj, level: int, indent: int):
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        yield "{\n"
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key).__name__}")
            yield pad + json.dumps(key) + ": "
            yield from _emit(value, level + 1, indent)
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
            yield from _emit(value, level + 1, indent)
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
        yield format(value, ".17g")
    elif isinstance(obj, str):
        yield json.dumps(obj)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_json(obj, indent: int = 2) -> str:
    return "".join(_emit(obj, 0, indent))


def save_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Model <-> dict


def _em_component_dict(comp: SgpComponent) -> dict:
    return {
        "lambda_star": comp.lambda_star,
        "inducing_points": comp.grid.points,
        "domain": comp.grid.domain,
        "u": comp.u,
        "theta0": comp.hp.theta0,
        "theta1": comp.hp.theta1,
    }


def _vi_component_dict(gp: GaussianFactor, lam: GammaFactor, grid: InducingGrid, hp: KernelHyperparams) -> dict:
    return {
        "alpha": lam.alpha,
        "beta": lam.beta,
        "inducing_points": grid.points,
        "domain": grid.domain,
        "mean": gp.mean,
        "cov": gp.cov,
        "theta0": hp.theta0,
        "theta1": hp.theta1,
    }


def model_to_dict(model) -> dict:
    if isinstance(model, EmModel):
        return {
            "method": "em",
            "T": model.T,
            "T_phi": model.T_phi,
            "mu": _em_component_dict(model.mu),
            "phi": _em_component_dict(model.phi),
        }
    if isinstance(model, ViModel):
        return {
            "method": "vi",
            "T": model.T,
            "T_phi": model.T_phi,
            "mu": _vi_component_dict(model.gp_mu, model.lam_mu, model.grid_mu, model.hp_mu),
            "phi": _vi_component_dict(model.gp_phi, model.lam_phi, model.grid_phi, model.hp_phi),
        }
    if isinstance(model, ExpHawkesParams):
        return {"method": "mle", "mu": model.mu, "alpha": model.alpha, "beta": model.beta}
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(data: dict):
    method = data.get("method")
    if method == "em":
        def comp(d):
            return SgpComponent(
                lambda_star=float(d["lambda_star"]),
                grid=InducingGrid(np.asarray(d["inducing_points"], dtype=float), float(d["domain"])),
                u=np.asarray(d["u"], dtype=float),
                hp=KernelHyperparams(float(d["theta0"]), float(d["theta1"])),
            )

        return EmModel(mu=comp(data["mu"]), phi=comp(data["phi"]), T=float(data["T"]), T_phi=float(data["T_phi"]))
    if method == "vi":
        def parts(d):
            gp = GaussianFactor(np.asarray(d["mean"], dtype=float), np.asarray(d["cov"], dtype=float))
            lam = GammaFactor(float(d["alpha"]), float(d["beta"]))
            grid = InducingGrid(np.asarray(d["inducing_points"], dtype=float), float(d["domain"]))
            hp = KernelHyperparams(float(d["theta0"]), float(d["theta1"]))
            return gp, lam, grid, hp

        gp_mu, lam_mu, grid_mu, hp_mu = parts(data["mu"])
        gp_phi, lam_phi, grid_phi, hp_phi = parts(data["phi"])
        return ViModel(
            gp_mu=gp_mu,
            gp_phi=gp_phi,
            lam_mu=lam_mu,
            lam_phi=lam_phi,
            grid_mu=grid_mu,
            grid_phi=grid_phi,
            hp_mu=hp_mu,
            hp_phi=hp_phi,
            T=float(data["T"]),
            T_phi=float(data["T_phi"]),
        )
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
    from .em import model_rates as em_rates
    from .mle import model_rates as mle_rates
    from .vi import model_rates as vi_rates

    if isinstance(model, EmModel):
        return tabulate(em_rates(model), model.T)
    if isinstance(model, ViModel):
        return tabulate(vi_rates(model), model.T)
    if isinstance(model, ExpHawkesParams):
        if t_phi is None:
            raise ValueError("t_phi is required to evaluate the exponential baseline")
        return mle_rates(model, t_phi)
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
