"""The package functions the traced run wraps, and the per-layer metrics.

Each target is rebound in every ``sgp_hawkes`` module that binds it, so calls
made inside the package are traced as well as the benchmark's own calls.
The fits of the traced pass run fixed sweep budgets; sweep counts to the
program's own stop and its convergence verdicts come from the untraced
default-stop fits (``verdict_metrics``).
``ComponentCache`` projections are wrapped on the class. Spans nest by call
order: a fit's span covers its projections, quadrature and kernel calls.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
from sgp_hawkes.quadrature import DEFAULT_GH_ORDER

from tracing import Patcher, Tracer


def _gh_nodes(counts, args, kwargs, result):
    # (mean, var, n) -> one row of n Gauss-Hermite nodes per element
    order = args[2] if len(args) > 2 else kwargs.get("n", DEFAULT_GH_ORDER)
    first = result[0] if isinstance(result, tuple) else result
    counts["node_evals"] = int(np.size(first)) * int(order)


def _elements(counts, args, kwargs, result):
    counts["elements"] = int(np.size(result))


def _accepted(counts, args, kwargs, result):
    counts["accepted"] = int(bool(result[1]))


def _dataset(counts, args, kwargs, result):
    counts["events"] = result.n_events
    counts["pairs"] = result.n_pairs


def _fit_report(counts, args, kwargs, result):
    counts["sweeps"] = int(result[1].n_iter)


def _sim_events(counts, args, kwargs, result):
    counts["events"] = len(result)


def _scored(counts, args, kwargs, result):
    counts["events"] = len(args[1])


def _clamped(counts, args, kwargs, result):
    counts["clamped"] = int(result.n_clamped)


def _bytes(counts, args, kwargs, result):
    counts["bytes"] = Path(args[0]).stat().st_size


# (module, attribute, span name, counter); "Class.method" is wrapped on the class.
TARGETS = [
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_fit", "cli.fit", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("process", "simulate_thinning", "process.simulate_thinning", _sim_events),
    ("process", "log_likelihood", "process.log_likelihood", None),
    ("fitbase", "build_dataset", "fitbase.build_dataset", _dataset),
    ("fitbase", "assemble_system", "fitbase.assemble_system", None),
    ("fitbase", "search_theta", "fitbase.search_theta", _accepted),
    ("fitbase", "solve_gaussian_update", "fitbase.solve_gaussian_update", None),
    ("fitbase", "ComponentCache.project_mean", "fitbase.project", None),
    ("fitbase", "ComponentCache.project_meanvar", "fitbase.project", None),
    ("kernels", "se_cross", "kernels.se_cross", _elements),
    ("quadrature", "expected_log_sigmoid", "quadrature.expected_log_sigmoid", _gh_nodes),
    ("quadrature", "expected_sigmoid_moments", "quadrature.expected_sigmoid_moments", _gh_nodes),
    ("pg", "pg_mean", "pg.pg_mean", _elements),
    ("em", "fit_em", "em.fit_em", _fit_report),
    ("em", "estep_pg", "em.estep_pg", None),
    ("em", "estep_latent_rate", "em.estep_latent_rate", None),
    ("em", "estep_branching", "em.estep_branching", None),
    ("em", "mstep", "em.mstep", None),
    ("vi", "fit_vi", "vi.fit_vi", _fit_report),
    ("vi", "vi_gp_update", "vi.vi_gp_update", None),
    ("vi", "posterior_bands", "vi.posterior_bands", None),
    ("mle", "fit_mle", "mle.fit_mle", _fit_report),
    ("evaluation", "test_ll", "evaluation.test_ll", _scored),
    ("evaluation", "rescale", "evaluation.rescale", _clamped),
    ("evaluation", "ks_statistic", "evaluation.ks_statistic", None),
    ("serialize", "save_model", "serialize.save_model", None),
    ("serialize", "load_model", "serialize.load_model", None),
    ("serialize", "rates_for_eval", "serialize.rates_for_eval", None),
    ("serialize", "save_json", "serialize.save_json", _bytes),
]


def package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "sgp_hawkes" or name.startswith("sgp_hawkes.")]


def install(tracer: Tracer) -> Patcher:
    """Wrap every target; the caller must ``restore()`` the returned patcher."""
    patcher = Patcher()
    modules = package_modules()
    try:
        for module_name, attr, span_name, count in TARGETS:
            module = importlib.import_module(f"sgp_hawkes.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                patcher.set(cls, method, tracer.wrap(span_name, vars(cls)[method], count))
                continue
            original = getattr(module, attr)
            if patcher.rebind(original, tracer.wrap(span_name, original, count), modules) == 0:
                raise RuntimeError(f"no module binds sgp_hawkes.{module_name}.{attr}")
    except BaseException:
        patcher.restore()
        raise
    return patcher


class _Totals:
    """Inclusive seconds (outermost spans only), self seconds, calls, counts per name."""

    def __init__(self, tracer: Tracer):
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, dict[str, float]] = {}
        spans = tracer.spans
        for span, self_s in zip(spans, tracer.self_times()):
            name = span.name
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            self.calls[name] = self.calls.get(name, 0) + 1
            bucket = self.counts.setdefault(name, {})
            for key, value in span.counts.items():
                bucket[key] = bucket.get(key, 0) + value
            parent = span.parent
            while parent is not None and spans[parent].name != name:
                parent = spans[parent].parent
            if parent is None:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + span.duration

    def s(self, name):
        return self.inclusive.get(name, 0.0)

    def count(self, name, key):
        return self.counts.get(name, {}).get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass, as name -> (value, unit)."""
    t = _Totals(tracer)
    em_sweeps = t.count("em.fit_em", "sweeps")
    vi_sweeps = t.count("vi.fit_vi", "sweeps")
    out: dict[str, tuple[float, str]] = {}

    def timed(name, *extra):
        out[f"{name}.s"] = (t.s(name), "s")
        out[f"{name}.self_s"] = (t.self_s.get(name, 0.0), "s")
        for key, unit in extra:
            out[f"{name}.{key}"] = (t.count(name, key), unit)

    timed("quadrature.expected_log_sigmoid", ("node_evals", "count"))
    timed("quadrature.expected_sigmoid_moments", ("node_evals", "count"))
    for name in ("fitbase.assemble_system", "fitbase.search_theta", "fitbase.solve_gaussian_update"):
        timed(name)
        out[f"{name}.calls"] = (t.calls.get(name, 0), "count")
    out["fitbase.search_theta.accepted_ratio"] = (
        _ratio(t.count("fitbase.search_theta", "accepted"), t.calls.get("fitbase.search_theta", 0)),
        "ratio",
    )
    timed("fitbase.project")
    out["fitbase.project.calls_per_sweep"] = (
        _ratio(t.calls.get("fitbase.project", 0), em_sweeps + vi_sweeps),
        "count",
    )
    timed("fitbase.build_dataset")
    out["fitbase.events"] = (t.count("fitbase.build_dataset", "events"), "count")
    out["fitbase.pairs"] = (t.count("fitbase.build_dataset", "pairs"), "count")
    timed("kernels.se_cross", ("elements", "count"))
    timed("pg.pg_mean", ("elements", "count"))

    timed("em.fit_em")
    out["em.sweeps"] = (em_sweeps, "count")
    out["em.s_per_sweep"] = (_ratio(t.s("em.fit_em"), em_sweeps), "s")
    for phase in ("estep_pg", "estep_latent_rate", "estep_branching", "mstep"):
        out[f"em.{phase}.s"] = (t.s(f"em.{phase}"), "s")

    timed("vi.fit_vi")
    out["vi.sweeps"] = (vi_sweeps, "count")
    out["vi.s_per_sweep"] = (_ratio(t.s("vi.fit_vi"), vi_sweeps), "s")
    out["vi.vi_gp_update.s"] = (t.s("vi.vi_gp_update"), "s")
    out["vi.posterior_bands.s"] = (t.s("vi.posterior_bands"), "s")

    out["mle.fit_mle.s"] = (t.s("mle.fit_mle"), "s")
    out["mle.iterations"] = (t.count("mle.fit_mle", "sweeps"), "count")

    timed("process.simulate_thinning")
    out["process.simulate_thinning.us_per_event"] = (
        1e6 * _ratio(t.s("process.simulate_thinning"), t.count("process.simulate_thinning", "events")),
        "us",
    )
    out["process.log_likelihood.s"] = (t.s("process.log_likelihood"), "s")
    for name in ("evaluation.test_ll", "evaluation.rescale", "evaluation.ks_statistic"):
        out[f"{name}.s"] = (t.s(name), "s")
    out["evaluation.events_scored"] = (t.count("evaluation.test_ll", "events"), "count")
    out["evaluation.rescale.clamped"] = (t.count("evaluation.rescale", "clamped"), "count")

    for name in ("serialize.save_model", "serialize.load_model", "serialize.rates_for_eval"):
        out[f"{name}.s"] = (t.s(name), "s")
    out["serialize.bytes_written"] = (t.count("serialize.save_json", "bytes"), "bytes")

    for name in ("cli.simulate", "cli.fit", "cli.eval"):
        out[f"{name}.s"] = (t.s(name), "s")
    return out


def verdict_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Sweeps and verdicts of the fits run with the program's own stop rule.

    ``records`` come from ``default_stop_fits``. A fit that raised or failed an
    output check counts as unconverged; ``cli.exit2`` counts CLI fits that
    exited 2 (not converged).
    """
    out: dict[str, tuple[float, str]] = {}
    for method in ("em", "vi"):
        mine = [r for r in records if r["method"] == method]
        out[f"{method}.sweeps_to_tol"] = (sum(r["sweeps"] for r in mine), "count")
        out[f"{method}.unconverged"] = (sum(r["failed"] or not r["converged"] for r in mine), "count")
    out["cli.exit2"] = (sum(r.get("exit_code") == 2 for r in records), "count")
    return out


def top_self_times(tracer: Tracer, root: str, limit: int = 5) -> list[tuple[str, float]]:
    """Largest self times, by span name, among the descendants of ``root`` spans."""
    spans = tracer.spans
    self_times = tracer.self_times()
    totals: dict[str, float] = {}
    for span, self_s in zip(spans, self_times):
        parent = span.parent
        while parent is not None and spans[parent].name != root:
            parent = spans[parent].parent
        if parent is not None or span.name == root:
            totals[span.name] = totals.get(span.name, 0.0) + self_s
    return sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
