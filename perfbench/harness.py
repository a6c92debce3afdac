"""Run one workload and build its result.

Untraced (``trace=0``): iterations of set-up plus round run until the next one
would end after ``seconds`` (at least ``MIN_ROUNDS``), so that set-up and round
work are both sampled across the whole run. Each workload times its own
set-up operations into ``setup_s``; every timing is an iteration's total,
reported as the median over iterations. Timings are scaled to a reference
kernel (``workloads.timer``); the unscaled seconds are printed beside the
result.
Traced (``trace=1``): one iteration untraced, then one with every layer
wrapped; the per-layer metrics come from the traced pass and the tracing
overhead is the difference of the two walls. Then, untraced, the workload's
training data are fitted again with the program's own stop rule
(``default_stop_fits``): their sweep counts and ``converged`` verdicts give
``em/vi.sweeps_to_tol``, ``em/vi.unconverged``, ``cli.exit2`` and
``quality.failed_frac``.

``fit_mle_s`` is timed but reported only beside the result: the exponential
MLE's L-BFGS-B iteration count follows the data, and its run-to-run spread
over seeds was 0.30 on dense-case1 and 0.49 on gof-roundtrip.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import layers
from tracing import Tracer
from workloads import WORKLOADS, Ledger, _Skip, reference_seconds

MIN_ROUNDS = 2
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

# Timings are reference-scaled seconds ("ref-s", see ``workloads.timer``).
# ``setup_s`` is scaled the same way; BENCHMARK.json fixes its unit as "s".
END_TO_END = {
    "setup_s": "s",
    "simulate_s": "ref-s",
    "fit_em_s": "ref-s",
    "fit_vi_s": "ref-s",
    "eval_s": "ref-s",
    "peak_rss_mb": "MB",
}
QUALITY = {
    "test_ll_em": "nats/window",
    "test_ll_vi": "nats/window",
    "test_ll_mle": "nats/window",
    "est_err_mu_em": "mse",
    "est_err_phi_em": "mse",
    "est_err_mu_vi": "mse",
    "est_err_phi_vi": "mse",
    "ks_pass_frac": "ratio",
    "failed_frac": "ratio",
}


def _check_same(ledger: Ledger, first: dict, other: dict, what: str) -> None:
    try:
        with ledger.op(what):
            ledger.check(first == other, f"{what}: quality differs: {first} vs {other}")
    except _Skip:
        pass


def _quality(quality: dict, verdicts: list[dict] | None) -> dict:
    """Quality figures; ``failed_frac`` is the share of default-stop fits that
    raised, failed a check or reported ``converged=False`` (traced runs only)."""
    out = dict(quality)
    if verdicts:
        out["failed_frac"] = sum(r["failed"] or not r["converged"] for r in verdicts) / len(verdicts)
    return {k: {"value": out.get(k), "unit": unit} for k, unit in QUALITY.items()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _aggregate(records: list[dict]) -> dict[str, float]:
    """Per name, the median over iterations of each iteration's total."""
    names = {name for record in records for name in record}
    return {name: median(r[name] for r in records if name in r) for name in names}


def _untraced(wl, inputs: dict, seconds: float, work: Path, ledger: Ledger):
    records, qualities, walls = [], [], []
    begin = time.perf_counter()
    while True:
        timings, quality = {}, {}
        start = time.perf_counter()
        state = wl.setup(inputs, work, ledger, timings)
        wl.round(state, work, ledger, timings, quality)
        walls.append(time.perf_counter() - start)
        records.append(timings)
        qualities.append(quality)
        if len(walls) >= MIN_ROUNDS and time.perf_counter() - begin + walls[-1] > seconds:
            break
    for k, quality in enumerate(qualities[1:], start=2):
        _check_same(ledger, qualities[0], quality, f"round {k} against round 1")
    raw = [r.pop("_raw") for r in records]
    timings = _aggregate(records)
    timings["peak_rss_mb"] = _peak_rss_mb()
    result = {k: {"value": timings.get(k), "unit": unit} for k, unit in END_TO_END.items()}
    info = {
        "iteration_walls": walls,
        "timings": timings,
        "unscaled_s_per_iteration": {k: median(r.get(k, 0.0) for r in raw) for k in raw[0]},
        "reference_s": reference_seconds(9),
    }
    return result, qualities[0], state, info


def _traced(wl, inputs: dict, work: Path, ledger: Ledger, spans_path: Path):
    def one_pass(tracer):
        def span(name):
            return tracer.span(name) if tracer else nullcontext()

        quality: dict = {}
        start = time.perf_counter()
        with span("bench.setup"):
            state = wl.setup(inputs, work, ledger, {})
        with span("bench.round"):
            wl.round(state, work, ledger, {}, quality)
        return time.perf_counter() - start, quality, state

    untraced_wall, untraced_quality, _ = one_pass(None)
    tracer = Tracer()
    patcher = layers.install(tracer)
    try:
        traced_wall, quality, state = one_pass(tracer)
    finally:
        patcher.restore()
    _check_same(ledger, untraced_quality, quality, "traced pass against untraced pass")
    start = time.perf_counter()
    verdicts = wl.default_stop_fits(state, work, ledger)
    default_stop_wall = time.perf_counter() - start

    metrics = layers.per_layer_metrics(tracer)
    metrics.update(layers.verdict_metrics(verdicts))
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    with spans_path.open("w") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")
    result = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    info = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "default_stop_wall_s": default_stop_wall,
        "default_stop_fits": verdicts,
        "top_self_s": {
            root: layers.top_self_times(tracer, root) for root in ("em.fit_em", "vi.fit_vi", "mle.fit_mle")
        },
    }
    return result, quality, verdicts, state, info


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, wl=None, threads: dict | None = None):
    """(result, info): the result line's object and the record printed beside it."""
    wl = wl or WORKLOADS[name]()
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / WORK_DIR))
    ledger = Ledger()
    inputs = wl.prepare(seed)
    try:
        if trace:
            spans_path = Path(OUT_DIR) / f"trace-{name}-seed{seed}.jsonl"
            metrics, quality, verdicts, state, extra = _traced(wl, inputs, work, ledger, root / spans_path)
            extra["spans_file"] = str(spans_path)
            metrics.update({f"quality.{k}": v for k, v in _quality(quality, verdicts).items()})
        else:
            verdicts = None
            metrics, quality, state, extra = _untraced(wl, inputs, seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass
    complete = all(m["value"] is not None for m in metrics.values())
    result = {
        "correct": ledger.failed == 0 and complete,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "env": env_record(root, seed, threads or {}),
        "sizes": wl.sizes_record(state),
        "quality": _quality(quality, verdicts),
        "notes": ledger.notes[:20],
        **extra,
    }
    tag = f"{name}-seed{seed}-trace{int(bool(trace))}"
    (out_dir / f"{tag}.json").write_text(json.dumps({"result": result, "info": info}, indent=1) + "\n")
    return result, info


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_record(root: Path, seed: int, threads: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    git_rev = dirty = None
    if (root / ".git").exists():
        git_rev = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain")
        dirty = None if status is None else bool(status)
    src = root / "src" / "sgp_hawkes"
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "threads": threads,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "blas_name": blas.get("name"),
        "git_rev": git_rev,
        "git_dirty": dirty,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }
