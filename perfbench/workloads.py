"""The three benchmark workloads: inputs, set-up, one timed round, output checks.

Every input is generated from the run's seed through ``SeedSequence``, so two
seeds share no simulated window. A round re-runs the same inputs, which makes
its quality figures bit-identical to the previous round's unless the program
is nondeterministic.

These choices keep the timings a property of the code rather than of the
seed; each was measured to matter on case1/case2 data:

* Fits run a fixed number of sweeps (``tol=0``, ``max_iter`` from the sizes,
  every other setting at its default, so the theta search still runs every 20
  sweeps). Left to the relative-change stop, the sweep count varies about
  twofold between datasets of one preset (72 to 168 VI sweeps on eight case1
  windows), so time to convergence follows the data, not the code. The
  timings therefore do not see a change in how many sweeps a fit needs; the
  traced run does, by fitting the same data again with the program's own stop
  rule (``default_stop_fits``) and counting the sweeps and verdicts.
* Input size is a fixed number of windows whose admissible pairs come
  closest to a target, among runs of consecutive seeds (``pick_windows``).
  The pair count of one case1 window varies by 41% (coefficient of
  variation), and fit and scoring costs follow it and the window count. The
  gof workload simulates from each fitted model until the windows hold a
  target number of pairs and rescales those times to exactly that many.
* Each timing is the total over one iteration's operations, reported as the
  median over iterations. Fit times of small-batch-case2's datasets varied
  by about 20% between the datasets of one seed (VI, 20 sweeps), so the
  batch total is steadier than a median over datasets.
* Every timed block is scaled by a reference kernel run before, after and
  inside it (see ``timer``). On a shared 2-vCPU Linux host the speed of
  identical work swung by 40 to 70%, on either CPU, from load outside the
  process, and the swings came and went within a second. Over 14 repeats of
  one VI fit the interquartile spread of its time was 0.08 of the median
  unscaled, 0.26 scaled by the kernel's time at the block's edges only, and
  0.07 scaled by the kernel's mean time with the samples inside the block.
  Scaling is kept for the slower shifts between runs: the kernel's own time
  moved between 1.5 and 2.7 ms from one quarter of an hour to the next.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import sgp_hawkes as sgp
from sgp_hawkes import cli
from sgp_hawkes.process import CASE_T, CASE_T_PHI, admissible_pairs
from sgp_hawkes.quadrature import gauss_legendre
from sgp_hawkes.serialize import model_to_dict

KS_LEVEL = 0.01  # a window passes the time-rescaling check when KS p >= this
EVAL_QUAD_ORDER = 200  # the CLI eval default, used for library-side scoring too
METHODS = ("em", "vi", "mle")
MAX_WINDOWS = 200  # the gof workload gives up simulating past this many windows per model


def derive_seed(seed: int, *path: int) -> int:
    """A 31-bit seed for one input, independent across ``seed`` and ``path``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def n_pairs(seq) -> int:
    return int(admissible_pairs(seq.times, CASE_T_PHI)[0].size)


def pick_windows(rates, counts: tuple[int, ...], targets: tuple[int, ...], seed_of, candidates: int) -> tuple[int, list]:
    """``(k, groups)``: the windows ``seed_of(k), seed_of(k + 1), ...`` closest to the pair targets.

    Candidate ``k`` splits windows ``k, k + 1, ...`` into consecutive groups of
    ``counts`` windows; the candidate with the least summed relative error of
    each group's admissible pairs against its target wins. Candidates overlap,
    so ``candidates + sum(counts) - 1`` windows are simulated.
    """
    windows = [sgp.simulate_thinning(rates, CASE_T, seed_of(i)) for i in range(candidates + sum(counts) - 1)]
    pairs = [n_pairs(w) for w in windows]
    bounds = np.cumsum((0, *counts))

    def error(k):
        return sum(abs(sum(pairs[k + a : k + b]) - t) / t for a, b, t in zip(bounds[:-1], bounds[1:], targets))

    k = min(range(candidates), key=error)
    return k, [windows[k + a : k + b] for a, b in zip(bounds[:-1], bounds[1:])]


class _Skip(Exception):
    """Raised out of ``Ledger.op`` so that dependent steps are skipped."""


@dataclass
class Ledger:
    """Operations attempted and operations failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    @contextmanager
    def op(self, what: str):
        """One attempted operation; an exception or a failed check inside marks it failed."""
        self.attempted += 1
        before = self.failed
        try:
            yield
        except _Skip:
            raise
        except Exception:
            self.failed += 1
            self.notes.append(f"{what}: {traceback.format_exc(limit=3).strip()}")
            raise _Skip from None
        if self.failed != before:
            raise _Skip

    def check(self, ok: bool, what: str) -> None:
        """Output check; a failure marks the operation being checked failed."""
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")


REFERENCE_S = 1.5e-3  # nominal time of ``_reference_once``; timings are scaled to it
EDGE_PROBES = 2  # reference runs just before and just after a timed block
PROBE_INTERVAL_S = 0.05  # period of the reference runs inside a timed block
_REF_X = np.linspace(-4.0, 4.0, 4000)
_REF_A = np.cos(np.arange(900, dtype=float)).reshape(30, 30) / 30.0


def _reference_once() -> float:
    """Seconds for a fixed mix of numpy and interpreter work that uses no package code."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(10):
        acc += float(np.sum(np.logaddexp(0.0, _REF_X * (1.0 + 0.01 * k))))
    m = np.eye(30)
    for _ in range(100):
        m = np.tanh(m @ _REF_A + 0.1)
    for i in range(2000):
        acc += math.sqrt(i + 1.0)
    return time.perf_counter() - start


def reference_seconds(repeats: int = 3) -> float:
    return median(_reference_once() for _ in range(repeats))


@contextmanager
def timer(timings: dict, *names: str):
    """Add the block's time, scaled to the reference kernel, to ``timings[name]`` for each name.

    The host's speed is sampled by running the reference kernel
    ``EDGE_PROBES`` times just before and just after the block and, from a
    ``SIGALRM`` every ``PROBE_INTERVAL_S``, inside it. The block's seconds,
    less the time its probes took, are multiplied by ``REFERENCE_S`` over the
    probes' mean time: host interference that slows both cancels. Sampling
    only at the block's edges missed the sub-second swings inside a
    one-second fit. Blocks must not nest. Unscaled seconds are summed per
    name under ``timings["_raw"]``.
    """
    refs = [_reference_once() for _ in range(EDGE_PROBES)]
    probe_s = 0.0

    def probe(signum, frame):
        nonlocal probe_s
        start = time.perf_counter()
        refs.append(_reference_once())
        probe_s += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        seconds = time.perf_counter() - start - probe_s
        signal.signal(signal.SIGALRM, previous)
        refs.extend(_reference_once() for _ in range(EDGE_PROBES))
        scale = REFERENCE_S / float(np.mean(refs))
        raw = timings.setdefault("_raw", {})
        for name in names:
            timings[name] = timings.get(name, 0.0) + seconds * scale
            raw[name] = raw.get(name, 0.0) + seconds


def merge_timings(into: dict, timings: dict, factor: float) -> None:
    """Add ``timings`` from ``timer`` into ``into``, scaled seconds times ``factor``."""
    for name, value in timings.items():
        if name == "_raw":
            raw = into.setdefault("_raw", {})
            for key, seconds in value.items():
                raw[key] = raw.get(key, 0.0) + seconds
        else:
            into[name] = into.get(name, 0.0) + value * factor


def _finite_nonneg(values) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(values.size) and bool(np.all(np.isfinite(values))) and bool(np.all(values >= 0.0))


def _z_ok(z) -> bool:
    z = np.asarray(z, dtype=float)
    return bool(np.all(np.isfinite(z)) and np.all(z >= 0.0) and np.all(z < 1.0))


def _fit(method: str, train, caps: dict | None):
    """A fixed number of sweeps from ``caps``, or the program's own stop rule when ``caps`` is None."""
    if method == "mle":
        return sgp.fit_mle(train, t_phi_report=CASE_T_PHI)
    fitter = sgp.fit_em if method == "em" else sgp.fit_vi
    stop = {} if caps is None else {"max_iter": caps[method], "tol": 0.0}
    return fitter(train, sgp.FitConfig(T=CASE_T, T_phi=CASE_T_PHI, **stop))


def _check_report(ledger: Ledger, report, what: str) -> None:
    ledger.check(_finite_nonneg(report.mu_hat), f"{what}: mu on the report grid")
    ledger.check(_finite_nonneg(report.phi_hat), f"{what}: phi on the report grid")


@contextmanager
def verdict(ledger: Ledger, records: list, method: str, what: str):
    """One fit under the program's own stop rule, recorded in ``records``.

    The block fills in ``sweeps`` and ``converged``; the record stays
    ``failed`` when the fit raises or fails an output check.
    """
    record = {"method": method, "sweeps": 0, "converged": False, "failed": True}
    records.append(record)
    try:
        with ledger.op(what):
            yield record
        record["failed"] = False
    except _Skip:
        pass


def _default_fit(ledger: Ledger, records: list, method: str, train, what: str) -> None:
    with verdict(ledger, records, method, what) as record:
        _, report = _fit(method, train, None)
        record.update(sweeps=int(report.n_iter), converged=bool(report.converged))
        _check_report(ledger, report, what)


def _score(ledger: Ledger, timings: dict, rates, seq, quad, what: str) -> tuple[float, float]:
    """(held-out log likelihood, KS p) of one window, timed into eval_s."""
    with ledger.op(f"score {what}"):
        with timer(timings, "eval_s"):
            ll = sgp.test_ll(rates, seq, quad)
            sample = sgp.rescale(rates, seq, quad)
            _, ks_p = sgp.ks_statistic(sample)
        ledger.check(math.isfinite(ll), f"{what}: test_ll finite")
        ledger.check(_z_ok(sample.z), f"{what}: rescaled z in [0, 1)")
    return ll, ks_p


def _same_model(a, b) -> bool:
    """Bit-identical fitted models (every array and number equal)."""
    return json.dumps(model_to_dict(a), default=lambda x: x.tolist()) == json.dumps(model_to_dict(b), default=lambda x: x.tolist())


def _err(rates, truth) -> tuple[float, float]:
    return (
        sgp.est_err(rates.mu, truth.mu, np.linspace(0.0, CASE_T, 200)),
        sgp.est_err(rates.phi, truth.phi, np.linspace(0.0, CASE_T_PHI, 200)),
    )


# ---------------------------------------------------------------------------
# dense-case1: the acceptance pipeline through the CLI, scaled down


@dataclass(frozen=True)
class DenseSizes:
    n_train: int = 7
    n_test: int = 2
    train_pairs: int = 40_000  # targets for the chosen candidate's admissible pairs
    test_pairs: int = 11_500
    candidates: int = 64
    caps: dict = field(default_factory=lambda: {"em": 60, "vi": 20})


class DenseCase1:
    """simulate -> fit em|vi|mle -> eval, in-process through ``cli.main``."""

    name = "dense-case1"

    def __init__(self, sizes: DenseSizes | None = None):
        self.sizes = sizes or DenseSizes()

    def prepare(self, seed: int) -> dict:
        """The CLI seed whose windows (seed + index) come closest to the pair targets."""
        z, base = self.sizes, derive_seed(seed, 1)
        k, (train, test) = pick_windows(
            sgp.case1_rates(), (z.n_train, z.n_test), (z.train_pairs, z.test_pairs), lambda i: base + i, z.candidates
        )
        return {
            "seed": base + k,
            "train_events_total": sum(map(len, train)),
            "train_pairs_total": sum(map(n_pairs, train)),
            "test_events_total": sum(map(len, test)),
            "test_pairs_total": sum(map(n_pairs, test)),
        }

    def _cli(self, ledger: Ledger, work: Path, command: str, payload: dict, out: Path, ok=(0,)) -> int:
        cfg = work / f"{command}_{out.name}.json"
        cfg.write_text(json.dumps(payload))
        with redirect_stdout(sys.stderr):  # the benchmark's stdout ends with its result line
            rc = cli.main([command, "--config", str(cfg), "--out", str(out)])
        ledger.check(rc in ok, f"{command} {out.name} exited {rc}")
        return rc

    def setup(self, inputs: dict, work: Path, ledger: Ledger, timings: dict) -> dict:
        data = work / "data"
        shutil.rmtree(data, ignore_errors=True)
        z = self.sizes
        payload = {"preset": "case1", "seed": inputs["seed"], "n_train": z.n_train, "n_test": z.n_test}
        with ledger.op("cli simulate"):
            with timer(timings, "setup_s", "simulate_s"):
                self._cli(ledger, work, "simulate", payload, data)
            manifest = json.loads((data / "manifest.json").read_text())
            expected = inputs["train_events_total"] + inputs["test_events_total"]
            ledger.check(manifest["n_events_total"] == expected, "cli simulate: event count")
        return {**inputs, "data": data}

    def round(self, state: dict, work: Path, ledger: Ledger, timings: dict, quality: dict) -> None:
        data = state["data"]
        ks_pass = []
        for method in METHODS:
            fit_dir, eval_dir = work / f"fit_{method}", work / f"eval_{method}"
            for stale in (fit_dir, eval_dir):
                shutil.rmtree(stale, ignore_errors=True)
            payload = {"method": method, "data": str(data)}
            if method != "mle":
                payload.update(max_iter=self.sizes.caps[method], tol=0.0)
            try:
                with ledger.op(f"cli fit {method}"):
                    with timer(timings, f"fit_{method}_s"):
                        self._cli(ledger, work, "fit", payload, fit_dir, ok=(0, 2))
                    for part in ("mu", "phi"):
                        table = np.loadtxt(fit_dir / f"estimates_{part}.csv", delimiter=",", skiprows=1)
                        ledger.check(_finite_nonneg(table[:, 1]), f"fit {method}: {part} on the report grid")
                payload = {"model": str(fit_dir / "model.json"), "data": str(data)}
                with ledger.op(f"cli eval {method}"):
                    with timer(timings, "eval_s"):
                        self._cli(ledger, work, "eval", payload, eval_dir)
                    metrics = json.loads((eval_dir / "metrics.json").read_text())
                    z = np.loadtxt(eval_dir / "qq.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
                    ledger.check(math.isfinite(metrics["test_ll_mean"]), f"eval {method}: test_ll finite")
                    ledger.check(_z_ok(z), f"eval {method}: rescaled z in [0, 1)")
            except _Skip:
                continue
            quality[f"test_ll_{method}"] = metrics["test_ll_mean"]
            if method != "mle":
                quality[f"est_err_mu_{method}"] = metrics["est_err_mu"]
                quality[f"est_err_phi_{method}"] = metrics["est_err_phi"]
            ks_pass.append(metrics["ks_p"] >= KS_LEVEL)
        quality["ks_pass_frac"] = float(np.mean(ks_pass)) if ks_pass else 0.0

    def default_stop_fits(self, state: dict, work: Path, ledger: Ledger) -> list[dict]:
        """``fit`` through the CLI with no ``max_iter``/``tol``: the program's own stop rule."""
        records: list[dict] = []
        for method in METHODS:
            fit_dir = work / f"default_{method}"
            shutil.rmtree(fit_dir, ignore_errors=True)
            with verdict(ledger, records, method, f"cli fit {method}, default stop") as record:
                payload = {"method": method, "data": str(state["data"])}
                record["exit_code"] = self._cli(ledger, work, "fit", payload, fit_dir, ok=(0, 2))
                report = json.loads((fit_dir / "report.json").read_text())
                record.update(sweeps=report["n_iter"], converged=report["converged"])
        return records

    def sizes_record(self, state: dict) -> dict:
        return {**vars(self.sizes), **{k: v for k, v in state.items() if k not in ("data", "seed")}}


# ---------------------------------------------------------------------------
# small-batch-case2: many small library fits, fixed per-fit costs dominate


@dataclass(frozen=True)
class SmallSizes:
    n_datasets: int = 10
    n_train: int = 2  # windows per dataset
    n_test: int = 1
    train_pairs: int = 9_000  # per dataset: targets for the chosen candidate's admissible pairs
    test_pairs: int = 4_500
    candidates: int = 16
    caps: dict = field(default_factory=lambda: {"em": 40, "vi": 20})


class SmallBatchCase2:
    """fit_em, fit_vi and fit_mle on many independent small case2 datasets."""

    name = "small-batch-case2"

    def __init__(self, sizes: SmallSizes | None = None):
        self.sizes = sizes or SmallSizes()

    def prepare(self, seed: int) -> dict:
        """Per dataset, the candidate closest to the pair targets."""
        z = self.sizes
        truth = sgp.case2_rates(CASE_T)
        seeds = []
        for b in range(z.n_datasets):
            k, _ = pick_windows(
                truth, (z.n_train, z.n_test), (z.train_pairs, z.test_pairs), lambda i: derive_seed(seed, 2, b, i), z.candidates
            )
            seeds.append([derive_seed(seed, 2, b, k + i) for i in range(z.n_train + z.n_test)])
        return {"window_seeds": seeds}

    def setup(self, inputs: dict, work: Path, ledger: Ledger, timings: dict) -> dict:
        # Each dataset is simulated just before it is fitted (see ``round``), so
        # that set-up time is sampled across the whole iteration.
        return {**inputs, "truth": sgp.case2_rates(CASE_T), "datasets": []}

    def _simulate(self, state: dict, b: int) -> tuple[list, list]:
        windows = [sgp.simulate_thinning(state["truth"], CASE_T, s) for s in state["window_seeds"][b]]
        return windows[: self.sizes.n_train], windows[self.sizes.n_train :]

    def round(self, state: dict, work: Path, ledger: Ledger, timings: dict, quality: dict) -> None:
        quad = gauss_legendre(EVAL_QUAD_ORDER, 0.0, CASE_T)
        lls = {m: [] for m in METHODS}
        errs: dict[str, list] = {}
        ks_pass = []
        for b in range(self.sizes.n_datasets):
            try:
                with ledger.op(f"simulate #{b}"), timer(timings, "setup_s", "simulate_s"):
                    train, test = self._simulate(state, b)
            except _Skip:
                continue
            state["datasets"].append((train, test))
            for method in METHODS:
                try:
                    with ledger.op(f"fit {method} #{b}"):
                        with timer(timings, f"fit_{method}_s"):
                            model, report = _fit(method, train, self.sizes.caps)
                        _check_report(ledger, report, f"fit {method} #{b}")
                    with ledger.op(f"rates {method} #{b}"), timer(timings, "eval_s"):
                        rates = sgp.rates_for_eval(model, t_phi=CASE_T)
                        mu_err, phi_err = _err(rates, state["truth"])
                    scores = [_score(ledger, timings, rates, seq, quad, f"{method} #{b}") for seq in test]
                except _Skip:
                    continue
                lls[method].extend(ll for ll, _ in scores)
                ks_pass.extend(ks_p >= KS_LEVEL for _, ks_p in scores)
                if method != "mle":
                    errs.setdefault(f"est_err_mu_{method}", []).append(mu_err)
                    errs.setdefault(f"est_err_phi_{method}", []).append(phi_err)
        quality.update({f"test_ll_{m}": float(np.mean(v)) for m, v in lls.items() if v})
        quality.update({k: float(np.mean(v)) for k, v in errs.items()})
        quality["ks_pass_frac"] = float(np.mean(ks_pass)) if ks_pass else 0.0

    def default_stop_fits(self, state: dict, work: Path, ledger: Ledger) -> list[dict]:
        records: list[dict] = []
        for b, (train, _) in enumerate(state["datasets"]):
            for method in METHODS:
                _default_fit(ledger, records, method, train, f"fit {method} #{b}, default stop")
        return records

    def sizes_record(self, state: dict) -> dict:
        train = [s for windows, _ in state["datasets"] for s in windows]
        test = [s for _, windows in state["datasets"] for s in windows]
        return {
            **vars(self.sizes),
            "train_windows_total": len(train),
            "train_events_total": sum(map(len, train)),
            "train_pairs_total": sum(map(n_pairs, train)),
            "held_out_windows_total": len(test),
            "held_out_pairs_total": sum(map(n_pairs, test)),
        }


# ---------------------------------------------------------------------------
# gof-roundtrip: simulate from fitted models, score and time-rescale; no fit timed


@dataclass(frozen=True)
class GofSizes:
    n_train: int = 7
    train_pairs: int = 40_000  # target for the chosen candidate's admissible pairs
    candidates: int = 32
    sim_pairs: int = 20_000  # admissible pairs simulated per fitted model and round
    caps: dict = field(default_factory=lambda: {"em": 40, "vi": 20})


FIT_REPEATS = 2  # gof set-up runs each fit this often; fit_*_s is their total


class GofRoundtrip:
    """simulate_thinning(rates_for_eval(model)) then test_ll, rescale and KS.

    Set-up fits each model ``FIT_REPEATS`` times and checks that the repeats
    give identical models: one fit per iteration left ``fit_em_s`` with a
    spread of 0.21 over seeds, two brought it to 0.06.
    """

    name = "gof-roundtrip"

    def __init__(self, sizes: GofSizes | None = None):
        self.sizes = sizes or GofSizes()

    def prepare(self, seed: int) -> dict:
        z = self.sizes
        k, _ = pick_windows(sgp.case1_rates(), (z.n_train,), (z.train_pairs,), lambda i: derive_seed(seed, 3, i), z.candidates)
        return {"seed": seed, "train_seeds": [derive_seed(seed, 3, k + i) for i in range(z.n_train)]}

    def setup(self, inputs: dict, work: Path, ledger: Ledger, timings: dict) -> dict:
        truth = sgp.case1_rates()
        seed = inputs["seed"]
        models, errs = {}, {}
        with ledger.op("simulate training windows"), timer(timings, "setup_s"):
            train = [sgp.simulate_thinning(truth, CASE_T, s) for s in inputs["train_seeds"]]
        for method in METHODS:
            for r in range(FIT_REPEATS):
                with ledger.op(f"fit {method} #{r}"):
                    with timer(timings, f"fit_{method}_s", "setup_s"):
                        model, report = _fit(method, train, self.sizes.caps)
                    _check_report(ledger, report, f"fit {method} #{r}")
                    ledger.check(r == 0 or _same_model(model, models[method]), f"fit {method}: repeat differs")
                models.setdefault(method, model)
        for method, model in models.items():
            if method != "mle":
                mu_err, phi_err = _err(sgp.rates_for_eval(model, t_phi=CASE_T), truth)
                errs[f"est_err_mu_{method}"] = mu_err
                errs[f"est_err_phi_{method}"] = phi_err
        return {
            "seed": seed,
            "train": train,
            "models": models,
            "errs": errs,
            "train_windows_total": len(train),
            "train_events_total": sum(map(len, train)),
            "train_pairs_total": sum(map(n_pairs, train)),
        }

    def round(self, state: dict, work: Path, ledger: Ledger, timings: dict, quality: dict) -> None:
        """Per model, windows until they hold ``sim_pairs`` admissible pairs.

        The model's simulate and score times are then rescaled to exactly
        ``sim_pairs`` pairs: their cost per simulated pair varied by 8% between
        the VI models of six seeds, their cost per window by 17%, and the last
        window overshoots the target by up to a window's pairs.
        """
        quad = gauss_legendre(EVAL_QUAD_ORDER, 0.0, CASE_T)
        ks_pass = []
        windows, pairs_simulated = {}, {}
        for m, (method, model) in enumerate(state["models"].items()):
            rates = sgp.rates_for_eval(model, t_phi=CASE_T)
            spent: dict = {}
            lls, pairs, j = [], 0, 0
            while pairs < self.sizes.sim_pairs and j < MAX_WINDOWS:
                try:
                    with ledger.op(f"simulate {method} #{j}"), timer(spent, "simulate_s"):
                        seq = sgp.simulate_thinning(rates, CASE_T, derive_seed(state["seed"], 4, m, j))
                    j += 1
                    pairs += n_pairs(seq)
                    ll, ks_p = _score(ledger, spent, rates, seq, quad, f"{method} #{j}")
                except _Skip:
                    break
                lls.append(ll)
                ks_pass.append(ks_p >= KS_LEVEL)
            ledger.check(pairs >= self.sizes.sim_pairs, f"{method}: {pairs} pairs in {j} windows")
            merge_timings(timings, spent, self.sizes.sim_pairs / max(pairs, 1))
            windows[method], pairs_simulated[method] = j, pairs
            if lls:
                quality[f"test_ll_{method}"] = float(np.mean(lls))
        quality.update(state["errs"])
        quality["ks_pass_frac"] = float(np.mean(ks_pass)) if ks_pass else 0.0
        state["sim_windows"], state["sim_pairs_simulated"] = windows, pairs_simulated

    def default_stop_fits(self, state: dict, work: Path, ledger: Ledger) -> list[dict]:
        records: list[dict] = []
        for method in METHODS:
            _default_fit(ledger, records, method, state["train"], f"fit {method}, default stop")
        return records

    def sizes_record(self, state: dict) -> dict:
        keep = ("train_windows_total", "train_events_total", "train_pairs_total", "sim_windows", "sim_pairs_simulated")
        return {**vars(self.sizes), **{k: state.get(k) for k in keep}}


WORKLOADS = {w.name: w for w in (DenseCase1, SmallBatchCase2, GofRoundtrip)}
