"""Shipped acceptance checks, one test function per criterion.

Criteria 1-3 drive the full command-line pipeline (simulate -> fit em/vi/mle
-> eval) on both synthetic presets at full scale and judge the persisted
metrics. Criteria 4-8 run focused numerical checks: trace monotonicity and
coordinate-update purity, wall-time scaling, independent dense/brute-force
oracles, goodness-of-fit calibration, and closed-form constants.

Each test ends by printing one "[acceptance] criterion N: PASS|FAIL (...)"
line -- run ``pytest tests/test_acceptance.py -v -s`` for the full report.
This module is deliberately self-contained: it reconstructs its oracles
inline rather than importing them from the unit tests.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import expit

from sgp_hawkes import FitConfig, fit_em, fit_vi
from sgp_hawkes.cli import main
from sgp_hawkes.em import (
    _EmEngine,
    estep_branching,
    estep_pg,
    init_model,
    mstep,
    project,
)
from sgp_hawkes.evaluation import RescaledSample, ks_statistic, rescale
from sgp_hawkes.evaluation import test_ll as held_out_ll
from sgp_hawkes.fitbase import GammaFactor, build_caches, build_dataset, estep
from sgp_hawkes.kernels import InducingGrid, KernelHyperparams, gram, se_cross
from sgp_hawkes.mle import ExpHawkesParams, _window_nll_grad, exp_hawkes_nll
from sgp_hawkes.pg import pg_mean
from sgp_hawkes.process import (
    EventSequence,
    RateFunctions,
    case1_rates,
    case2_rates,
    read_events_csv,
    simulate_thinning,
)
from sgp_hawkes.quadrature import gauss_legendre
from sgp_hawkes.serialize import load_model, rates_for_eval
from sgp_hawkes.vi import _ViEngine
from sgp_hawkes.vi import project as vi_project

EULER_GAMMA = 0.5772156649015328606
SOFT_TESTLL_TARGET = 33.98  # reference mean held-out LL for the matched case1 setup


def record(n: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def run_cli(command: str, payload: dict, cfg_path, out_dir, expect=(0,)) -> int:
    cfg_path.write_text(json.dumps(payload))
    rc = main([command, "--config", str(cfg_path), "--out", str(out_dir)])
    assert rc in expect, f"{command} exited {rc}, expected one of {expect}"
    return rc


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full simulate/fit/eval pipeline for both presets through the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    result = {}
    for case in ("case1", "case2"):
        t_start = time.perf_counter()
        base = root / case
        base.mkdir()
        data = base / "data"
        run_cli(
            "simulate",
            {"preset": case, "n_train": 100, "n_test": 10, "seed": 0},
            base / "sim.json",
            data,
        )
        fits, metrics = {}, {}
        for method in ("em", "vi", "mle"):
            fit_dir = base / f"fit_{method}"
            # rc 2 = clean stop at the iteration cap; artifacts are complete
            run_cli(
                "fit",
                {"method": method, "data": str(data)},
                base / f"fit_{method}.json",
                fit_dir,
                expect=(0, 2),
            )
            eval_dir = base / f"eval_{method}"
            run_cli(
                "eval",
                {"model": str(fit_dir / "model.json"), "data": str(data)},
                base / f"eval_{method}.json",
                eval_dir,
            )
            fits[method] = fit_dir
            metrics[method] = json.loads((eval_dir / "metrics.json").read_text())
        result[case] = {
            "data": data,
            "fits": fits,
            "metrics": metrics,
            "runtime": time.perf_counter() - t_start,
        }
    return result


def test_criterion_1_case1_estimation_error(pipeline):
    """Case 1 at full scale: EM/MF trigger-kernel MSE <= 0.005, EM baseline
    MSE <= 0.30, and the whole case pipeline under ten minutes."""
    m = pipeline["case1"]["metrics"]
    runtime = pipeline["case1"]["runtime"]
    checks = [
        ("em est_err_phi", m["em"]["est_err_phi"], m["em"]["est_err_phi"] <= 0.005),
        ("vi est_err_phi", m["vi"]["est_err_phi"], m["vi"]["est_err_phi"] <= 0.005),
        ("em est_err_mu", m["em"]["est_err_mu"], m["em"]["est_err_mu"] <= 0.30),
        ("pipeline seconds", runtime, runtime < 600.0),
    ]
    detail = ", ".join(f"{name}={value:.4g}{'' if ok else ' [!]'}" for name, value, ok in checks)
    record(1, all(ok for _, _, ok in checks), detail)


def test_criterion_2_case2_estimation_error(pipeline):
    """Case 2 at full scale: EM within 0.30 on the baseline and 0.005 on the
    trigger kernel; MF within 0.30 on the baseline."""
    m = pipeline["case2"]["metrics"]
    checks = [
        ("em est_err_mu", m["em"]["est_err_mu"], m["em"]["est_err_mu"] <= 0.30),
        ("em est_err_phi", m["em"]["est_err_phi"], m["em"]["est_err_phi"] <= 0.005),
        ("vi est_err_mu", m["vi"]["est_err_mu"], m["vi"]["est_err_mu"] <= 0.30),
    ]
    detail = ", ".join(f"{name}={value:.4g}{'' if ok else ' [!]'}" for name, value, ok in checks)
    record(2, all(ok for _, _, ok in checks), detail)


def test_criterion_3_heldout_ordering(pipeline):
    """Mean held-out log likelihood of EM and MF strictly beats the
    exponential-kernel MLE on both presets (10 holdouts each), and case1 MF
    lands within +-1.5 of the reference value on a 2000-window replication."""
    parts = []
    detail = []
    for case in ("case1", "case2"):
        m = pipeline[case]["metrics"]
        em, vi, mle = (m[k]["test_ll_mean"] for k in ("em", "vi", "mle"))
        parts += [em > mle, vi > mle]
        detail.append(f"{case}: em={em:.2f} vi={vi:.2f} mle={mle:.2f}")

    model = load_model(pipeline["case1"]["fits"]["vi"] / "model.json")
    rates = rates_for_eval(model)
    truth = case1_rates()
    quad = gauss_legendre(200, 0.0, 100.0)
    lls = [
        held_out_ll(rates, simulate_thinning(truth, 100.0, seed=s), quad)
        for s in range(30_000, 32_000)
    ]
    soft = float(np.mean(lls))
    parts.append(abs(soft - SOFT_TESTLL_TARGET) <= 1.5)
    detail.append(f"soft vi mean={soft:.2f} (target {SOFT_TESTLL_TARGET}+-1.5)")
    record(3, all(parts), "; ".join(detail))


def test_criterion_4_monotone_traces_and_pure_updates():
    """With hyperparameters frozen, both objective traces are non-decreasing
    within 1e-3 relative tolerance per iteration on case 1/2 subset fits, and
    re-running any single variational update with fixed neighbors moves it by
    less than 1e-12."""

    def trace_ok(trace):
        trace = np.asarray(trace)
        drops = np.diff(trace) + 1e-3 * np.maximum(1.0, np.abs(trace[:-1]))
        return bool(np.all(drops >= 0.0)), float(np.min(np.diff(trace), initial=np.inf))

    config = FitConfig(T=100.0, T_phi=6.0, max_iter=50, tol=0.0, hyper_refresh_every=0)
    parts, detail = [], []
    vi_state = None
    for name, rates in (("case1", case1_rates()), ("case2", case2_rates(100.0))):
        seqs = [simulate_thinning(rates, 100.0, seed=s) for s in range(10)]
        _, em_report = fit_em(seqs, config)
        ok_em, _ = trace_ok(em_report.objective_trace)
        vi_model, vi_report = fit_vi(seqs, config)
        ok_vi, _ = trace_ok(vi_report.objective_trace)
        parts += [ok_em, ok_vi]
        detail.append(f"{name}: em monotone={ok_em} vi monotone={ok_vi}")
        if name == "case1":
            data = build_dataset(seqs, 6.0)
            vi_state = (vi_model, data, build_caches(data, config))

    model, data, caches = vi_state

    def vi_estep():
        """(tilts, (thinned-point rate at mu's nodes, phi's integral of it per event),
        responsibilities, PG means, weights r) of one E-step at the factors."""
        links = vi_project(model, caches)
        r, branching = estep(links, data, caches)
        mu_nodes, phi_nodes = r["mu"][data.n_events:], r["phi"][data.n_pairs:]  # node weight x rate
        rates = mu_nodes / caches["mu"].quad.weights, float(np.sum(phi_nodes)) / data.n_events
        return {n: links[n][1] for n in ("mu", "phi")}, rates, branching, estep_pg(links), r

    tilts, rates_q, branching, pg, r = vi_estep()
    gaps = []
    t2, r2, b2, _, _ = vi_estep()
    gaps.append(max(np.max(np.abs(tilts["mu"] - t2["mu"])), np.max(np.abs(tilts["phi"] - t2["phi"]))))
    gaps.append(max(np.max(np.abs(rates_q[0] - r2[0])), abs(rates_q[1] - r2[1])))
    gaps.append(max(np.max(np.abs(branching.background - b2.background)), np.max(np.abs(branching.parent - b2.parent))))
    def vi_mstep():
        new = model
        for name, (_, *update) in mstep(data, caches, pg, r).items():
            new = _ViEngine().install(new, name, caches[name].hp, *update)
        return new

    m1, m2 = vi_mstep(), vi_mstep()
    lams = m1.mu.lambda_star, m2.mu.lambda_star, m1.phi.lambda_star, m2.phi.lambda_star
    gaps.append(max(abs(lams[0].alpha - lams[1].alpha), abs(lams[2].beta - lams[3].beta)))
    gaps.append(max(np.max(np.abs(m1.mu.mean - m2.mu.mean)), np.max(np.abs(m1.phi.cov - m2.phi.cov))))
    worst = max(gaps)
    parts.append(worst <= 1e-12)
    detail.append(f"update re-run gap={worst:.2e}")
    record(4, all(parts), "; ".join(detail))


def test_criterion_5_near_linear_scaling(tmp_path):
    """Fixed 50 iterations: median-of-5 wall time grows by at most 2.6x when
    the event count doubles from 1000 to 2000 and from 2000 to 4000."""
    out = tmp_path / "bench"
    run_cli(
        "bench",
        {"method": "em", "sizes": [1000, 2000, 4000], "iters": 50, "repeats": 5, "seed": 0},
        tmp_path / "bench.json",
        out,
    )
    rows = [line.split(",") for line in (out / "bench.csv").read_text().splitlines()[1:]]
    seconds = {int(n): float(s) for n, s in rows}
    r21 = seconds[2000] / seconds[1000]
    r42 = seconds[4000] / seconds[2000]
    record(
        5,
        r21 <= 2.6 and r42 <= 2.6,
        f"2000/1000={r21:.2f}, 4000/2000={r42:.2f} (cap 2.6); "
        + ", ".join(f"n={n}: {s:.2f}s" for n, s in sorted(seconds.items())),
    )


def test_criterion_6_oracle_equivalence(sparse_mean):
    """Six independent re-derivations agree with the library at the stated
    tolerances: sparse projection vs dense solve (1e-10), EM and VI Gaussian
    updates vs explicit dense assembly on S=2 toys (1e-8), branching
    responsibilities vs brute force on 8 events (1e-12), Gauss-Legendre vs a
    100001-point trapezoid (1e-6 relative), the exponential-kernel recursion
    vs a direct double sum (1e-10), and its gradient vs central finite
    differences (1e-5 relative)."""
    rng = np.random.default_rng(2024)
    parts, detail = [], []

    # 1. sparse projection vs dense linear solve
    grid = InducingGrid(np.linspace(0.0, 10.0, 8), 10.0)
    hp = KernelHyperparams(1.0, 0.07)
    gm = gram(grid, hp)
    u = rng.normal(size=8)
    x = rng.uniform(0.0, 10.0, 40)
    dense = se_cross(x, grid.points, hp) @ np.linalg.solve(gm.values, u)
    gap = np.max(np.abs(sparse_mean(x, grid, gm, u, hp) - dense))
    parts.append(gap < 1e-10)
    detail.append(f"sparse_mean {gap:.1e}")

    # 2. EM M-step and VI GP update vs explicit dense assembly, S=2
    def dense_gaussian(a_pt, b_pt, points, a_q, b_q, quad, cache):
        u_mat = np.zeros((2, 2))
        c_vec = np.zeros(2)
        for a, b, pt in zip(a_pt, b_pt, points):
            k = se_cross(np.array([pt]), cache.grid.points, cache.hp)[0]
            u_mat += a * np.outer(k, k)
            c_vec += b * k
        for w, a, b, pt in zip(quad.weights, a_q, b_q, quad.nodes):
            k = se_cross(np.array([pt]), cache.grid.points, cache.hp)[0]
            u_mat += w * a * np.outer(k, k)
            c_vec += w * b * k
        kmat = cache.gm.values
        solve = np.linalg.solve(u_mat + kmat, np.eye(2))
        return kmat @ solve @ c_vec, kmat @ solve @ kmat

    def pg_of(c):
        c = np.asarray(c, dtype=float)
        return np.where(np.abs(c) < 1e-4, 0.25 - c * c / 48.0, np.tanh(c / 2.0) / (2.0 * c))

    seqs = [EventSequence(np.sort(rng.uniform(0.0, 10.0, 5)), 10.0)]
    config = FitConfig(T=10.0, T_phi=2.0, S_mu=2, S_phi=2, hyper_refresh_every=0)
    data = build_dataset(seqs, 2.0)
    caches = build_caches(data, config)
    model = init_model(data, caches)

    def em_estep(model, data, caches):
        """(PG means, weights r, responsibilities): r is each component's responsibilities,
        then node weight x thinned-point rate at its nodes."""
        links = project(model, caches)
        return estep_pg(links), *estep(links, data, caches)

    def em_mstep(model, data, caches, pg, r, _):
        for name, (_, *update) in mstep(data, caches, pg, r).items():
            model = _EmEngine().install(model, name, caches[name].hp, *update)
        return model

    n_ev = data.n_events
    for _ in range(2):
        model = em_mstep(model, data, caches, *em_estep(model, data, caches))
    pg, r, br = em_estep(model, data, caches)
    marginal = r["mu"][n_ev:] / caches["mu"].quad.weights  # mu's thinned-point rate at its nodes
    new = em_mstep(model, data, caches, pg, r, br)
    want_u, _ = dense_gaussian(
        pg["mu"][:n_ev] * br.background,
        0.5 * br.background,
        data.events,
        marginal * pg["mu"][n_ev:],
        -0.5 * marginal,
        caches["mu"].quad,
        caches["mu"],
    )
    gap_em = np.max(np.abs(new.mu.mean - want_u))
    parts.append(gap_em < 1e-8)
    detail.append(f"em dense {gap_em:.1e}")

    vi_model, _ = fit_vi(seqs, replace(config, max_iter=3, tol=0.0))
    links = vi_project(vi_model, caches)
    pg = estep_pg(links)
    r, branching = estep(links, data, caches)
    *_, gp_mean, gp_cov = mstep(data, caches, pg, r)["mu"]
    marginal = r["mu"][n_ev:] / caches["mu"].quad.weights
    want_mean, want_cov = dense_gaussian(
        pg_of(links["mu"][1][:n_ev]) * branching.background,
        0.5 * branching.background,
        data.events,
        marginal * pg["mu"][n_ev:],
        -0.5 * marginal,
        caches["mu"].quad,
        caches["mu"],
    )
    gap_vi = max(np.max(np.abs(gp_mean - want_mean)), np.max(np.abs(gp_cov() - want_cov)))
    parts.append(gap_vi < 1e-8)
    detail.append(f"vi dense {gap_vi:.1e}")

    # 3. branching responsibilities vs brute-force enumeration, 8 events
    times = np.sort(rng.uniform(0.0, 10.0, 8))
    seqs8 = [EventSequence(times, 10.0)]
    config8 = FitConfig(T=10.0, T_phi=2.0, S_mu=5, S_phi=5)
    data8 = build_dataset(seqs8, 2.0)
    caches8 = build_caches(data8, config8)
    model8 = init_model(data8, caches8)
    for _ in range(3):
        model8 = em_mstep(model8, data8, caches8, *em_estep(model8, data8, caches8))
    br8 = estep_branching(project(model8, caches8), data8)

    def dense_eval(comp, pts):
        k = se_cross(np.asarray(pts, dtype=float), comp.grid.points, comp.hp)
        return k @ np.linalg.solve(gram(comp.grid, comp.hp).values, comp.mean)

    gap_br = 0.0
    bg_numer = model8.mu.lambda_star * expit(dense_eval(model8.mu, times))
    for i in range(8):
        lags = [times[i] - times[j] for j in range(i) if 0.0 < times[i] - times[j] <= 2.0]
        numers = [bg_numer[i]] + (
            list(model8.phi.lambda_star * expit(dense_eval(model8.phi, lags))) if lags else []
        )
        numers = np.array(numers)
        want = numers / numers.sum()
        gap_br = max(gap_br, abs(br8.background[i] - want[0]))
        gap_br = max(gap_br, float(np.max(np.abs(br8.parent[data8.child == i] - want[1:]), initial=0.0)))
    parts.append(gap_br < 1e-12)
    detail.append(f"branching {gap_br:.1e}")

    # 4. Gauss-Legendre vs 100001-point trapezoid on a squashed-GP integrand
    u6 = rng.normal(size=8)
    gm6 = gram(grid, hp)

    def integrand(t):
        return 2.7 * expit(-sparse_mean(t, grid, gm6, u6, hp))

    quad = gauss_legendre(200, 0.0, 10.0)
    gl = float(quad.weights @ integrand(quad.nodes))
    dense_t = np.linspace(0.0, 10.0, 100_001)
    tz = float(np.trapezoid(integrand(dense_t), dense_t))
    gap_q = abs(gl - tz) / abs(tz)
    parts.append(gap_q < 1e-6)
    detail.append(f"quadrature {gap_q:.1e}")

    # 5. exponential-kernel recursion vs O(N^2) double sum
    times2 = np.sort(rng.uniform(0.0, 50.0, 200))
    params = ExpHawkesParams(0.9, 0.5, 1.3)
    ll = 0.0
    for i, t in enumerate(times2):
        lam = params.mu + params.alpha * np.sum(np.exp(-params.beta * (t - times2[:i])))
        ll += np.log(lam)
    ll -= params.mu * 50.0
    ll -= (params.alpha / params.beta) * np.sum(1.0 - np.exp(-params.beta * (50.0 - times2)))
    got = exp_hawkes_nll(params, EventSequence(times2, 50.0))
    gap_rec = abs(got - (-ll)) / max(1.0, abs(ll))
    parts.append(gap_rec < 1e-10)
    detail.append(f"recursion {gap_rec:.1e}")

    # 6. analytic gradient vs central finite differences
    theta = np.array([0.8, 0.5, 1.0])
    _, grad = _window_nll_grad(*theta, times2, 0.0, 50.0)
    gap_fd = 0.0
    for k in range(3):
        hi, lo = theta.copy(), theta.copy()
        hi[k] += 1e-6
        lo[k] -= 1e-6
        f_hi, _ = _window_nll_grad(*hi, times2, 0.0, 50.0)
        f_lo, _ = _window_nll_grad(*lo, times2, 0.0, 50.0)
        fd = (f_hi - f_lo) / 2e-6
        gap_fd = max(gap_fd, abs(grad[k] - fd) / max(1.0, abs(fd)))
    parts.append(gap_fd < 1e-5)
    detail.append(f"gradient {gap_fd:.1e}")

    record(6, all(parts), ", ".join(detail))


def test_criterion_7_goodness_of_fit_calibration(pipeline):
    """Data re-simulated from the fitted case-1 EM model passes the 1%-level
    KS uniformity test in at least 48 of 50 seeds, while a constant-rate fit
    of the same clustered holdouts decisively fails it."""
    model = load_model(pipeline["case1"]["fits"]["em"] / "model.json")
    rates = rates_for_eval(model)
    quad = gauss_legendre(200, 0.0, 100.0)
    passes = 0
    for s in range(50):
        seq = simulate_thinning(rates, 100.0, seed=s)
        _, p = ks_statistic(rescale(rates, seq, quad))
        passes += p > 0.01

    holdouts = [
        read_events_csv(path, 100.0)
        for path in sorted(pipeline["case1"]["data"].glob("test_*.csv"))
    ]
    lam_bar = sum(len(s) for s in holdouts) / (len(holdouts) * 100.0)
    flat = RateFunctions(
        mu=lambda t: np.full_like(np.asarray(t, dtype=float), lam_bar),
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        T_phi=6.0,
        mu_integral=lambda t: lam_bar * np.asarray(t, dtype=float),
        phi_integral=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    pooled_z = np.concatenate([rescale(flat, s, quad).z for s in holdouts])
    pooled = RescaledSample(z=pooled_z, tau=np.empty(0), lam=np.empty(0), n_clamped=0)
    _, p_flat = ks_statistic(pooled)
    record(
        7,
        passes >= 48 and p_flat < 0.01,
        f"round trip {passes}/50 at 1% (need >=48); flat-rate control p={p_flat:.2e} (need <0.01)",
    )


def test_criterion_8_closed_form_constants():
    """Spot constants: the tilted-variance mean at zero tilt is exactly 1/4,
    the Gamma(1,1) mean log equals minus the Euler-Mascheroni constant to
    1e-10, and squared-exponential Gram matrices on uniform grids are exactly
    Toeplitz."""
    ok_pg = pg_mean(0.0) == 0.25
    gamma_gap = abs(GammaFactor(1.0, 1.0).mean_log() + EULER_GAMMA)
    # spacing 0.25 is exactly representable, so equal index offsets give
    # bitwise-equal kernel entries
    grid = InducingGrid(np.linspace(0.0, 2.5, 11), 2.5)
    kmat = se_cross(grid.points, grid.points, KernelHyperparams(1.3, 0.4))
    ok_toeplitz = np.array_equal(kmat, toeplitz(kmat[0]))
    record(
        8,
        ok_pg and gamma_gap <= 1e-10 and ok_toeplitz,
        f"pg_mean(0)==0.25: {ok_pg}; gamma mean-log gap {gamma_gap:.1e}; toeplitz {ok_toeplitz}",
    )
