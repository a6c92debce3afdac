"""Aggregation of iteration totals, the scaled timer and input sizing."""

import signal
import time

import pytest
import sgp_hawkes as sgp
from sgp_hawkes.process import CASE_T

import harness
import workloads
from workloads import EDGE_PROBES, PROBE_INTERVAL_S, REFERENCE_S, merge_timings, n_pairs, pick_windows, timer


def test_aggregate_takes_median_over_iterations_of_totals():
    records = [
        {"fit_em_s": 1.0, "setup_s": 3.0},
        {"fit_em_s": 5.0, "setup_s": 4.0, "eval_s": 2.0},
        {"fit_em_s": 2.0, "setup_s": 18.0},
    ]
    assert harness._aggregate(records) == {"fit_em_s": 2.0, "setup_s": 4.0, "eval_s": 2.0}


def test_timer_scales_every_name_and_keeps_unscaled_seconds():
    timings = {}
    with timer(timings, "setup_s", "simulate_s"):
        sum(range(10_000))
    raw = timings["_raw"]
    assert set(raw) == {"setup_s", "simulate_s"} and raw["setup_s"] == raw["simulate_s"] > 0
    assert timings["setup_s"] == timings["simulate_s"] > 0
    with timer(timings, "simulate_s"):
        pass
    assert timings["simulate_s"] > timings["setup_s"]


def test_timer_records_time_when_the_block_raises():
    timings = {}
    with pytest.raises(ValueError):
        with timer(timings, "eval_s"):
            raise ValueError
    assert timings["eval_s"] >= 0.0
    assert REFERENCE_S > 0


def test_merge_timings_rescales_only_scaled_seconds():
    into = {"eval_s": 1.0, "_raw": {"eval_s": 1.0}}
    merge_timings(into, {"eval_s": 4.0, "simulate_s": 2.0, "_raw": {"eval_s": 3.0}}, 0.5)
    assert into == {"eval_s": 3.0, "simulate_s": 1.0, "_raw": {"eval_s": 4.0}}


def test_timer_probes_inside_the_block_and_disarms_the_alarm(monkeypatch):
    calls = []

    def reference():
        calls.append(time.perf_counter())
        return REFERENCE_S

    monkeypatch.setattr(workloads, "_reference_once", reference)
    previous = signal.getsignal(signal.SIGALRM)
    timings = {}
    with timer(timings, "fit_em_s"):
        end = time.perf_counter() + 5 * PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(calls) > 2 * EDGE_PROBES + 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert timings["fit_em_s"] == timings["_raw"]["fit_em_s"] > 0  # scale 1: probes read REFERENCE_S


def test_pick_windows_takes_the_candidate_closest_to_the_targets():
    rates = sgp.case1_rates()
    k, (train, test) = pick_windows(rates, (2, 1), (10_000, 5_000), lambda i: 100 + i, 4)

    def error(j):
        pairs = [n_pairs(sgp.simulate_thinning(rates, CASE_T, 100 + j + i)) for i in range(3)]
        return abs(pairs[0] + pairs[1] - 10_000) / 10_000 + abs(pairs[2] - 5_000) / 5_000

    assert len(train) == 2 and len(test) == 1 and 0 <= k < 4
    assert error(k) == min(error(j) for j in range(4))
    assert list(train[0].times) == list(sgp.simulate_thinning(rates, CASE_T, 100 + k).times)
