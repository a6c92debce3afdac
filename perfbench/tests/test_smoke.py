"""Tiny-size runs of every workload, untraced and traced."""

import json

import pytest

import harness
from test_tracing import _bindings
from workloads import DenseCase1, DenseSizes, GofRoundtrip, GofSizes, SmallBatchCase2, SmallSizes

from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_CAPS = {"em": 3, "vi": 2}
TINY = {
    "dense-case1": lambda: DenseCase1(
        DenseSizes(n_train=1, n_test=1, train_pairs=1, test_pairs=1, candidates=1, caps=TINY_CAPS)
    ),
    "small-batch-case2": lambda: SmallBatchCase2(
        SmallSizes(n_datasets=1, n_train=1, n_test=1, train_pairs=1, test_pairs=1, candidates=1, caps=TINY_CAPS)
    ),
    "gof-roundtrip": lambda: GofRoundtrip(GofSizes(n_train=1, train_pairs=1, candidates=1, sim_pairs=1, caps=TINY_CAPS)),
}


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result, info = harness.run(name, 5, 0.0, False, tmp_path, wl=TINY[name]())
    assert result["correct"], info["notes"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(info["quality"]) == set(harness.QUALITY)
    assert len(info["iteration_walls"]) >= harness.MIN_ROUNDS


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_per_layer_metric_and_unwraps(name, tmp_path):
    before = _bindings()
    result, info = harness.run(name, 5, 0.0, True, tmp_path, wl=TINY[name]())
    assert result["correct"], info["notes"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] is not None for v in result["metrics"].values())
    assert {r["method"] for r in info["default_stop_fits"]} == {"em", "vi", "mle"}
    assert result["metrics"]["em.sweeps_to_tol"]["value"] > 0 and result["metrics"]["vi.sweeps_to_tol"]["value"] > 0
    assert (tmp_path / info["spans_file"]).stat().st_size > 0
    assert _bindings() == before
