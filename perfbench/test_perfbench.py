"""Self-tests of the benchmark: every workload at a tiny scale.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``. A tiny generic
network stands in for the cached one, so nothing here pretrains for long.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from repro.dnn.config import NetworkConfig, PretrainConfig
from repro.dnn.pretrained import pretrain_network

from perfbench import run
from perfbench.layers import LayerTracer
from perfbench.workloads import (
    WORKLOADS,
    CaseStudyFastest,
    ServiceOpen,
    SweepM2,
    request_block,
)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def network_cache(tmp_path_factory):
    """A cache dir holding a tiny network under the default network's key."""
    directory = tmp_path_factory.mktemp("dnn-cache")
    tiny = PretrainConfig(
        network=NetworkConfig(hidden_sizes=(48, 32), name="tiny"),
        samples_per_class=60,
        epochs=2,
        seed=3,
    )
    default = PretrainConfig.default()
    network = pretrain_network(tiny)
    network.save(directory / f"generic-{default.network.name}-{default.cache_key()}.npz")
    return directory


@pytest.fixture
def env(network_cache, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(network_cache))
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    return {"nproc": 2}


def _workload(name, tmp_path, seed=5):
    return WORKLOADS[name](seed, tmp_path, "tiny")


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for name in [*end_to_end, *per_layer, *run.WORKLOAD_NAMES]:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert end_to_end["setup_s"] == "s"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_end_to_end(name, tmp_path, env):
    workload = _workload(name, tmp_path)
    result = run.measure(workload, 1.0, 0.0, env)
    verdict = result["verdict"]
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.attempted > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric, (value, unit) in result["metrics"].items():
        assert unit == run.END_TO_END[metric]
        assert value == value and value >= 0, metric


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_accounting(name, tmp_path, env):
    workload = _workload(name, tmp_path)
    result = run.traced(workload, 0.5, env, tmp_path / "report.json")
    assert set(result["metrics"]) == set(run.PER_LAYER)
    tracer = result["tracer"]
    # Every invariant except the coverage share, which tiny units miss.
    assert tracer.check_invariants(result["thread"], result["accounting_wall_s"] * len(
        result["units"]), 0.0) == []
    assert result["metrics"]["regression.fit.calls"][0] > 0
    assert json.loads((tmp_path / "report.json").read_text())["workload"] == name


def test_traced_work_counts_are_per_unit_over_several_cycles(tmp_path, env):
    """Two traced cycles of the same study give the per-unit counts of one."""
    counted = (
        "synthesis.training.samples",
        "nn.train.samples",
        "nn.forward.rows",
        "pmnf.term_evaluate.calls",
        "regression.hypotheses_per_model",
        "run.journal.bytes",
    )
    per_unit = []
    for cycles in (1, 2):
        workload = CaseStudyFastest(5, tmp_path, "tiny")
        result = run.traced(workload, 0.0, env, tmp_path / "report.json", cycles=cycles)
        assert len(result["units"]) == cycles
        per_unit.append({name: result["metrics"][name][0] for name in counted})
    assert per_unit[0] == per_unit[1]
    assert per_unit[0]["synthesis.training.samples"] > 0


def test_service_mix_comes_from_the_case_studies():
    block = request_block()
    # FASTEST's 23 kernels as 8, 8, 7; RELEARN's 3; KRIPKE's 6 -- each with
    # one and two parameters and both methods.
    assert sorted(kernels for params, kernels, method in block) == sorted(
        [8, 8, 7, 3, 6] * 4
    )
    assert {(params, method) for params, _, method in block} == {
        (params, method) for params in (1, 2) for method in ServiceOpen.methods
    }


def test_sweep_check_fires_on_corrupted_output(tmp_path, env):
    workload = SweepM2(5, tmp_path, "tiny")
    state = workload.setup(1)
    try:
        unit = workload.run_unit(state, 0)
        assert workload.check(state, [unit]).problems == []
        cell = next(iter(unit.output.cells.values()))
        cell.functions[0] = "1 + x1"
        problems = workload.check(state, [unit]).problems
    finally:
        workload.close(state)
    assert any("selected models differ" in p for p in problems)


def test_casestudy_check_fires_on_missing_kernels(tmp_path, env):
    workload = CaseStudyFastest(5, tmp_path, "tiny")
    state = workload.setup(1)
    unit = workload.run_unit(state, 0)
    assert workload.check(state, [unit]).failed == 0
    dropped = unit.output.outcomes[0]
    unit.output.outcomes = [
        o for o in unit.output.outcomes
        if not (o.kernel == dropped.kernel and o.modeler == dropped.modeler)
    ]
    verdict = workload.check(state, [unit])
    assert verdict.failed == 1
    assert any(dropped.kernel in p for p in verdict.problems)


def test_service_check_fires_on_corrupted_response(tmp_path, env):
    workload = ServiceOpen(5, tmp_path, "tiny")
    state = workload.setup(1)
    try:
        unit = workload.run_unit(state, 0)
    finally:
        workload.close(state)
    assert workload.check(state, [unit]).problems == []
    for _, response in unit.output["answered"]:
        response["models"][0]["formatted"] += " + 1"
    problems = workload.check(state, [unit]).problems
    assert problems and all("differ from model_experiment" in p for p in problems)


def test_tracer_self_time_excludes_children_and_restores_bindings():
    import repro.noise.estimation as estimation

    original = estimation.estimate_noise_level
    tracer = LayerTracer()
    tracer.install()
    try:
        assert estimation.estimate_noise_level is not original
    finally:
        tracer.uninstall()
    assert estimation.estimate_noise_level is original

    def leaf():
        time.sleep(0.02)

    def parent():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.01:
            pass
        wrapped_leaf()

    wrapped_leaf = tracer._timed("leaf", leaf)
    wrapped_parent = tracer._timed("parent", parent)
    with tracer.root():
        wrapped_parent()
    totals = tracer.layer_totals()
    assert totals["leaf"].wall_s >= 0.02
    assert totals["leaf"].cpu_s < totals["leaf"].wall_s
    assert 0.01 <= totals["parent"].wall_s < 0.02
    assert totals["parent"].total_s >= totals["parent"].wall_s + totals["leaf"].wall_s
    root = totals["bench.root"]
    assert root.wall_s + totals["parent"].wall_s + totals["leaf"].wall_s == pytest.approx(
        root.total_s
    )
