"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-m2 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is the separate traced run: it prints the per-layer table (self wall time
and thread CPU per layer, work counts) from units run with the layer
wrappers of :mod:`perfbench.layers` and the program's own telemetry spans.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark imports the program from ``src/`` of the checkout it sits in
and keeps everything it writes -- the cached generic network, run dirs, the
traced run's layer report -- under ``.bench_build/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep-m2", "casestudy-fastest", "service-open")
#: Set-ups per invocation; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Worker processes of the traced run's comparison unit: the most the
#: benchmark uses on a 2-core machine.
PARALLEL_WORKERS = 2

#: name -> unit of every end-to-end metric (each workload reports all).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "functions/s",
    "time_to_model_s": "s",
    "accuracy_exact": "fraction",
    "median_error_pct": "%",
    "cpu_s": "CPU-s",
    "peak_rss_mb": "MB",
}
#: Printed with the service's end-to-end metrics but not gated: on the
#: 2-core machine the benchmark was tuned on, its p99 latency and capacity
#: spread up to 0.47 and 0.93 (quartile distance over median) from run to
#: run, beyond the largest bound a gated metric may have; the median
#: latency, 0.14-0.19, sits close to it.
REPORTED = {"latency_p50_ms": "ms", "latency_p99_ms": "ms", "max_rps_within_slo": "req/s"}

#: Per-layer metrics of the traced run: timed layers report calls, self
#: wall and self thread CPU per traced unit.
_TIMED = (
    "synthesis.training",
    "synthesis.measurements",
    "nn.train",
    "nn.forward",
    "preprocessing.encode",
    "dnn.classify",
    "dnn.adapt",
    "regression.fit",
    "regression.select",
    "modeling.model_kernel",
    "noise.estimate",
    "run.journal",
    "run.replay",
    "service.parse",
)
PER_LAYER: "dict[str, str]" = {}
for _layer in _TIMED:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.wall_s"] = "s"
    PER_LAYER[f"{_layer}.cpu_s"] = "CPU-s"
PER_LAYER.update(
    {
        "synthesis.training.samples": "count",
        "nn.train.samples": "count",
        "nn.forward.rows": "count",
        "dnn.adapt.hits": "count",
        "dnn.adapt.misses": "count",
        "dnn.adapt.hit_ratio": "fraction",
        "regression.hypotheses_per_model": "count",
        "pmnf.term_evaluate.calls": "count",
        "run.journal.appends": "count",
        "run.journal.bytes": "bytes",
        "parallel.engine.wall_s": "s",
        "parallel.worker_busy_s": "worker-s",
        "parallel.idle_share": "fraction",
        "parallel.retries": "count",
        "parallel.failed": "count",
        "parallel.speedup": "x",
        "service.queue_wait_ms.p50": "ms",
        "service.queue_wait_ms.p99": "ms",
        "service.batch_size.mean": "requests",
        "service.rejected": "count",
        "service.errors": "count",
        "loadgen.lag_p99_ms": "ms",
        "trace.leaf_coverage": "fraction",
        "trace.overhead_s": "s",
    }
)



def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------- end to end
def end_to_end_metrics(workload, units, setup_s, peak_rss_mb) -> "tuple[dict, dict]":
    """The end-to-end metrics and, per metric, the samples behind it."""
    quality = workload.quality(units)
    time_to_model, timed = workload.time_to_model(units)
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": workload.throughput(units),
        "time_to_model_s": time_to_model,
        "accuracy_exact": quality["accuracy_exact"],
        "median_error_pct": quality["median_error_pct"],
        "cpu_s": statistics.median(unit.cpu_s for unit in units),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": SETUP_REPEATS,
        "throughput_per_s": len(units),
        "time_to_model_s": timed,
        "accuracy_exact": quality["models"],
        "median_error_pct": quality["models"],
        "cpu_s": len(units),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def cpu_problems(units, nproc: int) -> list:
    """Process-tree CPU can never exceed ``nproc`` cores times the wall time."""
    return [
        f"unit {i}: {unit.cpu_s:.2f} CPU-s in {unit.wall_s:.2f}s exceeds {nproc} cores"
        for i, unit in enumerate(units)
        if unit.cpu_s > nproc * unit.wall_s * 1.02 + 0.05
    ]


def timed_setups(workload, workers: int):
    """Set up ``SETUP_REPEATS`` times; keep the last state, return the median."""
    seconds, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        state = workload.setup(workers)
        seconds.append(time.perf_counter() - start)
    return state, statistics.median(seconds)


def measure(workload, seconds: float, import_s: float, env: dict) -> dict:
    from perfbench.measure import peak_rss_mb, thread_counts, worker_peak_rss_kb

    state, setup_s = timed_setups(workload, workload.workers)
    try:
        start = time.perf_counter()
        units = workload.measure_units(state, seconds)
        measured_s = time.perf_counter() - start
        env["os_threads_after_run"] = thread_counts()
        # One worker runs in-process: the service then has no worker process.
        # Read before the checks, which model again in this process.
        peak_mb = peak_rss_mb(
            workload.workers if workload.workers > 1 else 0, worker_peak_rss_kb()
        )
        reported = workload.reported(state, units)
        verdict = workload.check(state, units)
    finally:
        workload.close(state)
    verdict.problems += cpu_problems(units, env["nproc"])
    metrics, samples = end_to_end_metrics(workload, units, import_s + setup_s, peak_mb)
    return {
        "units": units,
        "measured_s": measured_s,
        "verdict": verdict,
        "samples": {**samples, **{name: n for name, (_, n) in reported.items()}},
        "metrics": {name: (value, END_TO_END[name]) for name, value in metrics.items()},
        "reported": {name: (value, REPORTED[name]) for name, (value, _) in reported.items()},
    }


# ------------------------------------------------------------------ traced
def _window(spans, start: float, end: float) -> list:
    return [s for s in spans if start <= s["start_mono"] <= end]


def _counter(snapshot: dict, name: str) -> float:
    return snapshot.get("counters", {}).get(name, 0)


def traced(
    workload, seconds: float, env: dict, report_path: Path, cycles: "int | None" = None
) -> dict:
    """The per-layer run.

    Each cycle runs three units: one on ``PARALLEL_WORKERS`` workers with
    the program's telemetry spans on (for ``parallel.*``; set up and torn
    down inside the cycle), one untraced on one worker, and one traced on
    one worker. One worker keeps every wrapped call in this process;
    overhead is traced minus untraced time. Cycles run while another one
    fits into ``seconds`` (at least one), or exactly ``cycles`` of them.
    """
    from repro.obs import recording

    from perfbench.layers import LayerTracer

    serial_state = workload.setup(1)
    tracer = LayerTracer()
    parallel_units, untraced_units, traced_units = [], [], []
    parallel_spans, traced_spans = [], []
    counters = {"engine.retried": 0, "engine.failed": 0, "hits": 0, "misses": 0}
    start = time.perf_counter()
    try:
        while True:
            index = len(traced_units)
            # Set up inside the recording scope: workers forked there record
            # spans and ship them back with their results.
            with recording(force=True) as tel:
                parallel_state = workload.setup(PARALLEL_WORKERS)
                try:
                    before = tel.metrics.snapshot()
                    unit_start = time.perf_counter()
                    parallel_units.append(workload.run_unit(parallel_state, index))
                    parallel_spans += _window(
                        tel.tracer.export(), unit_start, time.perf_counter()
                    )
                    after = tel.metrics.snapshot()
                finally:
                    workload.close(parallel_state)
            for name in ("engine.retried", "engine.failed"):
                counters[name] += _counter(after, name) - _counter(before, name)
            untraced_units.append(workload.run_unit(serial_state, 1000 + index))
            tracer.install()
            try:
                with recording(force=True) as tel:
                    before = tel.metrics.snapshot()
                    unit_start = time.perf_counter()
                    with tracer.root():
                        traced_units.append(workload.run_unit(serial_state, 2000 + index))
                    unit_end = time.perf_counter()
                    traced_spans += _window(tel.tracer.export(), unit_start, unit_end)
                    after = tel.metrics.snapshot()
            finally:
                tracer.uninstall()
            counters["hits"] += _counter(after, "dnn.adaptation.hits") - _counter(
                before, "dnn.adaptation.hits"
            )
            counters["misses"] += _counter(after, "dnn.adaptation.misses") - _counter(
                before, "dnn.adaptation.misses"
            )
            elapsed = time.perf_counter() - start
            done = len(traced_units)
            if done == cycles or (cycles is None and elapsed * (done + 1) / done > seconds):
                break
        verdict = workload.check(serial_state, traced_units)
    finally:
        workload.close(serial_state)
    n = len(traced_units)
    totals = tracer.layer_totals()
    metrics: dict = {}
    for layer in _TIMED:
        entry = totals.get(layer)
        metrics[f"{layer}.calls"] = (entry.calls / n) if entry else 0.0
        metrics[f"{layer}.wall_s"] = (entry.wall_s / n) if entry else 0.0
        metrics[f"{layer}.cpu_s"] = (entry.cpu_s / n) if entry else 0.0
    for name in ("synthesis.training.samples", "nn.train.samples", "nn.forward.rows",
                 "pmnf.term_evaluate.calls", "run.journal.bytes"):
        metrics[name] = tracer.counters[name] / n
    metrics["run.journal.appends"] = metrics["run.journal.calls"]
    hits, misses = counters["hits"] / n, counters["misses"] / n
    metrics["dnn.adapt.hits"] = hits
    metrics["dnn.adapt.misses"] = misses
    metrics["dnn.adapt.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    models = metrics["modeling.model_kernel.calls"]
    metrics["regression.hypotheses_per_model"] = (
        tracer.counters["regression.hypotheses"] / n / models if models else 0.0
    )

    # parallel.*: the telemetry of the units at the workload's worker count.
    pid = os.getpid()
    engine_wall = sum(
        s["duration_s"] for s in parallel_spans if s["name"] == "engine.run_tasks"
    ) / n
    busy = sum(
        s["duration_s"]
        for s in parallel_spans
        if s["name"] == workload.task_span and s["pid"] != pid
    ) / n
    metrics["parallel.engine.wall_s"] = engine_wall
    metrics["parallel.worker_busy_s"] = busy
    metrics["parallel.idle_share"] = (
        1.0 - busy / (engine_wall * PARALLEL_WORKERS) if engine_wall else 0.0
    )
    metrics["parallel.retries"] = counters["engine.retried"] / n
    metrics["parallel.failed"] = counters["engine.failed"] / n
    metrics["parallel.speedup"] = statistics.median(
        workload.primary_time(u) for u in untraced_units
    ) / statistics.median(workload.primary_time(u) for u in parallel_units)
    metrics.update(workload.service_metrics(traced_units, traced_spans))

    # Accounting invariants and the coverage of the leaf layers.
    thread = workload.accounting_thread
    busy_wall = workload.accounting_wall(tracer, traced_spans)
    problems = tracer.check_invariants(thread, busy_wall, workload.min_leaf_coverage)
    metrics["trace.leaf_coverage"] = tracer.leaf_wall(thread) / busy_wall if busy_wall else 0.0
    metrics["trace.overhead_s"] = statistics.median(
        workload.primary_time(u) for u in traced_units
    ) - statistics.median(workload.primary_time(u) for u in untraced_units)
    verdict.problems += problems
    verdict.problems += cpu_problems(traced_units + untraced_units, env["nproc"])

    from repro.util.artifacts import atomic_write_json

    atomic_write_json(
        report_path,
        {
            "workload": workload.name,
            "environment": env,
            "traced_units": n,
            "accounting_thread": thread,
            "accounting_wall_s": busy_wall / n,
            "layers": {
                f"{layer}@{name}": vars(entry) for (layer, name), entry in tracer.stats.items()
            },
            "counters": tracer.counters,
            "metrics": metrics,
            "problems": verdict.problems,
        },
    )
    return {
        "units": traced_units,
        "measured_s": time.perf_counter() - start,
        "verdict": verdict,
        "thread": thread,
        "accounting_wall_s": busy_wall / n,
        "unit_times": {
            f"{PARALLEL_WORKERS} workers": [workload.primary_time(u) for u in parallel_units],
            "1 worker untraced": [workload.primary_time(u) for u in untraced_units],
            "1 worker traced": [workload.primary_time(u) for u in traced_units],
        },
        "tracer": tracer,
        "metrics": {name: (metrics[name], PER_LAYER[name]) for name in PER_LAYER},
    }


# -------------------------------------------------------------- reporting
def _print_report(workload, args, env, result, setup_note: str) -> None:
    verdict = result["verdict"]
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# environment: " + json.dumps(env, sort_keys=True))
    print(f"# {setup_note}")
    units = result["units"]
    print(f"# {len(units)} {workload.unit_name}(s) in {result['measured_s']:.1f}s")
    if args.trace:
        print("# traced units ran on one worker, so wrapped calls land in this process;")
        print(f"# accounting on thread {result['thread']} over "
              f"{result['accounting_wall_s']:.3f}s per unit")
        for label, times in result["unit_times"].items():
            print(f"# primary time per unit, {label}: "
                  + ", ".join(f"{t:.4f}s" for t in times))
        print(f"{'metric':<36} {'value':>14}  unit")
        for name, (value, unit) in result["metrics"].items():
            print(f"{name:<36} {value:>14.6g}  {unit}")
    else:
        print(f"{'metric':<36} {'value':>14}  {'unit':<12} samples")
        for name, (value, unit) in result["metrics"].items():
            print(f"{name:<36} {value:>14.6g}  {unit:<12} {result['samples'][name]}")
        if result["reported"]:
            print("# reported, not gated (run-to-run spread beyond any allowed bound):")
        for name, (value, unit) in result["reported"].items():
            print(f"{name:<36} {value:>14.6g}  {unit:<12} {result['samples'][name]}")
    print(f"# attempted={verdict.attempted} failed={verdict.failed} "
          f"correct={'yes' if not verdict.problems else 'NO'}")
    for note in getattr(workload, "notes", []):
        print(f"# {note}")
    for problem in verdict.problems:
        print(f"# problem: {problem}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    build = ROOT / ".bench_build"
    os.environ["REPRO_CACHE_DIR"] = str(build / "repro-dnn")
    os.environ["REPRO_TELEMETRY"] = "0"
    workdir = build / "perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        from perfbench import workloads

        import_s = time.perf_counter() - start
        from repro.dnn.config import PretrainConfig
        from repro.dnn.pretrained import default_cache_dir

        from perfbench.measure import environment

        config = PretrainConfig.default()
        key = f"generic-{config.network.name}-{config.cache_key()}"
        pretrained = not (default_cache_dir() / f"{key}.npz").exists()
        if pretrained:
            # The one-time cache fill runs before anything is timed, in a
            # child process, so its training set stays out of this
            # process's peak RSS.
            subprocess.run(
                [sys.executable, "-c",
                 "from repro.dnn.pretrained import load_or_pretrain; load_or_pretrain()"],
                env={**os.environ, "PYTHONPATH": str(src)},
                stdout=sys.stderr,
                check=True,
            )
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        env = environment(ROOT)
        env.update(
            workers=workload.workers,
            generic_network=key,
            pretrained_this_run=pretrained,
        )
        if args.trace:
            result = traced(
                workload, args.seconds, env,
                build / f"perfbench-trace-{args.workload}-s{args.seed}.json",
            )
            note = "pretraining is never part of the measured units"
        else:
            result = measure(workload, args.seconds, import_s, env)
            note = (f"setup_s: imports {import_s:.3f}s + median of {SETUP_REPEATS} "
                    "set-ups; pretraining is never part of it")
        _print_report(workload, args, env, result, note)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    verdict = result["verdict"]
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
