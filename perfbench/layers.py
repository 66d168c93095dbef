"""Per-layer accounting for the traced run.

The traced run wraps the public functions that form each layer of the
modeling stack (the table in :data:`LAYERS`) with timers kept in the
benchmark, not in the program. Each wrapper records, per calling thread,
the call's *self* wall time (its duration minus the time its wrapped
children cover) and *self* thread CPU time (``time.thread_time``; BLAS
helper threads are not in it). Wall and CPU are separate columns, and a
layer's wall time is only ever summed over calls on one thread of one
process -- never over concurrent workers.

Wrappers see only the process that installs them, so the traced run uses
one worker: the engine then runs tasks in the benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

#: Roles: ``leaf`` layers do the work; ``parent`` layers enclose leaves and
#: their self time is orchestration overhead; ``count`` layers are counted
#: but not timed (too fine-grained to time without distorting them).
LEAF, PARENT, COUNT = "leaf", "parent", "count"

#: layer name -> (role, wrapped targets as (module, class or None, attribute))
LAYERS: "dict[str, tuple[str, tuple[tuple[str, str | None, str], ...]]]" = {
    "synthesis.training": (
        LEAF, (("repro.synthesis.training", None, "generate_training_set"),)
    ),
    "synthesis.measurements": (
        LEAF, (("repro.synthesis.measurements", None, "synthesize_measurements"),)
    ),
    "nn.train": (
        LEAF,
        (
            ("repro.nn.network", "Sequential", "fit"),
            ("repro.nn.fused", None, "fit_fused"),
        ),
    ),
    "nn.forward": (LEAF, (("repro.nn.network", "Sequential", "predict_logits"),)),
    "preprocessing.encode": (
        LEAF, (("repro.preprocessing.encoding", None, "encode_parameter_line"),)
    ),
    "dnn.classify": (
        LEAF,
        (
            ("repro.dnn.modeler", "DNNModeler", "classify_batch"),
            ("repro.dnn.modeler", "DNNModeler", "classify_lines"),
        ),
    ),
    "dnn.adapt": (PARENT, (("repro.dnn.modeler", "DNNModeler", "network_for_task"),)),
    "regression.fit": (
        LEAF, (("repro.regression.fast_multi", "FastMultiParameterSearch", "score"),)
    ),
    "regression.select": (
        LEAF,
        (
            ("repro.regression.fast_single", "FastSingleParameterSearch", "select"),
            ("repro.regression.fast_multi", "FastMultiParameterSearch", "select"),
            ("repro.regression.fast_multi", "FastMultiParameterSearch", "choose"),
        ),
    ),
    "pmnf.term_evaluate": (COUNT, (("repro.pmnf.terms", "CompoundTerm", "evaluate"),)),
    "modeling.model_kernel": (
        PARENT, (("repro.modeling.pipeline", "ModelingPipeline", "model_kernel"),)
    ),
    "noise.estimate": (
        PARENT, (("repro.noise.estimation", None, "estimate_noise_level"),)
    ),
    "parallel.engine": (PARENT, (("repro.parallel.engine", "EngineSession", "run"),)),
    "run.journal": (LEAF, (("repro.run.manifest", "RunManifest", "record_task"),)),
    "run.replay": (LEAF, (("repro.run.manifest", "RunManifest", "completed_tasks"),)),
    "service.parse": (LEAF, (("repro.service.schema", None, "parse_request"),)),
}

#: Pseudo-layer of the frame the benchmark opens around each traced unit.
ROOT = "bench.root"


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_work(layer: str, fn, args, kwargs, result, counters: dict) -> None:
    """Work counts (samples, rows, bytes, hypotheses) of one finished call."""
    if layer == "synthesis.training":
        counters["synthesis.training.samples"] += len(result[0])
    elif layer == "nn.train":
        arguments = _bound(fn, args, kwargs)
        xs = arguments["xs"] if "xs" in arguments else [arguments["x"]]
        counters["nn.train.samples"] += sum(len(x) for x in xs) * arguments["epochs"]
    elif layer == "nn.forward":
        x = args[1] if len(args) > 1 else kwargs["x"]
        counters["nn.forward.rows"] += 1 if getattr(x, "ndim", 1) == 1 else len(x)
    elif layer == "run.journal":
        from repro.run.manifest import TASKS_DIR

        manifest, index = args[0], args[1]
        path = manifest.directory / TASKS_DIR / f"task-{index:06d}.pkl"
        counters["run.journal.bytes"] += path.stat().st_size
    elif layer == "regression.fit":
        counters["regression.hypotheses"] += len(args[1])
    elif layer == "regression.select" and fn.__qualname__.startswith("FastSingle"):
        search = args[0]
        counters["regression.hypotheses"] += len(search.term_pairs) + search.include_constant


@dataclass
class LayerStats:
    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Inclusive wall time (children included), for the parent layers.
    total_s: float = 0.0


@dataclass
class LayerTracer:
    """Installs the layer wrappers and accumulates per-thread self time."""

    #: (layer, thread name) -> stats
    stats: "dict[tuple[str, str], LayerStats]" = field(default_factory=dict)
    #: Work counts, summed over every install of this tracer.
    counters: "dict[str, float]" = field(
        default_factory=lambda: dict.fromkeys(
            (
                "synthesis.training.samples",
                "nn.train.samples",
                "nn.forward.rows",
                "run.journal.bytes",
                "regression.hypotheses",
                "pmnf.term_evaluate.calls",
            ),
            0,
        )
    )
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _patches: list = field(default_factory=list)

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, self_wall: float, self_cpu: float, wall: float) -> None:
        key = (layer, threading.current_thread().name)
        with self._lock:
            entry = self.stats.get(key)
            if entry is None:
                entry = self.stats[key] = LayerStats()
            entry.calls += 1
            entry.wall_s += self_wall
            entry.cpu_s += self_cpu
            entry.total_s += wall

    def _enter(self) -> list:
        frame = [0.0, 0.0, time.perf_counter(), time.thread_time()]
        self._stack().append(frame)
        return frame

    def _exit(self, layer: str, frame: list) -> None:
        wall = time.perf_counter() - frame[2]
        cpu = time.thread_time() - frame[3]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += wall
            stack[-1][1] += cpu
        self._record(layer, wall - frame[0], cpu - frame[1], wall)

    def root(self):
        """Context manager: one traced unit on the calling thread."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.frame = tracer._enter()
                return self

            def __exit__(self, *exc_info):
                tracer._exit(ROOT, self.frame)

        return _Root()

    def _timed(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame)
            with tracer._lock:
                _count_work(layer, fn, args, kwargs, result, tracer.counters)
            return result

        return wrapper

    def _counted(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counters[layer + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every target, including names other modules imported from it."""
        for layer, (role, targets) in LAYERS.items():
            for module_name, class_name, attr in targets:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = owner.__dict__[attr]
                make = self._counted if role == COUNT else self._timed
                wrapped = make(layer, original)
                self._patch(owner, attr, original, wrapped)
                if class_name is None:
                    # ``from module import fn`` copies the binding: rebind it
                    # in every repro module that holds the same function.
                    for other in list(sys.modules.values()):
                        namespace = getattr(other, "__dict__", None)
                        if (
                            other is not module
                            and namespace is not None
                            and getattr(other, "__name__", "").startswith("repro")
                        ):
                            for name, value in list(namespace.items()):
                                if value is original:
                                    self._patch(other, name, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped binding (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reporting
    def layer_totals(self, thread: "str | None" = None) -> "dict[str, LayerStats]":
        """Stats per layer, summed over threads (or for one thread)."""
        totals: dict[str, LayerStats] = {}
        for (layer, name), entry in self.stats.items():
            if thread is not None and name != thread:
                continue
            total = totals.setdefault(layer, LayerStats())
            total.calls += entry.calls
            total.wall_s += entry.wall_s
            total.cpu_s += entry.cpu_s
            total.total_s += entry.total_s
        return totals

    def leaf_wall(self, thread: str) -> float:
        """Self wall time of the leaf layers on one thread."""
        return sum(
            entry.wall_s
            for layer, entry in self.layer_totals(thread).items()
            if layer in LAYERS and LAYERS[layer][0] == LEAF
        )

    def check_invariants(self, thread: str, wall_s: float, min_coverage: float) -> list[str]:
        """Accounting invariants of the traced units on ``thread``.

        * every self time is non-negative and thread CPU never exceeds wall;
        * self times on one thread sum to at most that thread's wall time
          (nothing counted twice);
        * the leaf layers cover at least ``min_coverage`` of ``wall_s``.
        """
        problems = []
        totals = self.layer_totals(thread)
        slack = 1e-3 + 1e-4 * wall_s
        for layer, entry in totals.items():
            if entry.wall_s < -slack or entry.cpu_s < -slack:
                problems.append(f"{layer}: negative self time on {thread}")
            if entry.cpu_s > entry.wall_s + slack:
                problems.append(
                    f"{layer}: thread CPU {entry.cpu_s:.3f}s exceeds self wall "
                    f"{entry.wall_s:.3f}s on {thread}"
                )
        summed = sum(entry.wall_s for entry in totals.values())
        if summed > wall_s + slack:
            problems.append(
                f"self wall on {thread} sums to {summed:.3f}s, more than the "
                f"{wall_s:.3f}s it ran"
            )
        coverage = self.leaf_wall(thread) / wall_s if wall_s > 0 else 0.0
        if coverage < min_coverage:
            problems.append(
                f"leaf layers cover {coverage:.1%} of {wall_s:.3f}s on {thread}; "
                f"need {min_coverage:.0%}"
            )
        return problems
