"""The synthetic sweep driver behind Fig. 3.

For every noise level and every test function: draw a ground truth from the
PMNF, simulate a noisy measurement campaign on a random ``5^m`` grid, let
each modeler recover a model, and record the lead-exponent distance plus the
extrapolation errors at the four evaluation points ``P+``. The sweep is
embarrassingly parallel over functions and runs through the fault-tolerant
engine of :mod:`repro.parallel.engine` (set ``REPRO_PROCS=auto``): tasks
are grouped into batches of :attr:`SweepConfig.batch_size` functions so
that DNN-backed modelers classify a whole batch in one stacked forward
pass, worker failures are retried and reported with the failing task's
identity, and a chunk timeout degrades a stuck pool into marked failures
instead of a hung sweep. Serial, parallel, and batched runs are
bit-identical because every function carries its own pre-spawned RNG and
results are reassembled in task order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.evaluation.accuracy import ACCURACY_BUCKETS, bucket_fractions, lead_exponent_distance
from repro.evaluation.predictive_power import prediction_smape, relative_prediction_errors
from repro.experiment.experiment import Kernel
from repro.modeling.registry import create_modelers, network_fingerprint
from repro.noise.registry import noise_axis, noise_for_level
from repro.obs import recording, worker_recording
from repro.obs.sink import TRACE_FILENAME, build_trace_records, write_trace
from repro.parallel.engine import EngineConfig, EngineSession, Progress, TaskFailure
from repro.run.claims import ClaimStore
from repro.run.manifest import (
    RunManifest,
    config_fingerprint,
    legacy_config_fingerprint,
    rng_fingerprint,
)
from repro.synthesis.evaluation_points import evaluation_points
from repro.synthesis.functions import (
    random_multi_parameter_function,
    random_single_parameter_function,
)
from repro.synthesis.measurements import (
    cross_coordinates,
    grid_coordinates,
    synthesize_measurements,
)
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator, clone_generator, spawn_generators
from repro.util.timing import StageTimer, Timer, validate_stage_seconds

#: The noise levels of the paper's synthetic evaluation (Sec. V).
PAPER_NOISE_LEVELS: tuple[float, ...] = (0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00)


def default_eval_functions() -> int:
    """Functions per sweep cell; the paper uses 100 000, we default lower.

    Override with ``REPRO_EVAL_FUNCTIONS``. The reported shapes are stable
    from a few hundred functions on (the paper's 99 % confidence intervals
    are ±2 % at 100 000; ours are correspondingly wider and recorded in
    EXPERIMENTS.md).
    """
    return int(os.environ.get("REPRO_EVAL_FUNCTIONS", "200"))


@dataclass(frozen=True)
class SweepConfig:
    """One synthetic sweep: a parameter count crossed with noise levels."""

    n_params: int = 1
    noise_levels: tuple[float, ...] = PAPER_NOISE_LEVELS
    n_functions: int = field(default_factory=default_eval_functions)
    repetitions: int = 5
    points_per_parameter: int = 5
    n_eval_points: int = 4
    #: Measurement-point design: ``grid`` = full ``5^m`` cartesian product
    #: (the paper's Sec. V setup), ``cross`` = one line per parameter plus
    #: an interaction point (the sparse layout of the FASTEST/RELeARN
    #: campaigns and of Ritter et al. 2020).
    layout: str = "grid"
    #: Functions per engine task. DNN-backed modelers classify a whole
    #: batch through one stacked forward pass; 1 reproduces the historical
    #: one-task-per-function dispatch (results are identical either way).
    batch_size: int = 16
    #: Fixed measurement layout for a *repeated-task-shape* sweep: one
    #: value tuple per parameter, used by every synthesized function
    #: instead of per-function random sequences. With a shared layout the
    #: functions' adaptation keys differ only in their (bucketed) noise
    #: bands, so domain-adapting modelers cluster onto a handful of shared
    #: retrainings. ``None`` (the default) keeps the paper's randomized
    #: layouts.
    parameter_value_sets: "tuple[tuple[float, ...], ...] | None" = None
    #: Noise-model spec (see :mod:`repro.noise.registry`); each value in
    #: ``noise_levels`` binds to the model's sweep axis. The default
    #: ``"uniform"`` reproduces the paper's sweep (levels are uniform-noise
    #: levels); ``"tainted(level=0.05)"`` turns the axis into the
    #: contamination probability of a degradation sweep.
    noise: str = "uniform"

    def __post_init__(self) -> None:
        if self.n_params < 1:
            raise ValueError("n_params must be positive")
        if self.n_functions < 1:
            raise ValueError("n_functions must be positive")
        if self.points_per_parameter < 5:
            raise ValueError("Extra-P needs at least five points per parameter")
        if self.layout not in ("grid", "cross"):
            raise ValueError(f"unknown layout {self.layout!r} (grid/cross)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        noise_axis(self.noise)  # validates the spec and that it has an axis
        if self.parameter_value_sets is not None:
            if len(self.parameter_value_sets) != self.n_params:
                raise ValueError(
                    "parameter_value_sets needs one value tuple per parameter "
                    f"(got {len(self.parameter_value_sets)} for m={self.n_params})"
                )
            for values in self.parameter_value_sets:
                if len(values) < self.points_per_parameter:
                    raise ValueError(
                        "each fixed value set needs at least "
                        f"points_per_parameter={self.points_per_parameter} values"
                    )


@dataclass
class CellResult:
    """All per-function outcomes of one (noise level, modeler) cell."""

    noise: float
    modeler: str
    distances: np.ndarray  # (n,) lead-exponent distances; inf on failure
    errors: np.ndarray  # (n, n_eval_points) percentage errors; NaN on failure
    seconds: float  # summed modeling time
    failures: int
    #: Formatted selected model per function ('' on failure); lets the
    #: serial/parallel/batched equivalence test compare model *selections*
    #: directly instead of only derived metrics.
    functions: "list[str] | None" = None
    #: (n, n_eval_points) SMAPE of the selected models at the evaluation
    #: points; NaN on failure. The bounded error used by the degradation
    #: sweeps (a contaminated modeler can be wrong by orders of magnitude).
    smape: "np.ndarray | None" = None
    #: (n,) repetitions dropped by the robust pre-filter per function
    #: (all-zero when no pre-filter ran) -- the taint bookkeeping.
    dropped: "np.ndarray | None" = None

    def bucket_fractions(self, buckets: Sequence[float] = ACCURACY_BUCKETS) -> Mapping[float, float]:
        return bucket_fractions(self.distances, buckets)

    def median_errors(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.nanmedian(self.errors, axis=0)

    def median_smape(self) -> float:
        """Median SMAPE over functions and evaluation points (NaN-failure-aware)."""
        if self.smape is None:
            raise ValueError("this cell carries no SMAPE data")
        with np.errstate(all="ignore"):
            return float(np.nanmedian(self.smape))

    def dropped_total(self) -> int:
        """Total repetitions the pre-filter rejected across all functions."""
        if self.dropped is None:
            return 0
        return int(np.sum(self.dropped))

    def bucket_fraction_ci(
        self, bucket: float, confidence: float = 0.99, rng=0
    ) -> tuple[float, float]:
        """Bootstrap CI of one accuracy fraction (paper: ±2 pp at full scale)."""
        from repro.evaluation.statistics import fraction_ci

        finite = np.where(np.isfinite(self.distances), self.distances, np.inf)
        return fraction_ci(finite <= bucket + 1e-12, confidence=confidence, rng=rng)

    def median_error_ci(
        self, eval_point: int, confidence: float = 0.99, rng=0
    ) -> tuple[float, float]:
        """Bootstrap CI of the median error at evaluation point ``eval_point``."""
        from repro.evaluation.statistics import median_ci

        return median_ci(self.errors[:, eval_point], confidence=confidence, rng=rng)


@dataclass
class SweepResult:
    """Results of a full sweep, indexed by (noise level, modeler name)."""

    config: SweepConfig
    cells: dict[tuple[float, str], CellResult]
    #: Wall-clock seconds per pipeline stage (synthesize / classify / fit,
    #: summed over workers) plus the engine's end-to-end ``total``.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Tasks the engine marked failed (worker crash / chunk timeout), i.e.
    #: whole batches degraded to failure outcomes rather than hanging.
    engine_failures: int = 0
    #: Path of the telemetry trace artifact (``trace.jsonl``), set when the
    #: sweep ran with telemetry enabled and a run directory.
    trace_path: "str | None" = None
    #: True when this run covered only part of the task space (a ``shard``
    #: slice, or a work-stealing worker that exited while other workers
    #: still held claims). Partial results carry no cells -- the journal is
    #: the product; merge the shards (``repro-model merge-run``) or resume
    #: the completed run dir to render tables.
    partial: bool = False
    #: ``(index, count)`` when the run was a static shard slice.
    shard: "tuple[int, int] | None" = None
    #: Journal coverage at the end of this run (batches, not functions).
    completed_batches: int = 0
    total_batches: int = 0

    def cell(self, noise: float, modeler: str) -> CellResult:
        return self.cells[(noise, modeler)]

    def modeler_names(self) -> list[str]:
        return sorted({name for _, name in self.cells})

    def accuracy_series(self, modeler: str, bucket: float) -> list[float]:
        """Accuracy (fraction correct) per noise level -- one Fig. 3 line."""
        return [
            self.cell(noise, modeler).bucket_fractions([bucket])[bucket]
            for noise in self.config.noise_levels
        ]

    def power_series(self, modeler: str, eval_point: int) -> list[float]:
        """Median error at evaluation point ``P+_{eval_point+1}`` per noise level."""
        return [
            float(self.cell(noise, modeler).median_errors()[eval_point])
            for noise in self.config.noise_levels
        ]


# ------------------------------------------------------------------- worker
_WORKER_STATE: dict = {}

#: Per-modeler outcome of one function:
#: (distance, errors, seconds, model, smape, dropped repetitions).
TaskOutcome = "dict[str, tuple[float, np.ndarray, float, str, np.ndarray, int]]"


def _init_worker(config: SweepConfig, modelers: Mapping[str, object]) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["modelers"] = modelers


def _synthesize_task(noise: float, gen: np.random.Generator, config: SweepConfig):
    """Draw one ground truth and simulate its noisy campaign."""
    m = config.n_params
    if m == 1:
        truth = random_single_parameter_function(gen)
    else:
        truth = random_multi_parameter_function(m, gen)
    if config.parameter_value_sets is not None:
        value_sets = [np.asarray(v, dtype=float) for v in config.parameter_value_sets]
    else:
        value_sets = [
            random_sequence(config.points_per_parameter, None, gen) for _ in range(m)
        ]
    if config.layout == "cross":
        coords = cross_coordinates(value_sets)
    else:
        coords = grid_coordinates(value_sets)
    kernel = Kernel("synthetic")
    for meas in synthesize_measurements(
        truth, coords, noise_for_level(config.noise, noise), config.repetitions, gen
    ):
        kernel.add(meas)
    eval_pts = evaluation_points(value_sets, config.n_eval_points)
    return truth, kernel, eval_pts, gen


def _model_task(truth, kernel, eval_pts, gen, config, modelers) -> TaskOutcome:
    """Model one synthesized function with every modeler.

    Closed-form modelers run through ``model_kernel``; predictor-only
    baselines (GPR's ``predict_at``) contribute prediction errors and
    SMAPE but no lead-exponent distance (recorded as NaN -- model accuracy
    is undefined for a black-box posterior, not failed).
    """
    out: TaskOutcome = {}
    for name, modeler in modelers.items():
        try:
            if hasattr(modeler, "model_kernel"):
                result = modeler.model_kernel(kernel, config.n_params, rng=gen)
                distance = lead_exponent_distance(result.function, truth)
                errors = relative_prediction_errors(result.function, truth, eval_pts)
                smape = prediction_smape(result.function, truth, eval_pts)
                dropped = (
                    result.provenance.dropped_repetitions
                    if result.provenance is not None
                    else 0
                )
                out[name] = (
                    distance,
                    errors,
                    result.seconds,
                    result.function.format(),
                    smape,
                    dropped,
                )
            else:
                with Timer() as timer:
                    predicted = modeler.predict_at(kernel, eval_pts)
                reference = np.atleast_1d(truth.evaluate(
                    np.stack([p.as_array() for p in eval_pts])
                ))
                errors = 100.0 * np.abs(predicted - reference) / np.abs(reference)
                smape = prediction_smape(predicted, truth, eval_pts)
                out[name] = (np.nan, errors, timer.elapsed, "<predictor>", smape, 0)
        # repro-lint: disable-next-line=EXC001 -- not swallowed: the failure is
        # recorded as a maximally-wrong outcome (inf distance, NaN errors) so it
        # degrades the modeler's score instead of silently shrinking the sample.
        except Exception:
            # A failed modeling attempt counts as maximally wrong rather than
            # silently shrinking the sample (no silent caps).
            out[name] = (
                np.inf,
                np.full(config.n_eval_points, np.nan),
                0.0,
                "",
                np.full(config.n_eval_points, np.nan),
                0,
            )
    return out


def _failure_outcome(config: SweepConfig, modelers: Mapping[str, object]) -> TaskOutcome:
    """The all-failed outcome assigned to tasks the engine marked failed."""
    return {
        name: (
            np.inf,
            np.full(config.n_eval_points, np.nan),
            0.0,
            "",
            np.full(config.n_eval_points, np.nan),
            0,
        )
        for name in modelers
    }


def _run_batch(
    batch: "list[tuple[float, np.random.Generator]]",
) -> "tuple[list[TaskOutcome], dict[str, float]] | tuple[list[TaskOutcome], dict[str, float], dict]":
    """Model one batch of synthetic functions; returns per-task outcomes
    plus this batch's per-stage wall-clock seconds -- and, when telemetry is
    recording, a third element carrying the exported telemetry payload.

    Every function carries its own pre-spawned RNG and the per-function
    call order (synthesize, then model) is unchanged from the serial path,
    so batching does not perturb any random stream. The batched
    classification pass only *precomputes* what the per-kernel path would
    compute anyway (the DNN's top-k candidates), priming the modeler's
    candidate cache.
    """
    config: SweepConfig = _WORKER_STATE["config"]
    modelers: Mapping[str, object] = _WORKER_STATE["modelers"]
    stages = StageTimer()
    with worker_recording() as tel:
        with tel.tracer.span("sweep.batch", functions=len(batch)):
            with stages.time("synthesize"), tel.tracer.span("batch.synthesize"):
                prepared = [_synthesize_task(noise, gen, config) for noise, gen in batch]
            with stages.time("classify"), tel.tracer.span("batch.classify"):
                primed: set[int] = set()
                kernels = [kernel for _, kernel, _, _ in prepared]
                for modeler in modelers.values():
                    dnn = getattr(modeler, "dnn", modeler)
                    if (
                        hasattr(dnn, "classify_batch")
                        and not getattr(dnn, "use_domain_adaptation", True)
                        and id(dnn) not in primed
                    ):
                        primed.add(id(dnn))
                        dnn.classify_batch(kernels, config.n_params)
            with stages.time("fit"), tel.tracer.span("batch.fit"):
                outcomes = [_model_task(*prep, config, modelers) for prep in prepared]
    if tel.enabled:
        return outcomes, stages.seconds, tel.export_payload()
    return outcomes, stages.seconds


def _run_task(task: "tuple[float, np.random.Generator]") -> TaskOutcome:
    """One function end to end -- a single-task batch.

    The per-function unit of work, used by the benchmarks that time one
    modeling task (`benchmarks/test_bench_fig3_accuracy.py` and the
    ablations) independently of the batching engine.
    """
    return _run_batch([task])[0][0]


def _validate_batch_payload(index: int, payload) -> None:
    """Logical validation applied when replaying journaled batch payloads.

    The journal checksum already catches torn pickles; this catches a valid
    pickle carrying garbage (wrong shape, negative or NaN per-stage seconds)
    before it poisons a resumed sweep's stage accounting.
    """
    if not isinstance(payload, tuple) or len(payload) < 2:
        raise ValueError(
            "expected an (outcomes, stage_seconds[, telemetry]) tuple, got "
            f"{type(payload).__name__}"
        )
    validate_stage_seconds(payload[1])


def _resolve_adaptation_store(adaptation_cache, modelers: Mapping[str, object]):
    """Normalize ``adaptation_cache`` into an attached store (lazy import)."""
    from repro.dnn.adaptation_cache import resolve_store

    return resolve_store(adaptation_cache, list(modelers.values()))


def _warm_adaptation_store(store, adapting, config: SweepConfig, tasks, manifest) -> None:
    """Parent-side warm-up: adapt each task cluster once, before dispatch.

    The cluster keys come from re-synthesizing every task's kernel on a
    *clone* of its pre-spawned RNG, so the peek consumes nothing from the
    streams the workers will use. Each distinct generic network is warmed
    separately (fused across clusters); workers then load the stored
    weights instead of re-adapting per process.
    """
    from repro.dnn.domain_adaptation import AdaptationTask

    keys = []
    for noise, gen in tasks:
        _, kernel, _, _ = _synthesize_task(noise, clone_generator(gen), config)
        keys.append(AdaptationTask.from_kernel(kernel, config.n_params).key(store.resolution))
    seen: list = []
    for dnn in adapting:
        network = dnn.generic_network
        if any(network is other for other in seen):
            continue
        seen.append(network)
        store.warm_up(network, keys, manifest=manifest)


def sweep_session(
    config: SweepConfig,
    modelers: "Mapping[str, object] | Sequence[str]",
    engine: "EngineConfig | None" = None,
    processes: "int | None" = None,
) -> EngineSession:
    """A warm-pool :class:`EngineSession` primed for :func:`run_sweep` calls.

    Passing the returned session to repeated ``run_sweep(...,
    session=...)`` calls (same ``config``/``modelers``) keeps the worker
    processes -- and their initializer-warmed modeler state -- alive across
    sweeps instead of re-forking per call. Close the session (or use it as
    a context manager) when done.
    """
    modelers = create_modelers(modelers)
    engine_config = engine or EngineConfig()
    if processes is not None:
        engine_config = replace(engine_config, processes=processes)
    return EngineSession(
        engine_config, initializer=_init_worker, initargs=(config, modelers)
    )


def run_sweep(
    config: SweepConfig,
    modelers: "Mapping[str, object] | Sequence[str]",
    rng=None,
    processes: "int | None" = None,
    engine: "EngineConfig | None" = None,
    progress: "Callable[[Progress], None] | None" = None,
    run_dir: "str | None" = None,
    resume: bool = False,
    adaptation_cache=None,
    session: "EngineSession | None" = None,
    shard: "tuple[int, int] | None" = None,
    steal: bool = False,
) -> SweepResult:
    """Run the full sweep through the fault-tolerant engine.

    ``modelers`` maps display names to objects with the common
    ``model_kernel(kernel, n_params, rng=...)`` interface -- or to registry
    spec strings (``"adaptive(use_domain_adaptation=False)"``), resolved
    through :func:`repro.modeling.registry.create_modelers`; a plain
    sequence of spec strings labels each modeler by its spec. The same
    noisy campaign is given to every modeler (paired comparison), matching
    the paper's protocol.

    ``engine`` sets the execution policy (workers, retries, chunk timeout);
    ``processes`` is a shorthand overriding just the worker count. Batches
    the engine marks failed (worker crash after retries with
    ``on_error='mark'``, or chunk timeout) degrade to all-failed outcomes
    for their functions -- counted in ``CellResult.failures`` and
    ``SweepResult.engine_failures`` -- instead of aborting or hanging the
    sweep. ``progress`` receives engine :class:`Progress` snapshots, where
    each task is one batch of ``config.batch_size`` functions.

    ``run_dir`` makes the sweep crash-safe: a run manifest is created there
    and every completed batch is journaled. After a crash (OOM kill,
    preemption, SIGKILL), calling again with ``resume=True`` and the same
    configuration/seed replays the journaled batches and computes only the
    missing ones -- the resulting :class:`SweepResult` is bit-identical to
    an uninterrupted run because every function carries a pre-spawned RNG
    keyed by its task index. Resuming with a different configuration or
    seed is refused (the manifest records a configuration fingerprint).

    ``adaptation_cache`` (a directory path or a ready
    :class:`~repro.dnn.adaptation_cache.AdaptationStore`) turns on adaptation
    sharing for DNN modelers running with domain adaptation: a parent
    pre-pass clusters the sweep's tasks by
    :class:`~repro.dnn.domain_adaptation.AdaptationKey`, adapts each cluster
    once (fused), and stores the weights where every worker loads them.
    Results are bit-identical with the cache on, off, warm, or cold --
    adaptation RNG streams are derived from the cluster keys, never from the
    task streams.

    ``session`` (from :func:`sweep_session`) reuses a warm worker pool
    across repeated sweeps; it must have been built for the same
    ``config``, and ``engine``/``processes`` are then taken from the
    session. The session stays open for the caller to reuse or close.

    ``shard=(i, n)`` runs only the strided batch slice ``index % n == i``
    into its own run dir (one dir per shard; merge them afterwards with
    :func:`repro.run.merge.merge_runs`). ``steal=True`` instead points N
    workers at *one shared* run dir where each claims unjournaled batch
    blocks (see :mod:`repro.run.claims`). Both require ``run_dir`` and
    return a *partial* :class:`SweepResult` (no cells) whenever any batch
    of the full sweep is still missing from this run's journal view. The
    shard slice is deliberately not part of the configuration fingerprint:
    every shard, the merged dir, and the unsharded run share one hash.
    """
    if not modelers:
        raise ValueError("at least one modeler is required")
    modelers = create_modelers(modelers)
    if session is not None:
        if session.initargs and session.initargs[0] != config:
            raise ValueError(
                "session was built for a different SweepConfig; "
                "create it with sweep_session(config, modelers)"
            )
        if engine is not None or processes is not None:
            raise ValueError("session and engine/processes are mutually exclusive")
    adaptation_store, adapting_dnns = (
        _resolve_adaptation_store(adaptation_cache, modelers)
        if adaptation_cache is not None
        else (None, [])
    )
    if shard is not None and steal:
        raise ValueError("shard and steal are mutually exclusive")
    if (shard is not None or steal) and run_dir is None:
        raise ValueError("shard/steal require run_dir: the journal is the product")
    journal = None
    claims = None
    if run_dir is not None:
        parts = (config, rng_fingerprint(rng), tuple(sorted(modelers)))
        networks = network_fingerprint(modelers)
        fingerprint = config_fingerprint(*parts, *networks)
        # Legacy hashes never saw a network: accept them for network-free runs only.
        legacy = None if networks else legacy_config_fingerprint(*parts)
        meta = {"kind": "sweep", "n_params": config.n_params}
        if steal:
            journal = RunManifest.open_shared(
                run_dir,
                fingerprint,
                meta=meta,
                payload_validator=_validate_batch_payload,
                legacy_config_hash=legacy,
            )
            claims = ClaimStore(run_dir)
        else:
            journal = RunManifest.open(
                run_dir,
                fingerprint,
                resume=resume,
                meta=meta,
                payload_validator=_validate_batch_payload,
                shard=shard,
                legacy_config_hash=legacy,
            )
    elif resume:
        raise ValueError("resume=True requires run_dir")
    gen = as_generator(rng)
    tasks: list[tuple[float, np.random.Generator]] = []
    for noise in config.noise_levels:
        for child in spawn_generators(gen, config.n_functions):
            tasks.append((noise, child))
    batches = [
        tasks[start : start + config.batch_size]
        for start in range(0, len(tasks), config.batch_size)
    ]
    engine_config = engine or EngineConfig()
    if processes is not None:
        engine_config = replace(engine_config, processes=processes)
    stages = StageTimer()
    pre_pass = None
    if adaptation_store is not None:

        def pre_pass() -> None:
            # Timed as the run's ``adapt`` stage; runs inside the engine
            # span and the total timer, so the named total covers it.
            with stages.time("adapt"):
                _warm_adaptation_store(
                    adaptation_store, adapting_dnns, config, tasks, journal
                )

    with recording() as tel:
        with tel.tracer.span(
            "sweep.run",
            n_params=config.n_params,
            noise_levels=len(config.noise_levels),
            n_functions=config.n_functions,
            batch_size=config.batch_size,
        ):
            with tel.tracer.span("sweep.engine", batches=len(batches)) as engine_span:
                with Timer() as total:
                    if session is not None:
                        raw_batches = session.run(
                            _run_batch,
                            batches,
                            progress=progress,
                            journal=journal,
                            pre_pass=pre_pass,
                            shard=shard,
                            claims=claims,
                        )
                    else:
                        with EngineSession(
                            engine_config,
                            initializer=_init_worker,
                            initargs=(config, modelers),
                        ) as one_shot:
                            raw_batches = one_shot.run(
                                _run_batch,
                                batches,
                                progress=progress,
                                journal=journal,
                                pre_pass=pre_pass,
                                shard=shard,
                                claims=claims,
                            )
            raw: list[TaskOutcome] = []
            engine_failures = 0
            # A sharded/stealing run sees None in every slot neither it nor
            # (via the journal) another worker has completed; the sweep is
            # then partial and carries no cells -- its journal is the product.
            missing_batches = sum(1 for entry in raw_batches if entry is None)
            for batch, entry in zip(batches, raw_batches):
                if entry is None:
                    continue
                if isinstance(entry, TaskFailure):
                    engine_failures += 1
                    raw.extend(_failure_outcome(config, modelers) for _ in batch)
                else:
                    # Journaled payloads may be 2-tuples (recorded with
                    # telemetry off) or 3-tuples (recorded with it on);
                    # resume must accept either regardless of the current
                    # toggle state.
                    outcomes, batch_stages = entry[0], entry[1]
                    raw.extend(outcomes)
                    stages.merge(batch_stages)
                    if tel.enabled and len(entry) > 2:
                        tel.absorb_payload(entry[2], engine_span.span_id)
            stages.add("total", total.elapsed)
    if tel.enabled:
        tel.metrics.absorb_stage_seconds(stages.seconds, prefix="sweep")
    if missing_batches:
        result = SweepResult(
            config=config,
            cells={},
            stage_seconds=stages.seconds,
            engine_failures=engine_failures,
            partial=True,
            shard=shard,
            completed_batches=len(batches) - missing_batches,
            total_batches=len(batches),
        )
        return _record_trace(result, tel, stages, journal)
    cells: dict[tuple[float, str], CellResult] = {}
    for idx, noise in enumerate(config.noise_levels):
        block = raw[idx * config.n_functions : (idx + 1) * config.n_functions]
        for name in modelers:
            distances = np.asarray([r[name][0] for r in block])
            errors = np.stack([r[name][1] for r in block])
            seconds = float(sum(r[name][2] for r in block))
            # inf marks failed attempts; NaN marks predictor-only modelers
            # (no lead exponent to compare), which are not failures.
            failures = int(np.sum(np.isinf(distances)))
            cells[(noise, name)] = CellResult(
                noise=noise,
                modeler=name,
                distances=distances,
                errors=errors,
                seconds=seconds,
                failures=failures,
                functions=[r[name][3] for r in block],
                smape=np.stack([r[name][4] for r in block]),
                dropped=np.asarray([r[name][5] for r in block]),
            )
    result = SweepResult(
        config=config,
        cells=cells,
        stage_seconds=stages.seconds,
        engine_failures=engine_failures,
        completed_batches=len(batches),
        total_batches=len(batches),
    )
    return _record_trace(result, tel, stages, journal)


def _record_trace(result: SweepResult, tel, stages, journal) -> SweepResult:
    """Write and register the run's trace artifact (telemetry + run dir only)."""
    if tel.enabled and journal is not None:
        meta = {"kind": "sweep", "run_id": journal.run_id}
        if result.shard is not None:
            meta["shard"] = list(result.shard)
        records = build_trace_records(tel, stage_seconds=stages.seconds, meta=meta)
        trace_file = journal.directory / TRACE_FILENAME
        digest = write_trace(trace_file, records)
        journal.record_artifact("trace", TRACE_FILENAME, digest)
        result.trace_path = str(trace_file)
    return result
