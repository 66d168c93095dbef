"""The three benchmark workloads and their correctness checks.

Every workload drives one public entry point of the modeling stack:

* ``sweep-m2`` -- :func:`repro.evaluation.sweep.run_sweep`, an m=2 grid
  sweep over the paper's seven noise levels with the generic network (no
  domain adaptation), two workers, batches of 16, journaled;
* ``casestudy-fastest`` -- :func:`repro.casestudies.run_case_study` on
  FASTEST with cold domain adaptation (2000 samples/class, 1 epoch);
* ``service-open`` -- :meth:`repro.service.ModelingService.submit` under an
  open-loop request schedule.

A workload is set up (timed, three times for a median), then runs *units*
of work back to back: one sweep pass, one case study, or one open-loop phase
at the reference rate. Inputs derive from the seed before any timing.
"""

from __future__ import annotations

import json
import math
import queue
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.casestudies import fastest, kripke, relearn, run_case_study
from repro.dnn.pretrained import load_or_pretrain
from repro.evaluation.accuracy import lead_exponent_distance
from repro.evaluation.predictive_power import relative_prediction_errors
from repro.evaluation.sweep import PAPER_NOISE_LEVELS, SweepConfig, run_sweep, sweep_session
from repro.experiment.experiment import Experiment
from repro.experiment.io import to_json_dict
from repro.modeling.registry import create_modeler
from repro.noise.injection import UniformNoise
from repro.obs import recording
from repro.pmnf.parser import parse_function
from repro.schemas import REQUEST_SCHEMA
from repro.service import ModelingService, RequestError, ServiceBusy, ServiceClosed, ServiceConfig
from repro.service.schema import parse_request
from repro.synthesis.evaluation_points import evaluation_points
from repro.synthesis.functions import (
    random_multi_parameter_function,
    random_single_parameter_function,
)
from repro.synthesis.measurements import grid_coordinates, synthesize_measurements
from repro.synthesis.sequences import random_sequence

from perfbench.layers import ROOT
from perfbench.measure import percentile, process_tree_cpu, summarize

#: Lead-exponent distances at or below this count as exact (they are sums of
#: exponent differences, so anything non-zero is at least 1/12).
EXACT = 1e-9


@dataclass
class Unit:
    """One timed unit of work and what it produced."""

    wall_s: float
    cpu_s: float
    #: Kernels (functions) modeled by every modeler in this unit.
    kernels: int
    #: Workload-specific outputs the checks and quality metrics read.
    output: object = None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _timed_unit(fn):
    """Run ``fn`` and measure its wall time and process-tree CPU time."""
    cpu0 = process_tree_cpu()
    start = time.perf_counter()
    output = fn()
    wall = time.perf_counter() - start
    return output, wall, process_tree_cpu() - cpu0


class BatchWorkload:
    """A workload that offers all its work at once and runs units back to
    back for the whole budget (the sweep and the case study)."""

    workers = 2
    #: The traced run accounts self time on this thread, against the wall
    #: time of the traced unit that runs on it.
    accounting_thread = "MainThread"

    def measure_units(self, state, seconds: float) -> list:
        """Units back to back while another one fits into ``seconds``."""
        units = []
        start = time.perf_counter()
        while True:
            units.append(self.run_unit(state, len(units)))
            elapsed = time.perf_counter() - start
            if elapsed * (len(units) + 1) / len(units) > seconds:
                return units

    def primary_time(self, unit: Unit) -> float:
        return unit.wall_s

    def time_to_model(self, units) -> "tuple[float, int]":
        """Median unit wall time, and the number of units behind it."""
        return statistics.median(unit.wall_s for unit in units), len(units)

    def throughput(self, units) -> float:
        """Median kernels (functions) per second of unit wall time."""
        return statistics.median(unit.kernels / unit.wall_s for unit in units)

    def reported(self, state, units) -> dict:
        """Figures printed beside the gated metrics: none for a batch, which
        offers all its work at once and has no latency limit."""
        return {}

    def accounting_wall(self, tracer, spans) -> float:
        return tracer.layer_totals(self.accounting_thread)[ROOT].total_s

    def service_metrics(self, units, spans) -> dict:
        """The ``service.*`` and ``loadgen.*`` layer metrics: none here."""
        return dict.fromkeys(SERVICE_METRICS, 0.0)


#: Per-layer metrics only the service workload produces.
SERVICE_METRICS = (
    "service.queue_wait_ms.p50",
    "service.queue_wait_ms.p99",
    "service.batch_size.mean",
    "service.rejected",
    "service.errors",
    "loadgen.lag_p99_ms",
)


# ==================================================================== sweep
def sweep_cells_differ(expected, actual) -> list[str]:
    """Every cell of two sweep results must hold identical outcomes."""
    problems = []
    if set(expected.cells) != set(actual.cells):
        return [f"cell keys differ: {sorted(expected.cells)} vs {sorted(actual.cells)}"]
    for key, cell in expected.cells.items():
        other = actual.cells[key]
        if not np.array_equal(cell.distances, other.distances, equal_nan=True):
            problems.append(f"cell {key}: lead-exponent distances differ")
        if not np.array_equal(cell.errors, other.errors, equal_nan=True):
            problems.append(f"cell {key}: prediction errors differ")
        if cell.functions != other.functions:
            problems.append(f"cell {key}: selected models differ")
    return problems


class SweepM2(BatchWorkload):
    name = "sweep-m2"
    unit_name = "sweep pass"
    task_span = "sweep.batch"
    min_leaf_coverage = 0.6
    modelers = {
        "regression": "regression",
        "adaptive": "adaptive(use_domain_adaptation=False)",
    }

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.workdir = workdir
        functions, batch = {"full": (150, 16), "tiny": (2, 4)}[scale]
        self.config = SweepConfig(
            n_params=2,
            noise_levels=PAPER_NOISE_LEVELS,
            n_functions=functions,
            batch_size=batch,
        )

    @property
    def functions(self) -> int:
        return self.config.n_functions * len(self.config.noise_levels)

    def setup(self, workers: int):
        network = load_or_pretrain()
        modelers = {
            name: create_modeler(spec, network=network) if "adaptive" in spec else create_modeler(spec)
            for name, spec in self.modelers.items()
        }
        session = sweep_session(self.config, modelers, processes=workers)
        session.warm_up()
        return {"modelers": modelers, "session": session, "workers": workers, "runs": []}

    def close(self, state) -> None:
        state["session"].close()

    def pass_seed(self, index: int) -> int:
        """Each pass sweeps its own functions; units ``i``, ``1000 + i`` and
        ``2000 + i`` of a traced run share them."""
        return self.seed * 1000 + index % 1000

    def run_unit(self, state, index: int) -> Unit:
        run_dir = self.workdir / f"sweep-w{state['workers']}-{index}"
        seed = self.pass_seed(index)
        result, wall, cpu = _timed_unit(
            lambda: run_sweep(
                self.config,
                state["modelers"],
                rng=seed,
                session=state["session"],
                run_dir=str(run_dir),
            )
        )
        state["runs"].append((run_dir, seed, result))
        return Unit(wall, cpu, self.functions, output=result)

    def check(self, state, units) -> Verdict:
        """Failures are inf distances; every pass's run dir, resumed, must
        replay to cells identical to the live result."""
        verdict = Verdict()
        for unit in units:
            verdict.attempted += self.functions * len(self.modelers)
            verdict.failed += sum(cell.failures for cell in unit.output.cells.values())
        for run_dir, seed, result in state["runs"]:
            resumed = run_sweep(
                self.config,
                state["modelers"],
                rng=seed,
                session=state["session"],
                run_dir=str(run_dir),
                resume=True,
            )
            verdict.problems += [
                f"resumed {run_dir.name}: {p}" for p in sweep_cells_differ(result, resumed)
            ]
        return verdict

    def quality(self, units) -> dict:
        distances = np.concatenate(
            [
                unit.output.cell(noise, "adaptive").distances
                for unit in units
                for noise in self.config.noise_levels
            ]
        )
        errors = np.concatenate(
            [
                unit.output.cell(noise, "adaptive").errors.ravel()
                for unit in units
                for noise in self.config.noise_levels
            ]
        )
        with np.errstate(all="ignore"):
            return {
                "accuracy_exact": float(np.mean(distances <= EXACT)),
                "median_error_pct": float(np.nanmedian(errors)),
                "models": len(distances),
            }


# =============================================================== case study
class CaseStudyFastest(BatchWorkload):
    name = "casestudy-fastest"
    unit_name = "case study"
    task_span = "casestudy.modeler"
    min_leaf_coverage = 0.9

    #: The campaign is the same for every ``--seed``: the quality metrics
    #: of one 23-kernel FASTEST campaign swing by 40-75% between noise
    #: realizations, far beyond any regression bound, while the modeling
    #: time barely depends on the realization.
    campaign_seed = 0

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.workdir = workdir
        self.application = fastest()
        # The paper's adaptation budget (2000 samples/class, 1 epoch) is the
        # modeler default; the tiny scale shrinks it for the self-tests.
        self.adaptive_spec = {
            "full": "adaptive",
            "tiny": "adaptive(adaptation_samples_per_class=20)",
        }[scale]
        self.kernel_names = {kernel.name for kernel in self.application.kernels}

    def _modelers(self, network) -> dict:
        return {
            "regression": create_modeler("regression"),
            "adaptive": create_modeler(self.adaptive_spec, network=network),
        }

    def setup(self, workers: int):
        network = load_or_pretrain()
        self._modelers(network)
        return {"network": network, "workers": workers}

    def close(self, state) -> None:
        return None

    def run_unit(self, state, index: int) -> Unit:
        # Fresh modelers and no adaptation store: every unit pays one cold
        # adaptation, as a first-time user does.
        modelers = self._modelers(state["network"])

        result, wall, cpu = _timed_unit(
            lambda: run_case_study(
                self.application, modelers, rng=self.campaign_seed, processes=state["workers"]
            )
        )
        # Campaign in hand -> every kernel modeled: the simulated campaign
        # stands in for measurements the user already has.
        time_to_model = wall - result.stage_seconds.get("campaign", 0.0)
        return Unit(time_to_model, cpu, len(self.kernel_names), output=result)

    def outcome_problems(self, result) -> "tuple[int, list[str]]":
        """(failed kernel-modeler pairs, problem lines) of one study."""
        failed, problems = 0, []
        for modeler in ("regression", "adaptive"):
            modeled = {
                o.kernel: o
                for o in result.outcomes
                if o.modeler == modeler and math.isfinite(o.prediction)
            }
            missing = sorted(self.kernel_names - set(modeled))
            if missing:
                failed += len(missing)
                problems.append(f"{modeler}: {len(missing)} kernel(s) not modeled: {missing[:3]}")
        return failed, problems

    def check(self, state, units) -> Verdict:
        verdict = Verdict()
        first = _formatted_outcomes(units[0].output)
        for index, unit in enumerate(units):
            verdict.attempted += len(self.kernel_names) * 2
            failed, problems = self.outcome_problems(unit.output)
            verdict.failed += failed
            verdict.problems += problems
            if index and _formatted_outcomes(unit.output) != first:
                verdict.problems.append(f"study {index} selected other models than study 0")
        return verdict

    def quality(self, units) -> dict:
        result = units[0].output
        truth = {kernel.name: kernel.function for kernel in self.application.kernels}
        distances = [
            lead_exponent_distance(o.result.function, truth[o.kernel])
            for o in result.outcomes
            if o.modeler == "adaptive"
        ]
        return {
            "accuracy_exact": float(np.mean(np.asarray(distances) <= EXACT)),
            "median_error_pct": result.median_error("adaptive"),
            "models": len(distances),
        }


def _formatted_outcomes(result) -> list:
    return sorted((o.modeler, o.kernel, o.result.function.format()) for o in result.outcomes)


# ================================================================== service
@dataclass(frozen=True)
class ServiceRequest:
    """One generated request: its wire payload and the truth behind it."""

    payload: str
    method: str
    seed: int
    parameters: tuple
    #: kernel name -> (ground-truth function, the four P+ evaluation points)
    truth: dict


#: Most kernels one request carries.
MAX_KERNELS = 8
#: Offered rate of the reference phases, req/s: a third of the capacity
#: the overload probe measured with this mix, 27-37 req/s over runs
#: (1 worker, 2-core x86 host).
REFERENCE_RATE = 10.0


def request_block() -> list:
    """(parameters, kernels, method) of one block of the request mix.

    The kernel counts come from the bundled case studies: each application
    sends its kernels in requests of at most :data:`MAX_KERNELS` -- FASTEST's
    23 as 8, 8 and 7, RELEARN's 3, KRIPKE's 6. Each count is offered with
    one and with two parameters, as Fig. 3 models equally many functions per
    parameter count, and with each method.
    """
    counts = []
    for application in (fastest(), relearn(), kripke()):
        n = len(application.kernels)
        counts += [min(MAX_KERNELS, n - i) for i in range(0, n, MAX_KERNELS)]
    return [
        (params, kernels, method)
        for kernels in counts
        for params in (1, 2)
        for method in ServiceOpen.methods
    ]


def _service_request(
    gen: np.random.Generator,
    tenant: str,
    method: str,
    n_params: int,
    n_kernels: int,
    first_kernel: int = 0,
) -> ServiceRequest:
    """One request; kernel ``j`` of the pool (counting from
    ``first_kernel``) gets the ``j``-th of the paper's noise levels, cycling."""
    names = ("p", "q")[:n_params]
    experiment = Experiment(list(names))
    truth = {}
    for k in range(n_kernels):
        if n_params == 1:
            function = random_single_parameter_function(gen)
        else:
            function = random_multi_parameter_function(n_params, gen)
        values = [random_sequence(5, None, gen) for _ in range(n_params)]
        level = PAPER_NOISE_LEVELS[(first_kernel + k) % len(PAPER_NOISE_LEVELS)]
        noise = UniformNoise(float(level))
        kernel = experiment.create_kernel(f"k{k}")
        for measurement in synthesize_measurements(
            function, grid_coordinates(values), noise, 5, gen
        ):
            kernel.add(measurement)
        truth[kernel.name] = (function, evaluation_points(values))
    seed = int(gen.integers(2**31))
    payload = json.dumps(
        {
            "schema": REQUEST_SCHEMA,
            "tenant": tenant,
            "method": method,
            "seed": seed,
            "experiment": to_json_dict(experiment),
        }
    )
    return ServiceRequest(payload, method, seed, names, truth)


def _dispatcher_busy(start: float, end: float, requests: int) -> "tuple[float, int]":
    """Wall time of the dispatcher's ``service.batch`` spans that started in
    ``[start, end]``, and the requests those batches carried.

    The service records its own telemetry (the default config); its session
    is the active one. A batch span closes just after its responses are
    handed out, so this waits briefly until the spans cover ``requests``.
    """
    deadline = time.perf_counter() + 5.0
    with recording() as tel:
        while True:
            spans = [
                s
                for s in tel.tracer.export()
                if s["name"] == "service.batch" and start <= s["start_mono"] <= end
            ]
            batched = sum(s["attrs"]["requests"] for s in spans)
            if batched >= requests or time.perf_counter() > deadline:
                break
            time.sleep(0.001)
    if requests and not batched:
        raise RuntimeError("the service recorded no service.batch spans")
    return sum(s["duration_s"] for s in spans), batched


def _generate(service, requests, offsets, start, ids, handoff) -> None:
    """Generator thread: submit each request when it is due (open loop)."""
    for index, offset in enumerate(offsets):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        request = requests[index]
        try:
            handoff.put((index, sent, service.submit(request.payload, request_id=ids[index]), None))
        except ServiceBusy:
            handoff.put((index, sent, None, "rejected"))
        except (ServiceClosed, RequestError) as exc:
            handoff.put((index, sent, None, type(exc).__name__))
    handoff.put(None)


def _wait(handoff, results, timeout_s: float) -> None:
    """Waiter thread: collect responses in submission order."""
    while True:
        item = handoff.get()
        if item is None:
            return
        index, sent, pending, error = item
        if pending is None:
            results.put((index, sent, None, None, error))
            continue
        try:
            response = pending.wait(timeout_s)
        except TimeoutError:
            results.put((index, sent, None, None, "timeout"))
            continue
        results.put((index, sent, time.perf_counter(), response, None))


class ServiceOpen:
    name = "service-open"
    #: One worker: the engine then models in the dispatcher thread. With two
    #: workers on two cores, the median modeling time per request of a
    #: lighter request mix swung 5-9 ms between runs (quartile spread 0.29);
    #: the traced run still measures the two-worker service for ``parallel.*``.
    workers = 1
    unit_name = "reference-rate phase"
    task_span = "service.group"
    min_leaf_coverage = 0.5
    #: The dispatcher thread models, journals and answers; its busy time
    #: is the wall time of the ``service.batch`` spans.
    accounting_thread = "repro-service-dispatch"
    methods = ("regression", "adaptive(use_domain_adaptation=False)")
    tenants = ("tenant-a", "tenant-b", "tenant-c")
    #: Latency limit on the p99 of one phase.
    slo_ms = 500.0
    timeout_s = 30.0
    #: The fixed offered rates: the reference rate times 1.05^k, k >= 0.
    rate_step = 1.05
    #: Offered rate of the capacity probe, as a multiple of the reference.
    overload = 6.0
    #: The capacity walk starts at this share of the probed capacity.
    walk_start = 0.9

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.workdir = workdir
        # reference rate (req/s), request blocks per reference phase,
        # reference phases per run, requests per ladder rung
        self.rate, blocks, self.reference_phases, self.rung_requests = {
            "full": (REFERENCE_RATE, 4, 3, 150),
            "tiny": (40.0, 1, 1, 10),
        }[scale]
        # Every block offers each shape once, in a seeded order, so every
        # phase offers the same work; only the order and the generated
        # functions differ between seeds. The pool holds the reference
        # phases' requests; the capacity walk reuses it.
        block = request_block()
        self.phase_requests = blocks * len(block)
        gen = np.random.default_rng([seed, 0x5E7])
        self.requests = []
        pooled_kernels = 0
        for _ in range(blocks * self.reference_phases):
            for i in gen.permutation(len(block)):
                params, kernels, method = block[i]
                tenant = self.tenants[len(self.requests) % len(self.tenants)]
                self.requests.append(
                    _service_request(gen, tenant, method, params, kernels, pooled_kernels)
                )
                pooled_kernels += kernels
        self.warmup = [
            _service_request(gen, self.tenants[i % 3], self.methods[i % 2], 1 + i % 2, 1)
            for i in range(8)
        ]
        self.phases = 0
        self.instances = 0
        self.notes: list = []

    def setup(self, workers: int):
        load_or_pretrain()
        self.instances += 1
        run_dir = self.workdir / f"service-{workers}w-{self.instances}"
        service = ModelingService(ServiceConfig(processes=workers, run_dir=str(run_dir)))
        service.start()
        # Warm every worker's modeler cache: coalesced batches of both
        # methods reach both workers.
        for _ in range(3):
            pending = [
                service.submit(r.payload, request_id=f"warm-{self.instances}-{_}-{i}")
                for i, r in enumerate(self.warmup)
            ]
            for handle in pending:
                handle.wait(self.timeout_s)
        return {"service": service, "workers": workers, "phases": []}

    def close(self, state) -> None:
        state["service"].close()

    def run_phase(self, state, rate: float, count: int, first: int) -> dict:
        """Offer ``count`` requests at ``rate`` req/s on a fixed schedule,
        taking them from the pool from index ``first`` on."""
        self.phases += 1
        pool = len(self.requests)
        indices = [(first + i) % pool for i in range(count)]
        offsets = [i / rate for i in range(count)]
        ids = [f"ph{self.phases}-r{i}" for i in range(count)]
        handoff: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        cpu0 = process_tree_cpu()
        start = time.perf_counter() + 0.05
        threads = [
            threading.Thread(
                target=_generate,
                args=(
                    state["service"],
                    [self.requests[i] for i in indices],
                    offsets,
                    start,
                    ids,
                    handoff,
                ),
                name="perfbench-generator",
            ),
            threading.Thread(
                target=_wait, args=(handoff, results, self.timeout_s), name="perfbench-waiter"
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        cpu = process_tree_cpu() - cpu0
        records = sorted(results.get_nowait() for _ in range(results.qsize()))
        accepted = sum(1 for record in records if record[4] in (None, "timeout"))
        busy_s, batched = _dispatcher_busy(start, end, accepted)
        latencies, lags, answered, kernels, errors, rejected = [], [], [], 0, 0, 0
        sent_actual, finished = {}, []
        for index, sent, done, response, error in records:
            due = start + offsets[index]
            lags.append((sent - due) * 1000.0)
            sent_actual[ids[index]] = sent
            rejected += error == "rejected"
            if error is None and response.get("status") == 200:
                latencies.append((done - due) * 1000.0)
                finished.append(done)
                answered.append((indices[index], response))
                kernels += len(response["models"])
            else:
                latencies.append(math.inf)
                errors += 1
        third = max(1, count // 3)
        return {
            "rate": rate,
            "count": count,
            "wall_s": end - start,
            "cpu_s": cpu,
            "sent_actual": sent_actual,
            "rejected": rejected,
            "latencies_ms": latencies,
            "lags_ms": lags,
            "answered": answered,
            "answered_per_s": len(finished) / (max(finished) - start) if finished else 0.0,
            "kernels": kernels,
            "busy_s": busy_s,
            "batched": batched,
            "failed": errors,
            # Median latency of the last third minus the first: a backlog
            # that keeps growing moves it, a short stall does not.
            "backlog_ms": percentile(latencies[-third:], 50.0)
            - percentile(latencies[:third], 50.0),
        }

    def phase_meets_slo(self, phase: dict) -> bool:
        """p99 within the limit, nothing refused or failed, no growing backlog
        (the latency trend over the phase stays under a quarter of the limit)."""
        return (
            phase["failed"] == 0
            and percentile(phase["latencies_ms"], 99.0) <= self.slo_ms
            and phase["backlog_ms"] <= self.slo_ms / 4
        )

    def measure_units(self, state, seconds: float) -> list:
        """The reference phases, then the capacity walk in the time left."""
        start = time.perf_counter()
        units = [self.run_unit(state, i) for i in range(self.reference_phases)]
        state["max_rps"] = self.ladder(state, seconds - (time.perf_counter() - start))
        return units

    def primary_time(self, unit: Unit) -> float:
        """The dispatcher's busy time per request of the phase, in seconds."""
        return unit.output["busy_s"] / unit.output["batched"]

    def time_to_model(self, units) -> "tuple[float, int]":
        """Median over the phases of the dispatcher's busy time per request
        -- modeling plus the fsynced journal append, without queueing -- and
        the number of requests behind it."""
        return (
            statistics.median(self.primary_time(unit) for unit in units),
            sum(unit.output["batched"] for unit in units),
        )

    def throughput(self, units) -> float:
        """Median over the phases of kernels answered per second the
        dispatcher was busy. The phase's wall time is set by the offered
        rate, so kernels per wall second would measure the generator."""
        return statistics.median(unit.kernels / unit.output["busy_s"] for unit in units)

    def reported(self, state, units) -> dict:
        """Latency median and p99 at the reference rate, and the capacity
        within the latency limit: name -> (value, samples). A failed or
        refused request counts with the timeout as its latency."""
        latencies = [
            value if math.isfinite(value) else self.timeout_s * 1000.0
            for unit in units
            for value in unit.output["latencies_ms"]
        ]
        tail = summarize(latencies)
        if tail["tail_q"] is not None:
            self.notes.append(
                f"latency: median {tail['median']:.6g} ms, p{tail['tail_q']:g} "
                f"{tail['tail']:.6g} ms over n={tail['n']} (the highest percentile "
                "with at least 10 samples beyond it)"
            )
        return {
            "latency_p50_ms": (percentile(latencies, 50.0), len(latencies)),
            "latency_p99_ms": (percentile(latencies, 99.0), len(latencies)),
            "max_rps_within_slo": (state["max_rps"], len(state["phases"])),
        }

    def accounting_wall(self, tracer, spans) -> float:
        return sum(s["duration_s"] for s in spans if s["name"] == "service.batch")

    def service_metrics(self, units, spans) -> dict:
        """Queue waits (submit to ``service.request`` span start), batch
        sizes, refusals, errors and generator lag, per unit."""
        sent, lags, rejected, errors = {}, [], 0, 0
        for unit in units:
            sent.update(unit.output["sent_actual"])
            lags += unit.output["lags_ms"]
            rejected += unit.output["rejected"]
            errors += unit.output["failed"] - unit.output["rejected"]
        waits = [
            (s["start_mono"] - sent[s["attrs"]["request"]]) * 1000.0
            for s in spans
            if s["name"] == "service.request" and s["attrs"].get("request") in sent
        ]
        sizes = [s["attrs"]["requests"] for s in spans if s["name"] == "service.batch"]
        return {
            "service.queue_wait_ms.p50": percentile(waits, 50.0) if waits else 0.0,
            "service.queue_wait_ms.p99": percentile(waits, 99.0) if waits else 0.0,
            "service.batch_size.mean": statistics.fmean(sizes) if sizes else 0.0,
            "service.rejected": rejected / len(units),
            "service.errors": errors / len(units),
            "loadgen.lag_p99_ms": percentile(lags, 99.0) if lags else 0.0,
        }

    def run_unit(self, state, index: int) -> Unit:
        # Units i, 1000 + i and 2000 + i of a traced run offer the same slice.
        count = self.phase_requests
        phase = self.run_phase(state, self.rate, count, (index % 1000) * count)
        state["phases"].append(phase)
        return Unit(phase["wall_s"], phase["cpu_s"], phase["kernels"], output=phase)

    def ladder(self, state, budget_s: float) -> float:
        """Highest rate of the fixed grid that meets the SLO.

        One overload probe (``overload`` times the reference rate) measures
        how many requests per second the service answers. The walk starts at
        the highest rung within :attr:`walk_start` of that capacity, where a
        rung near saturation has room to pass, and moves up while rungs meet
        the SLO, or down until one does, within the budget. The reference
        phases stand for the reference rate.
        """
        deadline = time.perf_counter() + budget_s
        first = self.reference_phases * self.phase_requests
        best = self.rate if all(self.phase_meets_slo(p) for p in state["phases"]) else 0.0
        probe = self.run_phase(state, self.rate * self.overload, self.rung_requests, first)
        capacity = probe["answered_per_s"]
        self.notes.append(
            f"overload probe at {probe['rate']:.0f} req/s: answered {capacity:.1f} req/s, "
            f"refused {probe['rejected']}"
        )
        start = max(self.walk_start * capacity, 1e-9)
        k = math.floor(math.log(start / self.rate) / math.log(self.rate_step))
        # Walk from the capacity rung: up while rungs pass, down while they
        # fail; the answer is the highest passing rung seen.
        direction = 0
        while k > 0 and best >= self.rate:
            rate = self.rate * self.rate_step**k
            if time.perf_counter() + self.rung_requests / rate + 1.0 > deadline:
                break
            first += self.rung_requests
            phase = self.run_phase(state, rate, self.rung_requests, first)
            ok = self.phase_meets_slo(phase)
            self.notes.append(
                f"rung {rate:.1f} req/s: p99 {percentile(phase['latencies_ms'], 99.0):.1f} ms, "
                f"failed {phase['failed']}, backlog trend {phase['backlog_ms']:.0f} ms, "
                f"{'meets' if ok else 'misses'} the SLO"
            )
            if ok:
                best = max(best, rate)
            if direction == 0:
                direction = 1 if ok else -1
            if ok != (direction == 1):
                break
            k += direction
        return best

    def _response_problems(self, request: ServiceRequest, response: dict, modelers) -> list[str]:
        modeler = modelers.get(request.method)
        if modeler is None:
            modeler = modelers[request.method] = create_modeler(request.method)
        parsed = parse_request(request.payload, request_id="check")
        results = modeler.model_experiment(parsed.experiment, rng=request.seed)
        names = list(parsed.experiment.parameters)
        expected = [results[k].format(names) for k in sorted(results)]
        got = [model["formatted"] for model in response["models"]]
        if expected != got:
            return [f"response {response.get('id')}: formatted lines differ from model_experiment"]
        return []

    def check(self, state, units, sample: int = 12) -> Verdict:
        """Failures: refusals, timeouts, non-200s. A seeded sample of
        answered requests must equal in-process ``model_experiment``."""
        verdict = Verdict()
        answered = []
        for unit in units:
            phase = unit.output
            verdict.attempted += phase["count"]
            verdict.failed += phase["failed"]
            answered += phase["answered"]
        gen = np.random.default_rng([self.seed, 0xC4EC])
        picks = gen.choice(len(answered), size=min(sample, len(answered)), replace=False)
        modelers: dict = {}
        for pick in sorted(int(p) for p in picks):
            index, response = answered[pick]
            verdict.problems += self._response_problems(
                self.requests[index], response, modelers
            )
        return verdict

    def quality(self, units) -> dict:
        """Every served model (both methods) against its generating function."""
        distances, errors = [], []
        for unit in units:
            for index, response in unit.output["answered"]:
                request = self.requests[index]
                for model in response["models"]:
                    truth, points = request.truth[model["kernel"]]
                    function = parse_function(model["function"], list(request.parameters))
                    distances.append(lead_exponent_distance(function, truth))
                    errors.append(relative_prediction_errors(function, truth, points))
        return {
            "accuracy_exact": float(np.mean(np.asarray(distances) <= EXACT)),
            "median_error_pct": float(np.median(np.concatenate(errors))),
            "models": len(distances),
        }


WORKLOADS = {cls.name: cls for cls in (SweepM2, CaseStudyFastest, ServiceOpen)}
