"""Shared benchmark fixtures and the table reporter.

Every benchmark regenerates one table/figure of the paper. The tables are
collected via the ``record_table`` fixture and (a) printed in the terminal
summary after the pytest-benchmark timing table, (b) written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference stable
artifacts.

Scale knobs (environment):

* ``REPRO_EVAL_FUNCTIONS`` -- functions per sweep cell for m = 1 (default
  200 here; m = 2 and m = 3 use a half and a quarter of it). The paper uses
  100 000.
* ``REPRO_ADAPT_SPC`` -- samples per class for domain-adaptation retraining
  in the adaptation benches (default: the paper's 2000).
* ``REPRO_PROCS`` -- process-parallel sweep execution.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.adaptive.modeler import AdaptiveModeler
from repro.dnn.domain_adaptation import DEFAULT_SAMPLES_PER_CLASS
from repro.dnn.modeler import DNNModeler
from repro.dnn.pretrained import load_or_pretrain
from repro.evaluation.sweep import SweepConfig, run_sweep
from repro.regression.modeler import RegressionModeler
from repro.util.artifacts import atomic_write_text

RESULTS_DIR = Path(__file__).parent / "results"

_TABLES: list[tuple[str, str]] = []


def eval_functions(m: int) -> int:
    base = int(os.environ.get("REPRO_EVAL_FUNCTIONS", "200"))
    return max(20, base // (2 ** (m - 1)))


def adaptation_samples_per_class() -> int:
    """Retraining samples per class: ``REPRO_ADAPT_SPC``, else the paper's 2000."""
    return int(os.environ.get("REPRO_ADAPT_SPC", str(DEFAULT_SAMPLES_PER_CLASS)))


@pytest.fixture(scope="session")
def generic_network():
    """The cached pretrained 'fast' generic network."""
    return load_or_pretrain()


@pytest.fixture(scope="session")
def sweep_modelers(generic_network):
    """Modelers for the synthetic sweeps (Fig. 3).

    As in Sec. V, the comparison is regression vs the adaptive modeler; the
    DNN inside uses the generic network without per-function domain
    adaptation -- the pretraining distribution already covers the sweep's
    task distribution, and retraining per synthetic function would be
    prohibitive (and was not what the paper did either at 100 000 tasks).
    """
    dnn = DNNModeler(network=generic_network, use_domain_adaptation=False)
    return {
        "regression": RegressionModeler(),
        "dnn": dnn,
        "adaptive": AdaptiveModeler(dnn=dnn),
    }


def _sweep(m: int, modelers) -> "SweepResult":
    config = SweepConfig(n_params=m, n_functions=eval_functions(m))
    return run_sweep(config, modelers, rng=20210517 + m)


@pytest.fixture(scope="session")
def sweep_m1(sweep_modelers):
    return _sweep(1, sweep_modelers)


@pytest.fixture(scope="session")
def sweep_m2(sweep_modelers):
    return _sweep(2, sweep_modelers)


@pytest.fixture(scope="session")
def sweep_m3(sweep_modelers):
    return _sweep(3, sweep_modelers)


@pytest.fixture(scope="session")
def case_study_results(generic_network):
    """All three simulated case studies, modeled by both approaches.

    Shared by the Fig. 4 / Fig. 5 / Fig. 6 benches so each campaign is
    simulated and modeled exactly once per session.
    """
    from repro.casestudies import ALL_STUDIES
    from repro.casestudies.driver import run_case_study

    results = {}
    for name, factory in ALL_STUDIES.items():
        modelers = {
            "regression": RegressionModeler(),
            "adaptive": AdaptiveModeler(
                dnn=DNNModeler(
                    network=generic_network,
                    use_domain_adaptation=True,
                    adaptation_samples_per_class=adaptation_samples_per_class(),
                )
            ),
        }
        results[name] = run_case_study(factory(), modelers, rng=42)
    return results


@pytest.fixture
def record_table():
    """Record a regenerated paper table for the terminal summary + results/."""

    def _record(name: str, table: str) -> None:
        _TABLES.append((name, table))
        RESULTS_DIR.mkdir(exist_ok=True)
        safe = "".join(c if c.isalnum() else "_" for c in name.lower())
        safe = "_".join(filter(None, safe.split("_")))
        atomic_write_text(RESULTS_DIR / f"{safe}.txt", table + "\n")

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.section("reproduced paper tables")
    for name, table in _TABLES:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"### {name}")
        for line in table.splitlines():
            terminalreporter.write_line(line)
