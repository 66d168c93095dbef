"""Fig. 6: computational overhead of the adaptive modeler.

The paper reports the adaptive modeler to be 54-65x slower than regression
(61.99 s for Kripke, 85.66 s for RELeARN on their hardware), with the
domain-adaptation retraining dominating the cost. Absolute times depend on
the network size (we default to the reduced ``fast`` network; retraining
runs at the paper's 2000 samples/class unless ``REPRO_ADAPT_SPC`` says
otherwise -- see conftest scale knobs), but the structure -- adaptive pays
a large constant retraining cost, regression does not -- must hold.
"""

from conftest import adaptation_samples_per_class

from repro.dnn.domain_adaptation import AdaptationTask, adapt_network
from repro.util.tables import render_table

PAPER_SLOWDOWN = {"kripke": 65, "fastest": 54, "relearn": 64}


def test_fig6_modeling_time(case_study_results, record_table, benchmark, generic_network):
    rows = []
    for name in ("kripke", "fastest", "relearn"):
        result = case_study_results[name]
        rows.append(
            [
                name,
                f"{result.total_seconds['regression']:.2f}",
                f"{result.total_seconds['adaptive']:.2f}",
                f"{result.slowdown('adaptive'):.1f}x",
                f"{PAPER_SLOWDOWN[name]}x",
            ]
        )
    record_table(
        "Fig 6 modeling time (s) and slowdown vs regression",
        render_table(
            ["study", "regression s", "adaptive s", "slowdown", "paper slowdown"],
            rows,
        ),
    )

    for name in PAPER_SLOWDOWN:
        result = case_study_results[name]
        assert result.slowdown("adaptive") > 3.0, (
            f"{name}: retraining must dominate adaptive modeling time"
        )

    # Timed unit: one domain-adaptation (synthesis + retraining, the
    # dominant cost) at the benches' retraining budget.
    task = AdaptationTask(
        parameter_value_sets=((8.0, 64.0, 512.0, 4096.0, 32768.0),),
        noise_range=(0.04, 0.54),
        repetitions=5,
    )
    benchmark.pedantic(
        lambda: adapt_network(
            generic_network, task, rng=0, samples_per_class=adaptation_samples_per_class()
        ),
        rounds=3,
        iterations=1,
    )
