"""Ablation: does per-task domain adaptation (Sec. IV-E) pay off?

Runs the Kripke case study with the DNN modeler using (a) the generic
pretrained network and (b) a domain-adapted network, comparing the median
relative prediction error at the hold-out point. This is the design choice
the paper motivates with the Kripke walkthrough in Sec. VI-A.
"""

from conftest import adaptation_samples_per_class

from repro.casestudies import kripke
from repro.casestudies.driver import run_case_study
from repro.dnn.modeler import DNNModeler
from repro.util.tables import render_table


def test_domain_adaptation_ablation(generic_network, record_table, benchmark):
    modelers = {
        "dnn-generic": DNNModeler(network=generic_network, use_domain_adaptation=False),
        "dnn-adapted": DNNModeler(
            network=generic_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=adaptation_samples_per_class(),
        ),
    }
    result = run_case_study(kripke(), modelers, rng=42)
    rows = [
        [
            name,
            f"{result.median_error(name):.2f}",
            f"{result.total_seconds[name]:.2f}",
        ]
        for name in ("dnn-generic", "dnn-adapted")
    ]
    record_table(
        "Ablation: domain adaptation on Kripke (median rel. error %, time s)",
        render_table(["modeler", "median rel. error %", "time s"], rows),
    )
    # Adaptation buys accuracy at retraining cost; at minimum it must not be
    # catastrophically worse while costing more time (the paper's trade-off).
    assert result.total_seconds["dnn-adapted"] > result.total_seconds["dnn-generic"]
    assert result.median_error("dnn-adapted") <= result.median_error("dnn-generic") + 10.0

    kern = kripke().modeling_experiment(kripke().run_campaign(rng=0)).kernel("SweepSolver")
    generic = modelers["dnn-generic"]
    benchmark(lambda: generic.model_kernel(kern, 3, rng=0))
