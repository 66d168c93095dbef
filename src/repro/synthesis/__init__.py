"""Synthetic workload generation.

Everything the paper synthesizes is produced here: random parameter-value
sequences imitating realistic application configurations (Sec. IV-D),
random PMNF ground-truth functions with coefficients from ``U[0.001, 1000]``,
noisy repeated measurements, the labelled training sets for the DNN, and the
evaluation points ``P+`` used to measure predictive power (Fig. 2).
"""

from repro.synthesis.sequences import (
    SequenceKind,
    random_sequence,
    random_sequences,
    continue_sequence,
)
from repro.synthesis.functions import (
    random_exponent_pair,
    random_single_parameter_function,
    random_multi_parameter_function,
    random_coefficient,
)
from repro.synthesis.measurements import (
    synthesize_measurements,
    synthesize_experiment,
    grid_coordinates,
    cross_coordinates,
)
from repro.synthesis.training import TrainingSetConfig, generate_training_set
from repro.synthesis.evaluation_points import evaluation_points

__all__ = [
    "SequenceKind",
    "random_sequence",
    "random_sequences",
    "continue_sequence",
    "random_exponent_pair",
    "random_single_parameter_function",
    "random_multi_parameter_function",
    "random_coefficient",
    "synthesize_measurements",
    "synthesize_experiment",
    "grid_coordinates",
    "cross_coordinates",
    "TrainingSetConfig",
    "generate_training_set",
    "evaluation_points",
]
