"""Per-sample reference generator for the synthetic training set.

This is the stream-version-1 generator, kept as the distributional oracle of
:func:`repro.synthesis.training.generate_training_set`: it draws one sample
at a time exactly as the paper describes it -- a sequence, ``c0`` and ``c1``,
the repetition count, noise on every repetition, the median per point, the
11-slot encoding. The batched generator must produce the same distribution
of encoded vectors per class; it does not reproduce this stream.
"""

from __future__ import annotations

import numpy as np

from repro.pmnf.searchspace import NUM_CLASSES, pair_for_class
from repro.pmnf.terms import CompoundTerm
from repro.preprocessing.encoding import INPUT_SIZE, MAX_POINTS, encode_line
from repro.synthesis.functions import random_coefficient
from repro.synthesis.sequences import random_sequence
from repro.synthesis.training import TrainingSetConfig
from repro.util.seeding import as_generator


def _sample_sequence(config: TrainingSetConfig, gen: np.random.Generator) -> np.ndarray:
    if config.parameter_value_sets is not None:
        sets = config.parameter_value_sets
        xs = np.asarray(sets[int(gen.integers(len(sets)))], dtype=float)
        if xs.size > MAX_POINTS:
            raise ValueError(f"parameter-value set longer than {MAX_POINTS}")
        return xs
    length = int(gen.integers(config.min_points, config.max_points + 1))
    kind = None
    if config.sequence_kinds is not None:
        kind = config.sequence_kinds[int(gen.integers(len(config.sequence_kinds)))]
    return random_sequence(length, kind, gen)


def synthesize_sample(
    label: int,
    config: TrainingSetConfig,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """Generate one encoded input vector whose ground-truth class is ``label``."""
    gen = as_generator(rng)
    xs = _sample_sequence(config, gen)
    pair = pair_for_class(label)
    c0 = random_coefficient(gen, config.coefficient_range)
    if pair.is_constant:
        truth = np.full(xs.size, c0)
    else:
        c1 = random_coefficient(gen, config.coefficient_range)
        truth = c0 + c1 * CompoundTerm.from_pair(pair).evaluate(xs)
    rep = (
        config.repetitions
        if config.fixed_repetitions
        else int(gen.integers(1, config.repetitions + 1))
    )
    noisy = config.noise.apply(np.repeat(truth[:, None], rep, axis=1), gen)
    medians = np.median(noisy, axis=1)
    return encode_line(xs, medians)


def oracle_training_set(
    config: TrainingSetConfig, rng: "np.random.Generator | int | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Unshuffled ``(X, y)`` built sample by sample with :func:`synthesize_sample`."""
    gen = as_generator(rng)
    count = config.samples_per_class
    X = np.empty((NUM_CLASSES * count, INPUT_SIZE))
    for label in range(NUM_CLASSES):
        for row in range(count):
            X[label * count + row] = synthesize_sample(label, config, gen)
    return X, np.repeat(np.arange(NUM_CLASSES), count)
