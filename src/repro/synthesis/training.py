"""Labelled training-set generation for the DNN classifier.

Pretraining (paper Sec. IV-D) draws everything at random: the exponent class,
the coefficients, the sequence family, the number of points, the noise level,
and the number of repetitions ("up to five"). Domain adaptation
(Sec. IV-E) instead fixes the sequence(s), repetition count, and noise range
to those observed in the modeling task at hand -- expressed here by setting
``parameter_value_sets``, ``repetitions``, and ``noise`` on the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.noise.injection import NoiseModel, UniformLevelRangeNoise
from repro.pmnf.searchspace import NUM_CLASSES, pair_for_class
from repro.pmnf.terms import CompoundTerm
from repro.preprocessing.encoding import INPUT_SIZE, MAX_POINTS, MIN_POINTS, encode_lines
from repro.synthesis.functions import COEFFICIENT_RANGE, check_coefficient_range
from repro.synthesis.sequences import SequenceKind, random_sequences
from repro.util.seeding import as_generator

#: Version of the training-set random stream: which draws are made, in
#: which order, for a given seed. Bump it with every deliberate change to
#: that order. It is folded into the pretrained-network cache key and the
#: adapted-weights store path, so artifacts built from an older stream are
#: never loaded as current ones. Version 1 drew every sample on its own;
#: version 2 draws each class as one array block.
SYNTHESIS_STREAM_VERSION = 2


@dataclass
class TrainingSetConfig:
    """Configuration of one synthetic training-set generation run."""

    samples_per_class: int = 200
    #: Noise model applied to every repetition. The pretraining default draws
    #: a fresh level from [0, 100%] per sample, as in the paper.
    noise: NoiseModel = field(default_factory=lambda: UniformLevelRangeNoise(0.0, 1.0))
    #: Maximum repetitions per point; each sample draws 1..repetitions
    #: ("up to five") unless ``fixed_repetitions`` is set.
    repetitions: int = 5
    fixed_repetitions: bool = False
    min_points: int = MIN_POINTS
    max_points: int = MAX_POINTS
    #: Restrict the random sequence families (None = all).
    sequence_kinds: "tuple[SequenceKind, ...] | None" = None
    #: Domain adaptation: generate on exactly these parameter-value sets
    #: (each sample uses one of them) instead of random sequences.
    parameter_value_sets: "Sequence[np.ndarray] | None" = None
    coefficient_range: tuple[float, float] = COEFFICIENT_RANGE

    def __post_init__(self) -> None:
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if not (2 <= self.min_points <= self.max_points <= MAX_POINTS):
            raise ValueError(
                f"point counts must satisfy 2 <= min <= max <= {MAX_POINTS}, "
                f"got [{self.min_points}, {self.max_points}]"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        check_coefficient_range(self.coefficient_range)


def _draw_layouts(
    config: TrainingSetConfig, count: int, gen: np.random.Generator
) -> "list[tuple[np.ndarray, np.ndarray, np.ndarray]]":
    """The parameter-value sequences of ``count`` samples, grouped by length.

    Each group is ``(rows, layouts, layout_of)``: the block rows it covers,
    its distinct layouts as a ``(layouts, points)`` array, and each row's
    layout index.
    """
    if config.parameter_value_sets is not None:
        sets = [np.asarray(v, dtype=float) for v in config.parameter_value_sets]
        if any(v.size > MAX_POINTS for v in sets):
            raise ValueError(f"parameter-value set longer than {MAX_POINTS}")
        choice = gen.integers(len(sets), size=count)
        groups = []
        for length in sorted({v.size for v in sets}):
            members = [i for i, v in enumerate(sets) if v.size == length]
            rows = np.flatnonzero(np.isin(choice, members))
            if rows.size:
                layout_of = np.searchsorted(members, choice[rows])
                groups.append((rows, np.stack([sets[i] for i in members]), layout_of))
        return groups
    lengths = gen.integers(config.min_points, config.max_points + 1, size=count)
    groups = []
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        layouts = random_sequences(int(length), rows.size, config.sequence_kinds, gen)
        groups.append((rows, layouts, np.arange(rows.size)))
    return groups


def _class_block(label: int, config: TrainingSetConfig, gen: np.random.Generator) -> np.ndarray:
    """The ``(samples_per_class, 11)`` encoded inputs of class ``label``.

    Per sample, as the paper describes: a sequence, ``c0, c1 ~ U[range]``,
    ``1..repetitions`` repetitions (or exactly ``repetitions``), noise on
    every repetition, the median per point, the 11-slot encoding. All of it
    is drawn as vectors over the block; the class's term is evaluated once
    per point-count group, and noise is applied per repetition group, one
    independent :meth:`~repro.noise.injection.NoiseModel.apply_rows` row
    per sample.
    """
    count = config.samples_per_class
    groups = _draw_layouts(config, count, gen)
    pair = pair_for_class(label)
    lo, hi = config.coefficient_range
    c0 = gen.uniform(lo, hi, size=count)
    c1 = None if pair.is_constant else gen.uniform(lo, hi, size=count)
    if config.fixed_repetitions:
        reps = np.full(count, config.repetitions)
    else:
        reps = gen.integers(1, config.repetitions + 1, size=count)
    block = np.empty((count, INPUT_SIZE))
    for rows, layouts, layout_of in groups:
        xs = layouts[layout_of]
        if c1 is None:
            truth = np.repeat(c0[rows, None], xs.shape[1], axis=1)
        else:
            basis = CompoundTerm.from_pair(pair).evaluate(layouts)[layout_of]
            truth = c0[rows, None] + c1[rows, None] * basis
        medians = np.empty_like(truth)
        row_reps = reps[rows]
        for rep in np.unique(row_reps):
            members = np.flatnonzero(row_reps == rep)
            repeated = np.repeat(truth[members, :, None], rep, axis=2)
            medians[members] = np.median(config.noise.apply_rows(repeated, gen), axis=2)
        block[rows] = encode_lines(xs, medians)
    return block


def generate_training_set(
    config: TrainingSetConfig,
    rng: "np.random.Generator | int | None" = None,
    shuffle: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(X, y)`` with ``samples_per_class`` examples of each class.

    ``X`` has shape ``(43 * samples_per_class, 11)`` and ``y`` holds integer
    class labels. Classes are balanced by construction, matching the paper's
    "fixed amount of synthetic training samples per class". Each class is
    synthesized as one array block, so the working set beyond ``X`` is one
    class wide (see :data:`SYNTHESIS_STREAM_VERSION` for the stream).
    """
    gen = as_generator(rng)
    count = config.samples_per_class
    X = np.empty((NUM_CLASSES * count, INPUT_SIZE), dtype=float)
    for label in range(NUM_CLASSES):
        X[label * count : (label + 1) * count] = _class_block(label, config, gen)
    y = np.repeat(np.arange(NUM_CLASSES, dtype=np.int64), count)
    if shuffle:
        order = gen.permutation(X.shape[0])
        X, y = X[order], y[order]
    return X, y
