"""Equivalence of the batched multi-parameter engine with the reference loop.

The fast engine must select the same winner hypothesis as the reference
per-hypothesis loop and -- because the winner is refit through the reference
solver -- return bit-identical coefficients and CV-SMAPE. Pinned here
across several hundred random multi-parameter tasks at multiple noise
levels, plus explicitly rank-deficient designs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.experiment.measurement import value_table
from repro.noise.injection import UniformNoise
from repro.pmnf import basis
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.fast_multi import FastMultiParameterSearch
from repro.regression.hypothesis import Hypothesis
from repro.regression.multi_parameter import (
    MultiParameterModeler,
    combination_hypotheses,
)
from repro.regression.selection import evaluate_hypotheses, select_best
from repro.synthesis.functions import random_multi_parameter_function
from repro.synthesis.measurements import grid_coordinates, synthesize_measurements
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator

SEARCH = FastMultiParameterSearch()


def combination_task(seed, n_params=2, noise=0.3):
    """One random task: combination hypotheses + measurement table."""
    gen = as_generator(seed)
    truth = random_multi_parameter_function(n_params, gen)
    sets = [random_sequence(5, None, gen) for _ in range(n_params)]
    kernel = Kernel("task")
    noise_model = UniformNoise(noise) if noise > 0 else None
    for meas in synthesize_measurements(
        truth, grid_coordinates(sets), noise_model, rng=gen
    ):
        kernel.add(meas)
    modeler = MultiParameterModeler(use_fast_path="reference")
    lines = parameter_lines(kernel, n_params)
    hypotheses = combination_hypotheses(
        modeler.lead_terms(modeler.model_lines(lines))
    )
    points, values = value_table(kernel.measurements, "median")
    return hypotheses, points, values


def assert_engines_agree(hypotheses, points, values):
    ref = select_best(evaluate_hypotheses(hypotheses, points, values))
    fst = SEARCH.select(hypotheses, points, values)
    assert fst.function.structure_key() == ref.function.structure_key()
    # The winner is refit through the reference solver: bit-identical.
    assert fst.cv_smape == ref.cv_smape
    assert fst.function.constant == ref.function.constant
    np.testing.assert_array_equal(
        [t.coefficient for t in fst.function.terms],
        [t.coefficient for t in ref.function.terms],
    )
    assert fst.fitted.smape == ref.fitted.smape
    assert fst.fitted.rss == ref.fitted.rss


class TestEquivalence:
    """>= 200 random tasks in total across the parametrized noise levels."""

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.3, 1.0])
    def test_two_parameter_tasks(self, noise):
        for seed in range(40):
            hypotheses, points, values = combination_task(seed, 2, noise)
            assert_engines_agree(hypotheses, points, values)

    @pytest.mark.parametrize("noise", [0.05, 0.5])
    def test_three_parameter_tasks(self, noise):
        for seed in range(15):
            hypotheses, points, values = combination_task(seed, 3, noise)
            assert_engines_agree(hypotheses, points, values)

    def test_modeler_level_equivalence(self):
        """End to end through MultiParameterModeler with both engines."""
        for seed in range(10):
            gen = as_generator(seed)
            truth = random_multi_parameter_function(2, gen)
            sets = [random_sequence(5, None, gen) for _ in range(2)]
            kernel = Kernel("task")
            for meas in synthesize_measurements(
                truth, grid_coordinates(sets), UniformNoise(0.2), rng=gen
            ):
                kernel.add(meas)
            ref = MultiParameterModeler(use_fast_path="reference").model_kernel(kernel, 2)
            fst = MultiParameterModeler(use_fast_path="fast").model_kernel(kernel, 2)
            assert fst.function.structure_key() == ref.function.structure_key()
            assert fst.cv_smape == ref.cv_smape


def hand_hypotheses():
    """Additive, multiplicative, and constant 2-parameter hypotheses."""
    a = CompoundTerm.from_pair(ExponentPair(1, 0))
    b = CompoundTerm.from_pair(ExponentPair(2, 0))
    return [
        Hypothesis.constant(2),
        Hypothesis([{0: a}], 2),
        Hypothesis([{1: b}], 2),
        Hypothesis([{0: a}, {1: b}], 2),
        Hypothesis([{0: a, 1: b}], 2),
    ]


class TestRankDeficient:
    def test_collinear_parameters(self):
        """Points on the diagonal x2 = x1 make the term columns collinear."""
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        points = np.stack([xs, xs], axis=1)
        values = 3.0 + 2.0 * xs
        assert_engines_agree(hand_hypotheses(), points, values)

    def test_constant_second_parameter(self):
        """A frozen parameter makes its column proportional to the intercept."""
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        points = np.stack([xs, np.full(5, 8.0)], axis=1)
        values = 1.0 + 0.5 * xs
        assert_engines_agree(hand_hypotheses(), points, values)

    def test_duplicate_rows(self):
        xs = np.array([4.0, 4.0, 8.0, 8.0, 16.0, 16.0])
        points = np.stack([xs, xs[::-1]], axis=1)
        values = 2.0 + xs + 0.1 * xs[::-1]
        assert_engines_agree(hand_hypotheses(), points, values)


class TestEdgeCases:
    def test_pair_outside_the_search_space(self):
        """A factor without a basis row is evaluated directly."""
        a = CompoundTerm(6)  # x^6 lies outside E on purpose
        b = CompoundTerm.from_pair(ExponentPair(1, 0))
        hypotheses = [
            Hypothesis.constant(2),
            Hypothesis([{0: a}], 2),
            Hypothesis([{0: a}, {1: b}], 2),
            Hypothesis([{0: a, 1: b}], 2),
        ]
        grid = np.array([[x, y] for x in (2.0, 3.0, 4.0, 5.0) for y in (1.5, 2.5, 3.5)])
        values = 1.0 + 0.01 * grid[:, 0] ** 6 * grid[:, 1]
        assert_engines_agree(hypotheses, grid, values)

    def test_too_few_points_skips_large_hypotheses(self):
        """With n = 2 only hypotheses with one coefficient survive -- exactly
        the reference's c > n - 1 rule."""
        points = np.array([[4.0, 4.0], [8.0, 16.0]])
        values = np.array([5.0, 9.0])
        candidates = SEARCH.score(hand_hypotheses(), points, values)
        assert all(cand[4].n_coefficients <= 1 for cand in candidates)
        assert_engines_agree(hand_hypotheses(), points, values)

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError, match="no valid hypotheses"):
            SEARCH.choose([], np.zeros((2, 2)), np.zeros(2))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, m\)"):
            SEARCH.score(hand_hypotheses(), np.zeros(5), np.zeros(5))


def assert_identical(a, b):
    assert a.function.structure_key() == b.function.structure_key()
    assert a.cv_smape == b.cv_smape
    assert a.function.constant == b.function.constant
    assert [t.coefficient for t in a.function.terms] == [
        t.coefficient for t in b.function.terms
    ]


#: More distinct grid columns than the basis cache holds (two per task).
BEYOND_BOUND = basis.BASIS_CACHE_SIZE // 2 + 3


class TestWarmEqualsCold:
    """The cached term basis never changes a selected model."""

    @staticmethod
    def cold(task):
        basis._CACHE.clear()
        return SEARCH.select(*task)

    def test_first_repeated_and_evicted_calls(self):
        for seed in range(4):
            task = combination_task(seed, 2 + seed % 2, noise=0.2)
            first = self.cold(task)
            repeated = SEARCH.select(*task)
            for other in range(BEYOND_BOUND):
                SEARCH.select(*combination_task(500 + other, 2, noise=0.2))
            evicted = SEARCH.select(*task)
            assert_identical(repeated, first)
            assert_identical(evicted, first)

    def test_interleaved_layouts_beyond_the_bound(self):
        tasks = [combination_task(seed, 2, noise=0.3) for seed in range(BEYOND_BOUND)]
        cold = [self.cold(task) for task in tasks]
        basis._CACHE.clear()
        for _ in range(2):
            for k in list(range(0, len(tasks), 2)) + list(range(1, len(tasks), 2)):
                assert_identical(SEARCH.select(*tasks[k]), cold[k])

    @given(seeds=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=15, deadline=None)
    def test_any_call_sequence(self, seeds):
        tasks = {seed: combination_task(seed, 2, noise=0.3) for seed in set(seeds)}
        cold = {seed: self.cold(task) for seed, task in tasks.items()}
        basis._CACHE.clear()
        for seed in seeds:
            assert_identical(SEARCH.select(*tasks[seed]), cold[seed])
