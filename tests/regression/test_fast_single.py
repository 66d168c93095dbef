"""Equivalence of the batched fast path with the reference search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise.injection import UniformNoise
from repro.pmnf import basis
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression import fast_single
from repro.regression.fast_single import FastSingleParameterSearch, _constant_cv_smape
from repro.regression.single_parameter import SingleParameterModeler
from repro.synthesis.functions import random_single_parameter_function
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator


def reference(xs, values):
    return SingleParameterModeler(use_fast_path=False).model(xs, values)


def fast(xs, values):
    return SingleParameterModeler(use_fast_path=True).model(xs, values)


def random_case(seed, noise=0.3, n_points=5):
    gen = as_generator(seed)
    truth = random_single_parameter_function(gen)
    xs = random_sequence(n_points, None, gen)
    values = truth.evaluate(xs[:, None])
    values = UniformNoise(noise).apply(values, gen)
    return xs, values


class TestEquivalence:
    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=80, deadline=None)
    def test_same_winner_and_score(self, seed):
        xs, values = random_case(seed)
        ref = reference(xs, values)
        fst = fast(xs, values)
        assert fst.function.structure_key() == ref.function.structure_key()
        assert fst.cv_smape == pytest.approx(ref.cv_smape, rel=1e-9, abs=1e-9)
        pts = np.array([[xs[-1] * 4]])
        np.testing.assert_allclose(
            fst.function.evaluate(pts), ref.function.evaluate(pts), rtol=1e-9
        )

    @given(
        seed=st.integers(min_value=0, max_value=500),
        noise=st.sampled_from([0.0, 0.05, 1.0]),
        n_points=st.integers(min_value=5, max_value=11),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_across_scales(self, seed, noise, n_points):
        xs, values = random_case(seed, noise, n_points)
        ref = reference(xs, values)
        fst = fast(xs, values)
        assert fst.function.structure_key() == ref.function.structure_key()

    def test_constant_data(self):
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        values = np.full(5, 7.0)
        assert fast(xs, values).function.is_constant()

    def test_restricted_pairs(self):
        pairs = [ExponentPair(1, 0), ExponentPair(2, 0), ExponentPair(0, 0)]
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        values = 1.0 + 0.5 * xs**2
        best = SingleParameterModeler(pairs, use_fast_path=True).model(xs, values)
        assert best.function.lead_exponents()[0].i == 2

    def test_pair_outside_the_search_space(self):
        """Pairs without a basis row are evaluated directly, same winner."""
        pairs = [ExponentPair(0, 0), ExponentPair(1, 0), ExponentPair(6, 0)]  # repro-lint: disable=PMNF001 -- (6, 0) lies outside E on purpose
        xs = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        values = 3.0 + 0.01 * xs**6
        ref = SingleParameterModeler(pairs, use_fast_path=False).model(xs, values)
        fst = SingleParameterModeler(pairs, use_fast_path=True).model(xs, values)
        assert fst.function.lead_exponents()[0].i == 6
        assert fst.function.structure_key() == ref.function.structure_key()
        assert fst.cv_smape == pytest.approx(ref.cv_smape, rel=1e-9)

    def test_negative_trend_prefers_plausible(self):
        """Decreasing data: both engines fall back to a plausible model
        (or, with no plausible candidate, the same implausible one)."""
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        values = np.array([100.0, 90.0, 78.0, 65.0, 40.0])
        ref = reference(xs, values)
        fst = fast(xs, values)
        assert fst.function.structure_key() == ref.function.structure_key()


class TestConstantCv:
    def test_matches_explicit_loo(self):
        values = np.array([10.0, 12.0, 9.0, 11.0, 10.5])
        n = values.size
        loo = np.array([np.mean(np.delete(values, i)) for i in range(n)])
        expected = np.mean(2 * np.abs(values - loo) / (np.abs(values) + np.abs(loo))) * 100
        assert _constant_cv_smape(values) == pytest.approx(expected)

    def test_single_point_raises_with_kernel_name(self):
        """n = 1 would divide by n - 1 = 0; the error names the kernel and
        the minimum point count instead."""
        with pytest.raises(ValueError, match=r"'solver'.*1 measurement point.*at least 2"):
            _constant_cv_smape(np.array([7.0]), kernel="solver")

    def test_empty_values_raise(self):
        with pytest.raises(ValueError, match="at least 2"):
            _constant_cv_smape(np.array([]))


class TestSearchConstruction:
    def test_duplicates_removed(self):
        search = FastSingleParameterSearch(
            [ExponentPair(1, 0), ExponentPair(1, 0), ExponentPair(0, 0)]
        )
        assert len(search.term_pairs) == 1
        assert search.include_constant

    def test_all_pairs(self):
        search = FastSingleParameterSearch(EXPONENT_PAIRS)
        assert len(search.term_pairs) == 42

    def test_too_few_points_rejected(self):
        search = FastSingleParameterSearch(EXPONENT_PAIRS)
        with pytest.raises(ValueError):
            search.select(np.array([2.0, 4.0]), np.array([1.0, 2.0]))


def cold_caches():
    basis._CACHE.clear()
    fast_single._FACTORS.clear()


def assert_identical(a, b):
    assert a.function.structure_key() == b.function.structure_key()
    assert a.cv_smape == b.cv_smape
    assert a.function.constant == b.function.constant
    assert [t.coefficient for t in a.function.terms] == [
        t.coefficient for t in b.function.terms
    ]


#: More distinct layouts than either cache holds.
BEYOND_BOUND = max(fast_single.FACTOR_CACHE_SIZE, basis.BASIS_CACHE_SIZE) + 3


class TestWarmEqualsCold:
    """The cached basis and factorization never change a selected model."""

    SEARCH = FastSingleParameterSearch(EXPONENT_PAIRS)

    def cold(self, xs, values):
        cold_caches()
        return self.SEARCH.select(xs, values)

    def test_first_repeated_and_evicted_calls(self):
        for seed in range(5):
            xs, values = random_case(seed, n_points=5 + seed)
            first = self.cold(xs, values)
            repeated = self.SEARCH.select(xs, values)
            for other in range(BEYOND_BOUND):
                self.SEARCH.select(*random_case(1000 + other))
            evicted = self.SEARCH.select(xs, values)
            assert_identical(repeated, first)
            assert_identical(evicted, first)

    def test_interleaved_layouts_beyond_the_bound(self):
        cases = [random_case(seed, noise=0.1) for seed in range(BEYOND_BOUND)]
        cold = [self.cold(xs, values) for xs, values in cases]
        cold_caches()
        for _ in range(2):
            for k in list(range(0, len(cases), 2)) + list(range(1, len(cases), 2)):
                assert_identical(self.SEARCH.select(*cases[k]), cold[k])

    def test_same_layout_with_new_values(self):
        """A warm factorization serves every value vector on its layout."""
        xs, values = random_case(3)
        self.cold(xs, values)
        for scale in (0.5, 2.0, 7.0):
            warm = self.SEARCH.select(xs, values * scale + xs)
            assert_identical(warm, self.cold(xs, values * scale + xs))

    @given(seeds=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_any_call_sequence(self, seeds):
        cold = {seed: self.cold(*random_case(seed)) for seed in set(seeds)}
        cold_caches()
        for seed in seeds:
            assert_identical(self.SEARCH.select(*random_case(seed)), cold[seed])
