import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise.injection import (
    DriftNoise,
    GammaLevelNoise,
    GaussianNoise,
    HeteroscedasticNoise,
    LognormalSpikeNoise,
    NoNoise,
    TaintedRepetitionNoise,
    UniformLevelRangeNoise,
    UniformNoise,
)

VALUES = np.full(2000, 10.0)


class TestNoNoise:
    def test_identity_copy(self):
        out = NoNoise().apply(VALUES)
        np.testing.assert_array_equal(out, VALUES)
        assert out is not VALUES

    def test_nominal_level(self):
        assert NoNoise().nominal_level() == 0.0


class TestUniformNoise:
    def test_bounds_follow_paper_semantics(self):
        """Level n = 10 % means at most +-5 % deviation (Sec. IV-D)."""
        out = UniformNoise(0.10).apply(VALUES, rng=0)
        dev = np.abs(out / VALUES - 1.0)
        assert np.max(dev) <= 0.05 + 1e-12
        assert np.max(dev) > 0.04  # actually spans the range

    def test_zero_level_is_identity(self):
        np.testing.assert_array_equal(UniformNoise(0.0).apply(VALUES, rng=0), VALUES)

    def test_deterministic_with_seed(self):
        a = UniformNoise(0.5).apply(VALUES, rng=3)
        b = UniformNoise(0.5).apply(VALUES, rng=3)
        np.testing.assert_array_equal(a, b)

    def test_mean_preserved_approximately(self):
        out = UniformNoise(1.0).apply(VALUES, rng=0)
        assert np.mean(out) == pytest.approx(10.0, rel=0.05)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            UniformNoise(-0.1)

    def test_input_not_modified(self):
        values = np.full(5, 3.0)
        UniformNoise(1.0).apply(values, rng=0)
        np.testing.assert_array_equal(values, 3.0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_positive_outputs_for_levels_up_to_100pct(self, level, seed):
        """Runtimes stay positive for every level the paper sweeps."""
        out = UniformNoise(level).apply(np.full(64, 1e-3), rng=seed)
        assert np.all(out > 0)


class TestGaussianNoise:
    def test_spread_matches_level(self):
        out = GaussianNoise(0.4).apply(VALUES, rng=0)
        assert np.std(out / VALUES - 1.0) == pytest.approx(0.1, rel=0.1)


class TestUniformLevelRangeNoise:
    def test_level_varies_between_calls(self):
        model = UniformLevelRangeNoise(0.0, 1.0)
        gen = np.random.default_rng(0)
        spans = [np.ptp(model.apply(VALUES, gen) / VALUES) for _ in range(20)]
        assert np.ptp(spans) > 0.2  # some calls calm, some noisy

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UniformLevelRangeNoise(0.5, 0.1)

    def test_nominal_is_midpoint(self):
        assert UniformLevelRangeNoise(0.2, 0.4).nominal_level() == pytest.approx(0.3)


class TestGammaLevelNoise:
    def test_levels_clipped(self):
        model = GammaLevelNoise(shape=2.0, scale=0.5, lo=0.1, hi=0.3)
        gen = np.random.default_rng(0)
        for _ in range(20):
            span = np.ptp(model.apply(VALUES, gen) / VALUES)
            assert span <= 0.3 + 1e-9

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GammaLevelNoise(shape=0.0, scale=1.0)


class TestLognormalSpikeNoise:
    def test_spikes_only_slow_down(self):
        base = LognormalSpikeNoise(level=0.0, spike_probability=1.0, spike_scale=0.5)
        out = base.apply(VALUES, rng=0)
        assert np.all(out >= VALUES - 1e-9)

    def test_zero_probability_equals_base(self):
        model = LognormalSpikeNoise(level=0.2, spike_probability=0.0)
        out = model.apply(VALUES, rng=5)
        base = UniformNoise(0.2).apply(VALUES, rng=5)
        # Same rng consumption order for the uniform part.
        np.testing.assert_allclose(out, base)

    def test_tail_exceeds_uniform_bound(self):
        model = LognormalSpikeNoise(level=0.2, spike_probability=0.3, spike_scale=0.5)
        out = model.apply(VALUES, rng=0)
        assert np.max(out / VALUES - 1.0) > 0.2


class TestTaintedRepetitionNoise:
    def test_apply_matches_apply_with_mask(self):
        model = TaintedRepetitionNoise(level=0.05, p=0.2)
        out = model.apply(VALUES, rng=7)
        masked_out, mask = model.apply_with_mask(VALUES, rng=7)
        np.testing.assert_array_equal(out, masked_out)
        assert mask.dtype == bool and mask.shape == VALUES.shape

    def test_taint_fraction_tracks_p(self):
        _, mask = TaintedRepetitionNoise(level=0.05, p=0.3).apply_with_mask(VALUES, rng=0)
        assert np.mean(mask) == pytest.approx(0.3, abs=0.05)

    def test_untainted_elements_carry_only_base_noise(self):
        model = TaintedRepetitionNoise(level=0.10, p=0.2)
        out, mask = model.apply_with_mask(VALUES, rng=1)
        dev = np.abs(out / VALUES - 1.0)
        assert np.max(dev[~mask]) <= 0.05 + 1e-12

    def test_slowdown_only_outliers_exceed_truth(self):
        model = TaintedRepetitionNoise(level=0.0, p=1.0, outlier_location=1.0)
        out = model.apply(VALUES, rng=0)
        assert np.all(out >= VALUES)  # exp(|draw|) >= 1
        assert np.median(out / VALUES) > 2.0  # centred one e-fold up

    def test_two_sided_taint_can_speed_up(self):
        model = TaintedRepetitionNoise(
            level=0.0, p=1.0, outlier_location=0.0, outlier_scale=1.0, slowdown_only=False
        )
        out = model.apply(VALUES, rng=0)
        assert np.any(out < VALUES) and np.any(out > VALUES)

    def test_zero_probability_no_taint(self):
        _, mask = TaintedRepetitionNoise(level=0.1, p=0.0).apply_with_mask(VALUES, rng=3)
        assert not mask.any()

    def test_nominal_level_is_base_level(self):
        assert TaintedRepetitionNoise(level=0.07, p=0.5).nominal_level() == 0.07

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            TaintedRepetitionNoise(level=0.1, p=1.5)

    def test_input_not_modified(self):
        values = np.full(5, 3.0)
        TaintedRepetitionNoise(level=0.1, p=1.0).apply(values, rng=0)
        np.testing.assert_array_equal(values, 3.0)


class TestHeteroscedasticNoise:
    def test_value_mode_scales_with_magnitude(self):
        model = HeteroscedasticNoise(lo=0.01, hi=0.5, mode="value", pivot=100.0)
        gen = np.random.default_rng(0)
        small = np.ptp(model.apply(np.full(2000, 1.0), gen) / 1.0)
        large = np.ptp(model.apply(np.full(2000, 1e5), gen) / 1e5)
        assert small < 0.02  # ~lo for values far below the pivot
        assert large > 0.3  # saturates towards hi above it

    def test_index_mode_ramps_over_elements(self):
        model = HeteroscedasticNoise(lo=0.0, hi=1.0, mode="index")
        out = model.apply(VALUES, rng=0)
        dev = np.abs(out / VALUES - 1.0)
        # The first element has level lo=0, the last up to hi/2 deviation.
        assert dev[0] == 0.0
        assert np.max(dev[-100:]) > np.max(dev[:100])

    def test_no_extra_rng_draws_for_levels(self):
        """The per-element level is deterministic: the model consumes exactly
        one uniform draw per element, like plain UniformNoise."""
        model = HeteroscedasticNoise(lo=0.2, hi=0.2, mode="value")
        out = model.apply(VALUES, rng=9)
        base = UniformNoise(0.2).apply(VALUES, rng=9)
        np.testing.assert_allclose(out, base)

    def test_single_element_index_mode(self):
        out = HeteroscedasticNoise(lo=0.0, hi=1.0, mode="index").apply(
            np.array([10.0]), rng=0
        )
        assert out.shape == (1,)
        np.testing.assert_array_equal(out, 10.0)  # zero-level ramp start

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            HeteroscedasticNoise(lo=0.5, hi=0.1)
        with pytest.raises(ValueError, match="mode"):
            HeteroscedasticNoise(lo=0.1, hi=0.5, mode="chaotic")
        with pytest.raises(ValueError, match="pivot"):
            HeteroscedasticNoise(lo=0.1, hi=0.5, pivot=0.0)

    def test_nominal_is_midpoint(self):
        assert HeteroscedasticNoise(lo=0.2, hi=0.4).nominal_level() == pytest.approx(0.3)


class TestDriftNoise:
    def test_zero_drift_equals_base(self):
        out = DriftNoise(level=0.2, drift=0.0).apply(VALUES, rng=4)
        base = UniformNoise(0.2).apply(VALUES, rng=4)
        np.testing.assert_allclose(out, base)

    def test_ramp_is_linear_in_index(self):
        """With no base noise the output is exactly ``1 + slope * ramp``."""
        out = DriftNoise(level=0.0, drift=0.5).apply(VALUES, rng=0)
        factors = out / VALUES
        steps = np.diff(factors)
        np.testing.assert_allclose(steps, steps[0])
        assert np.mean(factors) == pytest.approx(1.0)  # ramp centred on the call

    def test_single_repetition_unchanged(self):
        out = DriftNoise(level=0.0, drift=0.5).apply(np.array([10.0]), rng=0)
        np.testing.assert_array_equal(out, 10.0)

    def test_deterministic_with_seed(self):
        a = DriftNoise(level=0.1, drift=0.3).apply(VALUES, rng=6)
        b = DriftNoise(level=0.1, drift=0.3).apply(VALUES, rng=6)
        np.testing.assert_array_equal(a, b)

    def test_nominal_level_is_base_level(self):
        assert DriftNoise(level=0.15, drift=0.3).nominal_level() == 0.15

    def test_invalid_drift_rejected(self):
        with pytest.raises(ValueError):
            DriftNoise(level=0.1, drift=-0.2)


class TestApplyRows:
    """``apply_rows``: one independent ``apply`` per leading row."""

    BLOCK = np.broadcast_to(np.arange(1.0, 6.0)[:, None], (400, 5, 3)).copy()

    def test_uniform_override_is_the_row_loop(self):
        """Elementwise draws: the vectorized call consumes the stream exactly
        as the per-row loop does."""
        model = UniformNoise(0.4)
        gen_a, gen_b = np.random.default_rng(1), np.random.default_rng(1)
        looped = np.stack([model.apply(row, gen_b) for row in self.BLOCK])
        np.testing.assert_array_equal(model.apply_rows(self.BLOCK, gen_a), looped)

    def test_no_noise_copies(self):
        out = NoNoise().apply_rows(self.BLOCK, 0)
        np.testing.assert_array_equal(out, self.BLOCK)
        assert out is not self.BLOCK

    def test_level_range_draws_one_level_per_row(self):
        model = UniformLevelRangeNoise(0.1, 0.9)
        rel = model.apply_rows(self.BLOCK, 2) / self.BLOCK - 1.0
        half_width = np.abs(rel).reshape(len(self.BLOCK), -1).max(axis=1)
        # Every row stays inside its own level, and levels vary across rows.
        assert np.all(half_width <= 0.45 + 1e-12)
        assert half_width.min() < 0.15 and half_width.max() > 0.35

    def test_level_range_matches_per_call_distribution(self):
        model = UniformLevelRangeNoise(0.0, 1.0)
        block = np.ones((4000, 5, 1))
        gen = np.random.default_rng(3)
        looped = np.stack([model.apply(row, gen) for row in block])
        batched = model.apply_rows(block, 4)
        for stat in (np.mean, np.std):
            assert stat(batched) == pytest.approx(stat(looped), abs=0.01)
        # Row-wise spread: the level is shared within a row in both forms.
        assert np.std(np.ptp(batched, axis=1)) == pytest.approx(
            np.std(np.ptp(looped, axis=1)), abs=0.02
        )

    @pytest.mark.parametrize(
        "model",
        [
            DriftNoise(0.1, drift=0.5),
            GammaLevelNoise(2.0, 0.1),
            LognormalSpikeNoise(0.1),
            TaintedRepetitionNoise(0.1, p=0.3),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_default_is_per_call(self, model):
        """Models without an override get exactly one ``apply`` per row."""
        gen_a, gen_b = np.random.default_rng(5), np.random.default_rng(5)
        looped = np.stack([model.apply(row, gen_b) for row in self.BLOCK])
        np.testing.assert_array_equal(model.apply_rows(self.BLOCK, gen_a), looped)
