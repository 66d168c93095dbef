import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesis.sequences import (
    SequenceKind,
    continue_sequence,
    random_sequence,
    random_sequences,
)


class TestRandomSequence:
    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_strictly_increasing_and_positive(self, kind):
        for seed in range(10):
            xs = random_sequence(5, kind, seed)
            assert np.all(np.diff(xs) > 0)
            assert np.all(xs >= 2)

    def test_length_respected(self):
        for n in (2, 5, 11):
            assert random_sequence(n, SequenceKind.LINEAR, 0).size == n

    def test_small_exponential_doubles(self):
        xs = random_sequence(5, SequenceKind.SMALL_EXPONENTIAL, 1)
        np.testing.assert_allclose(xs[1:] / xs[:-1], 2.0)

    def test_exponential_large_factor(self):
        xs = random_sequence(5, SequenceKind.EXPONENTIAL, 1)
        factor = xs[1] / xs[0]
        assert factor in (4.0, 8.0)

    def test_linear_constant_stride(self):
        xs = random_sequence(6, SequenceKind.LINEAR, 2)
        np.testing.assert_allclose(np.diff(xs), np.diff(xs)[0])

    def test_random_kind_deterministic(self):
        np.testing.assert_array_equal(random_sequence(5, None, 9), random_sequence(5, None, 9))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(1)


class TestContinueSequence:
    def test_geometric_continuation(self):
        out = continue_sequence(np.array([4.0, 8.0, 16.0, 32.0, 64.0]), 4)
        np.testing.assert_allclose(out, [128.0, 256.0, 512.0, 1024.0])

    def test_arithmetic_continuation(self):
        out = continue_sequence(np.array([10.0, 20.0, 30.0]), 2)
        np.testing.assert_allclose(out, [40.0, 50.0])

    def test_irregular_uses_mean_spacing(self):
        xs = np.array([2.0, 5.0, 11.0])  # spacings 3, 6 -> mean 4.5
        out = continue_sequence(xs, 2)
        np.testing.assert_allclose(out, [15.5, 20.0])

    def test_kripke_sequence(self):
        out = continue_sequence(np.array([8.0, 64.0, 512.0, 4096.0, 32768.0]), 1)
        np.testing.assert_allclose(out, [262144.0])

    def test_errors(self):
        with pytest.raises(ValueError):
            continue_sequence(np.array([1.0]), 2)
        with pytest.raises(ValueError):
            continue_sequence(np.array([1.0, 2.0]), 0)

    @given(
        kind=st.sampled_from(list(SequenceKind)),
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_continuation_extends_beyond_range(self, kind, seed, count):
        """Evaluation points P+ always lie strictly beyond the modeled range."""
        xs = random_sequence(5, kind, seed)
        out = continue_sequence(xs, count)
        assert out.size == count
        assert out[0] > xs[-1]
        assert np.all(np.diff(np.concatenate([[xs[-1]], out])) > 0)


class TestRandomSequences:
    def test_shape_and_validity(self):
        xs = random_sequences(7, 500, rng=0)
        assert xs.shape == (500, 7)
        assert np.all(np.diff(xs, axis=1) > 0)
        assert np.all(xs >= 2)

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_single_kind_rows_have_that_shape(self, kind):
        """Each row of a one-kind block is a sequence that kind can produce."""
        xs = random_sequences(6, 200, kinds=(kind,), rng=1)
        assert np.all(np.diff(xs, axis=1) > 0)
        ratios = xs[:, 1:] / xs[:, :-1]
        strides = np.diff(xs, axis=1)
        if kind is SequenceKind.SMALL_EXPONENTIAL:
            np.testing.assert_allclose(ratios, 2.0)
            assert set(np.unique(xs[:, 0])) <= {2.0, 4.0, 8.0, 16.0}
        elif kind is SequenceKind.EXPONENTIAL:
            assert set(np.unique(ratios)) == {4.0, 8.0}
        elif kind is SequenceKind.LINEAR:
            assert np.all(strides == strides[:, :1])
            assert xs[:, 0].min() >= 20 and xs[:, 0].max() < 200
        elif kind is SequenceKind.SMALL_LINEAR:
            assert np.all(strides == strides[:, :1])
            assert xs[:, 0].max() < 20
        else:
            assert np.all(xs == np.round(xs))

    def test_kinds_drawn_uniformly(self):
        kinds = (SequenceKind.SMALL_EXPONENTIAL, SequenceKind.LINEAR)
        xs = random_sequences(5, 5000, kinds=kinds, rng=2)
        doubling = np.all(xs[:, 1:] == 2 * xs[:, :-1], axis=1)
        assert 0.47 < doubling.mean() < 0.53

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_sequences(5, 50, rng=3), random_sequences(5, 50, rng=3)
        )

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            random_sequences(1, 5, rng=0)

    def test_single_sequence_stream_pinned(self):
        """``random_sequence`` keeps its stream (synthetic sweeps draw their
        layouts from it); these values predate the block generator."""
        pinned = {
            SequenceKind.LINEAR: [95, 183, 271, 359, 447, 535],
            SequenceKind.SMALL_LINEAR: [9, 17, 25, 33, 41, 49],
            SequenceKind.SMALL_EXPONENTIAL: [4, 8, 16, 32, 64, 128],
            SequenceKind.EXPONENTIAL: [4, 32, 256, 2048, 16384, 131072],
            SequenceKind.UNIFORM: [484, 570, 618, 681, 723, 725],
        }
        for kind, values in pinned.items():
            np.testing.assert_array_equal(random_sequence(6, kind, 9), values)
        gen = np.random.default_rng(123)
        drawn = [random_sequence(5, None, gen).tolist() for _ in range(3)]
        assert drawn == [
            [142, 205, 268, 331, 394],
            [183, 212, 241, 270, 299],
            [5, 9, 13, 17, 21],
        ]
