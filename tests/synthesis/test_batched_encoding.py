"""The batched encoder is bit-identical to ``encode_line`` row by row."""

import numpy as np
import pytest

from repro.preprocessing.encoding import encode_line, encode_lines
from repro.synthesis.sequences import SequenceKind, random_sequence, random_sequences


def row_by_row(xs, values):
    return np.stack([encode_line(x, v) for x, v in zip(xs, values)])


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("points", [5, 7, 11])
class TestEncodeLinesMatchesEncodeLine:
    def test_random_layouts(self, points):
        gen = np.random.default_rng(points)
        xs = random_sequences(points, 400, rng=gen)
        values = gen.uniform(-5.0, 50.0, size=xs.shape)
        assert_bit_identical(encode_lines(xs, values), row_by_row(xs, values))

    def test_one_shared_layout(self, points):
        gen = np.random.default_rng(100 + points)
        layout = random_sequence(points, SequenceKind.EXPONENTIAL, gen)
        xs = np.tile(layout, (300, 1))
        values = gen.uniform(0.001, 1000.0, size=xs.shape)
        assert_bit_identical(encode_lines(xs, values), row_by_row(xs, values))

    def test_tied_slot_distances(self, points):
        """Integer grids put many positions midway between two slots; ties
        must break exactly as in the single-line matcher."""
        gen = np.random.default_rng(200 + points)
        grid = np.sort(gen.choice(np.arange(1, 129), size=(2000, points)), axis=1)
        xs = grid[np.all(np.diff(grid, axis=1) > 0, axis=1)].astype(float)
        values = gen.uniform(-1.0, 1.0, size=xs.shape)
        assert_bit_identical(encode_lines(xs, values), row_by_row(xs, values))

    def test_unsorted_rows(self, points):
        gen = np.random.default_rng(300 + points)
        xs = random_sequences(points, 200, rng=gen)
        values = gen.uniform(1.0, 2.0, size=xs.shape)
        order = np.argsort(gen.random(xs.shape), axis=1)
        xs, values = np.take_along_axis(xs, order, 1), np.take_along_axis(values, order, 1)
        assert_bit_identical(encode_lines(xs, values), row_by_row(xs, values))

    def test_all_zero_rows(self, points):
        gen = np.random.default_rng(400 + points)
        xs = random_sequences(points, 50, rng=gen)
        values = gen.uniform(1.0, 2.0, size=xs.shape)
        values[::3] = 0.0
        out = encode_lines(xs, values)
        assert_bit_identical(out, row_by_row(xs, values))
        assert not out[::3].any()


class TestEncodeLinesThinning:
    def test_oversized_rows_match(self):
        gen = np.random.default_rng(7)
        xs = random_sequences(16, 100, rng=gen)
        values = gen.uniform(1.0, 2.0, size=xs.shape)
        assert_bit_identical(encode_lines(xs, values), row_by_row(xs, values))


class TestEncodeLinesValidation:
    def test_rejections(self):
        good = np.tile([4.0, 8.0, 16.0, 32.0, 64.0], (3, 1))
        with pytest.raises(ValueError):
            encode_lines(good[:, :4], good[:, :4])  # too few points
        with pytest.raises(ValueError):
            encode_lines(good, good[:2])  # shape mismatch
        with pytest.raises(ValueError):
            encode_lines(good[0], good[0])  # not 2-d
        with pytest.raises(ValueError):
            encode_lines(good * np.array([1, 1, 1, 1, -1.0]), good)  # non-positive
        dup = good.copy()
        dup[1, 1] = dup[1, 0]
        with pytest.raises(ValueError):
            encode_lines(dup, good)
