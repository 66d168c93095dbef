import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiment.measurement import Coordinate, Measurement, median_table


class TestCoordinate:
    def test_from_values(self):
        c = Coordinate(8.0, 64.0)
        assert c.dimensions == 2
        assert c[1] == 64.0

    def test_from_sequence(self):
        assert Coordinate([4, 5]) == Coordinate(4.0, 5.0)

    def test_hashable_by_value(self):
        assert len({Coordinate(1, 2), Coordinate(1, 2), Coordinate(1, 3)}) == 2

    def test_sortable(self):
        coords = sorted([Coordinate(2, 1), Coordinate(1, 9), Coordinate(1, 2)])
        assert coords[0] == Coordinate(1, 2)

    def test_replace(self):
        assert Coordinate(1, 2).replace(1, 5) == Coordinate(1, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Coordinate(0.0)
        with pytest.raises(ValueError):
            Coordinate(4.0, -1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Coordinate()

    def test_as_array_roundtrip(self):
        c = Coordinate(3.0, 7.0)
        assert Coordinate(*c.as_array()) == c


class TestMeasurement:
    def test_statistics(self):
        m = Measurement(Coordinate(4.0), [1.0, 2.0, 3.0, 4.0, 100.0])
        assert m.median == 3.0
        assert m.mean == 22.0
        assert m.minimum == 1.0
        assert m.maximum == 100.0
        assert m.repetitions == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Measurement(Coordinate(1.0), [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Measurement(Coordinate(1.0), [1.0, float("inf")])

    def test_relative_deviations_zero_mean(self):
        m = Measurement(Coordinate(2.0), [9.0, 10.0, 11.0])
        dev = m.relative_deviations()
        assert np.mean(dev) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(dev, [-0.1, 0.0, 0.1])

    def test_single_repetition_deviation_is_zero(self):
        m = Measurement(Coordinate(2.0), [5.0])
        np.testing.assert_array_equal(m.relative_deviations(), [0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=8))
    def test_deviations_sum_to_zero(self, values):
        m = Measurement(Coordinate(1.0), values)
        assert float(np.sum(m.relative_deviations())) == pytest.approx(0.0, abs=1e-9)


#: ``Measurement(Coordinate(2.0), [1.0, 3.0])`` pickled (protocol 4) by the
#: code before the median was cached: no ``_median`` slot in the state.
LEGACY_PICKLE = (
    b"\x80\x04\x95\x19\x01\x00\x00\x00\x00\x00\x00\x8c\x1crepro.experiment.measurement"
    b"\x94\x8c\x0bMeasurement\x94\x93\x94)\x81\x94N}\x94(\x8c\ncoordinate\x94h\x00"
    b"\x8c\nCoordinate\x94\x93\x94)\x81\x94N}\x94\x8c\x07_values\x94G@\x00\x00\x00"
    b"\x00\x00\x00\x00\x85\x94s\x86\x94b\x8c\x06values\x94\x8c\x16numpy._core.multiarray"
    b"\x94\x8c\x0c_reconstruct\x94\x93\x94\x8c\x05numpy\x94\x8c\x07ndarray\x94\x93\x94"
    b"K\x00\x85\x94C\x01b\x94\x87\x94R\x94(K\x01K\x02\x85\x94h\x11\x8c\x05dtype\x94"
    b"\x93\x94\x8c\x02f8\x94\x89\x88\x87\x94R\x94(K\x03\x8c\x01<\x94NNNJ\xff\xff\xff"
    b"\xffJ\xff\xff\xff\xffK\x00t\x94b\x89C\x10\x00\x00\x00\x00\x00\x00\xf0?\x00\x00"
    b"\x00\x00\x00\x00\x08@\x94t\x94bu\x86\x94b."
)


class TestCachedMedian:
    @pytest.mark.parametrize(
        "values", [[3.0, 1.0, 2.0], [4.0, 1.0, 3.0, 2.0], [5.0], [2.5, 2.5, 9.0, 1.0, 7.0]]
    )
    def test_equals_numpy_median(self, values):
        m = Measurement(Coordinate(2.0), values)
        assert m.median == np.median(values)
        assert m.median == np.median(values)  # served from the cache
        assert m.aggregate("median") == np.median(values)

    def test_values_are_read_only(self):
        m = Measurement(Coordinate(2.0), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            m.values[0] = 10.0
        with pytest.raises(ValueError):
            m.values.sort()

    @pytest.mark.parametrize("filled", [False, True])
    def test_pickle_round_trip(self, filled):
        m = Measurement(Coordinate(4.0, 8.0), [3.0, 1.0, 2.0, 8.0])
        if filled:
            assert m.median == 2.5
        back = pickle.loads(pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL))
        assert back.coordinate == m.coordinate
        np.testing.assert_array_equal(back.values, m.values)
        assert not back.values.flags.writeable
        assert back.median == 2.5

    def test_pickle_bytes_do_not_depend_on_the_cache(self):
        cold = Measurement(Coordinate(4.0), [3.0, 1.0, 2.0])
        warm = Measurement(Coordinate(4.0), [3.0, 1.0, 2.0])
        warm.median
        assert pickle.dumps(cold) == pickle.dumps(warm)

    def test_legacy_pickle_loads(self):
        m = pickle.loads(LEGACY_PICKLE)
        assert m.coordinate == Coordinate(2.0)
        np.testing.assert_array_equal(m.values, [1.0, 3.0])
        assert not m.values.flags.writeable
        assert m.median == 2.0
        assert pickle.dumps(m, protocol=4) == LEGACY_PICKLE


class TestMedianTable:
    def test_shapes_and_values(self):
        ms = [
            Measurement(Coordinate(2.0, 10.0), [1.0, 3.0]),
            Measurement(Coordinate(4.0, 10.0), [5.0]),
        ]
        points, medians = median_table(ms)
        assert points.shape == (2, 2)
        np.testing.assert_allclose(medians, [2.0, 5.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_table([])
