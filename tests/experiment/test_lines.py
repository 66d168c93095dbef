import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.experiment.lines import all_parameter_lines, line_coordinates, parameter_lines
from repro.experiment.measurement import Coordinate, Measurement


def grid_kernel(xs1, xs2) -> Kernel:
    k = Kernel("k")
    for a in xs1:
        for b in xs2:
            k.add(Measurement(Coordinate(a, b), [a + b]))
    return k


def cross_kernel(xs1, x2_fixed, x1_fixed, xs2) -> Kernel:
    """Two crossing lines, as in the FASTEST/RELeARN campaigns."""
    k = Kernel("k")
    for a in xs1:
        k.add(Measurement(Coordinate(a, x2_fixed), [float(a)]))
    for b in xs2:
        if Coordinate(x1_fixed, b) not in k:
            k.add(Measurement(Coordinate(x1_fixed, b), [float(b)]))
    return k


X1 = (4.0, 8.0, 16.0, 32.0, 64.0)
X2 = (10.0, 20.0, 30.0, 40.0, 50.0)


class TestParameterLines:
    def test_single_parameter_line_is_everything(self):
        k = Kernel("k")
        for x in X1:
            k.add(Measurement(Coordinate(x), [x]))
        (line,) = parameter_lines(k, 1)
        assert len(line) == 5
        np.testing.assert_array_equal(line.xs, X1)

    def test_grid_lines_pick_smallest_fixed_values(self):
        k = grid_kernel(X1, X2)
        lines = parameter_lines(k, 2)
        assert lines[0].parameter == 0
        assert lines[0].fixed == (10.0,)  # cheapest x2
        assert lines[1].fixed == (4.0,)  # cheapest x1

    def test_cross_layout_finds_both_lines(self):
        # x1 varies at x2=50 (max!), x2 varies at x1=64: the largest group
        # wins regardless of whether the anchor is the smallest value.
        k = cross_kernel(X1, 50.0, 64.0, X2)
        lines = parameter_lines(k, 2)
        assert lines[0].fixed == (50.0,)
        assert lines[1].fixed == (64.0,)
        np.testing.assert_array_equal(lines[1].xs, X2)

    def test_medians_follow_xs_order(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        (line0, line1) = parameter_lines(k, 2)
        np.testing.assert_array_equal(line0.values("median"), X1)

    def test_too_few_points_raises(self):
        k = grid_kernel(X1[:3], X2)
        with pytest.raises(ValueError, match="parameter 0"):
            parameter_lines(k, 2)

    def test_min_points_override(self):
        k = grid_kernel(X1[:3], X2)
        lines = parameter_lines(k, 2, min_points=3)
        assert len(lines[0]) == 3


class TestAllParameterLines:
    def test_grid_has_one_line_per_fixed_value(self):
        k = grid_kernel(X1, X2)
        lines = all_parameter_lines(k, 2, 0, min_points=5)
        assert len(lines) == len(X2)

    def test_sorted_by_size_then_fixed(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        lines = all_parameter_lines(k, 2, 0, min_points=1)
        assert len(lines[0]) >= len(lines[-1])


class TestLineCoordinates:
    def test_union(self):
        k = cross_kernel(X1, 50.0, 64.0, X2)
        coords = line_coordinates(parameter_lines(k, 2))
        assert len(coords) == 9  # 5 + 5 - shared crossing point
