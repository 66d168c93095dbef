"""Measurement preprocessing for the DNN modeler (paper Sec. IV-C).

Three problems are solved here:

1. *Varying measurement points* -- values are enriched with implicit position
   information by dividing them by their coordinate (``v / x_l``).
2. *Variable number of points* -- the network input is fixed to 11 slots;
   unused slots are zero-masked (at least 5 points are required).
3. *Unbounded point positions* -- positions are normalized to ``(0, 1]`` and
   assigned to the 11 fixed sampling positions
   ``(1/64, 1/32, 1/16, 1/8, 2/8, ..., 7/8, 1)`` by nearest-neighbour
   matching, each measurement used at most once.
"""

from repro.preprocessing.encoding import (
    SAMPLE_POSITIONS,
    MIN_POINTS,
    MAX_POINTS,
    INPUT_SIZE,
    encode_line,
    encode_lines,
    encode_parameter_line,
    normalize_positions,
    assign_slots,
    thin_indices,
)

__all__ = [
    "SAMPLE_POSITIONS",
    "MIN_POINTS",
    "MAX_POINTS",
    "INPUT_SIZE",
    "encode_line",
    "encode_lines",
    "encode_parameter_line",
    "normalize_positions",
    "assign_slots",
    "thin_indices",
]
