"""The 11-slot input encoding of measurement lines."""

from __future__ import annotations

import numpy as np

from repro.experiment.lines import ParameterLine

#: Fixed normalized sampling positions; one network input neuron each.
#: Chosen so that power-of-two parameter sequences (the common case in HPC
#: scaling studies) land exactly on slots.
SAMPLE_POSITIONS: np.ndarray = np.asarray(
    [1 / 64, 1 / 32, 1 / 16, 1 / 8, 2 / 8, 3 / 8, 4 / 8, 5 / 8, 6 / 8, 7 / 8, 1.0]
)

#: Extra-P requires at least five values per parameter ...
MIN_POINTS: int = 5
#: ... and the paper caps the network input at eleven.
MAX_POINTS: int = 11

#: Width of the network input layer.
INPUT_SIZE: int = len(SAMPLE_POSITIONS)


def normalize_positions(xs: np.ndarray) -> np.ndarray:
    """Normalize parameter values to ``(0, 1]`` by dividing by the maximum.

    This makes the position information independent of the range and scale
    of the measurement sequence (Sec. IV-C).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("empty position array")
    if np.any(xs <= 0):
        raise ValueError("parameter values must be positive")
    return xs / np.max(xs)


def assign_slots(positions: np.ndarray) -> np.ndarray:
    """Match normalized positions to sampling slots, one measurement per slot.

    A greedy nearest-neighbour matching: all (measurement, slot) pairs are
    considered in order of increasing distance; a pair is accepted when both
    its measurement and its slot are still free. Because there are at least
    as many slots as measurements, every measurement receives a slot.

    Returns an integer array mapping measurement index -> slot index.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.size
    if n > INPUT_SIZE:
        raise ValueError(f"at most {INPUT_SIZE} measurements can be encoded, got {n}")
    dist = np.abs(positions[:, None] - SAMPLE_POSITIONS[None, :])
    order = np.dstack(np.unravel_index(np.argsort(dist, axis=None), dist.shape))[0]
    slot_of = np.full(n, -1, dtype=int)
    slot_used = np.zeros(INPUT_SIZE, dtype=bool)
    assigned = 0
    for meas, slot in order:
        if slot_of[meas] == -1 and not slot_used[slot]:
            slot_of[meas] = slot
            slot_used[slot] = True
            assigned += 1
            if assigned == n:
                break
    return slot_of


def _assign_slots_rows(positions: np.ndarray) -> np.ndarray:
    """:func:`assign_slots` for every row of a ``(rows, points)`` array.

    The same greedy matching, stepping through each row's own distance
    order in lockstep across rows; the per-row argsort is the 1-d one, so
    ties break exactly as in :func:`assign_slots`.
    """
    rows, points = positions.shape
    dist = np.abs(positions[:, :, None] - SAMPLE_POSITIONS[None, None, :])
    meas, slot = np.divmod(np.argsort(dist.reshape(rows, -1), axis=1), INPUT_SIZE)
    slot_of = np.full((rows, points), -1, dtype=int)
    slot_used = np.zeros((rows, INPUT_SIZE), dtype=bool)
    index = np.arange(rows)
    for step in range(points * INPUT_SIZE):
        m, s = meas[:, step], slot[:, step]
        free = (slot_of[index, m] == -1) & ~slot_used[index, s]
        slot_of[index[free], m[free]] = s[free]
        slot_used[index[free], s[free]] = True
    return slot_of


def thin_indices(size: int) -> np.ndarray:
    """Indices that thin a sorted line of ``size`` points to at most MAX_POINTS.

    Oversized lines keep both endpoints and evenly spaced points between
    them; lines that fit are kept whole. Both the encoder and the
    domain-adaptation task use this, so retraining sees the layout the
    classifier sees.
    """
    if size <= MAX_POINTS:
        return np.arange(size)
    return np.unique(np.round(np.linspace(0, size - 1, MAX_POINTS)).astype(int))


def encode_line(xs: np.ndarray, values: np.ndarray, enrich: bool = True) -> np.ndarray:
    """Encode one measurement line into the 11-slot network input vector.

    ``xs`` are the varying parameter's values, ``values`` the (median)
    measurements. Steps: optional enrichment ``v / x`` (implicit position
    information), position normalization, nearest-neighbour slot assignment,
    zero masking of free slots, and max-abs value scaling so the network sees
    the *shape* of the measurements rather than their magnitude (coefficients
    span six decades in the search space).
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 1:
        raise ValueError("xs and values must be 1-d arrays of equal length")
    if xs.size < MIN_POINTS:
        raise ValueError(f"at least {MIN_POINTS} measurement points are required, got {xs.size}")
    order = np.argsort(xs)
    xs, values = xs[order], values[order]
    if np.any(np.diff(xs) == 0):
        raise ValueError("duplicate parameter values in measurement line")
    if xs.size > MAX_POINTS:
        keep = thin_indices(xs.size)
        xs, values = xs[keep], values[keep]

    enriched = values / xs if enrich else values.copy()
    scale = np.max(np.abs(enriched))
    if scale > 0:
        enriched = enriched / scale

    slots = assign_slots(normalize_positions(xs))
    vector = np.zeros(INPUT_SIZE, dtype=float)
    vector[slots] = enriched
    return vector


def encode_lines(xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Encode many equal-length lines at once: row ``r`` is ``encode_line(xs[r], values[r])``.

    ``xs`` and ``values`` are ``(rows, points)`` arrays. Slots are assigned
    once per distinct normalized layout, not once per row, and every
    arithmetic step is the row-wise one, so the result is bit-identical to
    encoding row by row.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 2:
        raise ValueError("xs and values must be 2-d arrays of equal shape")
    rows, points = xs.shape
    if points < MIN_POINTS:
        raise ValueError(f"at least {MIN_POINTS} measurement points are required, got {points}")
    if np.any(xs <= 0):
        raise ValueError("parameter values must be positive")
    order = np.argsort(xs, axis=1)
    xs = np.take_along_axis(xs, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    if np.any(np.diff(xs, axis=1) == 0):
        raise ValueError("duplicate parameter values in measurement line")
    keep = thin_indices(points)
    xs, values = xs[:, keep], values[:, keep]

    enriched = values / xs
    scale = np.max(np.abs(enriched), axis=1, keepdims=True)
    enriched = np.divide(enriched, scale, out=enriched, where=scale > 0)

    positions = np.ascontiguousarray(xs / xs[:, -1:])
    # Deduplicate rows by their bytes (a void view sorts far faster than
    # ``np.unique(axis=0)``); positions are positive, so bytes equal values.
    row_bytes = positions.view(np.dtype((np.void, positions.itemsize * positions.shape[1])))
    _, first, layout_of = np.unique(row_bytes.ravel(), return_index=True, return_inverse=True)
    slots = _assign_slots_rows(positions[first])[layout_of]
    vectors = np.zeros((rows, INPUT_SIZE), dtype=float)
    np.put_along_axis(vectors, slots, enriched, axis=1)
    return vectors


def encode_parameter_line(
    line: ParameterLine, enrich: bool = True, aggregation: str = "median"
) -> np.ndarray:
    """Encode a :class:`~repro.experiment.lines.ParameterLine`.

    ``aggregation`` picks the representative value of the repetitions; the
    paper encodes the median.
    """
    return encode_line(line.xs, line.values(aggregation), enrich=enrich)
