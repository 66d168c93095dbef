"""Random parameter-value sequences imitating real application configurations.

The paper trains and evaluates on measurement-point sequences that are
"either linear, small linear, small exponential, or uniformly distributed"
(Sec. IV-D), e.g. ``(10, 20, 30, 40, 50)``, ``(4, 8, 16, 32, 64)``, or
``(8, 64, 512, 4096, 32768)``. Each kind is implemented here, plus the
continuation logic that produces the out-of-range evaluation points ``P+``.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.util.seeding import as_generator


class SequenceKind(enum.Enum):
    """The four sequence families of the paper's synthetic generator."""

    LINEAR = "linear"  # e.g. (100, 200, 300, 400, 500)
    SMALL_LINEAR = "small_linear"  # e.g. (10, 20, 30, 40, 50)
    SMALL_EXPONENTIAL = "small_exponential"  # e.g. (4, 8, 16, 32, 64)
    EXPONENTIAL = "exponential"  # e.g. (8, 64, 512, 4096, 32768)
    UNIFORM = "uniform"  # sorted distinct uniform draws


def random_sequence(
    length: int,
    kind: "SequenceKind | None" = None,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """Generate one parameter-value sequence of ``length`` distinct values.

    With ``kind=None`` a kind is drawn uniformly at random. All values are
    >= 2 so logarithmic terms never vanish on the whole sequence.
    """
    if length < 2:
        raise ValueError("sequences need at least two values")
    gen = as_generator(rng)
    if kind is None:
        kind = gen.choice(list(SequenceKind))
    return _sequence_block(kind, length, 1, gen)[0]


def random_sequences(
    length: int,
    count: int,
    kinds: "tuple[SequenceKind, ...] | None" = None,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """``count`` independent sequences of ``length`` values, as a ``(count, length)`` array.

    Each row draws its kind uniformly from ``kinds`` (default: all kinds)
    and then its start/stride/range exactly as :func:`random_sequence` does
    for that kind, but the draws are vectorized per kind -- so the stream
    differs from ``count`` calls of :func:`random_sequence`, the
    distribution does not.
    """
    if length < 2:
        raise ValueError("sequences need at least two values")
    gen = as_generator(rng)
    kinds = tuple(SequenceKind) if kinds is None else tuple(kinds)
    choice = gen.integers(len(kinds), size=count)
    out = np.empty((count, length))
    for index, kind in enumerate(kinds):
        rows = np.flatnonzero(choice == index)
        if rows.size:
            out[rows] = _sequence_block(kind, length, rows.size, gen)
    return out


def _sequence_block(
    kind: SequenceKind, length: int, count: int, gen: np.random.Generator
) -> np.ndarray:
    """``(count, length)`` sequences of one kind; one draw vector per knob."""
    k = np.arange(length, dtype=float)

    def column(draws) -> np.ndarray:
        return np.asarray(draws, dtype=float)[:, None]

    if kind is SequenceKind.LINEAR:
        start = column(gen.integers(20, 200, size=count))
        stride = column(gen.integers(10, 100, size=count))
        return start + stride * k
    if kind is SequenceKind.SMALL_LINEAR:
        start = column(gen.integers(2, 20, size=count))
        stride = column(gen.integers(1, 10, size=count))
        return start + stride * k
    if kind is SequenceKind.SMALL_EXPONENTIAL:
        start = column(2 ** gen.integers(1, 5, size=count))  # 2..16
        return start * 2.0**k
    if kind is SequenceKind.EXPONENTIAL:
        start = column(2 ** gen.integers(1, 4, size=count))  # 2..8
        factor = column(2 ** gen.integers(2, 4, size=count))  # 4 or 8
        return start * factor**k
    if kind is SequenceKind.UNIFORM:
        lo = column(gen.integers(2, 50, size=count))
        hi = lo * column(gen.uniform(10, 100, size=count))
        out = np.empty((count, length))
        # Redraw only the rows whose rounded draws collide.
        todo = np.arange(count)
        while todo.size:
            values = np.sort(
                np.round(gen.uniform(lo[todo], hi[todo], size=(todo.size, length))), axis=1
            )
            out[todo] = values
            todo = todo[~np.all(np.diff(values, axis=1) > 0, axis=1)]
        return out
    raise ValueError(f"unknown sequence kind {kind!r}")


def _is_geometric(xs: np.ndarray, tol: float = 1e-9) -> bool:
    ratios = xs[1:] / xs[:-1]
    return bool(np.all(np.abs(ratios - ratios[0]) <= tol * ratios[0]))


def _is_arithmetic(xs: np.ndarray, tol: float = 1e-9) -> bool:
    diffs = np.diff(xs)
    return bool(np.all(np.abs(diffs - diffs[0]) <= tol * max(abs(diffs[0]), 1.0)))


def continue_sequence(xs: np.ndarray, count: int) -> np.ndarray:
    """Extrapolate a sequence beyond its last value (for the ``P+`` points).

    Geometric sequences continue by their ratio, arithmetic ones by their
    stride; irregular (uniform) sequences continue by their mean spacing.
    E.g. ``(4, 8, 16, 32, 64)`` continues to ``(128, 256, 512, 1024)``.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    if xs.size < 2:
        raise ValueError("need at least two values to continue a sequence")
    if count < 1:
        raise ValueError("count must be positive")
    k = np.arange(1, count + 1, dtype=float)
    if _is_geometric(xs):
        ratio = xs[-1] / xs[-2]
        return xs[-1] * ratio**k
    if _is_arithmetic(xs):
        stride = xs[-1] - xs[-2]
        return xs[-1] + stride * k
    spacing = float(np.mean(np.diff(xs)))
    return xs[-1] + spacing * k
