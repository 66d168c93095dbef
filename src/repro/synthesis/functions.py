"""Random PMNF ground-truth functions (paper Secs. IV-D and V)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pmnf.function import MultiTerm, PerformanceFunction
from repro.pmnf.searchspace import EXPONENT_PAIRS, NUM_CLASSES, pair_for_class
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.util.seeding import as_generator

#: The paper samples coefficients uniformly from this interval.
COEFFICIENT_RANGE: tuple[float, float] = (0.001, 1000.0)


def check_coefficient_range(coefficient_range: tuple[float, float]) -> None:
    """Raise :class:`ValueError` unless ``0 < lo <= hi``."""
    lo, hi = coefficient_range
    if not (0 < lo <= hi):
        raise ValueError(f"invalid coefficient range {coefficient_range!r}")


def random_coefficient(
    rng: "np.random.Generator | int | None" = None,
    coefficient_range: tuple[float, float] = COEFFICIENT_RANGE,
) -> float:
    """Draw one coefficient ``c_k ~ U[0.001, 1000]``."""
    gen = as_generator(rng)
    check_coefficient_range(coefficient_range)
    lo, hi = coefficient_range
    return float(gen.uniform(lo, hi))


def random_exponent_pair(
    rng: "np.random.Generator | int | None" = None,
    exclude_constant: bool = False,
) -> ExponentPair:
    """Draw a uniformly random ``(i, j)`` pair from the 43-element set ``E``."""
    gen = as_generator(rng)
    while True:
        pair = pair_for_class(int(gen.integers(NUM_CLASSES)))
        if not (exclude_constant and pair.is_constant):
            return pair


def random_single_parameter_function(
    rng: "np.random.Generator | int | None" = None,
    coefficient_range: tuple[float, float] = COEFFICIENT_RANGE,
    exclude_constant: bool = False,
) -> PerformanceFunction:
    """Instantiate ``f(x) = c0 + c1 * x^i * log2^j(x)`` with random draws."""
    gen = as_generator(rng)
    pair = random_exponent_pair(gen, exclude_constant=exclude_constant)
    c0 = random_coefficient(gen, coefficient_range)
    if pair.is_constant:
        return PerformanceFunction.constant_function(c0, n_params=1)
    c1 = random_coefficient(gen, coefficient_range)
    return PerformanceFunction.single_term(c0, c1, [pair])


def random_multi_parameter_function(
    n_params: int,
    rng: "np.random.Generator | int | None" = None,
    coefficient_range: tuple[float, float] = COEFFICIENT_RANGE,
    multiplicative_probability: float = 0.5,
) -> PerformanceFunction:
    """Instantiate a multi-parameter PMNF ground truth.

    One exponent pair is drawn per parameter; the pairs are combined either
    multiplicatively (one term, product over parameters) or additively (one
    term per parameter), matching the two interaction structures Extra-P
    distinguishes. Parameters whose pair is ``(0, 0)`` simply drop out.
    """
    if n_params < 1:
        raise ValueError("n_params must be positive")
    gen = as_generator(rng)
    pairs = [random_exponent_pair(gen) for _ in range(n_params)]
    c0 = random_coefficient(gen, coefficient_range)
    active = {l: p for l, p in enumerate(pairs) if not p.is_constant}
    if not active:
        return PerformanceFunction.constant_function(c0, n_params)
    if gen.random() < multiplicative_probability:
        factors = {l: CompoundTerm.from_pair(p) for l, p in active.items()}
        terms: Sequence[MultiTerm] = (MultiTerm(random_coefficient(gen, coefficient_range), factors),)
    else:
        terms = [
            MultiTerm(random_coefficient(gen, coefficient_range), {l: CompoundTerm.from_pair(p)})
            for l, p in active.items()
        ]
    return PerformanceFunction(c0, terms, n_params)


def all_single_parameter_structures() -> list[PerformanceFunction]:
    """One canonical unit-coefficient function per class (used by tests)."""
    out = []
    for pair in EXPONENT_PAIRS:
        if pair.is_constant:
            out.append(PerformanceFunction.constant_function(1.0, 1))
        else:
            out.append(PerformanceFunction.single_term(1.0, 1.0, [pair]))
    return out
