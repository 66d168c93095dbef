"""One evaluated term basis per measurement layout.

The regression search evaluates the same 43 factors ``x^i log2^j x`` of
``E`` on the same x-values again and again: every line search scores all
of them, and the adaptive modeler re-models lines the regression modeler
just modeled. :func:`term_basis` evaluates them once per layout, as a
``(43, n)`` array whose row ``k`` is ``pair_for_class(k)``, and keeps the
most recent layouts in a small thread-safe LRU cache (the service shares
modelers across threads).

The rows are bit-identical to :meth:`CompoundTerm.evaluate`. That is why
each power is taken with a *scalar* exponent, one row at a time: NumPy
special-cases scalar exponents (``x ** 0.5`` runs as ``sqrt``, ``x ** 2``
as ``x * x``), so broadcasting a column of exponents over the layout
rounds differently in the last bit for some layouts.
"""

from __future__ import annotations

import numpy as np

from repro.pmnf.searchspace import EXPONENT_PAIRS, NUM_CLASSES
from repro.pmnf.terms import ExponentPair
from repro.util.cache import LRUCache

#: Layouts kept evaluated. One sweep task touches a few layouts (one line
#: per parameter, one grid column per parameter), so a small cache covers
#: the reuse within a task and keeps the memory flat.
BASIS_CACHE_SIZE = 16

_CACHE = LRUCache(BASIS_CACHE_SIZE)
_ROWS: dict[ExponentPair, int] = {pair: k for k, pair in enumerate(EXPONENT_PAIRS)}
#: Per row: the polynomial exponent as the float ``evaluate`` uses (None
#: for ``i = 0``) and the log exponent.
_RECIPE = tuple((float(p.i) if p.i != 0 else None, p.j) for p in EXPONENT_PAIRS)
_POWERS = sorted({i for i, _ in _RECIPE if i is not None})
_LOG_POWERS = sorted({j for _, j in _RECIPE if j != 0})


def basis_row(pair: ExponentPair) -> "int | None":
    """Row of ``pair`` in the basis, or None for a pair outside ``E``."""
    return _ROWS.get(pair)


def term_basis(xs: np.ndarray) -> np.ndarray:
    """Every pair of ``E`` evaluated on ``xs``: a read-only ``(43, n)`` array.

    Raises the :class:`ValueError` of :meth:`CompoundTerm.evaluate` for
    non-positive x-values.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    key = xs.tobytes()
    basis = _CACHE.get(key)
    if basis is None:
        basis = _evaluate(xs)
        _CACHE[key] = basis
    return basis


def _evaluate(xs: np.ndarray) -> np.ndarray:
    if np.any(xs <= 0):
        raise ValueError("PMNF terms are defined for positive parameter values only")
    powers = {i: np.power(xs, i) for i in _POWERS}
    log2 = np.log2(xs)
    logs = {j: np.power(log2, j) for j in _LOG_POWERS}
    basis = np.empty((NUM_CLASSES, xs.size))
    for k, (i, j) in enumerate(_RECIPE):
        row = powers[i] if i is not None else np.ones_like(xs)
        basis[k] = row * logs[j] if j != 0 else row
    basis.flags.writeable = False
    return basis
