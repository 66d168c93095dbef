"""Batched leave-one-out scoring of stacked designs, split at the values.

Both fast paths score a stack of hypotheses -- designs of shape
``(h, n, c)`` -- by exact LOO CV with SMAPE, replicating the reference
:func:`repro.regression.selection.loo_predictions` (column scaling, SVD
rank truncation, hat-matrix leverages) batched over ``h``. Everything up
to the leverages depends only on the designs, i.e. on the measurement
x-values: :func:`factorize` computes that part once, so a caller can keep
it per layout, and :func:`loo_scores` finishes it for one value vector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Factorization(NamedTuple):
    """The value-free part of the LOO scoring of ``h`` stacked designs."""

    #: (h, c) max-abs of each raw design column.
    col_max: np.ndarray
    #: (h, c) column scales: ``col_max`` with zeros replaced by one.
    scales: np.ndarray
    #: (h, n, c) column-scaled designs.
    scaled: np.ndarray
    #: SVD of ``scaled``: (h, n, k) left vectors, (h, k) truncated inverse
    #: singular values (zero beyond the rank cut), (h, k, c) right vectors.
    u: np.ndarray
    inv_s: np.ndarray
    vt: np.ndarray
    #: (h, n) ``1 - leverage``, clipped away from zero.
    one_minus_leverage: np.ndarray


def factorize(designs: np.ndarray) -> Factorization:
    """Scale, decompose and take the leverages of ``(h, n, c)`` designs."""
    h, n, c = designs.shape
    col_max = np.max(np.abs(designs), axis=1)
    scales = col_max.copy()
    scales[scales == 0] = 1.0
    scaled = designs / scales[:, None, :]

    u, s, vt = np.linalg.svd(scaled, full_matrices=False)
    cutoff = s[:, :1] * max(n, c) * np.finfo(float).eps
    rank_mask = s > cutoff
    inv_s = np.where(rank_mask, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    leverage = np.einsum("hnk,hk->hn", u * u, rank_mask.astype(float))
    one_minus_leverage = np.clip(1.0 - leverage, 1e-12, None)
    return Factorization(col_max, scales, scaled, u, inv_s, vt, one_minus_leverage)


def loo_scores(
    factors: Factorization, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CV-SMAPE, coefficients and in-sample predictions for ``values``.

    Returns ``(cv, beta, pred)`` of shapes ``(h,)``, ``(h, c)``, ``(h, n)``;
    a hypothesis with non-finite LOO predictions scores ``inf``.
    """
    uty = np.einsum("hnk,n->hk", factors.u, values)
    beta_scaled = np.einsum("hkj,hk->hj", factors.vt, uty * factors.inv_s)
    beta = beta_scaled / factors.scales  # undo column scaling

    pred = np.einsum("hnk,hk->hn", factors.scaled, beta_scaled)
    resid = values[None, :] - pred
    loo = values[None, :] - resid / factors.one_minus_leverage

    finite = np.all(np.isfinite(loo), axis=1)
    denom = np.abs(values)[None, :] + np.abs(loo)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, 2.0 * np.abs(values[None, :] - loo) / denom, 0.0)
    cv = np.where(finite, np.mean(ratio, axis=1) * 100.0, np.inf)
    return cv, beta, pred
