"""Vectorized evaluation of multi-parameter combination hypotheses.

The reference implementation (:mod:`repro.regression.selection`) loops over
the additive/multiplicative combination hypotheses one at a time, each
paying a small SVD plus Python dispatch. For the DNN modeler that loop is
the multi-parameter hot path: with top-k candidates per parameter the
product of per-parameter choices yields up to ``k^m * Bell(m)`` hypotheses
per kernel (~136 for k = 3, m = 3). This module evaluates all hypotheses
with the same coefficient count at once: one stacked ``(h, n, c)`` design
tensor, one batched SVD, vectorized leave-one-out predictions and SMAPE
scores (the kernel of :mod:`repro.regression.batched`, shared with the
single-parameter search). Design columns multiply rows of each parameter
column's cached term basis (:func:`repro.pmnf.basis.term_basis`) and are
cached per term group, so hypotheses sharing a partition block (most of
them) never recompute it.

The winner is then refit -- and its LOO score recomputed -- through the
reference path, so the returned :class:`ScoredModel` is bit-identical to
what the per-hypothesis loop produces; the equivalence is pinned across
random multi-parameter tasks by ``tests/regression/test_fast_multi.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pmnf.basis import basis_row, term_basis
from repro.regression.batched import factorize, loo_scores
from repro.regression.hypothesis import Hypothesis, fit_hypothesis
from repro.regression.selection import ScoredModel, loo_predictions
from repro.regression.smape import smape

#: One scored candidate: (implausible, cv_smape, complexity, order, hypothesis).
#: ``min`` over the first four fields replicates the reference selection.
Candidate = "tuple[bool, float, tuple, int, Hypothesis]"


class FastMultiParameterSearch:
    """Batched evaluation and selection over explicit hypothesis lists.

    Stateless -- one instance can be shared by every modeler.
    :meth:`select` replicates the reference ordering exactly:
    hypotheses with more coefficients than ``n - 1`` points are skipped,
    non-finite LOO scores are skipped, physically plausible fits (all
    surviving term coefficients non-negative, after the reference's
    negligible-term pruning) are preferred as a class, and ties break by the
    structural complexity key, then by hypothesis order.
    """

    def score(
        self,
        hypotheses: Sequence[Hypothesis],
        points: np.ndarray,
        values: np.ndarray,
    ) -> "list[Candidate]":
        """Batch-fit and LOO-score every applicable hypothesis.

        The fit stage of the pipeline. Mirrors the reference
        ``evaluate_hypotheses``: hypotheses with more coefficients than
        ``n - 1`` points or with non-finite LOO predictions are skipped
        (possibly leaving an empty list).
        """
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 2 or values.ndim != 1 or points.shape[0] != values.shape[0]:
            raise ValueError("points must be (n, m) with one value per row")
        n = values.shape[0]
        applicable = [
            (idx, hyp)
            for idx, hyp in enumerate(hypotheses)
            if hyp.n_coefficients <= n - 1
        ]
        if not applicable:
            return []

        # Stack hypotheses by coefficient count; cache the design column of
        # each term group (partition blocks recur across combinations).
        by_count: dict[int, list[tuple[int, Hypothesis]]] = {}
        for idx, hyp in applicable:
            by_count.setdefault(hyp.n_coefficients, []).append((idx, hyp))
        column_cache: dict[tuple, np.ndarray] = {}
        bases: dict[int, np.ndarray] = {}
        ones = np.ones(n)

        def factor(l: int, term) -> np.ndarray:
            row = basis_row(term.exponents)
            if row is None:  # a pair outside E: no basis row to read
                return term.evaluate(points[:, l])
            if l not in bases:
                bases[l] = term_basis(points[:, l])
            return bases[l][row]

        def group_column(group) -> np.ndarray:
            key = tuple((l, term.exponents) for l, term in group.items())
            col = column_cache.get(key)
            if col is None:
                col = ones
                for l, term in group.items():
                    col = col * factor(l, term)
                column_cache[key] = col
            return col

        # Candidate tuples: (implausible, cv, complexity, order) per the
        # reference select_best ordering; min() over them replicates the
        # plausible-pool preference exactly.
        candidates: "list[Candidate]" = []
        for c, bucket in by_count.items():
            designs = np.empty((len(bucket), n, c))
            designs[:, :, 0] = 1.0
            for k, (_, hyp) in enumerate(bucket):
                for j, group in enumerate(hyp.groups):
                    designs[k, :, j + 1] = group_column(group)
            factors = factorize(designs)
            cv, beta, pred = loo_scores(factors, values)
            # Reference pruning: a term whose contribution is numerically
            # negligible is dropped before the plausibility check, so an
            # epsilon-negative coefficient still counts as plausible.
            col_max = factors.col_max  # (h, c)
            scale = np.max(np.abs(pred), axis=1)  # (h,)
            scale[scale == 0] = 1.0
            surviving = np.abs(beta) * col_max > 1e-9 * scale[:, None]
            surviving[:, 0] = False  # the intercept is never a term
            plausible = np.all((beta >= 0.0) | ~surviving, axis=1)
            for k, (idx, hyp) in enumerate(bucket):
                if not np.isfinite(cv[k]):
                    continue
                candidates.append(
                    (not bool(plausible[k]), float(cv[k]), hyp.complexity_key(), idx, hyp)
                )
        return candidates

    def choose(
        self,
        candidates: "Sequence[Candidate]",
        points: np.ndarray,
        values: np.ndarray,
    ) -> ScoredModel:
        """Pick the winner among scored candidates and refit it exactly.

        The select stage of the pipeline. The winner is refit -- and its LOO
        score recomputed -- through the reference solver, so the returned
        model is bit-identical to the per-hypothesis loop's output.
        """
        if not candidates:
            raise ValueError("no valid hypotheses to select from")
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        _, _, _, _, winner = min(candidates, key=lambda cand: cand[:4])
        fitted = fit_hypothesis(winner, points, values)
        loo = loo_predictions(winner.design_matrix(points), values)
        return ScoredModel(fitted=fitted, cv_smape=smape(values, loo))

    def select(
        self,
        hypotheses: Sequence[Hypothesis],
        points: np.ndarray,
        values: np.ndarray,
    ) -> ScoredModel:
        """Fit, score, and select the CV/SMAPE winner over ``hypotheses``."""
        return self.choose(self.score(hypotheses, points, values), points, values)
