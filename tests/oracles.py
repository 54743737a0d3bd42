"""Reference functions that only tests call: the gate's penalized objective
and the rank AUC. The solver and the CLI compute neither, so they live with
the tests that compare against them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dial.gate import _penalty_weights, bce_sum
from dial.stats import StatsError, _check_finite, average_ranks


def _penalty(w: np.ndarray, lam1: float, lam2: float) -> float:
    """lam1*|w|_1 + 0.5*lam2*|w|^2 (the bias is never penalized)."""
    return lam1 * float(np.abs(w).sum()) + 0.5 * lam2 * float(w @ w)


def objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, c: float, reg: str) -> float:
    return bce_sum(X @ w + b, y) + _penalty(w, *_penalty_weights(c, reg))


def auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based (Mann-Whitney) AUC with average-rank tie correction;
    every label is 0 or 1."""
    labels = np.asarray(labels, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape:
        raise StatsError("labels and scores misaligned")
    _check_finite(labels, scores)
    other = labels[(labels != 0) & (labels != 1)]
    if other.size:
        raise StatsError(f"AUC labels must be 0 or 1, got {other[0]:g}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise StatsError("AUC needs both classes present")
    ranks = average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
