"""Reference computations the benchmark checks the program against.

Written apart from src/scalereduce and without rank transforms: every
quantity comes from per-class counts over the sorted distinct score
levels (the ordinal-category form of the Mann-Whitney statistic) or from
np.unique over whole rows.
"""

from __future__ import annotations

import math

import numpy as np


def _level_counts(scores, decision):
    """Distinct levels (ascending), per-level positive and negative counts,
    and each row's level index."""
    s = np.asarray(scores, dtype=float)
    d = np.asarray(decision, dtype=bool)
    levels, index = np.unique(s, return_inverse=True)
    pos = np.bincount(index[d], minlength=levels.size).astype(np.int64)
    neg = np.bincount(index[~d], minlength=levels.size).astype(np.int64)
    return levels, pos, neg, index


def auc(scores, decision) -> float:
    """Tie-aware AUC, P(pos > neg) + P(pos == neg) / 2.

    Twice the Mann-Whitney count is an integer, so the one rounding is the
    final division and the value equals any exact evaluation bit for bit.
    """
    _, pos, neg, _ = _level_counts(scores, decision)
    neg_below = np.cumsum(neg) - neg
    twice_u = int(np.dot(pos, 2 * neg_below + neg))
    return twice_u / (2 * int(pos.sum()) * int(neg.sum()))


def placements(scores, decision) -> tuple[np.ndarray, np.ndarray]:
    """Placement values: per positive the share of negatives it outranks,
    per negative the share of positives that outrank it (ties half), each
    in row order within its class."""
    d = np.asarray(decision, dtype=bool)
    _, pos, neg, index = _level_counts(scores, d)
    neg_below = np.cumsum(neg) - neg
    pos_above = pos.sum() - np.cumsum(pos)
    v10 = (neg_below + 0.5 * neg) / neg.sum()
    v01 = (pos_above + 0.5 * pos) / pos.sum()
    return v10[index[d]], v01[index[~d]]


def delong_z(scores_1, scores_2, decision) -> float:
    """Asymptotic z of auc_1 - auc_2 for two curves on the same rows."""
    d = np.asarray(decision, dtype=bool)
    a10, a01 = placements(scores_1, d)
    b10, b01 = placements(scores_2, d)

    def cov(x, y):
        return float(np.dot(x - x.mean(), y - y.mean())) / (x.size - 1)

    n_pos, n_neg = a10.size, a01.size
    var_diff = (
        (cov(a10, a10) + cov(b10, b10) - 2.0 * cov(a10, b10)) / n_pos
        + (cov(a01, a01) + cov(b01, b01) - 2.0 * cov(a01, b01)) / n_neg
    )
    return (auc(scores_1, d) - auc(scores_2, d)) / math.sqrt(var_diff)


def two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


def distinct_rows(matrix) -> int:
    return int(np.unique(np.asarray(matrix), axis=0).shape[0])


def gray_pair_count(matrix, decision) -> int:
    """Pairs of equal rows with opposite decisions: the sum over distinct
    rows of n_pos * n_neg."""
    d = np.asarray(decision, dtype=bool)
    _, index = np.unique(np.asarray(matrix), axis=0, return_inverse=True)
    index = index.ravel()
    pos = np.bincount(index[d], minlength=index.max() + 1).astype(np.int64)
    neg = np.bincount(index[~d], minlength=index.max() + 1).astype(np.int64)
    return int(np.dot(pos, neg))


def pair_cells(scores_1, scores_2, decision) -> int:
    """Distinct (scores_1, scores_2) pairs, counted within each class."""
    d = np.asarray(decision, dtype=bool)
    pairs = np.column_stack([scores_1, scores_2])
    return sum(distinct_rows(pairs[cls]) for cls in (d, ~d))


def trapezoid_area(xs, ys) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1])) / 2.0)
