"""ROC curves and tie-aware AUC for a score vector against a binary decision.

Orientation is fixed throughout: a higher score ranks toward the positive
class. AUC uses the pairwise kernel

    psi(s_pos, s_neg) = 1 if s_pos > s_neg, 0.5 if equal, 0 otherwise

so it equals the Mann-Whitney probability that a random positive outranks a
random negative, with ties counted half. AUC and placements are both read
off per-class counts over the sorted distinct score levels (the ordinal
form of Hanley & McNeil, 1982), so they agree with the O(P*N) pair
enumeration exactly, not just to rounding: the numerator is an integer
count of half-pairs and the quotient is rounded once.

Everything here is a pure function of immutable inputs; concurrent calls
are safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ColumnSelection, Dataset, resolve_columns
from .errors import SingleClass


@dataclass(frozen=True)
class RocCurve:
    """ROC points in threshold-descending order, with trapezoidal area.

    fpr/tpr/thresholds are parallel arrays. The first point is (0, 0) at
    threshold +inf; one point follows per distinct score value, so the last
    point is always (1, 1) at the smallest score. A point's coordinates are
    the false/true positive rates of the classifier "score >= threshold".
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float
    n_pos: int
    n_neg: int

    @property
    def points(self) -> list[tuple[float, float, float]]:
        """(fpr, tpr, threshold) triples, ordered."""
        return list(zip(self.fpr.tolist(), self.tpr.tolist(), self.thresholds.tolist()))


@dataclass(frozen=True)
class PlacementValues:
    """Per-observation means of the pairwise ranking kernel.

    v10[i] is the mean of psi(score_i, score_j) over negatives j, one entry
    per positive i; v01[j] is the mean over positives i, one entry per
    negative j. mean(v10) == mean(v01) == auc.
    """

    v10: np.ndarray
    v01: np.ndarray


def _split(scores, decision) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=float).ravel()
    d = np.asarray(decision, dtype=bool).ravel()
    if s.shape != d.shape:
        raise ValueError(
            f"scores length {s.size} does not match decision length {d.size}"
        )
    if d.all() or not d.any():
        raise SingleClass("need at least one positive and one negative example")
    return s, d


def _level_counts(
    s: np.ndarray, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct levels of s (ascending), the positive and negative counts
    at each level, and each row's level index."""
    levels, index = np.unique(s, return_inverse=True)
    pos = np.bincount(index[d], minlength=levels.size)
    neg = np.bincount(index[~d], minlength=levels.size)
    return levels, pos, neg, index


def _twice_u(pos, neg):
    """Twice the Mann-Whitney count, sum of pos * (2*neg_below + neg), over
    the last axis of per-level class counts."""
    return (pos * (2 * np.cumsum(neg, axis=-1) - neg)).sum(axis=-1)


def auc(scores, decision) -> float:
    """Tie-aware AUC of scores against the binary decision.

    Counting evaluation, O(m log m): with pos and neg the class counts at
    each distinct score level and neg_below the negatives at lower levels,

        auc = sum(pos * (2*neg_below + neg)) / (2*P*N)
    """
    s, d = _split(scores, decision)
    _, pos, neg, _ = _level_counts(s, d)
    return int(_twice_u(pos, neg)) / (2 * int(pos.sum()) * int(neg.sum()))


def roc_curve(scores, decision) -> RocCurve:
    """ROC curve with one point per distinct score value.

    Tied scores collapse to a single point, which makes the trapezoidal
    area equal to the tie-aware Mann-Whitney AUC.
    """
    s, d = _split(scores, decision)
    levels, pos, neg, _ = _level_counts(s, d)
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    # descending thresholds: one point per distinct level, highest first
    fpr = np.concatenate(([0.0], np.cumsum(neg[::-1]) / n_neg))
    tpr = np.concatenate(([0.0], np.cumsum(pos[::-1]) / n_pos))
    thresholds = np.concatenate(([np.inf], levels[::-1]))

    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(
        fpr=fpr, tpr=tpr, thresholds=thresholds,
        auc=area, n_pos=n_pos, n_neg=n_neg,
    )


def placements(scores, decision) -> PlacementValues:
    """Placement values v10 (per positive) and v01 (per negative).

    Computed from per-level class counts: a positive at a level with
    neg_below negatives under it and neg tied with it has
    v10 = (neg_below + neg/2) / N, and symmetrically a negative has
    v01 = 1 - (pos_below + pos/2) / P. Entries are in row order of the
    input within each class.
    """
    s, d = _split(scores, decision)
    _, pos, neg, index = _level_counts(s, d)
    below_pos = np.cumsum(pos) - pos
    below_neg = np.cumsum(neg) - neg
    v10 = (below_neg + 0.5 * neg)[index[d]] / int(neg.sum())
    v01 = 1.0 - (below_pos + 0.5 * pos)[index[~d]] / int(pos.sum())
    return PlacementValues(v10=v10, v01=v01)


def sum_scores(ds: Dataset, cols: ColumnSelection) -> np.ndarray:
    """Row-wise unweighted sum of the selected columns."""
    idx = resolve_columns(ds, cols)
    total = np.zeros(ds.n_rows)
    for i in idx:
        total += ds.attributes[:, i]
    return total
