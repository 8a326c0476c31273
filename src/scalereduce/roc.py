"""ROC curves and tie-aware AUC for a score vector against a binary decision.

Orientation is fixed throughout: a higher score ranks toward the positive
class. AUC uses the pairwise kernel

    psi(s_pos, s_neg) = 1 if s_pos > s_neg, 0.5 if equal, 0 otherwise

so it equals the Mann-Whitney probability that a random positive outranks a
random negative, with ties counted half. AUC and placements are both read
off per-class counts over the sorted distinct score levels (the ordinal form
of Hanley & McNeil, 1982), taken in one count per score vector, so they
agree with the O(P*N) pair enumeration exactly, not just to rounding: the
numerator is an integer count of half-pairs and the quotient is rounded
once. NaN scores, which psi cannot order, raise ValueError.

Everything here is a pure function of immutable inputs; concurrent calls
are safe.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import ColumnSelection, Dataset, resolve_columns
from .errors import ScoreOverflow, SingleClass


@dataclass(frozen=True)
class RocCurve:
    """ROC points in threshold-descending order, with their area.

    fpr/tpr/thresholds are parallel arrays. The first point is (0, 0) at
    threshold +inf; one point follows per distinct score value, so the last
    point is always (1, 1) at the smallest score. thresholds is float64,
    unless an integer score is not exact in float64: then it is an object
    array of inf and the scores as Python ints. A point's coordinates are
    the false/true positive rates of the classifier "score >= threshold".
    auc is the trapezoidal area under those points, computed as the
    tie-aware AUC, so it equals auc(scores, decision) exactly.
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
    s = np.asarray(scores).ravel()
    # integers compare exactly: unsigned and bool as int64 where they fit,
    # past 2**63 left for np.unique; anything else as float64
    if s.dtype.kind in "bu" and int(s.max(initial=0)) < 2**63:
        s = s.astype(np.int64)
    elif s.dtype.kind not in "iu":
        s = s.astype(float, copy=False)
    d = np.asarray(decision, dtype=bool).ravel()
    if s.shape != d.shape:
        raise ValueError(
            f"scores length {s.size} does not match decision length {d.size}"
        )
    if d.all() or not d.any():
        raise SingleClass("need at least one positive and one negative example")
    return s, d


def _levels(s: np.ndarray, d=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values of the nonempty 1-d array s (ascending), each
    entry's index into them, as np.unique(s, return_inverse=True) gives
    them, and counts[i, c], the entries at level i whose d is c.

    Signed-integer s spanning at most 4*m values is counted by one bincount
    over (s - s.min(), d) slots, in O(m + range); the offsets are the index
    unless some value in range is unoccupied. np.unique sorts any other s.
    """
    integer = s.dtype.kind == "i"
    lo, hi = (int(s.min()), int(s.max())) if integer else (0, 0)
    if integer and hi - lo <= 4 * s.size:
        index = s.astype(np.intp) - lo
        levels = lo + np.arange(hi - lo + 1)
    else:
        levels, index = np.unique(s, return_inverse=True)
    # minlength: the top level may hold only entries whose d is 0
    counts = np.bincount(index * 2 + d, minlength=2 * levels.size).reshape(-1, 2)
    occupied = np.logical_or(*counts.T)
    if not occupied.all():
        levels, counts = levels[occupied], counts[occupied]
        index = (np.cumsum(occupied) - 1)[index]
    return levels, index, counts


def _class_counts(scores, decision):
    """The split decision, the distinct levels of the split scores
    (ascending), the positive and negative counts at each level and each
    row's level index, from one _levels count. NaN scores raise ValueError:
    they are float, which _levels sorts by np.unique, and np.unique sorts
    NaN last, so a NaN level can only be the last one."""
    s, d = _split(scores, decision)
    levels, index, counts = _levels(s, d)
    if np.isnan(levels[-1]):
        raise ValueError("scores must not be NaN")
    neg, pos = counts.T
    return d, levels, pos, neg, index


def _twice_below(c):
    """2*cumsum(c) - c over the last axis of per-level counts c: twice the
    count below each level plus the count at it."""
    return 2 * np.cumsum(c, axis=-1) - c


def _twice_u(pos, neg):
    """Twice the Mann-Whitney count, sum of pos * (2*neg_below + neg), over
    the last axis of per-level class counts."""
    return (pos * _twice_below(neg)).sum(axis=-1)


def auc(scores, decision) -> float:
    """Tie-aware AUC of scores against the binary decision.

    Counting evaluation, O(m + range) for narrow-range integer scores and
    O(m log m) otherwise (see _levels): with pos and neg the class counts
    at each distinct score level and neg_below the negatives at lower
    levels,

        auc = sum(pos * (2*neg_below + neg)) / (2*P*N)
    """
    return _area(_class_counts(scores, decision))


def _area(counts) -> float:
    """Tie-aware AUC from a score vector's _class_counts, rounded once."""
    _, _, pos, neg, _ = counts
    return int(_twice_u(pos, neg)) / (2 * int(pos.sum()) * int(neg.sum()))


def roc_curve(scores, decision) -> RocCurve:
    """ROC curve with one point per distinct score value.

    Tied scores collapse to a single point, which makes the trapezoidal
    area equal to the tie-aware Mann-Whitney AUC; it is computed from the
    same counts as auc(), not by summing trapezoids, so the two agree
    exactly.
    """
    return _curve(_class_counts(scores, decision))


def _curve(counts) -> RocCurve:
    """roc_curve from the _class_counts of a score vector."""
    _, levels, pos, neg, _ = counts
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    # descending thresholds: one point per distinct level, highest first
    fpr = np.concatenate(([0.0], np.cumsum(neg[::-1]) / n_neg))
    tpr = np.concatenate(([0.0], np.cumsum(pos[::-1]) / n_pos))
    thresholds = np.concatenate(([np.inf], levels[::-1]))
    if levels.dtype.kind in "iu" and thresholds[1:].tolist() != levels[::-1].tolist():
        # some integer level past 2**53 is not exact in float64
        thresholds = np.array([np.inf, *levels[::-1].tolist()], dtype=object)
    return RocCurve(
        fpr=fpr, tpr=tpr, thresholds=thresholds,
        auc=_area(counts), n_pos=n_pos, n_neg=n_neg,
    )


def placements(scores, decision) -> PlacementValues:
    """Placement values v10 (per positive) and v01 (per negative).

    Computed from per-level class counts: a positive at a level with
    neg_below negatives under it and neg tied with it has
    v10 = (2*neg_below + neg) / (2N), and symmetrically a negative has
    v01 = 1 - (2*pos_below + pos) / (2P), each quotient of integers rounded
    once. Entries are in row order of the input within each class.
    """
    d, _, pos, neg, index = _class_counts(scores, decision)
    v10 = _twice_below(neg)[index[d]] / (2 * int(neg.sum()))
    v01 = 1.0 - _twice_below(pos)[index[~d]] / (2 * int(pos.sum()))
    return PlacementValues(v10=v10, v01=v01)


def _running_sums(ds: Dataset, idx: list[int]) -> Iterator[np.ndarray]:
    """Row sums of the columns idx[:1], idx[:2], ..., in one array updated
    in place, in int64 for integer items. Raises ScoreOverflow, naming the
    items summed, where finite float cells sum past the float64 range."""
    total = np.zeros(ds.n_rows, dtype=np.result_type(ds.attributes, np.int64))
    for k, i in enumerate(idx, 1):
        try:
            # scoped to the add: the caller's code between yields keeps
            # its own floating-point error settings
            with np.errstate(over="raise"):
                total += ds.attributes[:, i]
        except FloatingPointError:
            items = ", ".join(ds.labels[j] for j in idx[:k])
            raise ScoreOverflow(
                f"the row sum of items {items} overflows the float64 range"
            ) from None
        yield total


def sum_scores(ds: Dataset, cols: ColumnSelection) -> np.ndarray:
    """Row-wise unweighted sum of the selected columns, int64 for integer
    items; raises ScoreOverflow if a float sum leaves the float64 range."""
    for total in _running_sums(ds, resolve_columns(ds, cols)):
        pass
    return total
