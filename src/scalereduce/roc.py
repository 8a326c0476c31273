"""ROC curves and tie-aware AUC for a score vector against a binary decision.

Orientation is fixed throughout: a higher score ranks toward the positive
class. AUC uses the pairwise kernel

    psi(s_pos, s_neg) = 1 if s_pos > s_neg, 0.5 if equal, 0 otherwise

so it equals the Mann-Whitney probability that a random positive outranks a
random negative, with ties counted half. AUC and placements are both read
off per-class counts over ascending score levels (every integer in range
for narrow-range integer scores; the ordinal form of Hanley & McNeil,
1982), taken in one count per score vector, so they agree with the O(P*N)
pair enumeration exactly, not just to rounding: the numerator is an
integer count of half-pairs and the quotient is rounded once. NaN scores,
which psi cannot order, raise ValueError.

Everything here is a pure function of immutable inputs; concurrent calls
are safe.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

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


class ClassCounts(NamedTuple):
    """A score vector counted per level and class by _class_counts."""

    decision: np.ndarray  # the split decision, True for a positive
    levels: np.ndarray  # ascending score levels
    pos: np.ndarray  # positives at each level
    neg: np.ndarray  # negatives at each level
    slot: np.ndarray  # each row's 2 * level index + decision, unsigned

    @property
    def index(self) -> np.ndarray:
        """Each row's level index, slot >> 1, formed anew as intp on each
        read, so that products of it such as index * width cannot wrap."""
        return np.right_shift(self.slot, 1, dtype=np.intp)


def _class_counts(scores, decision) -> ClassCounts:
    """The ClassCounts of the split scores and decision, from one
    bincount over (level, class) slots.

    Signed-integer scores spanning at most 4*m values are counted over
    their whole range, levels lo..hi and level index s - lo, in
    O(m + range), so a level inside the range may hold no row. np.unique
    sorts any other scores, and sorts NaN last: a NaN score, which psi
    cannot order, shows as the last level and raises ValueError.

    Each row's slot, 2 * index + decision, is built in place in the
    narrowest unsigned dtype that holds 2 * levels.size - 1. On the range
    path s - lo is formed modulo that dtype's range, which holds it, so
    no intp copy of the scores is made."""
    s, d = _split(scores, decision)
    integer = s.dtype.kind == "i"
    lo, hi = (int(s.min()), int(s.max())) if integer else (0, 0)
    if integer and hi - lo <= 4 * s.size:
        levels = lo + np.arange(hi - lo + 1)
    else:
        levels, s = np.unique(s, return_inverse=True)
        lo = 0
        if np.isnan(levels[-1]):
            raise ValueError("scores must not be NaN")
    slot = s.astype(np.min_scalar_type(2 * levels.size - 1))  # wraps
    if lo:
        slot -= lo % (1 << 8 * slot.itemsize)
    slot <<= 1
    slot |= d
    # minlength: the top level may hold only negatives
    neg, pos = np.bincount(slot, minlength=2 * levels.size).reshape(-1, 2).T
    return ClassCounts(d, levels, pos, neg, slot)


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
    O(m log m) otherwise (see _class_counts): with pos and neg the class
    counts at each score level and neg_below the negatives at lower levels,

        auc = sum(pos * (2*neg_below + neg)) / (2*P*N)
    """
    return _area(_class_counts(scores, decision))


def _area(counts) -> float:
    """Tie-aware AUC from a score vector's _class_counts, rounded once."""
    pos, neg = counts.pos, counts.neg
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
    levels, pos, neg = counts.levels, counts.pos, counts.neg
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    # descending thresholds: one point per level some row holds, highest first
    used = (pos + neg) > 0
    levels, pos, neg = levels[used], pos[used], neg[used]
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
    c = _class_counts(scores, decision)
    d, index = c.decision, c.index
    v10 = _twice_below(c.neg)[index[d]] / (2 * int(c.neg.sum()))
    v01 = 1.0 - _twice_below(c.pos)[index[~d]] / (2 * int(c.pos.sum()))
    return PlacementValues(v10=v10, v01=v01)


def _running_sums(ds: Dataset, idx: list[int]) -> Iterator[np.ndarray]:
    """Row sums of the columns idx[:1], idx[:2], ..., in one array updated
    in place. Integer items are summed in the narrowest signed dtype that
    holds len(idx) times the item dtype's most negative value, which
    bounds every sum, so no sum wraps. Raises ScoreOverflow, naming the
    items summed, where finite float cells sum past the float64 range."""
    attrs = ds.attributes
    dtype = attrs.dtype
    if dtype.kind == "i":
        dtype = np.min_scalar_type(len(idx) * int(np.iinfo(dtype).min))
    total = np.zeros(ds.n_rows, dtype=dtype)
    for k, i in enumerate(idx, 1):
        try:
            # scoped to the add: the caller's code between yields keeps
            # its own floating-point error settings
            with np.errstate(over="raise"):
                total += attrs[:, i]
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
    return total.astype(np.result_type(total, np.int64), copy=False)
