"""Greedy AUC-ranked item selection with first-maximum truncation.

Items are ranked by their individual AUC against the decision, largest
first. The running total AUC at position k is the AUC of the unweighted
row sum of the top-k items. The reduced scale is the longest prefix along
which the running AUC strictly increases: the walk stops the first time
adding the next ranked item fails to improve (a tie counts as
non-improvement), so the first maximum wins.

Items are never re-oriented here; an item negatively associated with the
decision simply ranks with AUC below 0.5.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from .dataset import Dataset
from .errors import InvalidCount
from .roc import _area, _class_counts, _running_sums, auc


@dataclass(frozen=True)
class AucRanking:
    """Items sorted by single-item AUC (descending) with running totals.

    single_auc[k] is the AUC of order[k] alone; running_auc[k] is the AUC
    of the row sum of order[0..k]. Both cover all n items. Ties in
    single-item AUC keep original column order (stable sort).
    """

    order: tuple[str, ...]
    single_auc: tuple[float, ...]
    running_auc: tuple[float, ...]


@dataclass(frozen=True)
class ReducedScale:
    """The retained item prefix and its strictly increasing AUC trajectory."""

    items: tuple[str, ...]
    auc_trajectory: tuple[float, ...]
    achieved_auc: float
    stop_reason: str  # "first-decrease" | "exhausted-all-items"


def start_auc(ds: Dataset) -> dict[str, float]:
    """AUC of every single attribute, keyed by label in file column order."""
    return {
        label: auc(ds.attributes[:, i], ds.decision)
        for i, label in enumerate(ds.labels)
    }


def total_auc(ds: Dataset) -> AucRanking:
    """Rank items by single AUC and compute all n running-total AUCs: the
    walk of rsr(), read on past the first maximum, as reduce reports it."""
    return _ranking(ds, start_auc(ds))[0]


def _walk(ds: Dataset, singles: dict[str, float]
          ) -> tuple[tuple[str, ...], ReducedScale, Iterator[tuple]]:
    """The ranking order of ds, given its single-item AUCs keyed by label,
    its reduced scale, and a generator of the _class_counts of the running
    sums from the kept one on: kept, next, then the rest.

    Each running sum is formed by _running_sums and counted by
    _class_counts once, and its AUC is read off those counts. The walk
    reads min(kept + 1, n) of them, up to the first AUC that does not
    improve; the rest are formed only as the generator is read that far.
    """
    idx = sorted(range(ds.n_items), key=lambda i: -singles[ds.labels[i]])
    order = tuple(ds.labels[i] for i in idx)
    rest = (_class_counts(total, ds.decision)
            for total in _running_sums(ds, idx))
    kept = next(rest)
    trajectory = [_area(kept)]
    for counts in rest:
        if not (value := _area(counts)) > trajectory[-1]:
            rest = chain((counts,), rest)  # the next counts, then the rest
            break
        kept = counts
        trajectory.append(value)
    scale = ReducedScale(
        items=order[:len(trajectory)],
        auc_trajectory=tuple(trajectory),
        achieved_auc=trajectory[-1],
        stop_reason=("exhausted-all-items" if len(trajectory) == len(order)
                     else "first-decrease"),
    )
    return order, scale, chain((kept,), rest)


def _ranking(ds: Dataset, singles: dict[str, float]
             ) -> tuple[AucRanking, ReducedScale, tuple]:
    """total_auc given the single-item AUCs of ds, keyed by label, with
    its reduced scale and the _class_counts of the scale's row sums, from
    one walk read to the end."""
    order, scale, counts = _walk(ds, singles)
    kept = next(counts)
    ranking = AucRanking(
        order=order,
        single_auc=tuple(singles[label] for label in order),
        running_auc=scale.auc_trajectory + tuple(map(_area, counts)),
    )
    return ranking, scale, kept


def rsr(ds: Dataset) -> ReducedScale:
    """Reduce the rating scale: rank, walk, stop at the first maximum,
    computing running AUCs only up to kept + 1."""
    return _walk(ds, start_auc(ds))[1]


def reduction_ratio(scale: ReducedScale, n_original: int) -> float:
    """Retained fraction |items| / n_original."""
    kept = len(scale.items)
    if kept < 1:
        raise InvalidCount("reduced scale has no items")
    if n_original < kept:
        raise InvalidCount(
            f"original count {n_original} is smaller than retained count {kept}"
        )
    return kept / n_original
