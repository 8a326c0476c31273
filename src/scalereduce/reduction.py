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

from .dataset import Dataset
from .errors import InvalidCount
from .roc import _running_sums, auc


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
    """Rank items by single AUC and compute all n running-total AUCs.

    The full running vector is computed even past the eventual stopping
    point, as reduce reports it; rsr() stops at the first maximum.
    """
    return _ranking(ds, start_auc(ds))


def _running(ds: Dataset,
             singles: dict[str, float]) -> tuple[list[int], Iterator[float]]:
    """Column indices of ds, largest single AUC first (ties keep column
    order), and a generator of their running AUCs, each computed as read."""
    idx = sorted(range(ds.n_items), key=lambda i: -singles[ds.labels[i]])
    return idx, (auc(total, ds.decision) for total in _running_sums(ds, idx))


def _ranking(ds: Dataset, singles: dict[str, float]) -> AucRanking:
    """total_auc given the single-item AUCs of ds, keyed by label."""
    idx, running = _running(ds, singles)
    return AucRanking(
        order=tuple(ds.labels[i] for i in idx),
        single_auc=tuple(singles[ds.labels[i]] for i in idx),
        running_auc=tuple(running),
    )


def _first_maximum(order: tuple[str, ...],
                   running: Iterator[float]) -> ReducedScale:
    """First-maximum truncation of order, reading its running AUCs only up
    to the first that does not improve: min(kept + 1, n) of them."""
    trajectory = [next(running)]
    for value in running:
        if not value > trajectory[-1]:
            break
        trajectory.append(value)
    keep = len(trajectory)
    return ReducedScale(
        items=order[:keep],
        auc_trajectory=tuple(trajectory),
        achieved_auc=trajectory[-1],
        stop_reason=(
            "exhausted-all-items" if keep == len(order) else "first-decrease"
        ),
    )


def reduce_ranking(ranking: AucRanking) -> ReducedScale:
    """First-maximum truncation of a precomputed ranking; the walk stops
    at running AUC kept + 1."""
    return _first_maximum(ranking.order, iter(ranking.running_auc))


def _walk(ds: Dataset,
          singles: dict[str, float]) -> tuple[tuple[str, ...], ReducedScale]:
    """The ranking order of ds, given its single-item AUCs keyed by label,
    and its reduced scale, computing running AUCs one at a time up to the
    first that does not improve; no item past the next one is summed."""
    idx, running = _running(ds, singles)
    order = tuple(ds.labels[i] for i in idx)
    return order, _first_maximum(order, running)


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
