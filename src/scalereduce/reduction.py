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
    point; rsr() consumes only the prefix.
    """
    return _ranking(ds, start_auc(ds))


def _ranking(ds: Dataset, singles: dict[str, float]) -> AucRanking:
    """total_auc given the single-item AUCs of ds, keyed by label."""
    values = [singles[lab] for lab in ds.labels]
    # stable sort, descending by AUC; ties keep original column order
    order_idx = sorted(range(ds.n_items), key=lambda i: -values[i])

    return AucRanking(
        order=tuple(ds.labels[i] for i in order_idx),
        single_auc=tuple(values[i] for i in order_idx),
        running_auc=tuple(auc(total, ds.decision)
                          for total in _running_sums(ds, order_idx)),
    )


def reduce_ranking(ranking: AucRanking) -> ReducedScale:
    """First-maximum truncation of a precomputed ranking."""
    running = ranking.running_auc
    keep = 1
    while keep < len(running) and running[keep] > running[keep - 1]:
        keep += 1
    return ReducedScale(
        items=ranking.order[:keep],
        auc_trajectory=running[:keep],
        achieved_auc=running[keep - 1],
        stop_reason=(
            "exhausted-all-items" if keep == len(running) else "first-decrease"
        ),
    )


def rsr(ds: Dataset) -> ReducedScale:
    """Reduce the rating scale: rank, walk, stop at the first maximum."""
    return reduce_ranking(total_auc(ds))


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
