"""Pre-reduction data screening: replicated examples and gray examples.

A gray example shares its full attribute row with another example that has
the opposite decision. Row equality is exact value equality, no epsilon:
rating scale items are discrete codes and tolerance matching would silently
merge distinct responses. Rows are grouped by one stable sort of their raw
bytes (negative zeros normalized first), which matches an elementwise ==
scan on finite data.

These functions only report; nothing is removed. Whether to screen raw or
deduplicated rows is the caller's choice: both take plain matrices, so
feeding np.unique(...) output works the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, IndexOutOfRange


@dataclass(frozen=True)
class DuplicateReport:
    total_examples: int
    distinct_examples: int
    duplicate_examples: int


def _as_matrix(attrs) -> np.ndarray:
    a = np.asarray(attrs, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise EmptyDataset("attribute matrix must have at least one row and column")
    # +0.0 maps -0.0 to +0.0 so byte keys agree with == comparison
    return np.ascontiguousarray(a + 0.0)


def _decision(decision, a: np.ndarray) -> np.ndarray:
    d = np.asarray(decision).ravel()
    if d.shape[0] != a.shape[0]:
        raise ValueError(
            f"decision length {d.shape[0]} does not match {a.shape[0]} rows"
        )
    return d


def _row_groups(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices sorted into groups of equal rows, ascending within each
    group, and the position in that order where each group starts."""
    keys = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    rows = a[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    )
    return order, starts


def _screen(
    attrs, decision=None
) -> tuple[DuplicateReport, np.ndarray | None]:
    """diff_examples' report and, given a decision, gray_examples' pairs,
    from one grouping of the rows."""
    a = _as_matrix(attrs)
    d = None if decision is None else _decision(decision, a)
    order, starts = _row_groups(a)
    total = a.shape[0]
    dup = DuplicateReport(
        total_examples=total,
        distinct_examples=starts.size,
        duplicate_examples=total - starts.size,
    )
    if d is None:
        return dup, None
    sizes = np.diff(np.append(starts, order.size))
    found = [np.empty((0, 2), dtype=np.intp)]
    for start, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        rows = order[start:start + size]
        i, j = np.triu_indices(size, 1)
        within = np.column_stack((rows[i], rows[j]))
        found.append(within[d[within[:, 0]] != d[within[:, 1]]])
    pairs = np.concatenate(found)
    return dup, pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def diff_examples(attrs) -> DuplicateReport:
    """Count distinct attribute rows and duplicates (total - distinct).

    The decision column is not part of the key; pass attributes only.
    """
    return _screen(attrs)[0]


def gray_examples(attrs, decision) -> np.ndarray:
    """All unordered row pairs with equal attributes and unequal decisions.

    Returns a (k, 2) intp array: each pair appears once as (a, b) with
    a < b, and the rows are sorted by (a, b), so output is deterministic.
    """
    return _screen(attrs, decision)[1]


def gray_examples_for(attrs, decision, n: int) -> list[int]:
    """Rows sharing example n's full attribute row, any decision.

    Returns row n first, then the matching rows in ascending index order.
    A unique row yields [n]. The caller inspects the decisions to decide
    whether the replicas are gray.
    """
    a = _as_matrix(attrs)
    _decision(decision, a)
    if not 0 <= n < a.shape[0]:
        raise IndexOutOfRange(f"row index {n} out of range for {a.shape[0]} rows")
    matches = np.flatnonzero((a == a[n]).all(axis=1))
    return [n] + matches[matches != n].tolist()
