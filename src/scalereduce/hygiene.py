"""Pre-reduction data screening: replicated examples and gray examples.

A gray example shares its full attribute row with another example that has
the opposite decision. Row equality is exact value equality, no epsilon:
rating scale items are discrete codes and tolerance matching would silently
merge distinct responses. Rows are grouped by one stable sort of their raw
bytes, integer rows in their own dtype and others as float64 with negative
zeros made positive, which matches an elementwise == scan on finite data.

Gray examples are held as gray groups: the groups of equal rows that hold
both values of a decision with at most two, with each group's rows split
by decision, each group's attribute row and the number of gray pairs, all
set once from the one grouping of the rows. A group of g rows can make about
g**2 / 4 gray pairs, so pairs are only made on demand, expanded from the
groups one chunk at a time in (row_a, row_b) order; gray_examples
concatenates the chunks.

These functions only report; nothing is removed. Whether to screen raw or
deduplicated rows is the caller's choice: both take plain matrices, so
feeding np.unique(...) output works the same way.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, IndexOutOfRange


@dataclass(frozen=True)
class DuplicateReport:
    total_examples: int
    distinct_examples: int
    duplicate_examples: int


def _as_matrix(attrs) -> np.ndarray:
    # one C-ordered copy, never the caller's array; integers keep their dtype
    a = np.asarray(attrs)
    a = np.array(a, dtype=None if a.dtype.kind in "iu" else float, order="C")
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise EmptyDataset("attribute matrix must have at least one row and column")
    if a.dtype.kind == "f":
        a += 0  # maps -0.0 to +0.0 so byte keys agree with == comparison
    return a


def _decision(decision, a: np.ndarray) -> np.ndarray:
    d = np.asarray(decision).ravel()
    if d.shape[0] != a.shape[0]:
        raise ValueError(
            f"decision length {d.shape[0]} does not match {a.shape[0]} rows"
        )
    return d


# sorted rows compared with their neighbours per block in _row_groups
_ROW_BLOCK = 1 << 13


def _row_groups(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices sorted into groups of equal rows, ascending within each
    group, and the position in that order where each group starts. Each
    sorted row is compared with the one before it a block of _ROW_BLOCK
    rows at a time, so no sorted copy of the matrix is held whole."""
    keys = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    starts = np.ones(order.size, dtype=bool)
    for i in range(1, order.size, _ROW_BLOCK):
        rows = a[order[i - 1:i + _ROW_BLOCK]]
        starts[i:i + _ROW_BLOCK] = (rows[1:] != rows[:-1]).any(axis=1)
    return order, np.flatnonzero(starts)


# gray pairs per chunk, unless one row alone has more partners
_CHUNK = 1 << 12


@dataclass(frozen=True)
class GrayGroups:
    """The groups of equal rows that hold both values of a decision.

    levels holds the decision's distinct values, at most two, ascending.
    Each group is split into two runs, each listing its rows in ascending
    order: run 2g holds group g's rows with the lower decision and run
    2g + 1 those with the higher one, so a row's group is its run // 2.
    rows holds the runs one after another: run i is
    rows[starts[i]:starts[i + 1]]. values[g] is group g's attribute row as
    floats, with a -0 cell read as 0, and pair_count is the number of gray
    pairs in all groups.
    """

    levels: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    values: np.ndarray
    pair_count: int

    def pair_chunks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield (pos_a, pos_b, run_a), the positions in rows of every gray
        pair's rows and row_a's run, in (row_a, row_b) order, for one block
        of row_a values at a time (about _CHUNK pairs). The partners of row
        a are the rows after a in the other run of its group, run_a ^ 1: one
        ascending suffix of it, found by a binary search: O(rows + pairs)."""
        rows, starts = self.rows, self.starts
        if not rows.size:
            return
        run_of = np.repeat(np.arange(starts.size - 1), np.diff(starts))
        # every gray row in ascending order, with its run
        entry = np.argsort(rows)
        a, run = rows[entry], run_of[entry]
        # rows is ascending in (run, row), so one search finds, in the
        # other run, the first row after a
        span = int(rows.max()) + 1
        lo = np.searchsorted(run_of * span + rows, (run ^ 1) * span + a,
                             side="right")
        count = starts[(run ^ 1) + 1] - lo
        # pair p of the enumeration in row_a order is row a's pair
        # p - (through - count) and has partner rows[p + shift]; chunks
        # end between rows, and each chunk's first row has a partner
        through = np.cumsum(count)
        shift = lo - through + count
        # return_counts keeps np.unique off its np.ma check, which imports numpy.ma
        cuts = np.unique(np.concatenate((
            [0], np.searchsorted(through, np.arange(_CHUNK, through[-1], _CHUNK),
                                 side="right"), [through.size])), return_counts=True)[0]
        for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            c = count[r0:r1]
            p = np.arange(through[r0] - c[0], through[r1 - 1])
            yield (np.repeat(entry[r0:r1], c), p + np.repeat(shift[r0:r1], c),
                   np.repeat(run[r0:r1], c))


def _screen(attrs, decision=None) -> tuple[DuplicateReport, GrayGroups | None]:
    """diff_examples' report and, given a decision, the gray groups, from
    one grouping of the rows. A group of equal rows is gray when its rows
    hold both decision values. Decision values compare as != does, so each
    NaN is a value of its own, and a decision with more than two values
    raises ValueError before the rows are grouped."""
    a = _as_matrix(attrs)
    if decision is not None:
        levels, code = np.unique(_decision(decision, a), return_inverse=True,
                                 equal_nan=False)
        if levels.size > 2:
            raise ValueError(
                f"decision has {levels.size} distinct values; at most two allowed"
            )
    order, starts = _row_groups(a)
    total = a.shape[0]
    dup = DuplicateReport(total, starts.size, total - starts.size)
    if decision is None:
        return dup, None
    code = code[order]
    sizes = np.diff(np.append(starts, total))
    gray = np.minimum.reduceat(code, starts) != np.maximum.reduceat(code, starts)
    in_gray = np.repeat(gray, sizes)
    n_gray = np.count_nonzero(gray)
    # a row of gray group g with decision code c goes to run 2g + c; a
    # stable sort keeps each run's rows ascending, as order has them
    key = 2 * np.repeat(np.arange(n_gray), sizes[gray]) + code[in_gray]
    by_run = np.argsort(key, kind="stable")
    run = np.searchsorted(key[by_run], np.arange(2 * n_gray + 1))
    low, high = np.diff(run).reshape(-1, 2).T
    return dup, GrayGroups(levels, order[in_gray][by_run], run,
                           a[order[starts[gray]]].astype(float), int(low @ high))


def diff_examples(attrs) -> DuplicateReport:
    """Count distinct attribute rows and duplicates (total - distinct).

    The decision column is not part of the key; pass attributes only.
    """
    return _screen(attrs)[0]


def gray_examples(attrs, decision) -> np.ndarray:
    """All unordered row pairs with equal attributes and unequal decisions,
    for a decision with at most two distinct values (more raise ValueError).

    Returns a (k, 2) intp array: each pair appears once as (a, b) with
    a < b, and the rows are sorted by (a, b), so output is deterministic.
    """
    groups = _screen(attrs, decision)[1]
    return np.concatenate([np.empty((0, 2), dtype=np.intp), *(
        groups.rows[np.column_stack(pos)] for *pos, _ in groups.pair_chunks())])


def gray_examples_for(attrs, decision, n: int) -> list[int]:
    """Rows sharing example n's full attribute row, any decision.

    Returns row n first, then the matching rows in ascending index order.
    A unique row yields [n]. The caller inspects the decisions to decide
    whether the replicas are gray. A non-integer n raises ValueError.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"row index must be an integer, got {n!r}") from None
    a = _as_matrix(attrs)
    _decision(decision, a)
    if not 0 <= n < a.shape[0]:
        raise IndexOutOfRange(f"row index {n} out of range for {a.shape[0]} rows")
    matches = np.flatnonzero((a == a[n]).all(axis=1))
    return [n] + matches[matches != n].tolist()
