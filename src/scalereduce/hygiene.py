"""Pre-reduction data screening: replicated examples and gray examples.

A gray example shares its full attribute row with another example that has
the opposite decision. Row equality is exact value equality, no epsilon:
rating scale items are discrete codes and tolerance matching would silently
merge distinct responses. Rows are grouped by one stable sort of their raw
bytes, integer rows in their own dtype and others as float64 with negative
zeros made positive, which matches an elementwise == scan on finite data.

Gray examples are held as gray groups: the groups of equal rows that hold
more than one decision value, with each group's rows split by decision,
each group's attribute row and the number of gray pairs, all set once
from the one grouping of the rows. A group of g rows can make about
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
    """The groups of equal rows that hold more than one decision value.

    Each group is split into runs, one per decision value in ascending
    order, and each run lists its rows in ascending order. rows holds the
    runs one after another, group after group: run i is
    rows[starts[i]:starts[i + 1]] and its group is group[i], numbered
    from 0. values[g] is group g's attribute row as floats, with a -0 cell
    read as 0, and pair_count is the number of gray pairs in all groups.
    """

    levels: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    group: np.ndarray
    values: np.ndarray
    pair_count: int

    def pair_chunks(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield (row_a, row_b, run_a) for every gray pair, in
        (row_a, row_b) order, for one block of row_a values at a time
        (about _CHUNK pairs). The partners of row a are the rows of a's
        group after a in the other runs: one ascending suffix of each other
        run, found by a binary search. Cost is O(rows + pairs) when every
        group holds two decision values; a row with partners in two or more
        other runs has them merged by a sort within its chunk."""
        rows, starts = self.rows, self.starts
        if not rows.size:
            return
        run_of = np.repeat(np.arange(self.group.size), np.diff(starts))
        first = np.searchsorted(self.group, self.group)
        n_runs = np.searchsorted(self.group, self.group, side="right") - first
        # every gray row in ascending order, then one segment per other run
        # of its group
        entry = np.argsort(rows)
        run = run_of[entry]
        k = n_runs[run]
        seg_entry = np.repeat(entry, k)
        seg_run = np.repeat(first[run], k) + _ramps(k)
        other = seg_run != run_of[seg_entry]
        seg_entry, seg_run = seg_entry[other], seg_run[other]
        seg_a = rows[seg_entry]
        # rows is ascending in (run, row), so one search finds, in run r,
        # the first row after a
        span = int(rows.max()) + 1
        lo = np.searchsorted(run_of * span + rows, seg_run * span + seg_a,
                             side="right")
        count = starts[seg_run + 1] - lo
        # chunks end between rows, each gray row owning k - 1 segments, and
        # each chunk's first row has a partner
        row_segs = np.concatenate(([0], np.cumsum(k - 1)))
        through = np.cumsum(np.add.reduceat(count, row_segs[:-1]))
        # return_counts keeps np.unique off its np.ma check, which imports numpy.ma
        cuts = np.unique(np.concatenate((
            [0], np.searchsorted(through, np.arange(_CHUNK, through[-1], _CHUNK),
                                 side="right"), [through.size])), return_counts=True)[0]
        for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            s0, s1 = row_segs[r0], row_segs[r1]
            c = count[s0:s1]
            at = np.repeat(lo[s0:s1], c) + _ramps(c)
            a = np.repeat(seg_a[s0:s1], c)
            b = rows[at]
            run_a = np.repeat(run_of[seg_entry[s0:s1]], c)
            if s1 - s0 > r1 - r0:
                by_b = np.argsort(a * span + b, kind="stable")
                a, b, run_a = a[by_b], b[by_b], run_a[by_b]
            yield a, b, run_a


def _ramps(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in a non-empty lengths, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)


def _screen(attrs, decision=None) -> tuple[DuplicateReport, GrayGroups | None]:
    """diff_examples' report and, given a decision, the gray groups, from
    one grouping of the rows. A group of equal rows is gray when its rows
    hold more than one decision value; decision values compare as !=
    does, so each NaN is a value of its own."""
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
    levels, code = np.unique(d, return_inverse=True, equal_nan=False)
    code = code[order]
    sizes = np.diff(np.append(starts, total))
    gray = np.minimum.reduceat(code, starts) != np.maximum.reduceat(code, starts)
    in_gray = np.repeat(gray, sizes)
    group = np.repeat(np.arange(np.count_nonzero(gray)), sizes[gray])
    # one key per (group, decision) run; a stable sort keeps each run's
    # rows ascending, as order has them
    key = group * levels.size + code[in_gray]
    by_run = np.argsort(key, kind="stable")
    rows, key = order[in_gray][by_run], key[by_run]
    run = np.append(np.flatnonzero(np.diff(key, prepend=-1)), rows.size)
    group = key[run[:-1]] // levels.size
    # a group of g rows pairs each row with the g - r rows outside its
    # run of r: summed over the rows, g**2 - sum(r**2), each pair twice
    group_size, run_size = sizes[gray], np.diff(run)
    pair_count = int(group_size @ group_size - run_size @ run_size) // 2
    return dup, GrayGroups(levels, rows, run, group,
                           a[order[starts[gray]]].astype(float), pair_count)


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
    chunks = _screen(attrs, decision)[1].pair_chunks()
    return np.concatenate([np.empty((0, 2), dtype=np.intp),
                           *(np.column_stack((a, b)) for a, b, _ in chunks)])


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
