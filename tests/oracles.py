"""Independent brute-force oracles used to check the fast implementations.

Everything here is written straight from the definitions, with plain Python
loops, and stays independent of the code paths it validates.
"""

from itertools import combinations

import numpy as np


def psi(s_pos: float, s_neg: float) -> float:
    """Pairwise ranking kernel: 1 if the positive outranks, 0.5 on a tie."""
    if s_pos > s_neg:
        return 1.0
    if s_pos == s_neg:
        return 0.5
    return 0.0


def auc_pairs(scores, decision) -> float:
    """AUC by full O(P*N) pair enumeration."""
    scores = [float(s) for s in scores]
    decision = [bool(d) for d in decision]
    pos = [s for s, d in zip(scores, decision) if d]
    neg = [s for s, d in zip(scores, decision) if not d]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += psi(sp, sn)
    return total / (len(pos) * len(neg))


def placements_pairs(scores, decision):
    """Placement vectors by direct kernel enumeration."""
    scores = [float(s) for s in scores]
    decision = [bool(d) for d in decision]
    pos = [s for s, d in zip(scores, decision) if d]
    neg = [s for s, d in zip(scores, decision) if not d]
    v10 = [sum(psi(sp, sn) for sn in neg) / len(neg) for sp in pos]
    v01 = [sum(psi(sp, sn) for sp in pos) / len(pos) for sn in neg]
    return v10, v01


def duplicates_quadratic(attrs):
    """(total, distinct, duplicates) by all-pairs row comparison."""
    a = np.asarray(attrs, dtype=float)
    m = a.shape[0]
    distinct = 0
    for i in range(m):
        if not any((a[i] == a[j]).all() for j in range(i)):
            distinct += 1
    return m, distinct, m - distinct


def gray_pairs_quadratic(attrs, decision):
    """All (a, b) index pairs with equal rows and different decisions."""
    a = np.asarray(attrs, dtype=float)
    d = np.asarray(decision).ravel()
    out = []
    for i, j in combinations(range(a.shape[0]), 2):
        if (a[i] == a[j]).all() and d[i] != d[j]:
            out.append((i, j))
    return out


def clones_of_quadratic(attrs, n: int):
    """Rows equal to row n (any decision), row n first, by linear scan."""
    a = np.asarray(attrs, dtype=float)
    return [n] + [
        j for j in range(a.shape[0]) if j != n and (a[j] == a[n]).all()
    ]


def running_auc_prefix(attrs, decision, ordered_cols):
    """Running-total AUCs by explicit prefix sums plus pair enumeration."""
    a = np.asarray(attrs, dtype=float)
    out = []
    for k in range(1, len(ordered_cols) + 1):
        total = a[:, ordered_cols[:k]].sum(axis=1)
        out.append(auc_pairs(total, decision))
    return out


def best_subset_auc(attrs, decision, auc_fn=auc_pairs):
    """Exhaustive search over all non-empty column subsets.

    Returns (best auc, best subset). Feasible for n <= 12 or so. auc_fn
    may be swapped for a faster evaluator; the exhaustiveness is the point
    here, not the AUC route.
    """
    a = np.asarray(attrs, dtype=float)
    n = a.shape[1]
    best = -1.0
    best_cols: tuple[int, ...] = ()
    for size in range(1, n + 1):
        for cols in combinations(range(n), size):
            value = auc_fn(a[:, cols].sum(axis=1), decision)
            if value > best:
                best, best_cols = value, cols
    return best, best_cols


def bootstrap_z_matrices(scores_1, scores_2, decision, n_boot, seed):
    """z of the stratified bootstrap with every replicate materialised.

    The straightforward implementation: draw all positive then all negative
    row indices with one rng.integers call per class, build the two
    (n_boot, m) resampled score matrices, and take each replicate's AUC
    from row-wise midranks. Uses the same random stream as
    scalereduce.bootstrap_test, so the two agree exactly. Returns None when
    the replicate differences have no spread.
    """
    from scipy.stats import rankdata

    s1 = np.asarray(scores_1, dtype=float)
    s2 = np.asarray(scores_2, dtype=float)
    d = np.asarray(decision, dtype=bool)
    pos = np.nonzero(d)[0]
    neg = np.nonzero(~d)[0]
    n_pos, n_neg = pos.size, neg.size
    rng = np.random.default_rng(seed)
    pos_draw = rng.integers(0, n_pos, size=(n_boot, n_pos))
    neg_draw = rng.integers(0, n_neg, size=(n_boot, n_neg))

    def auc_by_row(s):
        rep = np.concatenate((s[pos][pos_draw], s[neg][neg_draw]), axis=1)
        rank_sum = rankdata(rep, method="average", axis=1)[:, :n_pos].sum(axis=1)
        return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    def auc_full(s):
        ranks = rankdata(s, method="average")
        return (ranks[d].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    diffs = auc_by_row(s1) - auc_by_row(s2)
    sd = float(diffs.std(ddof=1)) if n_boot > 1 else 0.0
    if not np.isfinite(sd) or sd <= 0.0:
        return None
    return float((auc_full(s1) - auc_full(s2)) / sd)


def load_csv_cells(path, decision_column, positive_value="auto"):
    """scalereduce.load_csv as it was before its vectorised path.

    Reads the file with csv.reader and parses every cell on its own with
    float(); rows with a wrong field count or a missing, unparseable or
    non-finite cell are dropped and counted. Same exceptions, same Dataset.
    """
    import csv
    import math

    from scalereduce import Dataset
    from scalereduce.errors import (
        DuplicateColumn,
        EmptyDataset,
        LoadError,
        MissingDecisionColumn,
        NotBinaryDecision,
        SingleClass,
    )

    def parse_cell(cell):
        text = cell.strip()
        if not text:
            return None
        try:
            value = float(text)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    def records(fh):
        try:
            yield from csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise LoadError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc

    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = records(fh)
        header_row = next(reader, None)
        if header_row is None:
            raise LoadError(f"{path}: file is empty")
        header = [h.strip() for h in header_row]
        if decision_column not in header:
            raise MissingDecisionColumn(f"{path}: no column {decision_column!r}")
        if any(not h for h in header):
            raise LoadError(f"{path}: header contains an empty label")
        if len(set(header)) != len(header):
            raise DuplicateColumn(f"{path}: header contains duplicate labels")
        if len(header) < 2:
            raise LoadError(f"{path}: no attribute columns besides the decision")
        d_idx = header.index(decision_column)

        rows = []
        dropped = 0
        for record in reader:
            if not record or all(not c.strip() for c in record):
                continue  # blank line, not a data row
            if len(record) != len(header):
                dropped += 1
                continue
            values = [parse_cell(c) for c in record]
            if any(v is None for v in values):
                dropped += 1
                continue
            rows.append(values)

    if not rows:
        raise EmptyDataset(f"{path}: no complete rows")

    table = np.asarray(rows, dtype=float)
    raw_decision = table[:, d_idx]
    attrs = np.delete(table, d_idx, axis=1)
    labels = tuple(h for i, h in enumerate(header) if i != d_idx)

    distinct = np.unique(raw_decision)
    if distinct.size != 2:
        raise NotBinaryDecision(f"{path}: {distinct.size} decision values")
    if positive_value == "auto":
        pos_val = float(distinct[1])
    else:
        pos_val = float(positive_value)
    decision = raw_decision == pos_val
    if not decision.any():
        raise SingleClass(f"{path}: positive value {pos_val!r} matches no row")
    neg_val = float(distinct[0] if pos_val == distinct[1] else distinct[1])

    return Dataset(
        attributes=attrs,
        labels=labels,
        decision=decision,
        dropped_rows=dropped,
        positive_value=pos_val,
        negative_value=neg_val,
    )
