"""Independent brute-force oracles used to check the fast implementations.

Everything here is written straight from the definitions, with plain Python
loops, and stays independent of the code paths it validates.
"""

import math
from fractions import Fraction
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


def sqrt_nearest(q: Fraction) -> float:
    """The float nearest the square root of the nonnegative rational q."""
    f = math.sqrt(float(q))

    def below(a, b):  # whether sqrt(q) lies below the midpoint of a and b
        return q < ((Fraction(a) + Fraction(b)) / 2) ** 2

    while f > 0 and below(math.nextafter(f, 0), f):
        f = math.nextafter(f, 0)
    while not below(f, math.nextafter(f, math.inf)):
        f = math.nextafter(f, math.inf)
    return f


def delong_z_exact(scores_1, scores_2, decision):
    """DeLong z, in rationals from pair-enumerated placements, rounded once
    to the nearest float; 0.0 where the AUCs are equal, and None where the
    variance of their difference is zero (or needs a class of two rows).

        z**2 = (auc_1 - auc_2)**2
               / (var(v10_1 - v10_2)/P + var(v01_1 - v01_2)/N)

    with unbiased sample variances over the positives' (v10) and the
    negatives' (v01) placement differences.
    """
    decision = [bool(d) for d in decision]

    def placements(scores):
        pos = [float(s) for s, d in zip(scores, decision) if d]
        neg = [float(s) for s, d in zip(scores, decision) if not d]
        v10 = [sum(Fraction(psi(p, n)) for n in neg) / len(neg) for p in pos]
        v01 = [sum(Fraction(psi(p, n)) for p in pos) / len(pos) for n in neg]
        return v10, v01

    def var(v):
        mean = sum(v) / len(v)
        return sum((x - mean) ** 2 for x in v) / (len(v) - 1)

    a10, a01 = placements(scores_1)
    b10, b01 = placements(scores_2)
    diff = (sum(a10) - sum(b10)) / len(a10)
    if diff == 0:
        return 0.0
    if min(len(a10), len(a01)) < 2:
        return None
    variance = (var([a - b for a, b in zip(a10, b10)]) / len(a10)
                + var([a - b for a, b in zip(a01, b01)]) / len(a01))
    if variance == 0:
        return None
    return math.copysign(sqrt_nearest(diff * diff / variance), diff)


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


def bootstrap_z_matrices(scores_1, scores_2, decision, n_boot, seed,
                         rows_per_cell):
    """z of the stratified bootstrap with every replicate materialised.

    The straightforward implementation: each class draws from its own
    generator spawned from the seed, all n_boot replicates in one call. A
    class with at least rows_per_cell rows per distinct (scores_1,
    scores_2) cell draws each replicate's cell counts with one
    rng.multinomial call, over its cells in ascending order, and each
    count becomes that many copies of the cell's first row; any other
    class draws row indices with one rng.integers call. Then it builds the
    two (n_boot, m) resampled score matrices and takes each replicate's
    2U = 2*rank_sum - P(P+1), twice its Mann-Whitney count, from row-wise
    midranks; z is the full sample's 2U_1 - 2U_2 over the sd of the
    replicates'. Uses the same random streams as
    scalereduce.bootstrap_test, so the two agree exactly. Returns None
    when the replicate differences have no spread.
    """
    from scipy.stats import rankdata

    s1 = np.asarray(scores_1, dtype=float)
    s2 = np.asarray(scores_2, dtype=float)
    d = np.asarray(decision, dtype=bool)
    pos = np.nonzero(d)[0]
    neg = np.nonzero(~d)[0]
    n_pos = pos.size

    def draw(rows, rng):
        """(n_boot, rows.size) indices of each replicate's drawn rows."""
        cells = {}
        for i in rows:  # a dict key does not tell -0.0 from 0.0
            cells.setdefault((float(s1[i]), float(s2[i])), []).append(i)
        keys = sorted(cells)
        if len(keys) * rows_per_cell > rows.size:
            return rows[rng.integers(0, rows.size, size=(n_boot, rows.size))]
        freq = np.array([len(cells[k]) for k in keys]) / rows.size
        first = [cells[k][0] for k in keys]
        return np.array([
            np.repeat(first, counts)
            for counts in rng.multinomial(rows.size, freq, size=n_boot)
        ])

    pos_draw, neg_draw = (
        draw(rows, np.random.default_rng(s))
        for rows, s in zip((pos, neg), np.random.SeedSequence(seed).spawn(2))
    )

    def twice_u_by_row(s):
        rep = np.concatenate((s[pos_draw], s[neg_draw]), axis=1)
        rank_sum = rankdata(rep, method="average", axis=1)[:, :n_pos].sum(axis=1)
        return 2 * rank_sum - n_pos * (n_pos + 1)

    def twice_u_full(s):
        ranks = rankdata(s, method="average")
        return 2 * ranks[d].sum() - n_pos * (n_pos + 1)

    diffs = twice_u_by_row(s1) - twice_u_by_row(s2)
    sd = float(diffs.std(ddof=1)) if n_boot > 1 else 0.0
    if not np.isfinite(sd) or sd <= 0.0:
        return None
    return float((twice_u_full(s1) - twice_u_full(s2)) / sd)


def bootstrap_variance_exact(scores_1, scores_2, decision) -> float:
    """Ideal variance of the stratified-bootstrap AUC difference.

    The limit, as n_boot grows, of the variance of auc_1 - auc_2 over
    replicates that each redraw P positives and N negatives with
    replacement. By pair enumeration: take h = psi_1 - psi_2 over all P*N
    positive-negative pairs, with mean hbar, row means r_i (one per
    positive) and column means c_j (one per negative); then

        Var* = ((N-1)*z10 + (P-1)*z01 + z11) / (P*N)

    with z10 = mean((r_i - hbar)^2), z01 = mean((c_j - hbar)^2) and
    z11 = mean((h_ij - hbar)^2) (Bandos, Rockette & Gur 2007). Independent
    of any random stream.
    """
    rows = [
        (float(a), float(b), bool(d))
        for a, b, d in zip(scores_1, scores_2, decision)
    ]
    pos = [(a, b) for a, b, d in rows if d]
    neg = [(a, b) for a, b, d in rows if not d]
    n_pos, n_neg = len(pos), len(neg)
    h = [
        [psi(p1, n1) - psi(p2, n2) for n1, n2 in neg]
        for p1, p2 in pos
    ]
    mean = sum(x for row in h for x in row) / (n_pos * n_neg)
    row_means = [sum(row) / n_neg for row in h]
    col_means = [sum(row[j] for row in h) / n_pos for j in range(n_neg)]
    z10 = sum((r - mean) ** 2 for r in row_means) / n_pos
    z01 = sum((c - mean) ** 2 for c in col_means) / n_neg
    z11 = sum((x - mean) ** 2 for row in h for x in row) / (n_pos * n_neg)
    return ((n_neg - 1) * z10 + (n_pos - 1) * z01 + z11) / (n_pos * n_neg)


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
        fh = open(path, newline="", encoding="utf-8-sig")
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
