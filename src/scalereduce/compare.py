"""Tests for the AUC difference of two correlated ROC curves.

Both curves are built from the same examples (same decision vector), e.g.
the reduced-scale sum and that sum plus one more item, so the comparison
must account for the correlation. Two methods:

* delong_test: asymptotic normal test. With placement values v10 (one per
  positive) and v01 (one per negative) for each score vector,

      Var(auc_r)  = var(v10_r)/P + var(v01_r)/N
      Cov(a1, a2) = cov(v10_1, v10_2)/P + cov(v01_1, v01_2)/N
      z = (auc_1 - auc_2) / sqrt(Var1 + Var2 - 2 Cov)

  using unbiased sample (co)variances (P-1, N-1 denominators).

* bootstrap_test: stratified resampling. Each replicate redraws P positives
  and N negatives with replacement, keeping scores_1/scores_2 paired within
  each drawn row; z = (auc_1 - auc_2) / sd of the replicate AUC differences.
  Fully determined by the seed. A replicate is held as how often it drew
  each distinct (scores_1, scores_2) cell of each class, so memory grows
  with n_boot times the number of cells, not n_boot times the rows.

Zero-difference convention: when auc_1 equals auc_2 exactly the result is
z = 0, p = 1, whatever the variance would be; this avoids 0/0 on identical
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateVariance, NoNextAttribute
from .reduction import AucRanking, reduce_ranking, total_auc
from .roc import _level_counts, _levels, _split, _twice_u, auc, placements, sum_scores

ALTERNATIVES = ("two-sided", "less", "greater")

# Bootstrap replicates drawn and evaluated together; bounds the transient
# memory to one block of draws.
_BLOCK = 64


@dataclass(frozen=True)
class PairedRocTest:
    """Outcome of a correlated-ROC AUC comparison.

    z is signed by auc_1 - auc_2. For alternative "greater" the alternative
    hypothesis is auc_1 > auc_2; "less" the reverse. n_boot and seed are
    set for bootstrap results only.
    """

    method: str
    auc_1: float
    auc_2: float
    z: float
    p_value: float
    alternative: str
    n_boot: int | None = None
    seed: int | None = None


def _p_value(z: float, alternative: str) -> float:
    """Normal-tail p-value of z; z == 0 (equal AUCs) gives p = 1."""
    if alternative not in ALTERNATIVES:
        raise ValueError(
            f"alternative must be one of {ALTERNATIVES}, got {alternative!r}"
        )
    if z == 0.0:
        return 1.0
    if alternative == "two-sided":
        return math.erfc(abs(z) / math.sqrt(2.0))
    sign = 1.0 if alternative == "greater" else -1.0
    return 0.5 * math.erfc(sign * z / math.sqrt(2.0))


def _paired_test(method, scores_1, scores_2, decision, alternative, sd_of_diff,
                 **params) -> PairedRocTest:
    """Split, shape check, both AUCs and the zero-difference shortcut shared
    by both tests; sd_of_diff(s1, s2, d) is called only for unequal AUCs."""
    s1, d = _split(scores_1, decision)
    s2, _ = _split(scores_2, decision)
    if s1.shape != s2.shape:
        raise ValueError("score vectors must have the same length")
    auc_1 = auc(s1, d)
    auc_2 = auc(s2, d)
    z = 0.0 if auc_1 == auc_2 else float((auc_1 - auc_2) / sd_of_diff(s1, s2, d))
    return PairedRocTest(
        method=method, auc_1=auc_1, auc_2=auc_2,
        z=z, p_value=_p_value(z, alternative), alternative=alternative,
        **params,
    )


def _delong_sd(s1: np.ndarray, s2: np.ndarray, d: np.ndarray) -> float:
    n_pos = int(d.sum())
    n_neg = d.size - n_pos
    if n_pos < 2 or n_neg < 2:
        raise DegenerateVariance(
            "need at least two positives and two negatives to estimate variance"
        )
    p1 = placements(s1, d)
    p2 = placements(s2, d)
    s10 = np.cov(p1.v10, p2.v10, ddof=1)
    s01 = np.cov(p1.v01, p2.v01, ddof=1)
    var_1 = s10[0, 0] / n_pos + s01[0, 0] / n_neg
    var_2 = s10[1, 1] / n_pos + s01[1, 1] / n_neg
    cov_12 = s10[0, 1] / n_pos + s01[0, 1] / n_neg
    var_diff = var_1 + var_2 - 2.0 * cov_12
    if var_diff <= 0.0:
        raise DegenerateVariance(
            f"variance of the AUC difference is {var_diff!r} with unequal AUCs"
        )
    return np.sqrt(var_diff)


def delong_test(
    scores_1, scores_2, decision, alternative: str = "two-sided"
) -> PairedRocTest:
    """Asymptotic test for a difference of two correlated AUCs."""
    return _paired_test(
        "delong", scores_1, scores_2, decision, alternative, _delong_sd
    )


def _cell_counts(
    rng, cell_of_row: np.ndarray, n_cells: int, n_boot: int
) -> np.ndarray:
    """(n_boot, n_cells) counts of how often each replicate drew each cell.

    Draws rng.integers(0, n, size=(n_boot, n)) over this class's n rows,
    block by block, which leaves the random stream exactly as one call
    would. A count is at most n, so int32 holds it.
    """
    n = cell_of_row.size
    counts = np.empty((n_boot, n_cells), dtype=np.int32)
    for start in range(0, n_boot, _BLOCK):
        rows = min(_BLOCK, n_boot - start)
        cells = cell_of_row[rng.integers(0, n, size=(rows, n))]
        cells += n_cells * np.arange(rows)[:, None]
        counts[start:start + rows] = np.bincount(
            cells.ravel(), minlength=rows * n_cells
        ).reshape(rows, n_cells)
    return counts


def _on_levels(
    counts: np.ndarray, level_of_cell: np.ndarray, n_levels: int
) -> np.ndarray:
    """Sum per-cell counts (rows, cells) into per-level counts (rows, levels)."""
    rows = counts.shape[0]
    slots = level_of_cell + n_levels * np.arange(rows)[:, None]
    return np.bincount(
        slots.ravel(), weights=counts.ravel(), minlength=rows * n_levels
    ).reshape(rows, n_levels)


def _bootstrap_sd(s1: np.ndarray, s2: np.ndarray, d: np.ndarray,
                  n_boot: int, seed: int) -> float:
    """Sd of the replicate AUC differences, from per-cell draw counts.

    Every count and every 2U sum is an integer below 2**53, so the float
    arithmetic on them is exact and each replicate AUC is rounded once.
    """
    levels_1, _, _, level_1 = _level_counts(s1, d)
    levels_2, _, _, level_2 = _level_counts(s2, d)
    n_1, n_2 = levels_1.size, levels_2.size
    rng = np.random.default_rng(seed)
    classes = []
    for rows in (d, ~d):  # positives first: the draw order fixes the stream
        cells, cell_of_row = _levels(level_1[rows] * n_2 + level_2[rows])
        counts = _cell_counts(rng, cell_of_row, cells.size, n_boot)
        classes.append((cells // n_2, cells % n_2, counts))
    (pos_1, pos_2, pos_counts), (neg_1, neg_2, neg_counts) = classes

    twice_pn = 2 * int(d.sum()) * int((~d).sum())
    diffs = np.empty(n_boot)
    for start in range(0, n_boot, _BLOCK):
        block = slice(start, start + _BLOCK)
        aucs = [
            _twice_u(
                _on_levels(pos_counts[block], pos_level, n_levels),
                _on_levels(neg_counts[block], neg_level, n_levels),
            ) / twice_pn
            for pos_level, neg_level, n_levels in (
                (pos_1, neg_1, n_1), (pos_2, neg_2, n_2)
            )
        ]
        diffs[block] = aucs[0] - aucs[1]

    sd = float(diffs.std(ddof=1)) if n_boot > 1 else 0.0
    if not np.isfinite(sd) or sd <= 0.0:
        raise DegenerateVariance(
            "bootstrap AUC differences have zero spread with unequal AUCs"
        )
    return sd


def bootstrap_test(
    scores_1,
    scores_2,
    decision,
    alternative: str = "two-sided",
    n_boot: int = 2000,
    seed: int | None = None,
) -> PairedRocTest:
    """Stratified-bootstrap test for a difference of two correlated AUCs."""
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    if seed is None:
        raise ValueError("bootstrap_test requires an explicit seed")
    return _paired_test(
        "bootstrap", scores_1, scores_2, decision, alternative,
        lambda s1, s2, d: _bootstrap_sd(s1, s2, d, n_boot, seed),
        n_boot=n_boot, seed=seed,
    )


def _inclusion_scores(
    ds: Dataset, ranking: AucRanking
) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of the reduced scale (scores_1) and those sums plus the next
    item in ranking order (scores_2): the item whose addition first failed
    to improve the running AUC."""
    scale = reduce_ranking(ranking)
    kept = len(scale.items)
    if kept == ds.n_items:
        raise NoNextAttribute(
            "the scale was not reducible: the reduction retained every "
            "item, so there is no next attribute whose inclusion could be "
            "tested"
        )
    scores_1 = sum_scores(ds, scale.items)
    return scores_1, scores_1 + ds.column(ranking.order[kept])


def _inclusion_test(
    scores_1, scores_2, decision, method: str, alternative: str,
    n_boot: int, seed: int | None,
) -> PairedRocTest:
    if method == "delong":
        return delong_test(scores_1, scores_2, decision, alternative)
    if method == "bootstrap":
        return bootstrap_test(
            scores_1, scores_2, decision, alternative, n_boot=n_boot, seed=seed
        )
    raise ValueError(f"method must be 'delong' or 'bootstrap', got {method!r}")


def check_attr_for_inclusion(
    ds: Dataset,
    method: str = "delong",
    alternative: str = "two-sided",
    n_boot: int = 2000,
    seed: int | None = None,
) -> PairedRocTest:
    """Should one more item join the reduced scale?

    Runs the reduction, sums the retained prefix (scores_1), adds the next
    item in ranking order (scores_2) and tests the AUC difference with the
    chosen method. The next item is exactly the one whose addition first
    failed to improve the running AUC.
    """
    scores_1, scores_2 = _inclusion_scores(ds, total_auc(ds))
    return _inclusion_test(
        scores_1, scores_2, ds.decision, method, alternative, n_boot, seed
    )
