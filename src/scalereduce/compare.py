"""Tests for the AUC difference of two correlated ROC curves.

Both curves are built from the same examples (same decision vector), e.g.
the reduced-scale sum and that sum plus one more item, so the comparison
must account for the correlation. Two methods:

* delong_test: asymptotic normal test (DeLong, DeLong & Clarke-Pearson,
  1988): z**2 = (auc_1 - auc_2)**2 / (var(v10_1 - v10_2)/P
  + var(v01_1 - v01_2)/N), unbiased variances of the placement differences,
  formed in integers. With x = 2N*(v10_1 - v10_2) over the positives and
  y = 2P*(v01_2 - v01_1) over the negatives (off roc._twice_below), the sum
  sx = sum(x) = 2U_1 - 2U_2 (2U: twice the Mann-Whitney count),
  ssx = P*sum(x**2) - sx**2 and ssy = N*sum(y**2) - sum(y)**2,

      z**2 = sx**2 (P-1)(N-1) / (ssx (N-1) + ssy (P-1))

* bootstrap_test: stratified resampling. Each replicate redraws P positives
  and N negatives with replacement, keeping scores_1/scores_2 paired within
  each drawn row; z = (2U_1 - 2U_2) / sd of the replicates' 2U_1 - 2U_2.
  Fully determined by the seed: each class draws from its own generator,
  both spawned from the seed, as the two classes are resampled
  independently. Replicates are evaluated one block at a time, so memory
  grows with the rows, not with n_boot. Per score, a block counts its
  drawn negatives on the levels the negatives occupy, and each drawn
  positive reads its 2U contribution off one table over those levels and
  the gaps between them; each row's place among them is read off the
  negative counts per level that the scores were already counted into. A
  class with at least _ROWS_PER_CELL (20) rows per distinct (scores_1,
  scores_2) cell draws how often each cell is drawn as one multinomial, at
  a cost that grows with the cells; any other class draws one row index
  per row. The two give the same counts in distribution, not the same
  random stream.

Zero-difference convention: when auc_1 equals auc_2 exactly the result is
z = 0, p = 1, whatever the variance would be; this avoids 0/0 on identical
curves.

Every test is one _paired_test call, which reads both AUCs and the
method's spread off the two score vectors' level counts. delong_test and
bootstrap_test count their vectors in _vector_test; check_attr_for_inclusion
and the CLI's test-inclusion take the counts of the kept and the next
running sums from reduction._walk, through _next_counts, and sum nothing.
Each public function checks its arguments once, before any work.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateVariance, NoNextAttribute
from .reduction import ReducedScale, _walk, start_auc
from .roc import _area, _class_counts, _split, _twice_below, _twice_u

ALTERNATIVES = ("two-sided", "less", "greater")

# Bootstrap replicates are drawn and evaluated in blocks of as many as
# keep the widest per-replicate array (a class's drawn rows or cells, or a
# score's slot table) within this many entries, and at least one. The
# bootstrap holds one block's draws, counts and tables at a time, so its
# memory does not grow with n_boot. Consecutive blocks leave the random
# streams as one draw would, so, unlike _ROWS_PER_CELL, this is a tuning
# knob that changes no output.
_BLOCK = 2**15

# A class with at least this many rows per distinct (scores_1, scores_2)
# cell draws a block's cell counts as one multinomial, at a cost that
# grows with its cells; any other class draws one row index per row. The
# two cost about the same near 20 rows per cell. Which way a class draws
# decides its random stream, so changing this constant changes bootstrap
# z: it is part of the output, not a tuning knob.
_ROWS_PER_CELL = 20

# While P*N*max(P, N) < this, DeLong's sums of squares (<= 4x it) fit int64.
_INT64_MOMENTS = 2**61


@dataclass(frozen=True)
class PairedRocTest:
    """Outcome of a correlated-ROC AUC comparison.

    z is signed by auc_1 - auc_2. For alternative "greater" the alternative
    hypothesis is auc_1 > auc_2; "less" the reverse. n_boot and seed are
    set for bootstrap results only. The fields are in the order of a test
    entry in the CLI's report, which is dataclasses.asdict of this record.
    """

    method: str
    z: float
    p_value: float
    auc_1: float
    auc_2: float
    alternative: str
    n_boot: int | None = None
    seed: int | None = None


def _check(method, alternative, n_boot=None, seed=None):
    """Raise ValueError for a bad argument; n_boot and seed are bootstrap's.
    Returns the n_boot and seed to record: Python ints for the bootstrap,
    None for DeLong."""
    if method not in ("delong", "bootstrap"):
        raise ValueError(f"method must be 'delong' or 'bootstrap', got {method!r}")
    if alternative not in ALTERNATIVES:
        raise ValueError(
            f"alternative must be one of {ALTERNATIVES}, got {alternative!r}"
        )
    if method == "delong":
        return None, None
    if seed is None:
        raise ValueError("bootstrap_test requires an explicit seed")
    ints = []
    for name, value in (("n_boot", n_boot), ("seed", seed)):
        try:
            ints.append(operator.index(value))
        except TypeError:
            raise ValueError(
                f"{name} must be an integer, got {value!r}") from None
    n_boot, seed = ints
    if n_boot < 1:
        raise ValueError(f"n_boot must be >= 1, got {n_boot}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return n_boot, seed


def _p_value(z: float, alternative: str) -> float:
    """Normal-tail p-value of z; z == 0 (equal AUCs) gives p = 1."""
    if z == 0.0:
        return 1.0
    if alternative == "two-sided":
        return math.erfc(abs(z) / math.sqrt(2.0))
    sign = 1.0 if alternative == "greater" else -1.0
    return 0.5 * math.erfc(sign * z / math.sqrt(2.0))


def _paired_test(method, c1, c2, alternative, n_boot, seed) -> PairedRocTest:
    """The method's test of two score vectors from their _class_counts c1
    and c2, recording n_boot and seed as given; both AUCs and the spread
    are read off those counts. Equal AUCs give z = 0 without a spread."""
    auc_1, auc_2 = _area(c1), _area(c2)
    if auc_1 == auc_2:
        z = 0.0
    elif method == "delong":
        z = _delong_z(c1, c2)
    else:
        twice_diff = int(_twice_u(*c1[2:4])) - int(_twice_u(*c2[2:4]))
        z = twice_diff / _bootstrap_sd(c1, c2, n_boot, seed)
    return PairedRocTest(
        method=method, auc_1=auc_1, auc_2=auc_2, z=z,
        p_value=_p_value(z, alternative), alternative=alternative,
        n_boot=n_boot, seed=seed,
    )


def _vector_test(method, scores_1, scores_2, decision, alternative,
                 n_boot=None, seed=None) -> PairedRocTest:
    """_paired_test of two score vectors, with the arguments checked and
    both vectors split before either is counted."""
    n_boot, seed = _check(method, alternative, n_boot, seed)
    s1, d = _split(scores_1, decision)
    s2, _ = _split(scores_2, decision)
    return _paired_test(method, _class_counts(s1, d), _class_counts(s2, d),
                        alternative, n_boot, seed)


def _delong_z(c1, c2) -> float:
    """DeLong's z from both vectors' _class_counts, by the integer moments
    of the module docstring; within 1 ulp of its exact value."""
    d, _, pos_1, neg_1, level_1 = c1
    _, _, pos_2, neg_2, level_2 = c2
    n_pos, n_neg = int(d.sum()), int((~d).sum())
    wide = n_pos * n_neg * max(n_pos, n_neg) >= _INT64_MOMENTS
    moments = []
    for rows, c_1, c_2 in ((d, neg_1, neg_2), (~d, pos_1, pos_2)):
        t = _twice_below(c_1)[level_1[rows]] - _twice_below(c_2)[level_2[rows]]
        t = t.astype(object) if wide else t
        moments.append((int(t.sum()), t.size * int(t @ t)))
    (sx, px), (sy, py) = moments
    den = (px - sx * sx) * (n_neg - 1) + (py - sy * sy) * (n_pos - 1)
    if den == 0:
        raise DegenerateVariance(
            "variance of the AUC difference is zero with unequal AUCs: the "
            "placement differences are constant or a class has one row")
    return math.copysign(
        math.sqrt(sx * sx * (n_pos - 1) * (n_neg - 1) / den), sx)


def delong_test(
    scores_1, scores_2, decision, alternative: str = "two-sided"
) -> PairedRocTest:
    """Asymptotic test for a difference of two correlated AUCs."""
    return _vector_test("delong", scores_1, scores_2, decision, alternative)


def _bootstrap_sd(c1, c2, n_boot: int, seed: int) -> float:
    """Sd of the replicates' 2U_1 - 2U_2, 2PN times their AUC difference,
    from both vectors' _class_counts.

    For each score, every negative gets its index among the L levels the
    negatives occupy, and every positive its slot lo + hi among the 2L + 1
    gaps and levels, lo and hi the counts of those levels below it and at
    or below it; both are read off the score's negative counts per level,
    a cumsum over the occupied levels. A block counts its drawn negatives
    per level, and one cumsum of the counts gives the table of a positive's
    2U contribution at each slot, below[lo] + below[hi] with below the
    negatives under each level: a replicate's 2U is that table summed over
    its drawn positives.
    A class drawing multinomial cell counts weights each cell's level or
    slot by its count instead. The positives and the negatives each draw
    from their own generator, spawned from seed, one block at a time.
    Every count and every 2U sum is an integer below 2**53, so the float
    arithmetic on them is exact and only the sd is rounded.
    """
    d, _, _, _, level_1 = c1
    _, levels_2, _, _, level_2 = c2
    scores = []
    for _, _, _, neg, level in (c1, c2):
        occupied = neg > 0
        scores.append(((np.cumsum(occupied) - 1)[level[~d]],
                       _twice_below(occupied)[level[d]],
                       np.count_nonzero(occupied)))
    draws = []
    for rows, seq in zip((d, ~d), np.random.SeedSequence(seed).spawn(2)):
        # the first row of each distinct (scores_1, scores_2) cell, the
        # cells in ascending order, and each cell's rows
        _, cell, cell_n = np.unique(
            level_1[rows] * levels_2.size + level_2[rows],
            return_index=True, return_counts=True)
        n = cell_n.sum()
        freq = cell_n / n if cell.size * _ROWS_PER_CELL <= n else None
        draws.append((np.random.default_rng(seq), n, cell, freq))

    block = max(1, _BLOCK // max(
        *(n if freq is None else cell.size for _, n, cell, freq in draws),
        *(2 * width + 1 for _, _, width in scores)))
    diffs = np.empty(n_boot)
    for start in range(0, n_boot, block):
        rows = min(block, n_boot - start)
        # each class's drawn rows, or its cells and how often each was drawn
        (pos_at, pos_n), (neg_at, neg_n) = [
            (rng.integers(0, n, size=(rows, n)), None) if freq is None
            else (cell, rng.multinomial(n, freq, size=rows))
            for rng, n, cell, freq in draws]
        replicate = np.arange(rows)[:, None]
        twice_u = []
        for neg_index, slot, width in scores:
            count = np.bincount(
                (neg_index[neg_at] + width * replicate).ravel(),
                weights=None if neg_n is None else neg_n.ravel(),
                minlength=rows * width).reshape(rows, width)
            # slot 2j + 1 is tied with level j, slot 2j the gap below it;
            # filled in place, as roc._twice_below or np.repeat over the
            # counts would take three to seven times as long
            table = np.zeros((rows, 2 * width + 1), count.dtype)
            above = table[:, 2::2]
            np.cumsum(count, axis=1, out=above)
            above *= 2
            np.subtract(above, count, out=table[:, 1::2])
            at = table.ravel()[slot[pos_at] + (2 * width + 1) * replicate]
            twice_u.append(at.sum(axis=1) if pos_n is None
                           else np.einsum("ij,ij->i", at, pos_n))
        diffs[start:start + rows] = twice_u[0] - twice_u[1]

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
    return _vector_test("bootstrap", scores_1, scores_2, decision,
                        alternative, n_boot=n_boot, seed=seed)


def _next_counts(order: tuple[str, ...], scale: ReducedScale, counts):
    """The _class_counts of the reduced scale's row sums and of those sums
    plus the next item in the ranking order, the one whose addition first
    failed to improve the running AUC: the first two counts of a _walk's
    order, scale and counts."""
    if len(scale.items) == len(order):
        raise NoNextAttribute(
            "the scale was not reducible: the reduction retained every "
            "item, so there is no next attribute whose inclusion could be "
            "tested"
        )
    return next(counts), next(counts)


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
    failed to improve the running AUC; the walk stops there, at running
    AUC kept + 1, and sums no item after it.
    """
    n_boot, seed = _check(method, alternative, n_boot, seed)
    c1, c2 = _next_counts(*_walk(ds, start_auc(ds)))
    return _paired_test(method, c1, c2, alternative, n_boot, seed)
