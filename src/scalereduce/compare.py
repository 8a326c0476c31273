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

* bootstrap_test: the stratified bootstrap, which redraws P positives and
  N negatives with replacement, keeping scores_1/scores_2 paired within
  each drawn row, at its exact n_boot -> infinity value (Bandos, Rockette
  & Gur, 2007): z = (2U_1 - 2U_2) / sd*(2U_1 - 2U_2). With H = 2psi_1 -
  2psi_2 over all P*N positive x negative pairs, so that sx = sum(H),

      P*N * Var*(2U_1 - 2U_2) = (N-1) ssx + (P-1) ssy + P*N sum(H**2) - sx**2

  sum(H**2) = sum((2psi_1)**2) + sum((2psi_2)**2) - 2 sum(2psi_1 * 2psi_2);
  the squares come off each vector's level counts, and the cross term is
  four strict 2-D dominance counts over the classes' (scores_1, scores_2)
  cells (_cross). No replicate is drawn, so z depends on the data alone:
  n_boot and seed are checked and recorded, as the CLI's report echoes
  them, but change no result.

Both z**2 are a quotient of Python ints, rounded once, and z is within 1
ulp of its exact value.

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

# While P*N*max(P, N) < this, DeLong's sums of squares (<= 4x it) fit int64.
_INT64_MOMENTS = 2**61


@dataclass(frozen=True)
class PairedRocTest:
    """Outcome of a correlated-ROC AUC comparison.

    z is signed by auc_1 - auc_2. For alternative "greater" the alternative
    hypothesis is auc_1 > auc_2; "less" the reverse. n_boot and seed are
    set for bootstrap results only, as given; they do not change z. The
    fields are in the order of a test entry in the CLI's report, which is
    dataclasses.asdict of this record.
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
    z = 0.0 if auc_1 == auc_2 else _z(method, c1, c2)
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


def _moments(c1, c2) -> tuple[int, int, int]:
    """sx, ssx and ssy of the module docstring, as Python ints, from both
    vectors' _class_counts."""
    d, index_1, index_2 = c1.decision, c1.index, c2.index
    n_pos, n_neg = int(d.sum()), int((~d).sum())
    wide = n_pos * n_neg * max(n_pos, n_neg) >= _INT64_MOMENTS
    moments = []
    for rows, c_1, c_2 in ((d, c1.neg, c2.neg), (~d, c1.pos, c2.pos)):
        t = (_twice_below(c_1)[index_1[rows]]
             - _twice_below(c_2)[index_2[rows]])
        t = t.astype(object) if wide else t
        moments.append((int(t.sum()), t.size * int(t @ t)))
    (sx, px), (sy, py) = moments
    return sx, px - sx * sx, py - sy * sy


def _dominance(query, data) -> int:
    """Sum of w_q * w_p over the query points q and data points p, each
    argument a triple (x, y, w) of integer arrays, y nonnegative, where q
    strictly dominates p: x_q > x_p and y_q > y_p (Bentley, 1980).

    All points are ranked by x, each data point after the query points of
    its x, so a query point's data points of smaller x are those ranked
    before it. Pass k pairs the blocks of 2**k ranks: each query point in
    an upper block adds the weight of its pair's lower block's data points
    of smaller y, found with one argsort of the lower blocks' data by
    (pair, y) and two searchsorted calls. A data point ranked before a
    query point is counted once, at the highest bit in which their ranks
    differ.
    """
    (x_q, y_q, w_q), (x_p, y_p, w_p) = query, data
    rank = np.empty(x_q.size + x_p.size, dtype=np.intp)
    rank[np.argsort(np.concatenate((2 * x_q, 2 * x_p + 1)))] = np.arange(
        rank.size)
    r_q, r_p = rank[:x_q.size], rank[x_q.size:]
    span = int(max(y_q.max(), y_p.max())) + 1
    total = 0
    for k in range((rank.size - 1).bit_length()):
        lower, upper = (r_p >> k) & 1 == 0, (r_q >> k) & 1 == 1
        key = (r_p[lower] >> (k + 1)) * span + y_p[lower]
        at = np.argsort(key)
        key = key[at]
        below = np.concatenate(([0], np.cumsum(w_p[lower][at])))
        pair = (r_q[upper] >> (k + 1)) * span
        ends = np.searchsorted(key, pair + y_q[upper])
        total += int(w_q[upper] @ (below[ends]
                                   - below[np.searchsorted(key, pair)]))
    return total


def _cross(c1, c2) -> int:
    """Sum of 2psi_1 * 2psi_2 over all positive x negative pairs, from both
    vectors' _class_counts. On level indices, 2psi(a, b) = [2a > 2b] +
    [2a + 1 > 2b], so the sum is four strict dominance counts: of the
    positives' distinct (2a_1 + s, 2a_2 + t) cells, s and t in {0, 1},
    over the negatives' (2a_1, 2a_2) cells, each cell weighted by its
    rows, all four in one _dominance call."""
    d, width = c1.decision, c2.levels.size
    cell = c1.index * width + c2.index  # intp: a narrow index would wrap
    cells = []
    for rows in (d, ~d):
        key, n = np.unique(cell[rows], return_counts=True)
        cells.append((2 * (key // width), 2 * (key % width), n))
    (x, y, n), negatives = cells
    return _dominance((np.concatenate((x, x, x + 1, x + 1)),
                       np.concatenate((y, y + 1, y, y + 1)), np.tile(n, 4)),
                      negatives)


_ZERO_SPREAD = {
    "delong": "variance of the AUC difference is zero with unequal AUCs: the "
              "placement differences are constant or a class has one row",
    "bootstrap": "bootstrap AUC differences have zero spread with unequal "
                 "AUCs",
}


def _variance(method, c1, c2) -> tuple[int, int, int]:
    """sx = 2U_1 - 2U_2, and the method's variance of it as the quotient
    spread / scale of Python ints, from both vectors' _class_counts by the
    integer moments of the module docstring."""
    n_pos, n_neg = int(c1.pos.sum()), int(c1.neg.sum())
    sx, ssx, ssy = _moments(c1, c2)
    spread = ssx * (n_neg - 1) + ssy * (n_pos - 1)
    if method == "delong":
        return sx, spread, (n_pos - 1) * (n_neg - 1)
    squares = sum(2 * int(_twice_u(c.pos, c.neg)) - int(c.pos @ c.neg)
                  for c in (c1, c2))
    scale = n_pos * n_neg
    return sx, spread + scale * (squares - 2 * _cross(c1, c2)) - sx * sx, scale


def _z(method, c1, c2) -> float:
    """The method's z = sx / sqrt(spread / scale) of _variance, its square
    a quotient of Python ints rounded once."""
    sx, spread, scale = _variance(method, c1, c2)
    if spread == 0:
        raise DegenerateVariance(_ZERO_SPREAD[method])
    return math.copysign(math.sqrt(sx * sx * scale / spread), sx)


def delong_test(
    scores_1, scores_2, decision, alternative: str = "two-sided"
) -> PairedRocTest:
    """Asymptotic test for a difference of two correlated AUCs."""
    return _vector_test("delong", scores_1, scores_2, decision, alternative)


def bootstrap_test(
    scores_1,
    scores_2,
    decision,
    alternative: str = "two-sided",
    n_boot: int = 2000,
    seed: int | None = None,
) -> PairedRocTest:
    """Stratified-bootstrap test for a difference of two correlated AUCs,
    at the bootstrap's exact n_boot -> infinity variance; n_boot and seed
    are checked and recorded but do not change z."""
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
