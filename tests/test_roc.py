import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalereduce import (
    auc,
    bootstrap_test,
    delong_test,
    load_csv,
    placements,
    roc_curve,
    sum_scores,
    total_auc,
)
from scalereduce.cli import _orient
from scalereduce.dataset import Dataset
from scalereduce.errors import ScoreOverflow, SingleClass, UnknownColumn
from scalereduce.roc import _class_counts, _running_sums

from conftest import random_scores_decision, write_csv
from oracles import auc_pairs, placements_pairs


class TestAuc:
    def test_perfect_separation(self):
        assert auc([2, 3, 0, 1], [1, 1, 0, 0]) == 1.0

    def test_constant_scores_give_half(self):
        assert auc([5, 5, 5, 5, 5], [1, 0, 1, 0, 0]) == 0.5

    def test_tied_pair_example(self):
        # pairs: (1,1)=.5 (1,0)=1 (2,1)=1 (2,0)=1 -> 3.5/4
        assert auc([1, 2, 1, 0], [1, 1, 0, 0]) == 0.875

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            auc([1, 2, 3], [1, 1, 1])

    def test_matches_pair_enumeration_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            scores, decision = random_scores_decision(rng)
            assert auc(scores, decision) == auc_pairs(scores, decision)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores, decision = random_scores_decision(rng)
            total = auc(scores, decision) + auc(scores, ~decision)
            assert abs(total - 1.0) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores, decision = random_scores_decision(rng)
            base = auc(scores, decision)
            assert auc(3.0 * scores + 2.0, decision) == base
            assert auc(scores**3, decision) == base


class TestRocCurve:
    def test_perfect_curve_passes_through_corner(self):
        curve = roc_curve([2, 3, 0, 1], [1, 1, 0, 0])
        assert (0.0, 1.0) in {(f, t) for f, t, _ in curve.points}
        assert curve.auc == 1.0

    def test_two_point_example(self):
        curve = roc_curve([1, 0], [1, 0])
        assert [(f, t) for f, t, _ in curve.points] == [
            (0.0, 0.0), (0.0, 1.0), (1.0, 1.0),
        ]
        assert curve.thresholds[0] == np.inf

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            scores, decision = random_scores_decision(rng)
            curve = roc_curve(scores, decision)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert (np.diff(curve.fpr) >= 0).all()
            assert (np.diff(curve.tpr) >= 0).all()

    def test_one_point_per_distinct_score(self):
        curve = roc_curve([1, 1, 2, 2, 0], [1, 0, 1, 0, 0])
        # sentinel + three distinct values
        assert len(curve.points) == 4

    def test_trapezoid_equals_mann_whitney(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            scores, decision = random_scores_decision(rng)
            curve = roc_curve(scores, decision)
            assert curve.auc == auc(scores, decision)

    def test_counts_recorded(self):
        curve = roc_curve([1, 2, 3, 4], [0, 1, 0, 1])
        assert curve.n_pos == 2 and curve.n_neg == 2


class TestPlacements:
    def test_perfect_separation(self):
        p = placements([2, 3, 0, 1], [1, 1, 0, 0])
        assert p.v10.tolist() == [1.0, 1.0]
        assert p.v01.tolist() == [1.0, 1.0]

    def test_single_tied_pair(self):
        p = placements([1, 1], [1, 0])
        assert p.v10.tolist() == [0.5]
        assert p.v01.tolist() == [0.5]

    def test_tie_example(self):
        p = placements([1, 2, 1, 0], [1, 1, 0, 0])
        assert p.v10.tolist() == [0.75, 1.0]
        assert p.v01.tolist() == [0.75, 1.0]
        assert p.v10.mean() == 0.875

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            scores, decision = random_scores_decision(rng)
            p = placements(scores, decision)
            v10, v01 = placements_pairs(scores, decision)
            assert np.allclose(p.v10, v10, atol=1e-12, rtol=0)
            assert np.allclose(p.v01, v01, atol=1e-12, rtol=0)

    def test_means_equal_auc(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            scores, decision = random_scores_decision(rng)
            p = placements(scores, decision)
            a = auc(scores, decision)
            assert abs(p.v10.mean() - a) < 1e-12
            assert abs(p.v01.mean() - a) < 1e-12
            assert ((p.v10 >= 0) & (p.v10 <= 1)).all()
            assert ((p.v01 >= 0) & (p.v01 <= 1)).all()


@st.composite
def scored_examples(draw):
    """Scores drawn from a few levels (ties, signed zeros, and wide values)
    with a decision holding both classes."""
    levels = draw(st.lists(
        st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0, 1e300, -1e-300, 7.25]),
        min_size=1, max_size=5, unique_by=repr,
    ))
    m = draw(st.integers(2, 40))
    scores = draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m))
    decision = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    decision[0], decision[1] = True, False
    return np.array(scores), np.array(decision)


@settings(max_examples=300, deadline=None)
@given(scored_examples())
def test_counting_kernel_equals_pair_enumeration_exactly(example):
    scores, decision = example
    assert auc(scores, decision) == auc_pairs(scores, decision)
    p = placements(scores, decision)
    v10, _ = placements_pairs(scores, decision)
    assert p.v10.tolist() == v10
    # v01 is 1 minus each negative's own placement among the positives;
    # 1 - x/P and (P - x)/P can round apart, so compare in that form
    own, _ = placements_pairs(scores, ~decision)
    assert p.v01.tolist() == [1.0 - v for v in own]


@st.composite
def level_inputs(draw):
    """Scores base + step * code with codes spanning up to about 4*m (the
    counting path's limit for signed integers) and a decision with both
    classes. Float scores have a few entries overwritten by NaN, inf,
    signed zeros or a fraction; int8, int16 and int64 scores sit anywhere
    in their dtype's range, up to either end, and a few entries may be
    overwritten by either end or 0."""
    m = draw(st.integers(2, 60))
    span = draw(st.sampled_from([1, 4 * m - 1, 4 * m, 4 * m + 1]))
    codes = draw(st.lists(st.integers(0, span), min_size=m - 2, max_size=m - 2))
    codes = np.array([0, span, *codes])
    dtype = draw(st.sampled_from([float, np.int8, np.int16, np.int64]))
    if dtype is float:
        base = draw(st.sampled_from([0.0, -0.0, -37.0, 0.5, -2.5, -0.1, 1e17,
                                     -1e17, 2.0**60, 1e300]))
        step = draw(st.sampled_from([1.0, 16.0, 0.5, 0.1]))
        scores = base + step * codes.astype(float)
        overwrites = [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.3, np.nextafter(1.9, 2)]
    else:
        info = np.iinfo(dtype)
        step = min(draw(st.sampled_from([1, 3])), (info.max - info.min) // span)
        base = draw(st.sampled_from([info.min, -37, 0, info.max]))
        scores = (min(base, info.max - step * span) + step * codes).astype(dtype)
        overwrites = [info.min, info.max, 0]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        scores[i] = draw(st.sampled_from(overwrites))
    decision = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    decision[0], decision[1] = True, False
    return scores, decision


@settings(max_examples=600, deadline=None, derandomize=True)
@given(level_inputs())
# 1.9 and the next float up both sit 2.0 above -0.1 in float subtraction:
# an integral offset alone would merge them, np.unique does not
@example((np.array([-0.1, 1.9, np.nextafter(1.9, 2)]), np.array([True, False, True])))
# the top level holds negatives only: its (level, class) count needs minlength
@example((np.array([0.0, 1.0, 2.0, 3.0]), np.array([True, False, True, False])))
# gapped float levels {0, 5, 9} are sorted, so none is empty
@example((np.array([5.0, 0.0, 9.0, 5.0, 0.0]), np.array([True, False, True, False, True])))
# gapped integer levels {0, 5, 9} span their range: 1-4 and 6-8 are empty
@example((np.array([5, 0, 9, 5, 0]), np.array([True, False, True, False, True])))
# dense levels: every level in range holds a row
@example((np.array([2.0, 0.0, 1.0, 2.0, 1.0]), np.array([True, False, False, True, False])))
@example((np.array([2, 0, 1, 2, 1]), np.array([True, False, False, True, False])))
# a narrow range at either int64 end is counted in intp offsets
@example((np.array([2**63 - 1, 2**63 - 3, 2**63 - 1]), np.array([True, False, False])))
@example((np.array([-2**63, -2**63 + 2, -2**63]), np.array([True, False, True])))
# both int64 ends: the range itself overflows int64, so it is sorted
@example((np.array([-2**63, 2**63 - 1, 0]), np.array([True, False, True])))
def test_level_counts_equal_np_unique_on_every_path(case):
    # integer-coded scores are counted over their range, the rest sorted by
    # np.unique; both must give np.unique's grouping once empty levels are
    # dropped, and the ROC curve must drop them, all without a warning;
    # where a NaN was drawn, _class_counts must reject it
    scores, decision = case
    distinct = np.unique(scores)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if np.isnan(scores).any():
            with pytest.raises(ValueError, match="NaN"):
                _class_counts(scores, decision)
            return
        counts = _class_counts(scores, decision)
        curve = roc_curve(scores, decision)
    d, levels, index = counts.decision, counts.levels, counts.index
    pos, neg, slot = counts.pos, counts.neg, counts.slot
    assert d.tolist() == decision.tolist()
    # the index is intp, so products of it cannot wrap; the slot is the
    # narrowest unsigned dtype holding 2 * index + decision for every level
    assert index.dtype == np.intp
    assert np.array_equal(slot, 2 * index + d)
    assert slot.dtype == np.min_scalar_type(2 * levels.size - 1)
    # compared, not differenced: np.diff overflows at the int64 ends
    assert (levels[1:] > levels[:-1]).all()
    assert np.array_equal(levels[index], scores)  # 0.0 == -0.0
    assert np.array_equal(levels[pos + neg > 0], distinct)
    assert pos.tolist() == np.bincount(index[decision], minlength=levels.size).tolist()
    assert neg.tolist() == np.bincount(index[~decision], minlength=levels.size).tolist()
    if scores.dtype.kind == "f" or int(scores.max()) - int(scores.min()) > 4 * scores.size:
        assert levels.size == distinct.size  # sorted: no empty level
    # the origin, then one point per distinct score, highest first
    assert curve.thresholds.tolist() == [np.inf, *distinct[::-1].tolist()]
    assert curve.fpr.size == curve.tpr.size == distinct.size + 1


def test_integer_scores_past_2_53_compare_exactly():
    # both round to the same float, which would tie them at AUC 0.5
    assert auc([2**53 + 1, 2**53], [1, 0]) == 1.0
    assert roc_curve(np.array([2**62 + 1, 2**62]), [1, 0]).auc == 1.0


@pytest.mark.parametrize("top", [2**53 + 1, 2**63 + 1, 2**64 - 1])
def test_unsigned_scores_compare_exactly(top):
    # top and top - 1 round to one float64: as floats they would tie and
    # give 0.75; below 2**63 they are counted as int64, above it sorted
    scores = np.array([top, top - 1, top - 1, 7], dtype=np.uint64)
    assert auc(scores, [1, 0, 1, 0]) == 0.875
    assert roc_curve(scores, [1, 0, 1, 0]).thresholds.tolist() == [
        np.inf, top, top - 1, 7]
    assert placements(scores, [1, 0, 1, 0]).v10.tolist() == [1.0, 0.75]


def test_bool_and_small_unsigned_scores_match_pair_enumeration():
    decision = [1, 0, 1, 0, 0]
    for scores in (np.array([True, False, True, True, False]),
                   np.array([255, 0, 3, 255, 3], dtype=np.uint8)):
        assert auc(scores, decision) == auc_pairs(scores.astype(int), decision)


def test_thresholds_keep_integer_levels_past_2_53_apart():
    # float64 would repeat one threshold for two levels the AUC counts apart
    curve = roc_curve(np.array([2**62 + 1, 2**62]), [1, 0])
    assert curve.thresholds.tolist() == [np.inf, 2**62 + 1, 2**62]
    assert curve.points[1] == (0.0, 1.0, 2**62 + 1)
    # levels that float64 holds exactly keep float64 thresholds
    for scores in ([2**62, 3], [-2**53, 2**53], [3, 1]):
        thresholds = roc_curve(np.array(scores), [1, 0]).thresholds
        assert thresholds.dtype == np.float64
        assert thresholds.tolist() == [np.inf, *sorted(scores, reverse=True)]


@pytest.mark.parametrize("scores", [[np.nan, 1, 0], [np.nan, np.nan, 0],
                                    [1, 0, np.nan]])
@pytest.mark.parametrize("call", [
    auc,
    roc_curve,
    placements,
    lambda s, d: delong_test(s, [2, 1, 0], d),
    lambda s, d: bootstrap_test([2, 1, 0], s, d, n_boot=10, seed=0),
], ids=["auc", "roc_curve", "placements", "delong_test", "bootstrap_test"])
def test_nan_scores_raise(call, scores):
    # psi cannot order NaN, so pair enumeration counts no pair with it as
    # won; np.unique sorts NaN last as one level, which would have ranked
    # it above every number (auc([nan, 1, 0], [1, 0, 0]) was 1.0)
    with pytest.raises(ValueError, match="NaN"):
        call(scores, [1, 0, 0])


class TestSumScores:
    def test_one_column_verbatim(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        assert np.array_equal(sum_scores(ds, ["a"]), ds.attributes[:, 0])

    def test_zero_columns_sum_to_zero(self, tmp_path):
        from conftest import write_csv
        path = write_csv(
            tmp_path / "zeros.csv",
            ["a", "b", "d"],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        )
        ds = load_csv(path, "d")
        assert sum_scores(ds, ["a", "b"]).tolist() == [0.0, 0.0, 0.0]

    def test_sum_matches_numpy(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        assert np.allclose(
            sum_scores(ds, ["a", "b"]), ds.attributes.sum(axis=1)
        )

    def test_unknown_column(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        with pytest.raises(UnknownColumn):
            sum_scores(ds, ["a", "zzz"])
        with pytest.raises(UnknownColumn, match="1.7"):
            sum_scores(ds, [1.7])

    def test_empty_selection_rejected(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        with pytest.raises(ValueError):
            sum_scores(ds, [])

    def test_sum_past_float64_range_raises_naming_items(self, tmp_path):
        path = write_csv(tmp_path / "huge.csv", ["a", "b", "c", "d"],
                         [[1e308, 0, 1.5e308, 0], [1e308, 1, 1e308, 1]])
        ds = load_csv(path, "d")
        assert sum_scores(ds, ["a", "b"]).tolist() == [1e308, 1e308]
        with pytest.raises(ScoreOverflow, match="items b, a, c overflows"):
            sum_scores(ds, ["b", "a", "c"])
        with pytest.raises(ScoreOverflow):
            total_auc(ds)


@pytest.mark.parametrize("auto_orient", [False, True],
                         ids=["as-is", "flipped"])
@pytest.mark.parametrize("top", [127, -127, 32767, -32767])
def test_narrow_running_sums_equal_int64_row_sums(top, auto_orient):
    # 300 identical items, each at top in one positive row and at -top in
    # one negative row: int8 items sum to +-38100 and int16 items to
    # +-9830100, both past int16; a wrapped sum would reorder the rows and
    # move the running AUCs. Items with a negative top rank below AUC 0.5,
    # so --auto-orient's flip negates every column
    decision = np.array([True, True, False, False])
    column = np.array([top, 0, 0, -top])
    labels = tuple(f"q{i}" for i in range(300))
    ds = Dataset(np.tile(column[:, None], 300), labels, decision)
    assert ds.attributes.dtype == (np.int8 if abs(top) < 128 else np.int16)
    ds, flipped, _ = _orient(ds, auto_orient)
    assert len(flipped) == (300 if auto_orient and top < 0 else 0)
    wide = ds.attributes.astype(np.int64)
    idx = list(range(300))
    for k, total in enumerate(_running_sums(ds, idx), 1):
        assert total.tolist() == wide[:, :k].sum(axis=1).tolist()
    scores = sum_scores(ds, labels)
    assert scores.dtype == np.int64
    assert scores.tolist() == wide.sum(axis=1).tolist()
    ranking = total_auc(ds)
    assert ranking.order == labels
    assert ranking.running_auc == tuple(
        auc(wide[:, :k].sum(axis=1), decision) for k in range(1, 301))
