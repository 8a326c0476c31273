import json
import math
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from scalereduce import (
    Dataset,
    auc,
    bootstrap_test,
    check_attr_for_inclusion,
    delong_test,
    sum_scores,
    total_auc,
    rsr,
)
from scalereduce import compare
from scalereduce.compare import _BLOCK, _ROWS_PER_CELL, _bootstrap_sd
from scalereduce.errors import DegenerateVariance, NoNextAttribute
from scalereduce.roc import _class_counts

from oracles import (
    bootstrap_variance_exact,
    bootstrap_z_matrices,
    delong_z_exact,
    sqrt_nearest,
)

# Hand-computed six-example fixture (P = N = 3). All quantities were
# worked out from the pairwise kernel with fractions:
#   v10_1 = (1, 5/6, 1/2)   v01_1 = (1/2, 5/6, 1)    auc_1 = 7/9
#   v10_2 = (1, 1/6, 2/3)   v01_2 = (1/2, 5/6, 1/2)  auc_2 = 11/18
#   var(auc_1) = 7/162, var(auc_2) = 23/324, cov = 7/648
#   var(diff)  = 60/648 = 5/54,  z = (1/6)/sqrt(5/54) = sqrt(3/10)
HAND_DECISION = [1, 1, 1, 0, 0, 0]
HAND_SCORES_1 = [3, 2, 1, 2, 1, 0]
HAND_SCORES_2 = [2, 0, 1, 1, 0, 1]
HAND_Z = sqrt_nearest(Fraction(3, 10))

# Unequal AUCs whose placement differences are constant in both classes,
# so the variance of the AUC difference and the spread of every bootstrap
# replicate difference are exactly zero: the scores of the two items of
# tests/data/cli_degenerate.csv and their sum
DEGENERATE = ([3, 3, 3, 3, 3, 3, 3, 2], [0, 1, 1, 1, 0, 2, 0, 0],
              [1, 0, 0, 0, 1, 0, 1, 0])


# (negatives, positives) of one score, three rows each, with the positives
# at an end of the bootstrap's slot range: below every negative level, tied
# with the lowest and with the highest, above every one, and around the
# one level of negatives that all tie
SLOT_BOUNDS = {
    "below": ([4.0, 5.0, 6.0], [1.0, 2.0, 3.0]),
    "tied": ([2.0, 3.0, 4.0], [2.0, 4.0, 2.5]),
    "above": ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
    "single": ([3.0, 3.0, 3.0], [1.0, 3.0, 5.0]),
}

# whether (the positives, the negatives) draw multinomial cell counts
ARMS = {"rows": (False, False), "cells": (True, True),
        "pos-cells": (True, False), "neg-cells": (False, True)}


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test on any level count, variance or ranking the tests
    compute."""
    def fail(*args, **kwargs):
        raise AssertionError("work done before the arguments were checked")

    for name in ("_class_counts", "start_auc", "_walk", "_delong_z",
                 "_bootstrap_sd"):
        monkeypatch.setattr(compare, name, fail)


def multinomial_arms(s1, s2, decision):
    """Whether the positives and the negatives each have enough rows per
    distinct (s1, s2) cell to draw their counts from a multinomial."""
    return tuple(
        len(set(zip(s1[rows].tolist(), s2[rows].tolist()))) * _ROWS_PER_CELL
        <= rows.sum()
        for rows in (decision, ~decision)
    )


def replicate_case(kind, rng, seed):
    """(s1, s2, decision) for test_matches_materialised_replicates_exactly.

    A SLOT_BOUNDS kind "case/arm" puts scores_1's positives at that case's
    end of the slot range and scores_2's at the next case's, each class
    repeated _ROWS_PER_CELL times where ARMS[arm] has it draw multinomial
    counts over its three cells, and written once where it draws rows.
    """
    if "/" in kind:
        case, _, arm = kind.partition("/")
        names = list(SLOT_BOUNDS)
        following = names[(names.index(case) + 1) % len(names)]
        (neg_1, pos_1), (neg_2, pos_2) = (
            SLOT_BOUNDS[case], SLOT_BOUNDS[following])
        pos_copies, neg_copies = (
            _ROWS_PER_CELL if cells else 1 for cells in ARMS[arm])
        s1 = np.array(pos_1 * pos_copies + neg_1 * neg_copies)
        s2 = np.array(pos_2 * pos_copies + neg_2 * neg_copies)
        decision = np.arange(s1.size) < 3 * pos_copies
        order = rng.permutation(s1.size)
        return s1[order], s2[order], decision[order]
    if kind == "few-cells":
        m = int(rng.integers(220, 400))
        n_pos = int(rng.integers(100, m - 100))
    elif kind == "mixed":
        # one class of 10-39 rows, the other of over 110
        m = int(rng.integers(150, 300))
        n_pos = int(rng.integers(10, 40))
        n_pos = n_pos if seed % 2 else m - n_pos
    else:
        m = int(rng.integers(8, 120))
        n_pos = int(rng.integers(2, m - 1))
    decision = np.arange(m) < n_pos
    rng.shuffle(decision)
    if kind == "tie-heavy":
        s1 = rng.integers(0, 4, m).astype(float)
        s2 = s1 + rng.integers(0, 3, m)
    elif kind == "all-distinct":
        s1 = rng.normal(size=m) + decision
        s2 = s1 + rng.normal(size=m)
    elif kind == "signed-zeros":
        s1 = rng.choice([-0.0, 0.0, 1.0], m)
        s2 = s1 + rng.choice([-0.0, 0.0, 2.0], m)
    else:
        s1 = rng.integers(0, 2, m).astype(float)
        s2 = s1 + rng.integers(0, 2, m)
    return s1, s2, decision


def correlated_scores(rng, m=100):
    """Two correlated score vectors on the same examples."""
    half = m // 2
    decision = np.array([True] * half + [False] * (m - half))
    base = np.where(decision, rng.normal(1.0, 1.0, m), rng.normal(0.0, 1.0, m))
    s1 = base + rng.normal(0.0, 0.6, m)
    s2 = base + rng.normal(0.0, 1.1, m)
    return s1, s2, decision


class TestDelong:
    def test_self_comparison(self):
        t = delong_test(HAND_SCORES_1, HAND_SCORES_1, HAND_DECISION)
        assert t.z == 0.0
        assert t.p_value == 1.0
        assert t.method == "delong"

    def test_hand_computed_fixture(self):
        t = delong_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION)
        assert t.auc_1 == pytest.approx(7 / 9, abs=1e-12)
        assert t.auc_2 == pytest.approx(11 / 18, abs=1e-12)
        assert abs(t.z - HAND_Z) <= math.ulp(HAND_Z)
        assert t.p_value == pytest.approx(2 * norm.sf(HAND_Z), abs=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            s1, s2, decision = correlated_scores(rng, m=40)
            a = delong_test(s1, s2, decision)
            b = delong_test(s2, s1, decision)
            assert abs(a.z + b.z) < 1e-12
            assert abs(a.p_value - b.p_value) < 1e-12

    def test_p_is_two_sided_normal_tail(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            s1, s2, decision = correlated_scores(rng, m=60)
            t = delong_test(s1, s2, decision)
            assert abs(t.p_value - 2 * (1 - norm.cdf(abs(t.z)))) < 1e-9

    def test_one_sided_alternatives(self):
        t_greater = delong_test(
            HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION, alternative="greater"
        )
        t_less = delong_test(
            HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION, alternative="less"
        )
        assert t_greater.p_value == pytest.approx(norm.sf(HAND_Z), abs=1e-12)
        assert t_less.p_value == pytest.approx(norm.cdf(HAND_Z), abs=1e-12)

    def test_monotone_transform_leaves_z_unchanged(self):
        rng = np.random.default_rng(103)
        s1, s2, decision = correlated_scores(rng, m=50)
        base = delong_test(s1, s2, decision)
        affine = delong_test(2.5 * s1 + 1, 2.5 * s2 + 1, decision)
        cubic = delong_test(s1**3, s2**3, decision)
        assert affine.z == base.z
        assert cubic.z == base.z

    def test_degenerate_variance(self):
        # placement differences are constant, AUCs differ: variance of the
        # difference is exactly zero
        for s1, s2, decision in [
            ([2.0, 1.0, 1.5, 0.5], [2.0, 1.0, 2.0, 1.0], [1, 1, 0, 0]),
            DEGENERATE,
        ]:
            with pytest.raises(DegenerateVariance, match="zero"):
                delong_test(s1, s2, decision)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_z_within_one_ulp_of_the_exact_value(self, data):
        # integer or one-decimal scores, tie-heavy, and a second vector
        # that may repeat the first in some rows; DegenerateVariance
        # exactly where the rational variance is zero
        m = data.draw(st.integers(2, 30))
        decision = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        decision[:2] = [True, False]
        value = st.sampled_from(data.draw(st.sampled_from(
            [[0, 1], [0, 1, 2, 3], [k / 10 for k in range(10)]])))
        s1 = data.draw(st.lists(value, min_size=m, max_size=m))
        s2 = [a if data.draw(st.booleans()) else data.draw(value) for a in s1]
        exact = delong_z_exact(s1, s2, decision)
        if exact is None:
            with pytest.raises(DegenerateVariance):
                delong_test(s1, s2, decision)
        else:
            z = delong_test(s1, s2, decision).z
            assert abs(z - exact) <= math.ulp(exact), (z, exact)

    def test_python_int_moments_match_int64(self, monkeypatch):
        # past _INT64_MOMENTS the moments are summed in Python ints; with
        # the bound at 0 every input takes that path and must give the
        # int64 path's z bit for bit, and the same zero variance
        rng = np.random.default_rng(157)
        inputs = [correlated_scores(rng, m=m) for m in (6, 40, 500)]
        inputs.append((HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION))
        expected = [delong_test(*args).z for args in inputs]
        monkeypatch.setattr(compare, "_INT64_MOMENTS", 0)
        assert [delong_test(*args).z for args in inputs] == expected
        with pytest.raises(DegenerateVariance):
            delong_test(*DEGENERATE)

    def test_bad_alternative(self, no_work):
        # rejected before either AUC or the variance, for both tests
        with pytest.raises(ValueError, match="alternative"):
            delong_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION,
                        alternative="sideways")
        with pytest.raises(ValueError, match="alternative"):
            bootstrap_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION,
                           alternative="sideways", n_boot=20_000, seed=1)

    def test_scores_of_unequal_length(self, no_work):
        # scores_2 one row short is rejected before either AUC
        with pytest.raises(ValueError, match="length"):
            delong_test([1, 0, 1], [1, 0], [1, 0, 1])
        with pytest.raises(ValueError, match="length"):
            bootstrap_test([1, 0, 1], [1, 0], [1, 0, 1], n_boot=20, seed=1)


class TestBootstrap:
    def test_self_comparison(self):
        t = bootstrap_test(
            HAND_SCORES_1, HAND_SCORES_1, HAND_DECISION, n_boot=50, seed=3
        )
        assert t.z == 0.0
        assert t.p_value == 1.0
        assert t.n_boot == 50
        assert t.seed == 3

    def test_seed_determinism(self):
        rng = np.random.default_rng(107)
        s1, s2, decision = correlated_scores(rng, m=60)
        a = bootstrap_test(s1, s2, decision, n_boot=300, seed=99)
        b = bootstrap_test(s1, s2, decision, n_boot=300, seed=99)
        assert a == b
        # numpy integers are integers, recorded as Python ints
        c = bootstrap_test(s1, s2, decision, n_boot=np.int64(300),
                           seed=np.uint32(99))
        assert c == a
        assert type(c.n_boot) is int and type(c.seed) is int
        json.dumps(asdict(c))

    def test_different_seed_differs(self):
        rng = np.random.default_rng(109)
        s1, s2, decision = correlated_scores(rng, m=60)
        a = bootstrap_test(s1, s2, decision, n_boot=300, seed=1)
        b = bootstrap_test(s1, s2, decision, n_boot=300, seed=2)
        assert a.z != b.z

    def test_agrees_with_delong(self):
        rng = np.random.default_rng(113)
        s1, s2, decision = correlated_scores(rng, m=120)
        z_delong = delong_test(s1, s2, decision).z
        z_boot = bootstrap_test(s1, s2, decision, n_boot=4000, seed=5).z
        assert abs(z_boot - z_delong) < 0.2

    def test_seed_required(self, no_work):
        # a missing, negative or non-integer seed, or an n_boot below 1 or
        # not an integer, is rejected before either AUC or any draw
        with pytest.raises(ValueError, match="seed"):
            bootstrap_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION)
        for kwargs, message in [
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"n_boot": 0, "seed": 1}, "n_boot"),
            ({"n_boot": 2.5, "seed": 1}, "n_boot"),
            ({"n_boot": "5", "seed": 1}, "n_boot"),
        ]:
            with pytest.raises(ValueError, match=message):
                bootstrap_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION,
                               **kwargs)

    @pytest.mark.parametrize("kind", [
        "tie-heavy", "all-distinct", "signed-zeros", "few-cells", "mixed",
        *(f"{case}/{arm}" for case in SLOT_BOUNDS for arm in ARMS)])
    def test_matches_materialised_replicates_exactly(self, kind, monkeypatch):
        # same seed, same draws: the per-level counting must reproduce the
        # z of explicit (n_boot, m) replicate matrices bit for bit, for
        # n_boot on and off the block boundaries, with each class drawing
        # row indices or, given enough rows per cell, multinomial counts.
        # A _BLOCK of 8 * 7 entries makes blocks of 8 replicates on the
        # SLOT_BOUNDS kinds, whose widest array is a 7-slot table, so n_boot
        # 7, 8 and 9 end a block short of, at and past a boundary, and of 1
        # to 8 on the other kinds; at 2**11 the blocks hold 14 to 292
        # replicates, and at the default _BLOCK at least 229
        rng = np.random.default_rng(139)
        checked = 0
        arms = set()
        for seed, n_boot in enumerate([1, 2, 3, 7, 8, 9, 21, 300]):
            s1, s2, decision = replicate_case(kind, rng, seed)
            if auc(s1, decision) == auc(s2, decision):
                continue
            arms.add(multinomial_arms(s1, s2, decision))
            reference = bootstrap_z_matrices(
                s1, s2, decision, n_boot, seed, _ROWS_PER_CELL)
            for budget in (8 * 7, 2**11, _BLOCK):
                monkeypatch.setattr(compare, "_BLOCK", budget)
                if reference is None:
                    with pytest.raises(DegenerateVariance):
                        bootstrap_test(s1, s2, decision, n_boot=n_boot,
                                       seed=seed)
                else:
                    t = bootstrap_test(s1, s2, decision, n_boot=n_boot,
                                       seed=seed)
                    assert t.z == reference
            checked += reference is not None
        assert checked >= 5
        assert arms == {
            "few-cells": {(True, True)},
            "mixed": {(True, False), (False, True)},
        }.get(kind, {ARMS.get(kind.partition("/")[2], (False, False))})

    def test_variance_matches_exact_bootstrap_variance(self):
        # the replicate variance of 2U_1 - 2U_2 estimates (2PN)**2 times
        # the ideal bootstrap variance of the AUC difference, known in
        # closed form; a sample variance of B near-normal
        # replicates has relative standard error sqrt(2 / (B - 1)), and
        # each set must land within five of those; tie-heavy sets draw
        # rows, and few-cells sets draw multinomial counts in both classes
        n_boot = 40_000
        bound = 5 * math.sqrt(2 / (n_boot - 1))
        rng = np.random.default_rng(151)

        def check(seed, s1, s2, decision, arms):
            assert multinomial_arms(s1, s2, decision) == arms
            twice_pn = 2 * int(decision.sum()) * int((~decision).sum())
            exact = twice_pn ** 2 * bootstrap_variance_exact(s1, s2, decision)
            var = _bootstrap_sd(_class_counts(s1, decision),
                                _class_counts(s2, decision), n_boot, seed) ** 2
            assert abs(var / exact - 1) < bound, (seed, len(s1), var, exact)

        for seed in range(12):
            m = int(rng.integers(25, 115))
            decision = np.arange(m) < int(rng.integers(m // 4, 3 * m // 4))
            rng.shuffle(decision)
            s1 = rng.integers(0, int(rng.integers(2, 7)), m).astype(float)
            s2 = s1 + rng.integers(0, 3, m)
            check(seed, s1, s2, decision, (False, False))
        for seed in range(12, 18):
            m = int(rng.integers(160, 261))
            decision = np.arange(m) < int(rng.integers(80, m - 79))
            rng.shuffle(decision)
            s1 = rng.integers(0, 2, m).astype(float)
            s2 = s1 + rng.integers(0, 2, m)
            check(seed, s1, s2, decision, (True, True))

    def test_memory_does_not_grow_with_n_boot(self):
        # 3-decimal scores on 20k rows: about as many cells as rows, so a
        # (n_boot, cells) matrix would grow tenfold from 200 to 2000
        rng = np.random.default_rng(149)
        m = 20_000
        decision = np.arange(m) < m // 2
        s1 = np.round(rng.normal(size=m) + 0.5 * decision, 3)
        s2 = np.round(s1 + rng.normal(size=m), 3)
        peaks = []
        for n_boot in (200, 2000):
            tracemalloc.start()
            try:
                bootstrap_test(s1, s2, decision, n_boot=n_boot, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_row_arm_memory_per_row(self):
        # the same 3-decimal scores on 20k rows take the row arm in both
        # classes, so a block holds the 3 replicates whose 10k drawn rows
        # per class fit in _BLOCK entries; the test peaks at 0.14 kB per row
        rng = np.random.default_rng(149)
        m = 20_000
        decision = np.arange(m) < m // 2
        s1 = np.round(rng.normal(size=m) + 0.5 * decision, 3)
        s2 = np.round(s1 + rng.normal(size=m), 3)
        assert multinomial_arms(s1, s2, decision) == (False, False)
        tracemalloc.start()
        try:
            bootstrap_test(s1, s2, decision, n_boot=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * m

    def test_single_replicate_degenerate(self):
        with pytest.raises(DegenerateVariance):
            bootstrap_test(
                HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION, n_boot=1, seed=0
            )

    def test_zero_spread_degenerate(self):
        # every replicate difference 2U_1 - 2U_2 is the same integer
        with pytest.raises(DegenerateVariance, match="zero spread"):
            bootstrap_test(*DEGENERATE, n_boot=200, seed=7)


class TestVarianceEstimator:
    def test_single_auc_variance_matches_simulation(self):
        # the per-curve variance var(v10)/P + var(v01)/N should track the
        # sampling variance of the AUC itself over repeated draws
        from scalereduce import placements

        rng = np.random.default_rng(131)
        n_pos = n_neg = 60
        decision = np.array([True] * n_pos + [False] * n_neg)
        aucs = []
        estimates = []
        for _ in range(400):
            scores = np.concatenate(
                [rng.normal(0.9, 1.0, n_pos), rng.normal(0.0, 1.0, n_neg)]
            )
            aucs.append(auc(scores, decision))
            p = placements(scores, decision)
            estimates.append(
                np.var(p.v10, ddof=1) / n_pos + np.var(p.v01, ddof=1) / n_neg
            )
        empirical = np.var(aucs, ddof=1)
        assert np.mean(estimates) == pytest.approx(empirical, rel=0.2)


class TestCheckAttrForInclusion:
    @staticmethod
    def _dataset_reducing_to_two_of_three():
        rng = np.random.default_rng(127)
        while True:
            m = 24
            decision = rng.integers(0, 2, size=m).astype(bool)
            if decision.all() or not decision.any():
                continue
            attrs = rng.integers(0, 4, size=(m, 3)).astype(float)
            attrs[decision, 0] += 2
            attrs[decision, 1] += 1
            ds = Dataset(
                attributes=attrs, labels=("a", "b", "c"), decision=decision
            )
            if len(rsr(ds).items) == 2:
                return ds

    def test_construction_uses_next_ranked_item(self):
        ds = self._dataset_reducing_to_two_of_three()
        ranking = total_auc(ds)
        scale = rsr(ds)
        next_label = ranking.order[2]
        scores_1 = sum_scores(ds, scale.items)
        scores_2 = scores_1 + ds.column(next_label)
        # integer item scores: the added column is recovered exactly
        assert np.array_equal(scores_2 - scores_1, ds.column(next_label))
        t = check_attr_for_inclusion(ds, method="delong")
        assert t.auc_1 == auc(scores_1, ds.decision)
        assert t.auc_2 == auc(scores_2, ds.decision)

    def test_delong_dispatch_matches_direct_call(self):
        ds = self._dataset_reducing_to_two_of_three()
        scale = rsr(ds)
        ranking = total_auc(ds)
        scores_1 = sum_scores(ds, scale.items)
        scores_2 = scores_1 + ds.column(ranking.order[len(scale.items)])
        direct = delong_test(scores_1, scores_2, ds.decision)
        via = check_attr_for_inclusion(ds, method="delong")
        assert via == direct

    def test_bootstrap_dispatch(self):
        ds = self._dataset_reducing_to_two_of_three()
        t = check_attr_for_inclusion(ds, method="bootstrap", n_boot=200, seed=11)
        assert t.method == "bootstrap"
        assert t.n_boot == 200
        assert t.seed == 11

    def test_no_next_attribute(self):
        # two complementary informative items: both retained
        col_a = np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 0.0])
        col_b = np.array([1.0, 2.0, 0.0, 3.0, 0.0, 0.0, 1.0, 1.0])
        decision = np.array([False, True, True, True, False, False, True, False])
        ds = Dataset(
            attributes=np.column_stack([col_a, col_b]),
            labels=("a", "b"),
            decision=decision,
        )
        assert rsr(ds).stop_reason == "exhausted-all-items"
        with pytest.raises(NoNextAttribute):
            check_attr_for_inclusion(ds, method="delong")

    def test_bad_method(self, no_work):
        # every bad argument is rejected before the items are ranked
        ds = self._dataset_reducing_to_two_of_three()
        for kwargs, message in [
            ({"method": "wilcoxon"}, "method"),
            ({"method": "bootstrap"}, "seed"),
            ({"method": "bootstrap", "seed": -1}, "seed"),
            ({"method": "bootstrap", "seed": 1.5}, "seed"),
            ({"method": "bootstrap", "seed": "3"}, "seed"),
            ({"method": "bootstrap", "n_boot": 0, "seed": 1}, "n_boot"),
            ({"method": "bootstrap", "n_boot": 2.5, "seed": 1}, "n_boot"),
            ({"method": "bootstrap", "n_boot": "5", "seed": 1}, "n_boot"),
            ({"alternative": "sideways"}, "alternative"),
        ]:
            with pytest.raises(ValueError, match=message):
                check_attr_for_inclusion(ds, **kwargs)

    def test_arguments_checked_once_per_call(self, monkeypatch):
        # each public test checks its arguments once, and its result
        # records the n_boot and seed that the check returned
        ds = self._dataset_reducing_to_two_of_three()
        calls = []
        check = compare._check

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(compare, "_check", counted)
        boot = {"n_boot": np.int64(50), "seed": np.uint32(3)}
        for call in (
            lambda: delong_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION),
            lambda: bootstrap_test(HAND_SCORES_1, HAND_SCORES_2,
                                   HAND_DECISION, **boot),
            lambda: check_attr_for_inclusion(ds, method="delong"),
            lambda: check_attr_for_inclusion(ds, method="bootstrap", **boot),
        ):
            calls.clear()
            t = call()
            assert len(calls) == 1
            assert (t.n_boot, t.seed) == (
                (None, None) if t.method == "delong" else (50, 3))
            assert t.method == "delong" or type(t.n_boot) is type(t.seed) is int
