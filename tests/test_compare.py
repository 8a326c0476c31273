import math

import numpy as np
import pytest
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
from scalereduce.compare import _BLOCK
from scalereduce.errors import DegenerateVariance, NoNextAttribute

from oracles import bootstrap_z_matrices

# Hand-computed six-example fixture (P = N = 3). All quantities were
# worked out from the pairwise kernel with fractions:
#   v10_1 = (1, 5/6, 1/2)   v01_1 = (1/2, 5/6, 1)    auc_1 = 7/9
#   v10_2 = (1, 1/6, 2/3)   v01_2 = (1/2, 5/6, 1/2)  auc_2 = 11/18
#   var(auc_1) = 7/162, var(auc_2) = 23/324, cov = 7/648
#   var(diff)  = 60/648 = 5/54,  z = (1/6)/sqrt(5/54) = sqrt(30)/10
HAND_DECISION = [1, 1, 1, 0, 0, 0]
HAND_SCORES_1 = [3, 2, 1, 2, 1, 0]
HAND_SCORES_2 = [2, 0, 1, 1, 0, 1]
HAND_Z = math.sqrt(30) / 10


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
        assert t.z == pytest.approx(HAND_Z, abs=1e-12)
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
        s1 = [2.0, 1.0, 1.5, 0.5]
        s2 = [2.0, 1.0, 2.0, 1.0]
        decision = [1, 1, 0, 0]
        with pytest.raises(DegenerateVariance):
            delong_test(s1, s2, decision)

    def test_bad_alternative(self):
        with pytest.raises(ValueError):
            delong_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION,
                        alternative="sideways")


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

    def test_seed_required(self):
        with pytest.raises(ValueError):
            bootstrap_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION)

    @pytest.mark.parametrize("kind", ["tie-heavy", "all-distinct", "signed-zeros"])
    def test_matches_materialised_replicates_exactly(self, kind):
        # same seed, same draws: the per-cell counting must reproduce the
        # z of explicit (n_boot, m) replicate matrices bit for bit, for
        # n_boot on and off the block boundaries
        rng = np.random.default_rng(139)
        checked = 0
        for seed, n_boot in enumerate(
            [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, 300]
        ):
            m = int(rng.integers(8, 120))
            decision = np.arange(m) < int(rng.integers(2, m - 1))
            rng.shuffle(decision)
            if kind == "tie-heavy":
                s1 = rng.integers(0, 4, m).astype(float)
                s2 = s1 + rng.integers(0, 3, m)
            elif kind == "all-distinct":
                s1 = rng.normal(size=m) + decision
                s2 = s1 + rng.normal(size=m)
            else:
                s1 = rng.choice([-0.0, 0.0, 1.0], m)
                s2 = s1 + rng.choice([-0.0, 0.0, 2.0], m)
            if auc(s1, decision) == auc(s2, decision):
                continue
            reference = bootstrap_z_matrices(s1, s2, decision, n_boot, seed)
            if reference is None:
                with pytest.raises(DegenerateVariance):
                    bootstrap_test(s1, s2, decision, n_boot=n_boot, seed=seed)
            else:
                t = bootstrap_test(s1, s2, decision, n_boot=n_boot, seed=seed)
                assert t.z == reference
                checked += 1
        assert checked >= 5

    def test_single_replicate_degenerate(self):
        with pytest.raises(DegenerateVariance):
            bootstrap_test(
                HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION, n_boot=1, seed=0
            )


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

    def test_bad_method(self):
        ds = self._dataset_reducing_to_two_of_three()
        with pytest.raises(ValueError):
            check_attr_for_inclusion(ds, method="wilcoxon")
