import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalereduce import (
    Dataset,
    ReducedScale,
    check_attr_for_inclusion,
    load_csv,
    reduction,
    reduction_ratio,
    rsr,
    select_columns,
    start_auc,
    total_auc,
)
from scalereduce.errors import InvalidCount, ScoreOverflow
from scalereduce.reduction import _walk
from scalereduce.roc import _area, _class_counts

from conftest import DATA_DIR, random_dataset
from oracles import auc_pairs, running_auc_prefix


@pytest.fixture(scope="module")
def scale21():
    ds = load_csv(str(DATA_DIR / "scale21.csv"), "verdict")
    expected = json.loads((DATA_DIR / "scale21_expected.json").read_text())
    return ds, expected


class TestStartAuc:
    def test_perfect_column(self):
        ds = Dataset(
            attributes=np.array([[0.0, 3.0], [1.0, 1.0], [2.0, 4.0], [3.0, 2.0]]),
            labels=("good", "noise"),
            decision=np.array([False, False, True, True]),
        )
        assert start_auc(ds)["good"] == 1.0

    def test_matches_per_column_pair_counting(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            ds = random_dataset(rng, n_max=4, m_max=20)
            singles = start_auc(ds)
            for j, lab in enumerate(ds.labels):
                assert singles[lab] == auc_pairs(ds.attributes[:, j], ds.decision)

    def test_frozen_fixture_values(self, scale21):
        ds, expected = scale21
        singles = start_auc(ds)
        for lab, value in expected["single_auc"].items():
            assert singles[lab] == pytest.approx(value, abs=5e-7)


class TestTotalAuc:
    def test_single_item_dataset(self):
        ds = Dataset(
            attributes=np.array([[1.0], [2.0], [3.0], [0.0]]),
            labels=("only",),
            decision=np.array([False, True, True, False]),
        )
        ranking = total_auc(ds)
        assert ranking.order == ("only",)
        assert ranking.running_auc == ranking.single_auc

    def test_duplicate_informative_column(self):
        # the sum of two copies is a monotone transform of one copy
        col = np.array([0.0, 1.0, 2.0, 3.0, 1.0, 2.0])
        ds = Dataset(
            attributes=np.column_stack([col, col]),
            labels=("a", "b"),
            decision=np.array([False, False, True, True, False, True]),
        )
        ranking = total_auc(ds)
        assert ranking.running_auc[1] == ranking.running_auc[0]

    def test_order_descending_and_stable(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            ds = random_dataset(rng)
            ranking = total_auc(ds)
            singles = list(ranking.single_auc)
            assert singles == sorted(singles, reverse=True)
            # stable tie-break: equal AUCs keep original column order
            by_label = start_auc(ds)
            for i in range(len(singles) - 1):
                if singles[i] == singles[i + 1]:
                    pos = {lab: k for k, lab in enumerate(ds.labels)}
                    assert pos[ranking.order[i]] < pos[ranking.order[i + 1]]

    def test_running_first_equals_best_single(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            ds = random_dataset(rng)
            ranking = total_auc(ds)
            assert ranking.running_auc[0] == ranking.single_auc[0]

    def test_matches_prefix_sum_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            ds = random_dataset(rng, n_max=5, m_max=25)
            ranking = total_auc(ds)
            ordered_cols = [ds.labels.index(lab) for lab in ranking.order]
            oracle = running_auc_prefix(ds.attributes, ds.decision, ordered_cols)
            assert np.allclose(ranking.running_auc, oracle, atol=1e-12, rtol=0)

    def test_frozen_fixture_table(self, scale21):
        ds, expected = scale21
        ranking = total_auc(ds)
        assert list(ranking.order) == expected["order"]
        assert np.allclose(
            ranking.running_auc, expected["running_auc"], atol=5e-7, rtol=0
        )


class TestRsr:
    def test_frozen_fixture_reduction(self, scale21):
        ds, expected = scale21
        scale = rsr(ds)
        assert list(scale.items) == expected["reduced_items"]
        assert scale.achieved_auc == pytest.approx(
            expected["achieved_auc"], abs=5e-7
        )
        assert scale.stop_reason == expected["stop_reason"]

    def test_single_attribute_exhausts(self):
        ds = Dataset(
            attributes=np.array([[1.0], [0.0], [2.0]]),
            labels=("solo",),
            decision=np.array([True, False, True]),
        )
        scale = rsr(ds)
        assert scale.items == ("solo",)
        assert scale.stop_reason == "exhausted-all-items"

    def test_properties_on_random_data(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            ds = random_dataset(rng)
            ranking = total_auc(ds)
            scale = rsr(ds)
            k = len(scale.items)
            assert scale.items == ranking.order[:k]
            trajectory = scale.auc_trajectory
            assert all(
                trajectory[i] < trajectory[i + 1]
                for i in range(len(trajectory) - 1)
            )
            assert scale.achieved_auc >= ranking.single_auc[0]
            if scale.stop_reason == "first-decrease":
                assert ranking.running_auc[k] <= ranking.running_auc[k - 1]
            else:
                assert k == ds.n_items

    def test_row_shuffle_invariance(self):
        rng = np.random.default_rng(83)
        ds = random_dataset(rng, n_max=6, m_max=25)
        perm = rng.permutation(ds.n_rows)
        shuffled = Dataset(
            attributes=ds.attributes[perm],
            labels=ds.labels,
            decision=ds.decision[perm],
        )
        assert rsr(ds) == rsr(shuffled)

    def test_column_permutation_invariance_with_distinct_aucs(self):
        rng = np.random.default_rng(89)
        tries = 0
        while True:
            ds = random_dataset(rng, n_max=6, m_max=25)
            singles = list(start_auc(ds).values())
            tries += 1
            if len(set(singles)) == len(singles):
                break
            assert tries < 500
        perm = list(rng.permutation(ds.n_items))
        shuffled = select_columns(ds, perm)
        assert rsr(ds) == rsr(shuffled)


@st.composite
def tied_datasets(draw):
    """Up to five items scored 0-2 on up to 16 rows of both classes: so
    few levels make equal running AUCs common."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 16))
    cells = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    return Dataset(
        attributes=np.array(draw(st.lists(cells, min_size=m, max_size=m)),
                            dtype=float),
        labels=tuple(f"q{j}" for j in range(n)),
        decision=np.array(
            [True, False] + draw(st.lists(st.booleans(), min_size=m - 2,
                                          max_size=m - 2))),
    )


def _two_items(a, b, decision):
    return Dataset(attributes=np.array([a, b], dtype=float).T,
                   labels=("a", "b"), decision=np.array(decision, dtype=bool))


class TestWalk:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tied_datasets())
    # one item
    @example(Dataset(attributes=np.array([[1.0], [0.0], [2.0]]),
                     labels=("solo",), decision=np.array([True, False, True])))
    # b lifts the running AUC from 5/6 to 1: the scale keeps every item
    @example(_two_items([0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]))
    # b is a copy of a: the running AUC ties and the walk stops at a
    @example(_two_items([0, 1, 2, 1], [0, 1, 2, 1], [0, 0, 1, 1]))
    def test_walk_matches_the_full_ranking(self, ds):
        ranking = total_auc(ds)
        # the first maximum of the full running vector
        running = ranking.running_auc
        keep = 1
        while keep < ds.n_items and running[keep] > running[keep - 1]:
            keep += 1
        scale = ReducedScale(
            items=ranking.order[:keep],
            auc_trajectory=running[:keep],
            achieved_auc=running[keep - 1],
            stop_reason=("exhausted-all-items" if keep == ds.n_items
                         else "first-decrease"),
        )
        singles = start_auc(ds)
        calls = []

        def counted(*args):
            calls.append(1)
            return _class_counts(*args)

        with mock.patch.object(reduction, "_class_counts", counted):
            order, walked, counts = _walk(ds, singles)
        assert (order, walked) == (ranking.order, scale)
        assert len(calls) == min(keep + 1, ds.n_items)
        assert rsr(ds) == scale
        # read on, the counts give the running AUCs from the kept one on
        assert tuple(map(_area, counts)) == running[keep - 1:]

    def test_overflow_past_the_next_item_fails_total_auc_alone(self):
        # x, y, z1, z2 in ranking order; any row's z1 + z2 overflows, and
        # the scale keeps x, so the walk sums no z
        ds = load_csv(str(DATA_DIR / "cli_overflow_tail.csv"), "d")
        scale = rsr(ds)
        assert scale.items == ("x",)
        assert check_attr_for_inclusion(ds).auc_1 == scale.achieved_auc
        with pytest.raises(ScoreOverflow, match="items x, y, z1, z2 overflows"):
            total_auc(ds)


class TestReductionRatio:
    def test_six_of_twentyone(self):
        scale = ReducedScale(
            items=("a", "b", "c", "d", "e", "f"),
            auc_trajectory=(0.72, 0.77, 0.79, 0.80, 0.81, 0.82),
            achieved_auc=0.82,
            stop_reason="first-decrease",
        )
        assert reduction_ratio(scale, 21) == pytest.approx(0.2857, abs=5e-5)

    def test_kept_fraction_values(self):
        scale = rsr(
            Dataset(
                attributes=np.array([[1.0], [0.0], [2.0]]),
                labels=("solo",),
                decision=np.array([True, False, True]),
            )
        )
        assert reduction_ratio(scale, 1) == 1.0
        assert reduction_ratio(scale, 9) == pytest.approx(0.1111, abs=5e-5)
        assert reduction_ratio(scale, 21) == pytest.approx(1 / 21, abs=5e-5)

    def test_two_of_eighteen(self):
        assert 2 / 18 == pytest.approx(0.1111, abs=5e-5)

    def test_invalid_counts(self):
        ds = Dataset(
            attributes=np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),
            labels=("a", "b"),
            decision=np.array([True, False, True]),
        )
        scale = rsr(ds)
        with pytest.raises(InvalidCount):
            reduction_ratio(scale, len(scale.items) - 1)

    def test_empty_scale(self):
        scale = ReducedScale(items=(), auc_trajectory=(), achieved_auc=0.5,
                             stop_reason="first-decrease")
        with pytest.raises(InvalidCount, match="no items"):
            reduction_ratio(scale, 3)
