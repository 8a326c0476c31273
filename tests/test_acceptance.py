"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. Two
criteria depend on external datasets that cannot be redistributed here:

* criterion 2 normally checks a 21-item depression-scale table; without
  tests/data/bdi.csv it runs the documented replacement, a frozen fixture
  whose expected values were generated by pair enumeration
  (tools/gen_scale21_fixture.py), together with the ROC invariants of
  criterion 7.
* criterion 3 checks the Mayo Clinic primary biliary cirrhosis data; it
  runs when tests/data/pbc.csv exists (see README for the export recipe)
  and is skipped otherwise.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import norm

from scalereduce import (
    auc,
    bootstrap_test,
    check_attr_for_inclusion,
    delong_test,
    diff_examples,
    gray_examples,
    gray_examples_for,
    load_csv,
    placements,
    reduction_ratio,
    roc_curve,
    rsr,
    select_columns,
    start_auc,
    sum_scores,
    total_auc,
)

from conftest import DATA_DIR, random_dataset, random_scores_decision
from oracles import (
    auc_pairs,
    best_subset_auc,
    clones_of_quadratic,
    duplicates_quadratic,
    gray_pairs_quadratic,
)
from test_compare import HAND_DECISION, HAND_SCORES_1, HAND_SCORES_2, HAND_Z
from test_hygiene import planted_dataset


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"criterion {num}: SKIP - {desc} ({exc})")
        raise
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    else:
        print(f"criterion {num}: PASS - {desc}")


def test_criterion_1_auc_oracle_equivalence():
    with criterion(1, "fast AUC equals pair enumeration on 500 datasets"):
        rng = np.random.default_rng(2001)
        start = time.perf_counter()
        for _ in range(500):
            scores, decision = random_scores_decision(rng, m_max=40)
            fast = auc(scores, decision)
            brute = auc_pairs(scores, decision)
            assert abs(fast - brute) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# Reference per-item and running-total AUCs for the 21-item depression
# scale, used only when a real data export is supplied.
BDI_TABLE = [
    ("BDI_1", 0.7250092, 0.7250092), ("BDI_14", 0.7074013, 0.7765412),
    ("BDI_7", 0.7014889, 0.7945490), ("BDI_9", 0.7004614, 0.8095300),
    ("BDI_10", 0.6972253, 0.8131352), ("BDI_15", 0.6920635, 0.8221669),
    ("BDI_17", 0.6742833, 0.8205426), ("BDI_8", 0.6679833, 0.8192322),
    ("BDI_20", 0.6669989, 0.8198782), ("BDI_5", 0.6584779, 0.8211333),
    ("BDI_3", 0.6556663, 0.8210840), ("BDI_4", 0.6511874, 0.8211394),
    ("BDI_13", 0.6489172, 0.8210779), ("BDI_12", 0.6367909, 0.8195583),
    ("BDI_2", 0.6312046, 0.8186908), ("BDI_19", 0.6292851, 0.8181125),
    ("BDI_18", 0.6100283, 0.8160699), ("BDI_6", 0.6100037, 0.8138489),
    ("BDI_16", 0.6059370, 0.8116525), ("BDI_11", 0.5973422, 0.8110680),
    ("BDI_21", 0.5874677, 0.8117263),
]
BDI_REDUCED = ["BDI_1", "BDI_14", "BDI_7", "BDI_9", "BDI_10", "BDI_15"]
BDI_ACHIEVED = 0.8221669


def test_criterion_2_scale_table_reproduction():
    bdi_path = DATA_DIR / "bdi.csv"
    if bdi_path.exists():
        with criterion(2, "21-item scale table matches the reference values"):
            header = bdi_path.read_text(encoding="utf-8").splitlines()[0]
            columns = [c.strip() for c in header.split(",")]
            decision_col = next(c for c in columns if not c.startswith("BDI_"))
            ds = load_csv(str(bdi_path), decision_col)
            ranking = total_auc(ds)
            assert list(ranking.order) == [row[0] for row in BDI_TABLE]
            for (lab, single, running), got_s, got_r in zip(
                BDI_TABLE, ranking.single_auc, ranking.running_auc
            ):
                assert abs(got_s - single) <= 5e-7, lab
                assert abs(got_r - running) <= 5e-7, lab
            scale = rsr(ds)
            assert list(scale.items) == BDI_REDUCED
            assert abs(scale.achieved_auc - BDI_ACHIEVED) <= 5e-7
            curve = roc_curve(sum_scores(ds, scale.items), ds.decision)
            assert abs(curve.auc - BDI_ACHIEVED) <= 5e-7
            ratio = reduction_ratio(scale, ds.n_items)
            assert abs(ratio - 0.2857) <= 1e-4
    else:
        with criterion(
            2,
            "replacement: frozen oracle-generated 21-item fixture "
            "(source dataset not redistributable; ROC invariants are "
            "criterion 7)",
        ):
            ds = load_csv(str(DATA_DIR / "scale21.csv"), "verdict")
            expected = json.loads(
                (DATA_DIR / "scale21_expected.json").read_text()
            )
            ranking = total_auc(ds)
            assert list(ranking.order) == expected["order"]
            singles = dict(zip(ranking.order, ranking.single_auc))
            for lab, value in expected["single_auc"].items():
                assert abs(singles[lab] - value) <= 5e-7
            assert np.allclose(
                ranking.running_auc, expected["running_auc"],
                atol=5e-7, rtol=0,
            )
            scale = rsr(ds)
            assert list(scale.items) == expected["reduced_items"]
            assert abs(scale.achieved_auc - expected["achieved_auc"]) <= 5e-7


PBC_ATTRIBUTES = [
    "time", "status", "trt", "age", "sex", "ascites", "spiders", "edema",
    "bili", "chol", "albumin", "copper", "alk.phos", "ast", "trig",
    "platelet", "protime", "stage",
]
PBC_EXPECTED = {
    "complete_rows": 276,
    "reduced_items": ["stage", "bili"],
    "delong_z": 1.986207,
    "delong_p": 0.04701039,
    "gray_pattern": (0.0, 1.0, 1.0, 4.0),  # status, sex, spiders, stage
}


def test_criterion_3_clinical_reproduction():
    pbc_path = DATA_DIR / "pbc.csv"
    with criterion(3, "clinical dataset: hygiene, reduced scale, DeLong"):
        if not pbc_path.exists():
            pytest.skip(
                "tests/data/pbc.csv not present; no network in this "
                "environment to fetch the pbc export, see README"
            )
        ds = load_csv(str(pbc_path), "hepato")
        ds = select_columns(ds, PBC_ATTRIBUTES)
        assert ds.n_rows == PBC_EXPECTED["complete_rows"]

        report = diff_examples(ds.attributes)
        assert report.total_examples == 276
        assert report.distinct_examples == 276
        assert report.duplicate_examples == 0

        scale = rsr(ds)
        assert list(scale.items) == PBC_EXPECTED["reduced_items"]
        curve = roc_curve(sum_scores(ds, scale.items), ds.decision)
        assert abs(curve.auc - scale.achieved_auc) <= 1e-12

        t = check_attr_for_inclusion(ds, method="delong")
        assert abs(t.z - PBC_EXPECTED["delong_z"]) <= 0.01
        assert abs(t.p_value - PBC_EXPECTED["delong_p"]) <= 0.005
        t_boot = check_attr_for_inclusion(
            ds, method="bootstrap", n_boot=4000, seed=17
        )
        assert abs(t_boot.z - t.z) < 0.2

        four = select_columns(ds, ["status", "sex", "spiders", "stage"])
        pairs = gray_examples(four.attributes, four.decision)
        patterns = {tuple(four.attributes[a].tolist()) for a, _ in pairs}
        assert PBC_EXPECTED["gray_pattern"] in patterns
        assert (0.0, 1.0, 1.0, 3.0) in patterns


def test_criterion_4_delong_properties():
    with criterion(4, "DeLong self-test, antisymmetry, p identity, fixture"):
        t_self = delong_test(HAND_SCORES_1, HAND_SCORES_1, HAND_DECISION)
        assert t_self.z == 0.0 and t_self.p_value == 1.0

        t = delong_test(HAND_SCORES_1, HAND_SCORES_2, HAND_DECISION)
        assert abs(t.z - HAND_Z) <= 1e-12
        assert abs(t.auc_1 - 7 / 9) <= 1e-12
        assert abs(t.auc_2 - 11 / 18) <= 1e-12

        rng = np.random.default_rng(2004)
        for _ in range(25):
            m = 40
            decision = np.array([True] * 20 + [False] * 20)
            base = np.where(decision, rng.normal(1, 1, m), rng.normal(0, 1, m))
            s1 = base + rng.normal(0, 0.7, m)
            s2 = base + rng.normal(0, 1.2, m)
            a = delong_test(s1, s2, decision)
            b = delong_test(s2, s1, decision)
            assert abs(a.z + b.z) <= 1e-12
            assert abs(a.p_value - b.p_value) <= 1e-12
            assert abs(a.p_value - 2 * (1 - norm.cdf(abs(a.z)))) <= 1e-9


def test_criterion_5_bootstrap_determinism_and_agreement():
    with criterion(5, "bootstrap determinism and agreement with DeLong"):
        rng = np.random.default_rng(2005)
        start = time.perf_counter()

        m = 120
        decision = np.array([True] * 60 + [False] * 60)
        base = np.where(decision, rng.normal(1, 1, m), rng.normal(0, 1, m))
        s1 = base + rng.normal(0, 0.6, m)
        s2 = base + rng.normal(0, 1.1, m)
        first = bootstrap_test(s1, s2, decision, n_boot=500, seed=77)
        second = bootstrap_test(s1, s2, decision, n_boot=500, seed=77)
        assert first == second

        agree = 0
        for _ in range(20):
            base = np.where(decision, rng.normal(1, 1, m), rng.normal(0, 1, m))
            s1 = base + rng.normal(0, 0.6, m)
            s2 = base + rng.normal(0, 1.1, m)
            z_d = delong_test(s1, s2, decision).z
            z_b = bootstrap_test(s1, s2, decision, n_boot=4000, seed=7).z
            if abs(z_b - z_d) < 0.2:
                agree += 1
        elapsed = time.perf_counter() - start
        assert agree >= 18, f"only {agree} of 20 within 0.2"
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        print(f"  bootstrap-vs-delong agreement {agree}/20 in {elapsed:.1f}s")


def test_criterion_6_reduction_properties_and_gap():
    with criterion(6, "reduction invariants and exhaustive-subset gap"):
        rng = np.random.default_rng(2006)
        gaps = []
        for _ in range(200):
            ds = random_dataset(rng, n_max=8, m_max=30)
            ranking = total_auc(ds)
            scale = rsr(ds)
            k = len(scale.items)
            assert scale.items == ranking.order[:k]
            assert all(
                scale.auc_trajectory[i] < scale.auc_trajectory[i + 1]
                for i in range(k - 1)
            )
            assert scale.achieved_auc >= max(ranking.single_auc)
            best, _ = best_subset_auc(ds.attributes, ds.decision, auc_fn=auc)
            gap = best - scale.achieved_auc
            assert gap >= 0.0
            gaps.append(gap)
        print(
            f"  greedy-vs-exhaustive gap: mean {np.mean(gaps):.4f}, "
            f"max {np.max(gaps):.4f} over 200 datasets (no optimality claimed)"
        )


def test_criterion_7_roc_invariants():
    with criterion(7, "ROC curve endpoints, monotonicity, area identities"):
        rng = np.random.default_rng(2007)
        for _ in range(300):
            scores, decision = random_scores_decision(rng, m_max=40)
            curve = roc_curve(scores, decision)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert (np.diff(curve.fpr) >= 0).all()
            assert (np.diff(curve.tpr) >= 0).all()
            a = auc(scores, decision)
            assert abs(curve.auc - a) <= 1e-12
            assert auc(2.0 * scores + 5.0, decision) == a
            assert auc(scores**3, decision) == a
            assert abs(a + auc(scores, ~decision) - 1.0) <= 1e-12
            p = placements(scores, decision)
            assert abs(p.v10.mean() - a) <= 1e-12
            assert abs(p.v01.mean() - a) <= 1e-12


def test_criterion_8_hygiene_oracle():
    with criterion(8, "byte-grouped hygiene equals quadratic oracle"):
        rng = np.random.default_rng(2008)
        for _ in range(100):
            attrs, decision = planted_dataset(rng, m=25, n=3)
            report = diff_examples(attrs)
            total, distinct, dupes = duplicates_quadratic(attrs)
            assert (report.total_examples, report.distinct_examples,
                    report.duplicate_examples) == (total, distinct, dupes)
            got = [tuple(p) for p in gray_examples(attrs, decision).tolist()]
            assert got == gray_pairs_quadratic(attrs, decision)
            n = int(rng.integers(0, attrs.shape[0]))
            assert gray_examples_for(attrs, decision, n) == (
                clones_of_quadratic(attrs, n)
            )
