"""End-to-end run of the full workflow on synthetic clinical-like data:
audit, reduce, then test the next item for inclusion. Expected values come
from the brute-force oracles, so this exercises every step the dataset-
conditional acceptance test uses, independent of any external file."""

import json

import numpy as np
import pytest

from scalereduce import (
    check_attr_for_inclusion,
    load_csv,
    rsr,
    select_columns,
    total_auc,
)
from scalereduce.cli import main

from conftest import write_csv
from oracles import duplicates_quadratic, gray_pairs_quadratic, running_auc_prefix


@pytest.fixture(scope="module")
def clinic_csv(tmp_path_factory):
    rng = np.random.default_rng(314)
    m, n = 80, 6
    labels = ["stage", "marker", "age", "grade", "flag", "code"]
    severity = rng.normal(0, 1, m)
    decision = (severity + rng.normal(0, 0.9, m)) > 0.2
    decision[0], decision[1] = True, False
    weights = [1.2, 0.9, 0.5, 0.4, 0.1, 0.05]
    attrs = np.empty((m, n))
    for j, w in enumerate(weights):
        raw = w * severity + rng.normal(0, 1, m)
        attrs[:, j] = np.clip(np.round(raw + 2), 0, 4)
    # plant one exact duplicate pair and one gray pair
    attrs[10] = attrs[3]
    decision[10] = decision[3]
    attrs[20] = attrs[7]
    decision[20] = not decision[7]
    rows = [
        list(attrs[i].astype(int)) + [int(decision[i])] for i in range(m)
    ]
    path = tmp_path_factory.mktemp("clinic") / "clinic.csv"
    return write_csv(path, labels + ["outcome"], rows), attrs, decision


def test_audit_counts_match_oracle(clinic_csv, capsys):
    path, attrs, decision = clinic_csv
    assert main(["audit", path, "--decision", "outcome",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    total, distinct, dupes = duplicates_quadratic(attrs)
    assert report["results"]["duplicates"] == {
        "total": total, "distinct": distinct, "duplicates": dupes,
    }
    got = [(p["row_a"], p["row_b"]) for p in report["results"]["gray_pairs"]]
    assert got == gray_pairs_quadratic(attrs, decision)
    assert len(got) >= 1  # the planted gray pair survived generation


def test_reduction_matches_prefix_oracle(clinic_csv):
    path, _, _ = clinic_csv
    ds = load_csv(path, "outcome")
    ranking = total_auc(ds)
    ordered_cols = [ds.labels.index(lab) for lab in ranking.order]
    oracle = running_auc_prefix(ds.attributes, ds.decision, ordered_cols)
    assert np.allclose(ranking.running_auc, oracle, atol=1e-12, rtol=0)
    scale = rsr(ds)
    assert 1 <= len(scale.items) <= ds.n_items


def test_inclusion_check_runs_both_methods(clinic_csv):
    path, _, _ = clinic_csv
    ds = load_csv(path, "outcome")
    if len(rsr(ds).items) == ds.n_items:
        pytest.skip("generated scale kept every item")
    for method in ("delong", "bootstrap"):
        t = check_attr_for_inclusion(ds, method=method, n_boot=400, seed=9)
        assert np.isfinite(t.z)
        assert 0.0 <= t.p_value <= 1.0


def test_column_subset_gray_screen(clinic_csv):
    # screening a low-resolution column subset, as an analyst would before
    # trusting the reduction
    path, _, _ = clinic_csv
    ds = load_csv(path, "outcome")
    sub = select_columns(ds, ["stage", "flag"])
    from scalereduce import gray_examples

    got = [tuple(p) for p in gray_examples(sub.attributes, sub.decision).tolist()]
    assert got == sorted(got)
    assert got == gray_pairs_quadratic(sub.attributes, sub.decision)
