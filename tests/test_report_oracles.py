"""Every field of the CLI's JSON reports against the brute-force oracles.

One property test draws small CSV files and runs audit, rank, reduce and
test-inclusion on each through cli.main. The expected reports are built
from the drawn rows alone, with tests/oracles.py: the loader, the
grouping, the AUC kernel, the reduction and both paired tests are all
checked end to end, on inputs no golden file holds.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from scalereduce.cli import main
from scalereduce.compare import _ROWS_PER_CELL

from oracles import (
    auc_pairs,
    bootstrap_z_matrices,
    delong_z_exact,
    duplicates_quadratic,
    gray_pairs_quadratic,
    running_auc_prefix,
)


@st.composite
def small_csvs(draw):
    """(CSV text, complete rows, their raw decisions, decision coding,
    rows dropped).

    1-6 items of 0/1, integer (0-3) or one-decimal (0.0-0.9) values, 4-60
    rows, in classes of even or uneven size. A row may repeat an earlier
    one, with the same decision (a duplicate) or either (a gray row), in
    some files so often that a class has 20 rows per distinct pair of
    inclusion scores, and the bootstrap draws it multinomial counts. A row
    may lose one cell (an incomplete row the loader drops). The decision
    is coded 0/1 or 1/2; the first two rows are complete and of opposite
    classes.
    """
    n_items = draw(st.sampled_from(range(1, 7)))
    repeats = draw(st.sampled_from([3, 3, 9, 10]))  # in 10 rows
    value = st.sampled_from(draw(st.sampled_from([
        ["0", "1"], ["0", "1", "2", "3"], [f"0.{k}" for k in range(10)]])))
    coding = draw(st.sampled_from([("0", "1"), ("1", "2")]))
    decision = st.sampled_from(draw(st.sampled_from(
        [coding, coding, (coding[0],) * 4 + coding[1:]])))
    rows = []
    for r in range(draw(st.integers(4, 60))):
        if r >= 2 and draw(st.integers(0, 9)) < repeats:
            cells = list(rows[draw(st.integers(0, r - 1))][0])
        else:
            cells = [draw(value) for _ in range(n_items)]
        rows.append((cells, coding[r] if r < 2 else draw(decision)))
    complete = []
    lines = [",".join([*(f"q{j}" for j in range(n_items)), "d"])]
    for r, (cells, decision) in enumerate(rows):
        if r >= 2 and draw(st.integers(0, 9)) == 0:
            cells = list(cells)
            cells[draw(st.integers(0, n_items - 1))] = ""
        else:
            complete.append(([float(c) for c in cells], float(decision)))
        lines.append(",".join([*cells, decision]))
    attrs = np.array([c for c, _ in complete])
    raw = np.array([d for _, d in complete])
    return ("\n".join(lines) + "\n", attrs, raw, coding,
            len(rows) - len(complete))


def report(path, argv):
    """(exit code, parsed JSON report or None, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path, "--decision", "d", "--format", "json",
                     *argv[1:]])
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


@settings(max_examples=250, deadline=None, derandomize=True)
@given(small_csvs(), st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_every_report_field_matches_the_oracles(drawn, n_boot, seed):
    text, attrs, raw, coding, dropped = drawn
    decision = raw == float(coding[1])
    n_rows, n_items = attrs.shape
    labels = [f"q{j}" for j in range(n_items)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        runs = {argv[0]: report(path, argv) for argv in [
            ["audit"], ["rank"], ["reduce"],
            ["test-inclusion", "--method", "both", "--n-boot", str(n_boot),
             "--seed", str(seed)],
        ]}

    code, audit, _ = runs["audit"]
    assert code == 0
    assert (audit["n_rows"], audit["n_items"]) == (n_rows, n_items)
    assert audit["dropped_rows"] == dropped
    assert (audit["positives"], audit["negatives"]) == (
        int(decision.sum()), int((~decision).sum()))
    total, distinct, duplicates = duplicates_quadratic(attrs)
    assert audit["results"]["duplicates"] == {
        "total": total, "distinct": distinct, "duplicates": duplicates}
    pairs = gray_pairs_quadratic(attrs, raw)
    assert audit["results"]["gray_pair_count"] == len(pairs)
    assert audit["results"]["gray_pairs"] == [
        {"row_a": a, "row_b": b, "decision_a": raw[a], "decision_b": raw[b],
         "values": attrs[a].tolist()}
        for a, b in pairs
    ]

    # single AUCs, ranked largest first, ties in column order
    singles = [auc_pairs(attrs[:, j], decision) for j in range(n_items)]
    order = sorted(range(n_items), key=lambda j: -singles[j])
    code, rank, _ = runs["rank"]
    assert code == 0
    assert rank["results"]["items"] == [
        {"item": labels[j], "auc": singles[j]} for j in order]

    # running AUCs, and the kept prefix: up to the first running AUC that
    # the next item does not raise
    running = running_auc_prefix(attrs, decision, order)
    kept = next(k for k in range(1, n_items + 1)
                if k == n_items or running[k] <= running[k - 1])
    code, reduce, _ = runs["reduce"]
    assert code == 0
    assert reduce["results"]["ranking"] == [
        {"item": labels[j], "auc_single": singles[j], "auc_running": r,
         "retained": k < kept}
        for k, (j, r) in enumerate(zip(order, running))
    ]
    assert reduce["results"]["reduced_items"] == [labels[j] for j in order[:kept]]
    assert reduce["results"]["achieved_auc"] == running[kept - 1]
    assert reduce["results"]["stop_reason"] == (
        "exhausted-all-items" if kept == n_items else "first-decrease")
    assert reduce["results"]["reduction_ratio"] == kept / n_items
    assert reduce["results"]["flipped_items"] == []
    assert reduce["results"]["plots"] == []

    code, inclusion, err = runs["test-inclusion"]
    if kept == n_items:
        assert code == 3 and "not reducible" in err
        return
    s1 = attrs[:, order[:kept]].sum(axis=1)
    s2 = attrs[:, order[:kept + 1]].sum(axis=1)
    auc_1, auc_2 = running[kept - 1], running[kept]
    if auc_1 == auc_2:
        expected = [0.0, 0.0]
    else:
        expected = [delong_z_exact(s1, s2, decision), bootstrap_z_matrices(
            s1, s2, decision, n_boot, seed, _ROWS_PER_CELL)]
    if None in expected:
        assert code == 3
        assert ("variance" if expected[0] is None else "spread") in err
        return
    assert code == 0
    results = inclusion["results"]
    assert results["reduced_items"] == [labels[j] for j in order[:kept]]
    assert results["next_item"] == labels[order[kept]]
    assert results["flipped_items"] == []
    delong, boot = results["tests"]
    assert (delong["method"], boot["method"]) == ("delong", "bootstrap")
    assert (delong["n_boot"], delong["seed"]) == (None, None)
    assert (boot["n_boot"], boot["seed"]) == (n_boot, seed)
    assert abs(delong["z"] - expected[0]) <= math.ulp(expected[0])
    assert boot["z"] == expected[1]
    for test in (delong, boot):
        assert (test["auc_1"], test["auc_2"]) == (auc_1, auc_2)
        assert test["alternative"] == "two-sided"
        assert test["p_value"] == pytest.approx(
            2 * norm.sf(abs(test["z"])), abs=1e-12)
