"""Every CLI command, format and flag case against its recorded output.

The cases, exit codes and stderr are in tests/data/cli_golden/cases.json
and each stdout in <case>.out, written by tools/gen_cli_golden.py, and
the files a reduce --plot case writes in <input stem>-plot.<file name>.
Each case runs in a directory holding copies of the inputs, exactly as
the generator ran it.
"""

import csv
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scalereduce import load_csv, rsr, sum_scores, total_auc
from scalereduce.cli import main
from scalereduce.compare import _ROWS_PER_CELL

from conftest import DATA_DIR

GOLDEN = DATA_DIR / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
INPUTS = {c["argv"][1] for c in CASES.values()}
GENERATOR = DATA_DIR.parents[1] / "tools" / "gen_cli_golden.py"
PLOTS = ("running_auc.svg", "running_auc.csv", "roc_reduced.svg",
         "roc_reduced.csv")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, monkeypatch, tmp_path):
    for name in INPUTS:
        shutil.copy(DATA_DIR / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    expected = CASES[case]
    code = main(expected["argv"])
    captured = capsys.readouterr()
    assert code == expected["exit"]
    assert captured.out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
    assert captured.err == expected["stderr"]
    argv = expected["argv"]
    if "--plot" in argv:
        prefix = f"{Path(argv[1]).stem}-plot."
        out = tmp_path / argv[argv.index("--out") + 1]
        recorded = {p.name[len(prefix):]: p.read_bytes()
                    for p in GOLDEN.glob(prefix + "*")}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == recorded


def test_golden_cases_cover_the_interface():
    """Every command and format, each test-inclusion method alone and
    both, a gray pair, a row in two gray pairs, a pair led by a negative
    row, gray pairs whose decision codes and cells json and {:g} print
    differently, the below-0.5 advisory, flipped items, a byte-order-marked
    input, the four plot files of each plotted input, one of them a scale of a
    single item, a bootstrap whose classes both have enough rows per
    (scores_1, scores_2) cell to draw multinomial counts, and an input
    whose row sums overflow only past the next item all appear in the
    recorded outputs."""
    argvs = [c["argv"] for c in CASES.values()]
    assert {a[0] for a in argvs} == {"audit", "rank", "reduce", "test-inclusion"}
    assert {a[a.index("--format") + 1] for a in argvs} == {"json", "csv", "table"}
    assert {a[a.index("--method") + 1] if "--method" in a else "both"
            for a in argvs if a[0] == "test-inclusion"} == {
        "delong", "bootstrap", "both"}
    outs = "".join(p.read_text(encoding="utf-8") for p in GOLDEN.glob("*.out"))
    assert "  rows " in outs
    assert "flipped items: " in outs
    assert any(c["stderr"].startswith("advisory:") for c in CASES.values())
    shared = json.loads((GOLDEN / "cli_gray-audit-json.out").read_bytes())
    rows = [p["row_a"] for p in shared["results"]["gray_pairs"]]
    assert len(set(rows)) < len(rows)
    order = json.loads((GOLDEN / "cli_gray_order-audit-json.out").read_bytes())
    assert any(p["decision_a"] < p["decision_b"]
               for p in order["results"]["gray_pairs"])
    json_out, table_out = (
        (GOLDEN / f"cli_gray_codes-audit-{fmt}.out").read_text(encoding="utf-8")
        for fmt in ("json", "table"))
    assert '"decision_a": 2.0,' in json_out and "123456789.0," in json_out
    assert "decision 2/0.5 values 1.23457e+08,0\n" in table_out
    plotted = {Path(a[1]).stem for a in argvs if "--plot" in a}
    assert plotted == {"scale21", "cli_mixed", "cli_one_item"}
    for stem in plotted:
        assert {p.name for p in GOLDEN.glob(f"{stem}-plot.*")} == {
            f"{stem}-plot.{name}" for name in PLOTS}
    # a byte-order mark before the header changes nothing csv prints
    bom = (GOLDEN / "cli_mixed_bom-rank-csv.out").read_bytes()
    assert bom == (GOLDEN / "cli_mixed-rank-csv.out").read_bytes()
    booted = {(a[1], a[a.index("--decision") + 1]) for a in argvs
              if a[0] == "test-inclusion" and "delong" not in a}
    assert any(min(_rows_per_cell(*input)) >= _ROWS_PER_CELL
               for input in booted)
    # test-inclusion sums no item past the next one, so it succeeds where
    # reduce, which reports every running AUC, fails naming the items
    tail = {c["argv"][0]: c for c in CASES.values()
            if c["argv"][1] == "cli_overflow_tail.csv"}
    assert tail["test-inclusion"]["exit"] == 0
    assert tail["reduce"]["exit"] == 3
    assert "items x, y, z1, z2 overflows" in tail["reduce"]["stderr"]


def test_decimal_goldens_pin_float_sums():
    """Two rows of cli_decimal.csv have equal written totals of the
    scale's items but different float64 sums, as 2.07 + 1.0 against
    1.07 + 2.0, so its goldens record that the scale sums the parsed
    floats, in ranking order, rather than the written decimals."""
    report = json.loads(
        (GOLDEN / "cli_decimal-reduce-json.out").read_bytes())
    items = report["results"]["reduced_items"]
    assert len(items) > 1
    with open(DATA_DIR / "cli_decimal.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    sums = {}
    for row in rows:
        exact = sum(Fraction(row[item]) for item in items)
        sums.setdefault(exact, set()).add(sum(float(row[item]) for item in items))
    assert any(len(floats) > 1 for floats in sums.values())


def _rows_per_cell(name, decision):
    """Rows per distinct (scores_1, scores_2) cell of the inclusion
    scores, in the positives and in the negatives of an input."""
    ds = load_csv(DATA_DIR / name, decision)
    ranking = total_auc(ds)
    kept = len(rsr(ds).items)
    s1, s2 = (sum_scores(ds, ranking.order[:k]) for k in (kept, kept + 1))
    return [rows.sum() / len(set(zip(s1[rows], s2[rows])))
            for rows in (ds.decision, ~ds.decision)]


def test_goldens_are_current():
    """Regenerating the fixtures and goldens would change no file."""
    result = subprocess.run(
        [sys.executable, str(GENERATOR), "--check"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
