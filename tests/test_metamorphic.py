"""Metamorphic relations between two CLI runs on transformed input text.

The oracles compare the library with brute force on the same parsed
values, so a convention both share is invisible to them. These tests
instead run cli.main on each golden input and on a transformed copy of
its CSV text, and check a relation that must hold between the reports:

* row duplication: every row written twice multiplies 2U and 2PN by 4,
  so every single, running and DeLong AUC stays identical;
* decision relabel: --positive naming the other decision value swaps the
  classes, so each single AUC becomes 1 - AUC; both are correctly
  rounded quotients, so their exact sum is within 1 ulp of 1;
* row permutation: every count and every score is the same multiset, so
  rank, reduce and DeLong results stay identical, and audit lists the
  same gray pairs under the permuted row numbers. Bootstrap z stays
  identical where both classes draw multinomial cell counts, which do not
  depend on row order; a class that draws row indices draws other rows;
* column permutation: the ranking orders the items by single AUC, so
  where no two single AUCs tie, rank, reduce and both paired tests stay
  identical. Tied items keep column order by contract, so an input with
  tied single AUCs would be left out; no golden input has any.
"""

import csv
import json
import math
import random
from fractions import Fraction

import pytest

from scalereduce.cli import main

from conftest import DATA_DIR

CASES = json.loads((DATA_DIR / "cli_golden" / "cases.json").read_text(
    encoding="utf-8"))
# every golden input with the decision column it is ranked against
INPUTS = sorted({(c["argv"][1], c["argv"][c["argv"].index("--decision") + 1])
                 for c in CASES.values()
                 if c["argv"][0] in ("rank", "reduce", "test-inclusion")})
AUDITED = sorted({(c["argv"][1], c["argv"][c["argv"].index("--decision") + 1])
                  for c in CASES.values() if c["argv"][0] == "audit"})
COMMANDS = {
    "rank": ["rank"],
    "reduce": ["reduce"],
    "delong": ["test-inclusion", "--method", "delong"],
}
BOOT = ["--n-boot", "200", "--seed", "7"]
RUNS = {
    **COMMANDS,
    "audit": ["audit"],
    "bootstrap": ["test-inclusion", "--method", "bootstrap", *BOOT],
    "both": ["test-inclusion", "--method", "both", *BOOT],
}


def report(capsys, command, path, decision, *flags):
    """Exit code and parsed JSON report (None on failure) of one run."""
    code = main([*RUNS[command], str(path), "--decision", decision,
                 *flags, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else None


def aucs(command, rep):
    """The AUCs a report holds, with what names them."""
    results = rep["results"]
    if command == "rank":
        return [(r["item"], r["auc"]) for r in results["items"]]
    if command == "reduce":
        return [(r["item"], r["auc_single"], r["auc_running"], r["retained"])
                for r in results["ranking"]]
    return [(results["next_item"], t["auc_1"], t["auc_2"])
            for t in results["tests"]]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name, decision", INPUTS)
def test_row_duplication_keeps_every_auc(capsys, tmp_path, name, decision,
                                         command):
    header, *rows = (DATA_DIR / name).read_text(encoding="utf-8").splitlines(
        keepends=True)
    rows[-1] = rows[-1].rstrip("\r\n") + "\n"
    doubled = tmp_path / name
    doubled.write_text(header + "".join(rows * 2), encoding="utf-8")
    code, once = report(capsys, command, DATA_DIR / name, decision)
    doubled_code, twice = report(capsys, command, doubled, decision)
    assert doubled_code == code
    if code == 0:
        assert aucs(command, twice) == aucs(command, once)
        assert (twice["positives"], twice["negatives"]) == (
            2 * once["positives"], 2 * once["negatives"])


@pytest.mark.parametrize("name, decision", INPUTS)
def test_decision_relabel_complements_single_aucs(capsys, name, decision):
    path = DATA_DIR / name
    with open(path, newline="", encoding="utf-8-sig") as f:
        values = {float(row[decision]) for row in csv.DictReader(f)
                  if row[decision].strip()}
    assert len(values) == 2
    code, rep = report(capsys, "rank", path, decision)
    assert code == 0
    code, relabelled = report(capsys, "rank", path, decision,
                              "--positive", repr(min(values)))
    assert code == 0
    assert (relabelled["positives"], relabelled["negatives"]) == (
        rep["negatives"], rep["positives"])
    flipped = dict(aucs("rank", relabelled))
    assert flipped.keys() == dict(aucs("rank", rep)).keys()
    for item, auc in aucs("rank", rep):
        gap = abs(Fraction(auc) + Fraction(flipped[item]) - 1)
        assert gap <= max(math.ulp(auc), math.ulp(flipped[item])), item


def permuted_rows(tmp_path, name, seed=0):
    """A copy of the input with its data rows in a seeded random order,
    and, per row of the copy, the row of the input it holds."""
    header, *rows = (DATA_DIR / name).read_text(encoding="utf-8").splitlines(
        keepends=True)
    rows[-1] = rows[-1].rstrip("\r\n") + "\n"
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    path = tmp_path / name
    path.write_text(header + "".join(rows[i] for i in order), encoding="utf-8")
    return path, order


def loaded_rows(path):
    """Per loaded row, its data row in the file: the rows the loader keeps
    are those with no empty cell."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        return [i for i, row in enumerate(list(csv.reader(f))[1:])
                if all(cell.strip() for cell in row)]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name, decision", INPUTS)
def test_row_permutation_keeps_every_result(capsys, tmp_path, name, decision,
                                            command):
    path, _ = permuted_rows(tmp_path, name)
    code, rep = report(capsys, command, DATA_DIR / name, decision)
    permuted_code, permuted = report(capsys, command, path, decision)
    assert permuted_code == code
    if code == 0:
        assert permuted["results"] == rep["results"]


def test_row_permutation_keeps_multinomial_bootstrap(capsys, tmp_path):
    # both classes of cli_few_cells.csv draw multinomial cell counts (see
    # test_golden_cases_cover_the_interface)
    path, _ = permuted_rows(tmp_path, "cli_few_cells.csv")
    code, rep = report(capsys, "bootstrap", DATA_DIR / "cli_few_cells.csv", "d")
    assert code == 0
    code, permuted = report(capsys, "bootstrap", path, "d")
    assert code == 0
    assert permuted["results"] == rep["results"]


@pytest.mark.parametrize("name, decision", AUDITED)
def test_row_permutation_renumbers_gray_pairs(capsys, tmp_path, name,
                                              decision):
    path, order = permuted_rows(tmp_path, name)
    code, rep = report(capsys, "audit", DATA_DIR / name, decision)
    assert code == 0
    code, permuted = report(capsys, "audit", path, decision)
    assert code == 0
    before, after = loaded_rows(DATA_DIR / name), loaded_rows(path)
    assert len(before) == len(after) == rep["n_rows"]
    # loaded row of the input -> loaded row of the copy
    renumber = {before.index(order[row]): i for i, row in enumerate(after)}
    expected = []
    for pair in rep["results"]["gray_pairs"]:
        a, b = ((renumber[pair[f"row_{end}"]], pair[f"decision_{end}"])
                for end in "ab")
        (row_a, decision_a), (row_b, decision_b) = sorted((a, b))
        expected.append({"row_a": row_a, "row_b": row_b,
                         "decision_a": decision_a, "decision_b": decision_b,
                         "values": pair["values"]})
    assert permuted["results"]["gray_pairs"] == sorted(
        expected, key=lambda p: (p["row_a"], p["row_b"]))
    assert {k: v for k, v in permuted["results"].items() if k != "gray_pairs"} \
        == {k: v for k, v in rep["results"].items() if k != "gray_pairs"}


@pytest.mark.parametrize("command", ["rank", "reduce", "both"])
@pytest.mark.parametrize("name, decision", INPUTS)
def test_column_permutation_keeps_every_result(capsys, tmp_path, name,
                                               decision, command):
    with open(DATA_DIR / name, newline="", encoding="utf-8-sig") as f:
        table = list(csv.reader(f))
    columns, rng = list(range(len(table[0]))), random.Random(0)
    while columns == sorted(columns):
        rng.shuffle(columns)
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [row[i] for i in columns] for row in table)
    singles = [auc for _, auc in aucs("rank", report(
        capsys, "rank", DATA_DIR / name, decision)[1])]
    assert len(set(singles)) == len(singles), "tied single AUCs"
    code, rep = report(capsys, command, DATA_DIR / name, decision)
    permuted_code, permuted = report(capsys, command, path, decision)
    assert permuted_code == code
    if code == 0:
        assert permuted["results"] == rep["results"]
