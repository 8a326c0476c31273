"""Metamorphic relations between two CLI runs on transformed input text.

The oracles compare the library with brute force on the same parsed
values, so a convention both share is invisible to them. These tests
instead run cli.main on each golden input and on a transformed copy of
its CSV text, and check a relation that must hold between the reports:

* row duplication: every row written twice multiplies 2U and 2PN by 4,
  so every single, running and DeLong AUC stays identical;
* decision relabel: --positive naming the other decision value swaps the
  classes, so each single AUC becomes 1 - AUC; both are correctly
  rounded quotients, so their exact sum is within 1 ulp of 1.
"""

import csv
import json
import math
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
COMMANDS = {
    "rank": ["rank"],
    "reduce": ["reduce"],
    "delong": ["test-inclusion", "--method", "delong"],
}


def report(capsys, command, path, decision, *flags):
    """Exit code and parsed JSON report (None on failure) of one run."""
    code = main([*COMMANDS[command], str(path), "--decision", decision,
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
