"""Metamorphic relations between two CLI runs on transformed input text.

The oracles compare the library with brute force on the same parsed
values, so a convention both share is invisible to them. These tests
instead run cli.main on an input and on a transformed copy of its CSV
text, and check a relation that must hold between the reports. The
inputs are the golden ones and hypothesis-drawn tables of integer codes
with gaps and short decimals:

* row duplication: every row written twice multiplies 2U and 2PN by 4,
  so every single, running and DeLong AUC stays identical;
* decision relabel: --positive naming the other decision value swaps the
  classes, so each single AUC becomes 1 - AUC; both are correctly
  rounded quotients, so their exact sum is within 1 ulp of 1;
* row permutation: every count and every score is the same multiset, so
  rank, reduce and both paired tests stay identical (the bootstrap's z is
  its exact value, a function of the multiset of rows), and audit lists
  the same gray pairs under the permuted row numbers;
* column permutation: the ranking orders the items by single AUC, so
  where no two single AUCs tie, rank, reduce and both paired tests stay
  identical. Tied items keep column order by contract, so an input with
  tied single AUCs is left out; no golden input has any, and a drawn
  table with them is drawn again.
"""

import contextlib
import csv
import io
import json
import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def report(command, path, decision, *flags):
    """Exit code and parsed JSON report (None on failure) of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*RUNS[command], str(path), "--decision", decision,
                     *flags, "--format", "json"])
    return code, json.loads(out.getvalue()) if code == 0 else None


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


def data_lines(path):
    """The header line and the data lines of a CSV file, each ending in a
    line end."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows[-1] = rows[-1].rstrip("\r\n") + "\n"
    return header, rows


def copy_path(tmp, path):
    """Where a transformed copy of the input at path is written."""
    return Path(tmp) / f"copy-{path.name}"


def check_row_duplication(tmp, path, decision, command):
    header, rows = data_lines(path)
    doubled = copy_path(tmp, path)
    doubled.write_text(header + "".join(rows * 2), encoding="utf-8")
    code, once = report(command, path, decision)
    doubled_code, twice = report(command, doubled, decision)
    assert doubled_code == code
    if code == 0:
        assert aucs(command, twice) == aucs(command, once)
        assert (twice["positives"], twice["negatives"]) == (
            2 * once["positives"], 2 * once["negatives"])


def check_decision_relabel(path, decision):
    with open(path, newline="", encoding="utf-8-sig") as f:
        values = {float(row[decision]) for row in csv.DictReader(f)
                  if row[decision].strip()}
    assert len(values) == 2
    code, rep = report("rank", path, decision)
    assert code == 0
    code, relabelled = report("rank", path, decision,
                              "--positive", repr(min(values)))
    assert code == 0
    assert (relabelled["positives"], relabelled["negatives"]) == (
        rep["negatives"], rep["positives"])
    flipped = dict(aucs("rank", relabelled))
    assert flipped.keys() == dict(aucs("rank", rep)).keys()
    for item, auc in aucs("rank", rep):
        gap = abs(Fraction(auc) + Fraction(flipped[item]) - 1)
        assert gap <= max(math.ulp(auc), math.ulp(flipped[item])), item


def permuted_rows(tmp, path, seed):
    """A copy of the input with its data rows in a seeded random order,
    and, per row of the copy, the row of the input it holds."""
    header, rows = data_lines(path)
    order = list(range(len(rows)))
    random.Random(seed).shuffle(order)
    copy = copy_path(tmp, path)
    copy.write_text(header + "".join(rows[i] for i in order), encoding="utf-8")
    return copy, order


def loaded_rows(path):
    """Per loaded row, its data row in the file: the rows the loader keeps
    are those with no empty cell."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        return [i for i, row in enumerate(list(csv.reader(f))[1:])
                if all(cell.strip() for cell in row)]


def check_row_permutation(tmp, path, decision, command, seed=0):
    permuted_path, _ = permuted_rows(tmp, path, seed)
    code, rep = report(command, path, decision)
    permuted_code, permuted = report(command, permuted_path, decision)
    assert permuted_code == code
    if code == 0:
        assert permuted["results"] == rep["results"]


def check_gray_pair_renumbering(tmp, path, decision, seed=0):
    permuted_path, order = permuted_rows(tmp, path, seed)
    code, rep = report("audit", path, decision)
    assert code == 0
    code, permuted = report("audit", permuted_path, decision)
    assert code == 0
    before, after = loaded_rows(path), loaded_rows(permuted_path)
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


def check_column_permutation(tmp, path, decision, command, seed=0):
    with open(path, newline="", encoding="utf-8-sig") as f:
        table = list(csv.reader(f))
    columns, rng = list(range(len(table[0]))), random.Random(seed)
    while columns == sorted(columns):
        rng.shuffle(columns)
    permuted_path = copy_path(tmp, path)
    with open(permuted_path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [row[i] for i in columns] for row in table)
    singles = [auc for _, auc in aucs("rank", report("rank", path, decision)[1])]
    assert len(set(singles)) == len(singles), "tied single AUCs"
    code, rep = report(command, path, decision)
    permuted_code, permuted = report(command, permuted_path, decision)
    assert permuted_code == code
    if code == 0:
        assert permuted["results"] == rep["results"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name, decision", INPUTS)
def test_row_duplication_keeps_every_auc(tmp_path, name, decision, command):
    check_row_duplication(tmp_path, DATA_DIR / name, decision, command)


@pytest.mark.parametrize("name, decision", INPUTS)
def test_decision_relabel_complements_single_aucs(name, decision):
    check_decision_relabel(DATA_DIR / name, decision)


@pytest.mark.parametrize("command", sorted([*COMMANDS, "bootstrap"]))
@pytest.mark.parametrize("name, decision", INPUTS)
def test_row_permutation_keeps_every_result(tmp_path, name, decision,
                                            command):
    check_row_permutation(tmp_path, DATA_DIR / name, decision, command)


@pytest.mark.parametrize("name, decision", AUDITED)
def test_row_permutation_renumbers_gray_pairs(tmp_path, name, decision):
    check_gray_pair_renumbering(tmp_path, DATA_DIR / name, decision)


@pytest.mark.parametrize("command", ["rank", "reduce", "both"])
@pytest.mark.parametrize("name, decision", INPUTS)
def test_column_permutation_keeps_every_result(tmp_path, name, decision,
                                               command):
    check_column_permutation(tmp_path, DATA_DIR / name, decision, command)


# the codes one item's cells take: one digit with gaps such as {0, 5, 9};
# signed two- or three-digit integers at most 60 apart, so that most
# running sums span at most 4 values per row and are counted over their
# range, empty levels and all; or short signed decimals
ITEM_CODES = st.one_of(
    st.lists(st.integers(0, 9), min_size=2, max_size=4, unique=True),
    st.tuples(st.integers(-99, 99), st.sampled_from([1, 10])).flatmap(
        lambda b: st.lists(st.integers(b[0] * b[1] - 30, b[0] * b[1] + 30),
                           min_size=2, max_size=4, unique=True)),
    st.lists(st.integers(-999, 999).map(lambda k: k / 100),
             min_size=2, max_size=4, unique=True),
)


@st.composite
def drawn_tables(draw):
    """CSV text of 2-4 items drawn from ITEM_CODES and a 0/1 decision "d"
    in a drawn column, in 8-40 complete rows with at least two of each
    class."""
    codes = draw(st.lists(ITEM_CODES, min_size=2, max_size=4))
    m = draw(st.integers(8, 40))
    decision = [1, 1, 0, 0, *draw(st.lists(st.sampled_from([0, 1]),
                                           min_size=m - 4, max_size=m - 4))]
    header = [f"q{j}" for j in range(len(codes))]
    at = draw(st.integers(0, len(codes)))
    header.insert(at, "d")
    lines = [",".join(header)]
    for d in decision:
        cells = [str(draw(st.sampled_from(c))) for c in codes]
        cells.insert(at, str(d))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def drawn_input(text):
    """A temporary directory holding the drawn table, and its path."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.csv"
        path.write_text(text, encoding="utf-8")
        yield tmp, path


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_tables(), st.sampled_from(["rank", "reduce", "delong",
                                        "bootstrap", "audit"]),
       st.integers(0, 2**16))
def test_row_permutation_on_drawn_tables(text, command, seed):
    with drawn_input(text) as (tmp, path):
        if command == "audit":
            check_gray_pair_renumbering(tmp, path, "d", seed)
        else:
            check_row_permutation(tmp, path, "d", command, seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_tables(), st.sampled_from(["rank", "reduce", "both"]),
       st.integers(0, 2**16))
def test_column_permutation_on_drawn_tables(text, command, seed):
    with drawn_input(text) as (tmp, path):
        singles = [auc for _, auc in aucs("rank", report("rank", path, "d")[1])]
        # tied single AUCs keep column order by contract
        assume(len(set(singles)) == len(singles))
        check_column_permutation(tmp, path, "d", command, seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_tables(), st.sampled_from(sorted(COMMANDS)))
def test_row_duplication_on_drawn_tables(text, command):
    with drawn_input(text) as (tmp, path):
        check_row_duplication(tmp, path, "d", command)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn_tables())
def test_decision_relabel_on_drawn_tables(text):
    with drawn_input(text) as (_, path):
        check_decision_relabel(path, "d")
