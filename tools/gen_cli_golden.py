"""Generate the golden CLI outputs that tests/test_cli_golden.py checks.

Writes tests/data/cli_mixed.csv, a small seeded rating-scale fixture with a
gray pair, one reverse-keyed item (single-item AUC below 0.5) and one
incomplete row, and tests/data/cli_gray.csv, a hand-written audit fixture
whose gray groups put one row in two pairs and a -0 cell in another,
tests/data/cli_gray_order.csv, an audit fixture with decisions coded 1/2
whose interleaved gray groups pin the order of the pair listing (a pair
led by a negative row, alternating decisions, three positives against one
negative, and clones of a single decision that are not gray),
tests/data/cli_gray_codes.csv, an audit fixture with decisions coded
0.5/2 and cells of -0, 1e-07 and 123456789, which json.dumps and {:g}
print differently, so its json and table cases pin both writers' number
formats, and tests/data/cli_mixed_bom.csv, cli_mixed.csv behind a UTF-8
byte-order mark, as Excel writes it; its one case prints the same csv as the plain
file's (json would differ, as it holds the input path), and
tests/data/cli_one_item.csv, a scale of a single item, whose reduce --plot
case draws the running-AUC chart over one item count, and
tests/data/cli_few_cells.csv, 300 seeded rows of four 0-1 items, whose
inclusion scores fall into six (scores_1, scores_2) cells with at least
20 rows per cell in each class, so its bootstrap case counts few cells of
many rows each, and tests/data/cli_overflow_tail.csv, 60 seeded rows whose items
rank x, y, z1, z2 and whose scale keeps x alone, while z1 and z2 hold
scores near 1e308 that overflow float64 when summed: its test-inclusion
case succeeds, as the walk sums no item past y, and its reduce case,
which reports every running AUC, fails with exit 3, and
tests/data/cli_degenerate.csv, eight rows whose scale keeps a and whose
next item b moves the AUC while the placement differences stay constant
in both classes, so both paired tests fail with exit 3, their variance
and spread exactly zero, and tests/data/cli_ints.csv, 40 seeded rows of
signed multi-digit integers: a 0-10 item, a reverse-keyed item that holds
-128 and 127, which --auto-orient flips to 128 and -127, an item of -50
to 50 and a planted gray pair, and tests/data/cli_decimal.csv, 300 seeded
rows of five lab-style items written to 3 significant digits, from about
0.01 to over 1000, and a 1-4 stage item: its scale keeps bili and stage,
and rows 0 and 1, bili 2.07 with stage 1 and bili 1.07 with stage 2, have
equal written totals but float64 sums 3.07 and 3.0700000000000003, so its
reduce and test-inclusion cases pin how decimal items are summed. Then
runs every case
in cases() through scalereduce.cli.main and writes
tests/data/cli_golden/: one <case>.out file per case with its stdout,
cases.json with each case's argv, exit code and stderr, and, once per
input, the four files that its reduce --plot cases write, each named
<input stem>-plot.<file name>.

Each case runs in a fresh temporary directory that holds copies of the
input files, so the input path and the plot paths in the reports are
relative and the same on every machine.

Run from the repository root: python3 tools/gen_cli_golden.py

With --check it regenerates everything into a temporary directory instead,
writes nothing into the repository, lists the files under tests/data/ that
would change and exits 1 if there are any.

Either way it refuses, exits 1 and writes no golden if any json case's
stdout is not json.dumps(report, indent=2) and a newline, so the goldens
cannot drift from the standard library's layout.
"""

import argparse
import contextlib
import filecmp
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "cli_golden"
sys.path.insert(0, str(ROOT / "src"))

from scalereduce.cli import main  # noqa: E402

SEED = 20261018
N_ROWS = 48
N_FEW_CELLS_ROWS = 300
N_OVERFLOW_TAIL_ROWS = 60
N_INTS_ROWS = 40
N_DECIMAL_ROWS = 300
FORMATS = ("json", "csv", "table")
BOOT = ["--n-boot", "200", "--seed", "7"]
FLAGS = {
    "audit": {"": []},
    "rank": {"": [], "-auto-orient": ["--auto-orient"]},
    "reduce": {
        "": [],
        "-auto-orient": ["--auto-orient"],
        "-plot": ["--plot", "--out", "plots"],
    },
    "test-inclusion": {
        "": BOOT,
        "-auto-orient": BOOT + ["--auto-orient"],
        "-delong": ["--method", "delong"],
        "-bootstrap": BOOT + ["--method", "bootstrap"],
    },
}
# (input file, decision column, the commands run on it, the formats); an
# input may appear more than once, each time with its own formats
RUNS = [
    ("scale21.csv", "verdict", FLAGS, FORMATS),
    ("cli_mixed.csv", "d", FLAGS, FORMATS),
    ("cli_gray.csv", "d", {"audit": FLAGS["audit"]}, FORMATS),
    ("cli_gray_order.csv", "d", {"audit": FLAGS["audit"]}, FORMATS),
    ("cli_gray_codes.csv", "d", {"audit": FLAGS["audit"]}, FORMATS),
    ("cli_mixed_bom.csv", "d", {"rank": {"": []}}, ("csv",)),
    ("cli_one_item.csv", "d", {"reduce": {"-plot": FLAGS["reduce"]["-plot"]}},
     FORMATS),
    ("cli_few_cells.csv", "d", {"test-inclusion": {
        "-bootstrap": FLAGS["test-inclusion"]["-bootstrap"]}}, FORMATS),
    # reduce fails here and prints no report, which the json layout check
    # would refuse, so it runs in csv alone
    ("cli_overflow_tail.csv", "d", {"reduce": {"": []}}, ("csv",)),
    ("cli_overflow_tail.csv", "d", {"test-inclusion": {
        "-delong": FLAGS["test-inclusion"]["-delong"]}}, ("json",)),
    # both tests fail and print no report, so these run in csv alone
    ("cli_degenerate.csv", "d", {"test-inclusion": {
        "-delong": FLAGS["test-inclusion"]["-delong"],
        "-bootstrap": FLAGS["test-inclusion"]["-bootstrap"]}}, ("csv",)),
    ("cli_ints.csv", "d", {"audit": FLAGS["audit"]}, ("json", "table")),
    ("cli_ints.csv", "d", {
        "rank": {"-auto-orient": FLAGS["rank"]["-auto-orient"]},
        "reduce": {"-auto-orient": FLAGS["reduce"]["-auto-orient"]}},
     ("json",)),
    ("cli_decimal.csv", "d", {
        "reduce": {"": []},
        "test-inclusion": {"-delong": FLAGS["test-inclusion"]["-delong"]}},
     ("json",)),
]
INPUTS = {run[0] for run in RUNS}
# rows 0, 2 and 4 are one gray group, so row 0 is row_a of two pairs; rows
# 1 and 5 are another, told apart only by the sign of a zero; rows 3 and 6
# are duplicates with the same decision
GRAY_ROWS = [
    "p,q,r,d",
    "1,2,3,1",
    "0,-0,2.5,1",
    "1,2,3,0",
    "4,1,0,0",
    "1,2,3,0",
    "0,0,2.5,0",
    "4,1,0,0",
    "2,2,2,1",
]
# decisions 1 (negative) and 2 (positive). Rows 0, 2, 5, 7 and 9 alternate
# 1, 2, 1, 2, 1, so the first pair, (0, 2), is led by a negative row; rows
# 1, 3, 6 and 10 are three positives and one negative; rows 4 and 8 are
# clones with one decision, not gray; the groups interleave by row index
GRAY_ORDER_ROWS = [
    "u,v,d",
    "3,1,1",
    "0,0,2",
    "3,1,2",
    "0,0,2",
    "2.5,2,1",
    "3,1,1",
    "0,0,1",
    "3,1,2",
    "2.5,2,1",
    "3,1,1",
    "0,0,2",
    "1,4,2",
]
# decisions 0.5 (negative) and 2 (positive), which json writes as 0.5 and
# 2.0 and {:g} as 0.5 and 2. Rows 0 and 1 are a gray group told apart only
# by the sign of a zero, with values 123456789 (json 123456789.0, {:g}
# 1.23457e+08) and 0; rows 2, 3 and 4 are a group whose second pair is led
# by a positive row; row 5 is not gray
GRAY_CODES_ROWS = [
    "s,t,d",
    "123456789,-0,2",
    "123456789,0,0.5",
    "1e-07,2.5,0.5",
    "1e-07,2.5,2",
    "1e-07,2.5,0.5",
    "3,1,2",
]
# one item with tied scores across the classes: the running total has a
# single value, so the running-AUC chart's x range is one point wide
ONE_ITEM_ROWS = [
    "x,d",
    "0,0",
    "1,0",
    "1,1",
    "2,0",
    "2,1",
    "3,1",
    "1,0",
]

# a keeps AUC 0.6 and a + b falls to 0.1; every positive is the row
# (3, -3), and each negative's placement moves by the same amount from a
# to a + b, so the placement differences are constant in both classes
DEGENERATE_ROWS = [
    "a,b,d",
    "3,-3,1",
    "3,-2,0",
    "3,-2,0",
    "3,-2,0",
    "3,-3,1",
    "3,-1,0",
    "3,-3,1",
    "2,-2,0",
]


def mixed_rows(rng: random.Random) -> list[list[str]]:
    """Five 0-3 items driven by one latent trait; f is reverse-keyed."""
    rows = []
    for _ in range(N_ROWS):
        trait = rng.gauss(0.0, 1.0)
        d = int(trait + rng.gauss(0.0, 0.7) > 0.2)
        items = [
            min(3, max(0, round(1.5 + w * trait + rng.gauss(0.0, 0.9))))
            for w in (1.2, 0.9, 0.6, 0.2, -0.8)
        ]
        rows.append([str(v) for v in items] + [str(d)])
    # plant a gray pair: row 1 repeats row 0's items with the other decision
    rows[1] = rows[0][:-1] + [str(1 - int(rows[0][-1]))]
    rows[5][2] = ""  # one incomplete row, dropped by the loader
    return rows


def few_cells_rows(rng: random.Random) -> list[list[str]]:
    """Four 0-1 items driven by one latent trait, two of them noise."""
    rows = []
    for _ in range(N_FEW_CELLS_ROWS):
        trait = rng.gauss(0.0, 1.0)
        d = int(trait + rng.gauss(0.0, 0.8) > 0.0)
        items = [int(w * trait + rng.gauss(0.0, 1.0) > 0.0)
                 for w in (1.5, 1.0, 0.1, -0.2)]
        rows.append([str(v) for v in items] + [str(d)])
    return rows


def overflow_tail_rows(rng: random.Random) -> list[list[str]]:
    """x tracks the decision, y weakly; z1 and z2 lean against it, each
    at 9.0e307, 9.1e307 or 9.2e307, so any row's z1 + z2 overflows."""
    rows = []
    for _ in range(N_OVERFLOW_TAIL_ROWS):
        d = int(rng.random() < 0.5)
        x = min(4, max(0, round(1 + 2 * d + rng.gauss(0.0, 0.8))))
        y = min(4, max(0, round(1.5 + 0.8 * d + rng.gauss(0.0, 1.2))))
        zs = [(9.0e307, 9.1e307, 9.2e307)[
                  min(2, max(0, round(1 - w * d + rng.gauss(0.0, 0.8))))]
              for w in (0.3, 0.6)]
        rows.append([str(x), str(y)] + [repr(z) for z in zs] + [str(d)])
    return rows


def ints_rows(rng: random.Random) -> list[list[str]]:
    """A 0-10 item, a reverse-keyed -128..127 item and a -50..50 item,
    driven by one latent trait; the first two rows are a gray pair."""
    rows = []
    for _ in range(N_INTS_ROWS):
        trait = rng.gauss(0.0, 1.0)
        d = int(trait + rng.gauss(0.0, 0.7) > 0.0)
        items = [
            min(10, max(0, round(5 + 2.5 * trait + rng.gauss(0.0, 1.5)))),
            min(127, max(-128, round(-60 * trait + rng.gauss(0.0, 40.0)))),
            min(50, max(-50, round(15 * trait + rng.gauss(0.0, 25.0)))),
        ]
        rows.append([str(v) for v in items] + [str(d)])
    rows[1] = rows[0][:-1] + [str(1 - int(rows[0][-1]))]
    rows[2][1], rows[3][1] = "-128", "127"  # both ends of int8
    return rows


def sig3(v: float) -> str:
    """v > 0 rounded to 3 significant digits, written without an exponent."""
    places = 2 - math.floor(math.log10(v))
    return f"{round(v, places):.{max(0, places)}f}"


def decimal_rows(rng: random.Random) -> list[list[str]]:
    """bili, chol, albumin, copper and ast, log-normal and driven by one
    latent trait (albumin falls with it), and a 1-4 stage; rows 0 and 1
    differ only in bili and stage, with equal written totals of the two."""
    rows = []
    for _ in range(N_DECIMAL_ROWS):
        trait = rng.gauss(0.0, 1.0)
        d = int(trait + rng.gauss(0.0, 0.9) > 0.3)
        labs = [sig3(math.exp(mu + w * trait + rng.gauss(0.0, sd)))
                for mu, w, sd in ((0.3, 0.6, 0.5), (5.8, 0.25, 0.4),
                                  (1.2, -0.08, 0.08), (-3.5, 0.15, 0.6),
                                  (4.0, 0.3, 0.5))]
        stage = min(4, max(1, round(2.5 + 0.9 * trait + rng.gauss(0.0, 0.8))))
        rows.append(labs + [str(stage), str(d)])
    rows[0][0], rows[0][5] = "2.07", "1"
    rows[1][:6] = rows[0][:6]
    rows[1][0], rows[1][5] = "1.07", "2"
    return rows


def write_fixtures(data: Path) -> None:
    rows = [["a", "b", "c", "e", "f", "d"]] + mixed_rows(random.Random(SEED))
    text = "".join(",".join(row) + "\n" for row in rows)
    (data / "cli_mixed.csv").write_text(text, encoding="utf-8")
    (data / "cli_mixed_bom.csv").write_text(text, encoding="utf-8-sig")
    rows = [["a", "b", "c", "e", "d"]] + few_cells_rows(random.Random(SEED))
    (data / "cli_few_cells.csv").write_text(
        "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    rows = [["x", "y", "z1", "z2", "d"]] + overflow_tail_rows(
        random.Random(SEED))
    (data / "cli_overflow_tail.csv").write_text(
        "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    rows = [["u", "v", "w", "d"]] + ints_rows(random.Random(SEED))
    (data / "cli_ints.csv").write_text(
        "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    rows = [["bili", "chol", "albumin", "copper", "ast", "stage", "d"]] + (
        decimal_rows(random.Random(SEED)))
    (data / "cli_decimal.csv").write_text(
        "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    for name, lines in (("cli_gray.csv", GRAY_ROWS),
                        ("cli_gray_order.csv", GRAY_ORDER_ROWS),
                        ("cli_gray_codes.csv", GRAY_CODES_ROWS),
                        ("cli_one_item.csv", ONE_ITEM_ROWS),
                        ("cli_degenerate.csv", DEGENERATE_ROWS)):
        text = "".join(line + "\n" for line in lines)
        (data / name).write_text(text, encoding="utf-8")


def cases() -> dict[str, list[str]]:
    out = {}
    for name, decision, commands, formats in RUNS:
        for command, variants in commands.items():
            for suffix, flags in variants.items():
                for fmt in formats:
                    case = f"{Path(name).stem}-{command}{suffix}-{fmt}"
                    out[case] = [command, name, "--decision", decision,
                                 *flags, "--format", fmt]
    return out


def run_case(argv: list[str], data: Path) -> tuple[int, str, str, dict]:
    """Run one CLI call in a fresh directory holding the input files.
    Returns its exit code, stdout, stderr and the files it wrote, as
    {file name: bytes}."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            shutil.copy(data / name, Path(tmp) / name)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = {p.name: p.read_bytes() for p in Path(tmp).rglob("*")
                 if p.is_file() and p.name not in INPUTS}
    return code, out.getvalue(), err.getvalue(), files


def in_stdlib_layout(out: str) -> bool:
    """Whether out is json.dumps(report, indent=2) and a newline."""
    try:
        return out == json.dumps(json.loads(out), indent=2) + "\n"
    except ValueError:
        return False


def generate(data: Path) -> int:
    """Write the fixtures and data/cli_golden/ into data; scale21.csv,
    which tools/gen_scale21_fixture.py writes, must already be there.
    Writes no golden, and exits, if a json case's stdout is not in the
    layout of json.dumps(report, indent=2)."""
    write_fixtures(data)
    runs = {case: (argv, *run_case(argv, data)) for case, argv in cases().items()}
    for case, (argv, _, out, _, _) in runs.items():
        if argv[-1] == "json" and not in_stdlib_layout(out):
            sys.exit(f"{case}: stdout is not json.dumps(report, indent=2)")
    golden = data / "cli_golden"
    if golden.exists():
        shutil.rmtree(golden)
    golden.mkdir()
    manifest = {}
    for case, (argv, code, out, err, files) in runs.items():
        (golden / f"{case}.out").write_bytes(out.encode("utf-8"))
        for name, content in files.items():
            (golden / f"{Path(argv[1]).stem}-plot.{name}").write_bytes(content)
        manifest[case] = {"argv": argv, "exit": code, "stderr": err}
    (golden / "cases.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return len(manifest)


def stale_files() -> list[str]:
    """Regenerate into a temporary directory and name, relative to
    tests/data/, every written file that differs from the repository's
    and every recorded output that would no longer be written."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        shutil.copy(DATA / "scale21.csv", fresh / "scale21.csv")
        generate(fresh)
        written = {p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file()}
        recorded = {p.relative_to(DATA) for p in GOLDEN.glob("*")}
        return sorted(
            str(rel) for rel in written | recorded
            if not ((DATA / rel).is_file() and (fresh / rel).is_file()
                    and filecmp.cmp(DATA / rel, fresh / rel, shallow=False))
        )


def main_() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="list the files that regenerating would change, "
                             "write nothing, exit 1 if there are any")
    if parser.parse_args().check:
        stale = stale_files()
        for name in stale:
            print(f"would change: tests/data/{name}")
        return 1 if stale else 0
    n = generate(DATA)
    print(f"wrote {n} cases to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
