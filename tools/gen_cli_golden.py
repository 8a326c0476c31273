"""Generate the golden CLI outputs that tests/test_cli_golden.py checks.

Writes tests/data/cli_mixed.csv, a small seeded rating-scale fixture with a
gray pair, one reverse-keyed item (single-item AUC below 0.5) and one
incomplete row. Then runs every case in cases() through scalereduce.cli.main
and writes tests/data/cli_golden/: one <case>.out file per case with its
stdout, and cases.json with each case's argv, exit code and stderr.

Each case runs under SOURCE_DATE_EPOCH=0 in a fresh temporary directory
that holds copies of the two input files, so the input path and the plot
paths in the reports are relative and the same on every machine.

Run from the repository root: python3 tools/gen_cli_golden.py
"""

import contextlib
import io
import json
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
# input file -> decision column
INPUTS = {"scale21.csv": "verdict", "cli_mixed.csv": "d"}
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
    "test-inclusion": {"": BOOT, "-auto-orient": BOOT + ["--auto-orient"]},
}


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


def write_mixed_fixture() -> None:
    rows = [["a", "b", "c", "e", "f", "d"]] + mixed_rows(random.Random(SEED))
    text = "".join(",".join(row) + "\n" for row in rows)
    (DATA / "cli_mixed.csv").write_text(text, encoding="utf-8")


def cases() -> dict[str, list[str]]:
    out = {}
    for name, decision in INPUTS.items():
        for command, variants in FLAGS.items():
            for suffix, flags in variants.items():
                for fmt in FORMATS:
                    case = f"{Path(name).stem}-{command}{suffix}-{fmt}"
                    out[case] = [command, name, "--decision", decision,
                                 *flags, "--format", fmt]
    return out


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI call in a fresh directory holding the input files."""
    cwd = os.getcwd()
    saved = os.environ.get("SOURCE_DATE_EPOCH")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            shutil.copy(DATA / name, Path(tmp) / name)
        os.environ["SOURCE_DATE_EPOCH"] = "0"
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
            if saved is None:
                del os.environ["SOURCE_DATE_EPOCH"]
            else:
                os.environ["SOURCE_DATE_EPOCH"] = saved
    return code, out.getvalue(), err.getvalue()


def main_() -> None:
    write_mixed_fixture()
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    GOLDEN.mkdir()
    manifest = {}
    for case, argv in cases().items():
        code, out, err = run_case(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode("utf-8"))
        manifest[case] = {"argv": argv, "exit": code, "stderr": err}
    (GOLDEN / "cases.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} cases to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main_()
