"""Every CLI command, format and flag case against its recorded output.

The cases, exit codes and stderr are in tests/data/cli_golden/cases.json
and each stdout in <case>.out, written by tools/gen_cli_golden.py. Each
case runs in a directory holding copies of the inputs, under
SOURCE_DATE_EPOCH=0, exactly as the generator ran it.
"""

import json
import shutil

import pytest

from scalereduce.cli import main

from conftest import DATA_DIR

GOLDEN = DATA_DIR / "cli_golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
INPUTS = ("scale21.csv", "cli_mixed.csv")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys, monkeypatch, tmp_path):
    for name in INPUTS:
        shutil.copy(DATA_DIR / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    expected = CASES[case]
    code = main(expected["argv"])
    captured = capsys.readouterr()
    assert code == expected["exit"]
    assert captured.out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
    assert captured.err == expected["stderr"]


def test_golden_cases_cover_the_interface():
    """Every command and format, a gray pair, the below-0.5 advisory and
    flipped items all appear in the recorded outputs."""
    argvs = [c["argv"] for c in CASES.values()]
    assert {a[0] for a in argvs} == {"audit", "rank", "reduce", "test-inclusion"}
    assert {a[a.index("--format") + 1] for a in argvs} == {"json", "csv", "table"}
    outs = "".join(p.read_text(encoding="utf-8") for p in GOLDEN.glob("*.out"))
    assert "  rows " in outs
    assert "flipped items: " in outs
    assert any(c["stderr"].startswith("advisory:") for c in CASES.values())
