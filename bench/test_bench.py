"""The benchmark's own test: tiny runs of every workload with all checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
from workloads import GENERATORS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace", product(sorted(GENERATORS), (0, 1)))
def test_tiny_run_is_correct_and_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "clinical-mixed", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", range(5))
def test_reference_agrees_with_pair_enumeration(seed):
    rng = np.random.default_rng(seed)
    d = rng.random(40) < 0.4
    s1 = rng.integers(0, 4, 40).astype(float)
    s2 = s1 + rng.integers(0, 3, 40)
    pos, neg = s1[d], s1[~d]
    psi = (pos[:, None] > neg) + 0.5 * (pos[:, None] == neg)
    assert reference.auc(s1, d) == psi.mean()
    v10, v01 = reference.placements(s1, d)
    assert np.allclose(v10, psi.mean(axis=1)) and np.allclose(v01, psi.mean(axis=0))
    rows = np.column_stack([s1, s2])
    brute = sum(
        (rows[i] == rows[j]).all() and d[i] != d[j]
        for i in range(40) for j in range(i + 1, 40)
    )
    assert reference.gray_pair_count(rows, d) == brute
    assert reference.distinct_rows(rows) == len({tuple(r) for r in rows.tolist()})


def _cli_json(argv: list[str]) -> str:
    from scalereduce import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_checks_reject_corrupted_reports(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    w = generate("screening-floor", 7, tiny=True)
    exp = checks.expected(w)
    csv_path = tmp_path / "data.csv"
    csv_path.write_bytes(w.csv_text)
    common = [str(csv_path), "--decision", w.decision_column, "--format", "json"]
    audit = json.loads(_cli_json(["audit", *common]))
    reduce = json.loads(_cli_json(["reduce", *common, "--plot", "--out", str(tmp_path)]))
    inclusion = json.loads(_cli_json(["test-inclusion", *common, "--method", "both",
                                      "--n-boot", str(w.n_boot), "--seed", "1234"]))
    checks.check_audit(json.dumps(audit), exp)
    checks.check_reduce(json.dumps(reduce), exp, tmp_path)
    checks.check_inclusion(json.dumps(inclusion), exp, 1234)

    audit["results"]["gray_pairs"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_audit(json.dumps(audit), exp)
    row = reduce["results"]["ranking"][-1]
    row["auc_running"] = float(np.nextafter(row["auc_running"], 1.0))
    with pytest.raises(checks.CheckFailed):
        checks.check_reduce(json.dumps(reduce), exp, tmp_path)
    inclusion["results"]["tests"][1]["z"] *= -1.0
    with pytest.raises(checks.CheckFailed):
        checks.check_inclusion(json.dumps(inclusion), exp, 1234)
