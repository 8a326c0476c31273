import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import scalereduce
from scalereduce import reduction
from scalereduce.cli import main

from conftest import write_csv

# 3 items, 16 rows; reduces to (a, b) with c left over to test for inclusion
DEMO_ROWS = [
    [4, 2, 0, 1], [0, 1, 3, 0], [3, 1, 1, 1], [3, 2, 1, 0],
    [0, 3, 0, 0], [1, 1, 2, 0], [5, 2, 3, 1], [3, 4, 3, 1],
    [3, 1, 1, 1], [2, 0, 3, 0], [2, 0, 2, 0], [5, 1, 2, 1],
    [5, 4, 0, 1], [2, 4, 2, 1], [0, 2, 0, 0], [3, 1, 0, 1],
]


@pytest.fixture
def demo_csv(tmp_path):
    return write_csv(tmp_path / "demo.csv", ["a", "b", "c", "d"], DEMO_ROWS)


@pytest.fixture
def gray_csv(tmp_path):
    # rows 1 and 2 are clones with flipped decisions
    return write_csv(
        tmp_path / "gray.csv",
        ["x", "y", "d"],
        [[1, 4, 1], [1, 4, 0], [2, 2, 1], [3, 1, 0]],
    )


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAudit:
    def test_clean_file(self, capsys, demo_csv):
        code, out, _ = run(capsys, ["audit", demo_csv, "--decision", "d"])
        assert code == 0
        assert "gray pairs: 0" in out

    def test_planted_gray_pair_listed(self, capsys, gray_csv):
        code, out, _ = run(capsys, ["audit", gray_csv, "--decision", "d"])
        assert code == 0
        assert "total 4, distinct 3, duplicates 1" in out
        assert "gray pairs: 1" in out
        assert "rows 0,1" in out

    def test_json_counts(self, capsys, gray_csv):
        code, out, _ = run(
            capsys, ["audit", gray_csv, "--decision", "d", "--format", "json"]
        )
        report = json.loads(out)
        assert report["results"]["duplicates"] == {
            "total": 4, "distinct": 3, "duplicates": 1,
        }
        assert report["results"]["gray_pair_count"] == 1
        pair = report["results"]["gray_pairs"][0]
        assert (pair["row_a"], pair["row_b"]) == (0, 1)
        assert pair["values"] == [1.0, 4.0]

    def test_load_error_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["audit", str(tmp_path / "nope.csv"), "--decision", "d"]
        )
        assert code == 2
        assert err.strip().count("\n") == 0  # one-line diagnostic

    def test_undecodable_csv_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x,d\n1,0\n\xff,1\n2,1\n")
        code, _, err = run(capsys, ["audit", str(path), "--decision", "d"])
        assert code == 2
        assert err.startswith("scalereduce: input error:")
        assert "Traceback" not in err

    def test_missing_decision_exits_2(self, capsys, demo_csv):
        code, _, err = run(capsys, ["audit", demo_csv, "--decision", "zzz"])
        assert code == 2
        assert "zzz" in err


class TestRank:
    def test_sorted_output(self, capsys, demo_csv):
        code, out, _ = run(capsys, ["rank", demo_csv, "--decision", "d"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["item", "auc"]
        items = [ln.split()[0] for ln in lines[1:]]
        assert items == ["a", "b", "c"]

    def test_constant_column_scores_half(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "const.csv",
            ["flat", "live", "d"],
            [[7, 1, 0], [7, 2, 0], [7, 3, 1], [7, 4, 1]],
        )
        code, out, _ = run(capsys, ["rank", path, "--decision", "d"])
        assert code == 0
        assert "flat" in out
        assert "0.5000000" in out

    def test_matches_library(self, capsys, demo_csv):
        from scalereduce import load_csv, start_auc

        code, out, _ = run(
            capsys, ["rank", demo_csv, "--decision", "d", "--format", "json"]
        )
        report = json.loads(out)
        singles = start_auc(load_csv(demo_csv, "d"))
        for row in report["results"]["items"]:
            assert row["auc"] == singles[row["item"]]

    def test_auto_orient_flips_and_reports(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "neg.csv",
            ["up", "down", "d"],
            [[0, 3, 0], [1, 2, 0], [2, 1, 1], [3, 0, 1]],
        )
        code, out, _ = run(
            capsys,
            ["rank", path, "--decision", "d", "--auto-orient", "--format", "json"],
        )
        report = json.loads(out)
        assert report["results"]["flipped_items"] == ["down"]
        values = {r["item"]: r["auc"] for r in report["results"]["items"]}
        assert values["down"] == 1.0  # perfectly anti-correlated, flipped

    def test_unflipped_warning_on_stderr(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "neg2.csv",
            ["up", "down", "d"],
            [[0, 3, 0], [1, 2, 0], [2, 1, 1], [3, 0, 1]],
        )
        code, out, err = run(capsys, ["rank", path, "--decision", "d"])
        assert code == 0
        assert "advisory" in err
        assert "down" in err


class TestReduce:
    def test_table_output(self, capsys, demo_csv):
        code, out, _ = run(capsys, ["reduce", demo_csv, "--decision", "d"])
        assert code == 0
        assert "reduced scale (2 of 3 items" in out
        assert "a, b" in out
        assert "stop reason: first-decrease" in out

    def test_single_column_file(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "one.csv", ["only", "d"],
            [[1, 0], [3, 1], [0, 0], [2, 1]],
        )
        code, out, _ = run(capsys, ["reduce", path, "--decision", "d"])
        assert code == 0
        assert "reduced scale (1 of 1 items" in out
        assert "stop reason: exhausted-all-items" in out

    def test_single_class_exits_3(self, capsys, demo_csv):
        code, _, err = run(
            capsys, ["reduce", demo_csv, "--decision", "d", "--positive", "7"]
        )
        assert code == 3
        assert err

    def test_exclude(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["reduce", demo_csv, "--decision", "d", "--exclude", "c",
             "--format", "json"],
        )
        report = json.loads(out)
        assert report["n_items"] == 2
        items = {r["item"] for r in report["results"]["ranking"]}
        assert items == {"a", "b"}

    def test_exclude_unknown_exits_2(self, capsys, demo_csv):
        code, _, err = run(
            capsys, ["reduce", demo_csv, "--decision", "d", "--exclude", "qq"]
        )
        assert code == 2
        assert "qq" in err

    def test_json_has_all_table_numbers(self, capsys, demo_csv):
        code, table, _ = run(capsys, ["reduce", demo_csv, "--decision", "d"])
        code, out, _ = run(
            capsys, ["reduce", demo_csv, "--decision", "d", "--format", "json"]
        )
        report = json.loads(out)
        for row in report["results"]["ranking"]:
            assert f"{row['auc_single']:.7f}" in table
            assert f"{row['auc_running']:.7f}" in table
        assert f"{report['results']['achieved_auc']:.7f}" in table

    def test_json_round_trip(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, ["reduce", demo_csv, "--decision", "d", "--format", "json"]
        )
        parsed = json.loads(out)
        assert json.loads(json.dumps(parsed)) == parsed

    def test_csv_format(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, ["reduce", demo_csv, "--decision", "d", "--format", "csv"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "item,auc_single,auc_running,retained"
        assert len(lines) == 4

    def test_plot_files(self, capsys, demo_csv, tmp_path):
        out_dir = tmp_path / "plots"
        code, out, _ = run(
            capsys,
            ["reduce", demo_csv, "--decision", "d", "--plot",
             "--out", str(out_dir)],
        )
        assert code == 0
        for name in ("running_auc.svg", "roc_reduced.svg"):
            text = (out_dir / name).read_text(encoding="utf-8")
            root = ET.fromstring(text)  # well-formed XML
            assert root.tag.endswith("svg")
            assert "xlink:href" not in text  # self-contained
        for name in ("running_auc.csv", "roc_reduced.csv"):
            lines = (out_dir / name).read_text(encoding="utf-8").splitlines()
            assert lines[0] == "x,y"
            assert len(lines) > 2


class TestTestInclusion:
    def test_both_methods_two_rows(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["test-inclusion", demo_csv, "--decision", "d", "--seed", "5"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert any(ln.startswith("delong") for ln in lines)
        assert any(ln.startswith("bootstrap") for ln in lines)

    def test_single_method(self, capsys, demo_csv):
        code, out, _ = run(
            capsys,
            ["test-inclusion", demo_csv, "--decision", "d",
             "--method", "delong"],
        )
        assert code == 0
        assert "delong" in out
        assert "bootstrap" not in out

    def test_values_match_library(self, capsys, demo_csv):
        from scalereduce import check_attr_for_inclusion, load_csv

        code, out, _ = run(
            capsys,
            ["test-inclusion", demo_csv, "--decision", "d",
             "--method", "delong", "--format", "json"],
        )
        report = json.loads(out)
        t = check_attr_for_inclusion(load_csv(demo_csv, "d"), method="delong")
        row = report["results"]["tests"][0]
        assert row["z"] == t.z
        assert row["p_value"] == t.p_value

    def test_not_reducible_exits_3(self, capsys, tmp_path):
        path = write_csv(
            tmp_path / "full.csv",
            ["a", "b", "d"],
            [[0, 1, 0], [1, 2, 1], [2, 0, 1], [3, 3, 1],
             [0, 0, 0], [1, 0, 0], [2, 1, 1], [0, 1, 0]],
        )
        code, _, err = run(capsys, ["test-inclusion", path, "--decision", "d"])
        assert code == 3
        assert "not reducible" in err

    def test_fixed_seed_byte_identical(self, capsys, demo_csv, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        argv = ["test-inclusion", demo_csv, "--decision", "d",
                "--seed", "42", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("n_boot", ["0", "-3", "many"])
    def test_bad_n_boot_is_usage_error(self, capsys, demo_csv, n_boot):
        with pytest.raises(SystemExit) as exc:
            main(["test-inclusion", demo_csv, "--decision", "d",
                  "--n-boot", n_boot])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:")
        assert "--n-boot" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["rank", "--auto-orient"],
        ["reduce", "--auto-orient"],
        ["test-inclusion", "--method", "delong"],
        ["test-inclusion", "--method", "both", "--auto-orient"],
    ])
    def test_rankings_computed_once(self, capsys, monkeypatch, tmp_path, argv):
        # column "c" ranks below 0.5, so --auto-orient flips it
        path = write_csv(
            tmp_path / "flip.csv", ["a", "b", "c", "d"],
            [row[:2] + [5 - row[0], row[3]] for row in DEMO_ROWS],
        )
        calls = {"start_auc": 0, "total_auc": 0}
        for name in calls:
            original = getattr(reduction, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("scalereduce")
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = run(capsys, [argv[0], path, "--decision", "d", *argv[1:]])
        assert code == 0
        assert calls["start_auc"] <= 1
        assert calls["total_auc"] <= 1

    def test_degenerate_equal_scores(self, capsys, tmp_path):
        # duplicated informative column: adding the clone cannot change the
        # AUC, so the comparison hits the zero-difference convention
        path = write_csv(
            tmp_path / "twins.csv",
            ["a", "b", "d"],
            [[0, 0, 0], [1, 1, 0], [2, 2, 1], [3, 3, 1], [1, 1, 0], [2, 2, 1]],
        )
        code, out, _ = run(
            capsys,
            ["test-inclusion", path, "--decision", "d", "--method", "delong",
             "--format", "json"],
        )
        assert code == 0
        row = json.loads(out)["results"]["tests"][0]
        assert row["z"] == 0.0
        assert row["p_value"] == 1.0


class TestReportShape:
    def test_report_fields(self, capsys, demo_csv):
        code, out, _ = run(
            capsys, ["audit", demo_csv, "--decision", "d", "--format", "json"]
        )
        report = json.loads(out)
        for key in ("tool", "version", "command", "input_path", "parameters",
                    "n_rows", "n_items", "dropped_rows", "positives",
                    "negatives", "results", "timestamp"):
            assert key in report
        assert report["command"] == "audit"
        assert report["n_rows"] == 16

    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
    def test_bad_source_date_epoch_exits_2(self, capsys, demo_csv,
                                           monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, out, err = run(capsys, ["reduce", demo_csv, "--decision", "d"])
        assert code == 2
        assert out == ""
        assert "SOURCE_DATE_EPOCH" in err
        assert "Traceback" not in err

    def test_rerun_byte_identical_table(self, capsys, demo_csv):
        argv = ["reduce", demo_csv, "--decision", "d"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def test_cli_import_leaves_scipy_out():
    src = str(Path(scalereduce.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = (
        "import sys, scalereduce.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
