import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import asdict
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalereduce
from scalereduce import cli, hygiene, reduction, roc, svg
from scalereduce.cli import main

from conftest import DATA_DIR, csv_texts, write_csv

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


def counted_calls(monkeypatch, module, name):
    """Count the calls of module.name from every scalereduce module that
    holds it; returns the list that gains one entry per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("scalereduce")
                and getattr(loaded, name, None) is original):
            monkeypatch.setattr(loaded, name, counted)
    return calls


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

    def test_rows_grouped_once(self, capsys, monkeypatch, gray_csv):
        # the duplicate counts and the gray pairs come from one grouping
        calls = []

        def counted(a, _row_groups=hygiene._row_groups):
            calls.append(a.shape)
            return _row_groups(a)

        monkeypatch.setattr(hygiene, "_row_groups", counted)
        for fmt in ("table", "json", "csv"):
            calls.clear()
            argv = ["audit", gray_csv, "--decision", "d", "--format", fmt]
            assert run(capsys, argv)[0] == 0
            assert calls == [(4, 2)]

    def test_json_keys_encoded_once_per_shape(self, capsys, monkeypatch, tmp_path):
        # a gray pair's pieces are formatted per gray row and per run, and
        # a clone's values list is encoded once, so json.dumps runs as often
        # for 225 pairs as for 22500
        calls = []

        def counted(obj, _dumps=json.dumps, **kwargs):
            calls.append(type(obj))
            return _dumps(obj, **kwargs)

        counts = []
        for n in (30, 300):
            path = write_csv(tmp_path / f"clones{n}.csv", ["x", "y", "d"],
                             [[1, 2, i % 2] for i in range(n)])
            calls.clear()
            argv = ["audit", path, "--decision", "d", "--format", "json"]
            with monkeypatch.context() as patched:
                patched.setattr(cli.json, "dumps", counted)
                code, out, _ = run(capsys, argv)
            assert code == 0
            assert json.loads(out)["results"]["gray_pair_count"] == (n // 2) ** 2
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_path_holding_the_split_marker(self, capsys, tmp_path):
        # the report is split at the text of its empty pair list; the same
        # text inside the input path is escaped and cannot be taken for it
        path = write_csv(tmp_path / 'x "gray_pairs": [] y.csv', ["x", "y", "d"],
                         [[1, 2, 0], [1, 2, 1], [1, 2, 0], [3, 4, 1]])
        code, out, _ = run(capsys, ["audit", path, "--decision", "d",
                                    "--format", "json"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        report = json.loads(out)
        assert report["input_path"] == path
        assert report["results"]["gray_pair_count"] == 2
        assert len(report["results"]["gray_pairs"]) == 2

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_memory_bounded_by_rows_and_one_chunk(self, monkeypatch, tmp_path,
                                                  fmt):
        # alternating-decision clones: 4x the rows give 16x the gray pairs
        # (40 000 and 640 000), but the pairs are listed from their groups a
        # chunk at a time, so the peak may grow with the rows only
        peaks = []
        for n in (400, 1600):
            path = write_csv(tmp_path / f"clones{n}.csv", ["x", "y", "d"],
                             [[1, 2, i % 2] for i in range(n)])
            sink = _ByteCount()
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["audit", path, "--decision", "d", "--format", fmt])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert code == 0
            assert sink.bytes > 30 * (n // 2) ** 2  # every pair was written
        assert peaks[1] <= 4 * peaks[0], peaks

    def test_missing_decision_exits_2(self, capsys, demo_csv):
        code, _, err = run(capsys, ["audit", demo_csv, "--decision", "zzz"])
        assert code == 2
        assert "zzz" in err


# cells whose values json.dumps and {:g} print differently, -0 among them
GRAY_CELLS = ["-0", "0", "2.5", "1e-07", "123456789"]


@st.composite
def gray_audits(draw):
    """(CSV text, complete rows, raw decisions, chunk size): 2-14 rows of
    1-3 items drawn from up to three distinct rows of GRAY_CELLS, the
    first two rows equal and of opposite classes, so there is always a
    gray group, with decisions coded -1/1 or 0.5/2."""
    n_items = draw(st.integers(1, 3))
    shapes = draw(st.lists(st.lists(st.sampled_from(GRAY_CELLS), min_size=n_items,
                                    max_size=n_items), min_size=1, max_size=3))
    coding = draw(st.sampled_from([("-1", "1"), ("0.5", "2")]))
    rows = [(shapes[0], coding[0]), (shapes[0], coding[1])] + draw(st.lists(
        st.tuples(st.sampled_from(shapes), st.sampled_from(coding)), max_size=12))
    rows = draw(st.permutations(rows))
    text = "".join(",".join(cells) + "\n" for cells in [
        [*(f"q{j}" for j in range(n_items)), "d"], *(c + [d] for c, d in rows)])
    attrs = np.array([[float(c) for c in cells] for cells, _ in rows])
    raw = np.array([float(d) for _, d in rows])
    return text, attrs, raw, draw(st.sampled_from([1, 3, hygiene._CHUNK]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gray_audits())
def test_audit_views_write_every_gray_pair_byte_for_byte(drawn):
    # parsing the report back cannot tell 1 from 1.0 or -0 from 0: the
    # json view must be json.dumps of the report with its pairs expanded
    # from gray_examples, and the table one {:g} line per pair, across
    # chunks of one, three and the default number of pairs
    text, attrs, raw, chunk = drawn
    values = attrs + 0.0  # a group's values row reads -0 as 0
    pairs = hygiene.gray_examples(attrs, raw).tolist()
    outs = {}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(hygiene, "_CHUNK", chunk):
        path = os.path.join(tmp, "gray.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for fmt in ("json", "table"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["audit", path, "--decision", "d",
                             "--format", fmt]) == 0
            outs[fmt] = out.getvalue()
    assert pairs
    report = json.loads(outs["json"])
    report["results"]["gray_pairs"] = [
        {"row_a": a, "row_b": b, "decision_a": float(raw[a]),
         "decision_b": float(raw[b]), "values": values[a].tolist()}
        for a, b in pairs
    ]
    assert outs["json"] == json.dumps(report, indent=2) + "\n"
    lines = ["  rows %d,%d decision %s/%s values %s" % (
        a, b, f"{raw[a]:g}", f"{raw[b]:g}", ",".join(f"{x:g}" for x in values[a]))
        for a, b in pairs]
    head = outs["table"].split("\n", 1)[0]
    assert outs["table"] == "\n".join(
        [head, f"gray pairs: {len(pairs)}", *lines]) + "\n"


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

    def test_exclude_every_item_exits_2(self, capsys, tmp_path):
        path = write_csv(tmp_path / "one.csv", ["a", "d"], [[1, 0], [2, 1]])
        code, out, err = run(
            capsys, ["audit", path, "--decision", "d", "--exclude", "a"]
        )
        assert code == 2
        assert out == ""
        assert "--exclude" in err
        assert "Traceback" not in err

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

    def test_running_auc_y_ticks_are_distinct(self):
        # a constant running AUC rounds lo, the midpoint and hi to one tick
        def labels(running_auc):
            root = ET.fromstring(svg.running_auc_chart(running_auc))
            return [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
                    if t.get("text-anchor") == "end"]

        assert labels([0.792]) == ["0.792"]
        assert labels([0.7921, 0.7923]) == ["0.792"]
        assert labels([0.7, 0.8, 0.75]) == ["0.7", "0.75", "0.8"]

    @pytest.mark.parametrize("out", ["taken", "taken/plots"])
    def test_unusable_out_exits_2(self, capsys, demo_csv, tmp_path, out):
        # "taken" is a regular file, so it can be neither the output
        # directory nor a parent of it
        (tmp_path / "taken").write_text("", encoding="utf-8")
        code, stdout, err = run(
            capsys,
            ["reduce", demo_csv, "--decision", "d", "--plot",
             "--out", str(tmp_path / out)],
        )
        assert code == 2
        assert stdout == ""
        # demo.csv's item c draws the below-0.5 advisory first
        assert err.splitlines()[-1].startswith(
            "scalereduce: input error: cannot write plots to --out")
        assert "Traceback" not in err

    def test_levels_counted_once_per_running_sum_with_plot(
            self, capsys, monkeypatch, tmp_path):
        # one count per single-item AUC and per running AUC, all n of
        # them, from one walk; the ROC plot reads the kept running sum's
        # counts
        calls = counted_calls(monkeypatch, roc, "_class_counts")
        walks = counted_calls(monkeypatch, roc, "_running_sums")
        code, out, _ = run(capsys, [
            "reduce", str(DATA_DIR / "scale21.csv"), "--decision", "verdict",
            "--plot", "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert len(report["results"]["plots"]) == 4
        assert len(calls) == 2 * report["n_items"]
        assert len(walks) == 1


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
        # every field of a report's test entry, for each method, is the
        # library's record of the same test
        from scalereduce import check_attr_for_inclusion, load_csv

        inputs = [(demo_csv, "d"), (str(DATA_DIR / "scale21.csv"), "verdict")]
        methods = [(["--method", "delong"], {"method": "delong"}),
                   (["--method", "bootstrap", "--n-boot", "200", "--seed", "7"],
                    {"method": "bootstrap", "n_boot": 200, "seed": 7})]
        for (path, decision), (flags, kwargs) in product(inputs, methods):
            code, out, _ = run(capsys, ["test-inclusion", path, "--decision",
                                        decision, *flags, "--format", "json"])
            assert code == 0
            [row] = json.loads(out)["results"]["tests"]
            t = check_attr_for_inclusion(load_csv(path, decision), **kwargs)
            assert row == asdict(t)

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

    def test_fixed_seed_byte_identical(self, capsys, demo_csv):
        argv = ["test-inclusion", demo_csv, "--decision", "d",
                "--seed", "42", "--format", "json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    @pytest.mark.parametrize("n_boot", ["0", "-3", "many",
                                        str(cli.MAX_N_BOOT + 1)])
    def test_bad_n_boot_is_usage_error(self, capsys, demo_csv, n_boot):
        with pytest.raises(SystemExit) as exc:
            main(["test-inclusion", demo_csv, "--decision", "d",
                  "--n-boot", n_boot])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:")
        assert "--n-boot" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_usage_error(self, capsys, demo_csv, seed):
        with pytest.raises(SystemExit) as exc:
            main(["test-inclusion", demo_csv, "--decision", "d",
                  "--seed", seed])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage:")
        assert "--seed" in err
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
        if argv[0] == "test-inclusion":
            # the walk reads running AUCs only up to the next item
            assert calls["total_auc"] == 0

    def test_levels_counted_once_per_inclusion_score_vector(
            self, capsys, monkeypatch):
        # one count per single-item AUC and per running AUC the walk reads
        # (kept + 1 of them), from one walk; the inclusion score vectors
        # are the walk's last two running sums, so both AUCs and both tests
        # share their counts
        calls = counted_calls(monkeypatch, roc, "_class_counts")
        walks = counted_calls(monkeypatch, roc, "_running_sums")
        path = str(DATA_DIR / "scale21.csv")
        code, out, _ = run(capsys, ["test-inclusion", path, "--decision",
                                    "verdict", "--method", "both",
                                    "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert [t["method"] for t in report["results"]["tests"]] == [
            "delong", "bootstrap"]
        kept = len(report["results"]["reduced_items"])
        assert len(calls) == report["n_items"] + kept + 1
        assert len(walks) == 1

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
                    "negatives", "results"):
            assert key in report
        assert "timestamp" not in report
        assert report["command"] == "audit"
        assert report["n_rows"] == 16

    def test_rerun_byte_identical_table(self, capsys, demo_csv):
        argv = ["reduce", demo_csv, "--decision", "d"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


def _child_env():
    """The environment for a child interpreter that imports this package."""
    src = str(Path(scalereduce.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _loaded_by_cli_import(*names):
    """The modules among names, and their submodules, that a fresh
    interpreter holds after importing scalereduce.cli."""
    probe = (
        "import sys, scalereduce.cli; "
        f"names = {names!r}; "
        "print(sorted(m for m in sys.modules "
        "if m in names or m.startswith(tuple(n + '.' for n in names))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert _loaded_by_cli_import("scipy") == "[]"


class _ByteCount(io.TextIOBase):
    """A stdout that only counts what is written to it (ASCII here)."""

    bytes = 0

    def writable(self):
        return True

    def write(self, text):
        self.bytes += len(text)
        return len(text)


def test_cli_import_leaves_xml_and_network_modules_out():
    # xml.sax.saxutils.escape would load all of these on every CLI start;
    # urllib.parse is exempt because pathlib, which numpy imports, loads it
    assert _loaded_by_cli_import(
        "xml", "urllib.request", "http", "email", "ssl"
    ) == "[]"


@pytest.mark.parametrize("argv", [
    ["audit", "cli_gray.csv", "--decision", "d"],  # lists gray pairs
    ["reduce", "scale21.csv", "--decision", "verdict", "--plot"],  # byte path
    ["test-inclusion", "cli_mixed.csv", "--decision", "d",  # text path
     "--method", "both", "--n-boot", "200"],
], ids=["audit", "reduce-plot", "test-inclusion-both"])
def test_cli_commands_leave_numpy_ma_out(argv, tmp_path):
    # a plain np.unique(x) asks np.ma.is_masked(x), importing numpy.ma
    # (6-7 ms) on every run
    argv = [argv[0], str(DATA_DIR / argv[1]), *argv[2:]]
    probe = (
        "import sys; from scalereduce.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_child_env(), cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )
    assert result.stderr.splitlines()[-1] == "0 False", result.stderr


def test_reader_closing_stdout_early_exits_0(tmp_path):
    # 120 clones with alternating decisions: 3600 gray pairs, far more
    # output than a pipe buffer holds, so the writer meets the closed end
    path = write_csv(tmp_path / "clones.csv", ["x", "y", "d"],
                     [[1, 2, i % 2] for i in range(120)])
    for fmt in ("table", "json"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "scalereduce.cli", "audit", path,
             "--decision", "d", "--format", fmt],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert err == b"", err  # no traceback, no "Exception ignored"


def test_reader_closing_stdout_mid_report_exits_0(tmp_path):
    # 300 clones with alternating decisions: 22500 gray pairs, a JSON
    # report of several MB that the reader abandons after its first 4 kB
    path = write_csv(tmp_path / "clones.csv", ["x", "y", "d"],
                     [[1, 2, i % 2] for i in range(300)])
    proc = subprocess.Popen(
        [sys.executable, "-m", "scalereduce.cli", "audit", path,
         "--decision", "d", "--format", "json"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(4096)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head.startswith(b'{\n  "tool": "scalereduce",')
    assert len(head) == 4096
    assert proc.returncode == 0, err
    assert err == b"", err


def _cli_child(redirect, *argv, env=None):
    """Run the CLI in a child interpreter with one shell redirection, such
    as '>&-' (stdout closed) or '' (none); returns the finished process."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m",
         "scalereduce.cli", *argv],
        env=env or _child_env(), capture_output=True, timeout=60,
    )


def _assert_one_line_write_error(result):
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("scalereduce: input error: cannot write the report: ")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_full_stdout_exits_2(fmt):
    _assert_one_line_write_error(_cli_child(
        ">/dev/full", "audit", str(DATA_DIR / "cli_gray.csv"), "--decision",
        "d", "--format", fmt))


def test_closed_stdout_exits_2():
    _assert_one_line_write_error(_cli_child(
        ">&-", "audit", str(DATA_DIR / "cli_gray.csv"), "--decision", "d"))


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_closed_stderr_keeps_the_report(fmt):
    # the advisory for cli_mixed.csv's reverse-keyed item has nowhere to go
    argv = ["reduce", str(DATA_DIR / "cli_mixed.csv"), "--decision", "d",
            "--format", fmt]
    normal = _cli_child("", *argv)
    assert normal.returncode == 0
    assert normal.stderr.startswith(b"advisory: ")
    closed = _cli_child("2>&-", *argv)
    assert closed.returncode == 0
    assert closed.stdout == normal.stdout
    missing = _cli_child("2>&-", "audit", "missing.csv", "--decision", "d")
    assert (missing.returncode, missing.stdout) == (2, b"")


def test_reports_do_not_depend_on_the_environment():
    base = _child_env()
    base.pop("SOURCE_DATE_EPOCH", None)
    envs = [base, {**base, "SOURCE_DATE_EPOCH": "1700000000"},
            {**base, "SOURCE_DATE_EPOCH": "abc"},
            {**base, "TZ": "Asia/Kathmandu", "LC_ALL": "C",
             "PYTHONIOENCODING": "latin-1"}]
    path = str(DATA_DIR / "cli_mixed.csv")
    for argv in (["audit", path, "--decision", "d", "--format", "json"],
                 ["test-inclusion", path, "--decision", "d", "--method",
                  "both", "--format", "json"]):
        runs = [_cli_child("", *argv, env=env) for env in envs]
        assert [r.returncode for r in runs] == [0] * 4, runs[0].stderr
        assert len({r.stdout for r in runs}) == 1


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-8"])
def test_reports_are_utf8_whatever_the_stdout_encoding(encoding, monkeypatch,
                                                       tmp_path):
    # a label the stdout encoding may not hold, and a plot directory named
    # in bytes that are not UTF-8, which is written back as those bytes
    path = write_csv(tmp_path / "e.csv", ["é1", "q1", "d"],
                     [[1, 2, 1], [0, 1, 0], [2, 2, 1], [1, 0, 0]])
    out = os.fsdecode(os.fsencode(tmp_path) + b"/pl\xff")
    stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["reduce", path, "--decision", "d", "--plot", "--out", out])
    stdout.flush()
    text = stdout.buffer.getvalue()
    assert code == 0
    assert "\né1 ".encode() in text
    assert b"/pl\xff/running_auc.svg\n" in text


@st.composite
def csv_bytes(draw):
    """Arbitrary bytes, or fuzzed CSV text with a few arbitrary bytes
    spliced in."""
    data = draw(st.one_of(st.binary(max_size=200),
                          csv_texts().map(str.encode)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


# what a user can type: no NUL, and nothing the OS cannot encode
user_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=12,
)


def usually(valid, junk=user_text):
    """Mostly values the flag is meant to take, else junk, so that most
    calls get past the flag checks and run to a writer."""
    return st.tuples(st.integers(0, 4), valid, junk).map(
        lambda t: t[2] if t[0] == 4 else t[1])


@st.composite
def cli_calls(draw):
    """An argv for any command and format."""
    command = draw(st.sampled_from(["audit", "rank", "reduce", "test-inclusion"]))
    argv = [command, "--decision", "d",
            "--format", draw(st.sampled_from(["table", "json", "csv"]))]
    if draw(st.integers(0, 2)) == 0:
        positive = st.sampled_from(["auto", "0", "1", "1.0", "2", "nan", "-inf"])
        argv.append("--positive=" + draw(usually(positive)))
    if draw(st.integers(0, 2)) == 0:
        labels = st.lists(st.sampled_from(["q0", "q1", "q2", "d", " ", ""]))
        argv.append("--exclude=" + draw(usually(labels.map(",".join))))
    if command != "audit" and draw(st.booleans()):
        argv.append("--auto-orient")
    if command == "test-inclusion":
        junk = st.one_of(st.integers(-3, 0).map(str), user_text)
        # a count above the maximum is only ever rejected, never run
        too_many = st.integers(cli.MAX_N_BOOT + 1, 10**30).map(str)
        seeds = st.one_of(st.integers(0, 50), st.integers(2**63 - 2, 2**64 + 2))
        argv += [
            "--method", draw(st.sampled_from(["delong", "bootstrap", "both"])),
            "--n-boot=" + draw(usually(st.integers(1, 50).map(str),
                                       st.one_of(junk, too_many))),
            "--seed=" + draw(usually(seeds.map(str), junk)),
        ]
    return argv


# rows of DEMO_ROWS: well-formed files that most calls can run to a writer
demo_bytes = st.lists(st.sampled_from(DEMO_ROWS), max_size=24).map(
    lambda rows: "".join(
        ",".join(map(str, row)) + "\n" for row in [["q0", "q1", "q2", "d"], *rows]
    ).encode()
)


# finite cells whose row sums pass the float64 range
OVERFLOW_CSV = ("a,b,d\n" + "".join(
    f"{(1e308, 1.5e308)[i % 3 == 0]!r},{(1e308, 1.2e308)[i % 5 == 0]!r},{i % 2}\n"
    for i in range(40)
)).encode()


@settings(max_examples=900, deadline=None, derandomize=True)
@given(cli_calls(), st.one_of(demo_bytes, csv_bytes()),
       st.sampled_from(["utf-8", "ascii", "latin-1"]))
@example(["reduce", "--decision", "d", "--format", "json"], OVERFLOW_CSV, "utf-8")
@example(["test-inclusion", "--decision", "d", "--format", "json",
          "--method", "both", "--n-boot=20", "--seed=0"], OVERFLOW_CSV, "utf-8")
@example(["audit", "--decision", "d", "--format", "json"],
         b"q0,q1,d\n1,2,0\n1,2,1\n1,2,0\n1,2,1\n3,0,1\n3,0,0\n2,2,0\n",
         "utf-8")
# a label that an ascii stdout cannot encode
@example(["rank", "--decision", "d", "--format", "table"],
         "é1,q1,d\n1,2,1\n0,1,0\n2,2,1\n1,0,0\n".encode(), "ascii")
# a replicate count whose differences alone would not fit in memory
@example(["test-inclusion", "--decision", "d", "--format", "json",
          "--method", "bootstrap", "--n-boot=100000000000", "--seed=0"],
         "q0,q1,d\n1,2,1\n0,1,0\n2,2,1\n1,0,0\n".encode(), "utf-8")
def test_any_input_bytes_keep_the_exit_code_contract(argv, data, encoding):
    # a real text stdout in the drawn encoding, as PYTHONIOENCODING sets it
    stdout = io.TextIOWrapper(io.BytesIO(), encoding=encoding)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            try:
                code = main([argv[0], path, *argv[1:]])
            except SystemExit as exc:  # argparse rejects a flag value
                assert exc.code == 2
                code = 2
    assert code in (0, 2, 3)
    stdout.flush()
    out = stdout.buffer.getvalue().decode("utf-8")  # every report is UTF-8
    if code == 0 and argv[argv.index("--format") + 1] == "json":
        # every report, gray pairs included, in the layout of the stdlib
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_integer_items_are_counted_without_a_sort(capsys, monkeypatch, tmp_path):
    # integer-coded items and their running sums take the counting path in
    # roc; a non-integer item (and every sum holding it) takes np.unique
    sorts = []

    def counted(*args, _unique=np.unique, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "scalereduce.roc":
            sorts.append(args[0].size)
        return _unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    path = write_csv(tmp_path / "ints.csv", ["a", "b", "c", "d"], DEMO_ROWS)
    assert run(capsys, ["reduce", path, "--decision", "d"])[0] == 0
    assert sorts == []
    path = write_csv(tmp_path / "thirds.csv", ["a", "b", "c", "d"],
                     [[a, b, c / 3, d] for a, b, c, d in DEMO_ROWS])
    assert run(capsys, ["reduce", path, "--decision", "d"])[0] == 0
    assert sorts
