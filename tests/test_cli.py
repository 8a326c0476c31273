import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalereduce
from scalereduce import cli, hygiene, reduction
from scalereduce.cli import _write_json, main

from conftest import csv_texts, write_csv

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
        # every gray pair has one dict shape, so the key text is built once
        # per shape, not once per pair: 225 and 22500 pairs, same count
        calls = []

        def counted(s, _encode=cli.encode_basestring_ascii):
            calls.append(s)
            return _encode(s)

        monkeypatch.setattr(cli, "encode_basestring_ascii", counted)
        counts = []
        for n in (30, 300):
            path = write_csv(tmp_path / f"clones{n}.csv", ["x", "y", "d"],
                             [[1, 2, i % 2] for i in range(n)])
            calls.clear()
            argv = ["audit", path, "--decision", "d", "--format", "json"]
            code, out, _ = run(capsys, argv)
            assert code == 0
            assert json.loads(out)["results"]["gray_pair_count"] == (n // 2) ** 2
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

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


def test_cli_import_leaves_xml_and_network_modules_out():
    # xml.sax.saxutils.escape would load all of these on every CLI start;
    # urllib.parse is exempt because pathlib, which numpy imports, loads it
    assert _loaded_by_cli_import(
        "xml", "urllib.request", "http", "email", "ssl"
    ) == "[]"


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


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
                     1e300, 5e-324]),
    st.text(),
)


@st.composite
def json_trees(draw):
    """Nested dicts, lists and tuples of scalars in which one list (or
    tuple) of scalars can recur, as the same object, at any depth."""
    shared = draw(st.lists(json_scalars, max_size=4))
    if draw(st.booleans()):
        shared = tuple(shared)
    return draw(st.recursive(
        st.one_of(json_scalars, st.just(shared)),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(st.text(), kids, max_size=4),
        ),
        max_leaves=30,
    ))


ROW = [1.0, -0.0, 2.5]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_trees())
@example({"a": ROW, "b": [ROW, {"c": ROW}], "d": []})
@example([{"row": i, "values": ROW} for i in range(3000)])
@example([{"{": 1, "}": ROW, "{0}": "{}", "{}": None, "é": 2, "€😀": [3]}] * 2)
@example([{"a": 1, "b": ROW}, {"b": 2, "a": ROW}, {"a": 3, "b": ROW}])
@example([{"k": 1, "v": ROW}, {"k": 2, "v": {"n": ROW}},
          {"k": 3, "v": [ROW, 4]}, {"k": 5, "v": ROW}])
@example([{"a": 1}, {}, {"a": 2}, {}])
@example({"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
          "-0": -0.0, "np": np.float64(0.1), "true": True, "one": 1})
def test_json_writer_matches_json_dumps(tree):
    pieces = []
    _write_json(tree, pieces.append)
    assert "".join(pieces) == json.dumps(tree, indent=2) + "\n"


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
    """An argv for any command and format, and a SOURCE_DATE_EPOCH value
    (None leaves it unset)."""
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
        argv += [
            "--method", draw(st.sampled_from(["delong", "bootstrap", "both"])),
            "--n-boot=" + draw(usually(st.integers(1, 50).map(str), junk)),
            "--seed=" + draw(usually(st.integers(0, 50).map(str), junk)),
        ]
    epoch = draw(st.one_of(
        st.none(), usually(st.integers(-10**12, 10**12).map(str))))
    return argv, epoch


# rows of DEMO_ROWS: well-formed files that most calls can run to a writer
demo_bytes = st.lists(st.sampled_from(DEMO_ROWS), max_size=24).map(
    lambda rows: "".join(
        ",".join(map(str, row)) + "\n" for row in [["q0", "q1", "q2", "d"], *rows]
    ).encode()
)


@settings(max_examples=900, deadline=None, derandomize=True)
@given(cli_calls(), st.one_of(demo_bytes, csv_bytes()))
def test_any_input_bytes_keep_the_exit_code_contract(call, data):
    argv, epoch = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        env = {} if epoch is None else {"SOURCE_DATE_EPOCH": epoch}
        with warnings.catch_warnings(), \
                mock.patch.dict(os.environ, env), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            if epoch is None:
                os.environ.pop("SOURCE_DATE_EPOCH", None)
            try:
                code = main([argv[0], path, *argv[1:]])
            except SystemExit as exc:  # argparse rejects a flag value
                assert exc.code == 2
                code = 2
    assert code in (0, 2, 3)


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
