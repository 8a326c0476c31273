import csv
import json
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from scalereduce import Dataset, load_csv, select_columns
from scalereduce.cli import _orient, main
from scalereduce.dataset import _one_digit_table
from scalereduce.errors import (
    DuplicateColumn,
    EmptyDataset,
    LoadError,
    MissingDecisionColumn,
    NotBinaryDecision,
    SingleClass,
    UnknownColumn,
)

from conftest import csv_texts, write_csv
from oracles import load_csv_cells


class TestLoadCsv:
    def test_basic_shape_and_auto_positive(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        assert ds.n_rows == 5
        assert ds.n_items == 2
        assert ds.labels == ("a", "b")
        assert ds.positive_value == 1.0
        assert ds.negative_value == 0.0
        assert ds.decision.tolist() == [False, False, True, True, True]
        assert ds.dropped_rows == 0

    def test_incomplete_row_dropped_and_counted(self, tmp_path):
        path = write_csv(
            tmp_path / "gaps.csv",
            ["a", "b", "d"],
            [[1, 2, 0], [3, "", 1], [4, 5, 1]],
        )
        ds = load_csv(path, "d")
        assert ds.n_rows == 2
        assert ds.dropped_rows == 1

    def test_non_numeric_cell_treated_as_missing(self, tmp_path):
        path = write_csv(
            tmp_path / "text.csv",
            ["a", "d"],
            [[1, 0], ["oops", 1], [3, 1]],
        )
        ds = load_csv(path, "d")
        assert ds.n_rows == 2
        assert ds.dropped_rows == 1

    def test_short_row_dropped(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b,d\n1,2,0\n3,1\n4,5,1\n", encoding="utf-8")
        ds = load_csv(str(path), "d")
        assert ds.n_rows == 2
        assert ds.dropped_rows == 1

    def test_row_count_conservation(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(30):
            row = [
                "" if rng.random() < 0.15 else int(rng.integers(0, 4)),
                int(rng.integers(0, 4)),
                int(rng.integers(0, 2)),
            ]
            rows.append(row)
        path = write_csv(tmp_path / "mix.csv", ["a", "b", "d"], rows)
        ds = load_csv(path, "d")
        assert ds.n_rows + ds.dropped_rows == 30

    def test_explicit_positive_value(self, tiny_csv):
        ds = load_csv(tiny_csv, "d", positive_value=0)
        assert ds.positive_value == 0.0
        assert ds.decision.tolist() == [True, True, False, False, False]

    def test_reload_is_stable(self, tiny_csv):
        first = load_csv(tiny_csv, "d")
        second = load_csv(tiny_csv, "d")
        assert first.decision.tolist() == second.decision.tolist()
        assert np.array_equal(first.attributes, second.attributes)

    def test_quoted_fields_and_decimal_point(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"a","d"\n"1.5","0"\n"2.25","1"\n', encoding="utf-8")
        ds = load_csv(str(path), "d")
        assert ds.attributes[:, 0].tolist() == [1.5, 2.25]

    def test_missing_decision_column(self, tiny_csv):
        with pytest.raises(MissingDecisionColumn):
            load_csv(tiny_csv, "nope")

    def test_not_binary_decision(self, tmp_path):
        path = write_csv(
            tmp_path / "three.csv",
            ["a", "d"],
            [[1, 0], [2, 1], [3, 2]],
        )
        with pytest.raises(NotBinaryDecision):
            load_csv(path, "d")

    def test_single_class_via_unmatched_positive(self, tiny_csv):
        with pytest.raises(SingleClass):
            load_csv(tiny_csv, "d", positive_value=5)

    def test_empty_dataset(self, tmp_path):
        path = write_csv(tmp_path / "allbad.csv", ["a", "d"], [["", 0], ["", 1]])
        with pytest.raises(EmptyDataset):
            load_csv(path, "d")

    def test_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            load_csv(str(tmp_path / "absent.csv"), "d")

    @pytest.mark.parametrize("body", [
        b"a,d\n1,0\n\xff,1\n",  # not UTF-8
        b"a,d\n1,0\n" + b"2" * 200_000 + b",1\n",  # over the csv field limit
        # decoded a chunk at a time, so the error surfaces mid-read
        b"a,d\n" + b"1.5,0\n" * 2000 + b"\xff,1\n",
    ], ids=["undecodable-byte", "oversized-field",
            "undecodable-byte-after-8-kB"])
    def test_unreadable_file_is_load_error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(LoadError, match="bad.csv"):
            load_csv(str(path), "d")

    def test_utf8_bom_is_not_part_of_the_first_label(self, tmp_path):
        # Excel writes "UTF-8 CSV" with a byte-order mark before the header
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"d,a,b\n1,2,0\n0,1,1\n1,3,0\n")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = load_csv(str(bom), "d"), load_csv(str(plain), "d")
        assert got.labels == want.labels == ("a", "b")
        assert got.decision.tolist() == want.decision.tolist()
        assert np.array_equal(got.attributes, want.attributes)

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", ["a", "a", "d"], [[1, 2, 0], [3, 4, 1]])
        with pytest.raises(DuplicateColumn):
            load_csv(path, "d")

    def test_empty_header_label(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", ["a", " ", "d"], [[1, 2, 0], [3, 4, 1]])
        with pytest.raises(LoadError, match="empty label"):
            load_csv(path, "d")


class TestSelectColumns:
    def test_select_all_is_identity(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        same = select_columns(ds, list(ds.labels))
        assert same.labels == ds.labels
        assert np.array_equal(same.attributes, ds.attributes)
        assert np.array_equal(same.decision, ds.decision)
        assert same.dropped_rows == ds.dropped_rows

    def test_select_one_column(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        one = select_columns(ds, ["b"])
        assert one.n_items == 1
        assert one.n_rows == ds.n_rows
        assert np.array_equal(one.attributes[:, 0], ds.attributes[:, 1])

    def test_select_by_index_and_reorder(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        swapped = select_columns(ds, [1, 0])
        assert swapped.labels == ("b", "a")
        assert np.array_equal(swapped.attributes[:, 1], ds.attributes[:, 0])

    def test_unknown_column(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        with pytest.raises(UnknownColumn):
            select_columns(ds, ["a", "zzz"])
        # a float index is rejected, not truncated to a column
        for cols in ([1.2, 0.5], [np.float64(0.0)]):
            with pytest.raises(UnknownColumn, match="integer index"):
                select_columns(ds, cols)
        assert select_columns(ds, [np.int64(1), 0]).labels == ("b", "a")
        assert issubclass(UnknownColumn, LoadError)  # exit code 2

    def test_index_out_of_range(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        for i in (ds.n_items, -1):
            with pytest.raises(UnknownColumn, match="out of range"):
                select_columns(ds, [i])

    def test_duplicate_column(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        with pytest.raises(DuplicateColumn):
            select_columns(ds, ["a", "a"])
        assert issubclass(DuplicateColumn, LoadError)  # exit code 2


class TestDatasetValidation:
    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            Dataset(
                attributes=np.ones((3, 1)),
                labels=("a",),
                decision=np.array([True, True, True]),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(LoadError):
            Dataset(
                attributes=np.array([[1.0], [np.nan]]),
                labels=("a",),
                decision=np.array([True, False]),
            )

    def test_immutable_arrays(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        with pytest.raises(ValueError):
            ds.attributes[0, 0] = 99.0

    @pytest.mark.parametrize("attrs,labels,decision,error,match", [
        (np.ones(2), ("a",), [1, 0], LoadError, "2-dimensional"),
        (np.ones((0, 1)), ("a",), [], EmptyDataset, "no rows"),
        (np.ones((2, 0)), (), [1, 0], EmptyDataset, "no attribute columns"),
        (np.ones((2, 1)), ("a",), [1, 0, 1], LoadError, "decision length"),
        (np.ones((2, 1)), ("a", "b"), [1, 0], LoadError, "2 labels for 1"),
        (np.ones((2, 2)), ("a", ""), [1, 0], LoadError, "non-empty"),
        (np.ones((2, 2)), ("a", "a"), [1, 0], DuplicateColumn, "unique"),
    ], ids=["1-d", "no-rows", "no-columns", "decision-length", "label-count",
            "empty-label", "duplicate-labels"])
    def test_malformed_input_rejected(self, attrs, labels, decision, error,
                                      match):
        with pytest.raises(error, match=match):
            Dataset(attributes=attrs, labels=labels, decision=decision)


# Each matrix, as numpy reads it, with the dtype Dataset stores it in: the
# smallest signed integer dtype that holds every value and its negation
# when all values are integers below 2**31 in magnitude, else float64
ITEM_DTYPES = {
    "digits": ([[0, 9], [3, 1]], np.int8),
    "uint8-digits": (np.array([[0, 9], [3, 1]], dtype=np.uint8), np.int8),
    "int8-ends": ([[-127, 0], [1, 127]], np.int8),
    "minus-128": ([[-128, 0], [1, 1]], np.int16),
    "int32-ends": ([[1 - 2**31, 0], [1, 2**31 - 1]], np.int32),
    "2**31": ([[2**31, 0], [1, 1]], np.float64),
    "float-2**31": ([[2.0**31, 0], [1, 1]], np.float64),
    "integral-floats": ([[-300.0, 0], [1, 1]], np.int16),
    "fraction": ([[1.5, 0], [1, 1]], np.float64),
    "fraction-in-last-column": ([[1, 0], [1, 0.5]], np.float64),
    "negative-zero": ([[-0.0, 0], [1, 1]], np.int8),
    "bool": ([[True, False], [False, True]], np.int8),
}


@pytest.mark.parametrize("cells,dtype", ITEM_DTYPES.values(),
                         ids=list(ITEM_DTYPES))
def test_dataset_picks_the_item_dtype(cells, dtype):
    attrs = np.asfortranarray(cells)
    ds = Dataset(attributes=attrs, labels=("a", "b"), decision=[1, 0])
    assert ds.attributes.dtype == dtype
    assert ds.attributes.tolist() == attrs.tolist()
    assert ds.attributes.flags.f_contiguous
    assert attrs.flags.writeable  # the caller's array is copied, not frozen


# Files at the edges of the one-digit byte path, each with whether that
# path reads it. Several are sized to a whole number of rows, so that the
# digit or the separator check, not the length check, turns them away.
ONE_DIGIT_EDGES = {
    "bom": (b"\xef\xbb\xbfq0,d\n1,0\n2,1\n", True),
    "quoted-label": (b'"q0",d\n1,0\n2,1\n', False),
    "crlf-header": (b"q0,d\r\n1,0\n2,1\n", False),
    "long-header-field": (
        b"q" * (csv.field_size_limit() + 1) + b",d\n1,0\n2,1\n", False),
    "undecodable-header": (b"q\xff,d\n1,0\n2,1\n", False),
    "nul-header": (b"q\x000,d\n1,0\n2,1\n", False),
    "decision-first": (b"d,q0,q1\n1,0,2\n0,3,1\n", True),
    "two-digits": (b"q0,d\n10,\n2,1\n3,0\n", False),
    "leading-sign": (b"q0,d\n+1,0\n2,1\n", False),
    "lone-sign": (b"q0,d\n+,0\n2,1\n3,0\n", False),
    "padded": (b"q0,d\n 1,0\n2,1\n", False),
    "semicolon": (b"q0,d\n1;0\n2,1\n3,0\n", False),
    "comma-for-newline": (b"q0,d\n1,0,2,1\n3,0\n", False),
    "no-final-newline": (b"q0,d\n1,0\n2,1", False),
    "trailing-blank-line": (b"q0,d\n1,0\n2,1\n\n", False),
    "short-row": (b"q0,q1,d\n1,2,0\n1,1\n2,3,1\n", False),
    "empty-cell": (b"q0,d\n1,0\n,1\n2,1\n", False),
    "one-cell-per-row": (b"d\n1\n0\n", True),
    "blank-header": (b"\n1\n0\n", False),  # csv.reader reads no fields
}


def _with_one_digit_edges(test):
    for data, _ in ONE_DIGIT_EDGES.values():
        test = example(data)(test)
    return test


@pytest.mark.parametrize("data,byte_path", ONE_DIGIT_EDGES.values(),
                         ids=list(ONE_DIGIT_EDGES))
def test_one_digit_path_takes_exactly_the_one_digit_files(data, byte_path):
    assert (_one_digit_table(data) is not None) == byte_path


def test_one_digit_file_needs_neither_the_decoder_nor_the_cell_parser(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 5, size=(200, 6)).astype(str)
    rows[:, 2] = rng.integers(0, 2, size=200).astype(str)
    path = write_csv(tmp_path / "digits.csv",
                     ["q0", "q1", "d", "q3", "q4", "q5"], rows.tolist())
    expected = load_csv_cells(path, "d")

    def fail(*args, **kwargs):
        raise AssertionError("a one-digit file took the text path")

    monkeypatch.setattr("scalereduce.dataset._records", fail)
    monkeypatch.setattr("scalereduce.dataset._complete_cases", fail)
    got = load_csv(path, "d")
    assert got.labels == expected.labels
    assert got.dropped_rows == expected.dropped_rows == 0
    assert got.positive_value == expected.positive_value
    assert got.negative_value == expected.negative_value
    assert got.decision.tolist() == expected.decision.tolist()
    assert got.attributes.tobytes() == expected.attributes.tobytes()


def test_one_digit_load_makes_no_float_copy(tmp_path):
    # the byte path's uint8 table is narrowed to int8 in Dataset with no
    # float copy, so the peak stays under one float64 copy of the
    # 5000 x 20 attribute matrix, 800 000 bytes; making that copy peaked
    # at 1.12 MB
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 5, size=(5000, 21))
    rows[:, -1] = np.arange(5000) % 2
    path = write_csv(tmp_path / "digits.csv",
                     [f"q{i}" for i in range(20)] + ["d"], rows.tolist())
    load_csv(path, "d")  # leave first-call allocations out of the peak
    tracemalloc.start()
    try:
        ds = load_csv(path, "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _one_digit_table(Path(path).read_bytes()) is not None
    assert ds.attributes.dtype == np.int8
    assert peak < 8 * 5000 * 20


def test_text_path_load_stays_near_two_float_copies(tmp_path):
    # the text path decodes as it reads and keeps its rows in one flat
    # float buffer, so the peak is that table plus the attribute columns
    # taken from it
    rng = np.random.default_rng(6)
    cells = np.round(rng.normal(2.0, 1.0, size=(5000, 20)), 1).astype(str)
    cells[rng.random(cells.shape) < 0.01] = ""
    rows = np.column_stack([cells, (np.arange(5000) % 2).astype(str)])
    path = write_csv(tmp_path / "decimals.csv",
                     [f"q{i}" for i in range(20)] + ["d"], rows.tolist())
    load_csv(path, "d")  # leave first-call allocations out of the peak
    tracemalloc.start()
    try:
        ds = load_csv(path, "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _one_digit_table(Path(path).read_bytes()) is None
    assert ds.dropped_rows > 0
    assert peak < 2.5 * ds.attributes.nbytes


def test_single_class_message_is_the_same_on_both_paths(tmp_path):
    path = tmp_path / "scale.csv"
    messages = []
    for body in (b"1,0\n2,1\n", b"1.5,0\n2,1\n"):  # byte, then text path
        path.write_bytes(b"q0,d\n" + body)
        with pytest.raises(SingleClass) as info:
            load_csv(str(path), "d", positive_value=5)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("decision values are [0.0, 1.0]")


def test_attributes_stay_column_major(tmp_path):
    # items are read a column at a time, so both load paths, select_columns
    # and --auto-orient's flip keep the attribute matrix column-major
    path = tmp_path / "scale.csv"
    for body in (b"1,3,0,0\n2,1,3,1\n0,2,1,1\n",  # byte, then text path
                 b"1.5,3,0,0\n2,1,3,1\n0,2,1,1\n"):
        path.write_bytes(b"up,down,x,d\n" + body)
        ds = load_csv(str(path), "d")
        assert (_one_digit_table(path.read_bytes()) is None) == (b"." in body)
        flipped, below, _ = _orient(ds, True)
        assert below == ["down"]
        for derived in (ds, select_columns(ds, ["x", "up"]), flipped):
            assert derived.attributes.flags.f_contiguous
            assert not derived.attributes.flags.c_contiguous


@pytest.mark.parametrize("cells", [
    ("-0", "0", "1"), ("0", "-0", "1"), ("1", "-0", "0"), ("1", "0", "-0"),
    ("-0", "1", "0"), ("0", "1", "-0", "-0", "0"),
])
def test_negative_zero_decision_is_the_one_np_unique_keeps(tmp_path, capsys,
                                                           cells):
    # -0 and 0 are one decision value; load_csv and the audit report must
    # keep the zero that np.unique(column)[0] keeps, sign included
    path = write_csv(tmp_path / "z.csv", ["x", "d"], [[1, c] for c in cells])
    assert _one_digit_table(Path(path).read_bytes()) is None  # text path
    want = float(np.unique(np.array(cells, dtype=float))[0])
    got = load_csv(path, "d").negative_value
    assert (got, np.signbit(got)) == (want, np.signbit(want))
    assert main(["audit", path, "--decision", "d", "--format", "json"]) == 0
    pairs = json.loads(capsys.readouterr().out)["results"]["gray_pairs"]
    zeros = [json.dumps(p[k]) for p in pairs
             for k in ("decision_a", "decision_b") if p[k] == 0]
    assert zeros == [json.dumps(want)] * (len(cells) - 1)


def _outcome(load, path):
    try:
        return load(path, "d")
    except Exception as exc:  # the two loaders must fail alike
        return type(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_texts())
@example("q0,d\n1,0\n" + "0" * csv.field_size_limit() + "1,1\n2,1\n")
@example("q0,d\n1,0\nnan,1\n2,1\n")
@example('q0,d\r"1"2,0\r-0,1\r')
@example("q0,d\r\n")
@example("q0,q1,d\n1,0\n2,1\n")
@example("\ufeffq0,d\n1,0\n2,1\n")
@example("q0,q1,d\n\x1c1\x1f,2,0\n3,\x1f4\x1c,1\n\x1d5\x1e,6,0\n")
@example("q0,d\n\xa01\xa0,0\n2,1\n")
@example("q0,q1,d\n,,\n1,2,0\n \t, ,\n3,4,1\n,\n")
@example("q0,q1,d\nnan,1,0\n-inf,2,1\n1e999,3,0\n4,5,1\n6,7,0\n")
@example("q0,d\n1_000,0\n2,1\n")
@example("q0,q1,d\r\n1.5,2,0\r\n3,4,1\r\n\r\n5,,0\r\n")
@_with_one_digit_edges
def test_load_csv_matches_cell_by_cell_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        expected = _outcome(load_csv_cells, path)
        got = _outcome(load_csv, path)
    if isinstance(expected, type):
        assert got is expected
        return
    assert isinstance(got, Dataset), got
    assert got.labels == expected.labels
    assert got.dropped_rows == expected.dropped_rows
    assert got.positive_value == expected.positive_value
    assert got.negative_value == expected.negative_value
    assert got.decision.tolist() == expected.decision.tolist()
    assert got.attributes.shape == expected.attributes.shape
    assert got.attributes.tobytes() == expected.attributes.tobytes()
    assert np.array_equal(np.signbit(got.attributes),
                          np.signbit(expected.attributes))


def test_header_only_is_empty_dataset_without_warning(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b,d\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataset):
            load_csv(str(path), "d")
