import csv
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings

from scalereduce import Dataset, load_csv, select_columns
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
    ], ids=["undecodable-byte", "oversized-field"])
    def test_unreadable_file_is_load_error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(LoadError, match="bad.csv"):
            load_csv(str(path), "d")

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", ["a", "a", "d"], [[1, 2, 0], [3, 4, 1]])
        with pytest.raises(DuplicateColumn):
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

    def test_duplicate_column(self, tiny_csv):
        ds = load_csv(tiny_csv, "d")
        with pytest.raises(DuplicateColumn):
            select_columns(ds, ["a", "a"])


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
def test_load_csv_matches_cell_by_cell_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
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
