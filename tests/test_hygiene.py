import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalereduce import diff_examples, gray_examples, gray_examples_for, hygiene
from scalereduce.cli import main
from scalereduce.errors import EmptyDataset, IndexOutOfRange

from conftest import write_csv
from oracles import clones_of_quadratic, duplicates_quadratic, gray_pairs_quadratic


def planted_dataset(rng, m=20, n=3):
    """Random rows plus planted clones, some with flipped decisions."""
    attrs = rng.integers(0, 3, size=(m, n)).astype(float)
    decision = rng.integers(0, 2, size=m)
    n_clones = int(rng.integers(1, 5))
    for _ in range(n_clones):
        src = int(rng.integers(0, attrs.shape[0]))
        attrs = np.vstack([attrs, attrs[src]])
        flip = rng.random() < 0.5
        decision = np.append(
            decision, 1 - decision[src] if flip else decision[src]
        )
    perm = rng.permutation(attrs.shape[0])
    return attrs[perm], decision[perm]


class TestDiffExamples:
    def test_all_distinct(self):
        report = diff_examples([[1, 2], [3, 4], [5, 6]])
        assert (report.total_examples, report.distinct_examples,
                report.duplicate_examples) == (3, 3, 0)

    def test_one_repeat(self):
        report = diff_examples([[1, 2], [1, 2], [5, 6]])
        assert report.duplicate_examples == 1

    def test_five_identical_rows(self):
        report = diff_examples([[7, 7]] * 5)
        assert report.distinct_examples == 1
        assert report.duplicate_examples == 4

    def test_self_concatenation(self):
        rng = np.random.default_rng(31)
        attrs = rng.integers(0, 3, size=(12, 2)).astype(float)
        base = diff_examples(attrs)
        doubled = diff_examples(np.vstack([attrs, attrs]))
        assert doubled.distinct_examples == base.distinct_examples
        assert doubled.duplicate_examples == (
            base.total_examples + base.duplicate_examples
        )

    def test_totals_add_up(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            attrs, _ = planted_dataset(rng)
            report = diff_examples(attrs)
            assert report.total_examples == (
                report.distinct_examples + report.duplicate_examples
            )

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            attrs, _ = planted_dataset(rng)
            report = diff_examples(attrs)
            total, distinct, dupes = duplicates_quadratic(attrs)
            assert (report.total_examples, report.distinct_examples,
                    report.duplicate_examples) == (total, distinct, dupes)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            diff_examples(np.empty((0, 2)))

    def test_one_dimensional_input_is_one_column(self):
        assert diff_examples([3, 1, 3, 3]).distinct_examples == 2


def pair_list(attrs, decision):
    return [tuple(p) for p in gray_examples(attrs, decision).tolist()]


class TestGrayExamples:
    def test_all_distinct_rows_give_no_pairs(self):
        pairs = gray_examples([[1, 2], [3, 4]], [1, 0])
        assert pairs.shape == (0, 2)
        assert pairs.dtype == np.intp

    def test_single_forced_pair(self, tmp_path, capsys):
        pairs = gray_examples([[1, 4], [1, 4], [2, 2]], [1, 0, 1])
        assert pairs.tolist() == [[0, 1]]
        # attribute values are reported by the audit, from the same rows
        path = write_csv(tmp_path / "forced.csv", ["x", "y", "d"],
                         [[1, 4, 1], [1, 4, 0], [2, 2, 1]])
        assert main(["audit", path, "--decision", "d", "--format", "json"]) == 0
        (pair,) = json.loads(capsys.readouterr().out)["results"]["gray_pairs"]
        assert (pair["row_a"], pair["row_b"]) == (0, 1)
        assert pair["values"] == [1.0, 4.0]
        assert pair["decision_a"] != pair["decision_b"]

    def test_same_decision_clones_not_gray(self):
        assert gray_examples([[1, 1], [1, 1]], [1, 1]).shape == (0, 2)

    def test_ordering_and_no_mirror_duplicates(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            attrs, decision = planted_dataset(rng)
            pairs = pair_list(attrs, decision)
            seen = set()
            for a, b in pairs:
                assert a < b
                assert (a, b) not in seen
                assert (b, a) not in seen
                seen.add((a, b))
            assert pairs == sorted(seen)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            attrs, decision = planted_dataset(rng)
            assert pair_list(attrs, decision) == (
                gray_pairs_quadratic(attrs, decision)
            )

    def test_signed_zero_twins_are_gray(self, tmp_path, capsys):
        # -0 and 0 are equal values, so the rows are one response pattern
        attrs = [[-0.0, 2.0], [0.0, 2.0], [1.0, 1.0]]
        assert gray_examples(attrs, [1, 0, 1]).tolist() == [[0, 1]]
        assert diff_examples(attrs).distinct_examples == 2
        assert gray_examples_for(attrs, [1, 0, 1], 1) == [1, 0]
        path = write_csv(tmp_path / "zeros.csv", ["x", "y", "d"],
                         [["-0", 2, 1], [0, 2, 0], [1, 1, 1]])
        assert main(["audit", path, "--decision", "d", "--format", "json"]) == 0
        (pair,) = json.loads(capsys.readouterr().out)["results"]["gray_pairs"]
        assert (pair["row_a"], pair["row_b"]) == (0, 1)
        assert pair["values"] == [0.0, 2.0]
        assert math.copysign(1.0, pair["values"][0]) == 1.0  # not -0.0

    def test_as_matrix_copies_an_f_ordered_matrix_once(self):
        # Dataset.attributes is Fortran-ordered; one C-ordered copy, with
        # -0.0 made +0.0 in place, and the caller's array left as it was
        attrs = np.asfortranarray(np.arange(2000.0 * 50).reshape(2000, 50))
        attrs[0, 0] = -0.0
        tracemalloc.start()
        try:
            a = hygiene._as_matrix(attrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * attrs.nbytes
        assert a.flags.c_contiguous and np.array_equal(a, attrs)
        assert math.copysign(1.0, a[0, 0]) == 1.0
        assert math.copysign(1.0, attrs[0, 0]) == -1.0

    def test_screen_memory_within_one_and_a_half_matrices(self):
        # _screen holds one C-ordered copy of the matrix and compares its
        # sorted rows a block at a time; a whole sorted copy as well
        # peaked at 2.15 times the matrix, the blocks at 1.2
        rng = np.random.default_rng(22)
        attrs = rng.integers(0, 5, size=(100_000, 50)).astype(float)
        attrs[-10:] = attrs[:10]
        decision = rng.integers(0, 2, size=attrs.shape[0])
        tracemalloc.start()
        try:
            dup, _ = hygiene._screen(attrs, decision)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dup.duplicate_examples == 10
        assert peak < 1.5 * attrs.nbytes

    def test_decision_with_more_than_two_values_rejected(self):
        # the gray screen takes a decision with at most two values, each
        # NaN a value of its own; the screens that ignore decision values
        # still accept any decision
        attrs = [[1], [1], [1]]
        for decision in ([0, 1, 2], [0, 1, np.nan]):
            with pytest.raises(ValueError, match="3 distinct values"):
                gray_examples(attrs, decision)
            assert diff_examples(attrs).duplicate_examples == 2
            assert gray_examples_for(attrs, decision, 1) == [1, 0, 2]
        assert gray_examples(attrs[:2], [np.nan, np.nan]).tolist() == [[0, 1]]

    def test_decision_length_checked(self):
        with pytest.raises(ValueError, match="decision length"):
            gray_examples([[1.0], [1.0]], [1, 0, 1])

    def test_integer_matrix_keeps_its_dtype(self):
        # integer rows are keyed in their own bytes; the gray groups' values
        # are floats either way, so reports print the same
        attrs = np.array([[-128, 5], [7, 0], [-128, 5]], dtype=np.int16)
        a = hygiene._as_matrix(attrs)
        assert a.dtype == np.int16 and np.array_equal(a, attrs)
        _, groups = hygiene._screen(attrs, [1, 0, 0])
        _, float_groups = hygiene._screen(attrs.astype(float), [1, 0, 0])
        assert groups.values.dtype == np.float64
        assert groups.values.tolist() == float_groups.values.tolist() == [[-128.0, 5.0]]
        assert pair_list(attrs, [1, 0, 0]) == [(0, 2)]

    def test_works_on_deduplicated_rows(self):
        # screening unique (decision, attrs) rows: clones across decisions
        # survive deduplication and still show up as gray
        attrs = np.array([[1.0, 4.0], [1.0, 4.0], [1.0, 4.0], [2.0, 2.0]])
        decision = np.array([1, 1, 0, 1])
        combined = np.column_stack([decision, attrs])
        unique = np.unique(combined, axis=0)
        pairs = gray_examples(unique[:, 1:], unique[:, 0])
        assert len(pairs) == 1


class TestGrayExamplesFor:
    def test_unique_row(self):
        assert gray_examples_for([[1, 2], [3, 4]], [1, 0], 1) == [1]

    def test_three_identical_rows(self):
        attrs = [[5, 5], [1, 2], [5, 5], [5, 5]]
        got = gray_examples_for(attrs, [1, 0, 0, 1], 2)
        assert got == [2, 0, 3]

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            attrs, decision = planted_dataset(rng)
            n = int(rng.integers(0, attrs.shape[0]))
            assert gray_examples_for(attrs, decision, n) == (
                clones_of_quadratic(attrs, n)
            )

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            gray_examples_for([[1.0]], [1], 5)
        # a non-integer row index is rejected; a numpy integer is converted
        with pytest.raises(ValueError, match="integer"):
            gray_examples_for([[1.0], [2.0]], [1, 0], 1.5)
        rows = gray_examples_for([[1.0], [1.0]], [1, 0], np.int64(0))
        assert rows == [0, 1] and all(type(r) is int for r in rows)


@st.composite
def small_matrices(draw):
    """Small integer codes with signed zeros, one row, one column and
    all-equal rows included, and a decision drawn from two codes picked
    per example, so one-valued decisions and codings other than 0/1 are
    drawn too."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 4))
    cell = st.sampled_from([-0.0, 0.0, 1.0, 2.0, -1.0])
    if draw(st.booleans()):
        # every row the same pattern, zeros signed independently
        row = draw(st.lists(cell, min_size=n, max_size=n))
        attrs = np.array([[abs(v) if v == 0 and draw(st.booleans()) else v
                           for v in row] for _ in range(m)])
    else:
        attrs = np.array(draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                       min_size=m, max_size=m)))
    codes = draw(st.sampled_from([(0, 1), (1, 2), (-1, 1), (0.5, 2)]))
    decision = np.array(draw(st.lists(st.sampled_from(codes), min_size=m, max_size=m)))
    return attrs.reshape(m, n), decision


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_matrices(), st.sampled_from([1, 3, hygiene._CHUNK]))
# twelve equal rows, one of which has another decision
@example((np.ones((12, 2)), np.array([0] * 7 + [2] + [0] * 4)), 1)
# two groups whose row indices interleave, with several rows in each run
@example((np.array([[1.0], [0.0], [-0.0], [1.0], [0.0], [1.0], [1.0], [-0.0], [1.0], [0.0]]),
          np.array([1, -1, 1, -1, -1, 1, -1, 1, 1, -1])), 3)
def test_grouping_matches_quadratic_oracles(data, chunk):
    attrs, decision = data
    report = diff_examples(attrs)
    assert (report.total_examples, report.distinct_examples,
            report.duplicate_examples) == duplicates_quadratic(attrs)
    oracle = gray_pairs_quadratic(attrs, decision)
    with mock.patch.object(hygiene, "_CHUNK", chunk):
        pairs = gray_examples(attrs, decision)
        groups = hygiene._screen(attrs, decision)[1]
        chunks = list(groups.pair_chunks())
    assert pairs.dtype == np.intp and pairs.ndim == 2 and pairs.shape[1] == 2
    assert [tuple(p) for p in pairs.tolist()] == oracle
    assert groups.pair_count == len(oracle)
    # run 2g holds group g's rows with the lower decision, 2g + 1 the higher
    run_of = dict(zip(groups.rows.tolist(), np.repeat(
        np.arange(groups.starts.size - 1), np.diff(groups.starts)).tolist()))
    assert groups.levels.tolist() == np.unique(decision).tolist()
    for row, run in run_of.items():
        assert decision[row] == groups.levels[run % 2]
    for pos_a, pos_b, run_a in chunks:
        a, b = groups.rows[pos_a], groups.rows[pos_b]
        for x, y, r in zip(a.tolist(), b.tolist(), run_a.tolist()):
            assert run_of[x] == r and run_of[y] == r ^ 1
    for a, _ in oracle:
        values = groups.values[run_of[a] // 2]
        assert (values == attrs[a]).all()
        assert not np.signbit(values[values == 0]).any()
    for n in range(attrs.shape[0]):
        assert gray_examples_for(attrs, decision, n) == (
            clones_of_quadratic(attrs, n)
        )
