"""Validated in-memory dataset and CSV ingestion.

A dataset is an attribute matrix of integer codes or floats, whichever
Dataset picks (one column per rating scale item), plus one binary decision
vector. Loading is complete-case: any row with a missing or unparseable cell
is dropped and counted. A body of one-digit fields is read straight from the
file's bytes. Every other file is decoded a chunk at a time as csv.reader
asks for lines, and each kept row goes into one flat float buffer.
"""

from __future__ import annotations

import csv
import io
import operator
from array import array
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .errors import (
    DuplicateColumn,
    EmptyDataset,
    LoadError,
    MissingDecisionColumn,
    NotBinaryDecision,
    SingleClass,
    UnknownColumn,
)

# An ordered subset of attribute columns, given as labels or 0-based indices.
ColumnSelection = Sequence[Union[str, int]]


@dataclass(frozen=True)
class Dataset:
    """Immutable attribute matrix with a binary decision vector.

    attributes: (m, n) matrix, one row per example, of signed integer
    codes (int8 for digits; see __post_init__) or else of float64.
    labels: n unique, non-empty column labels in file order.
    decision: (m,) bool vector, True marks a positive example.
    dropped_rows: input rows removed because of missing/unparseable cells.
    positive_value / negative_value: the raw decision codes behind the
    mapping, kept for reporting.
    """

    attributes: np.ndarray
    labels: tuple[str, ...]
    decision: np.ndarray
    dropped_rows: int = 0
    positive_value: float = 1.0
    negative_value: float = 0.0

    def __post_init__(self) -> None:
        attrs = np.asarray(self.attributes)
        if attrs.dtype.kind not in "biu":
            attrs = np.asarray(attrs, dtype=float)
        decision = np.array(self.decision, dtype=bool)
        if attrs.ndim != 2:
            raise LoadError("attribute matrix must be 2-dimensional")
        m, n = attrs.shape
        if m < 1:
            raise EmptyDataset("dataset has no rows")
        if n < 1:
            raise EmptyDataset("dataset has no attribute columns")
        floats = attrs.dtype.kind == "f"
        if floats and not np.isfinite(attrs).all():
            raise LoadError("attribute values must be finite")
        if decision.shape != (m,):
            raise LoadError(
                f"decision length {decision.shape} does not match {m} rows"
            )
        if len(self.labels) != n:
            raise LoadError(f"{len(self.labels)} labels for {n} columns")
        if any(not lab for lab in self.labels):
            raise LoadError("attribute labels must be non-empty")
        if len(set(self.labels)) != n:
            raise DuplicateColumn("attribute labels must be unique")
        if decision.all() or not decision.any():
            raise SingleClass(
                "decision must contain at least one positive and one negative"
            )
        # the one dtype decision, on a copy so caller-owned arrays stay
        # writeable: integers below 2**31 in magnitude take the smallest
        # signed dtype holding each value and its negation, so a flip cannot
        # wrap and int64 sums cannot overflow. Float columns are tested one
        # at a time; integer input is narrowed with no float copy.
        top = 2**31
        if not floats or all(-top < c.min() and c.max() < top and (
                c.astype(np.int32) == c).all() for c in attrs.T):
            top = max(-int(attrs.min()), int(attrs.max()))
        attrs = attrs.astype(np.min_scalar_type(-top - 1) if top < 2**31 else float)
        attrs.setflags(write=False)
        decision.setflags(write=False)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_rows(self) -> int:
        return self.attributes.shape[0]

    @property
    def n_items(self) -> int:
        return self.attributes.shape[1]

    @property
    def n_pos(self) -> int:
        return int(self.decision.sum())

    @property
    def n_neg(self) -> int:
        return self.n_rows - self.n_pos

    def column(self, label: str | int) -> np.ndarray:
        """One attribute column by label or 0-based index."""
        return self.attributes[:, resolve_columns(self, [label])[0]]


def resolve_columns(ds: Dataset, cols: ColumnSelection) -> list[int]:
    """Map a label/index selection to column indices.

    Raises UnknownColumn for entries that do not resolve, a non-integer
    index such as 1.5 included, and DuplicateColumn for repeats. Order is
    preserved.
    """
    if len(cols) == 0:
        raise ValueError("empty column selection")
    index_of = {lab: i for i, lab in enumerate(ds.labels)}
    out: list[int] = []
    for c in cols:
        if isinstance(c, str):
            if c not in index_of:
                raise UnknownColumn(f"no column named {c!r}")
            out.append(index_of[c])
        else:
            try:
                i = operator.index(c)
            except TypeError:
                raise UnknownColumn(
                    f"column {c!r} is neither a name nor an integer index"
                ) from None
            if not 0 <= i < ds.n_items:
                raise UnknownColumn(f"column index {i} out of range")
            out.append(i)
    if len(set(out)) != len(out):
        raise DuplicateColumn(f"repeated column in selection {list(cols)!r}")
    return out


def select_columns(ds: Dataset, cols: ColumnSelection) -> Dataset:
    """Dataset restricted to the chosen columns; rows and decision unchanged."""
    idx = resolve_columns(ds, cols)
    return replace(
        ds, attributes=ds.attributes[:, idx],
        labels=tuple(ds.labels[i] for i in idx),
    )


def _records(fh, path: str):
    """csv.reader over fh, with malformed CSV and undecodable bytes raised
    as LoadError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise LoadError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc


def _complete_cases(records, n_cols: int, path: str) -> tuple[np.ndarray, int]:
    """The complete rows of records as an (n_cols, rows) float matrix, one
    row per column of the file, and the count of rows dropped for a wrong
    field count or a missing, unparseable or non-finite cell.

    Each record is converted once, and a kept row goes straight into one
    flat float buffer, which the matrix is a transposed view of. Blank
    lines are not data rows and are neither kept nor counted.
    """
    buf = array("d")
    dropped = 0
    for record in records:
        if len(record) == n_cols:
            try:
                buf.extend([float(c.strip()) for c in record])
                continue
            except ValueError:
                pass
        if any(c.strip() for c in record):
            dropped += 1  # a data row, not a blank line
    table = np.frombuffer(buf).reshape(-1, n_cols)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():  # nan and inf spelled out in the file are missing
        dropped += int(finite.size - finite.sum())
        table = table[finite]
    if not table.size:
        raise EmptyDataset(f"{path}: no complete rows")
    return table.T, dropped


# rows of a one-digit body checked and transposed at a time
_BLOCK_ROWS = 4096


def _one_digit_table(raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """The header fields and the body as a (fields, rows) uint8 matrix of
    values, one row per column of the file, when every body field is one
    ASCII digit, fields are separated by "," and every row ends in "\n";
    None for any other file.

    Each field and the byte after it are read as one little-endian uint16,
    from which the digit "0" and its expected separator are subtracted: the
    difference is at most 9 exactly when both bytes are right. The body is
    checked and transposed _BLOCK_ROWS rows at a time, so no temporary is
    as large as the table. Such a body is pure ASCII, has no blank line and
    drops no row, so csv.reader and float() would read it the same way.
    """
    end = raw.find(b"\n")
    if not 0 <= end < csv.field_size_limit():
        return None
    first = raw[:end]
    if b'"' in first or b"\r" in first or b"\x00" in first:
        return None  # csv.reader may read these otherwise; NUL fails before 3.11
    try:
        text = first.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None  # the text path reports it
    if not text:
        return None  # csv.reader reads a blank header line as no fields
    fields = text.split(",")
    size = len(raw) - end - 1
    if size == 0 or size % (2 * len(fields)):
        return None
    body = np.frombuffer(raw, dtype="<u2", offset=end + 1).reshape(
        -1, len(fields))
    zeros = np.full(len(fields), ord("0") | ord(",") << 8, dtype=np.uint16)
    zeros[-1] = ord("0") | ord("\n") << 8
    table = np.empty(body.shape[::-1], dtype=np.uint8)
    values = np.empty((min(_BLOCK_ROWS, body.shape[0]), len(fields)),
                      dtype=np.uint16)
    for start in range(0, body.shape[0], _BLOCK_ROWS):
        block = body[start:start + _BLOCK_ROWS]
        # wraps below "0" and off the separator, past 9 either way
        digits = np.subtract(block, zeros, out=values[:block.shape[0]])
        if digits.max() > 9:
            return None
        table[:, start:start + _BLOCK_ROWS] = digits.T
    return fields, table


def _checked_header(
    row: list[str] | None, decision_column: str, path: str
) -> tuple[list[str], int]:
    """The stripped header labels and the decision column's index."""
    if row is None:
        raise LoadError(f"{path}: file is empty")
    header = [h.strip() for h in row]
    if decision_column not in header:
        raise MissingDecisionColumn(
            f"{path}: no column named {decision_column!r} in header"
        )
    if any(not h for h in header):
        raise LoadError(f"{path}: header contains an empty label")
    if len(set(header)) != len(header):
        raise DuplicateColumn(f"{path}: header contains duplicate labels")
    if len(header) < 2:
        raise LoadError(f"{path}: no attribute columns besides the decision")
    return header, header.index(decision_column)


def load_csv(
    path: str,
    decision_column: str,
    positive_value: float | str = "auto",
) -> Dataset:
    """Load an RFC-4180-style CSV (header row, comma separated, UTF-8,
    with or without a byte-order mark).

    Every cell is read as a number, integer codes kept as integers; rows
    with any missing or non-numeric cell are dropped and counted in
    dropped_rows. The decision column must end up with exactly two
    distinct values; under positive_value="auto" the numerically larger
    one is positive, otherwise the given value is positive.

    A body of one-digit fields, each row ending in "\n", is read straight
    from the bytes. Every other file is decoded as it is read and goes
    through the complete-case parser, which alone decides what is
    dropped. Both give the same Dataset.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise LoadError(f"cannot open {path}: {exc}") from exc
    one_digit = _one_digit_table(raw)
    dropped = 0
    if one_digit is not None:
        del raw  # the table holds its own copy
        header_row, columns = one_digit
        header, d_idx = _checked_header(header_row, decision_column, path)
    else:
        records = _records(io.TextIOWrapper(
            io.BytesIO(raw), encoding="utf-8-sig", newline=""), path)
        del raw  # the reader holds it until the last line is read
        header, d_idx = _checked_header(
            next(records, None), decision_column, path)
        columns, dropped = _complete_cases(records, len(header), path)

    raw_decision = columns[d_idx].copy()
    keep = [i for i in range(len(header)) if i != d_idx]
    # column-major, as items are read a column at a time: taking whole
    # rows of the one-digit table copies each item in one run
    attrs = columns[keep].T
    del columns  # Dataset narrows attrs to its item dtype
    labels = tuple(header[i] for i in keep)

    # return_counts keeps np.unique off its np.ma check, which imports numpy.ma
    distinct = np.unique(raw_decision, return_counts=True)[0]
    if distinct.size != 2:
        raise NotBinaryDecision(
            f"{path}: decision column {decision_column!r} has "
            f"{distinct.size} distinct values, expected 2"
        )
    if positive_value == "auto":
        pos_val = float(distinct[1])  # numerically larger value is positive
    else:
        pos_val = float(positive_value)
    decision = raw_decision == pos_val
    if not decision.any():
        raise SingleClass(
            f"{path}: positive value {pos_val!r} matches no row; decision "
            f"values are {distinct.astype(float).tolist()}"
        )
    neg_val = float(distinct[0] if pos_val == distinct[1] else distinct[1])

    return Dataset(
        attributes=attrs,
        labels=labels,
        decision=decision,
        dropped_rows=dropped,
        positive_value=pos_val,
        negative_value=neg_val,
    )
