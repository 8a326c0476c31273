"""Validated in-memory dataset and CSV ingestion.

A dataset is a real-valued attribute matrix (one column per rating scale
item) plus one binary decision vector. Loading is complete-case: any row
with a missing or unparseable cell is dropped and counted.
"""

from __future__ import annotations

import csv
import math
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

    attributes: (m, n) float64 matrix, one row per example.
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
        # copy before freezing so caller-owned arrays stay writeable
        attrs = np.array(self.attributes, dtype=float)
        decision = np.array(self.decision, dtype=bool)
        if attrs.ndim != 2:
            raise LoadError("attribute matrix must be 2-dimensional")
        m, n = attrs.shape
        if m < 1:
            raise EmptyDataset("dataset has no rows")
        if n < 1:
            raise EmptyDataset("dataset has no attribute columns")
        if not np.isfinite(attrs).all():
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

    Raises UnknownColumn for entries that do not resolve and
    DuplicateColumn for repeats. Order is preserved.
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
            i = int(c)
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


def _parse_cell(cell: str) -> float | None:
    """Numeric value of a CSV cell, or None when missing/unparseable.

    Non-finite parses (nan/inf spelled out in the file) count as missing:
    attribute values must be finite.
    """
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _records(fh, path: str):
    """csv.reader over fh, with undecodable bytes and malformed CSV raised
    as LoadError."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise LoadError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc


def load_csv(
    path: str,
    decision_column: str,
    positive_value: float | str = "auto",
) -> Dataset:
    """Load an RFC-4180-style CSV (header row, comma separated, UTF-8).

    Every cell is read as a double; rows containing any missing or
    non-numeric cell are dropped and counted in dropped_rows. The decision
    column must end up with exactly two distinct values; under
    positive_value="auto" the numerically larger one is positive, otherwise
    the given value is positive.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = _records(fh, path)
        header_row = next(reader, None)
        if header_row is None:
            raise LoadError(f"{path}: file is empty")
        header = [h.strip() for h in header_row]
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
        d_idx = header.index(decision_column)

        rows: list[list[float]] = []
        dropped = 0
        for record in reader:
            if not record or all(not c.strip() for c in record):
                continue  # blank line, not a data row
            if len(record) != len(header):
                dropped += 1
                continue
            values = [_parse_cell(c) for c in record]
            if any(v is None for v in values):
                dropped += 1
                continue
            rows.append(values)  # type: ignore[arg-type]

    if not rows:
        raise EmptyDataset(f"{path}: no complete rows")

    table = np.asarray(rows, dtype=float)
    raw_decision = table[:, d_idx]
    attrs = np.delete(table, d_idx, axis=1)
    labels = tuple(h for i, h in enumerate(header) if i != d_idx)

    distinct = np.unique(raw_decision)
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
            f"values are {distinct.tolist()}"
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
