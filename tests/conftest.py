import csv

import numpy as np
import pytest
from hypothesis import strategies as st

from scalereduce import Dataset

DATA_DIR = __import__("pathlib").Path(__file__).parent / "data"


def random_scores_decision(rng, m_max=40, score_levels=6):
    """Integer scores (deliberate ties) and a decision with both classes."""
    m = int(rng.integers(4, m_max + 1))
    scores = rng.integers(0, score_levels, size=m).astype(float)
    decision = rng.integers(0, 2, size=m).astype(bool)
    if decision.all():
        decision[rng.integers(0, m)] = False
    if not decision.any():
        decision[rng.integers(0, m)] = True
    return scores, decision


def random_dataset(rng, n_max=8, m_max=30, score_levels=4, signal=True):
    """Small random rating-scale dataset with integer item scores."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(6, m_max + 1))
    decision = rng.integers(0, 2, size=m).astype(bool)
    if decision.all():
        decision[rng.integers(0, m)] = False
    if not decision.any():
        decision[rng.integers(0, m)] = True
    attrs = rng.integers(0, score_levels, size=(m, n)).astype(float)
    if signal:
        # nudge some items toward the decision so rankings are non-trivial
        for j in range(n):
            if rng.random() < 0.7:
                attrs[decision, j] += rng.integers(0, 2)
    labels = tuple(f"q{j + 1:02d}" for j in range(n))
    return Dataset(attributes=attrs, labels=labels, decision=decision)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_csv(tmp_path):
    """3-column file, 5 complete rows, binary 0/1 decision."""
    return write_csv(
        tmp_path / "tiny.csv",
        ["a", "b", "d"],
        [
            [1, 4, 0],
            [2, 3, 0],
            [3, 2, 1],
            [4, 1, 1],
            [5, 0, 1],
        ],
    )


# Cells that the loader paths could read differently: padding, quotes,
# non-finite spellings, underscores, signed zeros, embedded line ends,
# numbers of more than one digit, and one field just past
# csv.field_size_limit() that still parses as finite.
ODD_CELLS = [
    "", " ", "  2 ", "\t1", "\xa03", '"1"', '"1"2', '1"2"', ' "1"', '"1" ',
    '""', '"1,2"', '"1""2"', '"\n1"', '"2\r\n"', "nan", "-inf", "inf",
    "1e999", "-1e999", "1_0", "-0", "+0", "-0.0", ".5", "2.", "1e-320",
    "0x1", "x", "1 2", "\x1c1", "\x00", "10", "007",
    "0" * csv.field_size_limit() + "1",
]


@st.composite
def csv_texts(draw):
    """CSV text with decision column "d": clean rows of 0-3 items and 0/1
    decisions, then a few damages (an odd cell, a ragged row, a blank
    line), and \n, \r\n or lone-\r line ends, sometimes mixed. Zero rows
    gives a header-only file."""
    n_cols = draw(st.integers(2, 4))
    header = [f"q{j}" for j in range(n_cols - 1)]
    header.insert(draw(st.integers(0, n_cols - 1)), "d")
    item = st.sampled_from(["0", "1", "2", "3"])
    code = st.sampled_from(["0", "1"])
    rows = [
        [draw(code if name == "d" else item) for name in header]
        for _ in range(draw(st.integers(0, 10)))
    ]
    for _ in range(draw(st.sampled_from([0, 1, 1, 3])) if rows else 0):
        r = draw(st.integers(0, len(rows) - 1))
        damage = draw(st.sampled_from(["cell", "cell", "ragged", "blank"]))
        if damage == "cell":
            i = draw(st.integers(0, max(len(rows[r]) - 1, 0)))
            rows[r][i:i + 1] = [draw(st.sampled_from(ODD_CELLS))]
        elif damage == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
        else:
            rows.insert(r, [draw(st.sampled_from(["", "  ", ",,"]))])
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    end = draw(ends)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "".join(
        line + (draw(ends) if draw(st.integers(0, 9)) == 0 else end)
        for line in lines
    )
    if rows and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    return text
