"""Seeded generators for the benchmark's three survey-shaped workloads.

Each generator returns the CSV text the program reads and, beside it, the
complete-case matrix the loader must end up with, so the reference checks
never go through the program's own parser. The same (name, seed, size)
always gives the same bytes.

Class sizes, the floor-group sizes of screening-floor and the number of
rows with a missing cell are fixed counts, not random draws: the work the
program does then depends on the seed only through the noise, which keeps
run-to-run timings steady across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Item cut points on a standard-normal response: 5 levels (0-4) and the
# floor-heavy 4 levels (0-3) of a screening scale.
CUTS_0_4 = np.array([-1.5, -0.5, 0.5, 1.5])
CUTS_0_3_FLOOR = np.array([0.6, 1.3, 2.0])


@dataclass(frozen=True)
class Workload:
    """One generated input and what the session is run with."""

    name: str
    csv_text: bytes
    decision_column: str
    attributes: np.ndarray  # complete rows in file order, float64
    labels: tuple[str, ...]
    decision: np.ndarray  # bool, True for the larger decision code
    dropped_rows: int
    method: str  # test-inclusion --method
    n_boot: int  # test-inclusion --n-boot, and n_boot of the traced bootstrap_test


# Full sizes are the benchmark; tiny sizes keep the harness's own test fast.
# Half the CLI's default of 2000 replicates: the bootstrap still dominates
# test-inclusion, its transient memory is halved, and a run fits more
# sessions. survey-large runs DeLong only; its traced bootstrap_test call
# uses 50 replicates because 2000 x 100k float64 matrices do not fit.
N_BOOT = 1000
ROWS = {"survey-large": 100_000, "screening-floor": 10_000, "clinical-mixed": 4_000}
TINY_ROWS = {"survey-large": 600, "screening-floor": 800, "clinical-mixed": 400}


def _top_share(values: np.ndarray, share: float) -> np.ndarray:
    """Boolean mask of exactly round(share * m) largest values."""
    k = int(round(share * values.size))
    mask = np.zeros(values.size, dtype=bool)
    mask[np.argsort(values, kind="stable")[values.size - k:]] = True
    return mask


def _digit_csv(header: list[str], digits: np.ndarray) -> bytes:
    """CSV text of a matrix of single decimal digits, built without a loop."""
    m, c = digits.shape
    buf = np.empty((m, 2 * c), dtype=np.uint8)
    buf[:, 0::2] = digits.astype(np.uint8) + ord("0")
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    return (",".join(header) + "\n").encode() + buf.tobytes()


def survey_large(rng: np.random.Generator, rows: int) -> Workload:
    """50 items scored 0-4 on one latent trait, 30% positives.

    20 items load on the trait, 26 are noise and 4 load negatively, so
    the first-maximum walk always stops before the last item. With 5^50
    possible rows there are no duplicates and no gray pairs.
    """
    loadings = np.concatenate(
        [np.linspace(0.8, 0.2, 20), np.zeros(26), np.full(4, -0.3)]
    )
    latent = rng.standard_normal(rows)
    noise = rng.standard_normal((rows, loadings.size))
    response = latent[:, None] * loadings + noise * np.sqrt(1.0 - loadings**2)
    items = np.digitize(response, CUTS_0_4)
    decision = _top_share(latent + 0.6 * rng.standard_normal(rows), 0.30)
    labels = tuple(f"q{j + 1:02d}" for j in range(loadings.size))
    text = _digit_csv(
        [*labels, "dx"], np.column_stack([items, decision.astype(int)])
    )
    return Workload(
        name="survey-large", csv_text=text, decision_column="dx",
        attributes=items.astype(float), labels=labels, decision=decision,
        dropped_rows=0, method="delong", n_boot=50,
    )


def screening_floor(rng: np.random.Generator, rows: int) -> Workload:
    """9 items scored 0-3 with a floor effect, 30% positives.

    7% of rows are all-zero (a fixed 1 positive in 6) and 5.4% score 1 on
    exactly one item (fixed counts per item and class), so the gray-pair
    count is dominated by fixed group sizes. The other rows are drawn on
    a latent trait and redrawn until they score at least 2. Items 8 and 9
    load negatively, so the walk stops before them.
    """
    n_items = 9
    loadings = np.array([0.85, 0.8, 0.75, 0.6, 0.5, 0.4, 0.3, -0.3, -0.3])
    n_pos = int(round(0.30 * rows))
    floor_rows = int(round(0.07 * rows))
    floor_pos = floor_rows // 6
    single_rows = int(round(0.006 * rows))  # per item
    single_pos = single_rows // 4

    blocks = [np.zeros((floor_rows, n_items), dtype=np.int64)]
    block_decision = [np.arange(floor_rows) < floor_pos]
    for j in range(n_items):
        single = np.zeros((single_rows, n_items), dtype=np.int64)
        single[:, j] = 1
        blocks.append(single)
        block_decision.append(np.arange(single_rows) < single_pos)

    rest = rows - floor_rows - n_items * single_rows
    latent = np.empty(0)
    items = np.empty((0, n_items), dtype=np.int64)
    while latent.size < rest:
        t = rng.standard_normal(rest)
        e = rng.standard_normal((rest, n_items))
        resp = t[:, None] * loadings + e * np.sqrt(1.0 - loadings**2)
        draw = np.digitize(resp, CUTS_0_3_FLOOR)
        ok = draw.sum(axis=1) >= 2
        latent = np.concatenate([latent, t[ok]])
        items = np.concatenate([items, draw[ok]])
    latent, items = latent[:rest], items[:rest]
    rest_pos = n_pos - floor_pos - n_items * single_pos
    blocks.append(items)
    block_decision.append(
        _top_share(latent + 0.5 * rng.standard_normal(rest), rest_pos / rest)
    )

    order = rng.permutation(rows)
    matrix = np.concatenate(blocks)[order]
    decision = np.concatenate(block_decision)[order]
    labels = tuple(f"s{j + 1}" for j in range(n_items))
    text = _digit_csv(
        [*labels, "referral"], np.column_stack([matrix, decision.astype(int)])
    )
    return Workload(
        name="screening-floor", csv_text=text, decision_column="referral",
        attributes=matrix.astype(float), labels=labels, decision=decision,
        dropped_rows=0, method="both", n_boot=N_BOOT,
    )


# name, log-scale centre, log-scale spread, loading on the latent trait
_LABS = (
    ("bili", 0.3, 0.9, 0.6),
    ("chol", 5.7, 0.35, 0.1),
    ("albumin", 1.25, 0.12, -0.5),
    ("copper", 4.3, 0.8, 0.45),
    ("alk_phos", 7.3, 0.7, 0.25),
    ("ast", 4.7, 0.4, 0.35),
    ("trig", 4.7, 0.4, 0.15),
    ("platelet", 5.5, 0.35, -0.3),
    ("protime", 2.35, 0.09, 0.3),
)


def _three_digits(values: np.ndarray) -> np.ndarray:
    """Round to three significant digits through the decimal text."""
    return np.array([float(f"{v:.3g}") for v in values.ravel()]).reshape(
        values.shape
    )


def clinical_mixed(rng: np.random.Generator, rows: int) -> Workload:
    """pbc-like records: nine lab values with three significant digits,
    age, and four ordinal items; 45% positives on `hepato`.

    Exactly 5% of rows have one empty attribute cell and are dropped by
    the loader. Lab values span decades, so sums of them take nearly as
    many distinct values as there are rows.
    """
    latent = rng.standard_normal(rows)

    def trait(loading: float) -> np.ndarray:
        return loading * latent + np.sqrt(1.0 - loading**2) * rng.standard_normal(rows)

    columns: dict[str, np.ndarray] = {}
    for name, centre, spread, loading in _LABS:
        columns[name] = _three_digits(np.exp(centre + spread * trait(loading)))
    columns["age"] = _three_digits(50.0 + 10.0 * trait(0.05))
    columns["stage"] = np.digitize(trait(0.55), [-1.0, 0.0, 0.8]) + 1.0
    columns["edema"] = np.digitize(trait(0.3), [1.0, 1.6]) * 0.5
    columns["ascites"] = (trait(0.25) > 1.5).astype(float)
    columns["sex"] = np.where(rng.random(rows) < 0.9, 2.0, 1.0)
    labels = tuple(columns)
    matrix = np.column_stack([columns[lab] for lab in labels])
    decision = _top_share(latent + 0.8 * rng.standard_normal(rows), 0.45)

    n_missing = int(round(0.05 * rows))
    missing_rows = rng.choice(rows, size=n_missing, replace=False)
    missing_col = dict(
        zip(missing_rows.tolist(), rng.integers(0, len(labels), n_missing).tolist())
    )
    lines = [",".join([*labels, "hepato"])]
    for i, (row, d) in enumerate(zip(matrix.tolist(), decision.tolist())):
        cells = [repr(v) for v in row]
        if i in missing_col:
            cells[missing_col[i]] = ""
        lines.append(",".join([*cells, "1" if d else "0"]))
    keep = np.ones(rows, dtype=bool)
    keep[missing_rows] = False
    return Workload(
        name="clinical-mixed",
        csv_text=("\n".join(lines) + "\n").encode(),
        decision_column="hepato",
        attributes=matrix[keep], labels=labels, decision=decision[keep],
        dropped_rows=n_missing, method="both", n_boot=N_BOOT,
    )


GENERATORS = {
    "survey-large": survey_large,
    "screening-floor": screening_floor,
    "clinical-mixed": clinical_mixed,
}


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    rows = (TINY_ROWS if tiny else ROWS)[name]
    return GENERATORS[name](np.random.default_rng(seed), rows)
