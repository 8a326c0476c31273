"""Checks of the session's JSON reports and plot files.

Expected values come from the generator's complete-case matrix through
reference.py, never from the program. Each check raises CheckFailed with
what differed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

import numpy as np

import reference
from workloads import Workload


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Expected:
    """Reference results for one workload, computed once per run."""

    workload: Workload
    distinct_rows: int
    gray_pairs: int
    single_auc: tuple[float, ...]  # file column order
    order: tuple[str, ...]
    running_auc: tuple[float, ...]
    kept: int
    scores_1: np.ndarray  # sum of the retained items
    scores_2: np.ndarray  # scores_1 plus the next ranked item
    auc_1: float
    auc_2: float
    delong_z: float


def expected(w: Workload) -> Expected:
    a, d = w.attributes, w.decision
    singles = [reference.auc(a[:, j], d) for j in range(a.shape[1])]
    order_idx = np.argsort(-np.asarray(singles), kind="stable")
    running = []
    total = np.zeros(a.shape[0])
    prefixes = []
    for j in order_idx:
        total = total + a[:, j]
        prefixes.append(total)
        running.append(reference.auc(total, d))
    kept = 1
    while kept < len(running) and running[kept] > running[kept - 1]:
        kept += 1
    require(kept < len(running), f"{w.name}: generated scale is not reducible")
    s1, s2 = prefixes[kept - 1], prefixes[kept]
    return Expected(
        workload=w,
        distinct_rows=reference.distinct_rows(a),
        gray_pairs=reference.gray_pair_count(a, d),
        single_auc=tuple(singles),
        order=tuple(w.labels[j] for j in order_idx),
        running_auc=tuple(running),
        kept=kept,
        scores_1=s1,
        scores_2=s2,
        auc_1=running[kept - 1],
        auc_2=running[kept],
        delong_z=reference.delong_z(s1, s2, d),
    )


def _header(report: dict, exp: Expected, command: str) -> None:
    w = exp.workload
    got = (report["command"], report["n_rows"], report["n_items"],
           report["dropped_rows"], report["positives"], report["negatives"])
    want = (command, w.attributes.shape[0], w.attributes.shape[1],
            w.dropped_rows, int(w.decision.sum()), int((~w.decision).sum()))
    require(got == want, f"{command}: report header {got} != {want}")


def check_audit(text: str, exp: Expected) -> None:
    report = json.loads(text)
    _header(report, exp, "audit")
    res = report["results"]
    m = exp.workload.attributes.shape[0]
    dup = res["duplicates"]
    want = {"total": m, "distinct": exp.distinct_rows,
            "duplicates": m - exp.distinct_rows}
    require(dup == want, f"audit: duplicates {dup} != {want}")
    require(res["gray_pair_count"] == exp.gray_pairs,
            f"audit: gray_pair_count {res['gray_pair_count']} != {exp.gray_pairs}")
    pairs = res["gray_pairs"]
    require(len(pairs) == exp.gray_pairs,
            f"audit: {len(pairs)} gray pairs listed, {exp.gray_pairs} expected")
    if not pairs:
        return
    row_a = np.array([p["row_a"] for p in pairs])
    row_b = np.array([p["row_b"] for p in pairs])
    a, d = exp.workload.attributes, exp.workload.decision
    key = row_a * m + row_b
    require(bool((row_a < row_b).all()) and bool((np.diff(key) > 0).all()),
            "audit: gray pairs are not unique (a < b) pairs sorted by (a, b)")
    require(bool((a[row_a] == a[row_b]).all()),
            "audit: a gray pair joins rows with different attributes")
    require(bool((d[row_a] != d[row_b]).all()),
            "audit: a gray pair joins rows with the same decision")
    values = np.array([p["values"] for p in pairs])
    require(bool((values == a[row_a]).all()),
            "audit: listed gray-pair values differ from the rows")


def check_reduce(text: str, exp: Expected, plot_dir: Path) -> None:
    report = json.loads(text)
    _header(report, exp, "reduce")
    res = report["results"]
    w = exp.workload
    ranking = res["ranking"]
    order = tuple(r["item"] for r in ranking)
    require(order == exp.order, f"reduce: ranking order {order} != {exp.order}")
    single_by_label = dict(zip(w.labels, exp.single_auc))
    for r in ranking:
        require(r["auc_single"] == single_by_label[r["item"]],
                f"reduce: single AUC of {r['item']} is {r['auc_single']!r}, "
                f"reference {single_by_label[r['item']]!r}")
    running = [r["auc_running"] for r in ranking]
    require(tuple(running) == exp.running_auc,
            "reduce: running AUCs differ from the reference")
    kept = len(res["reduced_items"])
    require(all(running[k] > running[k - 1] for k in range(1, kept)),
            "reduce: retained trajectory is not strictly increasing")
    require(kept == len(running) or running[kept] <= running[kept - 1],
            "reduce: walk did not stop at the first non-increase")
    require(kept == exp.kept, f"reduce: kept {kept} items, reference {exp.kept}")
    require(tuple(res["reduced_items"]) == exp.order[:kept],
            "reduce: reduced items are not the ranking prefix")
    require([r["retained"] for r in ranking] == [k < kept for k in range(len(ranking))],
            "reduce: retained flags disagree with the reduced items")
    require(res["achieved_auc"] == running[kept - 1],
            "reduce: achieved_auc is not the last retained running AUC")
    require(res["stop_reason"] == "first-decrease",
            f"reduce: stop reason {res['stop_reason']!r}")
    require(res["reduction_ratio"] == kept / len(running),
            "reduce: reduction_ratio is not kept / items")

    names = sorted(Path(p).name for p in res["plots"])
    require(names == ["roc_reduced.csv", "roc_reduced.svg",
                      "running_auc.csv", "running_auc.svg"],
            f"reduce: plot files {names}")
    xs, ys = _points(plot_dir / "running_auc.csv")
    require(xs == [float(k) for k in range(1, len(running) + 1)] and ys == running,
            "reduce: running_auc.csv points differ from the report")
    fpr, tpr = _points(plot_dir / "roc_reduced.csv")
    area = reference.trapezoid_area(fpr, tpr)
    require(math.isclose(area, res["achieved_auc"], rel_tol=1e-9),
            f"reduce: roc_reduced.csv area {area!r} != achieved_auc "
            f"{res['achieved_auc']!r}")
    require((fpr[0], tpr[0], fpr[-1], tpr[-1]) == (0.0, 0.0, 1.0, 1.0),
            "reduce: ROC points do not run from (0, 0) to (1, 1)")
    for name in ("running_auc.svg", "roc_reduced.svg"):
        root = ElementTree.parse(plot_dir / name).getroot()
        require(root.tag.endswith("svg"), f"reduce: {name} is not an SVG document")


def _points(path: Path) -> tuple[list[float], list[float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "x,y", f"{path.name}: header {lines[0]!r}")
    pairs = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def check_inclusion(text: str, exp: Expected, seed: int) -> None:
    report = json.loads(text)
    _header(report, exp, "test-inclusion")
    res = report["results"]
    require(tuple(res["reduced_items"]) == exp.order[:exp.kept]
            and res["next_item"] == exp.order[exp.kept],
            "test-inclusion: reduced scale or next item differs from the reference")
    methods = ["delong", "bootstrap"] if exp.workload.method == "both" else [exp.workload.method]
    tests = res["tests"]
    require([t["method"] for t in tests] == methods,
            f"test-inclusion: methods {[t['method'] for t in tests]} != {methods}")
    for t in tests:
        require((t["auc_1"], t["auc_2"]) == (exp.auc_1, exp.auc_2),
                f"test-inclusion: {t['method']} AUCs differ from the reference")
        require(math.isclose(t["p_value"], reference.two_sided_p(t["z"]),
                             rel_tol=1e-9, abs_tol=1e-300),
                f"test-inclusion: {t['method']} p-value does not match z")
        if t["method"] == "delong":
            require(math.isclose(t["z"], exp.delong_z, rel_tol=1e-9),
                    f"test-inclusion: DeLong z {t['z']!r}, reference {exp.delong_z!r}")
        else:
            require(math.isfinite(t["z"])
                    and np.sign(t["z"]) == np.sign(t["auc_1"] - t["auc_2"]),
                    f"test-inclusion: bootstrap z {t['z']!r} does not have the "
                    "sign of auc_1 - auc_2")
            require((t["n_boot"], t["seed"]) == (exp.workload.n_boot, seed),
                    "test-inclusion: bootstrap n_boot/seed not echoed")
