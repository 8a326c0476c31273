"""Command-line front end.

Commands: audit (duplicates and gray examples), rank (per-item AUC),
reduce (full ranking table, reduced scale, optional SVG plots) and
test-inclusion (paired ROC tests for adding one more item).

Outputs are pure functions of (input bytes, flags, seed). The report
timestamp honors SOURCE_DATE_EPOCH so JSON output is reproducible too.
Exit codes: 0 success, 2 input error, 3 analysis-domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .compare import _inclusion_scores, _inclusion_test
from .dataset import Dataset, load_csv, select_columns
from .errors import (
    DuplicateColumn,
    LoadError,
    ScaleReduceError,
    UnknownColumn,
)
from .hygiene import diff_examples, gray_examples
from .reduction import _ranking, reduce_ranking, reduction_ratio, start_auc
from .roc import auc, roc_curve, sum_scores
from .svg import points_csv, roc_chart, running_auc_chart

TOOL = "scalereduce"


@dataclass(frozen=True)
class RunReport:
    """One JSON-serializable record of a CLI run."""

    tool: str
    version: str
    command: str
    input_path: str
    parameters: dict
    n_rows: int
    n_items: int
    dropped_rows: int
    positives: int
    negatives: int
    results: dict
    timestamp: str

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        seconds = int(epoch) if epoch else int(time.time())
        return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise LoadError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds, "
            f"got {epoch!r}"
        ) from exc


def _report(args, ds: Dataset, results: dict, parameters: dict) -> RunReport:
    return RunReport(
        tool=TOOL,
        version=__version__,
        command=args.command,
        input_path=args.input,
        parameters=parameters,
        n_rows=ds.n_rows,
        n_items=ds.n_items,
        dropped_rows=ds.dropped_rows,
        positives=ds.n_pos,
        negatives=ds.n_neg,
        results=results,
        timestamp=_timestamp(),
    )


def _load(args) -> Dataset:
    positive = args.positive
    if positive != "auto":
        try:
            positive = float(positive)
        except ValueError as exc:
            raise LoadError(f"--positive must be numeric or 'auto', got {positive!r}")
    ds = load_csv(args.input, args.decision, positive)
    if args.exclude:
        excluded = [lab.strip() for lab in args.exclude.split(",") if lab.strip()]
        for lab in excluded:
            if lab not in ds.labels:
                raise UnknownColumn(f"--exclude names unknown column {lab!r}")
        keep = [lab for lab in ds.labels if lab not in excluded]
        ds = select_columns(ds, keep)
    return ds


def _orient(ds: Dataset, auto_orient: bool) -> tuple[Dataset, list[str], dict]:
    """Optionally flip items with AUC < 0.5 by negating their column.

    Returns the dataset, the flipped labels and the single-item AUCs of
    the returned dataset. Negation reverses orientation exactly:
    auc(-x) == 1 - auc(x) under the half-tie convention. Flipping lives
    here in the CLI, never in the library, and flipped items are always
    reported.
    """
    singles = start_auc(ds)
    below = [lab for lab, v in singles.items() if v < 0.5]
    if not below:
        return ds, [], singles
    if not auto_orient:
        print(
            f"advisory: {len(below)} item(s) rank below AUC 0.5 and enter "
            f"the ranking un-flipped: {', '.join(below)}",
            file=sys.stderr,
        )
        return ds, [], singles
    attrs = ds.attributes.copy()
    for lab in below:
        i = ds.labels.index(lab)
        attrs[:, i] = -attrs[:, i]
    flipped = replace(ds, attributes=attrs)
    for lab in below:
        singles[lab] = auc(flipped.column(lab), flipped.decision)
    return flipped, below, singles


def _fmt7(v: float) -> str:
    return f"{v:.7f}"


def _print_table(lines: list[str]) -> None:
    print("\n".join(lines))


# --- audit ------------------------------------------------------------


def cmd_audit(args) -> RunReport:
    ds = _load(args)
    raw_decision = np.where(ds.decision, ds.positive_value, ds.negative_value)
    dup = diff_examples(ds.attributes)
    pairs = gray_examples(ds.attributes, raw_decision)
    results = {
        "duplicates": {
            "total": dup.total_examples,
            "distinct": dup.distinct_examples,
            "duplicates": dup.duplicate_examples,
        },
        "gray_pair_count": len(pairs),
        "gray_pairs": [
            {
                "row_a": p.row_index_a,
                "row_b": p.row_index_b,
                "decision_a": p.decision_a,
                "decision_b": p.decision_b,
                "values": list(p.attribute_values),
            }
            for p in pairs
        ],
    }
    report = _report(args, ds, results, _params(args))

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("metric,value")
        print(f"total,{dup.total_examples}")
        print(f"distinct,{dup.distinct_examples}")
        print(f"duplicates,{dup.duplicate_examples}")
        print(f"gray_pairs,{len(pairs)}")
    else:
        lines = [
            f"examples: total {dup.total_examples}, distinct "
            f"{dup.distinct_examples}, duplicates {dup.duplicate_examples}",
            f"gray pairs: {len(pairs)}",
        ]
        for p in pairs:
            values = ",".join(f"{v:g}" for v in p.attribute_values)
            lines.append(
                f"  rows {p.row_index_a},{p.row_index_b} "
                f"decision {p.decision_a:g}/{p.decision_b:g} values {values}"
            )
        _print_table(lines)
    return report


# --- rank -------------------------------------------------------------


def cmd_rank(args) -> RunReport:
    ds = _load(args)
    ds, flipped, singles = _orient(ds, args.auto_orient)
    ordered = sorted(singles.items(), key=lambda kv: -kv[1])
    results = {
        "items": [{"item": lab, "auc": v} for lab, v in ordered],
        "flipped_items": flipped,
    }
    report = _report(args, ds, results, _params(args))

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("item,auc")
        for lab, v in ordered:
            print(f"{lab},{v!r}")
    else:
        width = max(len("item"), *(len(lab) for lab, _ in ordered))
        lines = [f"{'item':<{width}}  {'auc':>9}"]
        lines += [f"{lab:<{width}}  {_fmt7(v)}" for lab, v in ordered]
        if flipped:
            lines.append(f"flipped items: {', '.join(flipped)}")
        _print_table(lines)
    return report


# --- reduce -----------------------------------------------------------


def cmd_reduce(args) -> RunReport:
    ds = _load(args)
    ds, flipped, singles = _orient(ds, args.auto_orient)
    ranking = _ranking(ds, singles)
    scale = reduce_ranking(ranking)
    ratio = reduction_ratio(scale, ds.n_items)
    kept = set(scale.items)

    plots: list[str] = []
    if args.plot:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        ks = list(range(1, ds.n_items + 1))
        running = list(ranking.running_auc)
        curve = roc_curve(sum_scores(ds, scale.items), ds.decision)
        for name, text in (
            ("running_auc.svg", running_auc_chart(running)),
            ("running_auc.csv", points_csv(ks, running)),
            ("roc_reduced.svg", roc_chart(curve.fpr, curve.tpr)),
            ("roc_reduced.csv", points_csv(curve.fpr, curve.tpr)),
        ):
            path = out / name
            path.write_text(text, encoding="utf-8")
            plots.append(str(path))

    results = {
        "ranking": [
            {
                "item": lab,
                "auc_single": s,
                "auc_running": r,
                "retained": lab in kept,
            }
            for lab, s, r in zip(ranking.order, ranking.single_auc,
                                 ranking.running_auc)
        ],
        "reduced_items": list(scale.items),
        "achieved_auc": scale.achieved_auc,
        "stop_reason": scale.stop_reason,
        "reduction_ratio": ratio,
        "flipped_items": flipped,
        "plots": plots,
    }
    report = _report(args, ds, results, _params(args))

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("item,auc_single,auc_running,retained")
        for row in results["ranking"]:
            print(
                f"{row['item']},{row['auc_single']!r},"
                f"{row['auc_running']!r},{int(row['retained'])}"
            )
    else:
        width = max(len("item"), *(len(lab) for lab in ranking.order))
        lines = [f"{'item':<{width}}  {'single_auc':>10}  {'running_auc':>11}"]
        for lab, s, r in zip(ranking.order, ranking.single_auc,
                             ranking.running_auc):
            mark = " *" if lab in kept else ""
            lines.append(f"{lab:<{width}}  {_fmt7(s):>10}  {_fmt7(r):>11}{mark}")
        lines.append(
            f"reduced scale ({len(scale.items)} of {ds.n_items} items, "
            f"ratio {100 * ratio:.2f}%): {', '.join(scale.items)}"
        )
        lines.append(f"achieved auc: {_fmt7(scale.achieved_auc)}")
        lines.append(f"stop reason: {scale.stop_reason}")
        if flipped:
            lines.append(f"flipped items: {', '.join(flipped)}")
        for path in plots:
            lines.append(f"wrote {path}")
        _print_table(lines)
    return report


# --- test-inclusion ---------------------------------------------------


def cmd_test_inclusion(args) -> RunReport:
    ds = _load(args)
    ds, flipped, singles = _orient(ds, args.auto_orient)
    ranking = _ranking(ds, singles)
    scale = reduce_ranking(ranking)
    scores_1, scores_2 = _inclusion_scores(ds, ranking)
    methods = ["delong", "bootstrap"] if args.method == "both" else [args.method]
    tests = [
        _inclusion_test(
            scores_1, scores_2, ds.decision, m,
            args.alternative, args.n_boot, args.seed,
        )
        for m in methods
    ]
    next_item = ranking.order[len(scale.items)]
    results = {
        "reduced_items": list(scale.items),
        "next_item": next_item,
        "flipped_items": flipped,
        "tests": [
            {
                "method": t.method,
                "z": t.z,
                "p_value": t.p_value,
                "auc_1": t.auc_1,
                "auc_2": t.auc_2,
                "alternative": t.alternative,
                "n_boot": t.n_boot,
                "seed": t.seed,
            }
            for t in tests
        ],
    }
    report = _report(args, ds, results, _params(args))

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print("method,z,p")
        for t in tests:
            print(f"{t.method},{t.z!r},{t.p_value!r}")
    else:
        lines = [
            f"reduced scale: {', '.join(scale.items)} "
            f"(auc {_fmt7(tests[0].auc_1)})",
            f"next item: {next_item} (auc with it {_fmt7(tests[0].auc_2)})",
            f"{'method':<10}  {'z':>10}  {'p':>10}",
        ]
        for t in tests:
            lines.append(f"{t.method:<10}  {t.z:>10.6f}  {t.p_value:>10.8f}")
        if flipped:
            lines.append(f"flipped items: {', '.join(flipped)}")
        _print_table(lines)
    return report


# --- wiring -----------------------------------------------------------


def _params(args) -> dict:
    skip = {"command", "func", "input"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description=(
            "Reduce a rating scale by greedy AUC maximization, with data "
            "hygiene checks and paired ROC tests."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats=("table", "json", "csv")):
        p.add_argument("input", help="CSV file with a header row")
        p.add_argument("--decision", required=True,
                       help="label of the binary decision column")
        p.add_argument("--positive", default="auto",
                       help="decision value marking positives "
                            "(default: the larger of the two values)")
        p.add_argument("--exclude", default="",
                       help="comma-separated attribute labels to drop")
        p.add_argument("--format", choices=formats, default="table")

    p_audit = sub.add_parser(
        "audit", help="report duplicate examples and gray example pairs")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_rank = sub.add_parser("rank", help="per-item AUC, largest first")
    common(p_rank)
    p_rank.add_argument("--auto-orient", action="store_true",
                        help="flip items with AUC < 0.5 before ranking")
    p_rank.set_defaults(func=cmd_rank)

    p_reduce = sub.add_parser(
        "reduce", help="rank items, build running totals, truncate at the "
                       "first maximum")
    common(p_reduce)
    p_reduce.add_argument("--auto-orient", action="store_true",
                          help="flip items with AUC < 0.5 before ranking")
    p_reduce.add_argument("--plot", action="store_true",
                          help="write SVG charts and point CSVs")
    p_reduce.add_argument("--out", default=".",
                          help="output directory for plot files")
    p_reduce.set_defaults(func=cmd_reduce)

    p_test = sub.add_parser(
        "test-inclusion",
        help="test whether the next ranked item should join the reduced scale")
    common(p_test)
    p_test.add_argument("--auto-orient", action="store_true",
                        help="flip items with AUC < 0.5 before ranking")
    p_test.add_argument("--method", choices=("delong", "bootstrap", "both"),
                        default="both")
    p_test.add_argument("--alternative",
                        choices=("two-sided", "less", "greater"),
                        default="two-sided")
    p_test.add_argument("--n-boot", type=_positive_int, default=2000)
    p_test.add_argument("--seed", type=int, default=1234)
    p_test.set_defaults(func=cmd_test_inclusion)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _timestamp()  # reject a bad SOURCE_DATE_EPOCH before any work
        args.func(args)
    except (LoadError, UnknownColumn, DuplicateColumn) as exc:
        print(f"{TOOL}: input error: {exc}", file=sys.stderr)
        return 2
    except ScaleReduceError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
