"""Command-line front end.

Commands: audit (duplicates and gray examples), rank (per-item AUC),
reduce (full ranking table, reduced scale, optional SVG plots) and
test-inclusion (paired ROC tests for adding one more item).

Outputs are pure functions of (input bytes, flags, seed). The report
timestamp honors SOURCE_DATE_EPOCH so JSON output is reproducible too.
Exit codes: 0 success, 2 input error, 3 analysis-domain error. A reader
that closes stdout early (| head) still gets 0.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain, islice, repeat, takewhile
from json.encoder import encode_basestring_ascii
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
from .hygiene import _screen
from .reduction import _ranking, reduce_ranking, reduction_ratio, start_auc
from .roc import auc, roc_curve, sum_scores
from .svg import points_csv, roc_chart, running_auc_chart

TOOL = "scalereduce"


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
        if not keep:
            raise LoadError("--exclude removes every attribute column")
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


# --- commands: each computes its results and prints nothing -------------


def cmd_audit(args) -> tuple[Dataset, dict]:
    ds = _load(args)
    raw_decision = np.where(ds.decision, ds.positive_value, ds.negative_value)
    dup, pairs = _screen(ds.attributes, raw_decision)
    # one values list per row, shared by every pair that row is in;
    # + 0.0 prints a -0 cell as 0.0, as the grouping compares it
    rows = np.unique(pairs[:, 0])
    values = dict(zip(rows.tolist(), (ds.attributes[rows] + 0.0).tolist()))
    # one Python list per column, not a 2-list per pair
    row_a, row_b = pairs.T.tolist()
    decision_a, decision_b = raw_decision[pairs].T.tolist()
    return ds, {
        "duplicates": {
            "total": dup.total_examples,
            "distinct": dup.distinct_examples,
            "duplicates": dup.duplicate_examples,
        },
        "gray_pair_count": len(pairs),
        "gray_pairs": [
            {
                "row_a": a,
                "row_b": b,
                "decision_a": da,
                "decision_b": db,
                "values": values[a],
            }
            for a, b, da, db in zip(row_a, row_b, decision_a, decision_b)
        ],
    }


def cmd_rank(args) -> tuple[Dataset, dict]:
    ds = _load(args)
    ds, flipped, singles = _orient(ds, args.auto_orient)
    ordered = sorted(singles.items(), key=lambda kv: -kv[1])
    return ds, {
        "items": [{"item": lab, "auc": v} for lab, v in ordered],
        "flipped_items": flipped,
    }


def cmd_reduce(args) -> tuple[Dataset, dict]:
    ds = _load(args)
    ds, flipped, singles = _orient(ds, args.auto_orient)
    ranking = _ranking(ds, singles)
    scale = reduce_ranking(ranking)
    kept = set(scale.items)

    plots: list[str] = []
    if args.plot:
        ks = list(range(1, ds.n_items + 1))
        running = list(ranking.running_auc)
        curve = roc_curve(sum_scores(ds, scale.items), ds.decision)
        files = {
            "running_auc.svg": running_auc_chart(running),
            "running_auc.csv": points_csv(ks, running),
            "roc_reduced.svg": roc_chart(curve.fpr, curve.tpr),
            "roc_reduced.csv": points_csv(curve.fpr, curve.tpr),
        }
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise LoadError(
                f"cannot write plots to --out {args.out!r}: "
                f"{exc.strerror or exc}"
            ) from exc
        plots = [str(out / name) for name in files]

    return ds, {
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
        "reduction_ratio": reduction_ratio(scale, ds.n_items),
        "flipped_items": flipped,
        "plots": plots,
    }


def cmd_test_inclusion(args) -> tuple[Dataset, dict]:
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
    return ds, {
        "reduced_items": list(scale.items),
        "next_item": ranking.order[len(scale.items)],
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


# --- views: table and csv lines, read from the report alone ------------


def _fmt7(v: float) -> str:
    return f"{v:.7f}"


def _flipped(results: dict) -> list[str]:
    flipped = results["flipped_items"]
    return [f"flipped items: {', '.join(flipped)}"] if flipped else []


def _table_audit(report: dict) -> Iterator[str]:
    r = report["results"]
    dup = r["duplicates"]
    yield (f"examples: total {dup['total']}, distinct {dup['distinct']}, "
           f"duplicates {dup['duplicates']}")
    yield f"gray pairs: {r['gray_pair_count']}"
    shown: dict[int, str] = {}  # each shared values list, formatted once
    for p in r["gray_pairs"]:
        values = p["values"]
        if id(values) not in shown:
            shown[id(values)] = ",".join(f"{v:g}" for v in values)
        yield (
            f"  rows {p['row_a']},{p['row_b']} "
            f"decision {p['decision_a']:g}/{p['decision_b']:g} "
            f"values {shown[id(values)]}"
        )


def _table_rank(report: dict) -> list[str]:
    r = report["results"]
    width = max(len("item"), *(len(row["item"]) for row in r["items"]))
    lines = [f"{'item':<{width}}  {'auc':>9}"]
    lines += [f"{row['item']:<{width}}  {_fmt7(row['auc'])}" for row in r["items"]]
    return lines + _flipped(r)


def _table_reduce(report: dict) -> list[str]:
    r = report["results"]
    width = max(len("item"), *(len(row["item"]) for row in r["ranking"]))
    lines = [f"{'item':<{width}}  {'single_auc':>10}  {'running_auc':>11}"]
    for row in r["ranking"]:
        mark = " *" if row["retained"] else ""
        lines.append(
            f"{row['item']:<{width}}  {_fmt7(row['auc_single']):>10}  "
            f"{_fmt7(row['auc_running']):>11}{mark}"
        )
    items = r["reduced_items"]
    lines += [
        f"reduced scale ({len(items)} of {report['n_items']} items, "
        f"ratio {100 * r['reduction_ratio']:.2f}%): {', '.join(items)}",
        f"achieved auc: {_fmt7(r['achieved_auc'])}",
        f"stop reason: {r['stop_reason']}",
    ]
    return lines + _flipped(r) + [f"wrote {path}" for path in r["plots"]]


def _table_test_inclusion(report: dict) -> list[str]:
    r = report["results"]
    first = r["tests"][0]
    lines = [
        f"reduced scale: {', '.join(r['reduced_items'])} "
        f"(auc {_fmt7(first['auc_1'])})",
        f"next item: {r['next_item']} (auc with it {_fmt7(first['auc_2'])})",
        f"{'method':<10}  {'z':>10}  {'p':>10}",
    ]
    lines += [
        f"{t['method']:<10}  {t['z']:>10.6f}  {t['p_value']:>10.8f}"
        for t in r["tests"]
    ]
    return lines + _flipped(r)


# command -> (table lines, csv header, csv rows from the results); a
# table may yield its lines, as audit's one line per gray pair does
VIEWS = {
    "audit": (
        _table_audit,
        "metric,value",
        lambda r: [
            *r["duplicates"].items(),
            ("gray_pairs", r["gray_pair_count"]),
        ],
    ),
    "rank": (
        _table_rank,
        "item,auc",
        lambda r: [(row["item"], row["auc"]) for row in r["items"]],
    ),
    "reduce": (
        _table_reduce,
        "item,auc_single,auc_running,retained",
        lambda r: [
            (row["item"], row["auc_single"], row["auc_running"],
             int(row["retained"]))
            for row in r["ranking"]
        ],
    ),
    "test-inclusion": (
        _table_test_inclusion,
        "method,z,p",
        lambda r: [(t["method"], t["z"], t["p_value"]) for t in r["tests"]],
    ),
}


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the JSON text of each scalar type, as json.dumps writes it; _scalar looks
# up the exact type, then tries them in this order for a subclass, so bool
# comes before int, its base
_SCALARS = {
    float: lambda v: _NONFINITE.get(text := float.__repr__(v), text),
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): lambda v: "null",
}


def _scalar(v) -> str | None:
    """JSON text of a scalar, None for a dict, list or tuple. A subclass,
    such as np.float64, is written as its base type, as json does."""
    encode = _SCALARS.get(type(v))
    if encode:
        return encode(v)
    if isinstance(v, (dict, list, tuple)):
        return None
    base = next((t for t in _SCALARS if isinstance(v, t)), None)
    if base is None:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return _SCALARS[base](v)


def _dict_template(keys: tuple[str, ...], depth: int) -> str:
    """str.format template of a dict with these keys at this depth: the
    indented key heads are fixed, and each value is a {} field."""
    if not keys:
        return "{{}}"
    pad = "\n" + "  " * (depth + 1)
    heads = (encode_basestring_ascii(k).replace("{", "{{").replace("}", "}}")
             for k in keys)
    return "{{" + ",".join(f"{pad}{head}: {{}}" for head in heads) + f"\n{'  ' * depth}}}}}"


def _write_json(obj, write) -> None:
    """Write json.dumps(obj, indent=2) and a newline through write, in
    pieces as the text is encoded. A leaf, a scalar or a list of scalars,
    is encoded once per depth however often the same list object recurs:
    cmd_audit shares one values list among all the gray pairs of a row. A
    dict of scalars and such lists is written as one piece, from a template
    built once per (keys, depth) shape that holds the keys' text, so each
    gray pair only fills in its values. Any other dict or list is written
    item by item. Dict keys must be str."""
    out: list[str] = []
    lists: dict[tuple[int, int], str | None] = {}
    templates: dict[tuple[tuple[str, ...], int], str] = {}

    def leaf(v, depth: int) -> str | None:
        """JSON text of a scalar or a list of scalars, else None."""
        if not isinstance(v, (list, tuple)):
            return _scalar(v)
        if (id(v), depth) not in lists:
            texts = list(takewhile(lambda t: t is not None, map(_scalar, v)))
            pad = "\n" + "  " * (depth + 1)
            lists[id(v), depth] = (
                None if len(texts) < len(v)
                else f"[{pad}{(',' + pad).join(texts)}\n{'  ' * depth}]" if v
                else "[]")
        return lists[id(v), depth]

    def piece(v, depth: int) -> str | None:
        """JSON text of a leaf or of a dict of leaves, else None."""
        if not isinstance(v, dict):
            return leaf(v, depth)
        # _scalar's exact-type lookup, inline: this runs for every value of
        # every gray pair
        texts = [encode(x) if (encode := _SCALARS.get(type(x))) else leaf(x, depth + 1)
                 for x in v.values()]
        if None in texts:
            return None
        shape = (tuple(v), depth)
        if shape not in templates:
            templates[shape] = _dict_template(*shape)
        return templates[shape].format(*texts)

    def container(v, depth: int) -> None:
        is_dict = isinstance(v, dict)
        brackets = "{}" if is_dict else "[]"
        heads = (map("{}: ".format, map(encode_basestring_ascii, v))
                 if is_dict else repeat(""))
        pad = "\n" + "  " * (depth + 1)
        sep, comma = brackets[0] + pad, "," + pad
        for head, item in zip(heads, v.values() if is_dict else v):
            text = piece(item, depth + 1)
            out.append(sep + head if text is None else f"{sep}{head}{text}")
            if text is None:
                container(item, depth + 1)
            sep = comma
            if len(out) > 4096:
                write("".join(out))
                out.clear()
        out.append("\n" + "  " * depth + brackets[1])

    text = piece(obj, 0)
    if text is None:
        container(obj, 0)
        text = "".join(out)
    write(text + "\n")


def _write(report: dict, fmt: str) -> None:
    """Print the report in one format; table and csv are views of it."""
    if fmt == "json":
        _write_json(report, sys.stdout.write)
        return
    table, header, rows = VIEWS[report["command"]]
    if fmt == "csv":
        lines = chain([header], (",".join(map(str, row)) for row in rows(report["results"])))
    else:
        lines = iter(table(report))
    # written in chunks as they are formatted, never held whole
    while chunk := list(islice(lines, 4096)):
        sys.stdout.write("\n".join(chunk) + "\n")


# --- wiring -----------------------------------------------------------


def _params(args) -> dict:
    skip = {"command", "func", "input"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


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
    p_test.add_argument("--n-boot", type=_int_at_least(1), default=2000)
    p_test.add_argument("--seed", type=_int_at_least(0), default=1234)
    p_test.set_defaults(func=cmd_test_inclusion)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        timestamp = _timestamp()  # rejects a bad SOURCE_DATE_EPOCH before any work
        ds, results = args.func(args)
    except (LoadError, UnknownColumn, DuplicateColumn) as exc:
        print(f"{TOOL}: input error: {exc}", file=sys.stderr)
        return 2
    except ScaleReduceError as exc:
        print(f"{TOOL}: {exc}", file=sys.stderr)
        return 3
    report = {
        "tool": TOOL,
        "version": __version__,
        "command": args.command,
        "input_path": args.input,
        "parameters": _params(args),
        "n_rows": ds.n_rows,
        "n_items": ds.n_items,
        "dropped_rows": ds.dropped_rows,
        "positives": ds.n_pos,
        "negatives": ds.n_neg,
        "results": results,
        "timestamp": timestamp,
    }
    try:
        _write(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; the analysis itself succeeded, so send
        # what is left to devnull rather than fail the exit-time flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
