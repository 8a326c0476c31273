"""Command-line front end.

Commands: audit (duplicates and gray examples), rank (per-item AUC),
reduce (full ranking table, reduced scale, optional SVG plots) and
test-inclusion (paired ROC tests for adding one more item).

Outputs are pure functions of (input bytes, flags, seed), and read no
environment variable. Exit codes: 0 success, 2 input error (a bad flag
value included, such as --n-boot above MAX_N_BOOT, and a stdout that
cannot take the report), 3 analysis-domain error. A reader that closes
stdout early (| head) still gets 0, and a message that stderr cannot take
is dropped. Reports are written as UTF-8 whatever the locale or
PYTHONIOENCODING says, and a path given in bytes that are not UTF-8 is
written as those bytes, so no text in a report can cost the exit code.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .compare import ALTERNATIVES, _next_counts, _paired_test
from .dataset import Dataset, load_csv, select_columns
from .errors import LoadError, ScaleReduceError, UnknownColumn
from .hygiene import GrayGroups, _screen
from .reduction import _ranking, _walk, reduction_ratio, start_auc
from .roc import _curve, auc
from .svg import points_csv, roc_chart, running_auc_chart

TOOL = "scalereduce"
# Largest --n-boot: the replicate differences take 8 MB at this size. A
# replicate costs about 0.16 ms on 10k rows and 1.4 ms on 100k rows where
# a class draws rows, and 0.015 ms and 0.05 ms where both draw counts.
MAX_N_BOOT = 1_000_000


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
        _say(f"advisory: {len(below)} item(s) rank below AUC 0.5 and enter "
             f"the ranking un-flipped: {', '.join(below)}")
        return ds, [], singles
    attrs = ds.attributes.copy(order="K")  # column-major, as loaded
    for lab in below:
        i = ds.labels.index(lab)
        attrs[:, i] = -attrs[:, i]
    flipped = replace(ds, attributes=attrs)
    for lab in below:
        singles[lab] = auc(flipped.column(lab), flipped.decision)
    return flipped, below, singles


# --- commands: each computes its results and writes no report; rank,
# reduce and test-inclusion reach _orient, which may print an advisory to
# stderr ---------------------------------------------------------------


def _pair_text(groups: GrayGroups, head: str, tail: str, decision_text,
               values_text) -> Iterator[str]:
    """Per chunk of an audit's gray pairs, one text of head % row_a,
    str(row_b) and tail % (decision_a, decision_b, values) per pair. Group
    g is runs 2g (lower decision) and 2g + 1 (higher), so a pair's tail is
    its row_a run's: heads and names are formatted once per position in
    groups.rows, tails once per run, each decision and values list once."""
    low, high = map(decision_text, groups.levels.tolist())
    tails = np.array([tail % t for v in map(values_text, groups.values.tolist())
                      for t in ((low, high, v), (high, low, v))], dtype=object)
    rows = groups.rows.tolist()
    heads = np.array([head % r for r in rows], dtype=object)
    names = np.array(list(map(str, rows)), dtype=object)
    for pos_a, pos_b, run_a in groups.pair_chunks():
        yield "".join(np.column_stack((heads[pos_a], names[pos_b], tails[run_a]))
                      .ravel().tolist())


def cmd_audit(args) -> tuple[Dataset, dict]:
    ds = _load(args)
    raw_decision = np.where(ds.decision, ds.positive_value, ds.negative_value)
    dup, groups = _screen(ds.attributes, raw_decision)
    return ds, {
        "duplicates": {
            "total": dup.total_examples,
            "distinct": dup.distinct_examples,
            "duplicates": dup.duplicate_examples,
        },
        "gray_pair_count": groups.pair_count,
        "gray_pairs": groups,
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
    ds, flipped, singles = _orient(_load(args), args.auto_orient)
    ranking, scale, counts = _ranking(ds, singles)
    kept = set(scale.items)

    plots: list[str] = []
    if args.plot:
        ks = list(range(1, ds.n_items + 1))
        running = list(ranking.running_auc)
        curve = _curve(counts)
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
    ds, flipped, singles = _orient(_load(args), args.auto_orient)
    order, scale, counts = _walk(ds, singles)
    c1, c2 = _next_counts(order, scale, counts)
    methods = ("delong", "bootstrap") if args.method == "both" else (args.method,)
    boot = {"delong": (None, None), "bootstrap": (args.n_boot, args.seed)}
    return ds, {
        "reduced_items": list(scale.items),
        "next_item": order[len(scale.items)],
        "flipped_items": flipped,
        "tests": [asdict(_paired_test(method, c1, c2, args.alternative,
                                      *boot[method])) for method in methods],
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
    for text in _pair_text(r["gray_pairs"], "  rows %d,",
                           " decision %s/%s values %s\n", "{:g}".format,
                           lambda v: ",".join(f"{x:g}" for x in v)):
        yield text[:-1]  # _write ends each line


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
# table may yield its lines, as audit's gray pairs come a chunk at a time
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


# a gray pair as json.dumps(indent=2) lays it out in a report after a pair
# before it, cut where _pair_text writes row_b
_PAIR_HEAD, _, _PAIR_TAIL = """,
      {
        "row_a": %d,
        "row_b": %d,
        "decision_a": %s,
        "decision_b": %s,
        "values": %s
      }""".rpartition("%d")
# a pair's nonempty values list at its depth in json.dumps(indent=2), filled
# from json.dumps without indent, which keeps json on its C encoder
_VALUES = "[\n          %s\n        ]"


def _json_pieces(report: dict) -> Iterator[str]:
    """Yield json.dumps(report, indent=2) and a newline, in pieces. An audit
    report is dumped with an empty gray-pair list and split at that list,
    which can only be the key, as json escapes '"' in a string; the pairs
    are then written from the gray groups a chunk at a time by _pair_text,
    the first chunk without the ',' that leads every pair."""
    results = report["results"]
    pairs = results.get("gray_pairs")
    if pairs is None:
        yield json.dumps(report, indent=2) + "\n"
        return
    text = json.dumps({**report, "results": {**results, "gray_pairs": []}},
                      indent=2)
    head, _, tail = text.partition('"gray_pairs": []')
    yield head + '"gray_pairs": ['
    lead = 1  # the first pair has no pair before it
    for text in _pair_text(pairs, _PAIR_HEAD, _PAIR_TAIL, json.dumps, lambda v: (
            _VALUES % json.dumps(v)[1:-1].replace(", ", ",\n          "))):
        yield text[lead:]
        lead = 0
    yield ("]" if lead else "\n    ]") + tail + "\n"


def _write(report: dict, fmt: str) -> None:
    """Print the report in one format, a piece at a time as it is
    formatted: an audit's gray pairs come in chunks expanded from their
    groups, so their text is never held whole; table and csv are views
    of it."""
    if fmt == "json":
        pieces = _json_pieces(report)
    else:
        table, header, rows = VIEWS[report["command"]]
        lines = table(report) if fmt == "table" else chain(
            [header], (",".join(map(str, row)) for row in rows(report["results"])))
        pieces = map("{}\n".format, lines)
    sys.stdout.writelines(pieces)


# --- wiring -----------------------------------------------------------


def _params(args) -> dict:
    skip = {"command", "func", "input"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer no smaller than low and, if high is
    given, no larger than high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
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

    def common(p: argparse.ArgumentParser):
        p.add_argument("input", help="CSV file with a header row")
        p.add_argument("--decision", required=True,
                       help="label of the binary decision column")
        p.add_argument("--positive", default="auto",
                       help="decision value marking positives "
                            "(default: the larger of the two values)")
        p.add_argument("--exclude", default="",
                       help="comma-separated attribute labels to drop")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    def ranked(p: argparse.ArgumentParser):
        """common() and --auto-orient, for the commands that rank items."""
        common(p)
        p.add_argument("--auto-orient", action="store_true",
                       help="flip items with AUC < 0.5 before ranking")

    p_audit = sub.add_parser(
        "audit", help="report duplicate examples and gray example pairs")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_rank = sub.add_parser("rank", help="per-item AUC, largest first")
    ranked(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_reduce = sub.add_parser(
        "reduce", help="rank items, build running totals, truncate at the "
                       "first maximum")
    ranked(p_reduce)
    p_reduce.add_argument("--plot", action="store_true",
                          help="write SVG charts and point CSVs")
    p_reduce.add_argument("--out", default=".",
                          help="output directory for plot files")
    p_reduce.set_defaults(func=cmd_reduce)

    p_test = sub.add_parser(
        "test-inclusion",
        help="test whether the next ranked item should join the reduced scale")
    ranked(p_test)
    p_test.add_argument("--method", choices=("delong", "bootstrap", "both"),
                        default="both")
    p_test.add_argument("--alternative", choices=ALTERNATIVES,
                        default="two-sided")
    p_test.add_argument("--n-boot", type=_int_in(1, MAX_N_BOOT), default=2000,
                        help=f"bootstrap replicates, at most {MAX_N_BOOT}")
    p_test.add_argument("--seed", type=_int_in(0), default=1234)
    p_test.set_defaults(func=cmd_test_inclusion)

    return parser


def _to_devnull(fd: int) -> None:
    """Point fd at devnull, so no later write, at exit too, can fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _say(message: str) -> None:
    """Print one line to stderr, or drop it if stderr is missing (print
    would write into the report) or its write fails."""
    try:
        if sys.stderr is not None:
            print(message, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr.fileno())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ds, results = args.func(args)
    except LoadError as exc:
        _say(f"{TOOL}: input error: {exc}")
        return 2
    except ScaleReduceError as exc:
        _say(f"{TOOL}: {exc}")
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
    }
    out = sys.stdout
    try:
        if out is None:  # started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if isinstance(out, io.TextIOWrapper):
            out.reconfigure(encoding="utf-8", errors="surrogateescape")
        _write(report, args.format)
        out.flush()
    except OSError as exc:
        _to_devnull(1 if out is None else out.fileno())
        if not isinstance(exc, BrokenPipeError):  # else the reader stopped early
            _say(f"{TOOL}: input error: cannot write the report: "
                 f"{exc.strerror or exc}")
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
