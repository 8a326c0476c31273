"""Pair bench/run.py runs of a parent checkout and this working tree.

    python3 tools/bench_pairs.py --parent ../parent \
        --workload survey-large,clinical-mixed --seeds 7001-7010

It first copies each side's src/, bench/ (without work/ and results/),
tools/ and BENCHMARK.json into a fresh directory, the two directories
siblings whose paths have the same length, and runs both sides there.
Run from its own directory, a side read 1-7% slower than a fresh copy of
the same code, and the reports' paths add 8 bytes per path character to
cli.report_bytes, so copies alike in all but their code keep the two
sides comparable.

For each workload of the comma-separated --workload list in turn, and
each seed, it runs one bench/run.py of each side, each with that side's
own bench/ and src/, with the same workload and seed, for the
run_seconds of BENCHMARK.json and without tracing, and alternates which
side runs first. Then it prints one table per workload: per metric,
each side's median and quartiles over the seeds, how many pairs the
change won (ties count for neither side) and whether the gain rule
holds: the change wins at least nine tenths of the pairs, and the
medians differ by more than the distance between the parent's
quartiles. Both sides are copied once, so every table comes from one
sitting. For each end-to-end metric it
also prints a no-regression verdict: "worse" where the change's median is
worse than the parent's by more than the metric's bound, a fraction of
the parent's median; "unresolved" where the parent's quartile spread
exceeds that bound, unless every change run beats every parent run; and
"ok" otherwise. Which way a metric is better, and its bound, are read
from BENCHMARK.json. A run that is not correct, or that fails an
operation, is reported and stops the tool.

It writes only the two copies, which it removes at the end, and what
bench/run.py writes in them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    """Seeds from "a-b" (inclusive) or "a,b,c"."""
    if "-" in text:
        first, last = (int(s) for s in text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def copy_side(checkout: Path, side: Path) -> Path:
    """side, now holding what bench/run.py runs of checkout."""
    skip = shutil.ignore_patterns("work", "results", "__pycache__")
    for name in ("src", "bench", "tools"):
        shutil.copytree(checkout / name, side / name, ignore=skip)
    shutil.copy2(checkout / "BENCHMARK.json", side)
    return side


def run(checkout: Path, workload: str, seed: int,
        seconds: float) -> dict[str, float]:
    """The metric values of one bench/run.py run in checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {checkout}: exit {done.returncode}\n"
                 f"{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: {checkout} seed {seed}: correct "
                 f"{result['correct']}, failed {result['failed']}\n"
                 f"{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def table(workload: str, seeds: list[int], runs: dict, spec: dict) -> None:
    """Print the paired runs of one workload, one row per metric."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    pairs = len(seeds)
    print(f"{workload}: {pairs} pairs, seeds "
          f"{', '.join(map(str, seeds))}, --seconds "
          f"{spec['run_seconds']:g}; median [Q1, Q3]")
    print(f"{'metric':36} {'parent':28} {'change':28} wins   gain  "
          f"regression")
    for name in runs["parent"][0]:
        sign = 1 if better.get(name, "lower") == "lower" else -1
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        (o1, om, o3), (n1, nm, n3) = (
            statistics.quantiles(v, n=4, method="inclusive") for v in (old, new))
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        gain = wins >= 0.9 * pairs and sign * (om - nm) > o3 - o1
        if name not in bounds:
            verdict = "-"
        elif max(sign * v for v in new) < min(sign * v for v in old):
            verdict = "ok"  # every change run beats every parent run
        elif o3 - o1 > bounds[name] * abs(om):
            verdict = "unresolved"
        else:
            verdict = ("worse" if sign * (nm - om) > bounds[name] * abs(om)
                       else "ok")
        print(f"{name:36} {f'{om:.4g} [{o1:.4g}, {o3:.4g}]':28} "
              f"{f'{nm:.4g} [{n1:.4g}, {n3:.4g}]':28} "
              f"{wins:2d}/{pairs:<2d}  {'yes' if gain else 'no':4}  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="a checkout of the parent commit")
    p.add_argument("--workload", type=lambda text: text.split(","),
                   required=True, help='one workload, or "a,b,c"')
    p.add_argument("--seeds", type=seeds, required=True,
                   help='"first-last" or "a,b,c"; at least two')
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        # "parent" and "change" have the same length
        sides = {side: copy_side(checkout, Path(tmp) / side) for side, checkout
                 in (("parent", args.parent.resolve()), ("change", ROOT))}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = (("parent", "change") if i % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    runs[side].append(run(sides[side], workload, seed,
                                          spec["run_seconds"]))
                values = ", ".join(
                    f"{name} {runs['parent'][-1][name]:.4g} -> "
                    f"{runs['change'][-1][name]:.4g}"
                    for name in runs["parent"][-1])
                print(f"{workload} seed {seed} ({order[0]} first): {values}",
                      file=sys.stderr)
            table(workload, args.seeds, runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
