"""Pair bench/run.py runs of a parent checkout and this working tree.

    python3 tools/bench_pairs.py --parent ../parent --workload clinical-mixed \
        --seeds 7001-7010

For each seed it runs one bench/run.py of each side, each with that
side's own bench/ and src/, with the same workload and seed, for the
run_seconds of BENCHMARK.json and without tracing, and alternates which
side runs first. Then it prints, per metric, each side's median and
quartiles over the seeds, how many pairs the change won (ties count for
neither side) and whether the gain rule holds: the change wins at least
nine tenths of the pairs, and the medians differ by more than the
distance between the parent's quartiles. For each end-to-end metric it
also prints a no-regression verdict: "worse" where the change's median is
worse than the parent's by more than the metric's bound, a fraction of
the parent's median; "unresolved" where the parent's quartile spread
exceeds that bound, unless every change run beats every parent run; and
"ok" otherwise. Which way a metric is better, and its bound, are read
from BENCHMARK.json. A run that is not correct, or that fails an
operation, is reported and stops the tool.

It reads bench/ and writes only what bench/run.py writes itself.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    """Seeds from "a-b" (inclusive) or "a,b,c"."""
    if "-" in text:
        first, last = (int(s) for s in text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="a checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True,
                   help='"first-last" or "a,b,c"; at least two')
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("--seeds needs at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(sides[side], args.workload, seed,
                                  spec["run_seconds"]))
        values = ", ".join(f"{name} {runs['parent'][-1][name]:.4g} -> "
                           f"{runs['change'][-1][name]:.4g}"
                           for name in runs["parent"][-1])
        print(f"seed {seed} ({order[0]} first): {values}", file=sys.stderr)

    pairs = len(args.seeds)
    print(f"{args.workload}: {pairs} pairs, seeds "
          f"{', '.join(map(str, args.seeds))}, --seconds "
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
