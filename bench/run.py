"""Benchmark of one scalereduce session on a CSV generated from a seed.

The session is what a user runs on one data file: `audit`, then
`reduce --plot`, then `test-inclusion`, each a CLI subprocess with
`--format json` and SOURCE_DATE_EPOCH set, one after another.

    python3 bench/run.py --workload survey-large --seed 1 --seconds 15 --trace 0

--trace 0 runs whole sessions until --seconds have passed (at least two,
so the reports of two sessions can be compared byte for byte) and prints
the end-to-end metrics. --trace 1 instead calls the public functions of
every module in-process, in whole rounds until --seconds have passed (at
least one), and prints the per-layer metrics. Both modes check every
output against reference.py. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the same object,
with every sample and the run's wall time, is written to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
import reference
from checks import require
from workloads import GENERATORS, Workload, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH / "work"
RESULTS = BENCH / "results"

# Set-up repeats at least this often and for at least this long; the
# median of its times is setup_s.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
MIN_SESSIONS = 2
COMMAND_TIMEOUT_S = 150
SOURCE_DATE_EPOCH = "0"
BOOT_SEED = 1234

COMMANDS = ("audit", "reduce", "inclusion")

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "audit_s": "s",
    "reduce_s": "s",
    "inclusion_s": "s",
    "audit_rss_mb": "MB",
    "reduce_rss_mb": "MB",
    "inclusion_rss_mb": "MB",
}

PER_LAYER = {
    "dataset.load_csv_s": "s",
    "dataset.load_alloc_peak_mb": "MB",
    "dataset.rows_loaded": "count",
    "dataset.rows_dropped": "count",
    "hygiene.diff_examples_s": "s",
    "hygiene.gray_examples_s": "s",
    "hygiene.distinct_rows": "count",
    "hygiene.gray_pairs": "count",
    "roc.auc_s": "s",
    "roc.roc_curve_s": "s",
    "roc.placements_s": "s",
    "roc.sum_scores_s": "s",
    "roc.item_levels_max": "count",
    "roc.pair_cells": "count",
    "reduction.start_auc_s": "s",
    "reduction.total_auc_s": "s",
    "reduction.rsr_s": "s",
    "reduction.items_kept": "count",
    "compare.delong_test_s": "s",
    "compare.bootstrap_test_s": "s",
    "compare.bootstrap_alloc_peak_mb": "MB",
    "compare.check_attr_for_inclusion_s": "s",
    "svg.render_s": "s",
    "svg.bytes": "bytes",
    "cli.import_s": "s",
    "cli.audit_inproc_s": "s",
    "cli.reduce_inproc_s": "s",
    "cli.inclusion_inproc_s": "s",
    "cli.report_bytes": "bytes",
}


def session_argv(w: Workload, csv_path: Path, plot_dir: Path) -> dict[str, list[str]]:
    common = [str(csv_path), "--decision", w.decision_column, "--format", "json"]
    return {
        "audit": ["audit", *common],
        "reduce": ["reduce", *common, "--plot", "--out", str(plot_dir)],
        "inclusion": ["test-inclusion", *common, "--method", w.method,
                      "--n-boot", str(w.n_boot), "--seed", str(BOOT_SEED)],
    }


def set_up(name: str, seed: int, tiny: bool, csv_path: Path) -> tuple[Workload, list[float]]:
    """Generate and write the workload's CSV repeatedly; returns the
    workload and the time of each repeat."""
    times: list[float] = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        w = generate(name, seed, tiny)
        csv_path.write_bytes(w.csv_text)
        times.append(time.perf_counter() - start)
    return w, times


def spawn(argv: list[str], stdout_path: Path) -> tuple[int, float, float]:
    """Run one Python subprocess on the checkout's sources.

    Returns its exit code, wall time in seconds and peak RSS in MB, the
    latter from the child's own rusage.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
    stderr_path = stdout_path.with_name("stderr.txt")
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


class Checker:
    """Collects failed checks. Each command's report is checked once in
    full against the reference; every later report must repeat it byte
    for byte."""

    def __init__(self, exp: checks.Expected, plot_dir: Path):
        self.exp = exp
        self.plot_dir = plot_dir
        self.first: dict[str, bytes] = {}
        self.problems: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def __call__(self, command: str, data: bytes) -> None:
        try:
            if command in self.first:
                require(data == self.first[command],
                        f"{command}: report differs from the first session's")
                return
            self.first[command] = data
            text = data.decode("utf-8")
            if command == "audit":
                checks.check_audit(text, self.exp)
            elif command == "reduce":
                checks.check_reduce(text, self.exp, self.plot_dir)
            else:
                checks.check_inclusion(text, self.exp, BOOT_SEED)
        except (checks.CheckFailed, KeyError, ValueError) as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")


def run_sessions(w, exp, work, seconds):
    """Untraced run: whole sessions of CLI subprocesses."""
    csv_path, plot_dir = work / "data.csv", work / "plots"
    argv = session_argv(w, csv_path, plot_dir)
    check = Checker(exp, plot_dir)
    samples: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    start = time.perf_counter()
    while len(samples["session_s"]) < MIN_SESSIONS or time.perf_counter() - start < seconds:
        session = 0.0
        for command in COMMANDS:
            stdout_path = work / f"{command}.json"
            code, wall, rss = spawn(["-m", "scalereduce.cli", *argv[command]], stdout_path)
            attempted += 1
            session += wall
            samples[f"{command}_s"].append(wall)
            samples[f"{command}_rss_mb"].append(rss)
            if code != 0:
                failed += 1
                check.problems.append(f"{command}: exit code {code}")
            else:
                check(command, stdout_path.read_bytes())
        samples["session_s"].append(session)
    return samples, attempted, failed, check.problems


class Tracer:
    """Per-layer samples: wall time of a call, or its tracemalloc peak."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0

    def time(self, name, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples[name].append(time.perf_counter() - start)
        return result

    def alloc_peak(self, name, fn, *args, **kwargs):
        self.attempted += 1
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.samples[name].append(peak / 2**20)
        return result


def _cli_inproc(main, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def run_traced(w, exp, work, seconds):
    """Traced run: whole rounds of in-process calls into every module."""
    sys.path.insert(0, str(SRC))
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    from scalereduce import cli, compare, dataset, hygiene, reduction, roc, svg

    csv_path, plot_dir = work / "data.csv", work / "plots"
    argv = session_argv(w, csv_path, plot_dir)
    check = Checker(exp, plot_dir)
    expect = check.expect
    tr = Tracer()
    counts: dict[str, int] = {}
    failed = rounds = 0
    d = w.decision
    csv_name = str(csv_path)
    ref_v10, ref_v01 = reference.placements(exp.scores_1, d)
    start = time.perf_counter()
    while rounds < 1 or time.perf_counter() - start < seconds:
        rounds += 1
        ds = tr.time("dataset.load_csv_s", dataset.load_csv, csv_name, w.decision_column)
        tr.alloc_peak("dataset.load_alloc_peak_mb", dataset.load_csv, csv_name, w.decision_column)
        expect(np.array_equal(ds.attributes, w.attributes)
               and np.array_equal(ds.decision, d) and ds.dropped_rows == w.dropped_rows,
               "load_csv: dataset differs from the generated rows")

        dup = tr.time("hygiene.diff_examples_s", hygiene.diff_examples, ds.attributes)
        pairs = tr.time("hygiene.gray_examples_s", hygiene.gray_examples, ds.attributes, d)
        expect(dup.distinct_examples == exp.distinct_rows and len(pairs) == exp.gray_pairs,
               "hygiene: counts differ from the reference")

        singles = tr.time("reduction.start_auc_s", reduction.start_auc, ds)
        expect(tuple(singles.values()) == exp.single_auc,
               "start_auc: values differ from the reference")
        ranking = tr.time("reduction.total_auc_s", reduction.total_auc, ds)
        expect(ranking.order == exp.order and ranking.running_auc == exp.running_auc,
               "total_auc: ranking differs from the reference")
        scale = tr.time("reduction.rsr_s", reduction.rsr, ds)
        expect(len(scale.items) == exp.kept, "rsr: kept count differs from the reference")

        s1 = tr.time("roc.sum_scores_s", roc.sum_scores, ds, scale.items)
        expect(np.array_equal(s1, exp.scores_1), "sum_scores: differs from the reference")
        s2 = s1 + ds.column(ranking.order[exp.kept])
        expect(tr.time("roc.auc_s", roc.auc, s1, d) == exp.auc_1,
               "auc: differs from the reference")
        curve = tr.time("roc.roc_curve_s", roc.roc_curve, s1, d)
        expect(np.isclose(curve.auc, exp.auc_1, rtol=1e-9, atol=0.0),
               "roc_curve: area differs from the reference AUC")
        pv = tr.time("roc.placements_s", roc.placements, s1, d)
        expect(np.allclose(pv.v10, ref_v10, rtol=0.0, atol=1e-12)
               and np.allclose(pv.v01, ref_v01, rtol=0.0, atol=1e-12),
               "placements: differ from the reference")

        dl = tr.time("compare.delong_test_s", compare.delong_test, s1, s2, d)
        expect(np.isclose(dl.z, exp.delong_z, rtol=1e-9, atol=0.0),
               "delong_test: z differs from the reference")
        boot = dict(n_boot=w.n_boot, seed=BOOT_SEED)
        bt = tr.time("compare.bootstrap_test_s", compare.bootstrap_test, s1, s2, d, **boot)
        bt_again = tr.alloc_peak("compare.bootstrap_alloc_peak_mb",
                                 compare.bootstrap_test, s1, s2, d, **boot)
        expect(bt_again.z == bt.z and np.sign(bt.z) == np.sign(bt.auc_1 - bt.auc_2),
               "bootstrap_test: z does not repeat or has the wrong sign")
        inc = tr.time("compare.check_attr_for_inclusion_s",
                      compare.check_attr_for_inclusion, ds, method="delong")
        expect(inc.z == dl.z, "check_attr_for_inclusion: z differs from delong_test")

        charts = tr.time("svg.render_s", lambda: (
            svg.running_auc_chart(ranking.running_auc),
            svg.roc_chart(curve.fpr, curve.tpr)))
        counts["svg.bytes"] = sum(len(c.encode("utf-8")) for c in charts)

        code, _, _ = tr.time("cli.import_s", spawn, ["-c", "import scalereduce.cli"],
                             work / "import.out")
        if code != 0:
            failed += 1
            check.problems.append(f"import scalereduce.cli: exit code {code}")
        report_bytes = 0
        for command in COMMANDS:
            code, data = tr.time(f"cli.{command}_inproc_s", _cli_inproc, cli.main, argv[command])
            report_bytes += len(data)
            if code != 0:
                failed += 1
                check.problems.append(f"{command}: exit code {code}")
            else:
                check(command, data)
        counts["cli.report_bytes"] = report_bytes

    counts.update({
        "dataset.rows_loaded": w.attributes.shape[0],
        "dataset.rows_dropped": w.dropped_rows,
        "hygiene.distinct_rows": exp.distinct_rows,
        "hygiene.gray_pairs": exp.gray_pairs,
        "roc.item_levels_max": max(np.unique(col).size for col in w.attributes.T),
        "roc.pair_cells": reference.pair_cells(exp.scores_1, exp.scores_2, d),
        "reduction.items_kept": exp.kept,
    })
    samples = dict(tr.samples)
    samples.update({k: [v] for k, v in counts.items()})
    return samples, tr.attempted, failed, check.problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="generate a few hundred rows (for the harness's own test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "scalereduce" / "cli.py").is_file():
        print(f"bench: {SRC / 'scalereduce'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # One directory per run, removed at the end: the audit report alone
    # is 23 MB on screening-floor.
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        w, setup_times = set_up(args.workload, args.seed, args.tiny, work / "data.csv")
        exp = checks.expected(w)
        if args.trace:
            samples, attempted, failed, problems = run_traced(w, exp, work, args.seconds)
            units = PER_LAYER
        else:
            samples, attempted, failed, problems = run_sessions(w, exp, work, args.seconds)
            samples["setup_s"] = setup_times
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "wall_s": time.perf_counter() - run_start, **result, "samples": samples}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
