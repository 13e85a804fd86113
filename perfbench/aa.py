"""A/A steadiness mode: run one commit repeatedly and report the spread.

Usage::

    python3 perfbench/aa.py [--first-seed 1]

Ten rounds, seeds ``first-seed`` onwards; each round runs every
workload of ``BENCHMARK.json`` once (``run.py --trace 0``) with the
round's seed, so machine drift spreads over all workloads alike.  For
every end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile range as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  Tail percentiles, error rates, the
speed probe, run wall times and the environment are printed with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import env, stats  # noqa: E402

RUNNER = Path(__file__).with_name("run.py")
#: Runs per workload in one A/A set.
RUNS = 10


def run_once(workload, seed, seconds):
    """One untraced ``run.py`` invocation: ``(result, detail, wall_s)``."""
    command = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError("{} seed {} failed ({}):\n{}".format(
            workload, seed, completed.returncode, completed.stderr[-2000:]))
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail, wall


def describe(values):
    q1, middle, q3 = stats.quartiles(values)
    return {"median": middle, "q1": q1, "q3": q3, "spread": stats.spread(values)}


def report(workload, runs, bounds, out):
    out("== {} ({} runs, seeds {}) ==".format(
        workload, len(runs), ",".join(str(run["seed"]) for run in runs)))
    out("  {:<16} {:>6} {:>12} {:>12} {:>12} {:>8} {:>6}".format(
        "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, meta in bounds.items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        row = describe(values)
        flag = "ok" if row["spread"] <= meta["bound"] / 3 else (
            "<bound" if row["spread"] <= meta["bound"] else "WIDE")
        out("  {:<16} {:>6} {:>12.5g} {:>12.5g} {:>12.5g} {:>8.4f} {:>6} {}".format(
            name, meta["unit"], row["median"], row["q1"], row["q3"], row["spread"],
            meta["bound"], flag))
    tails = sorted({key for run in runs for key in run["detail"]["job_ms"]
                    if key.startswith("p") and key != "p50"})
    for key in tails:
        values = [run["detail"]["job_ms"].get(key) for run in runs]
        if None in values or len(values) < 2:
            continue
        row = describe(values)
        out("  {:<16} {:>6} {:>12.5g} {:>12.5g} {:>12.5g} {:>8.4f}   (not bounded)".format(
            "job_ms." + key, "ms", row["median"], row["q1"], row["q3"], row["spread"]))
    samples = [run["detail"]["job_ms"]["n"] for run in runs]
    errors = [run["detail"]["error_rate"] for run in runs]
    out("  samples per run: {}..{}; error_rate max {:.4f}; all correct: {}".format(
        min(samples), max(samples), max(errors), all(run["result"]["correct"] for run in runs)))
    starts = [run["detail"]["probe_ms"]["start"] for run in runs]
    ends = [run["detail"]["probe_ms"]["end"] for run in runs]
    out("  speed probe ms: start median {:.1f} [{:.1f}..{:.1f}], end median {:.1f} [{:.1f}..{:.1f}]".format(
        statistics.median(starts), min(starts), max(starts),
        statistics.median(ends), min(ends), max(ends)))
    steal = [run["detail"]["steal_share"] for run in runs]
    out("  CPU steal share: median {:.1%}, max {:.1%}".format(statistics.median(steal), max(steal)))
    walls = [run["wall_s"] for run in runs]
    out("  run wall s: median {:.1f}, max {:.1f}".format(statistics.median(walls), max(walls)))


def main(argv=None):
    parser = argparse.ArgumentParser(description="A/A steadiness runs of one commit")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    bounds = {entry["name"]: entry for entry in benchmark["end_to_end"]}

    def out(line):
        print(line, flush=True)

    runs = {workload: [] for workload in workloads}
    for round_index in range(RUNS):
        seed = args.first_seed + round_index
        for workload in workloads:
            result, detail, wall = run_once(workload, seed, seconds)
            runs[workload].append({"seed": seed, "result": result, "detail": detail, "wall_s": wall})
            out("  ran {} seed {}: {} ({:.1f} s)".format(workload, seed, ", ".join(
                "{}={:.5g}".format(name, entry["value"]) for name, entry in result["metrics"].items()), wall))

    first = runs[workloads[0]][0]["detail"]["env"]
    out("")
    out("commit {}; nproc {}; python {}; numpy {}; scipy {}; BLAS threads {}; BLAS env {}".format(
        env.commit(ROOT), first["nproc"], first["python"], first["numpy"], first["scipy"],
        first["blas_threads"], first["blas_env"] or "unset"))
    out("run_seconds {:g}; spread = (q3 - q1) / median; 'ok' means below a third of the bound".format(seconds))
    for workload in workloads:
        report(workload, runs[workload], bounds, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
