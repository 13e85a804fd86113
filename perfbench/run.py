"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload table1|die-deploy|serve-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner byte-compiles the sources
first, so no measured interpreter compiles.  It then starts
``SETUP_REPEATS`` fresh interpreters one after another (``worker.py``);
each sets the workload up, and ``setup_s`` is the median of their
set-up times.  The last one goes on to run the timed phase.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  The line before it,
``detail {...}``, carries sample counts, tail percentiles, the
error rate, the speed probe and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import env, layers, stats  # noqa: E402

WORKER = Path(__file__).with_name("worker.py")
WORKLOAD_NAMES = ("table1", "die-deploy", "serve-mix")

#: Fresh-interpreter set-ups per run; the last one runs the jobs.
SETUP_REPEATS = 3
#: Every run ends within this many seconds.
DEADLINE_S = 170.0
#: Longest temporary directory handed to children: the serve tier's fork
#: server puts a Unix socket about 32 bytes below it, and socket paths
#: must stay under 108 bytes.
MAX_TMPDIR_LENGTH = 70


class RunFailed(Exception):
    """The run cannot produce a result (missing sources, crashed worker)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def precompile():
    """Byte-compile the program and the benchmark (a no-op once done)."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise RunFailed("no program sources at {}".format(package))
    for directory in (ROOT / "src", ROOT / "perfbench"):
        if not compileall.compile_dir(str(directory), quiet=1):
            raise RunFailed("byte-compiling {} failed".format(directory))


def reap_group(pgid, timeout_s=20.0):
    """Wait until every process of group ``pgid`` has ended; SIGKILL
    whatever is left after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        if time.monotonic() > deadline:
            if killed:
                return
            os.killpg(pgid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def worker_env(outdir):
    """Child environment; temporary files go to the run's output
    directory when its path is short enough for a Unix socket."""
    environ = env.child_env(ROOT)
    tmp = outdir / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR_LENGTH:
        tmp.mkdir(exist_ok=True)
        environ["TMPDIR"] = str(tmp)
    return environ


def run_worker(args, role, outdir, deadline):
    """One fresh interpreter: ``(setup_s, phases, result_or_None)``."""
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--outdir", str(outdir),
    ]
    spawned_at = time.time()
    started = time.perf_counter()
    process = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, text=True, env=worker_env(outdir), cwd=ROOT,
        start_new_session=True,
    )
    watchdog = threading.Timer(
        max(deadline - time.monotonic(), 1.0),
        lambda: _kill_group(process.pid),
    )
    watchdog.daemon = True
    watchdog.start()
    setup_s = phases = result = None
    try:
        for line in process.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "ready":
                setup_s = time.perf_counter() - started
                phases = json.loads(payload)
            elif tag == "result":
                result = json.loads(payload)
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
        reap_group(process.pid)
    if setup_s is None or code != 0 or (role == "run" and result is None):
        raise RunFailed("{} worker exited with code {}".format(role, code))
    return setup_s, phases, result


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finite(value):
    return value if value is not None and math.isfinite(value) else None


def metric_block(values, units):
    return {name: {"value": finite(values[name]), "unit": unit} for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        precompile()
        outdir = ROOT / ".perfbench"
        outdir.mkdir(exist_ok=True)
        jiffies_start = env.cpu_jiffies()
        probe_start = env.speed_probe()
        setups, phases = [], []
        result = None
        for repeat in range(SETUP_REPEATS):
            role = "run" if repeat == SETUP_REPEATS - 1 else "setup"
            setup_s, phase, result = run_worker(args, role, outdir, deadline)
            setups.append(setup_s)
            phases.append(phase)
        probe_end = env.speed_probe()
        jiffies_end = env.cpu_jiffies()
    except RunFailed as error:
        print("perfbench: {}".format(error), file=sys.stderr)
        return 1

    latency = stats.latency_summary(result["latency_ms"])
    setup_phases = {
        key: statistics.median(phase[key] for phase in phases)
        for key in ("import_s", "inputs_s", "warm_s")
    }
    if args.trace:
        values = dict(result["layers"])
        values.update({"setup." + key: value for key, value in setup_phases.items()})
        metrics = metric_block(values, layers.PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "job_ms.p50": latency["p50"],
            "jobs_per_s": result["jobs_per_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = metric_block(values, layers.END_TO_END)
    correct = result["failed"] == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s_samples": setups,
        "setup_phases": setup_phases,
        "job_ms": {key: finite(value) for key, value in latency.items()},
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "probe_ms": {"start": probe_start, "end": probe_end},
        "steal_share": env.steal_share(jiffies_start, jiffies_end),
        "env": result["env"],
    }
    for key in ("late_ms_p99", "pool", "layer_shares", "calls", "missing_calls",
                "traced_jobs", "chrome_trace"):
        if key in result:
            detail[key] = result[key]
    print_summary(detail, metrics)
    if result.get("missing_calls"):
        print("perfbench: traced wrappers recorded no calls: {}".format(
            ", ".join(result["missing_calls"])), file=sys.stderr)
        return 1
    print("detail", json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def print_summary(detail, metrics):
    print("perfbench {workload} seed={seed} seconds={seconds:g} trace={trace}".format(**detail))
    probe = detail["probe_ms"]
    print("  speed probe: {:.1f} ms at start, {:.1f} ms at end; CPU steal {:.1%}".format(
        probe["start"], probe["end"], detail["steal_share"]))
    environ = detail["env"]
    print("  env: nproc {}, python {}, numpy {}, scipy {}, BLAS threads {}".format(
        environ["nproc"], environ["python"], environ["numpy"], environ["scipy"],
        environ["blas_threads"]))
    print("  setup_s samples: {}".format(", ".join("{:.3f}".format(s) for s in detail["setup_s_samples"])))
    job = detail["job_ms"]
    tails = ", ".join(
        "{} {}".format(key, "inf" if job[key] is None else "{:.2f}".format(job[key]))
        for key in job if key.startswith("p")
    )
    print("  job_ms: {} (n={})".format(tails, job["n"]))
    print("  error_rate: {:.4f}".format(detail["error_rate"]))
    for failure in detail["failures"][:5]:
        print("  failure: {}".format(failure.strip().splitlines()[-1][:300]))
    for name, entry in metrics.items():
        value = entry["value"]
        print("  {}: {} {}".format(name, "n/a" if value is None else "{:.6g}".format(value), entry["unit"]))
    if detail.get("missing_calls"):
        print("  wrappers with zero calls: {}".format(", ".join(detail["missing_calls"])))
    if detail.get("chrome_trace"):
        print("  chrome trace: {}".format(detail["chrome_trace"]))


if __name__ == "__main__":
    sys.exit(main())
