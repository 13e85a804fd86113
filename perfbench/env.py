"""Run context: a machine speed probe, CPU steal, the environment and peak RSS.

The probe is a fixed pure-Python loop that uses nothing from the
repository.  It and the steal share are context, not metrics: when a
run's probe is slow or its steal share high, the machine was slow,
whatever the program did.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import subprocess
import time
from pathlib import Path

PROBE_ITERATIONS = 1_000_000


def child_env(root):
    """Environment for child interpreters: the checkout's sources first."""
    environ = dict(os.environ)
    paths = [str(root / "src"), str(root)]
    if environ.get("PYTHONPATH"):
        paths.append(environ["PYTHONPATH"])
    environ["PYTHONPATH"] = os.pathsep.join(paths)
    return environ


def speed_probe(repeats=3):
    """Best-of-``repeats`` time of the fixed loop, in milliseconds."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i % 7
        elapsed = (time.perf_counter() - start) * 1000.0
        best = elapsed if best is None else min(best, elapsed)
    return best


def cpu_jiffies():
    """``(steal, total)`` CPU time of the machine since boot, from
    ``/proc/stat``.  Steal is time the hypervisor gave our vCPUs to
    someone else; its share over a run says how contended the host was."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_share(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def own_peak_rss_mb():
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid):
    """Peak RSS (``VmHWM``) of a running process, from ``/proc``."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


def blas_threads():
    """Effective thread count of each loaded OpenBLAS, by library file.

    Read through the libraries' own ``*get_num_threads*`` entry points;
    nothing is set, so this is what library-default threading gives.
    """
    found = {}
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return found
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in symbols:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                found[Path(path).name] = function()
                break
    return found


def environment():
    """Versions and machine facts; call after numpy/scipy are imported."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def commit(root):
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() or "unknown"
