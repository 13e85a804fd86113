"""Write ``table1_reference.json``: this reproduction's Table I rows.

Usage: ``python3 perfbench/reference.py``

The table1 workload checks every row it runs against this file
(feasibility and #TECs exactly, currents and peaks to 1e-3), and
serve-mix takes its hot-chip deployments from it.  Regenerate it only
when a change is meant to move the reproduced numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main():
    from perfbench.workloads import REFERENCE_PATH
    from repro.experiments.table1 import run_table1

    comparison = run_table1()
    values = {result.name: result.values for result in comparison.sweep_report.results}
    rows = {}
    for row in comparison.rows:
        rows[row.name] = {
            "feasible": bool(row.feasible),
            "num_tecs": int(row.num_tecs),
            "i_opt_a": float(row.i_opt_a),
            "greedy_peak_c": float(row.greedy_peak_c),
            "theta_peak_c": float(row.theta_peak_c),
            "fullcover_min_peak_c": float(row.fullcover_min_peak_c),
            "tec_tiles": [int(t) for t in values[row.name]["tec_tiles"]],
        }
    lines = ['  "{}": {}'.format(name, json.dumps(row, sort_keys=True))
             for name, row in sorted(rows.items())]
    with open(REFERENCE_PATH, "w") as handle:
        handle.write('{"source": "run_table1() with default settings",\n "rows": {\n')
        handle.write(",\n".join(lines))
        handle.write("\n}}\n")
    print("wrote {} rows to {}".format(len(rows), REFERENCE_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
