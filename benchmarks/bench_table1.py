"""Table I: the paper's main result table (Section VI).

``test_table1_full`` regenerates every row (alpha, hc01..hc10) with the
same columns the paper prints, checks the acceptance shape
(feasibility pattern, theta_peak match, positive SwingLoss), and
prints the table.  The timed benchmark measures one full Table I row
(GreedyDeploy + Full-Cover on the Alpha chip) — the unit of work whose
runtime the paper bounds at three minutes.

Run:  pytest benchmarks/bench_table1.py --benchmark-only -s
"""

import pytest

from repro.experiments.benchmarks import BENCHMARKS
from repro.experiments.table1 import run_benchmark_row, run_table1


def test_table1_full_shape():
    comparison = run_table1()
    print()
    print(comparison.render())
    print("averages: P_TEC {:.2f} W (paper 1.70), SwingLoss {:.1f} C (paper 4.2)".format(
        comparison.avg_p_tec_w, comparison.avg_swing_loss_c))

    for row in comparison.rows:
        spec = BENCHMARKS[row.name]
        # theta_peak column reproduced to a tenth of a degree.
        assert row.theta_peak_c == pytest.approx(spec.paper_theta_peak_c, abs=0.1)
        # every row feasible at its table limit.
        assert row.feasible, row.name
        # greedy meets the limit; full cover is strictly worse.
        assert row.greedy_peak_c <= row.theta_limit_c + 1e-6
        assert row.swing_loss_c > 0.0
        # currents and powers in the paper's regime.
        assert 2.0 <= row.i_opt_a <= 12.0
        assert 0.1 <= row.p_tec_w <= 4.0
    assert 1.5 <= comparison.avg_swing_loss_c <= 6.0


@pytest.mark.benchmark(group="table1")
def test_table1_alpha_row(benchmark):
    row, _, _ = benchmark.pedantic(
        lambda: run_benchmark_row("alpha"), rounds=3, iterations=1
    )
    assert row.feasible


@pytest.mark.benchmark(group="table1")
def test_table1_hypothetical_row(benchmark):
    row, _, _ = benchmark.pedantic(
        lambda: run_benchmark_row("hc04"), rounds=3, iterations=1
    )
    assert row.feasible
