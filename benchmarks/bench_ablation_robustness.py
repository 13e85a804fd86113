"""Ablation: robustness of the Table I design to device variation.

Beyond-paper study: the Alpha design (greedy deployment + optimized
current) is computed for nominal device parameters; this bench prints
(a) the per-parameter sensitivity of the achieved peak to +10% changes
and (b) a Monte Carlo manufacturing-yield estimate under 10%
parameter variation with the current re-optimized per sample.

Run:  pytest benchmarks/bench_ablation_robustness.py --benchmark-only -s
"""

import pytest

from repro.core.sensitivity import (
    monte_carlo_feasibility,
    parameter_sensitivities,
)


def test_robustness_shape(alpha_problem, alpha_greedy):
    sensitivities = parameter_sensitivities(
        alpha_problem, alpha_greedy.tec_tiles
    )
    print()
    print("{:<26} {:>14} {:>14}".format(
        "parameter (+10%)", "peak shift C", "I_opt shift A"))
    for s in sensitivities:
        print("{:<26} {:>14.3f} {:>14.3f}".format(
            s.parameter, s.peak_shift_c, s.i_opt_shift_a))
    by_name = {s.parameter: s for s in sensitivities}
    assert by_name["seebeck"].peak_shift_c < 0.0
    assert by_name["electrical_resistance"].peak_shift_c > 0.0

    outcome = monte_carlo_feasibility(
        alpha_problem, alpha_greedy.tec_tiles,
        samples=40, coefficient_of_variation=0.10, seed=2010,
    )
    print()
    print("Monte Carlo ({} samples, 10% CV, current re-optimized):".format(
        outcome.samples))
    print("  yield:      {:.0%}".format(outcome.yield_fraction))
    print("  peak range: {:.2f} .. {:.2f} C (nominal {:.2f})".format(
        outcome.best_peak_c, outcome.worst_peak_c, outcome.nominal_peak_c))
    # the nominal design carries ~1 C of margin; most variation
    # samples stay feasible once the current re-adapts.
    assert outcome.yield_fraction >= 0.5
    assert outcome.worst_peak_c < alpha_problem.max_temperature_c + 3.0


@pytest.mark.benchmark(group="ablation-robustness")
def test_monte_carlo_cost(benchmark, alpha_problem, alpha_greedy):
    outcome = benchmark.pedantic(
        lambda: monte_carlo_feasibility(
            alpha_problem, alpha_greedy.tec_tiles, samples=10, seed=1
        ),
        rounds=3,
        iterations=1,
    )
    assert outcome.samples == 10
