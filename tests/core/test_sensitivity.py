"""Design robustness: local sensitivities and Monte Carlo yield."""

import numpy as np
import pytest

from repro.core.current import minimize_peak_temperature
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.core.sensitivity import (
    DEVICE_PARAMETERS,
    monte_carlo_feasibility,
    parameter_sensitivities,
)
from repro.experiments.benchmarks import load_benchmark
from repro.thermal.chiplet import demo_two_chiplet_layout
from repro.thermal.model import CompositeThermalModel, PackageThermalModel


@pytest.fixture(scope="module")
def small_design(request):
    problem = request.getfixturevalue("small_problem")
    return problem, greedy_deploy(problem)


class TestSensitivities:
    @pytest.fixture(scope="class")
    def sensitivities(self, request):
        problem = request.getfixturevalue("small_problem")
        design = greedy_deploy(problem)
        return parameter_sensitivities(problem, design.tec_tiles)

    def test_all_parameters_covered(self, sensitivities):
        names = {s.parameter for s in sensitivities}
        assert set(DEVICE_PARAMETERS) <= names
        assert "convection_resistance" in names

    def test_sorted_by_impact(self, sensitivities):
        impacts = [abs(s.peak_shift_c) for s in sensitivities]
        assert impacts == sorted(impacts, reverse=True)

    def test_seebeck_helps(self, sensitivities):
        """+10% Seebeck pumps harder: the achievable peak drops."""
        by_name = {s.parameter: s for s in sensitivities}
        assert by_name["seebeck"].peak_shift_c < 0.0

    def test_resistance_hurts(self, sensitivities):
        """+10% electrical resistance: more Joule, higher peak."""
        by_name = {s.parameter: s for s in sensitivities}
        assert by_name["electrical_resistance"].peak_shift_c > 0.0

    def test_seebeck_is_the_dominant_device_parameter(self, sensitivities):
        """Pumping strength rules the design: the Seebeck coefficient
        moves the achievable peak more than any other device knob."""
        by_name = {s.parameter: s for s in sensitivities}
        seebeck = abs(by_name["seebeck"].peak_shift_c)
        for name in DEVICE_PARAMETERS:
            if name != "seebeck":
                assert seebeck > abs(by_name[name].peak_shift_c), name

    def test_contacts_are_second_order(self, sensitivities):
        """Contact-conductance changes matter least — consistent with
        the calibrated contacts being good relative to the film."""
        by_name = {s.parameter: s for s in sensitivities}
        contacts = max(
            abs(by_name["cold_contact_conductance"].peak_shift_c),
            abs(by_name["hot_contact_conductance"].peak_shift_c),
        )
        assert contacts < abs(by_name["seebeck"].peak_shift_c)

    def test_step_validation(self, small_design):
        problem, design = small_design
        with pytest.raises(ValueError):
            parameter_sensitivities(problem, design.tec_tiles, relative_step=0.0)


class TestSearchAgreement:
    """Every perturbed model runs the certified Problem 2 search on a
    model built the way its problem builds its own, so a reported
    shift is exactly that search's answer minus the nominal one."""

    def test_hc09_shift_matches_the_search(self):
        problem = load_benchmark("hc09")
        tiles = greedy_deploy(problem).tec_tiles
        shifts = {
            s.parameter: s for s in parameter_sensitivities(problem, tiles)
        }
        base = minimize_peak_temperature(problem.model(tiles))
        device = problem.device.scaled(
            thermal_conductance=problem.device.thermal_conductance * 1.1
        )
        perturbed = minimize_peak_temperature(PackageThermalModel(
            problem.grid, problem.power_map, stack=problem.stack,
            tec_tiles=tiles, device=device, solver_mode=problem.solver_mode,
        ))
        shift = shifts["thermal_conductance"]
        assert shift.peak_shift_c == pytest.approx(
            perturbed.peak_c - base.peak_c, abs=1e-9
        )
        assert shift.i_opt_shift_a == pytest.approx(
            perturbed.current - base.current, abs=1e-9
        )


class TestChipletProblem:
    """Both studies run on a chiplet problem: each perturbed model is
    the layout's composite model on the perturbed device or stack."""

    @pytest.fixture(scope="class")
    def design(self):
        layout = demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        return problem, problem.deploy().tec_tiles

    def test_sensitivities(self, design):
        problem, tiles = design
        shifts = {
            s.parameter: s for s in parameter_sensitivities(problem, tiles)
        }
        assert set(shifts) == set(DEVICE_PARAMETERS) | {"convection_resistance"}
        assert shifts["seebeck"].peak_shift_c < 0.0
        assert shifts["convection_resistance"].peak_shift_c > 0.0
        base = minimize_peak_temperature(problem.model(tiles))
        device = problem.device.scaled(seebeck=problem.device.seebeck * 1.1)
        perturbed = minimize_peak_temperature(CompositeThermalModel(
            problem.layout, tec_tiles=tiles, device=device,
            solver_mode=problem.solver_mode,
        ))
        assert shifts["seebeck"].peak_shift_c == pytest.approx(
            perturbed.peak_c - base.peak_c, abs=1e-9
        )

    def test_monte_carlo(self, design):
        problem, tiles = design
        outcome = monte_carlo_feasibility(
            problem, tiles, samples=4, coefficient_of_variation=0.05, seed=5
        )
        assert outcome.samples == 4
        assert np.all(np.isfinite(outcome.peak_c))
        assert 0.0 <= outcome.yield_fraction <= 1.0


class TestMonteCarlo:
    @pytest.fixture(scope="class")
    def outcome(self, request):
        problem = request.getfixturevalue("small_problem")
        design = greedy_deploy(problem)
        return monte_carlo_feasibility(
            problem, design.tec_tiles, samples=20,
            coefficient_of_variation=0.05, seed=11,
        )

    def test_counts(self, outcome):
        assert outcome.samples == 20
        assert outcome.peak_c.shape == (20,)
        assert 0.0 <= outcome.yield_fraction <= 1.0

    def test_extremes_consistent(self, outcome):
        assert outcome.worst_peak_c == pytest.approx(float(np.max(outcome.peak_c)))
        assert outcome.best_peak_c == pytest.approx(float(np.min(outcome.peak_c)))
        assert outcome.best_peak_c <= outcome.nominal_peak_c <= outcome.worst_peak_c + 1.0

    def test_multipliers_recorded_and_truncated(self, outcome):
        for name in DEVICE_PARAMETERS:
            values = outcome.multipliers[name]
            assert values.shape == (20,)
            assert np.all(values >= 1.0 - 3 * 0.05 - 1e-9)
            assert np.all(values <= 1.0 + 3 * 0.05 + 1e-9)

    def test_deterministic(self, request):
        problem = request.getfixturevalue("small_problem")
        design = greedy_deploy(problem)
        a = monte_carlo_feasibility(problem, design.tec_tiles, samples=5, seed=3)
        b = monte_carlo_feasibility(problem, design.tec_tiles, samples=5, seed=3)
        assert np.array_equal(a.peak_c, b.peak_c)

    def test_small_variation_keeps_design_feasible(self, outcome, request):
        """With 5% parameter CV the small design's margin holds for
        most samples."""
        assert outcome.yield_fraction >= 0.8

    def test_validation(self, small_design):
        problem, design = small_design
        with pytest.raises(ValueError):
            monte_carlo_feasibility(problem, design.tec_tiles, samples=0)
        with pytest.raises(ValueError):
            monte_carlo_feasibility(
                problem, design.tec_tiles, coefficient_of_variation=0.0
            )
