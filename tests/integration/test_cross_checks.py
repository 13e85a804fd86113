"""Cross-subsystem consistency checks.

Independent computations of the same physical quantity must agree:
compact vs transient vs reference, eigen vs binary-search runaway,
Equation (10) vs the direct solve, device physics vs network fluxes.
"""

import numpy as np
import pytest

from repro.core.convexity import eta_zeta
from repro.core.current import minimize_peak_temperature
from repro.tec.device import cold_side_flux, hot_side_flux
from repro.thermal.transient import TransientSimulator

pytestmark = pytest.mark.integration


class TestSteadyVsTransient:
    def test_transient_settles_on_steady_state_everywhere(self, small_deployed):
        """Not just the peak: the full temperature field must agree."""
        current = 4.0
        sim = TransientSimulator(small_deployed, current=current, dt=1e5)
        sim.step()  # one huge backward-Euler step ~ steady state
        steady = small_deployed.solve(current).theta_k
        assert np.allclose(sim.theta_k, steady, atol=1e-3)


class TestDeviceFluxVsNetwork:
    def test_network_fluxes_reproduce_equations_1_and_2(self, small_deployed):
        """The heat entering/leaving the stamped TEC nodes must equal
        the device equations evaluated at the solved face temperatures."""
        current = 5.0
        state = small_deployed.solve(current)
        device = small_deployed.device
        theta = state.theta_k
        net = small_deployed.network
        conductances = dict(net.conductance_items())

        for stamp in small_deployed.stamps:
            cold, hot = stamp.cold_node, stamp.hot_node
            tc, th = theta[cold], theta[hot]
            # Net heat the cold node absorbs from the package through
            # its contact conductance:
            silicon = [
                (pair, g)
                for pair, g in conductances.items()
                if cold in pair and hot not in pair
            ]
            assert len(silicon) == 1
            (pair, g_c) = silicon[0]
            other = pair[0] if pair[1] == cold else pair[1]
            inflow = g_c * (theta[other] - tc)
            # Equation (1): q_c with the *network* kappa flow direction.
            q_c = (
                device.seebeck * current * tc
                - 0.5 * device.electrical_resistance * current**2
                - device.thermal_conductance * (th - tc)
            )
            assert inflow == pytest.approx(q_c, rel=1e-9, abs=1e-12)

    def test_equation3_balance_per_device(self, small_deployed):
        current = 5.0
        state = small_deployed.solve(current)
        device = small_deployed.device
        cold, hot = state.tec_face_temperatures_k()
        for tc, th in zip(cold, hot):
            qc = cold_side_flux(device, current, tc, th)
            qh = hot_side_flux(device, current, tc, th)
            assert qh - qc == pytest.approx(
                device.electrical_resistance * current**2
                + device.seebeck * current * (th - tc)
            )


class TestDecompositionVsDirectSolve:
    def test_equation_10_linearity_in_tile_power(self, small_deployed):
        """zeta is the power-to-temperature influence: doubling a
        tile's power adds exactly h_k,l * p_l to every temperature."""
        current = 2.0
        _, zeta = eta_zeta(small_deployed, current)
        state = small_deployed.solve(current)

        boosted = small_deployed.with_tec_tiles(small_deployed.tec_tiles)
        # construct a model with tile 0 power doubled
        power = small_deployed.power_map.copy()
        extra = power[0]
        power[0] *= 2.0
        from repro.thermal.model import PackageThermalModel

        boosted = PackageThermalModel(
            small_deployed.grid,
            power,
            stack=small_deployed.stack,
            tec_tiles=small_deployed.tec_tiles,
            device=small_deployed.device,
        )
        boosted_state = boosted.solve(current)
        node = small_deployed.silicon_nodes[0]
        unit = np.zeros(small_deployed.num_nodes)
        unit[node] = 1.0
        h_col = small_deployed.solver.solve_rhs(current, unit)
        expected_delta = extra * h_col[small_deployed.silicon_nodes]
        actual_delta = boosted_state.silicon_k - state.silicon_k
        assert np.allclose(actual_delta, expected_delta, atol=1e-9)


class TestOptimizerAgainstBruteForce:
    def test_search_matches_fine_grid_on_alpha(self, alpha_greedy):
        model = alpha_greedy.model
        optimum = minimize_peak_temperature(model, tolerance=1e-5)
        grid = np.linspace(
            max(optimum.current - 1.0, 0.0), optimum.current + 1.0, 201
        )
        brute = min(model.solve(i).peak_silicon_c for i in grid)
        assert optimum.peak_c <= brute + 5e-4
