"""The package thermal model: construction, physics sanity, TEC wiring."""

import math

import numpy as np
import pytest

from repro.tec.materials import TecDeviceParameters
from repro.thermal.geometry import TileGrid
from repro.thermal.model import PackageThermalModel
from repro.thermal.network import NodeRole


class TestConstruction:
    def test_node_budget(self, small_model):
        # 4 layers x 16 tiles + 4 spreader periphery + 4 sink inner + 4 outer
        assert small_model.num_nodes == 4 * 16 + 12

    def test_tec_replaces_tim_node(self, small_grid, small_power):
        bare = PackageThermalModel(small_grid, small_power)
        deployed = PackageThermalModel(small_grid, small_power, tec_tiles=(5,))
        # one TIM node removed, two TEC nodes added
        assert deployed.num_nodes == bare.num_nodes + 1
        assert len(deployed.network.indices_with_role(NodeRole.TIM)) == 15
        assert len(deployed.hot_nodes) == 1
        assert len(deployed.cold_nodes) == 1

    def test_power_map_validation(self, small_grid):
        with pytest.raises(ValueError, match="length"):
            PackageThermalModel(small_grid, np.zeros(5))
        with pytest.raises(ValueError, match="non-negative"):
            PackageThermalModel(small_grid, np.full(16, -1.0))

    def test_tec_tile_bounds(self, small_grid, small_power):
        with pytest.raises(IndexError):
            PackageThermalModel(small_grid, small_power, tec_tiles=(16,))

    def test_duplicate_tec_tiles_deduplicated(self, small_grid, small_power):
        model = PackageThermalModel(small_grid, small_power, tec_tiles=(5, 5, 5))
        assert model.tec_tiles == (5,)

    def test_grid_type_enforced(self, small_power):
        with pytest.raises(TypeError):
            PackageThermalModel("not a grid", small_power)

    def test_total_chip_power(self, small_model, small_power):
        assert small_model.total_chip_power_w == pytest.approx(float(np.sum(small_power)))

    def test_with_tec_tiles_preserves_configuration(self, small_model):
        sibling = small_model.with_tec_tiles((0, 1))
        assert sibling.stack is small_model.stack
        assert sibling.device is small_model.device
        assert sibling.tec_tiles == (0, 1)
        assert np.array_equal(sibling.power_map, small_model.power_map)


class TestPhysicsSanity:
    def test_everything_above_ambient_passively(self, small_model):
        state = small_model.solve(0.0)
        assert np.all(state.silicon_c >= small_model.stack.ambient_c - 1e-9)

    def test_hot_block_is_hottest(self, small_model):
        state = small_model.solve(0.0)
        assert state.peak_tile in (5, 6, 9, 10)

    def test_energy_balance(self, small_model):
        """Total heat leaving through convection equals chip power."""
        state = small_model.solve(0.0)
        net = small_model.network
        ambient_k = state.theta_k[0] * 0.0 + 318.15
        flux = sum(
            g * (state.theta_k[node] - ambient_k)
            for node, g in net.ground_items()
        )
        assert flux == pytest.approx(small_model.total_chip_power_w, rel=1e-9)

    def test_more_power_is_hotter(self, small_grid, small_power):
        hot = PackageThermalModel(small_grid, small_power * 2.0)
        cold = PackageThermalModel(small_grid, small_power)
        assert hot.solve().peak_silicon_c > cold.solve().peak_silicon_c

    def test_zero_power_sits_at_ambient(self, small_grid):
        model = PackageThermalModel(small_grid, np.zeros(16))
        state = model.solve(0.0)
        assert np.allclose(state.silicon_c, model.stack.ambient_c, atol=1e-9)

    def test_superposition(self, small_grid, small_power):
        """The passive network is linear: theta(p1 + p2) - ambient =
        (theta(p1) - amb) + (theta(p2) - amb)."""
        amb = PackageThermalModel(small_grid, np.zeros(16)).solve().silicon_c
        a = PackageThermalModel(small_grid, small_power).solve().silicon_c
        b = PackageThermalModel(small_grid, small_power[::-1].copy()).solve().silicon_c
        both = PackageThermalModel(
            small_grid, small_power + small_power[::-1]
        ).solve().silicon_c
        assert np.allclose(both - amb, (a - amb) + (b - amb), atol=1e-9)

    def test_negative_current_rejected(self, small_deployed):
        with pytest.raises(ValueError):
            small_deployed.solve(-1.0)


class TestTecBehaviour:
    def test_moderate_current_cools_hotspot(self, small_grid, small_power):
        bare = PackageThermalModel(small_grid, small_power)
        deployed = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6, 9, 10)
        )
        bare_peak = bare.solve().peak_silicon_c
        cooled_peak = deployed.solve(4.0).peak_silicon_c
        assert cooled_peak < bare_peak

    def test_excessive_current_overheats(self, small_deployed):
        """The over-current phenomenon of Section III: too much supply
        current heats the chip instead of cooling it."""
        optimum_region = small_deployed.solve(4.0).peak_silicon_c
        excessive = small_deployed.solve(60.0).peak_silicon_c
        assert excessive > optimum_region

    def test_tec_power_equation3(self, small_deployed):
        """P_TEC from the state matches r i^2 + alpha i dtheta summed."""
        current = 5.0
        state = small_deployed.solve(current)
        device = small_deployed.device
        cold, hot = state.tec_face_temperatures_k()
        expected = sum(
            device.electrical_resistance * current**2
            + device.seebeck * current * (th - tc)
            for tc, th in zip(cold, hot)
        )
        assert state.tec_input_power_w() == pytest.approx(expected)

    def test_tec_power_zero_at_zero_current(self, small_deployed):
        assert small_deployed.solve(0.0).tec_input_power_w() == pytest.approx(0.0)

    def test_energy_balance_with_tec(self, small_deployed):
        """Convected heat = chip power + TEC input power (Section III)."""
        current = 5.0
        state = small_deployed.solve(current)
        net = small_deployed.network
        flux = sum(
            g * (state.theta_k[node] - 318.15)
            for node, g in net.ground_items()
        )
        expected = small_deployed.total_chip_power_w + state.tec_input_power_w()
        assert flux == pytest.approx(expected, rel=1e-9)

    def test_runaway_current_finite_with_tecs(self, small_deployed):
        lam = small_deployed.runaway_current().value
        assert 0.0 < lam < math.inf

    def test_runaway_current_infinite_without_tecs(self, small_model):
        assert math.isinf(small_model.runaway_current().value)

    def test_runaway_methods_agree(self, small_deployed):
        eigen = small_deployed.runaway_current(method="eigen").value
        search = small_deployed.runaway_current(
            method="binary-search", tolerance=1e-9
        ).value
        assert search == pytest.approx(eigen, rel=1e-6)

    def test_eigen_takes_no_options(self, small_deployed):
        with pytest.raises(TypeError, match="tolerance"):
            small_deployed.runaway_current(method="eigen", tolerance=1e-9)

    def test_runaway_eigenpair_kept(self, small_deployed):
        pair = small_deployed.runaway_eigenpair()
        assert small_deployed.runaway_solved
        assert small_deployed.runaway_eigenpair() is pair
        assert small_deployed.runaway_current() is pair[0]


class TestThermalState:
    def test_grid_view_shape(self, small_model):
        assert small_model.solve().silicon_grid_c.shape == (4, 4)

    def test_peak_consistency(self, small_model):
        state = small_model.solve()
        assert state.peak_silicon_c == pytest.approx(float(np.max(state.silicon_grid_c)))
        assert state.silicon_c[state.peak_tile] == pytest.approx(state.peak_silicon_c)

    def test_temperature_c_per_node(self, small_model):
        state = small_model.solve()
        node = small_model.silicon_nodes[3]
        assert state.temperature_c(node) == pytest.approx(state.silicon_c[3])

    def test_face_temperatures_empty_without_tecs(self, small_model):
        cold, hot = small_model.solve().tec_face_temperatures_k()
        assert cold.size == 0 and hot.size == 0


class TestDegenerateGeometries:
    def test_no_overhang_package(self, small_power):
        """Spreader/sink exactly die-sized: no periphery nodes."""
        from repro.thermal.materials import COPPER
        from repro.thermal.stack import Layer, PackageStack

        grid = TileGrid(4, 4)
        stack = PackageStack(
            spreader=Layer("spreader", COPPER, thickness=1e-3, side=grid.width),
            sink=Layer("sink", COPPER, thickness=6.9e-3, side=grid.width),
        )
        model = PackageThermalModel(grid, small_power, stack=stack)
        assert model.num_nodes == 4 * 16
        state = model.solve()
        assert np.all(np.isfinite(state.silicon_c))

    def test_sink_overhang_only(self, small_power):
        """Spreader die-sized but sink larger: outer ring couples to
        the sink edge tiles directly."""
        from repro.thermal.materials import COPPER
        from repro.thermal.stack import Layer, PackageStack

        grid = TileGrid(4, 4)
        stack = PackageStack(
            spreader=Layer("spreader", COPPER, thickness=1e-3, side=grid.width),
            sink=Layer("sink", COPPER, thickness=6.9e-3, side=3 * grid.width),
        )
        model = PackageThermalModel(grid, small_power, stack=stack)
        assert model.num_nodes == 4 * 16 + 4  # four outer ring nodes
        assert np.all(np.isfinite(model.solve().silicon_c))

    def test_single_tile_grid(self):
        model = PackageThermalModel(TileGrid(1, 1), np.array([0.5]))
        assert np.isfinite(model.solve().peak_silicon_c)

    def test_custom_device(self, small_grid, small_power):
        device = TecDeviceParameters(seebeck=1e-4)
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5,), device=device
        )
        assert model.system.d_diagonal[model.hot_nodes[0]] == pytest.approx(1e-4)


class TestNetworkBlueprint:
    """Incremental assembly must be indistinguishable from a rebuild."""

    @pytest.fixture(scope="class")
    def blueprint(self, small_grid, small_power):
        return PackageThermalModel(small_grid, small_power).network_blueprint()

    @pytest.mark.parametrize(
        "tiles", [(), (5,), (5, 6), (5, 6, 9, 10), tuple(range(16))]
    )
    def test_replay_matches_scratch_build(self, small_grid, small_power,
                                          blueprint, tiles):
        scratch = PackageThermalModel(small_grid, small_power, tec_tiles=tiles)
        replayed = PackageThermalModel(
            small_grid, small_power, tec_tiles=tiles, blueprint=blueprint
        )
        assert np.array_equal(
            scratch.system.g_matrix.toarray(), replayed.system.g_matrix.toarray()
        )
        assert np.array_equal(scratch.system.d_diagonal, replayed.system.d_diagonal)
        assert np.array_equal(scratch.system.p_base, replayed.system.p_base)
        assert np.array_equal(scratch.system.joule, replayed.system.joule)
        assert [n.name for n in scratch.network.nodes] == [
            n.name for n in replayed.network.nodes
        ]
        assert len(scratch.stamps) == len(replayed.stamps)
        for a, b in zip(scratch.stamps, replayed.stamps):
            assert (a.tile, a.hot_node, a.cold_node) == (b.tile, b.hot_node, b.cold_node)

    def test_replayed_model_solves_identically(self, small_grid, small_power,
                                               blueprint):
        tiles = (5, 6, 9, 10)
        scratch = PackageThermalModel(small_grid, small_power, tec_tiles=tiles)
        replayed = PackageThermalModel(
            small_grid, small_power, tec_tiles=tiles, blueprint=blueprint
        )
        state_a = scratch.solve(2.0)
        state_b = replayed.solve(2.0)
        assert np.array_equal(state_a.theta_k, state_b.theta_k)

    def test_build_counters(self, small_grid, small_power, blueprint):
        from repro.thermal.session import SolverStats

        stats = SolverStats()
        PackageThermalModel(
            small_grid, small_power, tec_tiles=(5,), blueprint=blueprint,
            solver_stats=stats,
        )
        assert stats.incremental_builds == 1
        assert stats.full_builds == 0
        PackageThermalModel(small_grid, small_power, solver_stats=stats)
        assert stats.full_builds == 1
