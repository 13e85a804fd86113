"""2.5D chiplet layouts: composite grids, models, and the reference.

Three pillars of the chiplet generalization:

* ``CompositeGrid`` indexing invariants as hypothesis properties —
  every downstream consumer (power maps, deployments, lattice
  extraction) leans on the global-flat <-> (chiplet, row, col) <->
  bounding-lattice correspondences;
* the differential gate: ``CompositeThermalModel`` against the
  independently assembled ``ReferenceChipletModel`` to <= 1e-6 K;
* the single-die identity: one network builder stamps every package,
  so a one-chiplet ``ChipletLayout`` at the origin without an
  interposer gives a composite problem whose blueprint and assembled
  arrays are *bitwise* those of ``PackageThermalModel`` on the
  chiplet's grid;
* near runaway on a chiplet package: ``reuse`` and ``mg`` agree with
  ``direct`` up to 0.999 ``lambda_m`` and all three refuse past it.

One grouping of tiles per chiplet
(``ChipletLayout.tiles_by_chiplet``) backs a deployment's report, the
composite model's view and the per-chiplet pin groups.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import CoolingSystemProblem
from repro.power.maps import compose_chiplet_power
from repro.thermal.chiplet import (
    ChipletLayout,
    ChipletSpec,
    InterposerSpec,
    demo_two_chiplet_layout,
    grown_default_stack,
    layout_from_plain,
)
from repro.thermal.geometry import CompositeGrid, TileGrid
from repro.thermal import session
from repro.thermal.model import CompositeThermalModel, PackageThermalModel
from repro.thermal.reference import ReferenceChipletModel
from tests.thermal.test_assembly_digests import digest


def _row_of_chiplets(draw):
    """Hypothesis helper: 1-3 non-overlapping grids left to right."""
    count = draw(st.integers(min_value=1, max_value=3))
    grids, origins = [], []
    col = 0
    for index in range(count):
        rows = draw(st.integers(min_value=1, max_value=4))
        cols = draw(st.integers(min_value=1, max_value=4))
        row0 = draw(st.integers(min_value=0, max_value=2))
        gap = draw(st.integers(min_value=0, max_value=2)) if index else 0
        col += gap
        grids.append(TileGrid(rows, cols))
        origins.append((row0, col))
        col += cols
    return CompositeGrid(grids=tuple(grids), origins=tuple(origins))


@st.composite
def _composites(draw):
    return _row_of_chiplets(draw)


class TestCompositeGridProperties:
    @given(composite=_composites())
    @settings(max_examples=40, deadline=None)
    def test_global_flat_round_trip(self, composite):
        for flat in range(composite.num_tiles):
            chiplet, row, col = composite.locate(flat)
            assert composite.global_index(chiplet, row, col) == flat
            assert composite.chiplet_of(flat) == chiplet

    @given(composite=_composites())
    @settings(max_examples=40, deadline=None)
    def test_blocks_are_contiguous_and_partition(self, composite):
        stops = []
        for chiplet in range(composite.num_chiplets):
            block = composite.block_slice(chiplet)
            assert block.stop - block.start == composite.grids[chiplet].num_tiles
            stops.append((block.start, block.stop))
        assert stops[0][0] == 0
        for (_, stop), (start, _) in zip(stops, stops[1:]):
            assert start == stop
        assert stops[-1][1] == composite.num_tiles

    @given(composite=_composites())
    @settings(max_examples=40, deadline=None)
    def test_lattice_indices_unique_and_in_range(self, composite):
        lattice = composite.occupied_lattice_tiles()
        assert len(set(lattice.tolist())) == composite.num_tiles
        assert lattice.min() >= 0
        assert lattice.max() < composite.rows * composite.cols

    @given(composite=_composites())
    @settings(max_examples=40, deadline=None)
    def test_to_grid_round_trip(self, composite):
        values = np.arange(composite.num_tiles, dtype=float)
        board = composite.to_grid(values)
        assert board.shape == (composite.rows, composite.cols)
        assert np.count_nonzero(~np.isnan(board)) == composite.num_tiles
        assert np.array_equal(
            board.flat[composite.occupied_lattice_tiles()], values
        )

    @given(rows=st.integers(1, 5), cols=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_single_chiplet_matches_tile_grid(self, rows, cols):
        grid = TileGrid(rows, cols)
        composite = CompositeGrid(grids=(grid,), origins=((0, 0),))
        assert composite.rows == rows and composite.cols == cols
        for flat, r, c in grid.iter_tiles():
            assert composite.locate(flat) == (0, r, c)
            assert composite.lattice_index(flat) == flat
            assert composite.row_col(flat) == (r, c)
            assert composite.tile_center(r, c) == grid.tile_center(r, c)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            CompositeGrid(
                grids=(TileGrid(2, 2), TileGrid(2, 2)),
                origins=((0, 0), (1, 1)),
            )

    def test_rejects_mixed_pitch(self):
        with pytest.raises(ValueError):
            CompositeGrid(
                grids=(TileGrid(2, 2), TileGrid(2, 2, tile_width=1e-3)),
                origins=((0, 0), (0, 4)),
            )


class TestComposePower:
    def test_scalars_split_evenly(self):
        composite = CompositeGrid(
            grids=(TileGrid(2, 2), TileGrid(1, 2)), origins=((0, 0), (0, 3))
        )
        power = compose_chiplet_power(composite, [8.0, 3.0])
        assert np.allclose(power[:4], 2.0)
        assert np.allclose(power[4:], 1.5)

    def test_vectors_concatenate_in_block_order(self):
        composite = CompositeGrid(
            grids=(TileGrid(1, 2), TileGrid(1, 2)), origins=((0, 0), (0, 3))
        )
        power = compose_chiplet_power(
            composite, [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        )
        assert np.array_equal(power, [1.0, 2.0, 3.0, 4.0])

    def test_rejects_wrong_length(self):
        composite = CompositeGrid(grids=(TileGrid(2, 2),), origins=((0, 0),))
        with pytest.raises(ValueError):
            compose_chiplet_power(composite, [np.ones(3)])


class TestLayoutValidation:
    def test_duplicate_names_rejected(self):
        spec = ChipletSpec("a", TileGrid(2, 2), 1.0)
        other = ChipletSpec("a", TileGrid(2, 2), 1.0, col_offset=4)
        with pytest.raises(ValueError):
            ChipletLayout((spec, other), stack=grown_default_stack(5e-3, 5e-3))

    def test_undersized_spreader_rejected(self):
        # 40 x 40 tiles = 20 mm exceeds the default 18 mm spreader; the
        # old code silently produced negative periphery resistances.
        with pytest.raises(ValueError):
            ChipletLayout((ChipletSpec("big", TileGrid(40, 40), 10.0),))

    def test_layout_from_plain_grows_default_stack(self):
        layout = layout_from_plain(((40, 40, 0, 0, 10.0),))
        assert layout.stack.spreader.side >= 1.5 * 20e-3

    def test_single_die_detection(self):
        """Only the one chiplet at the origin without an interposer is
        the single die: an offset or an interposer changes the network."""
        grid = TileGrid(4, 4)
        stack = grown_default_stack(3e-3, 2e-3)

        def composite(col_offset=0, interposer=None):
            spec = ChipletSpec("die", grid, 5.0, col_offset=col_offset)
            return CompositeThermalModel(
                ChipletLayout((spec,), stack=stack, interposer=interposer)
            )

        single = digest(PackageThermalModel(
            grid, np.full(grid.num_tiles, 5.0 / grid.num_tiles), stack=stack
        ))
        assert digest(composite()) == single
        assert digest(composite(col_offset=1)) != single
        assert digest(composite(interposer=InterposerSpec())) != single


class TestChipletDifferential:
    """The acceptance gate: composite vs the independent reference."""

    @pytest.mark.parametrize(
        "layout",
        [
            demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0),
            demo_two_chiplet_layout(
                rows=4, cols=4, gap=2, power_w=8.0,
                interposer=InterposerSpec(board_resistance=2.0),
            ),
            layout_from_plain(
                ((3, 5, 0, 0, 6.0), (2, 2, 1, 7, 9.0)), interposer=True
            ),
            layout_from_plain(((4, 4, 0, 0, 8.0), (4, 4, 0, 6, 8.0)),
                              interposer=False),
        ],
        ids=["demo", "board", "asymmetric", "no-interposer"],
    )
    def test_agrees_with_reference_to_1e6_kelvin(self, layout):
        model = CompositeThermalModel(layout)
        reference = ReferenceChipletModel(layout)
        state = model.solve(0.0)
        assert model.num_nodes == reference.num_nodes
        assert state.peak_silicon_c == pytest.approx(
            reference.peak_tile_temperature_c(), abs=1.0e-6
        )
        assert np.max(
            np.abs(state.silicon_c - reference.tile_temperatures_c())
        ) <= 1.0e-6

    def test_interposer_couples_chiplets(self):
        # Heat only chiplet0; with the interposer, chiplet1 must warm
        # up strictly more than without it.
        plain = ((3, 3, 0, 0, 9.0), (3, 3, 0, 5, 0.0))
        coupled = CompositeThermalModel(
            layout_from_plain(plain, interposer=True)
        ).solve(0.0)
        uncoupled = CompositeThermalModel(
            layout_from_plain(plain, interposer=False)
        ).solve(0.0)
        other = list(range(9, 18))
        assert np.max(coupled.silicon_c[other]) > np.max(
            uncoupled.silicon_c[other]
        )
        # And the hot chiplet runs cooler with the extra exit path.
        assert coupled.peak_silicon_c < uncoupled.peak_silicon_c


def _assert_bitwise_equal(left, right, path):
    """Walk two objects field by field; every array must match bit for
    bit (dtype, shape and bytes), every other leaf by ``==``."""
    assert type(left) is type(right), path
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, path
        assert left.shape == right.shape, path
        if left.dtype == object:
            assert left.tolist() == right.tolist(), path
        else:
            assert left.tobytes() == right.tobytes(), path
    elif isinstance(left, dict):
        assert list(left) == list(right), path
        for key in left:
            _assert_bitwise_equal(left[key], right[key], "{}[{!r}]".format(path, key))
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            _assert_bitwise_equal(a, b, "{}[{}]".format(path, index))
    elif hasattr(left, "__dict__") and not isinstance(left, type):
        _assert_bitwise_equal(vars(left), vars(right), path)
    else:
        assert left == right, path


class TestSingleDieIdentity:
    """A one-chiplet layout at the origin is a composite problem built
    by the one network builder: bit for bit the single-die package."""

    def test_bitwise_identical_blueprint_and_matrices(self):
        grid = TileGrid(5, 4)
        power = np.linspace(0.1, 2.0, grid.num_tiles)
        layout = ChipletLayout(
            (ChipletSpec("die", grid, tuple(power)),)
        )
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        for tiles in ((), (0, 7, 13), tuple(range(grid.num_tiles))):
            composite = problem.model(tiles)
            package = PackageThermalModel(
                grid, power, stack=layout.stack, tec_tiles=tiles
            )
            assert type(composite) is CompositeThermalModel
            assert digest(composite) == digest(package), tiles
        _assert_bitwise_equal(
            problem.model(()).network_blueprint(),
            PackageThermalModel(grid, power).network_blueprint(),
            "blueprint",
        )

    def test_problem_keeps_the_layout(self):
        layout = ChipletLayout((ChipletSpec("die", TileGrid(4, 4), 5.0),))
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        assert problem.layout is layout
        assert problem.model((3,)).tiles_by_chiplet() == {"die": (3,)}


class TestCompositeModel:
    @pytest.fixture(scope="class")
    def layout(self):
        return demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)

    def test_blueprint_replay_bitwise(self, layout):
        base = CompositeThermalModel(layout)
        blueprint = base.network_blueprint()
        replayed = CompositeThermalModel(
            layout, tec_tiles=(0, 5, 17), blueprint=blueprint
        )
        fresh = CompositeThermalModel(layout, tec_tiles=(0, 5, 17))
        assert np.array_equal(
            replayed.system.g_matrix.toarray(),
            fresh.system.g_matrix.toarray(),
        )
        assert np.array_equal(replayed.system.p_base, fresh.system.p_base)
        assert np.array_equal(
            replayed.system.d_diagonal, fresh.system.d_diagonal
        )

    def test_tec_stamping_uses_global_indices(self, layout):
        model = CompositeThermalModel(layout, tec_tiles=(0, 17))
        assert [stamp.tile for stamp in model.stamps] == [0, 17]
        grouped = model.tiles_by_chiplet()
        assert grouped == {"chiplet0": (0,), "chiplet1": (17,)}

    def test_mg_backend_matches_direct(self, layout):
        direct = CompositeThermalModel(layout, solver_mode="direct")
        mg = CompositeThermalModel(layout, solver_mode="mg")
        assert mg.solve(0.0).peak_silicon_c == pytest.approx(
            direct.solve(0.0).peak_silicon_c, abs=1.0e-6
        )

    def test_transient_runs_on_composite(self, layout):
        from repro.thermal.transient import TransientSimulator, node_capacitances

        model = CompositeThermalModel(layout)
        capacitance = node_capacitances(model)
        assert np.all(capacitance > 0.0)
        # Interposer nodes carry the slab capacitance, not the floor.
        from repro.thermal.network import NodeRole

        itp = [
            index for index, node in enumerate(model.network.nodes)
            if node.role is NodeRole.INTERPOSER
        ]
        assert itp and np.all(capacitance[itp] > 1.0e-6)
        trace = TransientSimulator(model, dt=1e-3, rom="off").run(5)
        assert trace.shape == (5,)
        assert np.all(np.isfinite(trace))


class TestGreedyPerChiplet:
    def test_deploy_places_tecs_in_every_hot_chiplet(self):
        layout = demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        assert problem.layout is layout
        result = problem.deploy()
        assert result.feasible
        grouped = result.tiles_by_chiplet()
        assert set(grouped) == {"chiplet0", "chiplet1"}
        assert all(len(tiles) > 0 for tiles in grouped.values())
        first = layout.chiplet_tiles(0)
        assert all(t in first for t in grouped["chiplet0"])

    def test_per_chiplet_currents(self):
        from repro.core.multipin import chiplet_groups, optimize_pin_groups

        layout = demo_two_chiplet_layout(rows=3, cols=3, gap=2, power_w=7.0)
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        model = problem.model(tuple(range(model_tiles := 18)))
        groups = chiplet_groups(model)
        assert [len(g) for g in groups] == [9, 9]
        result = optimize_pin_groups(model, groups=groups, max_sweeps=1)
        assert result.peak_c <= result.shared_peak_c + 1.0e-6


class TestOneChipletGrouping:
    def test_the_three_groupings_agree(self):
        """A deployment's report, the composite model's view and the
        per-chiplet pin groups are one grouping of the same tiles."""
        from repro.core.multipin import chiplet_groups

        layout = demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        result = problem.deploy()
        tiles = (0, 5, 15, 16, 17, 31)
        grouped = layout.tiles_by_chiplet(reversed(tiles))
        assert grouped == {"chiplet0": (0, 5, 15), "chiplet1": (16, 17, 31)}
        assert result.tiles_by_chiplet() == layout.tiles_by_chiplet(
            result.tec_tiles
        )
        assert result.model.tiles_by_chiplet() == result.tiles_by_chiplet()
        model = problem.model(tiles)
        assert model.tiles_by_chiplet() == grouped
        assert model.tiles_by_chiplet((16,)) == {
            "chiplet0": (), "chiplet1": (16,),
        }
        device_tiles = [
            tuple(model.stamps[j].tile for j in group)
            for group in chiplet_groups(model)
        ]
        assert device_tiles == list(grouped.values())
        lone = problem.model((17,))
        assert [
            [lone.stamps[j].tile for j in group]
            for group in chiplet_groups(lone)
        ] == [[17]]


class TestNearRunawayDifferential:
    """``reuse`` and ``mg`` against ``direct`` toward ``lambda_m`` on a
    two-chiplet package at its greedy deployment (all 32 tiles).

    The system's condition grows like ``1 / (1 - i / lambda_m)``, so the
    bounds are machine-relative: ``1e3 eps / (1 - f)`` of the peak (the
    factorized backends measured at most ~250), and no tighter than
    the CG target for ``mg``.
    """

    FRACTIONS = (0.5, 0.95, 0.99, 0.999)

    @pytest.fixture(scope="class")
    def models(self):
        layout = demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)
        problem = CoolingSystemProblem.from_chiplet_layout(layout)
        tiles = problem.deploy().tec_tiles
        assert len(tiles) == 32
        return {
            mode: problem.with_solver_mode(mode).model(tiles)
            for mode in ("direct", "reuse", "mg")
        }

    @pytest.mark.parametrize("mode", ["reuse", "mg"])
    def test_agrees_with_direct_toward_runaway(self, models, mode):
        lam = models["direct"].runaway_current().value
        model = models[mode]
        fallbacks = model.solver.stats.mg_fallbacks
        eps = np.finfo(float).eps
        for fraction in self.FRACTIONS:
            reference = models["direct"].solver.solve(fraction * lam)
            theta = model.solver.solve(fraction * lam)
            bound = 1e3 * eps / (1.0 - fraction)
            if mode == "mg":
                bound = max(bound, session.MG_RTOL)
            error = np.max(np.abs(theta - reference))
            assert error <= bound * np.max(np.abs(reference)), fraction
        assert model.solver.stats.mg_fallbacks == fallbacks

    @pytest.mark.parametrize("mode", ["direct", "reuse", "mg"])
    @pytest.mark.parametrize("fraction", [1.01, 1.5])
    def test_every_backend_refuses_past_runaway(self, models, mode, fraction):
        model = models[mode]
        current = fraction * model.runaway_current().value
        with pytest.raises(session.SingularSystemError, match="runaway"):
            model.solver.solve(current)
