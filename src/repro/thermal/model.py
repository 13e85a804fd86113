"""The package-level compact thermal model (Section IV).

:class:`PackageThermalModel` assembles the full chip package — silicon
tiles, TIM (or TEC devices where deployed), heat spreader with
periphery, heat sink with periphery, and convection to ambient — into
the nodal system ``(G - i D) theta = p(i)`` and exposes steady-state
solves, runaway-current computation and TEC power accounting.

The layered construction mirrors HotSpot's grid model:

* every conduction layer over the die footprint is dissected into the
  same ``p x q`` tile grid; vertical conductances combine the facing
  half-layer resistances in series;
* the spreader's overhang beyond the die is modeled with four
  peripheral nodes (one per side), the sink's overhang with four inner
  (over the spreader overhang) and four outer (beyond the spreader)
  peripheral nodes;
* convection is distributed over the sink nodes by footprint area.

One builder stamps every package: a 2.5D chiplet layout
(:class:`CompositeThermalModel`), and a single die as the one-chiplet
layout at the origin of its own lattice, without an interposer.

Models are immutable once built: changing the TEC deployment creates a
new model (:meth:`PackageThermalModel.with_tec_tiles`), which keeps the
greedy algorithm's bookkeeping trivial and the solver caches valid.
"""

from __future__ import annotations

import time

import numpy as np

from repro.linalg.runaway import runaway_current as _runaway_current
from repro.tec.materials import chowdhury_thin_film_tec
from repro.tec.stamp import TecStampBlock
from repro.thermal.assembly import NetworkBlueprint, assemble
from repro.thermal.chiplet import ChipletLayout
from repro.thermal.geometry import CompositeGrid, TileGrid
from repro.thermal.network import NodeLabels, NodeRole
from repro.thermal.session import SolveSession, SolverStats
from repro.thermal.stack import PackageStack
from repro.utils import check_finite, kelvin_to_celsius

_SIDES = ("north", "east", "south", "west")


def _lateral(layer, grid, east):
    """Per-pair lateral conductance of ``layer`` over the pairs of
    :meth:`~repro.thermal.geometry.TileGrid.lateral_pair_arrays`."""
    return np.where(
        east,
        layer.lateral_conductance(grid.tile_height, grid.tile_width),
        layer.lateral_conductance(grid.tile_width, grid.tile_height),
    )


class ThermalState:
    """A solved steady state of a :class:`PackageThermalModel`.

    Wraps the nodal temperature vector (Kelvin) with convenience views;
    reporting methods return Celsius, matching the paper's tables.
    """

    def __init__(self, model, current, theta_k):
        self.model = model
        self.current = float(current)
        self.theta_k = np.asarray(theta_k, dtype=float)

    @property
    def silicon_k(self):
        """Per-tile silicon temperatures (Kelvin), flat row-major."""
        return self.theta_k[self.model.silicon_nodes]

    @property
    def silicon_c(self):
        """Per-tile silicon temperatures (Celsius), flat row-major."""
        return kelvin_to_celsius(self.silicon_k)

    @property
    def silicon_grid_c(self):
        """Silicon temperatures as a ``(rows, cols)`` Celsius array."""
        return self.model.grid.to_grid(self.silicon_c)

    @property
    def peak_silicon_c(self):
        """The paper's ``theta_peak``: hottest silicon tile, Celsius."""
        return float(np.max(self.silicon_c))

    @property
    def peak_tile(self):
        """Flat index of the hottest silicon tile."""
        return int(np.argmax(self.silicon_k))

    def temperature_c(self, node):
        """Temperature of an arbitrary network node in Celsius."""
        return float(kelvin_to_celsius(self.theta_k[node]))

    def tec_face_temperatures_k(self):
        """``(theta_c, theta_h)`` arrays over deployed devices (Kelvin).

        Ordered like ``model.stamps``; empty arrays when no TEC is
        deployed.
        """
        cold = self.theta_k[self.model.cold_nodes] if self.model.cold_nodes else np.array([])
        hot = self.theta_k[self.model.hot_nodes] if self.model.hot_nodes else np.array([])
        return cold, hot

    def tec_input_power_w(self):
        """Total electrical TEC power at this state (Equation 3 summed).

        This is the ``P_TEC`` column of Table I.
        """
        if not self.model.stamps:
            return 0.0
        cold, hot = self.tec_face_temperatures_k()
        device = self.model.device
        i = self.current
        joule = device.electrical_resistance * i * i * len(self.model.stamps)
        peltier = device.seebeck * i * float(np.sum(hot - cold))
        return joule + peltier


class PackageThermalModel:
    """Compact thermal model of a chip package with optional TECs.

    Parameters
    ----------
    grid:
        The silicon :class:`~repro.thermal.geometry.TileGrid`.
    power_map:
        Worst-case power per tile (W), flat row-major, length
        ``grid.num_tiles``, non-negative.
    stack:
        :class:`~repro.thermal.stack.PackageStack`; defaults to the
        calibrated package of DESIGN.md.
    tec_tiles:
        Iterable of flat tile indices covered by TEC devices (the
        paper's ``S_TEC``).  May be empty.
    device:
        :class:`~repro.tec.materials.TecDeviceParameters`; defaults to
        the calibrated thin-film device.  The tile footprint must match
        the device footprint (Problem 1 assumes tiles the size of one
        device).
    blueprint:
        Optional :class:`~repro.thermal.assembly.NetworkBlueprint`
        recorded from a sibling model (same grid/stack/device/powers):
        the network is then replayed incrementally instead of rebuilt
        from scratch — bitwise-identical matrices, a fraction of the
        build cost.  Obtain one via :meth:`network_blueprint`.
    solver_mode:
        Backend of the model's :class:`~repro.thermal.session.SolveSession`
        — any of :data:`~repro.thermal.session.SOLVER_MODES`
        (``"direct"``, ``"reuse"``, ``"mg"``, ``"auto"``; ``auto``
        resolves per system to reuse, direct or mg, see
        :func:`~repro.thermal.session.select_backend`).  Fixed for the
        model's lifetime; :attr:`solver` is the session's zero-shift
        view.
    solver_stats:
        Optional shared :class:`~repro.thermal.session.SolverStats` that
        build and solve instrumentation is reported into.
    """

    #: Effective-length factor for conduction into the lumped overhang
    #: rings; < 0.5 because heat fans out in two dimensions on its way
    #: into the ring.  Calibrated once against the fine-grid reference.
    SPREADING_FACTOR = 0.2

    #: The interposer the builder stamps under the chiplets
    #: (:class:`~repro.thermal.chiplet.InterposerSpec`); a single die
    #: sits on its package stack alone.
    _interposer = None

    def __init__(
        self,
        grid,
        power_map,
        *,
        stack=None,
        tec_tiles=(),
        device=None,
        die_conductivity_scale=None,
        blueprint=None,
        solver_mode="direct",
        solver_stats=None,
    ):
        if not isinstance(grid, TileGrid):
            raise TypeError("grid must be a TileGrid, got {!r}".format(type(grid)))
        self.grid = grid
        # The builder stamps chiplet layouts; a single die is the one
        # chiplet at the origin of its own lattice.
        self._chiplets = CompositeGrid((grid,), ((0, 0),))
        self._init_package(
            power_map, stack, tec_tiles, device, die_conductivity_scale,
            blueprint, solver_mode, solver_stats,
        )

    def _init_package(self, power_map, stack, tec_tiles, device,
                      die_conductivity_scale, blueprint, solver_mode,
                      solver_stats):
        """Validate the inputs over :attr:`grid`, build the network and
        boot the solve engine.

        Shared by both constructors, so both model kinds ride one
        build/assemble/solver pipeline.  There is one build path:
        without a ``blueprint`` the model records its own
        (:meth:`network_blueprint`) and instantiates that.
        """
        grid = self.grid
        self.stack = stack if stack is not None else PackageStack()
        self.device = device if device is not None else chowdhury_thin_film_tec()
        power_map = check_finite(power_map, "power_map")
        if power_map.shape != (grid.num_tiles,):
            raise ValueError(
                "power_map must have length {}, got shape {}".format(
                    grid.num_tiles, power_map.shape
                )
            )
        if np.any(power_map < 0.0):
            raise ValueError("power_map entries must be non-negative")
        self.power_map = power_map.copy()

        tec_tiles = sorted({int(t) for t in tec_tiles})
        for tile in tec_tiles:
            if not 0 <= tile < grid.num_tiles:
                raise IndexError(
                    "TEC tile {} out of range [0, {})".format(tile, grid.num_tiles)
                )
        self.tec_tiles = tuple(tec_tiles)

        if die_conductivity_scale is None:
            self._die_k_scale = None
        else:
            scale = check_finite(die_conductivity_scale, "die_conductivity_scale")
            if scale.shape != (grid.num_tiles,):
                raise ValueError(
                    "die_conductivity_scale must have length {}, got shape {}".format(
                        grid.num_tiles, scale.shape
                    )
                )
            if np.any(scale <= 0.0):
                raise ValueError("die_conductivity_scale entries must be positive")
            self._die_k_scale = scale.copy()

        self.stack.validate_footprints(grid.width, grid.height)

        stats = solver_stats if solver_stats is not None else SolverStats()
        self._blueprint = blueprint
        self._recording = None
        self._runaway_eigenpair = None
        build_start = time.perf_counter()
        if blueprint is None:
            blueprint = self.network_blueprint()
            stats.full_builds += 1
        else:
            stats.incremental_builds += 1
        self.network, self.stamps = blueprint.instantiate(
            self.tec_tiles, die_conductivity_scale=self._die_k_scale
        )
        self.system = assemble(
            self.network,
            self.stack.ambient_c,
            grid_shape=(grid.rows, grid.cols),
        )
        stats.assembly_time_s += time.perf_counter() - build_start
        self.solver = SolveSession(
            self.system, mode=solver_mode, stats=stats
        ).view(None)

        self.silicon_nodes = self.network.indices_with_role(NodeRole.SILICON)
        self.hot_nodes = [stamp.hot_node for stamp in self.stamps]
        self.cold_nodes = [stamp.cold_node for stamp in self.stamps]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def network_blueprint(self):
        """This model's :class:`~repro.thermal.assembly.NetworkBlueprint`.

        The blueprint records the deployment-independent network (every
        TIM tile present, die conductances unscaled) plus one TEC stamp
        row per tile; sibling models for *any* deployment and any die
        conductivity scale of the same grid/stack/device/powers
        instantiate from it (see ``blueprint=`` in the constructor).
        Recorded once per model and cached.
        """
        if self._recording is None:
            self._recording = self._record()
        return self._recording

    def _record(self):
        bp = NetworkBlueprint()
        self._build_periphery(bp.network, *self._build_core(bp))
        return bp

    def _build_core(self, bp):
        """Nodes, sources, layer conduction and stamp rows of the stack.

        Per chiplet: silicon tiles with their power sources, TIM tiles,
        lateral die/TIM conduction, and the per-tile vertical chain die
        -> TIM -> spreader.  Shared over the chiplets' bounding
        lattice: the interposer, when there is one (with microbump
        links up to each chiplet tile and optional TSV/board leakage),
        and the spreader and sink layers with lateral conduction across
        chiplets and gaps.  A single die is one chiplet filling its own
        lattice.  Silicon and TIM are indexed by global flat tile
        (labels ``die[k]``/``tim[k]``, the chiplet index in node meta),
        the shared layers by lattice flat; node ``tile`` meta is the
        lattice placement and the TIM nodes' ``cover_tile`` the global
        tile whose TEC displaces them.

        Records into ``bp`` with every TIM tile present (coverage is
        applied at instantiation) and the die conductances unscaled
        (tagged, so instantiation applies any scale field), and marks
        the stamp section.  Returns the spreader and sink node arrays
        and the lattice they are indexed by.
        """
        net = bp.network
        chiplets = self._chiplets
        interposer = self._interposer
        lattice_grid = chiplets.bounding_grid()
        die, tim, spreader, sink = self.stack.conduction_layers()
        tile_area = chiplets.tile_area
        n = chiplets.num_tiles
        flat = np.arange(n)
        lattice = np.arange(lattice_grid.num_tiles)
        lattice_of = chiplets.occupied_lattice_tiles()
        chiplet_of = np.repeat(
            np.arange(chiplets.num_chiplets), [g.num_tiles for g in chiplets.grids]
        )

        silicon = net.add_nodes(
            NodeRole.SILICON, NodeLabels("die[{}]", flat),
            tile=lattice_of, chiplet=chiplet_of,
        )
        tim_nodes = net.add_nodes(
            NodeRole.TIM, NodeLabels("tim[{}]", flat),
            tile=lattice_of, cover_tile=flat, chiplet=chiplet_of,
        )
        interposer_nodes = None
        if interposer is not None:
            interposer_nodes = net.add_nodes(
                NodeRole.INTERPOSER, NodeLabels("itp[{}]", lattice), tile=lattice
            )
        spreader_nodes = net.add_nodes(
            NodeRole.SPREADER, NodeLabels("spr[{}]", lattice), tile=lattice
        )
        sink_nodes = net.add_nodes(
            NodeRole.SINK, NodeLabels("snk[{}]", lattice), tile=lattice
        )

        # Tile powers.
        powered = flat[self.power_map > 0.0]
        net.add_sources(silicon[powered], self.power_map[powered])

        # Lateral conduction: die and TIM within each chiplet only
        # (chiplets are physically separate islands of silicon).  Die
        # edges are tagged with their unscaled value: a per-tile
        # conductivity scale (two half-tiles in series -> harmonic
        # mean of the scales) is applied at instantiation.
        pairs = []
        for chiplet, cgrid in enumerate(chiplets.grids):
            offset = chiplets.block_offset(chiplet)
            a, b, east = cgrid.lateral_pair_arrays()
            pairs.append((offset + a, offset + b, _lateral(die, cgrid, east),
                          _lateral(tim, cgrid, east)))
        a, b, base, tim_lateral = (np.concatenate(column) for column in zip(*pairs))
        first = net.size("conductance")
        net.add_conductances(silicon[a], silicon[b], base)
        bp.tag_die_scale("die_lateral", first + np.arange(a.size), (a, b), base)
        # The shared layers across the whole lattice, gaps included —
        # this is the lateral interposer/spreader spreading that
        # couples the chiplets.
        shared_layers = [(spreader, spreader_nodes), (sink, sink_nodes)]
        if interposer_nodes is not None:
            shared_layers.insert(0, (interposer.layer(), interposer_nodes))
        la, lb, least = lattice_grid.lateral_pair_arrays()
        for layer, nodes in shared_layers:
            net.add_conductances(
                nodes[la], nodes[lb], _lateral(layer, lattice_grid, least)
            )
        # TIM pairs with a covered tile drop out at instantiation (a
        # deployed TEC replaces the whole TIM tile).
        net.add_conductances(tim_nodes[a], tim_nodes[b], tim_lateral)

        # Vertical conduction through the stack, one die -> TIM ->
        # spreader chain per tile.  The die generates its heat
        # internally, so its node-to-face resistance uses the
        # volume-average (t/3k) convention; the passive layers use the
        # usual mid-plane (t/2k) convention.  The microbump field links
        # each silicon tile down into the interposer, and spreader ->
        # sink spans the full lattice.
        tim_half = tim.vertical_half_resistance(tile_area)
        r_die_exit = die.vertical_generation_resistance(tile_area)
        g_tim_spr = 1.0 / (
            tim_half + spreader.vertical_half_resistance(tile_area)
        )
        g_spr_snk = 1.0 / (
            spreader.vertical_half_resistance(tile_area)
            + sink.vertical_half_resistance(tile_area)
        )
        chain = [
            (silicon, tim_nodes, np.full(n, 1.0 / (r_die_exit + tim_half))),
            (tim_nodes, spreader_nodes[lattice_of], np.full(n, g_tim_spr)),
        ]
        if interposer_nodes is not None:
            chain.append((
                silicon, interposer_nodes[lattice_of],
                np.full(n, interposer.microbump_conductance),
            ))
        first = net.size("conductance")
        net.add_conductances(
            *(np.column_stack(column).ravel() for column in zip(*chain))
        )
        bp.tag_die_scale(
            "die_tim", first + len(chain) * flat, flat, (r_die_exit, tim_half)
        )
        net.add_conductances(spreader_nodes, sink_nodes, g_spr_snk)

        # Optional lumped TSV/ball path from the interposer into the
        # board, distributed uniformly over the interposer tiles.
        if interposer_nodes is not None and interposer.board_resistance is not None:
            g_board = 1.0 / (interposer.board_resistance * lattice_grid.num_tiles)
            net.add_ground_conductances(interposer_nodes, g_board)

        # One TEC stamp row per tile (Figure 4).  The die-exit /
        # spreader-entry lumping resistances are carried in series with
        # the contacts so covered and uncovered tiles see the same
        # layer conventions.
        bp.mark_stamp_section(TecStampBlock(
            self.device,
            tiles=flat,
            node_tiles=lattice_of,
            silicon_nodes=silicon,
            spreader_nodes=spreader_nodes[lattice_of],
            cold_series=np.full(n, r_die_exit),
            hot_series=spreader.vertical_half_resistance(tile_area),
            cold_series_base=r_die_exit,
        ))
        return spreader_nodes, sink_nodes, lattice_grid

    def _build_periphery(self, net, spreader_nodes, sink_nodes, grid):
        """Spreader/sink overhang nodes and convection to ambient.

        ``grid`` is the lattice the spreader/sink node arrays are
        indexed by: the chiplets' bounding lattice, whose footprint the
        spreader covers (a single die's own grid).  Each ring side is
        one block.
        """
        stack = self.stack
        _, _, spreader, sink = stack.conduction_layers()

        die_w, die_h = grid.width, grid.height
        spr_side = spreader.side or max(die_w, die_h)
        snk_side = sink.side or spr_side
        spr_overhang_w = max(0.0, 0.5 * (spr_side - die_w))
        spr_overhang_h = max(0.0, 0.5 * (spr_side - die_h))
        snk_overhang = max(0.0, 0.5 * (snk_side - spr_side))

        # Trapezoidal footprints of the overhang regions (per side).
        def _trapezoid(inner_edge, outer_edge, depth):
            return 0.5 * (inner_edge + outer_edge) * depth

        spr_area = {}
        snk_inner_area = {}
        snk_outer_area = {}
        for side in _SIDES:
            horizontal = side in ("north", "south")
            inner_edge = die_w if horizontal else die_h
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            if overhang > 0.0:
                spr_area[side] = _trapezoid(inner_edge, spr_side, overhang)
                snk_inner_area[side] = spr_area[side]
            if snk_overhang > 0.0:
                snk_outer_area[side] = _trapezoid(spr_side, snk_side, snk_overhang)

        spr_periphery = {}
        snk_inner = {}
        snk_outer = {}
        for side in _SIDES:
            overhang = spr_overhang_h if side in ("north", "south") else spr_overhang_w
            if overhang > 0.0:
                spr_periphery[side] = net.add_node(
                    "spr.periphery.{}".format(side),
                    NodeRole.SPREADER_PERIPHERY,
                    area=spr_area[side],
                )
                snk_inner[side] = net.add_node(
                    "snk.inner.{}".format(side),
                    NodeRole.SINK_PERIPHERY,
                    area=snk_inner_area[side],
                )
            if snk_overhang > 0.0:
                snk_outer[side] = net.add_node(
                    "snk.outer.{}".format(side),
                    NodeRole.SINK_PERIPHERY,
                    area=snk_outer_area[side],
                )

        # Spreader edge tiles -> spreader periphery (lateral copper).
        # The effective conduction length into the overhang ring is
        # shortened by the SPREADING_FACTOR to account for the 2-D
        # fan-out the lumped ring cannot represent (calibrated against
        # the fine-grid reference; see thermal/validation.py).
        for side in _SIDES:
            if side not in spr_periphery:
                continue
            horizontal = side in ("north", "south")
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            pitch = grid.tile_height if horizontal else grid.tile_width
            face = grid.tile_width if horizontal else grid.tile_height
            distance = 0.5 * pitch + self.SPREADING_FACTOR * overhang
            tiles = np.asarray(grid.boundary_tiles(side))
            g = spreader.material.conductance(face * spreader.thickness, distance)
            net.add_conductances(
                spreader_nodes[tiles], np.full(tiles.size, spr_periphery[side]), g
            )

        # Sink edge tiles -> sink inner periphery (lateral in the sink).
        for side in _SIDES:
            if side not in snk_inner:
                continue
            horizontal = side in ("north", "south")
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            pitch = grid.tile_height if horizontal else grid.tile_width
            face = grid.tile_width if horizontal else grid.tile_height
            distance = 0.5 * pitch + self.SPREADING_FACTOR * overhang
            tiles = np.asarray(grid.boundary_tiles(side))
            g = sink.material.conductance(face * sink.thickness, distance)
            net.add_conductances(
                sink_nodes[tiles], np.full(tiles.size, snk_inner[side]), g
            )

        # Vertical: spreader periphery -> sink inner periphery.
        for side, area in spr_area.items():
            g = 1.0 / (
                spreader.vertical_half_resistance(area)
                + sink.vertical_half_resistance(area)
            )
            net.add_conductance(spr_periphery[side], snk_inner[side], g)

        # Lateral: sink inner periphery -> sink outer periphery.
        for side in _SIDES:
            if side not in snk_outer:
                continue
            if side in snk_inner:
                horizontal = side in ("north", "south")
                overhang = spr_overhang_h if horizontal else spr_overhang_w
                distance = self.SPREADING_FACTOR * (overhang + snk_overhang)
                face = spr_side
                g = sink.material.conductance(face * sink.thickness, distance)
                net.add_conductance(snk_inner[side], snk_outer[side], g)
            else:
                # Degenerate: spreader no larger than the die — couple
                # the outer ring straight to the sink edge tiles.
                tiles = np.asarray(grid.boundary_tiles(side))
                face = (
                    grid.tile_width
                    if side in ("north", "south")
                    else grid.tile_height
                )
                g = sink.material.conductance(
                    face * sink.thickness, 0.5 * snk_overhang
                )
                net.add_conductances(
                    sink_nodes[tiles], np.full(tiles.size, snk_outer[side]), g
                )

        # Convection: distribute 1 / R_convec over sink nodes by area.
        total_conductance = 1.0 / stack.convection_resistance
        total_area = grid.area + sum(snk_inner_area.values()) + sum(
            snk_outer_area.values()
        )
        per_tile = total_conductance * (grid.tile_area / total_area)
        net.add_ground_conductances(sink_nodes, per_tile)
        for side, node in snk_inner.items():
            net.add_ground_conductance(
                node, total_conductance * snk_inner_area[side] / total_area
            )
        for side, node in snk_outer.items():
            net.add_ground_conductance(
                node, total_conductance * snk_outer_area[side] / total_area
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self):
        """Size of the nodal system."""
        return self.network.num_nodes

    @property
    def session(self):
        """The model's :class:`~repro.thermal.session.SolveSession`.

        The shared factorization engine behind :attr:`solver` — the
        transient integrator, the closed control loop and the multi-pin
        engine obtain their shifted / arbitrary-diagonal views from it,
        so every consumer of this model shares one set of
        factorizations and one stats object.
        """
        return self.solver.session

    @property
    def total_chip_power_w(self):
        """Sum of the worst-case tile powers (W)."""
        return float(np.sum(self.power_map))

    def with_tec_tiles(self, tec_tiles):
        """New model with a different TEC deployment (same everything else).

        The sibling shares this model's solver configuration and stats,
        and — when available — its network blueprint, so the rebuild is
        incremental.
        """
        return PackageThermalModel(
            self.grid,
            self.power_map,
            stack=self.stack,
            tec_tiles=tec_tiles,
            device=self.device,
            die_conductivity_scale=self._die_k_scale,
            blueprint=self._blueprint,
            solver_mode=self.solver.mode,
            solver_stats=self.solver.stats,
        )

    def ensure_blueprint(self):
        """This model's blueprint, recording (and caching) it on demand.

        Returns the blueprint the model was built from, or records one
        via :meth:`network_blueprint` on first call and reuses it for
        every later sibling build.
        """
        if self._blueprint is None:
            self._blueprint = self.network_blueprint()
        return self._blueprint

    def with_die_conductivity_scale(self, die_conductivity_scale):
        """Sibling with a different per-tile die conductivity scale.

        Replays this model's (recorded-on-demand) blueprint under the
        new scale field — no from-scratch network construction, bitwise
        identical matrices (see
        :meth:`~repro.thermal.assembly.NetworkBlueprint.tag_die_scale`).
        The sibling shares this model's solver configuration and stats;
        the nonlinear fixed-point iteration rebuilds through this.
        """
        return PackageThermalModel(
            self.grid,
            self.power_map,
            stack=self.stack,
            tec_tiles=self.tec_tiles,
            device=self.device,
            die_conductivity_scale=die_conductivity_scale,
            blueprint=self.ensure_blueprint(),
            solver_mode=self.solver.mode,
            solver_stats=self.solver.stats,
        )

    def solve(self, current=0.0, *, check_definite=False):
        """Steady state at the given shared supply current.

        Returns a :class:`ThermalState`.  ``current`` must lie below the
        runaway limit ``lambda_m``; with ``check_definite=True`` this is
        verified (at the cost of a Cholesky factorization).
        """
        current = float(current)
        if current < 0.0:
            raise ValueError("current must be >= 0, got {}".format(current))
        theta = self.solver.solve(current, check_definite=check_definite)
        return ThermalState(self, current, theta)

    def solve_batch(self, currents):
        """Steady states at several supply currents in one batched solve.

        Stacks the requested operating points through
        :meth:`~repro.thermal.session.SessionView.solve_batch` — one
        batched kernel call instead of ``len(currents)`` independent
        solves — and returns a list of :class:`ThermalState`, one per
        current in order.  Each state is bit-identical to the serial
        ``solve(current)`` result.
        """
        currents = [float(current) for current in currents]
        for current in currents:
            if current < 0.0:
                raise ValueError("current must be >= 0, got {}".format(current))
        batch = self.solver.solve_batch(currents)
        return [
            ThermalState(self, current, batch.temperatures[:, j].copy())
            for j, current in enumerate(currents)
        ]

    def peak_silicon_c(self, current=0.0):
        """Hottest silicon tile temperature (Celsius) at ``current``."""
        return self.solve(current).peak_silicon_c

    def matrices(self):
        """The assembled ``(G, d_diagonal, p_base, joule)`` quadruple."""
        system = self.system
        return system.g_matrix, system.d_diagonal, system.p_base, system.joule

    def runaway_condensed(self):
        """The session's condensed-pencil accessor under (effective)
        ``reuse``, else None — handed to
        :func:`~repro.linalg.runaway.runaway_current_eigen` so the
        runaway eigenproblem reads ``C_S`` off the factorization the
        solves use anyway."""
        if self.solver.effective_mode == "reuse":
            return self.solver.condensed
        return None

    @property
    def runaway_solved(self):
        """Whether :meth:`runaway_eigenpair` has solved this model's
        exact runaway eigenproblem (later calls read the kept pair)."""
        return self._runaway_eigenpair is not None

    def runaway_eigenpair(self):
        """The exact runaway ``(RunawayCurrent, unit eigenvector)`` pair.

        Solved on the first call and kept, so the default
        :meth:`runaway_current` and GreedyDeploy's warm round
        (:func:`repro.core.engine.warm_round`) share one eigensolve per
        system.  Under ``reuse`` it reads the session's condensed
        pencil (:meth:`runaway_condensed`); other backends factor ``G``
        once, ordered over the same lattice, for the same bits.
        """
        if self._runaway_eigenpair is None:
            self._runaway_eigenpair = _runaway_current(
                self.system.g_matrix,
                self.system.d_diagonal,
                return_vector=True,
                condensed=self.runaway_condensed(),
                lattice=self.system.lattice,
            )
        return self._runaway_eigenpair

    def runaway_current(self, method="eigen", **kwargs):
        """The runaway limit ``lambda_m`` of this deployment (Theorem 1).

        Returns a :class:`~repro.linalg.runaway.RunawayCurrent`;
        ``math.inf`` when no TEC is deployed (``D = 0``).  The exact
        ``"eigen"`` method takes no options and reads
        :meth:`runaway_eigenpair`; ``kwargs`` go to
        ``"binary-search"``.
        """
        if method != "eigen":
            return _runaway_current(
                self.system.g_matrix, self.system.d_diagonal, method=method, **kwargs
            )
        if kwargs:
            raise TypeError(
                "method='eigen' takes no options, got {}".format(", ".join(sorted(kwargs)))
            )
        return self.runaway_eigenpair()[0]


class CompositeThermalModel(PackageThermalModel):
    """Compact thermal model of a 2.5D multi-chiplet package.

    Stamps a :class:`~repro.thermal.chiplet.ChipletLayout` — N chiplet
    tile grids, the optional shared interposer with microbump vertical
    links and lateral spreading, and the shared TIM/spreader/sink
    cooling stack — through the one network builder of
    :class:`PackageThermalModel`, which reads a single die as the
    one-chiplet layout.  Every downstream subsystem (blueprint replay,
    :class:`~repro.thermal.session.SolveSession` caching, the mg
    hierarchy, GreedyDeploy, sweep and serve) works on composite
    models unchanged, and a one-chiplet layout at the origin without
    an interposer assembles bit for bit the matrices of
    :class:`PackageThermalModel` on that chiplet's grid.  What a layout
    adds is the chiplet bookkeeping: :attr:`layout`,
    :attr:`interposer_layer` and :meth:`tiles_by_chiplet`.

    Indexing conventions:

    * silicon tiles (power maps, ``tec_tiles``, the ``silicon_nodes``
      ordering, everything GreedyDeploy touches) use the **global**
      flat index of the layout's
      :class:`~repro.thermal.geometry.CompositeGrid` — per-chiplet
      contiguous row-major blocks;
    * the shared interposer/spreader/sink layers are gridded over the
      **bounding lattice** (chiplet footprints plus the gaps between
      them), which is also the ``(rows, cols)`` shape handed to the
      multigrid backend — node ``tile`` metadata carries bounding
      lattice indices so the mg stencil sees one coherent lattice.

    Problems over a layout build these through
    :meth:`~repro.core.problem.CoolingSystemProblem.from_chiplet_layout`.
    """

    def __init__(
        self,
        layout,
        *,
        tec_tiles=(),
        device=None,
        blueprint=None,
        solver_mode="direct",
        solver_stats=None,
    ):
        if not isinstance(layout, ChipletLayout):
            raise TypeError(
                "layout must be a ChipletLayout, got {!r}".format(type(layout))
            )
        self.layout = layout
        self.grid = self._chiplets = layout.composite_grid()
        self._interposer = layout.interposer
        self._init_package(
            layout.power_vector(), layout.stack, tec_tiles, device, None,
            blueprint, solver_mode, solver_stats,
        )

    @property
    def interposer_layer(self):
        """The interposer :class:`~repro.thermal.stack.Layer` or None."""
        spec = self.layout.interposer
        return spec.layer() if spec is not None else None

    def network_blueprint(self):
        """Record (once) the layout's build as a blueprint.

        The same builder and contract as
        :meth:`PackageThermalModel.network_blueprint`: every TIM tile
        present plus one TEC stamp row per **global** tile, and any
        deployment of the same layout instantiates from it.
        """
        if self._recording is None:
            self._recording = self._record()
        return self._recording

    # ------------------------------------------------------------------
    # Siblings
    # ------------------------------------------------------------------

    def with_tec_tiles(self, tec_tiles):
        """Sibling composite model with a different TEC deployment."""
        return CompositeThermalModel(
            self.layout,
            tec_tiles=tec_tiles,
            device=self.device,
            blueprint=self._blueprint,
            solver_mode=self.solver.mode,
            solver_stats=self.solver.stats,
        )

    def with_die_conductivity_scale(self, die_conductivity_scale):
        raise NotImplementedError(
            "per-tile die conductivity scaling is not supported on "
            "composite chiplet models yet"
        )

    def tiles_by_chiplet(self, tiles=None):
        """Group global flat tile indices by chiplet name.

        ``tiles`` defaults to this model's TEC deployment; the result
        maps chiplet name to a sorted tuple of that chiplet's tiles —
        the per-chiplet placement view of a composite deployment.
        """
        tiles = self.tec_tiles if tiles is None else tiles
        groups = {spec.name: [] for spec in self.layout.chiplets}
        for tile in tiles:
            chiplet = self.grid.chiplet_of(int(tile))
            groups[self.layout.chiplets[chiplet].name].append(int(tile))
        return {name: tuple(sorted(ts)) for name, ts in groups.items()}
