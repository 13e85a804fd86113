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

Models are immutable once built: changing the TEC deployment creates a
new model (:meth:`PackageThermalModel.with_tec_tiles`), which keeps the
greedy algorithm's bookkeeping trivial and the solver caches valid.
"""

from __future__ import annotations

import time

import numpy as np

from repro.linalg.runaway import runaway_current as _runaway_current
from repro.tec.materials import chowdhury_thin_film_tec
from repro.tec.stamp import stamp_tec
from repro.thermal.assembly import NetworkBlueprint, assemble
from repro.thermal.chiplet import ChipletLayout
from repro.thermal.geometry import TileGrid
from repro.thermal.network import NodeRole, ThermalNetwork
from repro.thermal.solve import SolverStats, SteadyStateSolver
from repro.thermal.stack import PackageStack
from repro.utils import check_finite, kelvin_to_celsius

_SIDES = ("north", "east", "south", "west")


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
    solver_mode / solver_cache_size:
        Engine knobs forwarded to
        :class:`~repro.thermal.solve.SteadyStateSolver` — any of
        :data:`~repro.thermal.solve.SOLVER_MODES` (``"direct"``,
        ``"reuse"``, ``"krylov"``, ``"cholesky"``, ``"mg"``,
        ``"auto"``; ``auto`` resolves per system to reuse, krylov or
        mg, see :func:`~repro.thermal.solve.select_backend`).
    solver_stats:
        Optional shared :class:`~repro.thermal.solve.SolverStats` that
        build and solve instrumentation is reported into.
    """

    #: Effective-length factor for conduction into the lumped overhang
    #: rings; < 0.5 because heat fans out in two dimensions on its way
    #: into the ring.  Calibrated once against the fine-grid reference.
    SPREADING_FACTOR = 0.2

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
        solver_cache_size=8,
        solver_stats=None,
    ):
        if not isinstance(grid, TileGrid):
            raise TypeError("grid must be a TileGrid, got {!r}".format(type(grid)))
        self.grid = grid
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

        self._die_side_w = grid.width
        self._die_side_h = grid.height
        self.stack.validate_for_die(max(self._die_side_w, self._die_side_h))

        self._init_engine(blueprint, solver_mode, solver_cache_size, solver_stats)

    def _init_engine(self, blueprint, solver_mode, solver_cache_size, solver_stats):
        """Build (or replay) the network and boot the solve engine.

        Shared tail of the constructor; :class:`CompositeThermalModel`
        reuses it after its own geometry setup, so both model kinds
        ride one build/assemble/solver pipeline.
        """
        stats = solver_stats if solver_stats is not None else SolverStats()
        self._blueprint = blueprint
        self._solver_mode = solver_mode
        self._solver_cache_size = solver_cache_size
        build_start = time.perf_counter()
        if blueprint is None:
            self.network = ThermalNetwork()
            self.stamps = []
            self._build_network()
            stats.full_builds += 1
        else:
            self.network, self.stamps = blueprint.instantiate(
                self.tec_tiles, die_conductivity_scale=self._die_k_scale
            )
            stats.incremental_builds += 1
        self.system = assemble(
            self.network,
            self.stack.ambient_c,
            grid_shape=(self.grid.rows, self.grid.cols),
        )
        stats.assembly_time_s += time.perf_counter() - build_start
        self.solver = SteadyStateSolver(
            self.system, solver_cache_size, mode=solver_mode, stats=stats
        )

        self.silicon_nodes = self.network.indices_with_role(NodeRole.SILICON)
        self.hot_nodes = [stamp.hot_node for stamp in self.stamps]
        self.cold_nodes = [stamp.cold_node for stamp in self.stamps]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_network(self):
        net = self.network
        silicon, spreader_nodes, sink_nodes = self._build_core(
            net, set(self.tec_tiles)
        )
        for flat in self.tec_tiles:
            self.stamps.append(
                self._stamp_tile(net, flat, silicon[flat], spreader_nodes[flat])
            )
        self._build_periphery(net, silicon, spreader_nodes, sink_nodes)

    def _stamp_tile(self, net, flat, silicon_node, spreader_node):
        """Stamp one TEC device under tile ``flat`` (Figure 4).

        The die-exit / spreader-entry lumping resistances are carried
        in series with the contacts so covered and uncovered tiles see
        the same layer conventions.
        """
        die, _, spreader, _ = self.stack.conduction_layers()
        return stamp_tec(
            net,
            self.device,
            silicon_node=silicon_node,
            spreader_node=spreader_node,
            tile=flat,
            cold_series_resistance=self._die_exit_resistance(flat),
            hot_series_resistance=spreader.vertical_half_resistance(
                self.grid.tile_area
            ),
            cold_series_base=die.vertical_generation_resistance(
                self.grid.tile_area
            ),
        )

    def _die_exit_resistance(self, flat):
        """Die node-to-exit-face resistance of tile ``flat`` (t/3k)."""
        die = self.stack.conduction_layers()[0]
        r_die_exit = die.vertical_generation_resistance(self.grid.tile_area)
        if self._die_k_scale is None:
            return r_die_exit
        return r_die_exit / self._die_k_scale[flat]

    def network_blueprint(self):
        """Record a :class:`~repro.thermal.assembly.NetworkBlueprint`.

        The blueprint captures this model's deployment-independent
        build stream (every TIM tile present) plus one TEC stamp
        template per tile; sibling models for *any* deployment of the
        same grid/stack/device/powers can then be instantiated from it
        incrementally (see ``blueprint=`` in the constructor).
        """
        bp = NetworkBlueprint()
        silicon, spreader_nodes, sink_nodes = self._build_core(bp, frozenset())
        bp.mark_stamp_section()
        for flat, _, _ in self.grid.iter_tiles():
            bp.begin_stamp_template(flat)
            stamp = self._stamp_tile(bp, flat, silicon[flat], spreader_nodes[flat])
            bp.end_stamp_template(stamp)
        self._build_periphery(bp, silicon, spreader_nodes, sink_nodes)
        return bp

    def _build_core(self, net, tec_set):
        """Nodes, sources and layer conduction of the tile grid.

        ``net`` is a :class:`ThermalNetwork` or a recording
        :class:`~repro.thermal.assembly.NetworkBlueprint`; ``tec_set``
        holds the covered tiles (empty when recording a blueprint —
        coverage is applied at replay).  Returns the silicon, spreader
        and sink node lists.
        """
        grid = self.grid
        stack = self.stack
        die, tim, spreader, sink = stack.conduction_layers()
        tile_area = grid.tile_area

        silicon = [
            net.add_node("die[{}]".format(flat), NodeRole.SILICON, tile=flat)
            for flat, _, _ in grid.iter_tiles()
        ]
        tim_nodes = {}
        for flat, _, _ in grid.iter_tiles():
            if flat not in tec_set:
                tim_nodes[flat] = net.add_node(
                    "tim[{}]".format(flat), NodeRole.TIM, tile=flat
                )
        spreader_nodes = [
            net.add_node("spr[{}]".format(flat), NodeRole.SPREADER, tile=flat)
            for flat, _, _ in grid.iter_tiles()
        ]
        sink_nodes = [
            net.add_node("snk[{}]".format(flat), NodeRole.SINK, tile=flat)
            for flat, _, _ in grid.iter_tiles()
        ]

        # Tile powers.
        for flat, _, _ in grid.iter_tiles():
            if self.power_map[flat] > 0.0:
                net.add_source(silicon[flat], self.power_map[flat])

        # Lateral conduction inside each gridded layer.  Die edges
        # honour the optional per-tile conductivity scaling (two
        # half-tiles in series -> harmonic mean of the scales) and are
        # tagged with their unscaled value when ``net`` records die-
        # scale tags (blueprints replayable under any scale field).
        tag = getattr(net, "tag_die_scale", None)
        for a, b, pitch, face in grid.iter_lateral_pairs():
            base = die.lateral_conductance(face, pitch)
            value = base
            if self._die_k_scale is not None:
                sa, sb = self._die_k_scale[a], self._die_k_scale[b]
                value = base * (2.0 * sa * sb / (sa + sb))
            net.add_conductance(silicon[a], silicon[b], value)
            if tag is not None:
                tag("die_lateral", (a, b), base)
        for layer, nodes in (
            (spreader, spreader_nodes),
            (sink, sink_nodes),
        ):
            for a, b, pitch, face in grid.iter_lateral_pairs():
                net.add_conductance(
                    nodes[a], nodes[b], layer.lateral_conductance(face, pitch)
                )
        # Lateral conduction in the TIM exists only between uncovered
        # tiles (a deployed TEC replaces the whole TIM tile).
        for a, b, pitch, face in grid.iter_lateral_pairs():
            if a in tim_nodes and b in tim_nodes:
                net.add_conductance(
                    tim_nodes[a], tim_nodes[b], tim.lateral_conductance(face, pitch)
                )

        # Vertical conduction through the stack (per tile).
        # The die generates its heat internally, so its node-to-face
        # resistance uses the volume-average (t/3k) convention; the
        # passive layers use the usual mid-plane (t/2k) convention.
        tim_half = tim.vertical_half_resistance(tile_area)
        r_die_exit = die.vertical_generation_resistance(tile_area)
        g_tim_spr = 1.0 / (
            tim_half + spreader.vertical_half_resistance(tile_area)
        )
        g_spr_snk = 1.0 / (
            spreader.vertical_half_resistance(tile_area)
            + sink.vertical_half_resistance(tile_area)
        )

        for flat, _, _ in grid.iter_tiles():
            if flat in tim_nodes:
                g_die_tim = 1.0 / (self._die_exit_resistance(flat) + tim_half)
                net.add_conductance(silicon[flat], tim_nodes[flat], g_die_tim)
                if tag is not None:
                    tag("die_tim", (flat,), (r_die_exit, tim_half))
                net.add_conductance(tim_nodes[flat], spreader_nodes[flat], g_tim_spr)
            net.add_conductance(spreader_nodes[flat], sink_nodes[flat], g_spr_snk)

        return silicon, spreader_nodes, sink_nodes

    def _build_periphery(self, net, silicon, spreader_nodes, sink_nodes,
                         grid=None):
        """Spreader/sink overhang nodes and convection to ambient.

        ``grid`` is the tile grid the spreader/sink node lists are
        indexed by — the silicon grid for the single-die package; the
        bounding lattice for a composite layout (whose shared layers
        span chiplets and gaps alike).
        """
        grid = grid if grid is not None else self.grid
        stack = self.stack
        _, _, spreader, sink = stack.conduction_layers()

        die_w, die_h = self._die_side_w, self._die_side_h
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
            for flat in grid.boundary_tiles(side):
                g = spreader.material.conductance(
                    face * spreader.thickness, distance
                )
                net.add_conductance(spreader_nodes[flat], spr_periphery[side], g)

        # Sink edge tiles -> sink inner periphery (lateral in the sink).
        for side in _SIDES:
            if side not in snk_inner:
                continue
            horizontal = side in ("north", "south")
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            pitch = grid.tile_height if horizontal else grid.tile_width
            face = grid.tile_width if horizontal else grid.tile_height
            distance = 0.5 * pitch + self.SPREADING_FACTOR * overhang
            for flat in grid.boundary_tiles(side):
                g = sink.material.conductance(face * sink.thickness, distance)
                net.add_conductance(sink_nodes[flat], snk_inner[side], g)

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
                for flat in grid.boundary_tiles(side):
                    face = (
                        grid.tile_width
                        if side in ("north", "south")
                        else grid.tile_height
                    )
                    g = sink.material.conductance(
                        face * sink.thickness, 0.5 * snk_overhang
                    )
                    net.add_conductance(sink_nodes[flat], snk_outer[side], g)

        # Convection: distribute 1 / R_convec over sink nodes by area.
        total_conductance = 1.0 / stack.convection_resistance
        total_area = grid.area + sum(snk_inner_area.values()) + sum(
            snk_outer_area.values()
        )
        per_tile = total_conductance * (grid.tile_area / total_area)
        for flat, _, _ in grid.iter_tiles():
            net.add_ground_conductance(sink_nodes[flat], per_tile)
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
            solver_mode=self._solver_mode,
            solver_cache_size=self._solver_cache_size,
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
            solver_mode=self._solver_mode,
            solver_cache_size=self._solver_cache_size,
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

    def runaway_influence(self):
        """The solve session's influence block, when it runs ``reuse``.

        Returns the session's
        :meth:`~repro.thermal.session.SessionView.influence_block`
        (a callable) when the backend — ``auto`` resolved — is
        ``reuse``, else None.  Handed to
        :func:`~repro.linalg.runaway.runaway_current_eigen`, it lets the
        runaway eigenproblem read ``Z = W[S, S]`` off the block the
        Woodbury solves use anyway; other backends pay one standalone
        sparse LU instead.
        """
        if self.solver.effective_mode == "reuse":
            return self.solver.influence_block
        return None

    def runaway_current(self, method="eigen", **kwargs):
        """The runaway limit ``lambda_m`` of this deployment (Theorem 1).

        Returns a :class:`~repro.linalg.runaway.RunawayCurrent`;
        ``math.inf`` when no TEC is deployed (``D = 0``).  Under
        ``reuse`` the exact ``"eigen"`` method reads the influence block
        the session's Woodbury solves share (see
        :meth:`runaway_influence`), building it on first use, instead of
        factoring ``G`` again.
        """
        if method == "eigen":
            kwargs.setdefault("influence", self.runaway_influence())
        return _runaway_current(
            self.system.g_matrix, self.system.d_diagonal, method=method, **kwargs
        )


class CompositeThermalModel(PackageThermalModel):
    """Compact thermal model of a 2.5D multi-chiplet package.

    Stamps a :class:`~repro.thermal.chiplet.ChipletLayout` — N chiplet
    tile grids, the shared interposer with microbump vertical links and
    lateral spreading, and the shared TIM/spreader/sink cooling stack —
    into the same node/conductance network machinery as the single-die
    :class:`PackageThermalModel`, so every downstream subsystem
    (blueprint replay, :class:`~repro.thermal.session.SolveSession`
    caching, the mg hierarchy, GreedyDeploy, sweep and serve) works on
    composite models unchanged.

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

    Use :func:`thermal_model_for_layout` rather than constructing this
    directly: single-die layouts must route through
    :class:`PackageThermalModel` itself (the exact code path the paper
    package takes today, bitwise-identical blueprints).
    """

    def __init__(
        self,
        layout,
        *,
        tec_tiles=(),
        device=None,
        blueprint=None,
        solver_mode="direct",
        solver_cache_size=8,
        solver_stats=None,
    ):
        if not isinstance(layout, ChipletLayout):
            raise TypeError(
                "layout must be a ChipletLayout, got {!r}".format(type(layout))
            )
        self.layout = layout
        self.grid = layout.composite_grid()
        self.stack = layout.stack
        self.device = device if device is not None else chowdhury_thin_film_tec()
        self.power_map = layout.power_vector()

        tec_tiles = sorted({int(t) for t in tec_tiles})
        for tile in tec_tiles:
            if not 0 <= tile < self.grid.num_tiles:
                raise IndexError(
                    "TEC tile {} out of range [0, {})".format(
                        tile, self.grid.num_tiles
                    )
                )
        self.tec_tiles = tuple(tec_tiles)
        self._die_k_scale = None

        self._bounding = self.grid.bounding_grid()
        self._die_side_w = self.grid.width
        self._die_side_h = self.grid.height
        self.stack.validate_footprints(self._die_side_w, self._die_side_h)

        self._init_engine(blueprint, solver_mode, solver_cache_size, solver_stats)

    @property
    def interposer_layer(self):
        """The interposer :class:`~repro.thermal.stack.Layer` or None."""
        spec = self.layout.interposer
        return spec.layer() if spec is not None else None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_network(self):
        net = self.network
        silicon, spreader_nodes, sink_nodes = self._build_composite_core(
            net, set(self.tec_tiles)
        )
        for flat in self.tec_tiles:
            self.stamps.append(
                self._stamp_tile(
                    net, flat, silicon[flat],
                    spreader_nodes[self.grid.lattice_index(flat)],
                )
            )
        self._build_periphery(
            net, silicon, spreader_nodes, sink_nodes, grid=self._bounding
        )

    def network_blueprint(self):
        """Record the composite build as a replayable blueprint.

        Same contract as the single-die
        :meth:`PackageThermalModel.network_blueprint`: the stream is
        recorded with every TIM tile present plus one TEC stamp
        template per **global** tile, and any deployment of the same
        layout replays bitwise-identically.
        """
        bp = NetworkBlueprint()
        silicon, spreader_nodes, sink_nodes = self._build_composite_core(
            bp, frozenset()
        )
        bp.mark_stamp_section()
        for flat in range(self.grid.num_tiles):
            bp.begin_stamp_template(flat)
            stamp = self._stamp_tile(
                bp, flat, silicon[flat],
                spreader_nodes[self.grid.lattice_index(flat)],
            )
            bp.end_stamp_template(stamp)
        self._build_periphery(
            bp, silicon, spreader_nodes, sink_nodes, grid=self._bounding
        )
        return bp

    def _stamp_tile(self, net, flat, silicon_node, spreader_node):
        """Stamp one TEC under **global** tile ``flat``.

        Identical series-resistance lumping to the single-die stamp;
        the node metadata additionally carries the bounding-lattice
        placement so the mg stencil keeps its coherent tile grid.
        """
        die, _, spreader, _ = self.stack.conduction_layers()
        return stamp_tec(
            net,
            self.device,
            silicon_node=silicon_node,
            spreader_node=spreader_node,
            tile=flat,
            lattice_tile=self.grid.lattice_index(flat),
            cold_series_resistance=self._die_exit_resistance(flat),
            hot_series_resistance=spreader.vertical_half_resistance(
                self.grid.tile_area
            ),
            cold_series_base=die.vertical_generation_resistance(
                self.grid.tile_area
            ),
        )

    def _build_composite_core(self, net, tec_set):
        """Nodes, sources and layer conduction of the composite stack.

        Per chiplet: silicon tiles with their power sources, TIM tiles
        (where no TEC covers them), lateral die/TIM conduction, and the
        per-tile vertical chain die -> TIM -> spreader.  Shared over
        the bounding lattice: interposer (with microbump links up to
        each chiplet tile and optional TSV/board leakage), spreader and
        sink layers with lateral conduction across chiplets and gaps.
        Returns ``(silicon, spreader_nodes, sink_nodes)`` — silicon
        indexed by global flat, the shared layers by bounding flat.
        """
        grid = self.grid
        layout = self.layout
        bounding = self._bounding
        stack = self.stack
        die, tim, spreader, sink = stack.conduction_layers()
        interposer = self.interposer_layer
        tile_area = grid.tile_area
        lattice_of = grid.occupied_lattice_tiles()

        silicon = []
        for flat, chiplet, _, _ in grid.iter_tiles():
            name = layout.chiplets[chiplet].name
            silicon.append(
                net.add_node(
                    "die[{}:{}]".format(name, flat),
                    NodeRole.SILICON,
                    tile=int(lattice_of[flat]),
                    chiplet=chiplet,
                )
            )
        tim_nodes = {}
        for flat, chiplet, _, _ in grid.iter_tiles():
            if flat not in tec_set:
                name = layout.chiplets[chiplet].name
                tim_nodes[flat] = net.add_node(
                    "tim[{}:{}]".format(name, flat),
                    NodeRole.TIM,
                    tile=int(lattice_of[flat]),
                    cover_tile=flat,
                    chiplet=chiplet,
                )
        interposer_nodes = None
        if interposer is not None:
            interposer_nodes = [
                net.add_node(
                    "itp[{}]".format(lat), NodeRole.INTERPOSER, tile=lat
                )
                for lat, _, _ in bounding.iter_tiles()
            ]
        spreader_nodes = [
            net.add_node("spr[{}]".format(lat), NodeRole.SPREADER, tile=lat)
            for lat, _, _ in bounding.iter_tiles()
        ]
        sink_nodes = [
            net.add_node("snk[{}]".format(lat), NodeRole.SINK, tile=lat)
            for lat, _, _ in bounding.iter_tiles()
        ]

        # Tile powers.
        for flat in range(grid.num_tiles):
            if self.power_map[flat] > 0.0:
                net.add_source(silicon[flat], self.power_map[flat])

        # Lateral conduction: die and TIM within each chiplet only
        # (chiplets are physically separate islands of silicon)...
        tag = getattr(net, "tag_die_scale", None)
        for chiplet, cgrid in enumerate(grid.grids):
            offset = grid.block_offset(chiplet)
            for a, b, pitch, face in cgrid.iter_lateral_pairs():
                base = die.lateral_conductance(face, pitch)
                net.add_conductance(silicon[offset + a], silicon[offset + b], base)
                if tag is not None:
                    tag("die_lateral", (offset + a, offset + b), base)
        # ... the shared layers across the whole bounding lattice,
        # gaps included — this is the lateral interposer/spreader
        # spreading that couples the chiplets.
        shared_layers = [(spreader, spreader_nodes), (sink, sink_nodes)]
        if interposer_nodes is not None:
            shared_layers.insert(0, (interposer, interposer_nodes))
        for layer, nodes in shared_layers:
            for a, b, pitch, face in bounding.iter_lateral_pairs():
                net.add_conductance(
                    nodes[a], nodes[b], layer.lateral_conductance(face, pitch)
                )
        for chiplet, cgrid in enumerate(grid.grids):
            offset = grid.block_offset(chiplet)
            for a, b, pitch, face in cgrid.iter_lateral_pairs():
                ga, gb = offset + a, offset + b
                if ga in tim_nodes and gb in tim_nodes:
                    net.add_conductance(
                        tim_nodes[ga], tim_nodes[gb],
                        tim.lateral_conductance(face, pitch),
                    )

        # Vertical conduction.  Chiplet tiles follow the single-die
        # conventions exactly (t/3k generation exit, mid-plane halves);
        # the microbump field links each silicon tile down into the
        # interposer, and spreader -> sink spans the full lattice.
        tim_half = tim.vertical_half_resistance(tile_area)
        r_die_exit = die.vertical_generation_resistance(tile_area)
        g_tim_spr = 1.0 / (
            tim_half + spreader.vertical_half_resistance(tile_area)
        )
        g_spr_snk = 1.0 / (
            spreader.vertical_half_resistance(tile_area)
            + sink.vertical_half_resistance(tile_area)
        )

        for flat in range(grid.num_tiles):
            lat = int(lattice_of[flat])
            if flat in tim_nodes:
                g_die_tim = 1.0 / (self._die_exit_resistance(flat) + tim_half)
                net.add_conductance(silicon[flat], tim_nodes[flat], g_die_tim)
                if tag is not None:
                    tag("die_tim", (flat,), (r_die_exit, tim_half))
                net.add_conductance(
                    tim_nodes[flat], spreader_nodes[lat], g_tim_spr
                )
            if interposer_nodes is not None:
                net.add_conductance(
                    silicon[flat],
                    interposer_nodes[lat],
                    layout.interposer.microbump_conductance,
                )
        for lat in range(bounding.num_tiles):
            net.add_conductance(spreader_nodes[lat], sink_nodes[lat], g_spr_snk)

        # Optional lumped TSV/ball path from the interposer into the
        # board, distributed uniformly over the interposer tiles.
        if (
            interposer_nodes is not None
            and layout.interposer.board_resistance is not None
        ):
            g_board = 1.0 / (
                layout.interposer.board_resistance * bounding.num_tiles
            )
            for lat in range(bounding.num_tiles):
                net.add_ground_conductance(interposer_nodes[lat], g_board)

        return silicon, spreader_nodes, sink_nodes

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
            solver_mode=self._solver_mode,
            solver_cache_size=self._solver_cache_size,
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


def thermal_model_for_layout(layout, **kwargs):
    """The thermal model of a :class:`~repro.thermal.chiplet.ChipletLayout`.

    Routes single-die layouts (one chiplet at the origin, no
    interposer) through :class:`PackageThermalModel` — the **exact**
    code path a plain grid/power-map build takes, so the blueprint is
    bitwise identical to today's single-die path — and everything else
    through :class:`CompositeThermalModel`.  Keyword arguments
    (``tec_tiles``, ``device``, ``blueprint``, ``solver_mode``,
    ``solver_cache_size``, ``solver_stats``) pass through unchanged.
    """
    if not isinstance(layout, ChipletLayout):
        raise TypeError(
            "layout must be a ChipletLayout, got {!r}".format(type(layout))
        )
    if layout.is_single_die():
        spec = layout.chiplets[0]
        return PackageThermalModel(
            spec.grid,
            np.asarray(spec.power_map),
            stack=layout.stack,
            **kwargs,
        )
    return CompositeThermalModel(layout, **kwargs)
