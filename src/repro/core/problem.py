"""Problem 1: the cooling system configuration problem (Section V.A).

A :class:`CoolingSystemProblem` binds together everything the
optimization needs — the tile grid, the worst-case per-tile power
profile, the package stack, the TEC device type, and the maximum
allowable temperature — and acts as a factory for
:class:`~repro.thermal.model.PackageThermalModel` instances at
candidate deployments.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.power.floorplan import Floorplan
from repro.tec.materials import chowdhury_thin_film_tec
from repro.thermal.model import CompositeThermalModel, PackageThermalModel
from repro.thermal.session import SOLVER_MODES, SolverStats
from repro.thermal.stack import PackageStack
from repro.utils import check_finite
from repro.utils.validate import check_limit


class CoolingSystemProblem:
    """An instance of the paper's Problem 1.

    Parameters
    ----------
    grid:
        The silicon :class:`~repro.thermal.geometry.TileGrid` (tiles
        are TEC-device sized).
    power_map:
        Worst-case power per tile (W), flat row-major.
    max_temperature_c:
        The limit ``theta_max`` the peak tile temperature must not
        exceed (85 C in most Table I rows); a finite temperature above
        the package ambient.
    stack:
        :class:`~repro.thermal.stack.PackageStack` (defaults to the
        calibrated package).
    device:
        :class:`~repro.tec.materials.TecDeviceParameters` (defaults to
        the calibrated thin-film device).
    name:
        Label used in reports.
    solver_mode:
        Steady-state solver backend for every model built by this
        problem — one of :data:`~repro.thermal.session.SOLVER_MODES`:
        ``"reuse"`` (default — one sparse LU per deployment with the TEC
        support last, condensed ``m x m`` work across currents),
        ``"direct"`` (one sparse SPD factorization per distinct
        current; refuses currents at or beyond ``lambda_m``),
        ``"mg"`` (multigrid-preconditioned CG, one hierarchy per view)
        or ``"auto"`` (per assembled system: ``mg`` from
        :data:`~repro.thermal.session.MG_NODE_CROSSOVER` nodes on, else
        reuse vs direct from the support size).  Fixed once the
        problem is built; :meth:`with_solver_mode` makes a sibling on
        another backend.
    incremental_assembly:
        When True (default), the first model records a
        :class:`~repro.thermal.assembly.NetworkBlueprint` and every
        later deployment is replayed from it instead of rebuilt.

    All solver/build instrumentation aggregates in
    :attr:`solver_stats`, a shared
    :class:`~repro.thermal.session.SolverStats`.
    """

    def __init__(
        self,
        grid,
        power_map,
        *,
        max_temperature_c=85.0,
        stack=None,
        device=None,
        name="unnamed",
        solver_mode="reuse",
        incremental_assembly=True,
    ):
        self.grid = grid
        self.power_map = check_finite(power_map, "power_map")
        if self.power_map.shape != (grid.num_tiles,):
            raise ValueError(
                "power_map must have length {}, got shape {}".format(
                    grid.num_tiles, self.power_map.shape
                )
            )
        if np.any(self.power_map < 0.0):
            raise ValueError("power_map entries must be non-negative")
        self.stack = stack if stack is not None else PackageStack()
        self.max_temperature_c = check_limit(
            max_temperature_c, self.stack.ambient_c, "max_temperature_c"
        )
        self.device = device if device is not None else chowdhury_thin_film_tec()
        self.name = str(name)
        if solver_mode not in SOLVER_MODES:
            raise ValueError(
                "solver_mode must be one of {}, got {!r}".format(
                    SOLVER_MODES, solver_mode
                )
            )
        self.solver_mode = solver_mode
        self.incremental_assembly = bool(incremental_assembly)
        self.solver_stats = SolverStats()
        self._model_cache = {}
        self._blueprint = None
        #: Set by :meth:`from_chiplet_layout`; ``model()`` then builds
        #: composite models.  ``None`` for single-die problems.
        self._layout = None

    @classmethod
    def from_floorplan(cls, floorplan, *, max_temperature_c=85.0, stack=None,
                       device=None, name=None, **solver_kwargs):
        """Build a problem from a :class:`~repro.power.floorplan.Floorplan`.

        The floorplan's rasterized worst-case power map becomes the
        power profile.  Extra keyword arguments (``solver_mode``,
        ``incremental_assembly``) are forwarded to the constructor.
        """
        if not isinstance(floorplan, Floorplan):
            raise TypeError(
                "floorplan must be a Floorplan, got {!r}".format(type(floorplan))
            )
        return cls(
            floorplan.grid,
            floorplan.power_map(),
            max_temperature_c=max_temperature_c,
            stack=stack,
            device=device,
            name=name if name is not None else "floorplan",
            **solver_kwargs,
        )

    @classmethod
    def from_chiplet_layout(cls, layout, *, max_temperature_c=85.0,
                            device=None, name=None, **solver_kwargs):
        """Build a problem over a 2.5D chiplet package.

        ``layout`` is a :class:`~repro.thermal.chiplet.ChipletLayout`;
        the problem's grid becomes the layout's
        :class:`~repro.thermal.geometry.CompositeGrid` (tile indices,
        power map, deployments and ``tiles_above_limit`` all use the
        global flat order) and ``model()`` builds
        :class:`~repro.thermal.model.CompositeThermalModel` instances.
        The whole optimization stack — GreedyDeploy, the runaway
        certificate, sweep and serve — runs on them unchanged.  A
        one-chiplet layout is a composite problem too: its matrices are
        bit for bit those of the single-die package on the chiplet's
        grid, because both model kinds share one network builder.
        """
        from repro.thermal.chiplet import ChipletLayout

        if not isinstance(layout, ChipletLayout):
            raise TypeError(
                "layout must be a ChipletLayout, got {!r}".format(type(layout))
            )
        problem = cls(
            layout.composite_grid(),
            layout.power_vector(),
            max_temperature_c=max_temperature_c,
            stack=layout.stack,
            device=device,
            name=name if name is not None else "chiplet",
            **solver_kwargs,
        )
        problem._layout = layout
        return problem

    @property
    def layout(self):
        """The problem's chiplet layout, or ``None`` for single-die."""
        return self._layout

    def model(self, tec_tiles=()):
        """A :class:`PackageThermalModel` for a candidate deployment.

        Models are cached per deployment: the greedy loop revisits the
        no-TEC model and monotonically growing tile sets, and model
        construction dominates the cost of small instances.  With
        ``incremental_assembly`` on, the first model records the shared
        network blueprint and every later deployment is replayed from
        it, so the per-round rebuild of the greedy loop skips the layer
        physics entirely.
        """
        key = tuple(sorted({int(t) for t in tec_tiles}))
        model = self._model_cache.get(key)
        if model is None:
            if self._layout is not None:
                model = CompositeThermalModel(
                    self._layout,
                    tec_tiles=key,
                    device=self.device,
                    blueprint=self._blueprint,
                    solver_mode=self.solver_mode,
                    solver_stats=self.solver_stats,
                )
            else:
                model = PackageThermalModel(
                    self.grid,
                    self.power_map,
                    stack=self.stack,
                    tec_tiles=key,
                    device=self.device,
                    blueprint=self._blueprint,
                    solver_mode=self.solver_mode,
                    solver_stats=self.solver_stats,
                )
            if self.incremental_assembly and self._blueprint is None:
                self._blueprint = model.network_blueprint()
            self._model_cache[key] = model
        return model

    def cached_models(self):
        """Snapshot list of the cached per-deployment models.

        Read-only accessor for observers (the serve layer's pool stats,
        diagnostics) that need to walk the warm models — e.g. to
        aggregate :meth:`~repro.thermal.session.SolveSession.cache_info`
        across deployments — without reaching into the cache dict.
        """
        return list(self._model_cache.values())

    def tiles_above_limit(self, state):
        """The paper's set ``T``: flat indices of tiles hotter than the limit."""
        return set(np.nonzero(state.silicon_c > self.max_temperature_c)[0].tolist())

    def deploy(self, **kwargs):
        """Run GreedyDeploy on this problem.

        Convenience front-end for
        :func:`~repro.core.deploy.greedy_deploy`; keyword arguments
        (``current_tolerance``, ``max_rounds``) pass through unchanged.
        """
        from repro.core.deploy import greedy_deploy

        return greedy_deploy(self, **kwargs)

    def with_limit(self, max_temperature_c):
        """Copy of the problem with a different temperature limit.

        Used for the HC06/HC09 rows of Table I, which are infeasible at
        85 C but feasible at a slightly relaxed limit.  The copy keeps
        the solver configuration and shares the recorded network
        blueprint (temperature limits do not enter the matrices), but
        gets fresh stats and model caches.
        """
        return self._sibling(max_temperature_c=max_temperature_c)

    def with_solver_mode(self, solver_mode):
        """Copy of the problem running a different solver backend.

        Shares the recorded network blueprint (the backend does not
        enter the matrices) but gets fresh stats and model caches, so
        backend comparisons on the same floorplan skip the layer
        physics rebuild.
        """
        return self._sibling(solver_mode=solver_mode)

    def with_device(self, device):
        """Copy of the problem on another TEC device.

        The device enters the matrices, so the copy records its own
        blueprint; it keeps the geometry (a chiplet problem's layout)
        and the solver backend, with fresh stats and model caches.
        """
        return self._sibling(device=device)

    def with_stack(self, stack):
        """Copy of the problem on another package stack.

        Like :meth:`with_device`: the copy records its own blueprint
        and keeps the backend; a chiplet problem's layout is carried
        over onto the new stack.
        """
        return self._sibling(stack=stack)

    def _sibling(self, **changes):
        """Copy of the problem with some constructor arguments changed.

        The copy keeps the chiplet layout (on the copy's stack) and,
        unless the device or the stack changed (both enter the
        matrices), shares the recorded blueprint.
        """
        settings = dict(
            max_temperature_c=self.max_temperature_c,
            stack=self.stack,
            device=self.device,
            name=self.name,
            solver_mode=self.solver_mode,
            incremental_assembly=self.incremental_assembly,
        )
        settings.update(changes)
        sibling = CoolingSystemProblem(self.grid, self.power_map, **settings)
        layout = self._layout
        if layout is not None and layout.stack is not sibling.stack:
            layout = replace(layout, stack=sibling.stack)
        sibling._layout = layout
        if sibling.stack is self.stack and sibling.device is self.device:
            sibling._blueprint = self._blueprint
        return sibling

    def __repr__(self):
        return (
            "CoolingSystemProblem({!r}, {} tiles, {:.1f} W, limit {:.1f} C)".format(
                self.name,
                self.grid.num_tiles,
                float(np.sum(self.power_map)),
                self.max_temperature_c,
            )
        )
