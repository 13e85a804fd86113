"""Scenario enumeration for the sweep engine.

A :class:`Scenario` is a *plain-data* description of one independent
``(package geometry, power map, deployment, current/budget)`` problem
instance — everything a worker process needs to rebuild the problem
from scratch, and nothing that cannot cross a process boundary (no
models, no factorizations, no open handles).  A :class:`SweepSpec` is
an ordered collection of scenarios plus builder classmethods for the
sweeps the experiments actually run: Table I rows, power-scaling
envelopes, device-parameter grids, Pareto budget sweeps and generic
deployment x current grids.

Scenario tasks
--------------
``greedy``
    Run GreedyDeploy on the instance (Table-I-style single row without
    the Full-Cover baseline).
``table1``
    GreedyDeploy *plus* the Full-Cover baseline — one full Table I row.
``optimize``
    Fix the deployment (``tec_tiles``) and solve Problem 2 (optimal
    shared current) on it.
``solve``
    Fix deployment *and* current; report the steady state.
``pareto``
    Fix the deployment; find the best current under one TEC power
    budget (``budget_w``) — one point of the Pareto front.
``transient``
    Fix deployment and current; integrate the RC network for
    ``steps`` backward-Euler steps of ``dt`` seconds from ambient and
    report the trajectory's peak against the steady state (warm-up
    envelopes, settling checks).  Runs through the same
    :class:`~repro.thermal.session.SolveSession` as the steady solves,
    so its shifted factorizations land in the scenario's solver stats.
``multipin``
    Fix the deployment; optimize ``num_groups`` independent pin
    currents by coordinate descent and report the improvement over the
    paper's single shared pin.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

from repro.thermal.geometry import TileGrid
from repro.thermal.session import SOLVER_MODES
from repro.thermal.stack import PackageStack
from repro.utils import check_nonnegative, check_positive
from repro.utils.validate import check_limit, check_tile_indices

#: Task identifiers accepted by :class:`Scenario`.
TASKS = ("greedy", "table1", "optimize", "solve", "pareto", "transient",
         "multipin")

#: Tasks that require a fixed deployment (``tec_tiles``).
_DEPLOYED_TASKS = ("optimize", "solve", "pareto", "transient", "multipin")


def _whole_number(value, name):
    """``value`` as an ``int``, or ValueError unless it is a whole number.

    ``"3"`` and ``4.0`` coerce; ``2.7``, ``True`` and non-numbers are
    refused rather than truncated.
    """
    try:
        number = int(value)
        whole = not isinstance(value, bool) and number == float(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(
            "{} must be a whole number, got {!r}".format(name, value)
        )
    return number


def _real_number(value, name):
    """``value`` as a ``float``, or ValueError unless it is a number.

    ``"2"`` and ``3`` coerce; ``True`` and non-numbers are refused.
    Range checks (finite, positive, ...) are the caller's.
    """
    try:
        number = float(value)
        real = not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        real = False
    if not real:
        raise ValueError("{} must be a real number, got {!r}".format(name, value))
    return number


@functools.lru_cache(maxsize=None)
def _benchmark_num_tiles(name):
    from repro.experiments.benchmarks import BENCHMARKS

    return BENCHMARKS[name].floorplan().grid.num_tiles


@dataclass(frozen=True)
class Scenario:
    """One independent problem instance of a sweep.

    Exactly one geometry source must be given: ``benchmark`` (a
    registered Table I name), an explicit ``rows x cols`` grid with a
    ``power_map`` (flat row-major W per tile, TEC-sized tiles), or a
    2.5D ``chiplets`` layout.

    The integer fields — ``rows``, ``cols``, ``steps``, ``rom_dim``,
    ``num_groups``, ``max_rounds`` and the four counts of each
    ``chiplets`` entry — must be whole numbers: ``"3"`` and ``4.0``
    coerce, while ``2.7`` and ``True`` are refused, never truncated.
    The real-number fields (factors, currents, budgets, tolerances,
    ``limit_c``, ``dt``, ``rom_tol`` and each chiplet's power) are
    stored as floats: ``"2"`` coerces, ``True`` is refused.

    Attributes
    ----------
    name:
        Unique label inside the sweep (used in reports and errors).
    task:
        One of :data:`TASKS`.
    benchmark:
        Registered benchmark key (``alpha``, ``hc01`` ...); an unknown
        name is refused here, not in the worker.
    rows / cols / power_map:
        Explicit geometry (mutually exclusive with ``benchmark``).
    chiplets:
        2.5D geometry: tuple of ``(rows, cols, row_offset, col_offset,
        power_w)`` 5-tuples, one per chiplet — the plain wire format of
        :func:`~repro.thermal.chiplet.layout_from_plain`.  The worker
        builds the layout on the default interposer and the problem via
        :meth:`~repro.core.problem.CoolingSystemProblem.from_chiplet_layout`;
        tile indices (``tec_tiles``, reported deployments) use the
        composite global flat order.
    power_scale:
        Multiplier applied to the instance's power map (capability
        envelopes, Section VI.B-style scaling).
    limit_c:
        Temperature-limit override, checked against the package
        ambient by :meth:`check_chip`; None keeps the benchmark's own
        limit (or 85 C for explicit geometries).
    seebeck_factor / resistance_factor:
        Device-parameter scaling relative to the calibrated thin-film
        TEC (ablation sweeps); finite and positive.
    tec_tiles:
        Fixed deployment for ``optimize`` / ``solve`` / ``pareto``
        tasks (flat indices); range-checked by :meth:`check_chip`.
    current_a:
        Supply current for ``solve`` tasks (finite, >= 0).
    budget_w:
        TEC power budget for ``pareto`` tasks (>= 0).
    dt / steps:
        Backward-Euler step (s) and step count for ``transient`` tasks;
        None takes the worker defaults (1 ms, 200 steps).
    rom / rom_dim / rom_tol:
        Reduced-order knobs for ``transient`` tasks — mode (one of
        :data:`~repro.linalg.mor.ROM_MODES`, None for ``"auto"``),
        target basis dimension and certified Kelvin tolerance (None
        for the :mod:`repro.linalg.mor` defaults).
    num_groups:
        Pin-group count for ``multipin`` tasks; None gives every
        deployed device its own pin.
    current_tolerance:
        Absolute current tolerance (A) of every Problem 2 search the
        task runs (:func:`~repro.core.current.minimize_peak_temperature`).
    max_rounds:
        Greedy-round budget for ``greedy`` / ``table1`` tasks, a whole
        number >= 0 (not a bool); None runs to the natural termination
        (the :func:`~repro.core.deploy.greedy_deploy` default).
    backend:
        Solver backend for the instance — one of
        :data:`~repro.thermal.session.SOLVER_MODES` (``"direct"``,
        ``"reuse"``, ``"mg"``, ``"auto"``), or None for the problem
        default (``"reuse"``).  Lets one sweep compare backends per
        scenario.
    """

    name: str
    task: str
    benchmark: str = None
    rows: int = None
    cols: int = None
    power_map: tuple = None
    chiplets: tuple = None
    power_scale: float = 1.0
    limit_c: float = None
    seebeck_factor: float = 1.0
    resistance_factor: float = 1.0
    tec_tiles: tuple = None
    current_a: float = None
    budget_w: float = None
    dt: float = None
    steps: int = None
    rom: str = None
    rom_dim: int = None
    rom_tol: float = None
    num_groups: int = None
    current_tolerance: float = 1.0e-4
    max_rounds: int = None
    backend: str = None

    def __post_init__(self):
        for name in ("rows", "cols", "steps", "rom_dim", "num_groups",
                     "max_rounds"):
            if getattr(self, name) is not None:
                object.__setattr__(
                    self, name, _whole_number(getattr(self, name), name)
                )
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError(
                "max_rounds must be None or >= 0, got {}".format(
                    self.max_rounds
                )
            )
        if self.backend is not None and self.backend not in SOLVER_MODES:
            raise ValueError(
                "backend must be one of {} (or None), got {!r}".format(
                    SOLVER_MODES, self.backend
                )
            )
        if self.task not in TASKS:
            raise ValueError(
                "task must be one of {}, got {!r}".format(TASKS, self.task)
            )
        has_benchmark = self.benchmark is not None
        has_explicit = self.power_map is not None
        has_chiplets = self.chiplets is not None
        if int(has_benchmark) + int(has_explicit) + int(has_chiplets) != 1:
            raise ValueError(
                "scenario {!r} needs exactly one geometry source: "
                "benchmark, rows/cols/power_map, or chiplets".format(self.name)
            )
        if has_benchmark:
            from repro.experiments.benchmarks import check_benchmark_name

            check_benchmark_name(self.benchmark)
        if has_chiplets:
            chiplets = []
            for entry in self.chiplets:
                entry = tuple(entry)
                if len(entry) != 5:
                    raise ValueError(
                        "chiplets entries of {!r} must be (rows, cols, "
                        "row_offset, col_offset, power_w) 5-tuples, got "
                        "{!r}".format(self.name, entry)
                    )
                rows, cols, row0, col0, power = entry
                entry = (
                    _whole_number(rows, "chiplet rows"),
                    _whole_number(cols, "chiplet cols"),
                    _whole_number(row0, "chiplet row_offset"),
                    _whole_number(col0, "chiplet col_offset"),
                    check_nonnegative(
                        _real_number(power, "chiplet power_w"), "chiplet power_w"
                    ),
                )
                if min(entry[:2]) < 1 or min(entry[2:4]) < 0:
                    raise ValueError(
                        "chiplets entries of {!r} need rows, cols >= 1 and "
                        "offsets >= 0, got {!r}".format(self.name, entry)
                    )
                chiplets.append(entry)
            if not chiplets:
                raise ValueError(
                    "chiplets of {!r} must name at least one chiplet".format(
                        self.name
                    )
                )
            object.__setattr__(self, "chiplets", tuple(chiplets))
        if has_explicit:
            if (self.rows is None or self.cols is None
                    or min(self.rows, self.cols) < 1):
                raise ValueError(
                    "explicit scenario {!r} needs rows and cols >= 1".format(
                        self.name
                    )
                )
            object.__setattr__(
                self, "power_map", tuple(float(p) for p in self.power_map)
            )
            if len(self.power_map) != self.rows * self.cols:
                raise ValueError(
                    "power_map of {!r} has {} entries for a {}x{} grid".format(
                        self.name, len(self.power_map), self.rows, self.cols
                    )
                )
            if not all(math.isfinite(p) and p >= 0.0 for p in self.power_map):
                raise ValueError(
                    "power_map entries of {!r} must be non-negative finite "
                    "numbers".format(self.name)
                )
        for name in ("power_scale", "seebeck_factor", "resistance_factor",
                     "current_tolerance"):
            value = _real_number(getattr(self, name), name)
            object.__setattr__(self, name, check_positive(value, name))
        for name in ("current_a", "budget_w"):
            if getattr(self, name) is not None:
                value = _real_number(getattr(self, name), name)
                object.__setattr__(self, name, check_nonnegative(value, name))
        if self.limit_c is not None:
            # Its range fits the package, so check_chip checks it.
            object.__setattr__(
                self, "limit_c", _real_number(self.limit_c, "limit_c")
            )
        if self.task in _DEPLOYED_TASKS:
            if self.tec_tiles is None:
                raise ValueError(
                    "{} scenario {!r} needs tec_tiles".format(self.task, self.name)
                )
            tiles = {_whole_number(t, "tec_tiles entry") for t in self.tec_tiles}
            object.__setattr__(self, "tec_tiles", tuple(sorted(tiles)))
        if self.task in ("solve", "transient") and self.current_a is None:
            raise ValueError(
                "{} scenario {!r} needs current_a".format(self.task, self.name)
            )
        if self.task == "pareto" and self.budget_w is None:
            raise ValueError(
                "pareto scenario {!r} needs budget_w >= 0".format(self.name)
            )
        if self.dt is not None:
            object.__setattr__(
                self, "dt", check_positive(_real_number(self.dt, "dt"), "dt")
            )
        if self.steps is not None:
            if self.steps < 1:
                raise ValueError(
                    "steps must be None or >= 1, got {}".format(self.steps)
                )
        if self.rom is not None:
            from repro.linalg.mor import ROM_MODES

            if self.rom not in ROM_MODES:
                raise ValueError(
                    "rom must be one of {} (or None), got {!r}".format(
                        ROM_MODES, self.rom
                    )
                )
        if self.rom_dim is not None:
            if self.rom_dim < 1:
                raise ValueError(
                    "rom_dim must be None or >= 1, got {}".format(self.rom_dim)
                )
        if self.rom_tol is not None:
            object.__setattr__(
                self, "rom_tol",
                check_positive(_real_number(self.rom_tol, "rom_tol"), "rom_tol"),
            )
        if self.num_groups is not None:
            if not 1 <= self.num_groups <= len(self.tec_tiles or ()):
                raise ValueError(
                    "num_groups of {!r} must be in [1, num tec_tiles], "
                    "got {}".format(self.name, self.num_groups)
                )

    @property
    def num_tiles(self):
        """Tile count of the scenario's geometry: ``tec_tiles`` lie in
        ``[0, num_tiles)`` (composite global order for chiplets)."""
        if self.chiplets is not None:
            return sum(rows * cols for rows, cols, _, _, _ in self.chiplets)
        if self.benchmark is not None:
            return _benchmark_num_tiles(self.benchmark)
        return self.rows * self.cols

    def check_chip(self):
        """Check the fields that must fit the package (ValueError).

        The chip must be one the worker can build: ``chiplets`` must
        form a layout (:func:`~repro.thermal.chiplet.layout_from_plain`
        refuses overlapping footprints) and an explicit grid must fit
        under the default package's spreader
        (:meth:`~repro.thermal.stack.PackageStack.validate_for_die`).
        ``tec_tiles`` must index the geometry's :attr:`num_tiles` tiles
        and ``limit_c`` must be a finite temperature above the package
        ambient.  The single-chip HTTP endpoints run this before any
        build and answer 400; a sweep and the serve process tier leave
        all of it to the worker, where a bad value fails only its own
        scenario (captured in its report or answered 422).
        """
        if self.chiplets is not None:
            from repro.thermal.chiplet import layout_from_plain

            layout_from_plain(self.chiplets)
        elif self.power_map is not None:
            grid = TileGrid(self.rows, self.cols)
            PackageStack().validate_for_die(max(grid.width, grid.height))
        if self.tec_tiles is not None:
            check_tile_indices(self.tec_tiles, self.num_tiles)
        if self.limit_c is not None:
            check_limit(self.limit_c, PackageStack.ambient_c)

    def geometry_key(self):
        """Hashable key identifying the *package* this scenario builds.

        Scenarios sharing a key share one
        :class:`~repro.core.problem.CoolingSystemProblem` (and through
        it one recorded
        :class:`~repro.thermal.assembly.NetworkBlueprint`) inside a
        worker process — the temperature limit is excluded because
        limit siblings share blueprints too.
        """
        return (
            self.benchmark,
            self.rows,
            self.cols,
            self.power_map,
            self.chiplets,
            self.power_scale,
            self.seebeck_factor,
            self.resistance_factor,
        )


@dataclass(frozen=True)
class SweepSpec:
    """An ordered enumeration of scenarios.

    Iterable and sized; scenario names must be unique so reports can be
    addressed by name.
    """

    scenarios: tuple
    name: str = "sweep"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        for scenario in self.scenarios:
            if not isinstance(scenario, Scenario):
                raise TypeError(
                    "SweepSpec takes Scenario objects, got {!r}".format(
                        type(scenario)
                    )
                )
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError("duplicate scenario names: {}".format(dupes))

    def __len__(self):
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def geometry_keys(self):
        """Distinct package geometries of the sweep (build/cache units)."""
        return list(dict.fromkeys(s.geometry_key() for s in self.scenarios))

    # ------------------------------------------------------------------
    # Builders for the standard sweeps
    # ------------------------------------------------------------------

    @classmethod
    def table1(cls, names=None, *, max_rounds=None):
        """One ``table1`` scenario per Table I benchmark row."""
        from repro.experiments.benchmarks import benchmark_names

        names = list(names) if names is not None else benchmark_names()
        return cls(
            scenarios=[
                Scenario(name=name, task="table1", benchmark=name,
                         max_rounds=max_rounds)
                for name in names
            ],
            name="table1",
        )

    @classmethod
    def power_scaling(cls, benchmark="alpha", *,
                      factors=(0.9, 1.0, 1.1, 1.2, 1.3), limit_c=85.0):
        """GreedyDeploy across a scaled-power capability envelope."""
        return cls(
            scenarios=[
                Scenario(
                    name="{}x{:.2f}".format(benchmark, factor),
                    task="greedy",
                    benchmark=benchmark,
                    power_scale=float(factor),
                    limit_c=limit_c,
                )
                for factor in factors
            ],
            name="power-scaling[{}]".format(benchmark),
        )

    @classmethod
    def device_grid(cls, benchmark, tec_tiles, *,
                    seebeck_factors=(0.5, 1.0, 1.5),
                    resistance_factors=(0.5, 1.0, 2.0)):
        """Problem 2 re-optimization across a device-parameter grid.

        The deployment is held fixed (normally the base device's greedy
        solution) so the grid isolates the current-setting response —
        the ``tec_parameter_sweep`` ablation.
        """
        scenarios = [
            Scenario(
                name="{}[a*{:g},r*{:g}]".format(benchmark, sf, rf),
                task="optimize",
                benchmark=benchmark,
                seebeck_factor=float(sf),
                resistance_factor=float(rf),
                tec_tiles=tuple(tec_tiles),
            )
            for sf, rf in itertools.product(seebeck_factors, resistance_factors)
        ]
        return cls(scenarios=scenarios, name="device-grid[{}]".format(benchmark))

    @classmethod
    def budget_sweep(cls, benchmark, tec_tiles, budgets_w, *,
                     limit_c=None, current_tolerance=1.0e-4):
        """One ``pareto`` scenario per TEC power budget (ascending)."""
        budgets = sorted(float(b) for b in budgets_w)
        if not budgets:
            raise ValueError("need at least one budget")
        scenarios = [
            Scenario(
                name="{}@{:.6g}W".format(benchmark, budget),
                task="pareto",
                benchmark=benchmark,
                limit_c=limit_c,
                tec_tiles=tuple(tec_tiles),
                budget_w=budget,
                current_tolerance=current_tolerance,
            )
            for budget in budgets
        ]
        return cls(scenarios=scenarios, name="budget-sweep[{}]".format(benchmark))

    @classmethod
    def solve_grid(cls, benchmarks, deployments, currents_a, *,
                   power_scales=(1.0,), backends=(None,)):
        """Cross product: benchmarks x scales x deployments x currents x backends.

        The general many-scenario workload of the ROADMAP: every
        combination becomes one ``solve`` scenario.  ``backends``
        defaults to the single problem-default backend; pass e.g.
        ``("reuse", "direct")`` to compare solver backends scenario by
        scenario in one sweep.
        """
        backends = tuple(backends)
        scenarios = []
        for bench, scale, (dep_label, tiles), current, backend in itertools.product(
            benchmarks, power_scales, list(deployments), currents_a, backends
        ):
            name = "{}x{:.2f}/{}/i={:.4g}".format(bench, scale, dep_label, current)
            if len(backends) > 1 or backend is not None:
                name += "/{}".format(backend if backend is not None else "default")
            scenarios.append(
                Scenario(
                    name=name,
                    task="solve",
                    benchmark=bench,
                    power_scale=float(scale),
                    tec_tiles=tuple(tiles),
                    current_a=float(current),
                    backend=backend,
                )
            )
        return cls(scenarios=scenarios, name="solve-grid")

    def with_name(self, name):
        """Copy of the spec under a different name."""
        return replace(self, name=str(name))

    def with_backend(self, backend):
        """Copy of the spec with every scenario pinned to ``backend``.

        ``backend`` must be one of
        :data:`~repro.thermal.session.SOLVER_MODES` or None (problem
        default); validation happens in the scenario constructor.
        """
        return replace(
            self,
            scenarios=tuple(replace(s, backend=backend) for s in self.scenarios),
        )
