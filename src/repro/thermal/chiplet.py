"""2.5D multi-chiplet package layouts.

The paper models one 6 mm x 6 mm die on one package stack; this module
describes the heterogeneous packages the ROADMAP's chiplet workload
targets (3D-ICE-style 2.5D systems): N chiplets — each with its own
:class:`~repro.thermal.geometry.TileGrid`, worst-case power map and
placement — mounted on a shared silicon interposer and cooled through
one shared TIM / spreader / sink stack.

Heat leaves each chiplet two ways, mirroring a lidded 2.5D package:

* **up** through its TIM tile (or a deployed TEC) into the shared
  spreader and sink — the per-tile vertical chain of every package;
* **down** through its microbump field into the interposer, which
  spreads laterally across the whole package (coupling the chiplets
  thermally) and optionally leaks into the board through a lumped
  TSV/ball path.

A :class:`ChipletLayout` is pure description; the composite network is
stamped by :class:`~repro.thermal.model.CompositeThermalModel` through
the one network builder of
:class:`~repro.thermal.model.PackageThermalModel`, which reads a single
die as the one-chiplet layout at the origin without an interposer.  So
a one-chiplet layout assembles bit for bit the single-die package's
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.power.maps import compose_chiplet_power
from repro.thermal.geometry import CompositeGrid, TileGrid
from repro.thermal.materials import SILICON, Material
from repro.thermal.stack import Layer, PackageStack
from repro.utils import check_finite, check_positive

#: Default per-tile microbump-field conductance (W/K): a ~100-bump
#: copper field under one 0.5 mm x 0.5 mm tile (25 um bumps at 50 um
#: pitch), contact losses folded in.
DEFAULT_MICROBUMP_CONDUCTANCE = 0.5


@dataclass(frozen=True)
class ChipletSpec:
    """One chiplet of a 2.5D layout.

    Attributes
    ----------
    name:
        Identifier used in node names and reports.
    grid:
        The chiplet's silicon :class:`~repro.thermal.geometry.TileGrid`.
    power_map:
        Worst-case power per tile (W), flat row-major, stored as a
        tuple so the spec stays hashable; or a scalar total split
        evenly over the tiles.
    row_offset / col_offset:
        Placement on the shared bounding lattice, in tile units.
    """

    name: str
    grid: TileGrid
    power_map: tuple
    row_offset: int = 0
    col_offset: int = 0

    def __post_init__(self):
        power = self.power_map
        if np.ndim(power) == 0:
            total = float(power)
            if total < 0.0:
                raise ValueError("chiplet power must be non-negative")
            power = tuple([total / self.grid.num_tiles] * self.grid.num_tiles)
        else:
            power = tuple(float(p) for p in power)
            if len(power) != self.grid.num_tiles:
                raise ValueError(
                    "power_map must have length {}, got {}".format(
                        self.grid.num_tiles, len(power)
                    )
                )
            if any(p < 0.0 for p in power):
                raise ValueError("power_map entries must be non-negative")
        check_finite(np.asarray(power), "power_map")
        object.__setattr__(self, "power_map", power)
        object.__setattr__(self, "row_offset", int(self.row_offset))
        object.__setattr__(self, "col_offset", int(self.col_offset))
        if self.row_offset < 0 or self.col_offset < 0:
            raise ValueError("chiplet offsets must be non-negative")

    @property
    def total_power_w(self):
        """Sum of the chiplet's tile powers (W)."""
        return float(sum(self.power_map))


@dataclass(frozen=True)
class InterposerSpec:
    """The shared interposer and its vertical links.

    Attributes
    ----------
    material / thickness:
        Interposer slab (silicon, 100 um by default).
    microbump_conductance:
        Chiplet-tile-to-interposer vertical conductance (W/K per
        tile) through the microbump field.
    board_resistance:
        Optional lumped interposer-to-board resistance (K/W, total
        over the package) through the TSV/ball path, distributed over
        the interposer tiles by area; ``None`` models an adiabatic
        board (all heat exits through the sink).
    """

    material: Material = SILICON
    thickness: float = 100.0e-6
    microbump_conductance: float = DEFAULT_MICROBUMP_CONDUCTANCE
    board_resistance: Optional[float] = None

    def __post_init__(self):
        check_positive(self.thickness, "thickness")
        check_positive(self.microbump_conductance, "microbump_conductance")
        if self.board_resistance is not None:
            check_positive(self.board_resistance, "board_resistance")

    def layer(self):
        """The interposer as a :class:`~repro.thermal.stack.Layer`."""
        return Layer("interposer", self.material, self.thickness)


@dataclass(frozen=True)
class ChipletLayout:
    """A 2.5D package: chiplets + interposer + shared cooling stack.

    Attributes
    ----------
    chiplets:
        Tuple of :class:`ChipletSpec` (at least one, unique names,
        non-overlapping footprints, one shared tile pitch).
    stack:
        The shared :class:`~repro.thermal.stack.PackageStack` (die
        layer thickness/material describes every chiplet's silicon;
        TIM/spreader/sink are the shared cooling path).
    interposer:
        Optional :class:`InterposerSpec`; ``None`` drops the
        interposer entirely (chiplets couple only through the
        spreader, and a one-chiplet layout at the origin without an
        interposer is exactly the paper's single-die package).
    """

    chiplets: tuple
    stack: PackageStack = field(default_factory=PackageStack)
    interposer: Optional[InterposerSpec] = None

    def __post_init__(self):
        chiplets = tuple(self.chiplets)
        object.__setattr__(self, "chiplets", chiplets)
        if not chiplets:
            raise ValueError("a ChipletLayout needs at least one chiplet")
        names = [spec.name for spec in chiplets]
        if len(set(names)) != len(names):
            raise ValueError("chiplet names must be unique, got {}".format(names))
        grid = self.composite_grid()  # validates overlap / pitch
        self.stack.validate_footprints(grid.width, grid.height)

    # -- derived geometry ----------------------------------------------

    def composite_grid(self):
        """The layout's :class:`~repro.thermal.geometry.CompositeGrid`."""
        return CompositeGrid(
            grids=tuple(spec.grid for spec in self.chiplets),
            origins=tuple(
                (spec.row_offset, spec.col_offset) for spec in self.chiplets
            ),
        )

    def power_vector(self):
        """Global flat power vector over every chiplet block."""
        return compose_chiplet_power(
            self.composite_grid(),
            [np.asarray(spec.power_map) for spec in self.chiplets],
        )

    @property
    def num_chiplets(self):
        return len(self.chiplets)

    @property
    def total_power_w(self):
        """Package-level worst-case power (W)."""
        return float(sum(spec.total_power_w for spec in self.chiplets))

    def chiplet_tiles(self, chiplet):
        """Global flat tile indices of one chiplet (by index or name)."""
        if isinstance(chiplet, str):
            names = [spec.name for spec in self.chiplets]
            chiplet = names.index(chiplet)
        grid = self.composite_grid()
        block = grid.block_slice(chiplet)
        return tuple(range(block.start, block.stop))


def grown_default_stack(width, height, *, stack=None):
    """The default package stack, spreader/sink grown to cover a region.

    The calibrated :class:`~repro.thermal.stack.PackageStack` targets
    the paper's 6 mm die; a wide chiplet lattice can exceed its
    spreader footprint, which :meth:`PackageStack.validate_footprints`
    (rightly) rejects.  Starting from ``stack`` (default package when
    ``None``), grow the spreader to at least 1.5x the region's larger
    side and the sink to at least 2x the spreader, leaving an
    already-large-enough stack untouched.
    """
    stack = stack if stack is not None else PackageStack()
    region = max(float(width), float(height))
    spreader_side = stack.spreader.side or region
    sink_side = stack.sink.side or spreader_side
    spreader_side = max(spreader_side, 1.5 * region)
    sink_side = max(sink_side, 2.0 * spreader_side)
    return replace(
        stack,
        spreader=replace(stack.spreader, side=spreader_side),
        sink=replace(stack.sink, side=sink_side),
    )


def layout_from_plain(chiplets, *, stack=None, interposer=True,
                      tile_width=0.5e-3, tile_height=0.5e-3):
    """Build a :class:`ChipletLayout` from plain scenario data.

    ``chiplets`` is an iterable of ``(rows, cols, row_offset,
    col_offset, power_w)`` tuples — the hashable wire format the sweep
    scenarios and serve schemas carry.  ``interposer`` may be ``True``
    (default spec), ``False``/``None`` (no interposer) or an
    :class:`InterposerSpec`.  With ``stack=None`` the default package
    is grown to cover the lattice (:func:`grown_default_stack`), since
    wire-format callers cannot size the spreader themselves.
    """
    specs = []
    for index, entry in enumerate(chiplets):
        rows, cols, row_offset, col_offset, power_w = entry
        specs.append(
            ChipletSpec(
                name="chiplet{}".format(index),
                grid=TileGrid(
                    int(rows), int(cols),
                    tile_width=tile_width, tile_height=tile_height,
                ),
                power_map=float(power_w),
                row_offset=row_offset,
                col_offset=col_offset,
            )
        )
    if interposer is True:
        interposer = InterposerSpec()
    elif interposer is False:
        interposer = None
    if stack is None:
        grid = CompositeGrid(
            grids=tuple(spec.grid for spec in specs),
            origins=tuple(
                (spec.row_offset, spec.col_offset) for spec in specs
            ),
        )
        stack = grown_default_stack(grid.width, grid.height)
    return ChipletLayout(
        chiplets=tuple(specs),
        stack=stack,
        interposer=interposer,
    )


def demo_two_chiplet_layout(*, rows=8, cols=8, gap=2, power_w=30.0,
                            stack=None, interposer=None):
    """A compact CPU + accelerator demo: two grids separated by a gap.

    Two ``rows x cols`` chiplets side by side with ``gap`` empty
    lattice columns between them, each dissipating ``power_w``, on the
    default interposer — the layout the chiplet differential tests,
    the example and the ``repro chiplet`` CLI default to.
    """
    if stack is None:
        # Grow the calibrated spreader/sink to cover the wider package.
        width = (2 * cols + gap) * 0.5e-3
        height = rows * 0.5e-3
        stack = grown_default_stack(width, height)
    return layout_from_plain(
        (
            (rows, cols, 0, 0, power_w),
            (rows, cols, 0, cols + gap, power_w),
        ),
        stack=stack,
        interposer=InterposerSpec() if interposer is None else interposer,
    )
