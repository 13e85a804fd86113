"""Tile-grid geometry.

The paper dissects the silicon layer into ``p x q`` tiles, each with
the lateral footprint of one thin-film TEC device (estimated at
0.5 mm x 0.5 mm from the 7x7-array figure in reference [1]).  The same
grid indexes the TIM layer and the central regions of the spreader and
sink layers.

:class:`TileGrid` owns the (row, col) <-> flat-index mapping used by
every other subsystem; all flat indices in the library are
**row-major** (``flat = row * cols + col``).

:class:`CompositeGrid` extends that index space to 2.5D chiplet
layouts: N chiplet grids placed on a shared lattice, each occupying a
contiguous row-major block of the global flat index space, with a
bounding tile lattice (covering chiplets *and* the gaps between them)
for the layers every chiplet shares — interposer, spreader, sink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_positive
from repro.utils.validate import check_index


@dataclass(frozen=True)
class TileGrid:
    """A rectangular grid of equal tiles.

    Attributes
    ----------
    rows, cols:
        Grid dimensions (the paper's ``p x q``; 12 x 12 in Section VI).
    tile_width, tile_height:
        Lateral tile dimensions in metres (0.5 mm each by default).
    """

    rows: int
    cols: int
    tile_width: float = 0.5e-3
    tile_height: float = 0.5e-3

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(
                "grid must have at least one tile, got {}x{}".format(self.rows, self.cols)
            )
        check_positive(self.tile_width, "tile_width")
        check_positive(self.tile_height, "tile_height")

    @property
    def num_tiles(self):
        """Total number of tiles ``rows * cols``."""
        return self.rows * self.cols

    @property
    def tile_area(self):
        """Footprint of one tile in m^2."""
        return self.tile_width * self.tile_height

    @property
    def width(self):
        """Total grid width (along columns) in metres."""
        return self.cols * self.tile_width

    @property
    def height(self):
        """Total grid height (along rows) in metres."""
        return self.rows * self.tile_height

    @property
    def area(self):
        """Total grid footprint in m^2."""
        return self.width * self.height

    def flat_index(self, row, col):
        """Row-major flat index of tile ``(row, col)``."""
        row = check_index(row, "row", self.rows)
        col = check_index(col, "col", self.cols)
        return row * self.cols + col

    def row_col(self, flat):
        """Inverse of :meth:`flat_index`."""
        flat = check_index(flat, "flat", self.num_tiles)
        return divmod(flat, self.cols)

    def tile_center(self, row, col):
        """Centre of tile ``(row, col)`` in metres, origin at grid corner."""
        row = check_index(row, "row", self.rows)
        col = check_index(col, "col", self.cols)
        return ((col + 0.5) * self.tile_width, (row + 0.5) * self.tile_height)

    def iter_tiles(self):
        """Yield ``(flat, row, col)`` for every tile in row-major order."""
        for row in range(self.rows):
            for col in range(self.cols):
                yield row * self.cols + col, row, col

    def neighbors(self, row, col):
        """Yield the 4-connected neighbour coordinates of ``(row, col)``."""
        row = check_index(row, "row", self.rows)
        col = check_index(col, "col", self.cols)
        if row > 0:
            yield row - 1, col
        if row < self.rows - 1:
            yield row + 1, col
        if col > 0:
            yield row, col - 1
        if col < self.cols - 1:
            yield row, col + 1

    def iter_lateral_pairs(self):
        """Yield each adjacent tile pair once, as flat indices.

        East pairs come with the tile-to-tile pitch ``tile_width``;
        south pairs with ``tile_height``::

            for a, b, pitch, cross_width in grid.iter_lateral_pairs():
                ...

        ``cross_width`` is the width of the shared face in the lateral
        plane (a thickness factor turns it into a cross-section area).
        """
        a, b, east = self.lateral_pair_arrays()
        for first, second, is_east in zip(a.tolist(), b.tolist(), east.tolist()):
            if is_east:
                yield first, second, self.tile_width, self.tile_height
            else:
                yield first, second, self.tile_height, self.tile_width

    def lateral_pair_arrays(self):
        """Each adjacent tile pair once, as arrays ``(a, b, east)``.

        Row-major, the east pair before the south pair of each tile;
        ``east`` is True for an east pair (pitch ``tile_width``, face
        ``tile_height``) and False for a south pair (pitch
        ``tile_height``, face ``tile_width``).  The package builders
        stamp lateral conduction in this order.
        """
        flat = np.arange(self.num_tiles).reshape(self.rows, self.cols)
        a = np.stack([flat, flat], axis=-1)
        b = np.stack([flat + 1, flat + self.cols], axis=-1)
        valid = np.stack([
            np.broadcast_to(np.arange(self.cols) < self.cols - 1, flat.shape),
            np.broadcast_to(
                (np.arange(self.rows) < self.rows - 1)[:, None], flat.shape
            ),
        ], axis=-1)
        east = np.broadcast_to(np.array([True, False]), valid.shape)
        return a[valid], b[valid], east[valid]

    def boundary_tiles(self, side):
        """Flat indices of the tiles on one side of the grid.

        ``side`` is one of ``"north"`` (row 0), ``"south"`` (last row),
        ``"west"`` (col 0), ``"east"`` (last col).  Corner tiles appear
        on both adjacent sides.
        """
        if side == "north":
            return [self.flat_index(0, c) for c in range(self.cols)]
        if side == "south":
            return [self.flat_index(self.rows - 1, c) for c in range(self.cols)]
        if side == "west":
            return [self.flat_index(r, 0) for r in range(self.rows)]
        if side == "east":
            return [self.flat_index(r, self.cols - 1) for r in range(self.rows)]
        raise ValueError(
            "side must be north/south/east/west, got {!r}".format(side)
        )

    def to_grid(self, flat_values):
        """Reshape a flat per-tile vector to a ``(rows, cols)`` array."""
        arr = np.asarray(flat_values)
        if arr.shape != (self.num_tiles,):
            raise ValueError(
                "expected a flat vector of length {}, got shape {}".format(
                    self.num_tiles, arr.shape
                )
            )
        return arr.reshape(self.rows, self.cols)


@dataclass(frozen=True)
class CompositeGrid:
    """The flat index space of a multi-chiplet layout.

    Each chiplet keeps its own :class:`TileGrid`; chiplet ``c``'s tiles
    occupy the contiguous row-major block
    ``[block_offset(c), block_offset(c) + grids[c].num_tiles)`` of the
    **global** flat index space, so every subsystem that keys on flat
    tile indices (power maps, TEC deployments, the greedy loop) works
    on a composite layout unchanged.  A one-chiplet composite at origin
    ``(0, 0)`` reproduces :class:`TileGrid`'s indexing exactly.

    The chiplets sit on a shared **bounding lattice** (the tile grid of
    the interposer/spreader/sink layers): chiplet ``c``'s tile
    ``(r, c')`` maps to bounding tile
    ``(origins[c][0] + r, origins[c][1] + c')``.  All chiplets must
    share one tile pitch (the bounding lattice is uniform) and their
    footprints must not overlap.

    Attributes
    ----------
    grids:
        Per-chiplet :class:`TileGrid` tuple (at least one).
    origins:
        Per-chiplet ``(row_offset, col_offset)`` placements on the
        bounding lattice, in tile units, non-negative.
    """

    grids: tuple
    origins: tuple

    def __post_init__(self):
        grids = tuple(self.grids)
        origins = tuple((int(r), int(c)) for r, c in self.origins)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "origins", origins)
        if not grids:
            raise ValueError("a CompositeGrid needs at least one chiplet grid")
        if len(origins) != len(grids):
            raise ValueError(
                "got {} origins for {} chiplet grids".format(
                    len(origins), len(grids)
                )
            )
        for grid in grids:
            if not isinstance(grid, TileGrid):
                raise TypeError(
                    "chiplet grids must be TileGrid, got {!r}".format(type(grid))
                )
            if (
                grid.tile_width != grids[0].tile_width
                or grid.tile_height != grids[0].tile_height
            ):
                raise ValueError(
                    "chiplet grids must share one tile pitch; "
                    "got {}x{} vs {}x{}".format(
                        grid.tile_width, grid.tile_height,
                        grids[0].tile_width, grids[0].tile_height,
                    )
                )
        rects = []
        for grid, (row0, col0) in zip(grids, origins):
            if row0 < 0 or col0 < 0:
                raise ValueError(
                    "chiplet origins must be non-negative, got {}".format(
                        (row0, col0)
                    )
                )
            rects.append((row0, col0, row0 + grid.rows, col0 + grid.cols))
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                r0, c0, r1, c1 = rects[i]
                s0, d0, s1, d1 = rects[j]
                if r0 < s1 and s0 < r1 and c0 < d1 and d0 < c1:
                    raise ValueError(
                        "chiplet footprints {} and {} overlap".format(i, j)
                    )
        offsets = [0]
        for grid in grids:
            offsets.append(offsets[-1] + grid.num_tiles)
        object.__setattr__(self, "_block_offsets", tuple(offsets))

    # -- block structure ------------------------------------------------

    @property
    def num_chiplets(self):
        """Number of chiplet grids."""
        return len(self.grids)

    @property
    def num_tiles(self):
        """Total tile count over every chiplet."""
        return self._block_offsets[-1]

    def block_offset(self, chiplet):
        """First global flat index of chiplet ``chiplet``'s block."""
        chiplet = check_index(chiplet, "chiplet", self.num_chiplets)
        return self._block_offsets[chiplet]

    def block_slice(self, chiplet):
        """Slice of the global flat space owned by chiplet ``chiplet``."""
        chiplet = check_index(chiplet, "chiplet", self.num_chiplets)
        return slice(self._block_offsets[chiplet], self._block_offsets[chiplet + 1])

    # -- global <-> local index mapping ---------------------------------

    def global_index(self, chiplet, row, col):
        """Global flat index of tile ``(row, col)`` of chiplet ``chiplet``."""
        chiplet = check_index(chiplet, "chiplet", self.num_chiplets)
        return self._block_offsets[chiplet] + self.grids[chiplet].flat_index(row, col)

    def locate(self, flat):
        """Inverse of :meth:`global_index`: ``(chiplet, row, col)``."""
        flat = check_index(flat, "flat", self.num_tiles)
        for chiplet, grid in enumerate(self.grids):
            offset = self._block_offsets[chiplet]
            if flat < offset + grid.num_tiles:
                row, col = grid.row_col(flat - offset)
                return chiplet, row, col
        raise AssertionError("unreachable: flat index within bounds")

    def chiplet_of(self, flat):
        """Chiplet index owning global flat tile ``flat``."""
        return self.locate(flat)[0]

    def iter_tiles(self):
        """Yield ``(flat, chiplet, row, col)`` in global flat order."""
        for chiplet, grid in enumerate(self.grids):
            offset = self._block_offsets[chiplet]
            for local, row, col in grid.iter_tiles():
                yield offset + local, chiplet, row, col

    # -- the shared bounding lattice ------------------------------------

    @property
    def tile_width(self):
        """Common tile width (metres) of every chiplet grid."""
        return self.grids[0].tile_width

    @property
    def tile_height(self):
        """Common tile height (metres) of every chiplet grid."""
        return self.grids[0].tile_height

    @property
    def tile_area(self):
        """Footprint of one (uniform-pitch) tile in m^2."""
        return self.tile_width * self.tile_height

    @property
    def rows(self):
        """Row count of the bounding lattice."""
        return max(
            row0 + grid.rows for grid, (row0, _) in zip(self.grids, self.origins)
        )

    @property
    def cols(self):
        """Column count of the bounding lattice."""
        return max(
            col0 + grid.cols for grid, (_, col0) in zip(self.grids, self.origins)
        )

    @property
    def width(self):
        """Bounding-lattice width (along columns) in metres."""
        return self.cols * self.tile_width

    @property
    def height(self):
        """Bounding-lattice height (along rows) in metres."""
        return self.rows * self.tile_height

    @property
    def area(self):
        """Bounding-lattice footprint in m^2."""
        return self.width * self.height

    def bounding_grid(self):
        """The bounding lattice as a plain :class:`TileGrid`."""
        return TileGrid(
            self.rows, self.cols,
            tile_width=self.tile_width, tile_height=self.tile_height,
        )

    def lattice_index(self, flat):
        """Bounding-lattice flat index of global tile ``flat``."""
        chiplet, row, col = self.locate(flat)
        row0, col0 = self.origins[chiplet]
        return (row0 + row) * self.cols + (col0 + col)

    def row_col(self, flat):
        """Bounding-lattice ``(row, col)`` of global tile ``flat``.

        The lattice-coordinate counterpart of
        :meth:`TileGrid.row_col` — spatial consumers (device
        clustering, plots) see the package plan, not the per-chiplet
        block order.
        """
        chiplet, row, col = self.locate(flat)
        row0, col0 = self.origins[chiplet]
        return row0 + row, col0 + col

    def tile_center(self, row, col):
        """Centre of lattice tile ``(row, col)``, origin at the corner."""
        row = check_index(row, "row", self.rows)
        col = check_index(col, "col", self.cols)
        return ((col + 0.5) * self.tile_width, (row + 0.5) * self.tile_height)

    def occupied_lattice_tiles(self):
        """Bounding flat index per global tile, length ``num_tiles``."""
        parts = []
        for grid, (row0, col0) in zip(self.grids, self.origins):
            rows = np.arange(row0, row0 + grid.rows)[:, None]
            cols = np.arange(col0, col0 + grid.cols)[None, :]
            parts.append((rows * self.cols + cols).ravel())
        return np.concatenate(parts).astype(np.int64)

    def to_grid(self, flat_values):
        """Scatter a global flat vector onto the bounding lattice.

        Returns a ``(rows, cols)`` float array; lattice tiles not
        covered by any chiplet (the gaps) are NaN.
        """
        arr = np.asarray(flat_values, dtype=float)
        if arr.shape != (self.num_tiles,):
            raise ValueError(
                "expected a flat vector of length {}, got shape {}".format(
                    self.num_tiles, arr.shape
                )
            )
        out = np.full((self.rows, self.cols), np.nan)
        out.flat[self.occupied_lattice_tiles()] = arr
        return out
