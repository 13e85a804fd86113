"""HotSpot floorplan (``.flp``) reading and writing.

Format (one line per rectangle, SI metres, ``#`` comments)::

    <unit-name> <width> <height> <left-x> <bottom-y>

The library's :class:`~repro.power.floorplan.Floorplan` stores units as
tile sets, which is more general than rectangles (the Section VI.B
hypothetical chips grow blob-shaped units).  On write, each unit is
decomposed into maximal row-run rectangles named ``<unit>``,
``<unit>.1``, ``<unit>.2``, ...; on read, suffixed parts are merged
back into one unit.

Coordinates: the grid origin is the die's top-left corner with rows
growing downward (row-major flat indices); ``.flp`` uses a bottom-left
origin with y growing upward, so row ``r`` maps to
``bottom-y = (rows - 1 - r) * tile_height``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.floorplan import Floorplan, FunctionalUnit


@dataclass(frozen=True)
class FlpRect:
    """One rectangle of a HotSpot floorplan file (SI metres)."""

    name: str
    width: float
    height: float
    left: float
    bottom: float

    def to_line(self):
        """Render as one ``.flp`` line."""
        return "{}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}".format(
            self.name, self.width, self.height, self.left, self.bottom
        )


def _unit_rectangles(grid, unit):
    """Decompose a unit's tile set into maximal rectangles.

    Greedy: take the smallest uncovered flat index, extend the run
    rightward within the row, then extend the resulting strip downward
    while every tile below is also in the unit and uncovered.
    """
    remaining = set(unit.tiles)
    rects = []
    while remaining:
        start = min(remaining)
        row0, col0 = grid.row_col(start)
        # extend right
        width = 1
        while (
            col0 + width < grid.cols
            and grid.flat_index(row0, col0 + width) in remaining
        ):
            width += 1
        # extend down
        height = 1
        while row0 + height < grid.rows and all(
            grid.flat_index(row0 + height, c) in remaining
            for c in range(col0, col0 + width)
        ):
            height += 1
        for r in range(row0, row0 + height):
            for c in range(col0, col0 + width):
                remaining.discard(grid.flat_index(r, c))
        rects.append((row0, col0, height, width))
    return rects


def write_flp(floorplan, path, *, header=True):
    """Write a floorplan as a HotSpot ``.flp`` file.

    Returns the list of :class:`FlpRect` written (also useful for
    in-memory round trips in tests).
    """
    grid = floorplan.grid
    rects = []
    for unit in floorplan.units:
        pieces = _unit_rectangles(grid, unit)
        for index, (row0, col0, rows, cols) in enumerate(pieces):
            name = unit.name if index == 0 else "{}.{}".format(unit.name, index)
            rects.append(
                FlpRect(
                    name=name,
                    width=cols * grid.tile_width,
                    height=rows * grid.tile_height,
                    left=col0 * grid.tile_width,
                    bottom=(grid.rows - row0 - rows) * grid.tile_height,
                )
            )
    lines = []
    if header:
        lines.append("# floorplan written by repro (HotSpot .flp format)")
        lines.append("# <unit-name> <width> <height> <left-x> <bottom-y>")
    lines.extend(rect.to_line() for rect in rects)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return rects


def read_flp(path):
    """Read a HotSpot ``.flp`` file into a list of :class:`FlpRect`."""
    rects = []
    with open(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 5:
                raise ValueError(
                    "{}:{}: expected 5 fields, got {!r}".format(
                        path, line_number, raw.rstrip()
                    )
                )
            name = fields[0]
            try:
                width, height, left, bottom = (float(f) for f in fields[1:5])
            except ValueError as error:
                raise ValueError(
                    "{}:{}: non-numeric geometry in {!r}".format(
                        path, line_number, raw.rstrip()
                    )
                ) from error
            if width <= 0.0 or height <= 0.0:
                raise ValueError(
                    "{}:{}: non-positive rectangle {!r}".format(
                        path, line_number, name
                    )
                )
            rects.append(FlpRect(name, width, height, left, bottom))
    if not rects:
        raise ValueError("{}: no rectangles found".format(path))
    return rects


def _base_name(name):
    """Merge key for suffixed rectangle parts (``IntReg.1`` -> ``IntReg``)."""
    stem, dot, suffix = name.rpartition(".")
    if dot and suffix.isdigit():
        return stem
    return name


def floorplan_from_flp(path, grid, unit_powers, *, require_cover=True):
    """Rasterize an ``.flp`` file onto a tile grid.

    Parameters
    ----------
    path:
        The ``.flp`` file.
    grid:
        Target :class:`~repro.thermal.geometry.TileGrid`; a tile
        belongs to the rectangle containing its centre.
    unit_powers:
        Mapping of (merged) unit name to worst-case power in watts.
        Every unit in the file must have an entry.
    require_cover:
        Passed through to :class:`~repro.power.floorplan.Floorplan`.

    Returns
    -------
    Floorplan
    """
    rects = read_flp(path)
    tiles_by_unit = {}
    eps = 1e-12
    for rect in rects:
        name = _base_name(rect.name)
        tiles = tiles_by_unit.setdefault(name, [])
        for flat, row, col in grid.iter_tiles():
            cx, cy_top = grid.tile_center(row, col)
            # convert the top-origin y to the flp's bottom-origin y
            cy = grid.height - cy_top
            if (
                rect.left - eps <= cx <= rect.left + rect.width + eps
                and rect.bottom - eps <= cy <= rect.bottom + rect.height + eps
            ):
                if flat not in tiles:
                    tiles.append(flat)
    units = []
    for name, tiles in tiles_by_unit.items():
        if name not in unit_powers:
            raise KeyError(
                "no power given for unit {!r} (have: {})".format(
                    name, sorted(unit_powers)
                )
            )
        units.append(FunctionalUnit(name, tiles, unit_powers[name]))
    return Floorplan(grid, units, require_cover=require_cover)
