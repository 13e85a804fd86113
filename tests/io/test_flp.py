"""HotSpot .flp round trips and rasterization."""

import numpy as np
import pytest

from repro.io.flp import (
    _unit_rectangles,
    floorplan_from_flp,
    read_flp,
    write_flp,
)
from repro.power.alpha import alpha_floorplan
from repro.power.floorplan import FunctionalUnit
from repro.power.hypothetical import hypothetical_chip
from repro.thermal.geometry import TileGrid


class TestRectangleDecomposition:
    def test_rectangular_unit_single_piece(self):
        grid = TileGrid(4, 4)
        unit = FunctionalUnit.from_rect("r", grid, 1, 1, 2, 3, 1.0)
        pieces = _unit_rectangles(grid, unit)
        assert pieces == [(1, 1, 2, 3)]

    def test_l_shape_two_pieces(self):
        grid = TileGrid(3, 3)
        # L shape: top row + left column
        unit = FunctionalUnit("L", [0, 1, 2, 3, 6], 1.0)
        pieces = _unit_rectangles(grid, unit)
        covered = set()
        for row0, col0, rows, cols in pieces:
            for r in range(row0, row0 + rows):
                for c in range(col0, col0 + cols):
                    flat = grid.flat_index(r, c)
                    assert flat not in covered
                    covered.add(flat)
        assert covered == set(unit.tiles)
        assert len(pieces) == 2

    def test_decomposition_always_exact(self):
        chip = hypothetical_chip(seed=5)
        for unit in chip.units:
            covered = set()
            for row0, col0, rows, cols in _unit_rectangles(chip.grid, unit):
                for r in range(row0, row0 + rows):
                    for c in range(col0, col0 + cols):
                        covered.add(chip.grid.flat_index(r, c))
            assert covered == set(unit.tiles), unit.name


class TestWriteRead:
    def test_alpha_flp_round_trip(self, tmp_path):
        plan = alpha_floorplan()
        path = tmp_path / "alpha.flp"
        written = write_flp(plan, path)
        rects = read_flp(path)
        assert len(rects) == len(written)
        for a, b in zip(written, rects):
            assert a.name == b.name
            assert a.width == pytest.approx(b.width)
            assert a.left == pytest.approx(b.left)

    def test_rect_count_alpha_is_unit_count(self, tmp_path):
        # every Alpha unit is a rectangle
        plan = alpha_floorplan()
        written = write_flp(plan, tmp_path / "a.flp")
        assert len(written) == len(plan.units)

    def test_total_area_preserved(self, tmp_path):
        chip = hypothetical_chip(seed=9)
        written = write_flp(chip, tmp_path / "hc.flp")
        area = sum(rect.width * rect.height for rect in written)
        assert area == pytest.approx(chip.grid.area)

    def test_read_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.flp"
        path.write_text("unit 1.0 2.0\n")
        with pytest.raises(ValueError, match="5 fields"):
            read_flp(path)

    def test_read_rejects_nonnumeric(self, tmp_path):
        path = tmp_path / "bad.flp"
        path.write_text("unit a b c d\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_flp(path)

    def test_read_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.flp"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no rectangles"):
            read_flp(path)

    def test_read_rejects_degenerate_rect(self, tmp_path):
        path = tmp_path / "deg.flp"
        path.write_text("unit 0.0 1.0 0.0 0.0\n")
        with pytest.raises(ValueError, match="non-positive"):
            read_flp(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.flp"
        path.write_text("# header\n\nunit 1e-3 1e-3 0 0  # trailing\n")
        rects = read_flp(path)
        assert len(rects) == 1 and rects[0].name == "unit"


class TestRasterization:
    def test_alpha_full_round_trip(self, tmp_path):
        """flp write -> rasterize recovers the identical power map."""
        plan = alpha_floorplan()
        path = tmp_path / "alpha.flp"
        write_flp(plan, path)
        powers = {unit.name: unit.power_w for unit in plan.units}
        recovered = floorplan_from_flp(path, plan.grid, powers)
        assert np.allclose(recovered.power_map(), plan.power_map())

    def test_hypothetical_round_trip_merges_parts(self, tmp_path):
        chip = hypothetical_chip(seed=3)
        path = tmp_path / "hc.flp"
        write_flp(chip, path)
        powers = {unit.name: unit.power_w for unit in chip.units}
        recovered = floorplan_from_flp(path, chip.grid, powers)
        assert len(recovered.units) == len(chip.units)
        assert np.allclose(recovered.power_map(), chip.power_map())

    def test_missing_power_raises(self, tmp_path):
        plan = alpha_floorplan()
        path = tmp_path / "alpha.flp"
        write_flp(plan, path)
        with pytest.raises(KeyError, match="no power given"):
            floorplan_from_flp(path, plan.grid, {"L2": 1.0})

    def test_suffix_merging_only_for_numeric(self, tmp_path):
        grid = TileGrid(2, 2)
        path = tmp_path / "x.flp"
        path.write_text(
            "a.core 5e-4 1e-3 0 0\n"
            "b 5e-4 1e-3 5e-4 0\n"
        )
        plan = floorplan_from_flp(
            path, grid, {"a.core": 1.0, "b": 2.0}, require_cover=True
        )
        assert {unit.name for unit in plan.units} == {"a.core", "b"}
