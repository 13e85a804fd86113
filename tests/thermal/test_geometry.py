"""Tile-grid geometry and indexing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.geometry import TileGrid


class TestConstruction:
    def test_defaults_are_tec_sized(self):
        grid = TileGrid(12, 12)
        assert grid.tile_width == pytest.approx(0.5e-3)
        assert grid.tile_area == pytest.approx(0.25e-6)

    def test_paper_die(self):
        grid = TileGrid(12, 12)
        assert grid.width == pytest.approx(6e-3)
        assert grid.area == pytest.approx(36e-6)
        assert grid.num_tiles == 144

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TileGrid(0, 3)

    def test_rejects_nonpositive_tile(self):
        with pytest.raises(ValueError):
            TileGrid(2, 2, tile_width=0.0)


class TestIndexing:
    def test_flat_row_major(self):
        grid = TileGrid(3, 4)
        assert grid.flat_index(0, 0) == 0
        assert grid.flat_index(0, 3) == 3
        assert grid.flat_index(1, 0) == 4
        assert grid.flat_index(2, 3) == 11

    def test_row_col_inverse(self):
        grid = TileGrid(3, 4)
        for flat in range(grid.num_tiles):
            row, col = grid.row_col(flat)
            assert grid.flat_index(row, col) == flat

    def test_out_of_range(self):
        grid = TileGrid(2, 2)
        with pytest.raises(IndexError):
            grid.flat_index(2, 0)
        with pytest.raises(IndexError):
            grid.row_col(4)

    def test_tile_center(self):
        grid = TileGrid(2, 2, tile_width=1.0, tile_height=2.0)
        assert grid.tile_center(0, 0) == (0.5, 1.0)
        assert grid.tile_center(1, 1) == (1.5, 3.0)

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_property_iter_tiles_covers_exactly_once(self, rows, cols):
        grid = TileGrid(rows, cols)
        flats = [flat for flat, _, _ in grid.iter_tiles()]
        assert flats == list(range(rows * cols))


class TestNeighbors:
    def test_interior_has_four(self):
        grid = TileGrid(3, 3)
        assert len(list(grid.neighbors(1, 1))) == 4

    def test_corner_has_two(self):
        grid = TileGrid(3, 3)
        assert len(list(grid.neighbors(0, 0))) == 2

    def test_edge_has_three(self):
        grid = TileGrid(3, 3)
        assert len(list(grid.neighbors(0, 1))) == 3

    def test_lateral_pairs_count(self):
        # rows*(cols-1) east pairs + (rows-1)*cols south pairs
        grid = TileGrid(3, 4)
        pairs = list(grid.iter_lateral_pairs())
        assert len(pairs) == 3 * 3 + 2 * 4

    def test_lateral_pair_order(self):
        grid = TileGrid(2, 3, tile_width=1.0, tile_height=2.0)
        assert list(grid.iter_lateral_pairs()) == [
            (0, 1, 1.0, 2.0), (0, 3, 2.0, 1.0),
            (1, 2, 1.0, 2.0), (1, 4, 2.0, 1.0),
            (2, 5, 2.0, 1.0),
            (3, 4, 1.0, 2.0),
            (4, 5, 1.0, 2.0),
        ]
        a, b, east = grid.lateral_pair_arrays()
        assert (a.tolist(), b.tolist(), east.tolist()) == (
            [0, 0, 1, 1, 2, 3, 4],
            [1, 3, 2, 4, 5, 4, 5],
            [True, False, True, False, False, True, True],
        )

    def test_lateral_pairs_unique(self):
        grid = TileGrid(4, 4)
        seen = set()
        for a, b, _, _ in grid.iter_lateral_pairs():
            key = (min(a, b), max(a, b))
            assert key not in seen
            seen.add(key)


class TestBoundary:
    def test_sides(self):
        grid = TileGrid(3, 4)
        assert grid.boundary_tiles("north") == [0, 1, 2, 3]
        assert grid.boundary_tiles("south") == [8, 9, 10, 11]
        assert grid.boundary_tiles("west") == [0, 4, 8]
        assert grid.boundary_tiles("east") == [3, 7, 11]

    def test_bad_side(self):
        with pytest.raises(ValueError):
            TileGrid(2, 2).boundary_tiles("up")


class TestToGrid:
    def test_reshape(self):
        grid = TileGrid(2, 3)
        out = grid.to_grid(np.arange(6))
        assert out.shape == (2, 3)
        assert out[1, 0] == 3

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            TileGrid(2, 3).to_grid(np.arange(5))
