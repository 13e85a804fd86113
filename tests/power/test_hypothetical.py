"""The Section VI.B hypothetical chip generator."""

import numpy as np
import pytest

from repro.power.hypothetical import HypotheticalChipConfig, hypothetical_chip


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = HypotheticalChipConfig()
        assert (cfg.rows, cfg.cols) == (12, 12)
        assert (cfg.min_unit_tiles, cfg.max_unit_tiles) == (5, 15)
        assert cfg.hot_unit_count == 2
        assert cfg.hot_power_fraction == pytest.approx(0.30)

    def test_validation(self):
        with pytest.raises(ValueError):
            HypotheticalChipConfig(min_unit_tiles=10, max_unit_tiles=5)
        with pytest.raises(ValueError):
            HypotheticalChipConfig(hot_power_fraction=1.5)
        with pytest.raises(ValueError):
            HypotheticalChipConfig(total_power_w=0.0)


class TestGenerator:
    @pytest.fixture(scope="class")
    def chip(self):
        return hypothetical_chip(HypotheticalChipConfig(total_power_w=20.0), seed=42)

    def test_covers_grid(self, chip):
        assert int(np.sum(chip.unit_map() >= 0)) == 144

    def test_total_power_exact(self, chip):
        assert chip.total_power_w == pytest.approx(20.0)

    def test_two_hot_units(self, chip):
        hot = [u.name for u in chip.units if u.name.startswith("HOT")]
        assert sorted(hot) == ["HOT0", "HOT1"]

    def test_hot_power_fraction(self, chip):
        hot = [u.name for u in chip.units if u.name.startswith("HOT")]
        assert chip.power_fraction(hot) == pytest.approx(0.30)

    def test_hot_area_near_ten_percent(self, chip):
        hot = [u.name for u in chip.units if u.name.startswith("HOT")]
        assert 0.05 <= chip.area_fraction(hot) <= 0.18

    def test_unit_sizes_in_range_mostly(self, chip):
        # merging of trapped pockets can exceed max; all units >= min.
        sizes = [u.num_tiles for u in chip.units]
        assert min(sizes) >= 5

    def test_units_connected(self, chip):
        """Flood-fill growth must produce 4-connected units."""
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        grid = chip.grid
        for unit in chip.units:
            tiles = sorted(set(unit.tiles))
            position = {tile: k for k, tile in enumerate(tiles)}
            rows, cols = [], []
            for tile in tiles:
                row, col = grid.row_col(tile)
                for r, c in grid.neighbors(row, col):
                    other = grid.flat_index(r, c)
                    if other in position:
                        rows.append(position[tile])
                        cols.append(position[other])
            graph = sp.csr_matrix(
                (np.ones(len(rows)), (rows, cols)),
                shape=(len(tiles), len(tiles)),
            )
            count = connected_components(
                graph, directed=False, return_labels=False
            )
            assert count == 1, unit.name

    def test_deterministic_by_seed(self):
        a = hypothetical_chip(seed=7)
        b = hypothetical_chip(seed=7)
        assert [u.tiles for u in a.units] == [u.tiles for u in b.units]
        assert [u.power_w for u in a.units] == pytest.approx(
            [u.power_w for u in b.units]
        )

    def test_different_seeds_differ(self):
        a = hypothetical_chip(seed=1)
        b = hypothetical_chip(seed=2)
        assert [u.tiles for u in a.units] != [u.tiles for u in b.units]

    def test_hot_density_exceeds_cool_density(self, chip):
        hot_density = max(
            chip.unit_density_w_cm2(u.name)
            for u in chip.units
            if u.name.startswith("HOT")
        )
        cool_density = max(
            chip.unit_density_w_cm2(u.name)
            for u in chip.units
            if not u.name.startswith("HOT")
        )
        assert hot_density > cool_density

    def test_custom_prefix(self):
        chip = hypothetical_chip(seed=3, name_prefix="B")
        assert any(u.name.startswith("B0") for u in chip.units)

    def test_small_grid_generator(self):
        cfg = HypotheticalChipConfig(rows=6, cols=6, min_unit_tiles=3,
                                     max_unit_tiles=6, total_power_w=5.0)
        chip = hypothetical_chip(cfg, seed=11)
        assert int(np.sum(chip.unit_map() >= 0)) == 36
