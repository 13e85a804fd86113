"""No-TEC and Full-Cover baselines; the SwingLoss phenomenon."""

import pytest

from repro.core.baselines import full_cover, no_tec_peak_c, swing_loss_c


class TestNoTec:
    def test_matches_bare_model(self, small_problem):
        expected = small_problem.model(()).solve(0.0).peak_silicon_c
        assert no_tec_peak_c(small_problem) == pytest.approx(expected)


class TestFullCover:
    @pytest.fixture(scope="class")
    def fc(self, small_problem):
        return full_cover(small_problem)

    def test_covers_every_tile(self, fc, small_problem):
        assert fc.model.tec_tiles == tuple(range(small_problem.grid.num_tiles))

    def test_min_peak_at_its_own_optimum(self, fc):
        model = fc.model
        for current in (0.5 * fc.current, 1.5 * fc.current + 0.1):
            assert model.solve(current).peak_silicon_c >= fc.min_peak_c - 1e-6

    def test_power_consistent(self, fc):
        state = fc.model.solve(fc.current)
        assert fc.tec_power_w == pytest.approx(state.tec_input_power_w())

    def test_meets_limit_flag(self, fc, small_problem):
        assert fc.meets_limit == (
            fc.min_peak_c <= small_problem.max_temperature_c
        )


class TestSwingLoss:
    def test_over_deployment_hurts_on_alpha(self, alpha_problem, alpha_greedy):
        """The paper's central comparison: full cover cannot reach the
        peak temperature the greedy deployment reaches."""
        fc = full_cover(alpha_problem)
        loss = swing_loss_c(alpha_greedy, fc)
        assert loss > 0.0
        # paper reports 5.2 C on Alpha; the calibrated model lands in
        # the same few-degree regime.
        assert 1.0 <= loss <= 8.0

    def test_full_cover_misses_the_85_limit_on_alpha(self, alpha_problem):
        fc = full_cover(alpha_problem)
        assert not fc.meets_limit

    def test_swing_loss_formula(self, alpha_greedy):
        class Dummy:
            min_peak_c = 90.0

        assert swing_loss_c(alpha_greedy, Dummy()) == pytest.approx(
            90.0 - alpha_greedy.peak_c
        )
