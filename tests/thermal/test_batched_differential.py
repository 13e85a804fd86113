"""Differential tests of the per-current batch.

:meth:`~repro.thermal.session.SessionView.solve_batch` is the plain
per-current :meth:`~repro.thermal.session.SessionView.solve` loop that
the serve tier's batch kernel reads: one ``(theta, stats)`` pair per
current.  Pinned here, for every backend in ``SOLVER_MODES``, on
randomized package networks:

* **bitwise serial** — every ``theta`` equals a serial
  ``solve(current)`` call bit for bit, and each pair's stats are the
  counter delta of its own solve (the deltas add up to the batch's);
* **per-column refusal** — a current at or beyond ``lambda_m`` gives
  its :class:`~repro.thermal.session.SingularSystemError` in place of
  ``theta`` while its neighbours are answered;
* **edge cases** — the empty batch is empty, and a single-current
  batch matches a plain solve exactly.

The random instances mirror ``tests/thermal/test_differential.py``:
grids 2x2 through 4x4 with random power maps and TEC deployments, and
probe currents spanning passive through near-runaway.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.thermal.geometry import TileGrid
from repro.thermal.model import PackageThermalModel
from repro.thermal.session import SOLVER_MODES, SingularSystemError

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _instances(draw):
    """A random (grid, power map, deployment) triple."""
    rows = draw(st.integers(min_value=2, max_value=4))
    cols = draw(st.integers(min_value=2, max_value=4))
    tiles = rows * cols
    power = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=0.8),
            min_size=tiles,
            max_size=tiles,
        )
    )
    deployment = draw(
        st.sets(
            st.integers(min_value=0, max_value=tiles - 1),
            min_size=1,
            max_size=min(6, tiles),
        )
    )
    return rows, cols, np.array(power), tuple(sorted(deployment))


def _model(instance, mode):
    rows, cols, power, deployment = instance
    return PackageThermalModel(
        TileGrid(rows, cols), power, tec_tiles=deployment, solver_mode=mode
    )


def _currents(model):
    """Probe currents with a deliberate duplicate (a solution-cache hit)."""
    lam = model.runaway_current().value
    return [0.0, 0.3 * lam, 0.8 * lam, 0.3 * lam]


def _counters(stats):
    """The integer counters of a stats dict (wall times dropped)."""
    return {k: v for k, v in stats.items() if not k.endswith("_s")}


class TestBatchMatchesSerial:
    """solve_batch vs one-at-a-time solves, for every backend."""

    @pytest.mark.parametrize("mode", SOLVER_MODES)
    @given(instance=_instances())
    @_settings
    def test_default_loads_batch_is_bitwise_serial(self, mode, instance):
        batched_model = _model(instance, mode)
        serial_model = _model(instance, mode)
        currents = _currents(batched_model)
        before = batched_model.solver.stats.copy()
        answers = batched_model.solver.solve_batch(currents)
        batch_delta = batched_model.solver.stats.diff(before).as_dict()
        assert len(answers) == len(currents)
        for (theta, stats), current in zip(answers, currents):
            assert np.array_equal(theta, serial_model.solver.solve(current))
            assert stats["solves"] == 1
        for field, total in _counters(batch_delta).items():
            assert sum(stats[field] for _, stats in answers) == total, field

    @given(instance=_instances())
    @_settings
    def test_backends_agree_on_the_same_batch(self, instance):
        reference = None
        currents = _currents(_model(instance, "direct"))
        for mode in SOLVER_MODES:
            answers = _model(instance, mode).solver.solve_batch(currents)
            block = np.column_stack([theta for theta, _ in answers])
            if reference is None:
                reference = block
            else:
                np.testing.assert_allclose(block, reference, atol=1e-6, rtol=0.0)

    @given(instance=_instances())
    @_settings
    def test_duplicate_currents_hit_the_solution_cache(self, instance):
        """A repeated current is answered from the solution cache."""
        model = _model(instance, "reuse")
        currents = _currents(model)  # contains 0.3*lam twice
        answers = model.solver.solve_batch(currents)
        assert answers[1][1]["solution_hits"] == 0
        assert answers[3][1]["solution_hits"] == 1
        assert np.array_equal(answers[1][0], answers[3][0])


class TestBatchRefusal:
    @pytest.mark.parametrize("mode", SOLVER_MODES)
    @pytest.mark.parametrize("fraction", [1.01, 1.5, 3.0])
    def test_refused_current_keeps_its_neighbours(
        self, small_grid, small_power, mode, fraction
    ):
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6), solver_mode=mode
        )
        other = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6), solver_mode=mode
        )
        lam = model.runaway_current().value
        currents = [0.3 * lam, fraction * lam, 0.6 * lam]
        answers = model.solver.solve_batch(currents)
        refused, _ = answers[1]
        assert isinstance(refused, SingularSystemError)
        assert "runaway" in str(refused)
        for index in (0, 2):
            theta, stats = answers[index]
            assert np.array_equal(theta, other.solver.solve(currents[index]))
            assert stats["solves"] == 1


class TestBatchEdgeCases:
    @pytest.mark.parametrize("mode", SOLVER_MODES)
    def test_empty_batch(self, small_grid, small_power, mode):
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6), solver_mode=mode
        )
        before = model.solver.stats.copy()
        assert model.solver.solve_batch([]) == []
        delta = model.solver.stats.diff(before).as_dict()
        assert not any(_counters(delta).values())

    @pytest.mark.parametrize("mode", SOLVER_MODES)
    def test_single_column_matches_plain_solve(
        self, small_grid, small_power, mode
    ):
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6), solver_mode=mode
        )
        other = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6), solver_mode=mode
        )
        current = 0.5 * model.runaway_current().value
        [(theta, _)] = model.solver.solve_batch([current])
        assert np.array_equal(theta, other.solver.solve(current))

    def test_negative_current_is_rejected(self, small_grid, small_power):
        """``model.solve`` refuses a negative current up front."""
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6)
        )
        with pytest.raises(ValueError, match="current must be >= 0"):
            model.solve(-0.2)

    def test_model_level_batch_matches_states(self, small_grid, small_power):
        """The model's batch answers the states ``model.solve`` gives."""
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6)
        )
        other = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6)
        )
        currents = [0.0, 0.4 * model.runaway_current().value]
        answers = model.solver.solve_batch(currents)
        for (theta, _), current in zip(answers, currents):
            assert np.array_equal(theta, other.solve(current).theta_k)
