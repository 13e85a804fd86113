"""End-to-end behaviour of the geometric-multigrid solver tier.

The ``mg`` backend answers ``(G - i D) theta = p`` with one
aggregation hierarchy per view — built on the current-independent base
operator, applied matrix-free through the lattice stencil, with the
Peltier ``-iD`` term as a fine-level diagonal correction — so these
tests pin the contracts the backend adds on top of the generic
multigrid algebra (:mod:`tests.linalg.test_multigrid`):

* differential accuracy against the direct backend to 1e-9 K across
  currents up to 95% of the runaway limit;
* hierarchy economics — built exactly once per view across currents,
  batches and rounds, aggregation plan shared across sibling views;
* end-to-end routing: ``backend="mg"`` through a sweep scenario and
  through the serve tier's default-backend config, bit-stably.
"""

import pickle

import numpy as np
import pytest

from repro.thermal import session
from repro.thermal.model import PackageThermalModel

_TILES = (5, 6, 9, 10)


@pytest.fixture
def make_model(small_grid, small_power):
    """A fresh deployed model per call — private session and stats."""

    def build(mode="mg", **kwargs):
        return PackageThermalModel(
            small_grid, small_power, tec_tiles=_TILES,
            solver_mode=mode, **kwargs,
        )

    return build


@pytest.fixture
def tight_cg(monkeypatch):
    """CG residual target 1e-12 for the 1e-9 K differential (the
    backend's own 1e-10 serves the 1e-6 K cross-backend checks)."""
    monkeypatch.setattr(session, "MG_RTOL", 1e-12)


def _probe_currents(model):
    lam = model.runaway_current().value
    return [0.0, 0.3 * lam, 0.6 * lam, 0.8 * lam, 0.9 * lam]


def _differential_tolerance(reference):
    """1e-9 K absolute, relative (1e-12 of the peak) once the state
    passes 1000 K.  Near runaway the states reach tens of thousands of
    kelvin, where 1e-9 K is below what CG at rtol 1e-12 guarantees; the
    relative criterion then holds for any ``lambda_m`` within a few
    ulps of the exact one."""
    return max(1e-9, 1e-12 * np.max(np.abs(reference)))


class TestMgDifferential:
    def test_matches_direct_to_1e9_kelvin(self, make_model, tight_cg):
        """mg-CG at rtol 1e-12 agrees with the per-current SPD factor to
        1e-9 K (relative to the peak past 1000 K) on every probe current
        up to 90% of the runaway limit — and genuinely through the
        multigrid path (zero fallbacks)."""
        direct = make_model("direct")
        mg = session.SolveSession(direct.system, mode="mg").view(None)
        for current in _probe_currents(direct):
            reference = direct.solver.solve(current)
            theta = mg.solve(current)
            assert np.max(np.abs(theta - reference)) <= (
                _differential_tolerance(reference)
            )
        assert mg.stats.mg_fallbacks == 0
        assert mg.stats.mg_solves == len(_probe_currents(direct))

    @pytest.mark.parametrize("ulps", range(-20, 21))
    def test_criterion_holds_within_20_ulps_of_lambda_m(
        self, make_model, tight_cg, ulps
    ):
        """The probes scale with ``lambda_m``; moving it by up to 20
        ulps either way (a reordered factorization or reduction does
        that) must not flip the differential."""
        direct = make_model("direct")
        lam = direct.runaway_current().value
        step = np.inf if ulps > 0 else -np.inf
        for _ in range(abs(ulps)):
            lam = float(np.nextafter(lam, step))
        mg = session.SolveSession(direct.system, mode="mg").view(None)
        for current in (0.3 * lam, 0.6 * lam, 0.8 * lam, 0.9 * lam):
            reference = direct.solver.solve(current)
            theta = mg.solve(current)
            assert np.max(np.abs(theta - reference)) <= (
                _differential_tolerance(reference)
            )
        assert mg.stats.mg_fallbacks == 0

    def test_near_runaway_matches_to_machine_relative(
        self, make_model, tight_cg
    ):
        """At 95% of ``lambda_m`` the solution norm is ~1e5 K (the
        system is nearly singular), so the criterion switches to
        relative: both backends carry the same near-runaway solution
        to ~100x machine epsilon."""
        direct = make_model("direct")
        current = 0.95 * direct.runaway_current().value
        mg = session.SolveSession(direct.system, mode="mg").view(None)
        reference = direct.solver.solve(current)
        theta = mg.solve(current)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(theta - reference)) <= 1e-12 * scale
        assert mg.stats.mg_fallbacks == 0

    def test_batch_matches_serial_bitwise(self, make_model):
        model = make_model("mg")
        currents = _probe_currents(model)[:3]
        serial = [model.solver.solve(i).copy() for i in currents]
        fresh = make_model("mg")
        batch = fresh.solver.solve_batch(currents)
        for j, reference in enumerate(serial):
            np.testing.assert_array_equal(batch.temperatures[:, j], reference)

    def test_assembled_system_carries_the_lattice(self, make_model):
        system = make_model("mg").system
        assert system.lattice is not None
        assert system.lattice.num_nodes == system.num_nodes
        # The tile grid covers most nodes; periphery rings stay off.
        on = system.lattice.on_lattice()
        assert 0 < np.count_nonzero(~on) < np.count_nonzero(on)


class TestHierarchyEconomics:
    def test_hierarchy_built_once_per_view(self, make_model):
        model = make_model("mg")
        currents = _probe_currents(model)
        for current in currents:
            model.solver.solve(current)
        model.solver.solve_batch(list(reversed(currents)))
        stats = model.solver.stats
        assert stats.mg_hierarchies == 1
        assert stats.mg_solves >= len(currents)
        assert stats.mg_cycles > 0
        assert model.session.cache_info()["mg_hierarchies"] == 1

    def test_plan_shared_across_sibling_views(self, make_model):
        model = make_model("mg")
        model.solver.solve(0.4)
        session = model.session
        assert session._mg_plan is not None
        shift = 0.5 + 0.01 * np.arange(model.num_nodes)
        view = session.view(shift)
        view.solve_rhs(0.4, np.ones(model.num_nodes))
        assert model.solver.stats.mg_hierarchies == 2
        # The shifted view re-Galerkins through the shared aggregation
        # plan instead of re-aggregating: the plan arrays are the same
        # objects, not equal copies.
        for mine, theirs in zip(view._mg.plan, session._mg_plan):
            assert mine is theirs

    def test_zero_current_stays_matrix_free(self, make_model):
        """i = 0 (no Peltier diagonal) must not build the base LU the
        historical shortcut used — the hierarchy answers it."""
        model = make_model("mg")
        model.solver.solve(0.0)
        assert model.solver.stats.mg_solves == 1
        assert model.solver.stats.mg_fallbacks == 0
        assert model.session.cache_info()["base_factorizations"] == 0
        assert model.session.cache_info()["lu_entries"] == 0

    def test_mg_mode_is_a_solver_mode_everywhere(self):
        from repro.cli import _BACKENDS
        from repro.thermal.session import SOLVER_MODES

        assert "mg" in SOLVER_MODES
        assert "mg" in _BACKENDS


class TestMgStateAccounting:
    def test_solver_state_bytes_counts_the_hierarchy(self, make_model):
        model = make_model("mg")
        model.solver.solve(0.4)
        hierarchy = model.solver._mg
        assert hierarchy is not None
        assert hierarchy.operator_bytes() > 0
        assert model.solver.solver_state_bytes() >= hierarchy.operator_bytes()

    def test_fork_drops_the_hierarchy_then_rebuilds(self, make_model):
        model = make_model("mg")
        currents = _probe_currents(model)[:2]
        warm = [model.solver.solve(i).copy() for i in currents]
        clone = pickle.loads(pickle.dumps(model))
        assert clone.solver._mg is None  # dropped with the live splu
        for current, reference in zip(currents, warm):
            np.testing.assert_array_equal(clone.solver.solve(current), reference)
        assert clone.solver.stats.mg_hierarchies >= 1


class TestMgThroughSweep:
    def _scenario(self, backend, name):
        from repro.sweep import Scenario

        power = [0.08] * 16
        for tile in _TILES:
            power[tile] = 0.55
        return Scenario(
            name=name, task="solve", rows=4, cols=4, power_map=tuple(power),
            tec_tiles=_TILES, current_a=0.4, backend=backend,
        )

    def test_mg_scenario_agrees_with_direct(self):
        from repro.sweep import run_sweep
        from repro.sweep import worker as sweep_worker

        sweep_worker.clear_caches()
        report = run_sweep(
            [self._scenario("mg", "mg"), self._scenario("direct", "direct")]
        )
        assert report.ok
        mg = report.result_for("mg").values
        direct = report.result_for("direct").values
        assert mg["peak_c"] == pytest.approx(direct["peak_c"], abs=1e-6)

    def test_mg_scenario_is_bit_stable(self):
        from repro.sweep import run_sweep
        from repro.sweep import worker as sweep_worker

        values = []
        for _ in range(2):
            sweep_worker.clear_caches()
            report = run_sweep([self._scenario("mg", "mg")])
            assert report.ok
            values.append(report.result_for("mg").values)
        assert values[0] == values[1]


class TestMgThroughServe:
    def test_default_backend_mg_routes_and_is_bit_stable(self):
        from tests.serve.helpers import (
            asgi_request,
            small_solve_body,
            with_app,
        )

        async def defaulted(app):
            return await asgi_request(
                app, "POST", "/solve", small_solve_body()
            )

        async def explicit(app):
            return await asgi_request(
                app, "POST", "/solve", small_solve_body(backend="mg")
            )

        status_a, a = with_app(defaulted, default_backend="mg")
        status_b, b = with_app(explicit)
        assert status_a == 200 and status_b == 200
        # The server default and the per-request backend name the same
        # pool entry and produce bit-identical values.
        assert a["pool_key"] == b["pool_key"]
        assert a["results"][0]["values"] == b["results"][0]["values"]
