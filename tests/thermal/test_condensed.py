"""The condensed ``reuse`` engine (support-last factor, Schur complement).

``reuse`` factors ``S + G`` once per view with the Peltier support
ordered last, reads ``C_S`` off the factor's trailing block, and answers
every current through the spectrum of the pencil ``(diag(d_S), C_S)``
plus one lift solve (:mod:`repro.linalg.condensed`).  These tests pin:

* accuracy against a reference refined with a ``np.longdouble``
  residual, up to 99% of ``lambda_m``, on Table I chips (including
  alpha Full-Cover, m = 288) and a 24x24 greedy deployment;
* refusal at and beyond ``lambda_m`` (and a solve just below it);
* one sparse factorization per reuse view, whatever is solved on it;
* shifted (transient) views and per-device diagonals against direct;
* the runaway eigenpair: session vs standalone bit for bit, and the
  pencil residual;
* the trailing-block check that lets ``C_S`` be read off ``U``.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.experiments.benchmarks import load_benchmark
from repro.linalg import condensed
from repro.linalg.runaway import runaway_current_eigen
from repro.thermal.geometry import TileGrid
from repro.thermal.model import PackageThermalModel
from repro.thermal.session import SingularSystemError, SolveSession

_FRACTIONS = (0.1, 0.5, 0.9, 0.99)


def _gaussian_problem(side, percentile=60.0):
    """A centered-hotspot die whose greedy run covers the hot core."""
    grid = TileGrid(side, side)
    ys, xs = np.divmod(np.arange(side * side), side)
    center = (side - 1) / 2.0
    d2 = ((ys - center) ** 2 + (xs - center) ** 2) * (24.0 / side) ** 2
    shape = (
        0.05
        + 0.5 * np.exp(-d2 / (2.0 * 4.0**2))
        + 0.25 * np.exp(-d2 / (2.0 * 9.0**2))
    )
    power = 0.2 * shape * (24.0 / side) ** 2
    problem = CoolingSystemProblem(
        grid, power, max_temperature_c=1000.0,
        name="condensed-gauss-{0}x{0}".format(side),
    )
    bare = problem.model(()).solve(0.0)
    return problem.with_limit(float(np.percentile(bare.silicon_c, percentile)))


def _greedy_model(problem):
    return problem.model(greedy_deploy(problem).tec_tiles)


@pytest.fixture(scope="module")
def deployed_models():
    """Reuse-backed deployed models, keyed by a short label."""
    alpha = load_benchmark("alpha")
    return {
        "alpha-full-cover": alpha.model(range(alpha.grid.num_tiles)),
        "hc01-greedy": _greedy_model(load_benchmark("hc01")),
        "hc06-greedy": _greedy_model(load_benchmark("hc06")),
        "gauss24-greedy": _greedy_model(_gaussian_problem(24)),
    }


def _fresh(model):
    """A private reuse solver over ``model``'s assembled system."""
    return SolveSession(model.system, mode="reuse").view(None)


def _refined_reference(system, current, sweeps=4):
    """Direct LU solve refined against a ``np.longdouble`` residual."""
    matrix = (system.g_matrix - current * sp.diags(system.d_diagonal)).tocsc()
    lu = splu(matrix)
    power = system.power_vector(current)
    theta = lu.solve(power)
    wide_matrix = matrix.astype(np.longdouble)
    wide_power = power.astype(np.longdouble)
    for _ in range(sweeps):
        residual = wide_power - wide_matrix @ theta.astype(np.longdouble)
        theta = theta + lu.solve(np.asarray(residual, dtype=float))
    return theta


class TestAccuracy:
    @pytest.mark.parametrize("label", [
        "alpha-full-cover", "hc01-greedy", "hc06-greedy", "gauss24-greedy",
    ])
    @pytest.mark.parametrize("fraction", _FRACTIONS)
    def test_matches_refined_reference(self, deployed_models, label, fraction):
        model = deployed_models[label]
        assert model.solver.effective_mode == "reuse"
        lam = model.runaway_current().value
        current = fraction * lam
        reference = _refined_reference(model.system, current)
        theta = _fresh(model).solve(current)
        scale = np.max(np.abs(reference))
        bound = 2e-10 if fraction > 0.9 else 2e-11
        assert np.max(np.abs(theta - reference)) <= bound * scale

    def test_alpha_full_cover_support(self, deployed_models):
        system = deployed_models["alpha-full-cover"].system
        assert np.count_nonzero(system.d_diagonal) == 288


class TestRunawayRefusal:
    @pytest.mark.parametrize("label", ["alpha-full-cover", "gauss24-greedy"])
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-9])
    def test_refused_at_and_beyond_lambda_m(self, deployed_models, label, factor):
        model = deployed_models[label]
        lam = model.runaway_current().value
        solver = _fresh(model)
        with pytest.raises(SingularSystemError, match="runaway"):
            solver.solve(factor * lam)
        with pytest.raises(SingularSystemError, match="runaway"):
            solver.solve_rhs(factor * lam, model.system.p_base)

    @pytest.mark.parametrize("label", ["alpha-full-cover", "gauss24-greedy"])
    def test_refused_far_beyond(self, deployed_models, label):
        solver = _fresh(deployed_models[label])
        with pytest.raises(SingularSystemError):
            solver.solve(1.0e6)

    @pytest.mark.parametrize("label", ["alpha-full-cover", "gauss24-greedy"])
    def test_solves_just_below(self, deployed_models, label):
        model = deployed_models[label]
        lam = model.runaway_current().value
        current = (1.0 - 1e-6) * lam
        theta = _fresh(model).solve(current)
        reference = _refined_reference(model.system, current)
        assert np.all(np.isfinite(theta))
        assert np.max(np.abs(theta - reference)) <= 1e-6 * np.max(np.abs(reference))

    def test_per_device_diagonal_beyond_runaway(self, deployed_models):
        model = deployed_models["hc01-greedy"]
        lam = model.runaway_current().value
        solver = _fresh(model)
        with pytest.raises(SingularSystemError):
            solver.solve_diagonal(
                (1.0 + 1e-6) * lam * model.system.d_diagonal, model.system.p_base
            )


class TestOneFactorizationPerView:
    def test_every_solve_kind_rides_one_factorization(self, deployed_models):
        model = deployed_models["gauss24-greedy"]
        system = model.system
        solver = _fresh(model)
        lam = model.runaway_current().value
        currents = [f * lam for f in (0.05, 0.2, 0.4, 0.6, 0.8)]
        for current in currents:
            solver.solve(current)
        loads = np.column_stack([system.p_base, np.ones(system.num_nodes)])
        solver.solve_rhs(currents[1], loads)
        solver.solve_batch(currents)
        solver.solve_derivatives(currents[3])
        solver.influence_rows(currents[0], [0, 1])
        solver.solve_diagonal(currents[2] * system.d_diagonal, system.p_base)
        assert solver.stats.factorizations == 1
        assert solver.session.cache_info()["base_factorizations"] == 1

    def test_runaway_then_solves_share_it(self, small_grid, small_power):
        model = PackageThermalModel(
            small_grid, small_power, tec_tiles=(5, 6, 9, 10), solver_mode="reuse"
        )
        lam = model.runaway_current().value
        for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
            model.solve(fraction * lam)
        assert model.solver.stats.factorizations == 1
        assert model.solver.stats.condensed_factorizations == 1


class TestAgainstDirect:
    def test_shifted_transient_view(self, deployed_models):
        model = deployed_models["hc06-greedy"]
        system = model.system
        lam = model.runaway_current().value
        shift = np.linspace(0.5, 2.0, system.num_nodes)
        reuse = _fresh(model).session.view(shift)
        direct = SolveSession(system, mode="direct").view(shift)
        rhs = np.column_stack([system.p_base, shift * 300.0])
        for fraction in (0.0, 0.3, 0.9):
            current = fraction * lam
            got = reuse.solve_rhs(current, rhs)
            want = direct.solve_rhs(current, rhs)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        assert reuse.stats.factorizations == 1

    def test_multi_pin_diagonal(self, deployed_models):
        model = deployed_models["hc01-greedy"]
        system = model.system
        lam = model.runaway_current().value
        rng = np.random.default_rng(7)
        support = np.flatnonzero(system.d_diagonal)
        reuse = _fresh(model)
        direct = SolveSession(system, mode="direct").view(None)
        for _ in range(3):
            d = np.zeros(system.num_nodes)
            d[support] = system.d_diagonal[support] * rng.uniform(
                0.1, 0.8, size=support.size
            ) * lam
            got = reuse.solve_diagonal(d, system.p_base)
            want = direct.solve_diagonal(d, system.p_base)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_off_support_diagonal_goes_direct(self, deployed_models):
        model = deployed_models["hc01-greedy"]
        system = model.system
        d = np.zeros(system.num_nodes)
        d[0] = 1e-3
        got = _fresh(model).solve_diagonal(d, system.p_base)
        want = SolveSession(system, mode="direct").view(None).solve_diagonal(
            d, system.p_base
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestRunawayPencil:
    @pytest.mark.parametrize("label", ["alpha-full-cover", "gauss24-greedy"])
    def test_session_equals_standalone_bitwise(self, deployed_models, label):
        model = deployed_models[label]
        system = model.system
        session, session_vector = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, return_vector=True,
            condensed=_fresh(model).condensed,
        )
        standalone, standalone_vector = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, return_vector=True,
            lattice=system.lattice,
        )
        assert session.value == standalone.value
        assert np.array_equal(session_vector, standalone_vector)
        assert model.runaway_current().value == standalone.value

    @pytest.mark.parametrize("label", ["alpha-full-cover", "gauss24-greedy"])
    def test_eigenvector_satisfies_the_pencil(self, deployed_models, label):
        model = deployed_models[label]
        system = model.system
        result, vector = runaway_current_eigen(
            system.g_matrix, system.d_diagonal, return_vector=True,
            condensed=model.runaway_condensed(),
        )
        assert math.isfinite(result.value)
        g_v = system.g_matrix @ vector
        residual = g_v - result.value * (system.d_diagonal * vector)
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(g_v)


class TestTrailingBlock:
    @pytest.mark.parametrize("label", [
        "alpha-full-cover", "hc01-greedy", "gauss24-greedy",
    ])
    def test_superlu_keeps_the_support_last(self, deployed_models, label):
        model = deployed_models[label]
        base = _fresh(model).base_factorization()
        assert isinstance(base, condensed.SupportLastFactor)
        assert base.trailing_block_is_support()

    def test_schur_from_u_inverts_the_support_block(self, deployed_models):
        model = deployed_models["gauss24-greedy"]
        solver = _fresh(model)
        pencil = solver.condensed()
        support = pencil.support
        rhs = np.zeros((model.num_nodes, support.size))
        rhs[support, np.arange(support.size)] = 1.0
        z_block = solver.base_factorization().solve(rhs)[support]
        residual = pencil.schur @ z_block - np.eye(support.size)
        assert np.max(np.abs(residual)) <= 1e-12

    def test_reordered_factor_falls_back_to_the_support_solve(
        self, deployed_models, monkeypatch
    ):
        model = deployed_models["hc06-greedy"]
        expected = _fresh(model).condensed().schur
        monkeypatch.setattr(
            condensed.SupportLastFactor, "trailing_block_is_support",
            lambda self: False,
        )
        got = _fresh(model).condensed().schur
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_order_puts_the_support_last(self, deployed_models):
        system = deployed_models["gauss24-greedy"].system
        support = np.flatnonzero(system.d_diagonal)
        order = condensed.support_last_order(
            system.num_nodes, support, system.lattice
        )
        assert np.array_equal(np.sort(order), np.arange(system.num_nodes))
        assert np.array_equal(order[-support.size:], support)
