"""Eta/zeta decomposition and the Theorem 4 convexity certificate."""

import numpy as np
import pytest

from repro.core.convexity import (
    certify_convexity,
    eta_derivative,
    eta_zeta,
    numerical_convexity_check,
)


class TestEtaZeta:
    def test_requires_tecs(self, small_model):
        with pytest.raises(ValueError, match="no TECs"):
            eta_zeta(small_model, 0.0)
        with pytest.raises(ValueError, match="no TECs"):
            eta_derivative(small_model, 0.0)

    def test_nonnegative(self, small_deployed):
        eta, zeta = eta_zeta(small_deployed, 2.0)
        assert np.all(eta >= -1e-12)
        assert np.all(zeta >= -1e-12)

    def test_equation10_reconstructs_temperature(self, small_deployed):
        """theta_k = (r i^2 / 2) eta_k + zeta_k + ambient response."""
        current = 3.0
        eta, zeta = eta_zeta(small_deployed, current)
        device = small_deployed.device
        # the zeta here covers only tile powers; add the ambient
        # contribution via a solve against the ground part of p_base.
        p_ambient = small_deployed.system.p_base.copy()
        p_ambient[small_deployed.silicon_nodes] -= small_deployed.power_map
        ambient_part = small_deployed.solver.solve_rhs(current, p_ambient)[
            small_deployed.silicon_nodes
        ]
        reconstructed = (
            0.5 * device.electrical_resistance * current**2 * eta
            + zeta
            + ambient_part
        )
        state = small_deployed.solve(current)
        assert np.allclose(reconstructed, state.silicon_k, atol=1e-9)

    def test_eta_derivative_matches_finite_difference(self, small_deployed):
        current = 2.0
        h = 1e-5
        eta_plus, _ = eta_zeta(small_deployed, current + h)
        eta_minus, _ = eta_zeta(small_deployed, current - h)
        fd = (eta_plus - eta_minus) / (2.0 * h)
        analytic = eta_derivative(small_deployed, current)
        assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-10)

    def test_eta_derivative_nondecreasing(self, small_deployed):
        """eta convex (Theorem 3) => eta' non-decreasing in i."""
        d0 = eta_derivative(small_deployed, 0.0)
        d5 = eta_derivative(small_deployed, 5.0)
        assert np.all(d5 >= d0 - 1e-12)


class TestCertificate:
    @pytest.fixture(scope="class")
    def certificate(self, small_deployed):
        lam = small_deployed.runaway_current().value
        return certify_convexity(small_deployed, 0.6 * lam, subdivisions=4)

    def test_certified_on_package(self, certificate):
        assert certificate.certified
        assert certificate.margin > 0.0

    def test_interval_structure(self, certificate):
        assert len(certificate.intervals) == 4
        for chk in certificate.intervals:
            assert chk.lower < chk.upper
            assert chk.certified

    def test_solve_count_positive(self, certificate):
        assert certificate.solves > 0

    def test_i_max_validation(self, small_deployed):
        lam = small_deployed.runaway_current().value
        with pytest.raises(ValueError):
            certify_convexity(small_deployed, 1.5 * lam)
        with pytest.raises(ValueError):
            certify_convexity(small_deployed, 0.0)

    def test_parameter_validation(self, small_deployed):
        with pytest.raises(ValueError):
            certify_convexity(small_deployed, 1.0, subdivisions=0)
        with pytest.raises(ValueError):
            certify_convexity(small_deployed, 1.0, samples_per_interval=1)

    def test_certificate_implies_numerical_convexity(self, small_deployed):
        """Cross-check: the certified range really is convex."""
        lam = small_deployed.runaway_current().value
        certificate = certify_convexity(small_deployed, 0.6 * lam, subdivisions=4)
        assert certificate.certified
        convex, worst = numerical_convexity_check(small_deployed, 0.6 * lam)
        assert convex, worst


class TestNumericalCheck:
    def test_passes_on_package(self, small_deployed):
        lam = small_deployed.runaway_current().value
        convex, worst = numerical_convexity_check(small_deployed, 0.8 * lam)
        assert convex

    def test_sample_validation(self, small_deployed):
        with pytest.raises(ValueError):
            numerical_convexity_check(small_deployed, 1.0, samples=2)

    def test_detects_nonconvex_series(self):
        """Sanity: the second-difference detector is not vacuous."""
        series = np.array([0.0, 1.0, 0.0])  # concave spike
        second = series[:-2] - 2.0 * series[1:-1] + series[2:]
        assert second.min() < 0
