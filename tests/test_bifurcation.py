"""Critical points, center solves, period-two branches, and the linear net."""

import math

import numpy as np
import pytest

from edge_lab import bifurcation as bf
from edge_lab.loss_models import (balanced_minimizer, make_quadratic,
                                  make_scalar_poly, make_two_layer_linear)
from edge_lab.numerics import SingularJacobianError, dense_eigh, fd_step


QUARTIC = make_scalar_poly(1.0, 0.0, -1.0)    # soft quartic: branch above 2
CUBIC = make_scalar_poly(1.0, 1.0, 0.0)       # asymmetric basin at 0
HARDENING = make_scalar_poly(1.0, 0.0, 1.0)   # branch below the threshold


def _linear_net():
    w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
    S, _ = geom.normal_basis()
    return w_bar, geom, S


class TestEdgeCoupling:
    def test_centered_identity(self):
        rng = np.random.default_rng(0)
        model = make_quadratic(np.diag([3.0, 1.0]))
        coupling = bf.EdgeCoupling(0.5, model)
        for _ in range(10):
            m = rng.standard_normal(2)
            a = rng.standard_normal(2)
            lhs = coupling.value(m - a, m + a)
            rhs = 2.0 * coupling.reduced(m, a)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


class TestCriticalPoint:
    def test_quadratic_one_step(self):
        model = make_quadratic(np.diag([3.0, 1.0]), np.array([0.3, -0.7]))
        w = bf.find_critical_point(model, np.zeros(2))
        np.testing.assert_allclose(w, [0.3, -0.7], atol=1e-12)

    def test_quartic_symmetric_well(self):
        w = bf.find_critical_point(QUARTIC, np.array([0.01]))
        assert abs(w[0]) <= 1e-12

    def test_linear_net_minimum_manifold(self):
        """Newton restricted off the kernel lands back on the minimum set."""
        w_bar, geom, _ = _linear_net()
        rng = np.random.default_rng(1)
        w0 = w_bar + 1e-2 * rng.standard_normal(w_bar.size)
        w = bf.find_critical_point(geom.model, w0, tol=1e-13)
        assert geom.model.value(w) <= 1e-20


class TestCenterSolve:
    def test_zero_amplitude(self):
        sol = bf.center_solve(CUBIC, np.array([0.0]), np.array([0.0]))
        np.testing.assert_allclose(sol.m, [0.0], atol=1e-14)

    def test_even_loss_center_stays_put(self):
        for a in (0.1, 0.3, 0.5):
            sol = bf.center_solve(QUARTIC, np.array([0.0]), np.array([a]))
            assert abs(sol.m[0]) <= 1e-12

    def test_evenness_in_amplitude(self):
        for a in (0.05, 0.12):
            plus = bf.center_solve(CUBIC, np.array([0.0]), np.array([a]))
            minus = bf.center_solve(CUBIC, np.array([0.0]), np.array([-a]))
            assert plus.m[0] == pytest.approx(minus.m[0], abs=1e-12)

    def test_cubic_taylor_prediction_quartic_decay(self):
        """Leading center shift is -(1/2) H^{-1} d3[a,a,.], error O(a^4)."""
        errs = []
        for a in (1e-2, 1e-3):
            sol = bf.center_solve(CUBIC, np.array([0.0]), np.array([a]), tol=1e-15)
            predicted = -0.5 * (1.0 / 1.0) * CUBIC.third_derivative(0.0) * a * a
            errs.append(abs(sol.m[0] - predicted))
        ratio = errs[0] / errs[1]
        assert 3e3 <= ratio <= 3e4   # quartic error decay across one decade

    def test_amplitude_halving_reported(self):
        # Requested amplitude far outside the basin forces retries.
        sol = bf.center_solve(CUBIC, np.array([0.0]), np.array([3.0]), tol=1e-12)
        assert sol.halvings > 0
        assert abs(sol.a[0]) < 3.0


class TestEdgeProfile:
    def test_quartic_closed_form(self):
        for a in (0.1, 0.4, 0.6):
            sol = bf.center_solve(QUARTIC, np.array([0.0]), np.array([a]))
            value, grad = bf.edge_profile(QUARTIC, sol)
            assert value == pytest.approx(0.5 * a * a - 0.25 * a ** 4, abs=1e-13)
            assert grad[0] == pytest.approx(a - a ** 3, abs=1e-12)

    def test_profile_value_at_zero(self):
        sol = bf.center_solve(CUBIC, np.array([0.0]), np.array([0.0]))
        value, grad = bf.edge_profile(CUBIC, sol)
        assert value == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-13)

    def test_profile_even_in_amplitude(self):
        """The reduced coupling value is even in the half-amplitude."""
        for model in (CUBIC, QUARTIC):
            for a in (0.08, 0.2):
                coupling = bf.EdgeCoupling(0.5, model)
                plus = bf.center_solve(model, np.array([0.0]), np.array([a]),
                                       tol=1e-14)
                minus = bf.center_solve(model, np.array([0.0]), np.array([-a]),
                                        tol=1e-14)
                lhs = coupling.reduced(plus.m, plus.a)
                rhs = coupling.reduced(minus.m, minus.a)
                assert abs(lhs - rhs) <= 1e-12

    def test_profile_hessian_at_zero_is_curvature(self):
        """Second difference of the profile gradient recovers L'' at the
        critical point, for a model whose center genuinely moves."""
        h = fd_step(2)
        vals = []
        for a in (-h, 0.0, h):
            sol = bf.center_solve(CUBIC, np.array([0.0]), np.array([a]), tol=1e-15)
            _, grad = bf.edge_profile(CUBIC, sol)
            vals.append(grad[0])
        second = (vals[2] - vals[0]) / (2 * h)
        assert second == pytest.approx(CUBIC.second_derivative(0.0), abs=1e-5)


class TestPeriodTwoSolve:
    def test_quartic_amplitude(self):
        bp = bf.period_two_solve(QUARTIC, np.array([0.0]), 2.5, np.array([0.3]))
        assert not bp.trivial
        assert bp.amplitude == pytest.approx(math.sqrt(0.2), rel=1e-10)
        assert bp.raw_ok
        assert bp.residual <= 1e-10

    def test_at_threshold_trivial(self):
        bp = bf.period_two_solve(QUARTIC, np.array([0.0]), 2.0, np.array([0.05]))
        assert bp.trivial

    def test_below_threshold_trivial(self):
        bp = bf.period_two_solve(QUARTIC, np.array([0.0]), 1.5, np.array([0.2]))
        assert bp.trivial

    def test_swap_symmetry(self):
        plus = bf.period_two_solve(QUARTIC, np.array([0.0]), 2.5, np.array([0.3]))
        minus = bf.period_two_solve(QUARTIC, np.array([0.0]), 2.5, np.array([-0.3]))
        np.testing.assert_allclose(plus.a, -minus.a, atol=1e-12)
        np.testing.assert_allclose(plus.m, minus.m, atol=1e-12)

    def test_hardening_subcritical_orbit(self):
        """With a positive quartic coefficient the orbit lives below the
        threshold, at amplitude^2 = 2/eta - lam exactly."""
        bp = bf.period_two_solve(HARDENING, np.array([0.0]), 1.8, np.array([0.3]))
        assert not bp.trivial
        assert bp.amplitude ** 2 == pytest.approx(2 / 1.8 - 1.0, rel=1e-12)
        assert bp.raw_ok

    def test_linear_net_orbit(self):
        w_bar, geom, S = _linear_net()
        eta = 1.05 * 0.5
        u_c = geom.sharp_direction()
        exists, alpha_sq = bf.branch_predict(eta, 0.5, -4.0)
        assert exists
        bp = bf.period_two_solve(geom.model, w_bar, eta,
                                 math.sqrt(alpha_sq) * u_c, subspace=S)
        assert not bp.trivial
        assert bp.raw_ok
        assert bp.raw_residual <= 1e-8 * (1 + np.linalg.norm(bp.m - bp.a))
        # the orbit stays aligned with the sharp direction
        overlap = abs(float(bp.a @ u_c)) / bp.amplitude
        assert overlap == pytest.approx(1.0, abs=1e-6)


class TestQuarticCoefficient:
    def test_soft_quartic(self):
        Q = bf.quartic_coefficient(QUARTIC, np.array([0.0]), np.array([1.0]))
        assert Q == pytest.approx(-1.0, abs=1e-7)

    def test_cubic_correction(self):
        # pure cubic model: (1/6)*0 - (1/2)*(d3)^2/lam = -2 for d3=2, lam=1
        Q = bf.quartic_coefficient(CUBIC, np.array([0.0]), np.array([1.0]))
        assert Q == pytest.approx(-2.0, abs=1e-6)

    def test_homogeneity_degree_four(self):
        for model, expected in ((QUARTIC, -1.0), (CUBIC, -2.0)):
            base = bf.quartic_coefficient(model, np.array([0.0]), np.array([1.0]))
            for t in (0.5, 2.0):
                scaled = bf.quartic_coefficient(model, np.array([0.0]),
                                                np.array([t]))
                assert scaled == pytest.approx(t ** 4 * base, rel=1e-6)

    def test_linear_net_sharp_direction(self):
        w_bar, geom, S = _linear_net()
        Q = bf.quartic_coefficient(geom.model, w_bar, geom.sharp_direction(), S)
        assert Q == pytest.approx(-4.0, abs=1e-4)

    def test_singular_hessian_needs_subspace(self):
        w_bar, geom, _ = _linear_net()
        with pytest.raises(SingularJacobianError, match="subspace"):
            bf.quartic_coefficient(geom.model, w_bar, geom.sharp_direction())


class TestCriticalEta:
    def test_scalar(self):
        eta_c, basis = bf.critical_eta(make_quadratic(np.array([[1.0]])),
                                       np.array([0.0]))
        assert eta_c == pytest.approx(2.0, abs=1e-14)
        assert basis.shape == (1, 1)

    def test_linear_net(self):
        w_bar, geom, S = _linear_net()
        eta_c, basis = bf.critical_eta(geom.model, w_bar, S)
        assert eta_c == pytest.approx(0.5, abs=1e-10)
        assert basis.shape[1] == 1
        overlap = abs(float(basis[:, 0] @ geom.sharp_direction()))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_no_positive_curvature(self):
        model = make_quadratic(np.array([[-1.0]]))
        with pytest.raises(bf.NoBranchError, match="no positive curvature"):
            bf.critical_eta(model, np.array([0.0]))

    def test_transverse_spectrum_matches_dense(self):
        w_bar, geom, S = _linear_net()
        analytic = geom.transverse_spectrum()
        np.testing.assert_allclose(analytic, [4.0, 3.0, 3.0, 2.0], atol=1e-12)
        H_red = S.T @ geom.model.hessian_dense(w_bar) @ S
        numeric = np.sort(dense_eigh(H_red)[0])[::-1]
        np.testing.assert_allclose(numeric, analytic, atol=1e-8)


class TestBranchPrediction:
    def test_soft_side(self):
        exists, alpha_sq = bf.branch_predict(2.5, 2.0, -1.0)
        assert exists and alpha_sq == pytest.approx(0.2, abs=1e-15)

    def test_wrong_side(self):
        exists, _ = bf.branch_predict(1.5, 2.0, -1.0)
        assert not exists

    def test_hardening_side_matches_direct_solve(self):
        exists, alpha_sq = bf.branch_predict(1.8, 2.0, 1.0)
        assert exists
        assert alpha_sq == pytest.approx(1.0 / 9.0, abs=1e-14)
        bp = bf.period_two_solve(HARDENING, np.array([0.0]), 1.8, np.array([0.3]))
        assert bp.amplitude ** 2 == pytest.approx(alpha_sq, rel=1e-10)

    def test_degenerate_quartic(self):
        with pytest.raises(bf.NoBranchError, match="degenerate branch"):
            bf.branch_predict(2.5, 2.0, 0.0)


class TestBranchSweep:
    def test_quartic_amplitude_law_near_threshold(self):
        """Within 5% of the critical step size the predicted amplitude is
        good to 2% relative."""
        etas = np.linspace(2.002, 2.1, 8)
        points, lost = bf.branch_sweep(QUARTIC, np.array([0.0]), etas,
                                       "continuation", u=np.array([1.0]))
        assert not lost
        for eta, p in zip(etas, points):
            _, alpha_sq = bf.branch_predict(eta, 2.0, -1.0)
            assert p.amplitude == pytest.approx(math.sqrt(alpha_sq), rel=0.02)

    def test_quartic_exponent(self):
        etas = 2.0 + np.logspace(math.log10(0.002), math.log10(0.2), 12)
        points, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas,
                                    "continuation", u=np.array([1.0]))
        slope = bf.fit_scaling_exponent(etas, [p.amplitude for p in points], 2.0)
        assert abs(slope - 0.5) <= 0.02

    def test_empirical_below_threshold_collapses(self):
        etas = [1.7, 1.9]
        points, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas, "empirical",
                                    u=np.array([1.0]), run_steps=800)
        for p in points:
            assert p.amplitude <= 1e-6

    def test_empirical_matches_continuation(self):
        etas = [2.05, 2.1, 2.2]
        emp, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas, "empirical",
                                 u=np.array([1.0]), run_steps=4000)
        cont, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas,
                                  "continuation", u=np.array([1.0]))
        for e, c in zip(emp, cont):
            assert e.amplitude == pytest.approx(c.amplitude, rel=1e-6)

    def test_linear_net_empirical_matches_continuation(self):
        """Raw-dynamics amplitudes track the continuation branch to 5%
        while only the sharp mode is unstable."""
        w_bar, geom, S = _linear_net()
        etas = [0.51, 0.525, 0.55]      # eta_c = 0.5; next mode flips at 2/3
        u_c = geom.sharp_direction()
        emp, _ = bf.branch_sweep(geom.model, w_bar, etas, "empirical",
                                 u=u_c, run_steps=4000)
        cont, lost = bf.branch_sweep(geom.model, w_bar, etas, "continuation",
                                     u=u_c, subspace=S)
        assert not lost
        for e, c in zip(emp, cont):
            assert e.amplitude == pytest.approx(c.amplitude, rel=0.05)

    def test_width_invariant_branch(self):
        """Orbits at padded hidden widths carry identical amplitude and
        profile value."""
        M = np.diag([2.0, 1.0])
        results = {}
        for h in (2, 4):
            w_bar, geom = balanced_minimizer(M, h)
            S, _ = geom.normal_basis()
            bp = bf.period_two_solve(geom.model, w_bar, 0.55,
                                     0.3 * geom.sharp_direction(), subspace=S)
            results[h] = bp
        assert abs(results[2].amplitude - results[4].amplitude) <= 1e-10
        assert abs(results[2].profile_value - results[4].profile_value) <= 1e-10


class TestCouplingHessianForms:
    def test_subcritical_sign(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        diag, anti = bf.edge_coupling_hessian(model, np.zeros(2), 0.5,
                                              np.array([1.0, 0.0]))
        assert diag == pytest.approx(6.0, abs=1e-12)
        assert anti == pytest.approx(-2.0, abs=1e-12)

    def test_supercritical_sign_flip(self):
        model = make_quadratic(np.diag([5.0, 1.0]))
        _, anti = bf.edge_coupling_hessian(model, np.zeros(2), 0.5,
                                           np.array([1.0, 0.0]))
        assert anti == pytest.approx(2.0, abs=1e-12)

    def test_kernel_exactly_at_threshold(self):
        model = make_quadratic(np.diag([4.0, 1.0]))
        _, anti = bf.edge_coupling_hessian(model, np.zeros(2), 0.5,
                                           np.array([1.0, 0.0]))
        assert anti == pytest.approx(0.0, abs=1e-12)
