"""Quadrature, root finding, Newton solves and eigensolvers."""

import math

import numpy as np
import pytest

from edge_lab.numerics import (BracketError, NonConvergenceError,
                               SingularJacobianError, brent_root, dense_eigvalsh,
                               gauss_kronrod_rule, lambda_max_iter, newton_solve,
                               uniform_rule)


def _integrate(f, rule):
    return float(np.sum(rule.weights * f(rule.nodes)))


class TestQuadrature:
    def test_uniform_trivial(self):
        r = uniform_rule(2)
        assert _integrate(np.ones_like, r) == pytest.approx(1.0, abs=1e-15)
        assert _integrate(lambda t: t, r) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_cubic_two_point(self):
        # integral of t^3 over [0,1] is 1/4; a 2-point rule is exact to degree 3
        assert _integrate(lambda t: t ** 3, uniform_rule(2)) == \
            pytest.approx(0.25, abs=1e-14)

    def test_kronrod_9_rule(self):
        """K9: real interior nodes, positive weights, G4's nodes and weights
        embedded, exact mirror symmetry, weights summing to 1, and monomials exact to degree 13
        (3n + 1 for n = 4) but not 14. The cache hands the same read-only
        arrays to every caller."""
        r = gauss_kronrod_rule(4)
        assert gauss_kronrod_rule(4) is r
        for arr in (r.nodes, r.weights, r.gauss_weights):
            assert not arr.flags.writeable
        assert r.nodes.dtype == np.float64 and len(r.nodes) == 9
        assert np.all((0.0 < r.nodes) & (r.nodes < 1.0)) and np.all(np.diff(r.nodes) > 0)
        assert np.all(r.weights > 0.0) and np.all(r.gauss_weights > 0.0)
        g4 = uniform_rule(4)
        np.testing.assert_allclose(r.nodes[1::2], g4.nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(r.gauss_weights, g4.weights, rtol=0, atol=1e-15)
        for i in range(9):
            assert r.nodes[8 - i] == 1.0 - r.nodes[i]
            assert r.weights[8 - i] == r.weights[i]
        for i in range(4):
            assert r.gauss_weights[3 - i] == r.gauss_weights[i]
        assert math.fsum(r.weights) == 1.0
        for j in range(14):
            assert abs(float(np.dot(r.weights, r.nodes ** j)) - 1.0 / (j + 1)) <= 1e-15, j
        for j in range(8):
            got = float(np.dot(r.gauss_weights, r.nodes[1::2] ** j))
            assert abs(got - 1.0 / (j + 1)) <= 1e-15, j
        assert abs(float(np.dot(r.weights, r.nodes ** 14)) - 1.0 / 15) > 1e-12

    def test_kronrod_triangular_weights(self):
        """The weights 2 (1 - tau_i) w_i that give rtilde integrate tau^j
        to 2 / ((j+1)(j+2)) for j <= 12."""
        r = gauss_kronrod_rule(4)
        tri = 2.0 * (1.0 - r.nodes) * r.weights
        for j in range(13):
            exact = 2.0 / ((j + 1) * (j + 2))
            assert abs(float(np.dot(tri, r.nodes ** j)) - exact) <= 1e-15, j

    def test_kronrod_construction_matches_scipy_gk15(self):
        """At n = 7 the same construction is scipy's G7/K15 rule: the nodes
        scipy evaluates on [0, 1], and its integrals of exp and cos."""
        from scipy.integrate import _quad_vec

        r = gauss_kronrod_rule(7)
        seen = []
        _quad_vec._quadrature_gk15(0.0, 1.0, lambda t: seen.append(t) or 0.0, abs)
        np.testing.assert_allclose(r.nodes, sorted(seen), rtol=0, atol=1e-15)
        for f in (np.exp, np.cos):
            ref, _, _ = _quad_vec._quadrature_gk15(0.0, 1.0, f, abs)
            assert abs(float(np.dot(r.weights, f(r.nodes))) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_monomial_exactness_to_degree(self, order):
        """Rules of order n integrate monomials up to degree 2n-1."""
        ru = uniform_rule(order)
        for k in range(2 * order):
            exact_u = 1.0 / (k + 1)
            got_u = _integrate(lambda t: t ** k, ru)
            assert abs(got_u - exact_u) <= 1e-13 * max(1, exact_u)

    def test_weights_sum_to_one(self):
        for order in (1, 3, 5, 8):
            assert np.sum(uniform_rule(order).weights) == pytest.approx(1.0, abs=1e-13)

    def test_cached_rule_is_read_only(self):
        """The cache hands the same arrays to every caller, so none may write."""
        r = uniform_rule(8)
        assert uniform_rule(8) is r
        for arr in (r.nodes, r.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestBrent:
    def test_linear(self):
        assert brent_root(lambda x: x - 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_sqrt2_vs_bisection_oracle(self):
        lo, hi = 1.0, 2.0
        for _ in range(60):  # plain bisection as an independent oracle
            mid = (lo + hi) / 2
            if (mid * mid - 2) * (lo * lo - 2) <= 0:
                hi = mid
            else:
                lo = mid
        oracle = (lo + hi) / 2
        got = brent_root(lambda x: x * x - 2, 1.0, 2.0, tol=1e-13)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_cos_fixed_point_oracle(self):
        x = 0.5
        for _ in range(200):  # fixed-point iteration x <- cos(x)
            x = math.cos(x)
        got = brent_root(lambda t: math.cos(t) - t, 0.0, 1.0, tol=1e-13)
        assert got == pytest.approx(x, abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            brent_root(lambda x: x * x + 1, 0.0, 1.0)

    def test_empty_bracket(self):
        with pytest.raises(BracketError):
            brent_root(lambda x: x, 1.0, 1.0)


class TestNewton:
    def test_scalar_linear(self):
        x = newton_solve(lambda x: x, lambda x: np.eye(1), 3.0)
        assert abs(x[0]) <= 1e-12

    def test_cube_root(self):
        x = newton_solve(lambda x: x ** 3 - 8, lambda x: np.atleast_2d(3 * x[0] ** 2), 3.0)
        assert x[0] == pytest.approx(2.0, abs=1e-12)

    def test_decoupled_linear(self):
        F = lambda v: np.array([v[0] - 1.0, v[1] + 2.0])
        x = newton_solve(F, lambda v: np.eye(2), np.zeros(2))
        np.testing.assert_allclose(x, [1.0, -2.0], atol=1e-13)

    def test_singular_jacobian(self):
        F = lambda v: np.array([v[0] + v[1] - 1.0, 2 * v[0] + 2 * v[1]])
        J = lambda v: np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularJacobianError):
            newton_solve(F, J, np.zeros(2))

    def test_nonconvergence_reports_history(self):
        # Gradient pathologically scaled so Newton cannot reach tol in 3 steps.
        with pytest.raises(NonConvergenceError) as info:
            newton_solve(lambda x: np.sign(x) * np.sqrt(np.abs(x)) + 1e3,
                         lambda x: np.eye(1), 0.1, tol=1e-16, max_iter=3)
        assert len(info.value.history) >= 3


class TestDenseEigvalsh:
    def test_diag(self):
        np.testing.assert_allclose(dense_eigvalsh(np.diag([2.0, 1.0])), [1.0, 2.0])

    def test_offdiag_pair(self):
        vals = dense_eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)

    def test_invariants_500_random(self):
        """Ascending eigenvalues whose sum is the trace and whose sum of
        squares is the squared Frobenius norm."""
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            vals = dense_eigvalsh(A)
            scale = np.max(np.abs(A))
            assert np.all(np.diff(vals) >= 0.0)
            assert abs(vals.sum() - np.trace(A)) <= 1e-10 * n * scale
            assert abs(vals @ vals - np.sum(A * A)) <= 1e-10 * n * n * scale ** 2

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            dense_eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLambdaMax:
    def test_diag(self):
        H = np.diag([3.0, 1.0])
        assert lambda_max_iter(lambda v: H @ v, 2, seed=0) == pytest.approx(3.0, abs=1e-9)

    def test_largest_algebraic_not_magnitude(self):
        H = np.diag([-5.0, 2.0])
        assert lambda_max_iter(lambda v: H @ v, 2, seed=0) == pytest.approx(2.0, abs=1e-9)

    def test_matches_dense_on_200_random(self):
        rng = np.random.default_rng(1)
        for i in range(200):
            n = int(rng.integers(3, 25))
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            lam = lambda_max_iter(lambda v: A @ v, n, tol=1e-10, seed=i)
            assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], abs=1e-7)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((20, 20))
        A = (A + A.T) / 2
        a = lambda_max_iter(lambda v: A @ v, 20, seed=11)
        b = lambda_max_iter(lambda v: A @ v, 20, seed=11)
        assert a == b

    def test_asymmetric_operator_rejected(self):
        B = np.array([[0.0, 1.0, 0], [0.0, 0.0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError, match="symmetry"):
            lambda_max_iter(lambda v: B @ v, 3, seed=0)
