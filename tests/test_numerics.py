"""Quadrature, root finding, Newton solves and eigensolvers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from edge_lab import edge_metrics as em, numerics, verify
from edge_lab.edge_metrics import G4_WEIGHTS, K9_NODES, K9_WEIGHTS
from edge_lab.numerics import (MACHINE_EPS, BracketError, EvaluationError,
                               NonConvergenceError, SingularJacobianError,
                               brent_root, dense_eigvalsh, lambda_max_iter,
                               newton_solve, uniform_rule)


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
        embedded, exact mirror symmetry, weights summing to 1, and monomials
        exact to degree 13 (3n + 1 for n = 4) but not 14. The table is
        read-only, since every caller shares it."""
        for arr in (K9_NODES, K9_WEIGHTS, G4_WEIGHTS):
            assert arr.dtype == np.float64 and not arr.flags.writeable
        assert len(K9_NODES) == len(K9_WEIGHTS) == 9 and len(G4_WEIGHTS) == 4
        assert np.all((0.0 < K9_NODES) & (K9_NODES < 1.0)) and np.all(np.diff(K9_NODES) > 0)
        assert np.all(K9_WEIGHTS > 0.0) and np.all(G4_WEIGHTS > 0.0)
        g4 = uniform_rule(4)
        np.testing.assert_allclose(K9_NODES[1::2], g4.nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(G4_WEIGHTS, g4.weights, rtol=0, atol=1e-15)
        for i in range(9):
            assert K9_NODES[8 - i] == 1.0 - K9_NODES[i]
            assert K9_WEIGHTS[8 - i] == K9_WEIGHTS[i]
        for i in range(4):
            assert G4_WEIGHTS[3 - i] == G4_WEIGHTS[i]
        assert math.fsum(K9_WEIGHTS) == 1.0 and math.fsum(G4_WEIGHTS) == 1.0
        for j in range(14):
            got = float(np.dot(K9_WEIGHTS, K9_NODES ** j))
            assert abs(got - 1.0 / (j + 1)) <= 1e-15, j
        for j in range(8):
            got = float(np.dot(G4_WEIGHTS, K9_NODES[1::2] ** j))
            assert abs(got - 1.0 / (j + 1)) <= 1e-15, j
        assert abs(float(np.dot(K9_WEIGHTS, K9_NODES ** 14)) - 1.0 / 15) > 1e-12

    def test_kronrod_weights_correctly_rounded(self):
        """Each weight is the interpolatory weight of the stored nodes on
        [0, 1], computed in exact rational arithmetic and rounded once:
        each Lagrange basis polynomial is expanded and integrated."""
        def exact_weights(nodes):
            exact = [Fraction(float(t)) for t in nodes]
            weights = []
            for i, t in enumerate(exact):
                coef, scale = [Fraction(1)], Fraction(1)   # coef[k] multiplies y^k
                for s in exact[:i] + exact[i + 1:]:
                    coef = [lo - s * hi
                            for lo, hi in zip([Fraction(0)] + coef, coef + [Fraction(0)])]
                    scale *= t - s
                weights.append(float(sum(c / (k + 1) for k, c in enumerate(coef)) / scale))
            return np.array(weights)

        assert exact_weights(K9_NODES).tobytes() == K9_WEIGHTS.tobytes()
        assert exact_weights(K9_NODES[1::2]).tobytes() == G4_WEIGHTS.tobytes()

    def test_kronrod_triangular_weights(self):
        """The weights 2 (1 - tau_i) w_i that give rtilde integrate tau^j
        to 2 / ((j+1)(j+2)) for j <= 12."""
        tri = 2.0 * (1.0 - K9_NODES) * K9_WEIGHTS
        for j in range(13):
            exact = 2.0 / ((j + 1) * (j + 2))
            assert abs(float(np.dot(tri, K9_NODES ** j)) - exact) <= 1e-15, j

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

    def test_nonconvergence_after_budget(self):
        """(x - 0.7)^5 is too flat at its root for 100 iterations at this
        tol; scipy's brentq fails on it too."""
        with pytest.raises(NonConvergenceError, match="100 iterations"):
            brent_root(lambda x: (x - 0.7) ** 5, 0.0, 1.0, tol=1e-14)

    def test_non_finite_value_rejected(self):
        with pytest.raises(EvaluationError):
            brent_root(lambda x: x - 0.5 if x != 0.5 else math.nan, 0.0, 1.0)
        with pytest.raises(EvaluationError):
            brent_root(lambda x: math.inf * (x - 0.25) if x < 0.1 else x - 0.25,
                       0.0, 1.0)


_BRENTQ_CASES = [
    (lambda x: x - 0.5, 0.0, 1.0),
    (lambda x: x * x - 2, 1.0, 2.0),
    (lambda t: math.cos(t) - t, 0.0, 1.0),
    (lambda x: x ** 3 - 0.3 * x + 0.01, 0.2, 1.0),
    (lambda x: math.atan(50.0 * (x - 0.3)), -0.1, 1.05),
    (lambda x: math.tanh(x - 0.123456), -1.0, 2.0),
]


class TestBrentMatchesBrentq:
    """``brent_root`` is scipy's ``brentq`` step for step, so its roots
    are bit-equal to scipy's (the tests may import scipy; the package
    does not)."""

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-13, 1e-14])
    @pytest.mark.parametrize("case", range(len(_BRENTQ_CASES)))
    def test_oracle_functions(self, case, tol):
        from scipy.optimize import brentq
        f, lo, hi = _BRENTQ_CASES[case]
        assert brent_root(f, lo, hi, tol=tol) == \
            brentq(f, lo, hi, xtol=tol, rtol=4 * MACHINE_EPS)

    def test_random_quintics(self):
        from scipy.optimize import brentq
        rng = np.random.default_rng(4)
        compared = 0
        for _ in range(300):
            c = rng.standard_normal(6)
            f = lambda x: float(np.polyval(c, x))
            if f(-2.0) * f(2.0) >= 0.0:
                continue
            assert brent_root(f, -2.0, 2.0, tol=1e-14) == \
                brentq(f, -2.0, 2.0, xtol=1e-14, rtol=4 * MACHINE_EPS)
            compared += 1
        assert compared > 100

    def test_bundled_mlp_localization_roots(self, monkeypatch):
        """Every root that localization asks of Brent's method on the
        bundled 533-parameter MLP run, compared with brentq on the same
        profile function."""
        from scipy.optimize import brentq
        model, log = verify._mlp_eos_short()
        table = em.curvature_table(model, log)
        compared = []

        def both(f, lo, hi, tol):
            got = brent_root(f, lo, hi, tol)
            compared.append(got == brentq(f, lo, hi, xtol=tol, rtol=4 * MACHINE_EPS))
            return got

        monkeypatch.setattr(em, "brent_root", both)
        for i in range(0, len(table.k), 15):
            em.localize(model, log, int(table.k[i]), (table.rtilde[i], table.rbar[i]),
                        table.profile(i))
        assert len(compared) >= 30 and all(compared)


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

    @pytest.mark.parametrize("J", [[[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1e-13]]],
                             ids=["rank-one", "zero", "condition-1e13"])
    def test_symmetric_singular_jacobian(self, J):
        J = np.array(J)
        with pytest.raises(SingularJacobianError):
            newton_solve(lambda v: J @ v - 1.0, lambda v: J, np.zeros(2))

    def test_symmetric_condition_number_matches_cond(self):
        """On symmetric matrices, max|lambda| / min|lambda| is the 2-norm
        condition number np.linalg.cond takes from the singular values.
        Both come from backward-stable decompositions, each exact for a
        matrix within about n eps ||A|| of A, which moves max and min by at
        most that much each: the two agree to 4 n eps kappa relative."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            kappa = 10.0 ** rng.uniform(0.0, 8.0)
            lam = np.exp(rng.uniform(0.0, math.log(kappa), n)) * rng.choice([-1.0, 1.0], n)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = (Q * lam) @ Q.T
            A = (A + A.T) / 2.0
            want = np.linalg.cond(A)
            assert numerics._condition_number(A) == pytest.approx(
                want, rel=4 * n * MACHINE_EPS * want)
        assert numerics._condition_number(np.diag([2.0, -1.0, 0.0])) == math.inf
        assert numerics._condition_number(np.zeros((3, 3))) == math.inf
        assert numerics._condition_number(np.array([[math.inf, 1.0], [1.0, 2.0]])) == math.inf

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
            n = int(rng.integers(3, 121))
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

    @pytest.mark.parametrize("start", [1, 2, 4])
    def test_start_on_lower_eigenvector(self, start):
        """The Krylov space of an eigenvector is one-dimensional; the
        breakdown restart still finds the top eigenvalue."""
        H = np.diag([5.0, 3.0, 1.0, -2.0, 0.5, 4.5])
        lam = lambda_max_iter(lambda v: H @ v, 6, v0=np.eye(6)[start])
        assert lam == pytest.approx(5.0, abs=1e-9)

    def test_restart_tests_the_new_block_alone(self):
        """After the restart the stopping test reads the new block only:
        the closed block's Ritz value 4, above the new block's first Ritz
        values, does not end the iteration before it finds 5."""
        H = np.diag([5.0, 4.0] + [0.0] * 38)
        lam = lambda_max_iter(lambda v: H @ v, 40, v0=np.eye(40)[1])
        assert lam == pytest.approx(5.0, abs=1e-9)

    def test_start_in_invariant_subspace(self):
        """A start inside a rotated two-dimensional invariant subspace
        that misses the top eigenvector."""
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        vals = np.linspace(-3.0, 2.0, 40)
        A = (Q * vals) @ Q.T
        A = (A + A.T) / 2
        v0 = Q[:, 3] + 0.5 * Q[:, 10]
        lam = lambda_max_iter(lambda v: A @ v, 40, tol=1e-10, v0=v0)
        assert lam == pytest.approx(2.0, abs=1e-8)

    def test_zero_operator(self):
        assert lambda_max_iter(lambda v: 0.0 * v, 5) == 0.0

    def test_at_least_start_rayleigh_quotient(self):
        """v0 spans the first Lanczos vector, so the largest Ritz value is
        at least its Rayleigh quotient, also when v0 is close to the top
        eigenvector and the two nearly coincide."""
        rng = np.random.default_rng(8)
        for i in range(100):
            n = int(rng.integers(3, 60))
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            top = np.linalg.eigh(A)[1][:, -1]
            v0 = rng.standard_normal(n) if i % 2 else top + 1e-6 * rng.standard_normal(n)
            rq = float(v0 @ A @ v0) / float(v0 @ v0)
            lam = lambda_max_iter(lambda v: A @ v, n, v0=v0, seed=i)
            assert lam >= rq - 4 * MACHINE_EPS * abs(rq)

    def test_products_per_call(self):
        """One operator product per Lanczos vector plus the two of the
        symmetry spot-check, fewer than the dimension on a spread spectrum."""
        rng = np.random.default_rng(9)
        A = rng.standard_normal((200, 200))
        A = (A + A.T) / 2
        calls = []

        def op(v):
            calls.append(1)
            return A @ v

        lam = lambda_max_iter(op, 200, tol=1e-9)
        assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-9)
        assert len(calls) < 200

    def test_ritz_schedule_matches_every_vector(self, monkeypatch):
        """Testing the Ritz value only from the 12th vector on, at every
        3rd, moves the estimate by rounding alone: the reference tests it
        at every vector."""
        rng = np.random.default_rng(12)
        for i in range(40):
            n = int(rng.integers(13, 120))
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2
            v0 = rng.standard_normal(n)
            lam = lambda_max_iter(lambda v: A @ v, n, v0=v0, seed=i)
            with monkeypatch.context() as m:
                m.setattr(numerics, "_RITZ_FROM", 1)
                m.setattr(numerics, "_RITZ_EVERY", 1)
                ref = lambda_max_iter(lambda v: A @ v, n, v0=v0, seed=i)
            assert lam == pytest.approx(ref, rel=1e-13)

    def test_basis_cap(self, monkeypatch):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((50, 50))
        A = (A + A.T) / 2
        monkeypatch.setattr(numerics, "LANCZOS_MAX_VECTORS", 4)
        with pytest.raises(NonConvergenceError, match="4 Lanczos vectors"):
            lambda_max_iter(lambda v: A @ v, 50)
