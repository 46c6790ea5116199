"""The edge coupling, critical points, period-two branches, and the linear net."""

import math

import numpy as np
import pytest

from edge_lab import bifurcation as bf
from edge_lab import cli
from edge_lab.loss_models import (ScalarPolyModel, TwoLayerLinearModel,
                                  balanced_minimizer, make_mlp, make_quadratic,
                                  make_scalar_poly, make_synthetic_dataset,
                                  make_two_layer_linear)
from edge_lab.numerics import MACHINE_EPS, SingularJacobianError, dense_eigvalsh
from edge_lab.trajectory import run_gd


QUARTIC = make_scalar_poly(1.0, 0.0, -1.0)    # soft quartic: branch above 2
CUBIC = make_scalar_poly(1.0, 1.0, 0.0)       # asymmetric basin at 0
HARDENING = make_scalar_poly(1.0, 0.0, 1.0)   # branch below the threshold

# The soft quartic's exact normal form: eta_c = 2 / lam, Q_u = beta.
QUARTIC_NORMAL_FORM = {"eta_c": 2.0, "Q_u": -1.0}

# Central-difference step balancing truncation and rounding at unit scale.
FD_STEP = MACHINE_EPS ** (1.0 / 3.0)


def _linear_net():
    w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
    S, _ = geom.normal_basis()
    return w_bar, geom, S


def _wide_linear_net():
    """A net of the benchmark's shape: a rank-3 10 x 20 target with
    singular values 2, 1, 0.5 at hidden width 6 (dim 180, 81 normal
    directions)."""
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    w_bar, geom = balanced_minimizer((U * [2.0, 1.0, 0.5]) @ V.T, 6, rank=3)
    S, _ = geom.normal_basis()
    return w_bar, geom, S


def _benchmark_net(seed=0):
    """The ``bifurcate`` benchmark's net, built as the command builds it:
    hidden width 6 on the rank-3 least-squares target of dataset seed
    11 + seed (dim 180, 81 normal directions)."""
    res = cli._resolve_bifurcate({"model": {
        "kind": "two_layer_linear", "hidden": 6, "rank": 3,
        "dataset": {"seed": 11 + seed, "n": 200, "d_in": 20, "d_out": 10,
                    "teacher_spectrum": [2.0, 1.0, 0.5]}},
        "etas": [0.51]})["model"]
    w_bar, geom = balanced_minimizer(cli._linear_target(res), 6, rank=3)
    S, _ = geom.normal_basis()
    return w_bar, geom, S


def _normal_form(model, w_bar, u, S=None):
    """The sweep's normal-form arguments, as ``bifurcate`` computes them."""
    return {"eta_c": bf.critical_eta(model, w_bar, S)[0],
            "Q_u": bf.quartic_coefficient(model, w_bar, u, S)}


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2: a computed sum of k
    rounded terms, or a chain of k roundings, has at most this relative
    error against the sum of the absolute values it was formed from."""
    u = MACHINE_EPS / 2.0
    return k * u / (1.0 - k * u)


def _absolute(model):
    """(abs_model, K): the model whose gradient and Hessian products at |w|
    and |v| are the model's own expressions with every factor replaced by
    its absolute value, which bound every rounding error of the model's
    kernels, and K, the longest chain of roundings in those kernels.

    For the linear net R = W2 W1 - M becomes |W2| |W1| + |M| (target
    -|M|); its gradient and Hessian products chain a GEMM of inner
    dimension h, one of inner dimension p or d and two additions. The
    scalar quartic's slope has at most six roundings.
    """
    if isinstance(model, TwoLayerLinearModel):
        return (TwoLayerLinearModel(-np.abs(model.M), model.h),
                model.h + max(model.p, model.d) + 2)
    return ScalarPolyModel(abs(model.lam), abs(model.gamma), abs(model.beta)), 6


class TestEdgeCoupling:
    """eta times the coupling gradient is the pair of one-step residuals;
    its zeros are the fixed points and the period-two orbits."""

    def test_residuals_are_scaled_coupling_gradient(self):
        model = make_quadratic(np.diag([3.0, 1.0]), np.array([0.3, -0.7]))
        coupling = bf.EdgeCoupling(0.5, model, np.zeros(2))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        h = FD_STEP
        fd = np.zeros(4)
        for i in range(4):
            e = h * np.eye(4)[i]
            fd[i] = (coupling.value(x + e[:2], y + e[2:])
                     - coupling.value(x - e[:2], y - e[2:])) / (2 * h)
        np.testing.assert_allclose(np.concatenate(coupling.step_residuals(x, y)),
                                   0.5 * fd, atol=1e-8)

    def test_jacobian_differentiates_residuals_on_slice(self):
        w_bar, geom, S = _linear_net()
        coupling = bf.EdgeCoupling(0.55, geom.model, w_bar, S)
        rng = np.random.default_rng(2)
        z = 0.1 * rng.standard_normal(2 * S.shape[1])
        n, h = S.shape[1], FD_STEP

        def residuals(zz):
            return np.concatenate(coupling.step_residuals(zz[:n], zz[n:]))

        fd = np.column_stack([(residuals(z + h * e) - residuals(z - h * e)) / (2 * h)
                              for e in np.eye(2 * n)])
        np.testing.assert_allclose(coupling.step_jacobian(z[:n], z[n:]), fd,
                                   atol=1e-7)

    @pytest.mark.parametrize("model, eta, w0", [
        (make_quadratic(np.diag([3.0, 1.0]), np.array([0.3, -0.7])), 0.5,
         np.array([1.0, 2.0])),
        (QUARTIC, 2.5, np.array([0.3])),
    ], ids=["quadratic", "quartic"])
    def test_gd_step_fixes_the_coefficient(self, model, eta, w0):
        """Along a GD run at eta, the x-half of the residuals vanishes to
        rounding; at any other eta' it is (eta' - eta) grad L(w_k)."""
        log = run_gd(model, w0, eta, 200)
        assert not log.diverged
        origin = np.zeros(model.dim)
        exact = bf.EdgeCoupling(eta, model, origin)
        others = [bf.EdgeCoupling(c * eta, model, origin) for c in (0.9, 1.1)]
        for k in range(log.num_steps):
            x, y = log.w(k), log.w(k + 1)
            tol = 4 * MACHINE_EPS * max(1.0, float(np.linalg.norm(x)))
            assert float(np.linalg.norm(exact.step_residuals(x, y)[0])) <= tol
            g = model.gradient(x)
            for other in others:
                np.testing.assert_allclose(other.step_residuals(x, y)[0],
                                           (other.eta - eta) * g, atol=tol)
        rx = others[1].step_residuals(log.w(0), log.w(1))[0]
        g0 = model.gradient(log.w(0))
        assert float(np.linalg.norm(rx)) >= 0.05 * eta * float(np.linalg.norm(g0))

    def test_classifies_fixed_point_and_orbit(self):
        """Both halves vanish at the quartic's fixed point 0 and at its
        orbit x = -y = sqrt(1 - 2/eta), and nowhere nearby."""
        eta = 2.5
        coupling = bf.EdgeCoupling(eta, QUARTIC, np.array([0.0]))
        x = np.array([math.sqrt(1.0 - 2.0 / eta)])
        for p, q in ((np.zeros(1), np.zeros(1)), (x, -x), (-x, x)):
            for r in coupling.step_residuals(p, q):
                assert abs(r[0]) <= 4 * MACHINE_EPS
        for p, q in ((x, x), (1.1 * x, -1.1 * x), (x, -0.9 * x)):
            assert max(abs(r[0]) for r in coupling.step_residuals(p, q)) > 1e-3

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


class TestPeriodTwoSolve:
    def test_quartic_amplitude(self):
        bp = bf.period_two_solve(QUARTIC, np.array([0.0]), 2.5, np.array([0.3]))
        assert not bp.trivial
        assert bp.amplitude == pytest.approx(math.sqrt(0.2), rel=1e-10)
        assert bp.raw_ok
        assert bp.residual <= 1e-10
        a = bp.amplitude
        assert bp.profile_value == pytest.approx(0.5 * a * a - 0.25 * a ** 4,
                                                 abs=1e-13)

    def test_cubic_center_shift_quartic_decay(self):
        """The orbit center solves the symmetric half of the residuals; its
        leading shift is -(1/2) H^{-1} d3[a, a, .], with error O(a^4)."""
        errs = []
        for alpha in (3e-2, 3e-3):
            eta = 2.0 / (1.0 - 2.0 * alpha * alpha)   # Q_u = -2 on the cubic
            bp = bf.period_two_solve(CUBIC, np.array([0.0]), eta,
                                     np.array([alpha]), tol=1e-15)
            assert not bp.trivial and bp.raw_ok
            predicted = -0.5 * CUBIC.third_derivative(0.0) * bp.amplitude ** 2
            errs.append(abs(bp.m[0] - predicted))
        assert 3e3 <= errs[0] / errs[1] <= 3e4

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
    """The scalar models' contractions are exact in binary floating point
    (small integers times powers of two), so Q_u is too."""

    def test_soft_quartic(self):
        Q = bf.quartic_coefficient(QUARTIC, np.array([0.0]), np.array([1.0]))
        assert Q == -1.0

    def test_cubic_correction(self):
        # pure cubic model: (1/6)*0 - (1/2)*(d3)^2/lam = -2 for d3=2, lam=1
        Q = bf.quartic_coefficient(CUBIC, np.array([0.0]), np.array([1.0]))
        assert Q == -2.0

    def test_homogeneity_degree_four(self):
        for model, expected in ((QUARTIC, -1.0), (CUBIC, -2.0)):
            for t in (0.5, 1.0, 2.0):
                scaled = bf.quartic_coefficient(model, np.array([0.0]),
                                                np.array([t]))
                assert scaled == t ** 4 * expected

    def test_linear_net_sharp_direction(self):
        w_bar, geom, S = _linear_net()
        Q = bf.quartic_coefficient(geom.model, w_bar, geom.sharp_direction(), S)
        assert Q == pytest.approx(-4.0, abs=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_net_within_rounding_of_minus_four(self, seed):
        """On the ``bifurcate`` benchmark's net the sharp mode decouples: d4 = 3, d3 = 3 sqrt(2 sigma_1) u_c and
        H u_c = 2 sigma_1 u_c, so Q_u = 1/2 - 9/2 = -4 for every sigma_1.

        To first order Q = d4/6 - (1/2) d3^T H^{-1} d3 moves by
        |dd4|/6 + |y|^T |dd3| + (1/2) |y|^T |dH| |y| with y = H^{-1} d3.
        Each computed contraction is within eps = gamma(N) of its value
        times the absolute-value contraction D4, D3 = |S|^T d3hat or
        B = |S|^T Hhat |S| of ``_absolute``: N = K + dim + n + max(p, d)
        chains the model's kernels (K), the projection onto the slice
        (dim), the solve on the n slice coordinates and the products with
        the SVD frames that build w_bar, S and u_c (max(p, d)). The
        computed w_bar leaves a residual R = W2 W1 - M of norm
        rho = sqrt(2 L(w_bar)), which adds R-terms of norm at most
        sqrt(2) rho to the Hessian. The bound doubles the first-order sum
        to cover the second-order terms."""
        w_bar, geom, S = _benchmark_net(seed)
        model, u = geom.model, geom.sharp_direction()
        Q = bf.quartic_coefficient(model, w_bar, u, S)

        H = bf._Slice(model, w_bar, S).hessian(np.zeros(S.shape[1]))
        y = np.abs(np.linalg.solve(H, S.T @ model.line_derivatives(w_bar, u)[0]))
        abs_model, K = _absolute(model)
        D3, D4 = abs_model.line_derivatives(np.abs(w_bar), np.abs(u))
        B = abs_model.hvp(np.abs(w_bar), np.abs(S).T) @ np.abs(S)
        eps = _gamma(K + model.dim + S.shape[1] + max(model.p, model.d))
        rho = math.sqrt(2.0 * model.value(w_bar))
        first_order = (eps * (D4 / 6.0 + y @ (np.abs(S).T @ D3) + 0.5 * y @ B @ y)
                       + 0.5 * math.sqrt(2.0) * rho * float(y @ y))
        assert abs(Q + 4.0) <= 2.0 * first_order

    def test_singular_hessian_needs_subspace(self):
        w_bar, geom, _ = _linear_net()
        with pytest.raises(SingularJacobianError, match="subspace"):
            bf.quartic_coefficient(geom.model, w_bar, geom.sharp_direction())

    def test_mlp_has_no_exact_coefficient(self):
        """An MLP has no closed-form line derivatives: an error, no estimate."""
        model = make_mlp([3, 4, 2], "tanh", make_synthetic_dataset(0, 12, 3, 2))
        w = model.init_params(seed=1)
        u = np.ones(model.dim) / math.sqrt(model.dim)
        with pytest.raises(ValueError, match="mlp.*no exact line derivatives"):
            bf.quartic_coefficient(model, w, u)


class TestLineDerivatives:
    """The linear net's L(w + t u) is a quartic in t, so hvp(w + t u, u) is
    quadratic and u^T H(w + t u) u a quadratic in t: the central difference
    of the first and the second difference of the second give
    D^3 L[u, u, .] and D^4 L[u, u, u, u] exactly, up to rounding."""

    @pytest.mark.parametrize("net", [_linear_net, _wide_linear_net],
                             ids=["dim-8", "dim-180"])
    def test_match_differences_of_hvp(self, net):
        """At w_bar and off it, along the sharp direction and a random one.

        Each hvp at x = w +- h u is within gamma(K + 1) A of exact, with
        A = hvphat(|w| + h |u|, |u|) of ``_absolute`` (the extra rounding
        forms x), and u^T of it within gamma(K + dim + 1) |u|^T A. With the
        difference and the division (two more roundings), the central
        difference is within gamma(K + 3) A / h and the second difference
        within 4 gamma(K + dim + 3) |u|^T A / h^2. ``line_derivatives``
        itself is within gamma(K + dim) of its absolute-value contraction
        (its chains are shorter than the slice projection's)."""
        w_bar, geom, S = net()
        model = geom.model
        abs_model, K = _absolute(model)
        rng = np.random.default_rng(3)
        h, dim = 0.5, model.dim
        off = w_bar + 0.1 * S @ rng.standard_normal(S.shape[1])
        random = rng.standard_normal(dim)
        for w in (w_bar, off):
            for u in (geom.sharp_direction(), random / np.linalg.norm(random)):
                d3, d4 = model.line_derivatives(w, u)
                D3, D4 = abs_model.line_derivatives(np.abs(w), np.abs(u))
                A = abs_model.hvp(np.abs(w) + h * np.abs(u), np.abs(u))
                central = (model.hvp(w + h * u, u) - model.hvp(w - h * u, u)) / (2 * h)
                assert np.all(np.abs(d3 - central)
                              <= _gamma(K + 3) * A / h + _gamma(K + dim) * D3)
                q = [float(u @ model.hvp(w + t * u, u)) for t in (-h, 0.0, h)]
                second = (q[0] - 2.0 * q[1] + q[2]) / (h * h)
                assert abs(d4 - second) <= (
                    4 * _gamma(K + dim + 3) * float(np.abs(u) @ A) / (h * h)
                    + _gamma(K + dim) * D4)
                assert abs(d4) > 1e-3 and float(np.linalg.norm(d3)) > 1e-3


class TestSliceHessian:
    """The slice Hessian S^T H S comes from n Hessian-vector products."""

    @pytest.mark.parametrize("net", [_linear_net, _wide_linear_net],
                             ids=["dim-8", "dim-180"])
    def test_matches_projected_dense_hessian(self, net):
        """Exactly symmetric, and within rounding of the dense route
        S^T hessian_dense(x) S, on the normal slice and off the minimum.

        With B = |S|^T Hhat |S| (Hhat the absolute-value Hessian of
        ``_absolute``), the slice route is within gamma(K + dim + 1) B of
        the exact S^T H S (its products, the product with S and the
        symmetrizing sum), and the dense route within
        gamma(K + 2 dim + 1) B (its products, its symmetrizing sum and
        two products with S); the two routes differ by at most the sum."""
        w_bar, geom, S = net()
        model = geom.model
        sl = bf._Slice(model, w_bar, S)
        abs_model, K = _absolute(model)
        rng = np.random.default_rng(0)
        for z in (np.zeros(sl.n), 0.1 * rng.standard_normal(sl.n)):
            x = sl.to_full(z)
            H = sl.hessian(z)
            assert np.array_equal(H, H.T)
            dense = S.T @ model.hessian_dense(x) @ S
            B = abs_model.hvp(np.abs(x), np.abs(S).T) @ np.abs(S)
            dim = model.dim
            tol = (_gamma(K + dim + 1) + _gamma(K + 2 * dim + 1)) * B
            assert np.all(np.abs(H - dense) <= tol)

    @pytest.mark.parametrize("model, w", [
        (QUARTIC, np.array([0.3])),
        (make_quadratic(np.array([[2.0, 0.5], [0.5, 1.0]])), np.array([0.1, -0.2])),
        (make_mlp([3, 4, 2], "tanh", make_synthetic_dataset(0, 12, 3, 2)), None),
    ], ids=["quartic", "quadratic", "mlp"])
    def test_full_space_is_dense_hessian(self, model, w):
        if w is None:
            w = model.init_params(seed=1)
        sl = bf._Slice(model, np.zeros(model.dim), None)
        assert np.array_equal(sl.hessian(w), model.hessian_dense(w))


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
        numeric = dense_eigvalsh(H_red)[::-1]
        np.testing.assert_allclose(numeric, analytic, atol=1e-8)


class TestOrbitResidual:
    """``BranchPoint.residual`` is ||(r_x - r_y) / 2|| / eta of the edge
    coupling's step residuals, the same quantity as the full-space profile
    formula ||S^T (g(m + a) - g(m - a)) / 2 - (2 / eta) S^T a||."""

    @staticmethod
    def _full_space_formula(model, sl, eta, zx, zy):
        m_full = sl.to_full((zx + zy) / 2.0)
        a_full = sl.dir_to_full((zy - zx) / 2.0)
        grad_p = 0.5 * (model.gradient(m_full + a_full) - model.gradient(m_full - a_full))
        return float(np.linalg.norm(sl.to_reduced(grad_p)
                                    - (2.0 / eta) * sl.to_reduced(a_full)))

    @pytest.mark.parametrize("case", ["quartic", "linear-net"])
    def test_equals_full_space_formula(self, case):
        """Both formulas compute the exact value from the same pair
        (zx, zy) through at most D = dim + n + K + 8 chained roundings
        (n slice coordinates; the 8 cover the halvings, sums and the 2/eta
        scaling around the products), each bounded by the absolute values
        V = |S|^T (ghat(x) + ghat(y) + (Hhat(x) + Hhat(y)) P)
        + (2 / eta) |S|^T |S| (|zx| + |zy|), with P = |w_bar| + |S| (|zx| + |zy|)
        the size of the full-space points, whose rounding moves the
        gradients by at most Hhat P gamma: so they differ by at most
        2 gamma(D) ||V||."""
        if case == "quartic":
            model, w_bar, S, eta, a0 = QUARTIC, np.array([0.0]), None, 2.5, np.array([0.3])
        else:
            w_bar, geom, S = _linear_net()
            model, eta = geom.model, 1.05 * 0.5
            _, alpha_sq = bf.branch_predict(eta, 0.5, -4.0)
            a0 = math.sqrt(alpha_sq) * geom.sharp_direction()
        bp = bf.period_two_solve(model, w_bar, eta, a0, subspace=S)
        assert not bp.trivial and bp.raw_ok
        sl = bf._Slice(model, w_bar, S)
        coupling = bf.EdgeCoupling(eta, model, w_bar, S)
        abs_model, K = _absolute(model)
        absS = np.eye(model.dim) if S is None else np.abs(S)
        zx = sl.to_reduced(bp.m - bp.a - w_bar)
        zy = sl.to_reduced(bp.m + bp.a - w_bar)
        # the orbit, where both vanish to rounding, and a pair off it
        for px, py in ((zx, zy), (1.1 * zx, 0.9 * zy)):
            rx, ry = coupling.step_residuals(px, py)
            new = float(np.linalg.norm((rx - ry) / 2.0)) / eta
            old = self._full_space_formula(model, sl, eta, px, py)
            x, y = np.abs(sl.to_full(px)), np.abs(sl.to_full(py))
            P = np.abs(w_bar) + absS @ (np.abs(px) + np.abs(py))
            V = absS.T @ (abs_model.gradient(x) + abs_model.gradient(y)
                          + abs_model.hvp(x, P) + abs_model.hvp(y, P))
            V = V + (2.0 / eta) * absS.T @ absS @ (np.abs(px) + np.abs(py))
            bound = 2.0 * _gamma(model.dim + sl.n + K + 8) * float(np.linalg.norm(V))
            assert abs(new - old) <= bound
            if px is zx:
                assert abs(bp.residual - new) <= bound
            else:
                assert new > 1e-3
        assert bp.residual <= 1e-12 / eta


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
    def test_continuation_needs_normal_form(self):
        """Continuation takes eta_c and Q_u from its caller and never
        computes them itself."""
        with pytest.raises(ValueError, match="pass eta_c and Q_u"):
            bf.branch_sweep(QUARTIC, np.array([0.0]), [2.1], "continuation",
                            u=np.array([1.0]), eta_c=2.0)

    def test_quartic_amplitude_law_near_threshold(self):
        """Within 5% of the critical step size the predicted amplitude is
        good to 2% relative."""
        etas = np.linspace(2.002, 2.1, 8)
        points, lost = bf.branch_sweep(QUARTIC, np.array([0.0]), etas,
                                       "continuation", u=np.array([1.0]),
                                       **QUARTIC_NORMAL_FORM)
        assert not lost
        for eta, p in zip(etas, points):
            _, alpha_sq = bf.branch_predict(eta, 2.0, -1.0)
            assert p.amplitude == pytest.approx(math.sqrt(alpha_sq), rel=0.02)

    def test_quartic_exponent(self):
        etas = 2.0 + np.logspace(math.log10(0.002), math.log10(0.2), 12)
        points, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas,
                                    "continuation", u=np.array([1.0]),
                                    **QUARTIC_NORMAL_FORM)
        slope = bf.fit_scaling_exponent(etas, [p.amplitude for p in points], 2.0)
        assert abs(slope - 0.5) <= 0.02

    def test_exponent_on_the_stated_side(self):
        """Amplitudes |eta - eta_c|^0.5 on each side fit 0.5 on that side
        only; points on the other side are left out, and fewer than two
        on the stated side, or a side that is neither, raise ValueError."""
        gaps = np.array([0.004, 0.02, 0.1])
        for side, sign in (("above", 1.0), ("below", -1.0)):
            etas = np.concatenate([2.0 + sign * gaps, 2.0 - sign * gaps])
            amps = np.concatenate([np.sqrt(gaps), [5.0, 1.0, 3.0]])
            assert bf.fit_scaling_exponent(etas, amps, 2.0, side) == pytest.approx(0.5, abs=1e-12)
            with pytest.raises(ValueError, match=side):
                bf.fit_scaling_exponent(etas[[0, 3, 4]], amps[[0, 3, 4]], 2.0, side)
        with pytest.raises(ValueError, match="side"):
            bf.fit_scaling_exponent(2.0 + gaps, np.sqrt(gaps), 2.0, None)

    def test_empirical_below_threshold_collapses(self):
        etas = [1.7, 1.9]
        points, lost = bf.branch_sweep(QUARTIC, np.array([0.0]), etas, "empirical",
                                       u=np.array([1.0]), run_steps=800)
        for p in points:
            assert p.amplitude <= 1e-6
            assert p.decayed and not p.diverged and not p.orbit
        assert lost

    def test_empirical_matches_continuation(self):
        etas = [2.05, 2.1, 2.2]
        emp, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas, "empirical",
                                 u=np.array([1.0]), run_steps=4000)
        cont, _ = bf.branch_sweep(QUARTIC, np.array([0.0]), etas,
                                  "continuation", u=np.array([1.0]),
                                  **QUARTIC_NORMAL_FORM)
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
                                     u=u_c, subspace=S,
                                     **_normal_form(geom.model, w_bar, u_c, S))
        assert not lost
        for e, c in zip(emp, cont):
            assert e.amplitude == pytest.approx(c.amplitude, rel=0.05)

    def test_coarse_grid_stays_on_branch(self):
        """From eta 0.502 to 0.51 the amplitude more than doubles. Seeded
        with the previous orbit scaled by the predicted amplitude ratio,
        Newton lands on the orbit at 0.51, near the prediction
        sqrt((2/0.51 - 4) / -4) = 0.14003; seeded with the previous orbit
        as it is, it fell to the fixed point and lost the branch."""
        w_bar, geom, S = _benchmark_net()
        u = geom.sharp_direction()
        points, lost = bf.branch_sweep(geom.model, w_bar, [0.502, 0.51],
                                       "continuation", u=u, subspace=S,
                                       **_normal_form(geom.model, w_bar, u, S))
        assert not lost and len(points) == 2
        assert all(p.raw_ok and not p.trivial for p in points)
        assert points[1].amplitude == pytest.approx(0.1400, abs=1e-4)

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


def _run_gd_oracle(model, w_bar, etas, u, run_steps, run_offset=1e-3,
                   discard_frac=0.8):
    """The empirical sweep as one ``run_gd`` per step size: for each eta the
    logged run, half the peak-to-peak projection onto ``u`` over the last
    ``1 - discard_frac`` of its (possibly truncated) steps, and whether a
    run that did not diverge decayed: an amplitude of 0, or one over the
    last tenth of that window below half the one over its first tenth."""
    def half_range(x):
        return 0.5 * float(x.max() - x.min())

    logs, amps, decayed = [], [], []
    for eta in etas:
        log = run_gd(model, w_bar + run_offset * u, eta, run_steps)
        start = int(discard_frac * log.num_steps)
        proj = np.array([float((log.w(k) - w_bar) @ u)
                         for k in range(start, log.num_steps + 1)])
        tenth = max(2, len(proj) // 10)
        logs.append(log)
        amps.append(half_range(proj))
        decayed.append(not log.diverged and (
            amps[-1] == 0 or half_range(proj[-tenth:]) < 0.5 * half_range(proj[:tenth])))
    return logs, amps, decayed


def _odd_linear_net():
    """A linear net of odd dimension 15, so every other row of an iterate
    stack starts off a 16-byte boundary."""
    w_bar, geom = balanced_minimizer(
        np.array([[2.0, 0.0, 1.0], [0.0, 1.0, -0.5]]), 3)
    return geom.model, w_bar, geom.sharp_direction()


class TestLockstepSweep:
    """The empirical sweep advances every step size in one iterate stack;
    each row must reproduce its own ``run_gd`` bit for bit, truncation on
    divergence and its verdict included."""

    def _check(self, model, w_bar, u, etas, run_steps, run_offset=1e-3):
        u = u / float(np.linalg.norm(u))   # as branch_sweep normalizes it
        logs, amps, decayed = _run_gd_oracle(model, w_bar, etas, u, run_steps, run_offset)
        points, lost = bf.branch_sweep(model, w_bar, etas, "empirical", u=u,
                                       run_steps=run_steps, run_offset=run_offset)
        assert lost == all(log.diverged or d for log, d in zip(logs, decayed))
        assert [p.eta for p in points] == list(etas)
        assert [p.amplitude for p in points] == amps
        assert [p.diverged for p in points] == [log.diverged for log in logs]
        assert [p.decayed for p in points] == decayed
        proj, kept, evaluated = bf._lockstep_projections(
            model, w_bar, u, run_offset, list(etas), run_steps)
        assert proj.shape == (run_steps + 1, len(etas))
        for r, log in enumerate(logs):
            assert kept[r] == log.num_steps
            # run_gd evaluates iterates 0..divergence_step, or all K + 1
            assert evaluated[r] == points[r].evaluations == (
                log.divergence_step + 1 if log.diverged else run_steps + 1)
            want = [(log.w(k) - w_bar) @ u for k in range(log.num_steps + 1)]
            assert np.array_equal(proj[:kept[r] + 1, r], want)
        return logs, points

    @pytest.mark.parametrize("model", [QUARTIC, HARDENING], ids=lambda m: m.name)
    def test_scalar_quartic_both_sides(self, model):
        """eta_c = 2: both settle below it; the soft quartic orbits above
        it, and the hardening one diverges there after 34 to 433 steps."""
        etas = [1.9, 1.99, 2.01, 2.05, 2.2]
        logs, points = self._check(model, np.array([0.0]), np.array([1.0]), etas, 4000)
        diverged = [log.diverged for log in logs]
        assert diverged == ([False] * 5 if model is QUARTIC
                            else [False, False, True, True, True])
        assert [p.decayed for p in points] == [True, True, False, False, False]

    def test_linear_net(self):
        w_bar, geom, _ = _linear_net()
        self._check(geom.model, w_bar, geom.sharp_direction(),
                    [0.45, 0.51, 0.525, 0.55, 0.6], 4000)

    def test_one_eta_diverges_mid_run(self):
        """On the odd-dimension net eta = 0.8 passes the limits at iterate
        108 and leaves the stack; the rows around it run on unchanged."""
        model, w_bar, u = _odd_linear_net()
        logs, points = self._check(model, w_bar, u, [0.45, 0.55, 0.8, 0.6], 1000)
        assert [log.diverged for log in logs] == [False, False, True, False]
        assert logs[2].num_steps == 107

    def test_start_point_diverges(self):
        """A start point past the iterate limit keeps iterate 0 only, so
        every amplitude is 0."""
        model, w_bar, u = _odd_linear_net()
        logs, points = self._check(model, w_bar, u, [0.45, 0.55], 50,
                                   run_offset=1e9)
        assert all(log.num_steps == 0 and log.diverged for log in logs)
        assert [p.amplitude for p in points] == [0.0, 0.0]

    @pytest.mark.parametrize("model, etas", [
        (make_quadratic(np.diag([3.0])), [0.7]),
        (make_quadratic(np.diag([3.0, 2.0, 1.0])), [0.7, 0.8, 0.9]),
        (make_mlp([3, 4, 2], "tanh",
                  make_synthetic_dataset(0, 20, 3, 2, teacher_rank=1)), [0.1, 0.2]),
    ], ids=["quadratic-m=dim=1", "quadratic-m=dim=3", "mlp"])
    def test_model_without_stacks_rejected(self, model, etas):
        """A quadratic or an MLP takes one point per value_and_grad call;
        the sweep refuses it, also when the number of step sizes equals
        the dimension."""
        with pytest.raises(ValueError, match="stack of points"):
            bf.branch_sweep(model, np.zeros(model.dim), etas, "empirical",
                            u=np.eye(model.dim)[0], run_steps=10)


class TestCouplingHessianForms:
    """Forms of the coupling Hessian, step_jacobian / eta, at a fixed point:
    moving both iterates together, (u, u), sees 2 u^T H u; splitting them,
    (u, -u), sees 2 u^T (H - (2/eta) I) u, which changes sign exactly where
    the directional curvature crosses 2/eta."""

    @staticmethod
    def _forms(diag, eta, u):
        coupling = bf.EdgeCoupling(eta, make_quadratic(np.diag(diag)),
                                   np.zeros(len(diag)))
        w = np.zeros(len(diag))
        hess = coupling.step_jacobian(w, w) / eta
        both, split = np.concatenate([u, u]), np.concatenate([u, -u])
        return float(both @ hess @ both), float(split @ hess @ split)

    def test_subcritical_sign(self):
        diag, anti = self._forms([3.0, 1.0], 0.5, np.array([1.0, 0.0]))
        assert diag == pytest.approx(6.0, abs=1e-12)
        assert anti == pytest.approx(-2.0, abs=1e-12)

    def test_supercritical_sign_flip(self):
        _, anti = self._forms([5.0, 1.0], 0.5, np.array([1.0, 0.0]))
        assert anti == pytest.approx(2.0, abs=1e-12)

    def test_kernel_exactly_at_threshold(self):
        _, anti = self._forms([4.0, 1.0], 0.5, np.array([1.0, 0.0]))
        assert anti == pytest.approx(0.0, abs=1e-12)
