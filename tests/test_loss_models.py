"""Model derivatives, linear-net geometry, and synthetic datasets."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from edge_lab import loss_models
from edge_lab.edge_metrics import K9_NODES
from edge_lab.loss_models import (LossModel, MlpModel, QuadraticModel,
                                  ScalarPolyModel, TwoLayerLinearModel,
                                  balanced_minimizer, make_mlp,
                                  make_quadratic, make_scalar_poly,
                                  make_synthetic_dataset,
                                  make_two_layer_linear, width_pad)


def _all_models():
    ds = make_synthetic_dataset(0, 40, 5, 3, teacher_rank=2, noise=0.05)
    return [
        make_quadratic(np.diag([3.0, 1.0]), 0.0),
        make_scalar_poly(1.0, 1.0, -1.0),
        make_two_layer_linear(np.diag([2.0, 1.0]), 2),
        make_two_layer_linear(np.array([[2.0, 0.0, 1.0], [0.0, 1.0, -0.5]]), 3),
        make_mlp([5, 6, 3], "tanh", ds),
        make_mlp([5, 6, 3], "gelu", ds),
    ]


def _fd_gradient(model, w, h=1e-6):
    return np.array([(model.value(w + h * e) - model.value(w - h * e)) / (2 * h)
                     for e in np.eye(model.dim)])


class TestDerivativeConsistency:
    @pytest.mark.parametrize("model", _all_models(), ids=lambda m: m.name)
    def test_gradient_matches_fd(self, model):
        """Analytic gradient vs central differences at 10 random points."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = 0.5 * rng.standard_normal(model.dim)
            g = model.gradient(w)
            gfd = _fd_gradient(model, w)
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(g - gfd)) <= 1e-5 * scale

    @pytest.mark.parametrize("model", _all_models(), ids=lambda m: m.name)
    def test_hvp_symmetric_and_linear(self, model):
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = 0.5 * rng.standard_normal(model.dim)
            u = rng.standard_normal(model.dim)
            v = rng.standard_normal(model.dim)
            hu, hv = model.hvp(w, u), model.hvp(w, v)
            scale = max(1.0, np.linalg.norm(hu) * np.linalg.norm(v),
                        np.linalg.norm(hv) * np.linalg.norm(u))
            assert abs(float(u @ hv - v @ hu)) <= 1e-8 * scale
            lin = model.hvp(w, 2.0 * u - 3.0 * v)
            np.testing.assert_allclose(lin, 2 * hu - 3 * hv,
                                       atol=1e-9 * scale, rtol=1e-9)

    @pytest.mark.parametrize("model", _all_models(), ids=lambda m: m.name)
    def test_value_and_grad_bit_identical(self, model):
        w = 0.5 * np.random.default_rng(10).standard_normal(model.dim)
        value, grad = model.value_and_grad(w)
        assert value == model.value(w)
        assert np.array_equal(grad, model.gradient(w))

    @pytest.mark.parametrize("model", _all_models(), ids=lambda m: m.name)
    def test_dense_hessian_matches_hvp(self, model):
        rng = np.random.default_rng(9)
        w = 0.5 * rng.standard_normal(model.dim)
        H = model.hessian_dense(w)
        for _ in range(3):
            v = rng.standard_normal(model.dim)
            hv = model.hvp(w, v)
            scale = max(1.0, float(np.max(np.abs(hv))))
            assert np.max(np.abs(H @ v - hv)) <= 1e-10 * scale


class _QuarticBowl(LossModel):
    """L(w) = sum(w^4)/4 + w^T w / 2, defining only the two kernels."""

    dim = 3

    def value_and_grad(self, w):
        return float(np.sum(w ** 4) / 4 + w @ w / 2), w ** 3 + w

    def hvp(self, w, v):
        return (3 * w ** 2 + 1) * v


class TestModelContract:
    def test_two_kernels_give_every_derived_method(self):
        model = _QuarticBowl()
        w = np.array([0.5, -1.0, 2.0])
        assert model.value(w) == model.value_and_grad(w)[0] == 17.0625 / 4 + 2.625
        np.testing.assert_array_equal(model.gradient(w), w ** 3 + w)
        np.testing.assert_array_equal(model.hessian_dense(w), np.diag(3 * w ** 2 + 1))
        d = np.array([1.2, 0.0, 1.6])   # 2 u for the unit u = (0.6, 0, 0.8)
        [q0] = model.segment_profile(w, d)((0.0,))
        assert q0 == pytest.approx(0.36 * 1.75 + 0.64 * 13.0, abs=1e-14)

    @pytest.mark.parametrize("cls", [QuadraticModel, ScalarPolyModel,
                                     TwoLayerLinearModel, MlpModel])
    def test_models_implement_only_the_kernels(self, cls):
        """value and gradient are read off value_and_grad in the base class."""
        assert {"value_and_grad", "hvp"} <= set(vars(cls))
        assert not {"value", "gradient"} & set(vars(cls))


def _hvp_profile(model, w, d, taus):
    """The generic profile route: u . hvp(w + tau d, u) with u = d / ||d||."""
    u = d / float(np.linalg.norm(d))
    return np.array([float(np.dot(u, model.hvp(w + t * d, u))) for t in taus])


_TAUS = np.array([0.0, 0.07, 0.2, 0.35, 0.5, 0.61, 0.8, 0.93, 1.0])


class TestSegmentCurvature:
    """segment_profile(w, d)(taus) is the step profile at every node."""

    @pytest.mark.parametrize("widths, activation, dataset", [
        ([5, 6, 4, 3], "tanh", (2, 40, 2, 0.05)),
        ([5, 6, 4, 3], "gelu", (2, 40, 2, 0.05)),
        ([5, 3], "tanh", (2, 40, 2, 0.05)),
        ([5, 6, 4, 5, 3], "gelu", (2, 40, 2, 0.05)),
        ([10, 16, 16, 5], "tanh", (0, 200, 3, 0.1))],   # the README MLP
        ids=["tanh", "gelu", "affine", "gelu-3-hidden", "readme"])
    def test_mlp_forward_mode_matches_hvp_route(self, widths, activation, dataset):
        """At fixed nodes with both ends, the K9 nodes and the K9 nodes of
        a bisected half span, in one call."""
        seed, n, rank, noise = dataset
        ds = make_synthetic_dataset(seed, n, widths[0], widths[-1],
                                    teacher_rank=rank, noise=noise)
        model = make_mlp(widths, activation, ds)
        taus = np.concatenate([_TAUS, K9_NODES, 0.5 + 0.5 * K9_NODES])
        rng = np.random.default_rng(12)
        for _ in range(3):
            w = model.init_params(seed=int(rng.integers(100)), scale=1.5)
            d = 0.3 * rng.standard_normal(model.dim)
            ref = _hvp_profile(model, w, d, taus)
            q = model.segment_profile(w, d)(taus)
            assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("model", _all_models()[:4], ids=lambda m: m.name)
    def test_generic_route_unchanged(self, model):
        """Models without an override keep the per-node hvp arithmetic bit for bit."""
        rng = np.random.default_rng(13)
        w, d = 0.5 * rng.standard_normal(model.dim), rng.standard_normal(model.dim)
        np.testing.assert_array_equal(model.segment_profile(w, d)(_TAUS),
                                      _hvp_profile(model, w, d, _TAUS))

    @pytest.mark.parametrize("model", _all_models() + [
        make_mlp([5, 6, 4, 3], activation,
                 make_synthetic_dataset(0, 40, 5, 3, teacher_rank=2, noise=0.05))
        for activation in ("tanh", "gelu")], ids=lambda m: m.name)
    def test_one_node_equals_its_place_in_many(self, model):
        rng = np.random.default_rng(14)
        w, d = 0.5 * rng.standard_normal(model.dim), rng.standard_normal(model.dim)
        many = model.segment_profile(w, d)(_TAUS)
        assert many.shape == _TAUS.shape
        for i, t in enumerate(_TAUS):
            assert model.segment_profile(w, d)((t,))[0] == many[i]

    @pytest.mark.parametrize("activation", ["tanh", "gelu"])
    def test_operators_of_one_model_run_in_threads(self, activation):
        """Two profile operators of one MLP, each called over and over in
        its own thread at the same time, return the bits of one call
        after the other: an operator writes only its own buffers."""
        ds = make_synthetic_dataset(0, 200, 10, 5, teacher_rank=3, noise=0.1)
        model = make_mlp([10, 16, 16, 5], activation, ds)
        rng = np.random.default_rng(15)
        w = model.init_params(seed=0, scale=1.5)
        ops = [model.segment_profile(w, 0.3 * rng.standard_normal(model.dim))
               for _ in range(2)]
        taus = np.concatenate([_TAUS, K9_NODES])
        alone = [op(taus) for op in ops]
        start, got = threading.Barrier(2), [[], []]

        def call(i):
            start.wait(timeout=60)
            got[i].extend(ops[i](taus) for _ in range(30))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for q, qs in zip(alone, got):
            assert len(qs) == 30
            for q_thread in qs:
                assert q_thread.tobytes() == q.tobytes()


def _column_oracle(model, w):
    """The Hessian assembled one single-direction hvp column at a time."""
    H = np.column_stack([model.hvp(w, e) for e in np.eye(model.dim)])
    return (H + H.T) / 2.0


def _block_mlps():
    """Two- and three-layer MLPs; the three-layer ones have dim 73, so a
    dense Hessian spans three blocks of the stacked kernel."""
    ds = make_synthetic_dataset(4, 40, 4, 3, noise=0.05)
    return [make_mlp(widths, activation, ds)
            for widths in ([4, 5, 3], [4, 5, 5, 3]) for activation in ("tanh", "gelu")]


class TestStackedHvp:
    """hvp maps an (m, dim) stack of row directions in one kernel call."""

    @pytest.fixture(params=_block_mlps(), ids=lambda m: m.name)
    def mlp(self, request):
        return request.param

    @pytest.mark.parametrize("model", _all_models() + [_QuarticBowl()],
                             ids=lambda m: m.name)
    def test_rows_bit_equal_single_calls(self, model):
        rng = np.random.default_rng(11)
        w = 0.5 * rng.standard_normal(model.dim)
        V = rng.standard_normal((3, model.dim))
        HV = model.hvp(w, V)
        assert HV.shape == (3, model.dim)
        for i in range(3):
            hv = model.hvp(w, V[i])
            assert hv.shape == (model.dim,)
            assert np.array_equal(HV[i], hv)

    @pytest.mark.parametrize("model", _all_models() + [_QuarticBowl()],
                             ids=lambda m: m.name)
    def test_dense_hessian_bit_equal_column_oracle(self, model):
        w = 0.5 * np.random.default_rng(12).standard_normal(model.dim)
        H = model.hessian_dense(w)
        assert np.array_equal(H, _column_oracle(model, w))
        assert np.array_equal(H, H.T)

    def test_mlp_dense_hessian_runs_one_forward_pass(self, monkeypatch):
        ds = make_synthetic_dataset(0, 40, 5, 3, teacher_rank=2, noise=0.05)
        model = make_mlp([5, 6, 3], "tanh", ds)
        calls = []
        forward = MlpModel._forward

        def counting_forward(self, params, X):
            calls.append(1)
            return forward(self, params, X)

        monkeypatch.setattr(MlpModel, "_forward", counting_forward)
        model.hessian_dense(model.init_params(seed=1))
        assert len(calls) == 1

    def test_rows_bit_equal_single_calls_across_blocks(self, mlp):
        """Stacks of two full blocks and a partial one, then of one row, a
        partial block and a full one (each after a longer stack has filled
        the model's block buffers): every row equals the same direction
        passed alone, bit for bit."""
        rng = np.random.default_rng(15)
        w = mlp.init_params(seed=2, scale=1.5)
        block = loss_models._HVP_BLOCK
        for m in (2 * block + 5, 1, block - 4, block):
            V = rng.standard_normal((m, mlp.dim))
            HV = mlp.hvp(w, V)
            assert HV.shape == V.shape
            for i in range(m):
                assert np.array_equal(HV[i], mlp.hvp(w, V[i]))

    @pytest.mark.parametrize("model", _all_models() + _block_mlps() + [_QuarticBowl()],
                             ids=lambda m: m.name)
    def test_operator_bit_equal_hvp(self, model):
        rng = np.random.default_rng(16)
        w = 0.5 * rng.standard_normal(model.dim)
        V = rng.standard_normal((loss_models._HVP_BLOCK + 3, model.dim))
        op = model.hvp_at(w)
        assert np.array_equal(op(V), model.hvp(w, V))
        assert np.array_equal(op(V[0]), model.hvp(w, V[0]))

    @pytest.mark.parametrize("model", _block_mlps()[2:], ids=lambda m: m.name)
    def test_three_layer_dense_hessian_bit_equal_column_oracle(self, model):
        assert model.dim == 73 > 2 * loss_models._HVP_BLOCK
        w = model.init_params(seed=3, scale=1.5)
        H = model.hessian_dense(w)
        assert np.array_equal(H, _column_oracle(model, w))

    @pytest.mark.parametrize("model", _block_mlps()[2:], ids=lambda m: m.name)
    def test_three_layer_hvp_matches_gradient_differences(self, model):
        rng = np.random.default_rng(17)
        w = model.init_params(seed=4, scale=1.5)
        h = 1e-5
        for _ in range(3):
            v = rng.standard_normal(model.dim)
            fd = (model.gradient(w + h * v) - model.gradient(w - h * v)) / (2 * h)
            hv = model.hvp(w, v)
            assert np.linalg.norm(hv - fd) <= 1e-7 * np.linalg.norm(hv)


class TestStackedValueAndGrad:
    """The scalar polynomial and the linear net take an (m, dim) stack of
    points in value_and_grad; every row equals the point passed alone."""

    @pytest.mark.parametrize("model", _all_models()[1:4], ids=lambda m: m.name)
    def test_rows_bit_equal_single_calls(self, model):
        rng = np.random.default_rng(13)
        for m in sorted({1, 3, model.dim}):
            W = rng.standard_normal((m, model.dim))
            losses, G = model.value_and_grad(W)
            assert losses.shape == (m,) and G.shape == (m, model.dim)
            for i in range(m):
                loss, g = model.value_and_grad(W[i])
                assert isinstance(loss, float) and g.shape == (model.dim,)
                assert losses[i] == loss
                assert np.array_equal(G[i], g)

    @pytest.mark.parametrize("model", _all_models()[1:4], ids=lambda m: m.name)
    def test_empty_stack(self, model):
        """A (0, dim) stack of points gives (0,) losses and (0, dim)
        gradients, and a (0, dim) stack of directions (0, dim) products."""
        empty = np.empty((0, model.dim))
        losses, G = model.value_and_grad(empty)
        assert losses.shape == (0,) and G.shape == (0, model.dim)
        assert model.hvp(np.zeros(model.dim), empty).shape == (0, model.dim)

    def test_only_the_stacking_models_declare_it(self):
        assert [type(m) for m in _all_models() if m.stacked_value_and_grad] == [
            ScalarPolyModel, TwoLayerLinearModel, TwoLayerLinearModel]


def _fresh(mlp):
    """An equal model that has never applied its R-operator."""
    return make_mlp(mlp.widths, mlp.activation, mlp.dataset)


class TestBlockBuffers:
    """The MLP R-operator writes each block's tangents into buffers its model
    owns and reuses; no result may depend on what they held or alias them."""

    @pytest.fixture(params=_block_mlps(), ids=lambda m: m.name)
    def mlp(self, request):
        return _fresh(request.param)

    def test_interleaved_operators_bit_equal_fresh_model(self, mlp):
        rng = np.random.default_rng(21)
        w1, w2 = mlp.init_params(seed=1, scale=1.5), mlp.init_params(seed=2, scale=1.5)
        V = rng.standard_normal((loss_models._HVP_BLOCK + 7, mlp.dim))
        op1, op2 = mlp.hvp_at(w1), mlp.hvp_at(w2)
        calls = [(op1, w1, V), (op2, w2, V[3]), (op1, w1, V[:5]), (op2, w2, V),
                 (op1, w1, V[0])]
        for op, w, X in calls:
            assert np.array_equal(op(X), _fresh(mlp).hvp(w, X))

    def test_results_are_fresh_arrays(self, mlp):
        rng = np.random.default_rng(22)
        w = mlp.init_params(seed=1, scale=1.5)
        op = mlp.hvp_at(w)
        results = [op(rng.standard_normal(mlp.dim)),
                   op(rng.standard_normal((5, mlp.dim))),
                   op(rng.standard_normal((loss_models._HVP_BLOCK + 3, mlp.dim)))]
        kept = [r.copy() for r in results]
        op(rng.standard_normal((loss_models._HVP_BLOCK, mlp.dim)))
        mlp.hvp(mlp.init_params(seed=2), rng.standard_normal((7, mlp.dim)))
        for r, k in zip(results, kept):
            assert np.array_equal(r, k)
            assert not any(np.shares_memory(r, buf) for buf in mlp._block_buffers())

    def test_repeated_dense_hessian_traces_no_block_temporaries(self):
        """At dim 92 (widths [6, 8, 4], n = 60) one block's tangents alone
        come to about 0.68 MB; with the buffers reused, repeated dense
        Hessians trace under 0.4 MB at their peak."""
        ds = make_synthetic_dataset(3, 60, 6, 4, teacher_rank=2, noise=0.05)
        model = make_mlp([6, 8, 4], "tanh", ds)
        assert model.dim == 92
        w = model.init_params(seed=7)
        model.hessian_dense(w)   # allocates the buffers
        tracemalloc.start()
        try:
            for _ in range(3):
                model.hessian_dense(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000, peak


class TestScalarPoly:
    def test_value_example(self):
        model = make_scalar_poly(1.0, 0.0, -1.0)
        assert model.value([1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_derivative_ladder(self):
        model = make_scalar_poly(2.0, 1.5, -0.5)
        x = 0.3
        assert model.gradient([x])[0] == pytest.approx(
            2.0 * x + 1.5 * x ** 2 - 0.5 * x ** 3, abs=1e-15)
        assert model.second_derivative(x) == pytest.approx(
            2.0 + 3.0 * x - 1.5 * x ** 2, abs=1e-15)
        assert model.third_derivative(x) == pytest.approx(3.0 - 3.0 * x, abs=1e-15)
        assert model.fourth_derivative(x) == pytest.approx(-3.0, abs=1e-15)


class TestQuadratic:
    def test_gradient_example(self):
        model = make_quadratic(np.diag([3.0, 1.0]), 0.0)
        np.testing.assert_allclose(model.gradient([1.0, 1.0]), [3.0, 1.0])

    def test_hessian_exactly_symmetric(self):
        H = np.array([[2.0, 0.1], [np.nextafter(0.1, 1.0), 1.0]])
        dense = make_quadratic(H).hessian_dense(np.zeros(2))
        assert np.array_equal(dense, dense.T)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            make_quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLinearNetGeometry:
    def test_minimum_value_zero(self):
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        assert geom.model.value(w_bar) == pytest.approx(0.0, abs=1e-25)

    def test_scalar_case(self):
        w_bar, geom = balanced_minimizer(np.array([[4.0]]), 1)
        W1, W2 = geom.model.unpack(w_bar)
        assert W1[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert W2[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_target_factors(self):
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        W1, W2 = geom.model.unpack(w_bar)
        np.testing.assert_allclose(W1, np.diag([math.sqrt(2.0), 1.0]), atol=1e-14)
        np.testing.assert_allclose(W2, np.diag([math.sqrt(2.0), 1.0]), atol=1e-14)

    def test_balancedness_and_product(self):
        for M, h in ((np.diag([2.0, 1.0]), 2), (np.diag([2.0, 1.0]), 3),
                     (np.array([[1.5, 0.3, 0.0], [0.1, 0.8, -0.2]]), 3)):
            w_bar, geom = balanced_minimizer(M, h)
            W1, W2 = geom.model.unpack(w_bar)
            np.testing.assert_allclose(W2 @ W1, M, atol=1e-12)
            np.testing.assert_allclose(W1 @ W1.T, W2.T @ W2, atol=1e-12)
            assert np.linalg.norm(geom.model.gradient(w_bar)) <= 1e-12

    def test_padded_width_has_zero_rows(self):
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 3)
        W1, W2 = geom.model.unpack(w_bar)
        np.testing.assert_allclose(W1[2], 0.0, atol=1e-15)
        np.testing.assert_allclose(W2[:, 2], 0.0, atol=1e-15)

    def test_rank_error(self):
        with pytest.raises(ValueError):
            balanced_minimizer(np.diag([2.0, 1.0]), 1)

    def test_kernel_dimension_formula(self):
        """Null count of the dense Hessian equals h(d+p) - r(d+p-r)."""
        for p, d, r, h in ((2, 2, 2, 2), (2, 3, 2, 4), (3, 4, 2, 3)):
            rng = np.random.default_rng(p * 10 + d + h)
            U, _ = np.linalg.qr(rng.standard_normal((p, p)))
            V, _ = np.linalg.qr(rng.standard_normal((d, d)))
            s = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
            M = (U[:, :r] * s) @ V[:, :r].T
            w_bar, geom = balanced_minimizer(M, h)
            H = geom.model.hessian_dense(w_bar)
            evals, vecs = np.linalg.eigh(H)
            null_count = int(np.sum(evals < 1e-8 * evals[-1]))
            expected = h * (d + p) - r * (d + p - r)
            assert null_count == expected
            # the analytic normal basis is orthogonal to the numeric kernel
            S, _ = geom.normal_basis()
            kernel = vecs[:, evals < 1e-8 * evals[-1]]
            assert np.max(np.abs(S.T @ kernel)) <= 1e-8

    def test_embed_zero(self):
        _, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        np.testing.assert_allclose(geom.embed(np.zeros((2, 2)), None, None),
                                   0.0, atol=1e-16)

    def test_sharp_direction_is_top_eigenvector(self):
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 3)
        u_c = geom.sharp_direction()
        assert np.linalg.norm(u_c) == pytest.approx(1.0, abs=1e-12)
        Hu = geom.model.hvp(w_bar, u_c)
        np.testing.assert_allclose(Hu, 2.0 * geom.sigma[0] * u_c, atol=1e-10)

    def test_embedding_norm_identity(self):
        rng = np.random.default_rng(3)
        _, geom = balanced_minimizer(np.array([[1.7, 0.2, 0.1],
                                               [0.0, 0.9, -0.3]]), 4)
        r, p, d = geom.r, geom.model.p, geom.model.d
        rootS = np.sqrt(geom.sigma)
        for _ in range(20):
            Y = rng.standard_normal((r, r))
            B = rng.standard_normal((r, d - r))
            G = rng.standard_normal((p - r, r))
            v = geom.embed(Y, B, G)
            expected = (np.sum((rootS[:, None] * Y) ** 2)
                        + np.sum((Y * rootS[None, :]) ** 2)
                        + np.sum(B ** 2) + np.sum(G ** 2))
            assert float(v @ v) == pytest.approx(expected, rel=1e-12)

    def test_width_pad_zero(self):
        _, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        xi = np.zeros(geom.model.dim)
        np.testing.assert_allclose(width_pad(geom, xi, 4), 0.0, atol=1e-16)

    def test_width_pad_loss_identity(self):
        """Padded slice vectors evaluate to the identical restricted loss."""
        rng = np.random.default_rng(5)
        w_r, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        for h in (2, 3, 5):
            geom_h = geom.with_width(h)
            for _ in range(100):
                xi = geom.embed(rng.standard_normal((2, 2)), None, None) * 0.4
                xi_h = width_pad(geom, xi, h)
                lr = geom.model.value(w_r + xi)
                lh = geom_h.model.value(geom_h.w_bar + xi_h)
                assert abs(lr - lh) <= 1e-13 * max(abs(lr), 1e-30)

    def test_width_pad_rejects_off_slice(self):
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        # kernel direction: A free, E = -sqrt(S) A / sqrt(S)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        rootS = np.sqrt(geom.sigma)
        E = -(rootS[:, None] * A) / rootS[None, :]
        kvec = geom.model.pack(A, E)
        assert np.linalg.norm(geom.model.hvp(w_bar, kvec)) <= 1e-12
        with pytest.raises(ValueError, match="slice"):
            width_pad(geom, kvec, 3)


class TestSyntheticDataset:
    def test_determinism(self):
        a = make_synthetic_dataset(0, 20, 4, 3)
        b = make_synthetic_dataset(0, 20, 4, 3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_shapes(self):
        ds = make_synthetic_dataset(1, 200, 10, 5, teacher_rank=3)
        assert ds.X.shape == (200, 10) and ds.Y.shape == (200, 5)

    def test_teacher_rank(self):
        ds = make_synthetic_dataset(2, 100, 8, 5, teacher_rank=3, noise=0.0)
        s = np.linalg.svd(ds.Y, compute_uv=False)
        assert s[2] > 1e-6
        assert s[3] <= 1e-10 * s[0]

    def test_noise_floor(self):
        ds = make_synthetic_dataset(2, 400, 8, 5, teacher_rank=3, noise=0.1)
        s = np.linalg.svd(ds.Y / math.sqrt(ds.n), compute_uv=False)
        assert s[3] < 0.5 * s[2]  # trailing values sit near the noise scale
        assert s[3] > 0.0

    def test_pinned_spectrum(self):
        ds = make_synthetic_dataset(3, 300, 6, 4, teacher_spectrum=[2.0, 1.0])
        M = np.linalg.lstsq(ds.X, ds.Y, rcond=None)[0].T
        s = np.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(s[:2], [2.0, 1.0], atol=1e-10)


class TestMlp:
    def test_batch_gradient_full_equals_gradient(self):
        ds = make_synthetic_dataset(0, 30, 4, 2, teacher_rank=2)
        mlp = make_mlp([4, 6, 2], "tanh", ds)
        w = mlp.init_params(seed=1)
        np.testing.assert_allclose(mlp.gradient_batch(w, np.arange(30)),
                                   mlp.gradient(w), atol=1e-14)

    @pytest.mark.parametrize("activation", ["tanh", "gelu"])
    def test_gradient_skips_second_derivative(self, activation):
        """The gradient asks the activation for no phi'' (the R-operator
        does), and its bits are those of a forward pass that computes it."""
        ds = make_synthetic_dataset(0, 30, 4, 2, teacher_rank=2)
        mlp = make_mlp([4, 6, 5, 2], activation, ds)
        w = mlp.init_params(seed=1)
        act, asked = mlp._act, []
        mlp._act = lambda z, second=True: (asked.append(second), act(z, second))[1]
        value, grad = mlp.value_and_grad(w)
        assert asked == [False, False]
        mlp.hvp(w, grad)
        assert asked[2:] == [True, True]
        mlp._act = lambda z, second=True: act(z, True)
        full_value, full_grad = mlp.value_and_grad(w)
        assert value == full_value and np.array_equal(grad, full_grad)

    def test_shape_mismatch_rejected(self):
        ds = make_synthetic_dataset(0, 30, 4, 2)
        with pytest.raises(ValueError):
            make_mlp([5, 6, 2], "tanh", ds)

    def test_unknown_activation(self):
        ds = make_synthetic_dataset(0, 10, 4, 2)
        with pytest.raises(ValueError):
            make_mlp([4, 6, 2], "relu", ds)

    def test_init_deterministic(self):
        ds = make_synthetic_dataset(0, 10, 4, 2)
        mlp = make_mlp([4, 6, 2], "tanh", ds)
        assert np.array_equal(mlp.init_params(seed=3), mlp.init_params(seed=3))
