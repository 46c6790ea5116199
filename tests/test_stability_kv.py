"""Recoil, oscillatory cancellation, excursions, propagators, and strain."""

import dataclasses
import math
import os
from collections import Counter

import numpy as np
import pytest

from edge_lab import edge_metrics as em
from edge_lab import stability_kv as kv
from edge_lab.loss_models import (Dataset, make_mlp, make_quadratic,
                                  make_scalar_poly, make_synthetic_dataset,
                                  make_two_layer_linear)
from edge_lab.numerics import NonConvergenceError, uniform_rule
from edge_lab.trajectory import run_gd, run_pair_gd


def _recoil(model, log):
    """The table of a run and, at each of its rows, <d_{k+1}, d_k> from the
    log's steps (NaN at the last step) and (1 - eta rbar_k) ||d_k||^2 from
    the exact gradient-difference rbar_k."""
    table = em.curvature_table(model, log)
    inner = np.array([float(log.step(k + 1) @ log.step(k)) if k + 1 < log.num_steps
                      else np.nan for k in table.k])
    predicted = (1.0 - log.eta * table.rbar_exact) * table.step_norm_sq
    return table, inner, predicted


class TestRecoil:
    def test_supercritical_growth(self):
        # lam = 5 at eta = 0.5 sits one unit above the threshold
        model = make_scalar_poly(5.0)
        log = run_gd(model, np.array([1.0]), 0.5, 8)
        table, inner, predicted = _recoil(model, log)
        growth = np.sqrt(table.step_norm_sq[1]) / np.sqrt(table.step_norm_sq[0])
        nd2 = float(log.step(0) @ log.step(0))
        assert inner[0] == pytest.approx(-1.5 * nd2, abs=1e-12)
        assert inner[0] == pytest.approx(predicted[0], abs=1e-12)
        assert growth == pytest.approx(1.5, abs=1e-12)
        assert growth >= 1 + 0.5 * 1.0

    def test_subcritical_inner_product(self):
        model = make_scalar_poly(3.0)
        log = run_gd(model, np.array([1.0]), 0.5, 8)
        _, inner, _ = _recoil(model, log)
        nd2 = float(log.step(0) @ log.step(0))
        assert inner[0] == pytest.approx(-0.5 * nd2, abs=1e-13)

    def test_sustained_growth_compounds(self):
        log = run_gd(make_scalar_poly(5.0), np.array([1e-4]), 0.5, 6)
        d0 = np.linalg.norm(log.step(0))
        d5 = np.linalg.norm(log.step(5))
        assert d5 >= 1.5 ** 5 * d0 * (1 - 1e-12)

    def test_identity_on_nonquadratic(self):
        model = make_scalar_poly(1.0, 0.8, -1.0)
        log = run_gd(model, np.array([0.25]), 2.2, 120)
        table, inner, predicted = _recoil(model, log)
        assert list(table.k) == list(range(log.num_steps))
        nd2 = table.step_norm_sq[:-1]
        assert np.all(np.abs(inner - predicted)[:-1]
                      <= 1e-10 * np.maximum(nd2, np.abs(predicted[:-1])))

    def test_zero_step_is_degenerate(self):
        # a start at the minimum never moves: every step is exactly zero
        model = make_quadratic(np.diag([3.0]))
        log = run_gd(model, np.array([0.0]), 0.5, 3)
        table = em.curvature_table(model, log)
        assert table.k.size == 0 and table.skipped == [0, 1, 2]


class TestOscillatoryBound:
    def test_constant_forcing_alternation(self):
        eta, u = 0.3, 0.7
        T = 9  # odd horizon ends right after a kick: bound is tight
        xT, bound = kv.oscillatory_bound([-1.0] * T, [u] * T, eta)
        assert bound == pytest.approx(eta * u, abs=1e-15)
        assert xT == pytest.approx(eta * u, abs=1e-13)

    def test_zero_multiplier_keeps_last_kick(self):
        eta = 0.4
        us = [0.3, -0.2, 0.9]
        xT, bound = kv.oscillatory_bound([0.0] * 3, us, eta)
        assert xT == pytest.approx(eta * 0.9, abs=1e-15)
        assert xT <= bound + 1e-15

    def test_thousand_random_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            T = int(rng.integers(1, 200))
            m = rng.uniform(-1.0, 0.0, T)
            u = np.cumsum(rng.standard_normal(T)) * rng.uniform(0.1, 3.0)
            xT, bound = kv.oscillatory_bound(m, u, float(rng.uniform(0.01, 2.0)))
            assert xT <= bound + 1e-12

    def test_multiplier_range_enforced(self):
        with pytest.raises(ValueError):
            kv.oscillatory_bound([0.5], [1.0], 0.1)
        with pytest.raises(ValueError):
            kv.oscillatory_bound([-1.2], [1.0], 0.1)


class TestExcursion:
    def test_inside_window(self):
        assert kv.excursion_kappa(np.diag([3.0, 1.0]), 0.5) == 0.0

    def test_above_window(self):
        assert kv.excursion_kappa(np.diag([5.0, 1.0]), 0.5) == pytest.approx(0.5)

    def test_negative_curvature(self):
        assert kv.excursion_kappa(np.diag([3.0, -1.0]), 0.5) == pytest.approx(0.5)

    def test_zero_iff_spectrum_in_window(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            evals = rng.uniform(-1.0, 5.0, n)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = (Q * evals) @ Q.T
            A = (A + A.T) / 2
            kappa = kv.excursion_kappa(A, 0.5)
            inside = np.all(evals >= -1e-12) and np.all(evals <= 4.0 + 1e-12)
            assert (kappa <= 1e-10) == bool(inside)


def _quadratic_pair(K=12, eta=0.5):
    H = np.diag([3.0, 1.0])
    qa = make_quadratic(H, np.array([0.2, -0.1]))
    qb = make_quadratic(H, np.array([-0.3, 0.4]))
    pair = run_pair_gd(qa, qb, np.array([1.0, 1.0]), eta, K)
    return qa, qb, pair, H, eta


def _mlp_leave_one_out_models():
    ds = make_synthetic_dataset(3, 40, 5, 3, teacher_rank=2, noise=0.05)
    keep = np.arange(1, 40)
    ds2 = Dataset(X=ds.X[keep], Y=ds.Y[keep], seed=ds.seed,
                  teacher_rank=ds.teacher_rank)
    return make_mlp([5, 6, 3], "tanh", ds), make_mlp([5, 6, 3], "tanh", ds2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPropagatorProduct:
    def test_constant_matrix_power(self):
        _, _, _, H, eta = _quadratic_pair()
        T = np.linalg.matrix_power(np.eye(2) - eta * H, 4)
        np.testing.assert_allclose(np.diag(T), [(-0.5) ** 4, 0.5 ** 4], atol=1e-13)
        assert kv.propagator_norm(T) == pytest.approx(0.0625, abs=1e-13)
        assert kv.propagator_norm(T) <= 1.0  # exp(sum kappa) = exp(0)

    def test_norm_bound_on_random_sequences(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            eta = float(rng.uniform(0.1, 1.0))
            T = np.eye(n)
            ksum = 0.0
            for _ in range(int(rng.integers(1, 10))):
                A = rng.standard_normal((n, n))
                A = (A + A.T) / 2
                T = (np.eye(n) - eta * A) @ T
                ksum += kv.excursion_kappa(A, eta)
            assert kv.propagator_norm(T) <= math.exp(ksum) + 1e-10


class TestStrainRun:
    def test_identical_objectives(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        pair = run_pair_gd(model, model, np.array([1.0, 0.5]), 0.4, 10)
        strain = kv.strain_run(pair, model)
        np.testing.assert_allclose(strain.delta, 0.0, atol=1e-15)
        np.testing.assert_allclose(strain.stress, 0.0, atol=1e-15)

    def test_quadratic_closed_form(self):
        """Constant curvature and stress: the strain is a geometric sum."""
        qa, qb, pair, H, eta = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        assert strain.residual.max() <= 1e-12
        P = np.eye(2) - eta * H
        f = H @ (qb.center - qa.center)
        np.testing.assert_allclose(strain.stress, np.tile(f, (12, 1)), atol=1e-13)
        for k in range(1, 13):
            geom_sum = sum(np.linalg.matrix_power(P, j) for j in range(k))
            np.testing.assert_allclose(strain.delta[k], -eta * geom_sum @ f,
                                       atol=1e-12)

    def test_polynomial_quadrature_exact(self):
        """Quartic objective: order-4 segment averages leave no residual."""
        net_a = make_two_layer_linear(np.diag([2.0, 1.0]), 2)
        net_b = make_two_layer_linear(np.array([[2.0, 0.1], [0.1, 1.0]]), 2)
        w0 = np.full(net_a.dim, 0.7)
        pair = run_pair_gd(net_a, net_b, w0, 0.25, 25)
        strain = kv.strain_run(pair, net_a)
        assert strain.residual.max() <= 1e-10

    def test_mlp_leave_one_out(self):
        m1, m2 = _mlp_leave_one_out_models()
        pair = run_pair_gd(m1, m2, m1.init_params(seed=7), 0.3, 25)
        strain = kv.strain_run(pair, m1, 8)
        assert strain.residual.max() <= 1e-6
        assert np.linalg.norm(strain.delta[-1]) > 0

    @pytest.mark.parametrize("order, doubles", [(2, True), (8, False)])
    def test_identical_for_any_process_count(self, order, doubles):
        """The steps are computed in chunks of 4 that forked processes take
        on demand: every field of the log is the same for 1, 2 and 3
        processes, and so is the count of dense Hessians they took, also
        when some steps double their start order."""
        m1, m2 = _mlp_leave_one_out_models()
        pair = run_pair_gd(m1, m2, m1.init_params(seed=7), 0.3, 25)
        logs, works = [], []
        for workers in (1, 2, 3):
            works.append(Counter())
            logs.append(kv.strain_run(pair, m1, order, work=works[-1], workers=workers))
            _no_child_left()
        for log in logs[1:]:
            for f in dataclasses.fields(kv.StrainLog):
                x, y = getattr(logs[0], f.name), getattr(log, f.name)
                if isinstance(x, np.ndarray):
                    assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), f.name
                else:
                    assert x == y, f.name
        assert [w["strain_workers"] for w in works] == [1, 2, 3]
        [hessians] = {w["strain_dense_hessians"] for w in works}
        assert (hessians > 25 * order) == doubles and logs[0].unsettled == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lowest_failing_step_raised(self, monkeypatch, workers):
        """A segment Hessian that fails at steps 9 and 5, in different
        chunks, raises the error of step 5 with its attributes."""
        qa, _, pair, _, _ = _quadratic_pair()
        bad = {pair.log_sp.w(k).tobytes(): k for k in (9, 5)}
        segment_hessian = kv._segment_hessian

        def failing(model, base, *args):
            if base.tobytes() in bad:
                k = bad[base.tobytes()]
                raise NonConvergenceError(f"step {k}", [float(k)])
            return segment_hessian(model, base, *args)

        monkeypatch.setattr(kv, "_segment_hessian", failing)
        with pytest.raises(NonConvergenceError) as err:
            kv.strain_run(pair, qa, workers=workers)
        assert str(err.value) == "step 5" and err.value.history == [5.0]
        _no_child_left()

    def test_strain_bound_holds(self):
        qa, _, pair, _, _ = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        bound = kv.strain_bound_rhs(strain)
        for k in range(1, strain.num_steps + 1):
            assert np.linalg.norm(strain.delta[k]) <= bound[k] + 1e-10

    def test_bound_recurrence_matches_double_sum(self):
        rng = np.random.default_rng(4)
        K, dim, eta = 60, 5, 0.3
        kappa = np.where(rng.random(K) < 0.5, 0.0, 0.2 * rng.random(K))
        strain = kv.StrainLog(eta=eta, delta=np.zeros((K + 1, dim)),
                              stress=rng.standard_normal((K, dim)),
                              propagated=np.zeros((K + 1, dim)), kappa=kappa,
                              residual=np.zeros(K))
        bound = kv.strain_bound_rhs(strain)
        assert bound.shape == (K + 1,)
        assert bound[0] == 0.0
        for k in range(K + 1):
            explicit = eta * sum(math.exp(float(np.sum(kappa[s + 1:k])))
                                 * float(np.linalg.norm(strain.stress[s]))
                                 for s in range(k))
            assert abs(bound[k] - explicit) <= 1e-13 * explicit

    def test_segment_hessians_exactly_symmetric(self):
        m1, m2 = _mlp_leave_one_out_models()
        pair = run_pair_gd(m1, m2, m1.init_params(seed=7), 0.3, 5)
        for A in _segment_hessians(pair, m1, uniform_rule()):
            assert np.array_equal(A, A.T)

    def test_classical_window_linear_bound(self):
        """All step matrices inside [0, 2/eta]: strain is bounded by the
        plain accumulated stress (no exponential factor)."""
        qa, _, pair, _, eta = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        assert np.all(strain.kappa == 0.0)
        for k in range(1, strain.num_steps + 1):
            plain = eta * sum(np.linalg.norm(strain.stress[s]) for s in range(k))
            assert np.linalg.norm(strain.delta[k]) <= plain + 1e-12


def _segment_hessians(pair, model, rule):
    """The step matrices A_s of ``strain_run`` at a fixed rule."""
    return [kv._segment_hessian(model, pair.log_sp.w(s),
                                pair.log_s.w(s) - pair.log_sp.w(s), rule)
            for s in range(pair.num_steps)]


def _strain_via_propagator(A, stress, eta, k):
    """Variation-of-constants value -eta sum_{s<k} T[k, s+1] f_s, with the
    propagator products built right to left so each partial product is
    reused."""
    dim = stress.shape[1]
    acc = np.zeros(dim)
    T = np.eye(dim)
    for s in range(k - 1, -1, -1):
        # T currently equals T[k, s+1].
        acc = acc + T @ stress[s]
        T = T @ (np.eye(dim) - eta * A[s])
    return -eta * acc


class TestStrainViaPropagator:
    def test_empty_sum(self):
        qa, _, pair, _, _ = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        np.testing.assert_array_equal(strain.propagated[0], np.zeros(2))

    def test_single_step(self):
        qa, _, pair, _, eta = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        np.testing.assert_allclose(strain.propagated[1],
                                   -eta * strain.stress[0], atol=1e-15)

    def test_matches_logged_strain(self):
        qa, _, pair, _, _ = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        for k in range(strain.num_steps + 1):
            err = np.linalg.norm(strain.propagated[k] - strain.delta[k])
            assert err <= 1e-10 * (1 + np.linalg.norm(strain.delta[k]))

    @pytest.mark.parametrize("case", ["quadratic", "mlp_leave_one_out"])
    def test_matches_propagator_product(self, case):
        """The forward recursion equals the right-to-left T-product at
        every step, from the same step matrices."""
        if case == "quadratic":
            model, _, pair, _, eta = _quadratic_pair()
        else:
            model, m2 = _mlp_leave_one_out_models()
            eta = 0.3
            pair = run_pair_gd(model, m2, model.init_params(seed=7), eta, 25)
        strain = kv.strain_run(pair, model, 8)
        A = _segment_hessians(pair, model, uniform_rule(8))
        for k in range(strain.num_steps + 1):
            via = _strain_via_propagator(A, strain.stress, eta, k)
            err = np.linalg.norm(strain.propagated[k] - via)
            assert err <= 1e-10 * (1 + np.linalg.norm(via))


class TestStrainCsv:
    def test_columns(self, tmp_path):
        qa, _, pair, _, _ = _quadratic_pair()
        strain = kv.strain_run(pair, qa)
        path = tmp_path / "strain.csv"
        kv.write_strain_csv(strain, path)
        lines = path.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == ("k,strain_norm,stress_norm,kappa,"
                            "recurrence_residual,bound_rhs")
        assert len(lines) == 13
