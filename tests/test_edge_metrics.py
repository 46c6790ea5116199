"""Curvature routes, localization, balance reports, and the noisy balance."""

import dataclasses
import math
import os
from collections import Counter

import numpy as np
import pytest

from edge_lab import edge_metrics as em
from edge_lab import verify
from edge_lab.loss_models import (LossModel, MlpModel, make_mlp,
                                  make_quadratic, make_scalar_poly,
                                  make_synthetic_dataset,
                                  make_two_layer_linear, balanced_minimizer)
from edge_lab.numerics import EvaluationError, NonConvergenceError, lambda_max_iter
from edge_lab.trajectory import NoiseSource, TrajectoryLog, run_gd, run_sgd


class _CountingModel:
    """Counts the profile nodes a wrapped model evaluates through its
    ``segment_profile`` operators, the nodes of each call, and records
    the points they are made at."""

    def __init__(self, model):
        self.model, self.calls, self.sizes, self.points = model, 0, [], []

    def segment_profile(self, w, d):
        profile = self.model.segment_profile(w, d)

        def counted(taus):
            self.calls += len(taus)
            self.sizes.append(len(taus))
            self.points.extend((w + t * d).tobytes() for t in taus)
            return profile(taus)
        return counted


class _BumpModel(LossModel):
    """1-D model with curvature x + exp(-((x - c) / s)^2): a bump of
    width 1/512 centred just right of 1/2, which the first K9 interval
    barely sees."""

    dim = 1
    CENTER, WIDTH = 65 / 128, 1 / 512

    def hvp(self, w, v):
        x = float(w[0])
        return (x + math.exp(-((x - self.CENTER) / self.WIDTH) ** 2)) * np.asarray(v)


class _OddBumpModel(LossModel):
    """1-D model with curvature g(x - 0.3) - g(x - 0.7), g a Gaussian of
    width 0.05: odd about 1/2, so every symmetric rule integrates it to 0
    on [0, 1] and only the triangular average can tell rules apart."""

    dim = 1
    WIDTH = 0.05

    def hvp(self, w, v):
        x = float(w[0])
        g = [math.exp(-((x - c) / self.WIDTH) ** 2) for c in (0.3, 0.7)]
        return (g[0] - g[1]) * np.asarray(v)


class _CurvatureModel(LossModel):
    """1-D model whose curvature at x is ``curv(x)``."""

    dim = 1

    def __init__(self, curv):
        self.curv = curv

    def hvp(self, w, v):
        return self.curv(float(w[0])) * np.asarray(v)


def _unit_segment_log():
    """One step from 0 to 1 (gradient -1 at eta 1), so tau is the point itself."""
    return TrajectoryLog(eta=1.0, model_id="unit", losses=np.zeros(2),
                         grads=np.array([[-1.0], [0.0]]),
                         w_stored=np.array([[0.0], [1.0]]))


@pytest.fixture(scope="module")
def mlp_run():
    ds = make_synthetic_dataset(0, 60, 5, 3, teacher_rank=2, noise=0.1)
    model = make_mlp([5, 8, 3], "tanh", ds)
    log = run_gd(model, model.init_params(seed=1), 0.5, 120)
    return model, log


class TestCurvatureRoutes:
    def test_quadratic_all_routes_agree(self):
        """Every route returns u^T H u on a quadratic, to 1e-12."""
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        H = (A + A.T) / 2 + 2.5 * np.eye(5)
        model = make_quadratic(H)
        log = run_gd(model, rng.standard_normal(5), 0.3, 40)
        table = em.curvature_table(model, log)
        assert table.skipped == [] and list(table.k) == list(range(40))
        for k in range(0, 40, 5):
            d = log.step(k)
            u = d / np.linalg.norm(d)
            uhu = float(u @ H @ u)
            assert em.step_mean_curvature_exact(log, k) == pytest.approx(uhu, abs=1e-12)
            assert em.effective_curvature_from_loss(log, k) == pytest.approx(uhu, abs=1e-12)
            assert table.rbar[k] == pytest.approx(uhu, abs=1e-12)
            assert table.rtilde[k] == pytest.approx(uhu, abs=1e-12)

    def test_linear_profile_closed_forms(self):
        """With curvature linear along the step, the uniform average sits at
        the midpoint value and the triangular average at one third."""
        model = make_scalar_poly(1.0, 1.0, 0.0)   # L'' = 1 + 2x
        x0, eta = 0.2, 0.5
        log = run_gd(model, np.array([x0]), eta, 3)
        d = float(log.step(0)[0])
        q0, slope = 1.0 + 2.0 * x0, 2.0 * d
        assert em.step_mean_curvature_exact(log, 0) == \
            pytest.approx(q0 + slope / 2.0, abs=1e-13)
        assert em.effective_curvature_from_loss(log, 0) == \
            pytest.approx(q0 + slope / 3.0, abs=1e-12)
        table = em.curvature_table(model, log)
        assert table.rbar[0] == pytest.approx(q0 + slope / 2.0, abs=1e-13)
        assert table.rtilde[0] == pytest.approx(q0 + slope / 3.0, abs=1e-13)

    def test_route_agreement_two_layer(self):
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        model = geom.model
        log = run_gd(model, w_bar + 0.01 * geom.sharp_direction(), 0.55, 200)
        table = em.curvature_table(model, log)
        assert table.skipped == []
        for k in range(0, 200, 13):
            a = em.effective_curvature_from_loss(log, k)
            assert abs(a - table.rtilde[k]) <= 1e-10

    def test_route_agreement_mlp(self, mlp_run):
        model, log = mlp_run
        table = em.curvature_table(model, log)
        assert table.skipped == []
        for k in range(0, log.num_steps, 11):
            a = em.effective_curvature_from_loss(log, k)
            assert abs(a - table.rtilde[k]) <= 1e-6 * max(1.0, abs(a))
            c = em.step_mean_curvature_exact(log, k)
            assert abs(c - table.rbar[k]) <= 1e-6 * max(1.0, abs(c))

    def test_ascent_step_constructed(self):
        """A supercritical quartic step raises the loss."""
        model = make_scalar_poly(1.0, 0.0, -1.0)
        log = run_gd(model, np.array([0.05]), 2.5, 40)
        rts = [em.effective_curvature_from_loss(log, k) for k in range(40)]
        ascents = [k for k, rt in enumerate(rts) if rt > 2 / 2.5]
        assert ascents
        for k in ascents:
            assert log.losses[k + 1] > log.losses[k]

    def test_degenerate_step_rejected(self):
        model = make_scalar_poly(3.0)
        log = run_gd(model, np.array([1.0]), 0.5, 3)
        log.grads[1] = 0.0
        with pytest.raises(em.DegenerateStepError):
            em.step_mean_curvature_exact(log, 1)

    def test_one_node_set_per_order(self):
        """Both averages and their error estimate come from the same profile
        values: the quartic's profile is a parabola, so each step settles
        on its first K9 interval, 9 nodes, and no more."""
        model = make_scalar_poly(1.0, 0.0, -1.0)
        log = run_gd(model, np.array([0.3]), 2.5, 5)
        counted = _CountingModel(model)
        table = em.curvature_table(counted, log)
        assert counted.calls == 5 * 9
        assert list(table.nodes) == [9] * 5 and table.unsettled == []

    def test_nodes_per_step_mlp(self, mlp_run):
        """A step that settles on its first interval costs exactly 9 nodes
        in one ``segment_curvature`` call; each bisection adds one call
        with 9 nodes for each half. ``nodes`` records what was spent.
        The count is of this process, so the table is computed in it alone."""
        model, log = mlp_run
        counted = _CountingModel(model)
        table = em.curvature_table(counted, log, workers=1)
        assert table.unsettled == [] and np.sum(table.nodes == 9) > 0
        expected = []
        for n in table.nodes:
            assert (n - 9) % 18 == 0
            expected += [9] + [18] * ((n - 9) // 18)
        assert counted.sizes == expected
        assert counted.calls == int(table.nodes.sum())

    def test_bisection_resolves_narrow_bump(self, monkeypatch):
        """q(tau) = tau + a Gaussian bump of width 1/512 that the first K9
        interval barely sees: bisection settles both averages on their
        closed forms; with a budget of 4 intervals the step is unsettled."""
        model = _BumpModel()
        log = TrajectoryLog(eta=1.0, model_id="bump", losses=np.zeros(2),
                            grads=np.array([[-1.0], [0.0]]),
                            w_stored=np.array([[0.0], [1.0]]))
        mass = model.WIDTH * math.sqrt(math.pi)
        table = em.curvature_table(model, log)
        assert table.unsettled == [] and table.nodes[0] > 9
        assert abs(table.rbar[0] - (0.5 + mass)) <= 1e-9
        assert abs(table.rtilde[0] - (1.0 / 3.0 + 2.0 * (1.0 - model.CENTER) * mass)) <= 1e-9
        monkeypatch.setattr(em, "QUADRATURE_MAX_INTERVALS", 4)
        table = em.curvature_table(model, log)
        assert table.unsettled == [0] and list(table.nodes) == [9 + 3 * 18]

    def test_rtilde_error_alone_bisects(self):
        """A profile odd about 1/2 has rbar = 0 on every rule, so only the
        rtilde error estimate asks for bisection; rtilde then settles on
        its closed form 2 (1 - 2 * 0.3) sqrt(pi) width."""
        model = _OddBumpModel()
        log = TrajectoryLog(eta=1.0, model_id="odd", losses=np.zeros(2),
                            grads=np.array([[-1.0], [0.0]]),
                            w_stored=np.array([[0.0], [1.0]]))
        table = em.curvature_table(model, log)
        assert table.unsettled == [] and table.nodes[0] > 9
        assert abs(table.rbar[0]) <= 1e-15
        exact = 2.0 * 0.4 * model.WIDTH * math.sqrt(math.pi)
        assert abs(table.rtilde[0] - exact) <= 1e-9


class TestProfileAndLocalization:
    def test_profile_constant_on_quadratic(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        w, d = np.array([1.0, 0.0]), np.array([-0.5, 0.0])
        vals = model.segment_curvature(w, d, (0.0, 0.3, 1.0))
        np.testing.assert_allclose(vals, 3.0, atol=1e-14)

    def test_profile_linear_example(self):
        model = make_scalar_poly(1.0, 1.0, 0.0)
        taus = np.array([0.0, 0.25, 0.8])
        vals = model.segment_curvature(np.array([0.0]), np.array([1.0]), taus)
        np.testing.assert_allclose(vals, 1.0 + 2.0 * taus, atol=1e-14)

    def test_profile_quadratic_interpolates(self):
        """Quartic loss: the profile is a parabola in the interior parameter."""
        model = make_scalar_poly(1.0, 0.0, -1.0)
        w, d = np.array([0.1]), np.array([0.5])
        taus = np.array([0.0, 0.5, 1.0])
        poly = np.polyfit(taus, model.segment_curvature(w, d, taus), 2)
        others = np.array([0.2, 0.7, 0.9])
        np.testing.assert_allclose(model.segment_curvature(w, d, others),
                                   np.polyval(poly, others), atol=1e-12)

    def test_localize_constant_profile_midpoint(self):
        """The table's profile values span less than tol: the midpoint 0.5,
        itself a node of the table's one K9 interval, so nothing is
        evaluated."""
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_gd(model, np.array([1.0, 1.0]), 0.5, 5)
        table = em.curvature_table(model, log)
        counted = _CountingModel(model)
        [rec] = em.localize(counted, log, 0, (table.rtilde[0],), table.profile(0))
        assert rec.constant_profile and rec.point == 0.5
        assert counted.calls == 0

    def test_localize_linear_profile_closed_form(self):
        model = make_scalar_poly(1.0, 1.0, 0.0)
        log = run_gd(model, np.array([0.3]), 0.5, 3)
        table = em.curvature_table(model, log)
        xi, zeta = em.localize(model, log, 0, (table.rtilde[0], table.rbar[0]),
                               table.profile(0), tol=1e-12)
        assert xi.point == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert zeta.point == pytest.approx(0.5, abs=1e-8)
        assert abs(xi.q_at_point - xi.target) <= 1e-10

    def test_localized_sharpness_dominates(self, mlp_run):
        model, log = mlp_run
        table = em.curvature_table(model, log)
        for k in range(0, log.num_steps, 17):
            [rec] = em.localize(model, log, k, (table.rtilde[k],), table.profile(k))
            lam = em.localized_sharpness(model, log, rec)
            assert lam >= rec.target - 1e-8

    def test_localized_sharpness_reuses_one_linearization(self, mlp_run, monkeypatch):
        """The Lanczos path (dim > 64) runs one forward pass for all its
        products, and its estimate is the one from per-product hvp calls;
        ``work`` counts every product, the symmetry spot-check's included."""
        model, log = mlp_run
        assert model.dim > 64
        rec = em.LocalizationRecord(k=5, point=0.4, target=0.0, q_at_point=0.0,
                                    constant_profile=False)
        d = log.step(5)
        w_pt = log.w(5) + 0.4 * d
        products = []
        per_call = lambda_max_iter(lambda v: products.append(1) or model.hvp(w_pt, v),
                                   model.dim, v0=d / np.linalg.norm(d))
        calls = []
        forward = MlpModel._forward

        def counting_forward(self, params, X):
            calls.append(1)
            return forward(self, params, X)

        monkeypatch.setattr(MlpModel, "_forward", counting_forward)
        work = Counter()
        assert em.localized_sharpness(model, log, rec, work) == per_call
        assert len(calls) == 1
        assert work == {"lanczos_products": len(products)} and len(products) > 2

    def test_two_targets_match_single_target_calls(self, mlp_run):
        model, log = mlp_run
        table = em.curvature_table(model, log)
        for k in range(0, log.num_steps, 23):
            targets, profile = (table.rtilde[k], table.rbar[k]), table.profile(k)
            single = [rec for t in targets
                      for rec in em.localize(model, log, k, (t,), profile)]
            assert em.localize(model, log, k, targets, profile) == single

    def test_each_tau_evaluated_once(self, mlp_run):
        """From the table's profile, localization evaluates only Brent's
        points, one per call, none of them a table node (Brent's bracket
        ends are) and none twice (the root is read back). ``work`` counts
        them."""
        model, log = mlp_run
        table = em.curvature_table(model, log)
        for k in (0, 5, 60):
            targets = (table.rtilde[k], table.rbar[k])
            taus, _ = table.profile(k)
            w, d = log.w(k), log.step(k)
            table_points = {(w + t * d).tobytes() for t in taus}
            counted, work = _CountingModel(model), Counter()
            em.localize(counted, log, k, targets, table.profile(k), work=work)
            assert set(counted.sizes) == {1}
            assert len(set(counted.points)) == counted.calls
            assert work == {"localization_profile_nodes": counted.calls}
            assert not table_points & set(counted.points)

    def test_leftmost_event_wins(self):
        """q(tau) = (tau - 0.125)(tau - 0.1) changes sign between the
        nodes 0.05 and 0.11 and equals the target 0 exactly at the node
        0.125: the leftmost of the two events is the point, the root 0.1
        on the first node set, the node 0.125 on the second."""
        curv = lambda x: (x - 0.125) * (x - 0.1)
        model = _CurvatureModel(curv)
        for taus, point in (([0.05, 0.11, 0.125, 0.3], 0.1),
                            ([0.112, 0.125, 0.3], 0.125)):
            taus = np.array(taus)
            profile = (taus, np.array([curv(t) for t in taus]))
            [rec] = em.localize(model, _unit_segment_log(), 0, (0.0,), profile)
            assert rec.point == pytest.approx(point, abs=1e-12)
            assert not rec.constant_profile

    def test_exact_interior_hit(self):
        """q(tau) = tau - 0.5 equals the target at the K9 node 0.5 exactly
        and changes sign nowhere else: the node is the point, and q there
        is the target."""
        model = _CurvatureModel(lambda x: x - 0.5)
        profile = (em.K9_NODES, em.K9_NODES - 0.5)
        [rec] = em.localize(model, _unit_segment_log(), 0, (0.0,), profile)
        assert rec.point == 0.5 and rec.q_at_point == 0.0

    def test_unbracketed_target_raises_localization_error(self):
        """A target above or below every profile value is no average of
        them: LocalizationError, a RuntimeError, naming the step, with no
        further profile value evaluated."""
        model = _CurvatureModel(lambda x: 2.0 + x)
        taus = em.K9_NODES
        counted = _CountingModel(model)
        with pytest.raises(em.LocalizationError, match="step 0") as info:
            em.localize(counted, _unit_segment_log(), 0, (1.0,), (taus, 2.0 + taus))
        assert isinstance(info.value, RuntimeError)
        assert counted.sizes == []

    def test_bundled_tables_bracket_both_targets(self):
        """Both averages of every row of every bundled run's quadrature
        table lie between its least and largest profile value (so adjacent
        nodes bracket them), or the row is constant within 1e-10."""
        for name, (model, log) in verify._bundle().items():
            table = em.curvature_table(model, log)
            for i in range(len(table.k)):
                _, qs = table.profile(i)
                if qs.max() - qs.min() <= 1e-10:
                    continue
                for target in (table.rtilde[i], table.rbar[i]):
                    assert qs.min() <= target <= qs.max(), (name, int(table.k[i]))


class TestBalanceReport:
    def test_quadratic_report_values(self):
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1.0]), 0.5, 50)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        assert rep.weighted_mean == pytest.approx(3.0, abs=1e-12)
        assert rep.identity_residual <= 1e-12
        assert rep.max_rtilde == pytest.approx(3.0, abs=1e-12)
        assert rep.max_rtilde >= rep.forcing_bound - 1e-12

    def test_forcing_bound_strictly_below_curvature_early(self):
        """While the loss is still dropping, the forcing bound sits strictly
        below the constant curvature it predicts."""
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1.0]), 0.5, 10)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        assert rep.forcing_bound < 3.0
        assert rep.max_rtilde >= rep.forcing_bound

    def test_signed_decomposition(self):
        model = make_scalar_poly(1.0, 0.0, -1.0)
        log = run_gd(model, np.array([0.3]), 2.5, 500)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        assert rep.B_minus - rep.B_plus == pytest.approx(2 * rep.loss_drop, abs=1e-9)
        assert rep.B_minus >= 0 and rep.B_plus >= 0

    def test_window_masses_bounded(self):
        model = make_scalar_poly(1.0, 0.0, -1.0)
        log = run_gd(model, np.array([0.3]), 2.5, 500)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        E = rep.E_K
        for delta, wm in rep.windows.items():
            assert wm.sub_mass <= wm.sub_bound + 1e-9
            assert wm.super_mass <= wm.super_bound + 1e-9
            assert 0.0 <= wm.in_window_fraction <= 1.0
            total = wm.sub_mass + wm.super_mass + wm.in_window_fraction * E
            # partition cannot exceed the total weight (boundary steps excluded)
            assert total <= E * (1 + 1e-12)

    def test_degenerate_tail_skipped(self):
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1.0]), 0.5, 120)  # d_k underflows late
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        assert len(rep.table.skipped) > 0
        assert rep.to_dict()["skipped_steps"] == rep.table.skipped
        assert rep.identity_residual <= 1e-12

    def test_forcing_with_unknown_infimum(self):
        model = make_scalar_poly(-1.0)     # concave: no declared lower bound
        assert model.inf_value is None
        log = run_gd(model, np.array([0.1]), 0.1, 5)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        assert math.isnan(rep.forcing_bound)
        _, forcing = em.running_balance(model, log, rep.table)
        assert np.all(np.isnan(forcing))

    def test_running_balance_ends_at_report(self):
        """The running mean and forcing bound end at the report's values,
        and the largest rtilde so far never falls below the bound."""
        model = make_scalar_poly(1.0, 0.0, -1.0)
        log = run_gd(model, np.array([0.3]), 2.5, 500)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        running, forcing = em.running_balance(model, log, rep.table)
        assert running.shape == forcing.shape == rep.table.k.shape
        assert running[-1] == pytest.approx(rep.weighted_mean, rel=1e-12)
        assert forcing[-1] == pytest.approx(rep.forcing_bound, rel=1e-12)
        assert np.all(np.maximum.accumulate(rep.table.rtilde) >= forcing - 1e-12)

    def test_report_json_ready(self):
        import json
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1.0]), 0.5, 20)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        json.dumps(rep.to_dict())


class TestNearPeriodicityAndProxy:
    def test_exact_period_two(self):
        log = run_gd(make_scalar_poly(4.0), np.array([1.0]), 0.5, 10)
        lhs, rhs = em.near_periodicity_bound(log, 2)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_subcritical_equality(self):
        log = run_gd(make_scalar_poly(3.0), np.array([1.0]), 0.5, 10)
        lhs, rhs = em.near_periodicity_bound(log, 0)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_bound_holds_on_random_runs(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2 + 2.0 * np.eye(4)
        log = run_gd(make_quadratic(H), rng.standard_normal(4), 0.45, 60)
        for k in range(log.num_steps - 1):
            lhs, rhs = em.near_periodicity_bound(log, k)
            assert lhs <= rhs + 1e-10

    def test_proxy_exact_on_quadratic(self):
        log = run_gd(make_quadratic(np.diag([3.0, 1.0])), np.array([1.0, 1.0]),
                     0.5, 30)
        for k in range(log.num_steps - 1):
            proxy, actual = em.loss_change_proxy(log, k)
            assert proxy == pytest.approx(actual, abs=1e-13)

    def test_proxy_zero_at_period_two(self):
        log = run_gd(make_scalar_poly(4.0), np.array([1.0]), 0.5, 10)
        proxy, actual = em.loss_change_proxy(log, 1)
        assert proxy == pytest.approx(0.0, abs=1e-13)
        assert actual == pytest.approx(0.0, abs=1e-13)

    def test_return_ratio(self):
        log = run_gd(make_scalar_poly(3.0), np.array([1.0]), 0.5, 10)
        # two-step displacement (2 - eta*lam) d_k, so ratio |2 - 1.5| = 0.5
        assert em.return_ratio(log, 0) == pytest.approx(0.5, abs=1e-12)


class TestEosOnset:
    def test_first_crossing(self):
        r = np.array([1.0, 2.0, 3.79, 3.81, 3.5])
        no_profile = (np.zeros(1, dtype=np.int64), np.empty(0), np.empty(0))
        table = em.CurvatureTable(np.arange(5), np.ones(5), r, r,
                                  np.zeros(5, dtype=np.int64), [], [], *no_profile)
        assert em.eos_onset(table, 0.5) == 3
        short = em.CurvatureTable(np.arange(2), np.ones(2), r[:2], r[:2],
                                  np.zeros(2, dtype=np.int64), [], [], *no_profile)
        assert em.eos_onset(short, 0.5) is None

    def test_reports_trajectory_step_after_skipped_steps(self):
        """Steps 0-5 are degenerate; the onset is step 6, not row 0."""
        model = make_quadratic([[3.0]])
        log = run_gd(model, np.array([1e-16]), 1.0, 40)
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log))
        assert rep.table.skipped == [0, 1, 2, 3, 4, 5]
        assert list(rep.table.k) == list(range(6, 40))
        assert em.eos_onset(rep.table, 1.0) == 6


class TestSgdBalance:
    def test_zero_noise_reduces_to_deterministic(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_sgd(model, np.array([1.0, -1.0]), 0.5, 60,
                      NoiseSource("gaussian", seed=0, sigma=0.0))
        rep = em.sgd_balance_report(model, log)
        assert rep.cross_term == 0.0 and rep.noise_term == 0.0
        assert rep.residual <= 1e-11

    def test_quadratic_identity_any_noise(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        for sigma in (0.01, 0.2):
            log = run_sgd(model, np.array([1.0, -1.0]), 0.5, 150,
                          NoiseSource("gaussian", seed=13, sigma=sigma))
            rep = em.sgd_balance_report(model, log)
            assert rep.residual <= 1e-11
            assert rep.max_propagator_residual <= 1e-11

    def test_missing_noise_rejected(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_sgd(model, np.array([1.0, -1.0]), 0.5, 10,
                      NoiseSource("gaussian", seed=0, sigma=0.1))
        log.noise = log.noise[:5]
        with pytest.raises(ValueError):
            em.sgd_balance_report(model, log)


class TestMetricsCsv:
    def test_columns_and_rows(self, tmp_path):
        model = make_scalar_poly(1.0, 1.0, 0.0)
        log = run_gd(model, np.array([0.3]), 0.5, 8)
        path = tmp_path / "metrics.csv"
        em.write_metrics_csv(model, log, em.curvature_table(model, log), path,
                             with_localization=True)
        lines = path.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == ("k,step_norm_sq,rbar,rtilde,xi,zeta,lambda_max_xi,"
                            "delta_L,proxy,return_ratio,rbar_exact,rtilde_exact")
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(1 / 3, abs=1e-6)
        assert float(first[5]) == pytest.approx(0.5, abs=1e-6)
        last = lines[-1].split(",")
        assert last[8] == "" and last[9] == ""  # no k+2 record at the end

    @staticmethod
    def _exact_columns(model, log, tmp_path):
        """{k: (rbar_exact, rtilde_exact) cells} of an unlocalized metrics.csv."""
        path = tmp_path / "metrics.csv"
        em.write_metrics_csv(model, log, em.curvature_table(model, log), path,
                             with_localization=False)
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        assert lines[0].split(",")[10:] == ["rbar_exact", "rtilde_exact"]
        return {int(c[0]): tuple(c[10:]) for c in (ln.split(",") for ln in lines[1:])}

    def test_exact_columns_are_the_exact_routes(self, mlp_run, tmp_path):
        """Bit for bit the library's gradient-difference and loss-change routes."""
        model, log = mlp_run
        cells = self._exact_columns(model, log, tmp_path)
        assert list(cells) == list(range(log.num_steps))
        for k, (rbar, rtilde) in cells.items():
            assert float(rbar) == em.step_mean_curvature_exact(log, k)
            assert float(rtilde) == em.effective_curvature_from_loss(log, k)

    def test_exact_columns_on_quadratic(self, tmp_path):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2 + 2.0 * np.eye(4)
        model = make_quadratic(H)
        log = run_gd(model, rng.standard_normal(4), 0.3, 30)
        for k, cells in self._exact_columns(model, log, tmp_path).items():
            d = log.step(k)
            u = d / np.linalg.norm(d)
            for cell in cells:
                assert abs(float(cell) - float(u @ H @ u)) <= 1e-12

    def test_exact_columns_empty_on_degenerate_steps(self, tmp_path):
        """Steps 0-5 are too short to have a direction."""
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1e-16]), 1.0, 10)
        cells = self._exact_columns(model, log, tmp_path)
        assert all(cells[k] == ("", "") for k in range(6))
        assert all(float(c) == pytest.approx(3.0, abs=1e-12)
                   for k in range(6, 10) for c in cells[k])


# Steps 90-101 of a GELU MLP run, of which steps 92-98 (2-8 here) need
# bisection.
@pytest.fixture(scope="module")
def gelu_run():
    ds = make_synthetic_dataset(628, 36, 3, 3, noise=0.1)
    model = make_mlp([3, 2, 7, 3], "gelu", ds)
    eta = 1.6168833663738404
    w90 = run_gd(model, model.init_params(268), eta, 90).w(90)
    return model, run_gd(model, w90, eta, 12)


def _assert_same_table(a, b):
    """Every field of two tables equal, arrays in dtype, shape and bytes."""
    for f in dataclasses.fields(em.CurvatureTable):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


class _FailingModel:
    """Wraps a model; the profile of each step starting at a point of
    ``bad`` gives NaN, or raises ``error`` if one is given."""

    def __init__(self, model, bad, error=None):
        self.model, self.bad, self.error = model, [w.tobytes() for w in bad], error

    def segment_profile(self, w, d):
        if w.tobytes() not in self.bad:
            return self.model.segment_profile(w, d)
        if self.error is not None:
            raise self.error
        return lambda taus: np.full(len(taus), np.nan)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelTable:
    """The table's rows are computed in chunks of consecutive steps that
    forked processes take on demand; the table is the same for any
    count. Chunks of 2 steps here, so the 12 steps make 6 chunks."""

    @pytest.fixture(autouse=True)
    def _short_chunks(self, monkeypatch):
        monkeypatch.setattr(em, "_CHUNK_STEPS", 2)
        yield
        _no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_bisected_steps_identical(self, gelu_run, workers):
        model, log = gelu_run
        work = Counter()
        table = em.curvature_table(model, log, work, workers=workers)
        assert work["curvature_table_workers"] == workers
        _assert_same_table(table, em.curvature_table(model, log, workers=1))
        assert np.all(table.nodes[2:9] > 9)

    def test_degenerate_steps_skipped(self):
        """Steps 0-5, too short to have a direction, are skipped; the
        chunks hold only the other 34 steps."""
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1e-16]), 1.0, 40)
        table = em.curvature_table(model, log, workers=2)
        assert table.skipped == list(range(6)) and list(table.k) == list(range(6, 40))
        _assert_same_table(table, em.curvature_table(model, log, workers=1))

    def test_unsettled_steps_in_order(self, gelu_run, monkeypatch):
        """With a budget of one interval the bisecting steps 2-8, in four
        chunks, are listed unsettled in k order."""
        monkeypatch.setattr(em, "QUADRATURE_MAX_INTERVALS", 1)
        model, log = gelu_run
        table = em.curvature_table(model, log, workers=2)
        assert table.unsettled == list(range(2, 9))
        _assert_same_table(table, em.curvature_table(model, log, workers=1))

    def test_chunk_of_a_lost_process_computed_here(self, gelu_run, monkeypatch):
        """A forked process that ends without its rows (here at step 3),
        or one that cannot be forked, leaves its chunks to this process."""
        model, log = gelu_run
        parent = os.getpid()

        class Dying(_FailingModel):
            def segment_profile(self, w, d):
                if w.tobytes() in self.bad and os.getpid() != parent:
                    os._exit(3)
                return self.model.segment_profile(w, d)

        reference = em.curvature_table(model, log, workers=1)
        _assert_same_table(em.curvature_table(Dying(model, [log.w(3)]), log, workers=2),
                           reference)
        _no_child_left()

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
        _assert_same_table(em.curvature_table(model, log, workers=2), reference)

    def test_one_process_where_fork_is_missing(self, gelu_run, monkeypatch):
        monkeypatch.delattr(os, "fork")
        work = Counter()
        em.curvature_table(*gelu_run, work=work)
        assert work["curvature_table_workers"] == 1

    @pytest.mark.parametrize("bad", [[3], [3, 5], [1, 3]],
                             ids=["step_3", "steps_3_and_5", "steps_1_and_3"])
    def test_non_finite_profile(self, gelu_run, bad):
        """A NaN profile at step 3 raises the EvaluationError one process
        raises, naming the step; of several such steps the lowest is
        named, whichever process met it first."""
        model, log = gelu_run
        failing = _FailingModel(model, [log.w(k) for k in bad])
        messages = []
        for workers in (1, 2):
            with pytest.raises(EvaluationError) as err:
                em.curvature_table(failing, log, workers=workers)
            messages.append(str(err.value))
            _no_child_left()
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            f"curvature table, step {bad[0]}: non-finite profile value nan at tau ")

    def test_worker_nonconvergence_keeps_history(self, gelu_run):
        model, log = gelu_run
        failing = _FailingModel(model, [log.w(3)],
                                NonConvergenceError("no convergence", [3.0, 2.5]))
        with pytest.raises(NonConvergenceError) as err:
            em.curvature_table(failing, log, workers=2)
        assert str(err.value) == "no convergence" and err.value.history == [3.0, 2.5]
