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
from edge_lab.trajectory import NoiseSource, StepStream, TrajectoryLog, run_gd, run_sgd


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


def _unit_segment_profile(model):
    """Profile operator of the 1-D step from 0 to 1, so tau is the point itself."""
    return model.segment_profile(np.array([0.0]), np.array([1.0]))


def _assert_routes_within_bounds(table, tolerance):
    """|rbar - rbar_exact| <= rbar_bound and |rtilde - rtilde_exact| <=
    rtilde_bound at every row, each bound within ``tolerance(exact)``."""
    for name in ("rbar", "rtilde"):
        exact, bound = getattr(table, f"{name}_exact"), getattr(table, f"{name}_bound")
        assert np.all(np.abs(getattr(table, name) - exact) <= bound), name
        assert np.all(bound <= tolerance(exact)), name


def _quadrature(model, log, k):
    """(rbar, rtilde, their error estimates, profile nodes, settled,
    profile operator, final nodes, their values) of step k, as its
    curvature-table row computes them."""
    return em._segment_averages(model, log.w(k), log.step(k))


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
            assert table.rbar_exact[k] == pytest.approx(uhu, abs=1e-12)
            assert table.rtilde_exact[k] == pytest.approx(uhu, abs=1e-12)
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
        table = em.curvature_table(model, log)
        assert table.rbar_exact[0] == pytest.approx(q0 + slope / 2.0, abs=1e-13)
        assert table.rtilde_exact[0] == pytest.approx(q0 + slope / 3.0, abs=1e-12)
        assert table.rbar[0] == pytest.approx(q0 + slope / 2.0, abs=1e-13)
        assert table.rtilde[0] == pytest.approx(q0 + slope / 3.0, abs=1e-13)

    def test_route_agreement_two_layer(self):
        """At every step both averages lie within their bound columns of
        their exact routes, and the bounds within 1e-10."""
        w_bar, geom = balanced_minimizer(np.diag([2.0, 1.0]), 2)
        model = geom.model
        log = run_gd(model, w_bar + 0.01 * geom.sharp_direction(), 0.55, 200)
        table = em.curvature_table(model, log)
        assert table.skipped == []
        _assert_routes_within_bounds(table, lambda exact: 1e-10)

    def test_route_agreement_mlp(self, mlp_run):
        """At every step both averages lie within their bound columns of
        their exact routes, and the bounds within 1e-6 relative."""
        model, log = mlp_run
        table = em.curvature_table(model, log)
        assert table.skipped == []
        _assert_routes_within_bounds(
            table, lambda exact: 1e-6 * np.maximum(1.0, np.abs(exact)))

    def test_bounds_add_rounding_to_quadrature_estimates(self, mlp_run):
        """Each row's bound columns are its quadrature's |K9 - G4| estimates
        plus the positive rounding terms of its exact routes, from the
        losses and the norms of the iterates and gradients at both ends."""
        model, log = mlp_run
        table = em.curvature_table(model, log)
        assert table.skipped == []
        for k in range(0, log.num_steps, 17):
            _, _, e_bar, e_tilde, *_ = _quadrature(model, log, k)
            norms = [tuple(float(np.linalg.norm(v[j])) for j in (k, k + 1))
                     for v in (log.w_stored, log.grads)]
            r_bar, r_tilde = em._route_rounding(
                log.eta, table.rbar_exact[k], table.step_norm_sq[k],
                log.losses[k:k + 2], *norms)
            assert r_bar > 0.0 and r_tilde > 0.0
            assert table.rbar_bound[k] == pytest.approx(e_bar + r_bar, rel=1e-12)
            assert table.rtilde_bound[k] == pytest.approx(e_tilde + r_tilde, rel=1e-12)

    def test_route_rounding_at_minimum_grows_with_iterate(self):
        """With zero gradients and losses, as at a minimum, the rbar term
        still grows with the iterates' norms, through the moved end point
        and the evaluation at w, while the rtilde term is the averages' own
        rounding, 4 eps 2/eta."""
        eps4 = 4.0 * float(np.finfo(float).eps)
        small = em._route_rounding(0.5, 1.0, 1e-4, (0.0, 0.0), (1.0, 1.0), (0.0, 0.0))
        large = em._route_rounding(0.5, 1.0, 1e-4, (0.0, 0.0), (10.0, 10.0), (0.0, 0.0))
        assert small[0] == pytest.approx(eps4 * 4.0 * (1.0 + 2.0 / 1e-2))
        assert large[0] == pytest.approx(eps4 * 4.0 * (1.0 + 20.0 / 1e-2))
        assert small[1] == large[1] == pytest.approx(eps4 * 4.0)

    def test_ascent_step_constructed(self):
        """A supercritical quartic step raises the loss."""
        model = make_scalar_poly(1.0, 0.0, -1.0)
        log = run_gd(model, np.array([0.05]), 2.5, 40)
        table = em.curvature_table(model, log)
        assert list(table.k) == list(range(40))
        ascents = table.k[table.rtilde_exact > 2 / 2.5]
        assert ascents.size
        for k in ascents:
            assert log.losses[k + 1] > log.losses[k]

    def test_degenerate_step_rejected(self):
        """A step too short to have a direction gets no row."""
        model = make_scalar_poly(3.0)
        log = run_gd(model, np.array([1.0]), 0.5, 3)
        log.grads[1] = 0.0
        table = em.curvature_table(model, log)
        assert table.skipped == [1] and list(table.k) == [0, 2]

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
        in one profile call; each bisection adds one call
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
        vals = model.segment_profile(w, d)((0.0, 0.3, 1.0))
        np.testing.assert_allclose(vals, 3.0, atol=1e-14)

    def test_profile_linear_example(self):
        model = make_scalar_poly(1.0, 1.0, 0.0)
        taus = np.array([0.0, 0.25, 0.8])
        vals = model.segment_profile(np.array([0.0]), np.array([1.0]))(taus)
        np.testing.assert_allclose(vals, 1.0 + 2.0 * taus, atol=1e-14)

    def test_profile_quadratic_interpolates(self):
        """Quartic loss: the profile is a parabola in the interior parameter."""
        model = make_scalar_poly(1.0, 0.0, -1.0)
        w, d = np.array([0.1]), np.array([0.5])
        taus = np.array([0.0, 0.5, 1.0])
        poly = np.polyfit(taus, model.segment_profile(w, d)(taus), 2)
        others = np.array([0.2, 0.7, 0.9])
        np.testing.assert_allclose(model.segment_profile(w, d)(others),
                                   np.polyval(poly, others), atol=1e-12)

    def test_localize_constant_profile_midpoint(self):
        """The quadrature's profile values span less than
        CONSTANT_PROFILE_TOL: the midpoint 0.5, itself a node of the
        quadrature's one K9 interval, so nothing more is evaluated."""
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_gd(model, np.array([1.0, 1.0]), 0.5, 5)
        counted = _CountingModel(model)
        _, rtilde, _, _, nodes, _, profile, taus, qs = _quadrature(counted, log, 0)
        assert counted.calls == nodes == 9
        [rec] = em.localize(profile, 0, (rtilde,), taus, qs)
        assert rec.constant_profile and rec.point == 0.5
        assert counted.calls == nodes

    def test_localize_linear_profile_closed_form(self):
        model = make_scalar_poly(1.0, 1.0, 0.0)
        log = run_gd(model, np.array([0.3]), 0.5, 3)
        rbar, rtilde, *_, profile, taus, qs = _quadrature(model, log, 0)
        xi, zeta = em.localize(profile, 0, (rtilde, rbar), taus, qs)
        assert xi.point == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert zeta.point == pytest.approx(0.5, abs=1e-8)
        assert abs(xi.q_at_point - xi.target) <= 1e-10

    def test_localized_sharpness_dominates(self, mlp_run):
        model, log = mlp_run
        table = em.curvature_table(model, log)
        for k in range(0, log.num_steps, 17):
            *_, profile, taus, qs = _quadrature(model, log, k)
            [rec] = em.localize(profile, k, (table.rtilde[k],), taus, qs)
            lam = em.localized_sharpness(model, log.w(k), log.step(k), rec)
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
        assert em.localized_sharpness(model, log.w(5), d, rec, work) == per_call
        assert len(calls) == 1
        assert work == {"lanczos_products": len(products)} and len(products) > 2

    def test_two_targets_match_single_target_calls(self, mlp_run):
        model, log = mlp_run
        for k in range(0, log.num_steps, 23):
            rbar, rtilde, *_, profile, taus, qs = _quadrature(model, log, k)
            single = [rec for t in (rtilde, rbar)
                      for rec in em.localize(profile, k, (t,), taus, qs)]
            assert em.localize(profile, k, (rtilde, rbar), taus, qs) == single

    def test_each_tau_evaluated_once(self, mlp_run):
        """From the final nodes of the step's quadrature, localization
        evaluates on the quadrature's operator only Brent's points, one
        per call, none of them a final node (Brent's bracket ends are)
        and none twice (the root is read back). ``work`` counts them."""
        model, log = mlp_run
        for k in (0, 5, 60):
            counted, work = _CountingModel(model), Counter()
            rbar, rtilde, *_, profile, taus, qs = _quadrature(counted, log, k)
            w, d = log.w(k), log.step(k)
            table_points = {(w + t * d).tobytes() for t in taus}
            counted.calls, counted.sizes, counted.points = 0, [], []
            em.localize(profile, k, (rtilde, rbar), taus, qs, work=work)
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
            [rec] = em.localize(_unit_segment_profile(model), 0, (0.0,), taus,
                                np.array([curv(t) for t in taus]))
            assert rec.point == pytest.approx(point, abs=1e-12)
            assert not rec.constant_profile

    def test_exact_interior_hit(self):
        """q(tau) = tau - 0.5 equals the target at the K9 node 0.5 exactly
        and changes sign nowhere else: the node is the point, and q there
        is the target."""
        model = _CurvatureModel(lambda x: x - 0.5)
        [rec] = em.localize(_unit_segment_profile(model), 0, (0.0,), em.K9_NODES,
                            em.K9_NODES - 0.5)
        assert rec.point == 0.5 and rec.q_at_point == 0.0

    def test_unbracketed_target_raises_localization_error(self):
        """A target above or below every profile value is no average of
        them: LocalizationError, a RuntimeError, naming the step, with no
        further profile value evaluated."""
        model = _CurvatureModel(lambda x: 2.0 + x)
        taus = em.K9_NODES
        counted = _CountingModel(model)
        with pytest.raises(em.LocalizationError, match="step 0") as info:
            em.localize(_unit_segment_profile(counted), 0, (1.0,), taus, 2.0 + taus)
        assert isinstance(info.value, RuntimeError)
        assert counted.sizes == []

    def test_bundled_tables_bracket_both_targets(self):
        """Both averages of every row of every bundled run's quadrature
        table lie between the least and largest profile value at the final
        nodes of the row's quadrature (so adjacent nodes bracket them), or
        the row is constant within 1e-10."""
        for name, (model, log, table) in verify._bundle().items():
            for i, k in enumerate(table.k):
                rbar, rtilde, *_, qs = _quadrature(model, log, k)
                assert (rbar, rtilde) == (table.rbar[i], table.rtilde[i])
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


def _near_periodicity_sides(table, eta):
    """(|rbar_k - 2/eta|, ||w_{k+2} - w_k|| / (eta ||d_k||)) of each row."""
    return (np.abs(table.rbar_exact - 2.0 / eta),
            table.two_step_norm / (eta * np.sqrt(table.step_norm_sq)))


class TestNearPeriodicityAndProxy:
    def test_exact_period_two(self):
        model = make_scalar_poly(4.0)
        log = run_gd(model, np.array([1.0]), 0.5, 10)
        lhs, rhs = _near_periodicity_sides(em.curvature_table(model, log), log.eta)
        assert lhs[2] == pytest.approx(0.0, abs=1e-12)
        assert rhs[2] == pytest.approx(0.0, abs=1e-12)

    def test_subcritical_equality(self):
        model = make_scalar_poly(3.0)
        log = run_gd(model, np.array([1.0]), 0.5, 10)
        lhs, rhs = _near_periodicity_sides(em.curvature_table(model, log), log.eta)
        assert lhs[0] == pytest.approx(1.0, abs=1e-12)
        assert rhs[0] == pytest.approx(1.0, abs=1e-12)

    def test_bound_holds_on_random_runs(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        H = (A + A.T) / 2 + 2.0 * np.eye(4)
        model = make_quadratic(H)
        log = run_gd(model, rng.standard_normal(4), 0.45, 60)
        table = em.curvature_table(model, log)
        assert list(table.k) == list(range(log.num_steps))
        lhs, rhs = _near_periodicity_sides(table, log.eta)
        assert np.all(lhs[:-1] <= rhs[:-1] + 1e-10)
        assert np.isnan(rhs[-1])  # no k+2 record at the end

    def test_proxy_exact_on_quadratic(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_gd(model, np.array([1.0, 1.0]), 0.5, 30)
        table = em.curvature_table(model, log)
        assert list(table.k) == list(range(log.num_steps))
        np.testing.assert_allclose(table.proxy[:-1], np.diff(log.losses)[:-1],
                                   rtol=0, atol=1e-13)
        assert np.isnan(table.proxy[-1])

    def test_proxy_zero_at_period_two(self):
        model = make_scalar_poly(4.0)
        log = run_gd(model, np.array([1.0]), 0.5, 10)
        table = em.curvature_table(model, log)
        assert table.proxy[1] == pytest.approx(0.0, abs=1e-13)
        assert log.losses[2] - log.losses[1] == pytest.approx(0.0, abs=1e-13)

    def test_return_ratio(self):
        model = make_scalar_poly(3.0)
        log = run_gd(model, np.array([1.0]), 0.5, 10)
        table = em.curvature_table(model, log)
        # two-step displacement (2 - eta*lam) d_k, so ratio |2 - 1.5| = 0.5
        ratio = table.two_step_norm[0] / np.sqrt(table.step_norm_sq[0])
        assert ratio == pytest.approx(0.5, abs=1e-12)


class TestEosOnset:
    @staticmethod
    def _table(r):
        """A table of steps 0.. whose four curvature columns are ``r``."""
        n, none = len(r), np.full(len(r), np.nan)
        return em.CurvatureTable(
            k=np.arange(n), step_norm_sq=np.ones(n), rbar=r, rtilde=r,
            rbar_exact=r, rtilde_exact=r, delta_L=none, proxy=none,
            rbar_bound=none, rtilde_bound=none, two_step_norm=none, xi=none,
            zeta=none, q_xi=none,
            lambda_max_xi=none, localization_errors={},
            nodes=np.zeros(n, dtype=np.int64), skipped=[], unsettled=[])

    def test_first_crossing(self):
        r = np.array([1.0, 2.0, 3.79, 3.81, 3.5])
        assert em.eos_onset(self._table(r), 0.5) == 3
        assert em.eos_onset(self._table(r[:2]), 0.5) is None

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
        em.write_metrics_csv(log, em.curvature_table(model, log, localize=True), path)
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
    def _exact_columns(model, log, tmp_path, table=None):
        """{k: (rbar_exact, rtilde_exact) cells} of an unlocalized metrics.csv."""
        path = tmp_path / "metrics.csv"
        table = em.curvature_table(model, log) if table is None else table
        em.write_metrics_csv(log, table, path)
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        assert lines[0].split(",")[10:] == ["rbar_exact", "rtilde_exact"]
        return {int(c[0]): tuple(c[10:]) for c in (ln.split(",") for ln in lines[1:])}

    def test_exact_columns_are_the_exact_routes(self, mlp_run, tmp_path):
        """Bit for bit the table's gradient-difference and loss-change
        routes, which are d^T (g_{k+1} - g_k) / ||d||^2 and
        2 (delta_L + ||d||^2 / eta) / ||d||^2, with the table's
        delta_L = L_{k+1} - L_k."""
        model, log = mlp_run
        table = em.curvature_table(model, log)
        cells = self._exact_columns(model, log, tmp_path, table)
        assert list(cells) == list(table.k) == list(range(log.num_steps))
        for k, (rbar, rtilde) in cells.items():
            d, nsq = log.step(k), table.step_norm_sq[k]
            assert float(rbar) == table.rbar_exact[k] == \
                float(d @ (log.grads[k + 1] - log.grads[k])) / nsq
            delta_l = float(log.losses[k + 1] - log.losses[k])
            assert table.delta_L[k] == delta_l
            assert float(rtilde) == table.rtilde_exact[k] == \
                2.0 * (delta_l + nsq / log.eta) / nsq

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
        """Steps 0-5 are too short to have a direction: each of their rows
        holds only k and step_norm_sq."""
        model = make_quadratic(np.array([[3.0]]))
        log = run_gd(model, np.array([1e-16]), 1.0, 10)
        cells = self._exact_columns(model, log, tmp_path)
        assert all(cells[k] == ("", "") for k in range(6))
        lines = (tmp_path / "metrics.csv").read_bytes().decode().split("\r\n")
        for k, line in enumerate(lines[1:7]):
            c = line.split(",")
            assert c[0] == str(k) and c[1] != "" and c[2:] == [""] * 10
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

    def test_localized_columns(self, mlp_run):
        """Localized in the table's processes (dim 75, so by Lanczos), each
        row's xi, zeta, q(xi) and lambda_max(xi) are bitwise those of
        ``localize`` and ``localized_sharpness`` called in turn on each
        step's quadrature and the targets of a table built without
        localization, whose four columns are NaN, for one process and two;
        ``work`` counts the same profile nodes and Lanczos products, and
        every other column is that of the table built without it."""
        model, log = mlp_run
        plain = em.curvature_table(model, log, workers=1)
        assert all(np.isnan(c).all() for c in (plain.xi, plain.zeta, plain.q_xi,
                                               plain.lambda_max_xi))
        serial, expected = Counter(), []
        for i, k in enumerate(plain.k):
            *_, profile, taus, qs = _quadrature(model, log, k)
            rec_t, rec_b = em.localize(profile, int(k), (plain.rtilde[i], plain.rbar[i]),
                                       taus, qs, work=serial)
            expected.append((rec_t.point, rec_b.point, rec_t.q_at_point,
                             em.localized_sharpness(model, log.w(k), log.step(k), rec_t,
                                                    serial)))
        tables = []
        for workers in (1, 2):
            work = Counter()
            tables.append(em.curvature_table(model, log, work, localize=True,
                                             workers=workers))
            assert work == dict(serial, curvature_table_workers=workers)
        _assert_same_table(*tables)
        table = tables[0]
        got = np.column_stack([table.xi, table.zeta, table.q_xi, table.lambda_max_xi])
        assert got.tobytes() == np.array(expected).tobytes()
        assert table.localization_errors == {}
        _assert_same_table(dataclasses.replace(
            table, xi=plain.xi, zeta=plain.zeta, q_xi=plain.q_xi,
            lambda_max_xi=plain.lambda_max_xi), plain)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_profile_operator_per_localized_row(self, gelu_run, tmp_path,
                                                    workers):
        """A localized table builds each step's profile operator once, for
        its quadrature and its localization alike, in whichever process
        computes the row: the builds, logged to a file by every process,
        name each row's step once."""
        model, log = gelu_run
        path = tmp_path / "builds"

        class Logged:
            def __getattr__(self, name):
                return getattr(model, name)

            def segment_profile(self, w, d):
                with open(path, "a") as fh:
                    fh.write(w.tobytes().hex() + "\n")
                return model.segment_profile(w, d)

        work = Counter()
        table = em.curvature_table(Logged(), log, work, localize=True, workers=workers)
        assert work["curvature_table_workers"] == workers
        assert table.localization_errors == {} and len(table.k) == 12
        assert Counter(path.read_text().split()) == {
            log.w(k).tobytes().hex(): 1 for k in table.k}

    def test_unbracketed_steps_fail_alike(self, gelu_run, monkeypatch, tmp_path):
        """Profile values above every target at the nodes of steps 3 and 5
        (their averages are integrated before the values are shifted): with
        one process and with two, those rows' localization cells are NaN,
        their LocalizationErrors are kept, and ``write_metrics_csv`` raises
        the one of step 3 and writes nothing."""
        model, log = gelu_run
        averages = em._segment_averages
        bad = {log.w(k).tobytes() for k in (3, 5)}

        def shifted(model, w, d):
            *head, taus, qs = averages(model, w, d)
            return (*head, taus, 1e6 + taus if w.tobytes() in bad else qs)
        monkeypatch.setattr(em, "_segment_averages", shifted)
        path = tmp_path / "metrics.csv"
        messages = []
        for workers in (1, 2):
            table = em.curvature_table(model, log, localize=True, workers=workers)
            _no_child_left()
            assert list(table.localization_errors) == [3, 5]
            assert np.isnan(table.xi[[3, 5]]).all() and not np.isnan(table.xi[4])
            with pytest.raises(em.LocalizationError) as err:
                em.write_metrics_csv(log, table, path)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("no interior point found for step 3 "), messages
        assert not path.exists()

    def test_worker_nonconvergence_keeps_history(self, gelu_run):
        model, log = gelu_run
        failing = _FailingModel(model, [log.w(3)],
                                NonConvergenceError("no convergence", [3.0, 2.5]))
        with pytest.raises(NonConvergenceError) as err:
            em.curvature_table(failing, log, workers=2)
        assert str(err.value) == "no convergence" and err.value.history == [3.0, 2.5]

    @pytest.mark.parametrize("cap", [1, 3, 5, 32])
    def test_table_independent_of_chunk_size(self, gelu_run, monkeypatch, cap):
        """Chunks of at most 1, 3, 5 or 32 steps (32 forks nothing for
        these 12) give the table of one process, localization included."""
        model, log = gelu_run
        reference = em.curvature_table(model, log, localize=True, workers=1)
        monkeypatch.setattr(em, "_CHUNK_STEPS", cap)
        _assert_same_table(em.curvature_table(model, log, localize=True, workers=2),
                           reference)


@pytest.mark.parametrize("steps, workers, chunk", [
    (200, 2, 25), (4000, 2, 32), (100, 3, 9), (33, 2, 5), (32, 2, 8)])
def test_chunks_fill_the_last_round(monkeypatch, steps, workers, chunk):
    """A run's chunks hold at most 32 steps and at most a quarter of each
    process's share of them, so every process takes about four or more
    chunks: 200 steps on two make 8 chunks of 25, not 7 of 32. A run of
    at most 32 steps takes one process."""
    seen = []

    class Recorded(em.OrderedMap):
        def __init__(self, fn, items, size, workers=None, count=None):
            seen.append((size, workers, count))
            super().__init__(fn, items, size, workers, count)
    monkeypatch.setattr(em, "OrderedMap", Recorded)
    model = make_quadratic(np.array([[3.0]]))
    em.curvature_table(model, run_gd(model, np.array([1.0]), 0.5, steps), workers=workers)
    assert seen == [(chunk, 1 if steps <= 32 else workers, steps)]
    _no_child_left()


def test_wide_chunks_bounded_in_bytes(monkeypatch):
    """At dim 20,000 a chunk holds the 3 steps whose (w_k, d_k) fit in
    _CHUNK_BYTES, not the 5 of a quarter of each process's share of 40
    steps, and the table is that of chunks of 5. (Both are computed in
    workers, which run BLAS on one thread, as this process may not.)"""
    seen = []

    class Recorded(em.OrderedMap):
        def __init__(self, fn, items, size, workers=None, count=None):
            seen.append(size)
            super().__init__(fn, items, size, workers, count)
    monkeypatch.setattr(em, "OrderedMap", Recorded)
    model = make_two_layer_linear(np.diag(np.linspace(1.0, 2.0, 100)), 100)
    w0 = np.random.default_rng(0).normal(scale=0.1, size=model.dim)
    log = run_gd(model, w0, 0.5, 40)
    table = em.curvature_table(model, log, workers=2)
    with monkeypatch.context() as m:
        m.setattr(em, "_CHUNK_BYTES", 1 << 30)
        _assert_same_table(table, em.curvature_table(model, log, workers=2))
    assert model.dim == 20000 and seen == [3, 5]
    _no_child_left()


def _stream_case(case):
    """(model, w0, eta, steps, localize) of a streamed-table case."""
    if case == "diverged":        # the loss passes 1e12 at step 20
        return make_quadratic(np.diag([3.0, 1.0])), np.array([1.0, 1.0]), 1.0, 60, False
    if case == "degenerate":      # steps 0-5 too short to have a direction
        return make_quadratic(np.array([[3.0]])), np.array([1e-16]), 1.0, 40, False
    ds = make_synthetic_dataset(0, 60, 5, 3, teacher_rank=2, noise=0.1)
    model = make_mlp([5, 8, 3], "tanh", ds)
    return model, model.init_params(seed=1), 0.5, 40, True


class TestStreamedTable:
    """A table read from a ``StepStream`` as the runner takes the steps is
    the table of the collected log, and the stream keeps the log's
    per-step scalars."""

    @pytest.fixture(autouse=True)
    def _short_chunks(self, monkeypatch):
        monkeypatch.setattr(em, "_CHUNK_STEPS", 4)
        yield
        _no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", ["diverged", "degenerate", "localized_mlp"])
    def test_streamed_table_is_the_logged_one(self, case, workers):
        model, w0, eta, steps, localize = _stream_case(case)
        log = run_gd(model, w0, eta, steps)
        logged = em.curvature_table(model, log, localize=localize, workers=workers)
        stream = StepStream(model, w0, eta, steps)
        work = Counter()
        streamed = em.curvature_table(model, stream, work, localize=localize,
                                      workers=workers)
        assert work["curvature_table_workers"] == workers
        _assert_same_table(streamed, logged)
        assert (stream.num_steps, stream.diverged, stream.divergence_step) == (
            log.num_steps, log.diverged, log.divergence_step)
        for name in ("losses", "grad_norms", "step_norms"):
            assert getattr(stream, name).tobytes() == getattr(log, name).tobytes(), name
        if case == "diverged":
            assert log.divergence_step == 20 and len(logged.k) == 19
        elif case == "degenerate":
            assert logged.skipped == list(range(6))
        else:
            assert len(logged.k) == 40 and not np.isnan(logged.lambda_max_xi).any()

    def test_log_yields_the_streamed_steps(self):
        """A log's steps are its stream's, bitwise, noise included."""
        model = make_quadratic(np.diag([3.0, 1.0]))
        noise = dict(seed=2, sigma=0.1)
        steps = list(StepStream(model, np.array([1.0, -1.0]), 0.4, 15,
                                NoiseSource("gaussian", **noise)))
        log = run_sgd(model, np.array([1.0, -1.0]), 0.4, 15, NoiseSource("gaussian", **noise))
        assert len(steps) == len(list(log)) == 16
        for a, b in zip(steps, log):
            assert [x.tobytes() if isinstance(x, np.ndarray) else x for x in a] == \
                [x.tobytes() if isinstance(x, np.ndarray) else x for x in b]
        assert steps[-1].d is steps[-1].norm is steps[-1].noise is None
