"""Curvature routes, localization, balance reports, and the noisy balance."""

import math

import numpy as np
import pytest

from edge_lab import edge_metrics as em
from edge_lab.loss_models import (LossModel, MlpModel, make_mlp,
                                  make_quadratic, make_scalar_poly,
                                  make_synthetic_dataset,
                                  make_two_layer_linear, balanced_minimizer)
from edge_lab.numerics import lambda_max_iter
from edge_lab.trajectory import NoiseSource, TrajectoryLog, run_gd, run_sgd


class _CountingModel:
    """Counts the profile nodes a wrapped model evaluates through
    ``segment_curvature``, the nodes of each call, and records the points
    they are made at."""

    def __init__(self, model):
        self.model, self.calls, self.sizes, self.points = model, 0, [], []

    def segment_curvature(self, w, d, taus):
        self.calls += len(taus)
        self.sizes.append(len(taus))
        self.points.extend((w + t * d).tobytes() for t in taus)
        return self.model.segment_curvature(w, d, taus)


class _BumpModel(LossModel):
    """1-D model with curvature x + exp(-((x - c) / s)^2): the bump is
    centred midway between two nodes of the 64-cell grid on [0, 1] and
    reads below 2e-7 at every one of them."""

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


def _grid_nodes(sizes) -> int:
    """Nodes of the grid chunks among ``segment_curvature`` call sizes;
    Brent's method evaluates one node per call."""
    return sum(n for n in sizes if n > 1)


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

    def test_loss_route_telescopes_tautologically(self, mlp_run):
        """The loss-route balance is an algebraic identity on any run."""
        model, log = mlp_run
        rep = em.edge_balance_report(model, log, em.curvature_table(model, log, "loss"))
        assert rep.identity_residual <= 1e-12 * max(1.0, abs(2 * rep.loss_drop))

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
        with 9 nodes for each half. ``nodes`` records what was spent."""
        model, log = mlp_run
        counted = _CountingModel(model)
        table = em.curvature_table(counted, log)
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

    def test_unknown_route_rejected(self):
        model = make_scalar_poly(3.0)
        log = run_gd(model, np.array([1.0]), 0.5, 3)
        with pytest.raises(ValueError):
            em.curvature_table(model, log, "exact-algebraic")


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
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_gd(model, np.array([1.0, 1.0]), 0.5, 5)
        [rec] = em.localize(model, log, 0, (em.curvature_table(model, log).rtilde[0],))
        assert rec.constant_profile and rec.point == 0.5

    def test_localize_linear_profile_closed_form(self):
        model = make_scalar_poly(1.0, 1.0, 0.0)
        log = run_gd(model, np.array([0.3]), 0.5, 3)
        table = em.curvature_table(model, log)
        xi, zeta = em.localize(model, log, 0, (table.rtilde[0], table.rbar[0]),
                               tol=1e-12)
        assert xi.point == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert zeta.point == pytest.approx(0.5, abs=1e-8)
        assert abs(xi.q_at_point - xi.target) <= 1e-10

    def test_localized_sharpness_dominates(self, mlp_run):
        model, log = mlp_run
        table = em.curvature_table(model, log)
        for k in range(0, log.num_steps, 17):
            [rec] = em.localize(model, log, k, (table.rtilde[k],))
            lam = em.localized_sharpness(model, log, rec)
            assert lam >= rec.target - 1e-8

    def test_localized_sharpness_reuses_one_linearization(self, mlp_run, monkeypatch):
        """The Lanczos path (dim > 64) runs one forward pass for all its
        products, and its estimate is the one from per-product hvp calls."""
        model, log = mlp_run
        assert model.dim > 64
        rec = em.LocalizationRecord(k=5, point=0.4, target=0.0, q_at_point=0.0,
                                    constant_profile=False)
        d = log.step(5)
        w_pt = log.w(5) + 0.4 * d
        per_call = lambda_max_iter(lambda v: model.hvp(w_pt, v), model.dim,
                                   v0=d / np.linalg.norm(d))
        calls = []
        forward = MlpModel._forward

        def counting_forward(self, params, X):
            calls.append(1)
            return forward(self, params, X)

        monkeypatch.setattr(MlpModel, "_forward", counting_forward)
        assert em.localized_sharpness(model, log, rec) == per_call
        assert len(calls) == 1

    def test_two_targets_match_single_target_calls(self, mlp_run):
        model, log = mlp_run
        table = em.curvature_table(model, log)
        for k in range(0, log.num_steps, 23):
            targets = (table.rtilde[k], table.rbar[k])
            single = [rec for t in targets for rec in em.localize(model, log, k, (t,))]
            assert em.localize(model, log, k, targets) == single

    def test_two_targets_share_the_grid(self, mlp_run):
        """Both targets bracket on the 64-cell grid. The two-target scan
        evaluates the longer of the two single-target grid prefixes, once:
        the shorter prefix is what two separate calls compute twice."""
        model, log = mlp_run
        counted = _CountingModel(model)
        table = em.curvature_table(model, log)
        targets = (table.rtilde[0], table.rbar[0])
        singles = []
        for t in targets:
            counted.sizes = []
            em.localize(counted, log, 0, (t,))
            singles.append(_grid_nodes(counted.sizes))
        separate, counted.calls, counted.sizes = counted.calls, 0, []
        em.localize(counted, log, 0, targets)
        assert all(17 <= n <= 65 for n in singles)
        assert _grid_nodes(counted.sizes) == max(singles)
        assert separate - counted.calls == min(singles)

    def test_each_tau_evaluated_once(self, mlp_run):
        """Brent's bracket ends are grid nodes, Brent evaluates them
        again, the root is read back, and a finer grid repeats the
        coarser nodes: none of these is a second evaluation."""
        model, log = mlp_run
        table = em.curvature_table(model, log)
        bump_log = TrajectoryLog(eta=1.0, model_id="bump", losses=np.zeros(2),
                                 grads=np.array([[-1.0], [0.0]]),
                                 w_stored=np.array([[0.0], [1.0]]))
        for counted, lg, k, targets, grid in [
                (_CountingModel(model), log, 5, (table.rtilde[5], table.rbar[5]), 17),
                (_CountingModel(_BumpModel()), bump_log, 0, (1.2, 0.7), 65 + 8)]:
            em.localize(counted, lg, k, targets)
            assert _grid_nodes(counted.sizes) >= grid
            assert counted.calls > _grid_nodes(counted.sizes)   # Brent ran
            assert len(set(counted.points)) == counted.calls

    def test_scan_stops_at_the_first_bracket(self, mlp_run):
        """The grid is scanned left to right in 16-cell chunks and the
        scan ends with the chunk where the last target is decided: the
        nodes evaluated are a prefix of the 64-cell grid ending on a
        chunk boundary, and on this run some steps decide both targets
        before the grid ends."""
        model, log = mlp_run
        table = em.curvature_table(model, log)
        prefixes = []
        for k in range(0, log.num_steps, 7):
            counted = _CountingModel(model)
            em.localize(counted, log, k, (table.rtilde[k], table.rbar[k]))
            grid_sizes = [n for n in counted.sizes if n > 1]
            assert grid_sizes == [17, 16, 16, 16][:len(grid_sizes)]
            prefixes.append(sum(grid_sizes))
        assert max(prefixes) <= 65 and min(prefixes) < 65

    def test_leftmost_event_wins(self):
        """q(tau) = (tau - 0.125)(tau - 0.1) equals the target 0 exactly at
        the node 0.125 and crosses it between the nodes 6/64 and 7/64, both
        in the first chunk: the crossing lies further left, so it is the
        point, and the scan ends after that chunk."""
        model = _CurvatureModel(lambda x: (x - 0.125) * (x - 0.1))
        counted = _CountingModel(model)
        [rec] = em.localize(counted, _unit_segment_log(), 0, (0.0,))
        assert rec.point == pytest.approx(0.1, abs=1e-12) and not rec.constant_profile
        assert _grid_nodes(counted.sizes) == 17

    def test_exact_interior_hit(self):
        """q(tau) = tau - 0.5 equals the target at the node 0.5 exactly and
        changes sign nowhere else: the node is the point, and q there is
        the target."""
        model = _CurvatureModel(lambda x: x - 0.5)
        [rec] = em.localize(model, _unit_segment_log(), 0, (0.0,))
        assert rec.point == 0.5 and rec.q_at_point == 0.0

    def test_flat_prefix_waits_for_the_span(self):
        """q varies by under tol on [0, 1/2] and rises after it. Its sign
        change at tau = 0.1 is taken only once the values seen span more
        than tol, in the third chunk; a scan deciding on the flat prefix
        alone would call this a constant profile or decide earlier."""
        model = _CurvatureModel(
            lambda x: 1.0 + 1e-11 * (x - 0.1) + (max(x - 0.5, 0.0)))
        counted = _CountingModel(model)
        [rec] = em.localize(counted, _unit_segment_log(), 0, (1.0,), tol=1e-10)
        assert rec.point == pytest.approx(0.1, abs=1e-4) and not rec.constant_profile
        assert _grid_nodes(counted.sizes) == 49

    def test_constant_profile_scans_the_whole_grid(self):
        """A profile within tol of constant crosses the target at 0.1, but
        only the whole grid shows it constant: the midpoint rule applies,
        after all 65 nodes."""
        model = _CurvatureModel(lambda x: 1.0 + 1e-11 * (x - 0.1))
        counted = _CountingModel(model)
        [rec] = em.localize(counted, _unit_segment_log(), 0, (1.0,), tol=1e-10)
        assert rec.constant_profile and rec.point == 0.5
        assert _grid_nodes(counted.sizes) == 65

    def test_no_crossing_raises_localization_error(self):
        """A profile that neither crosses the target nor stays constant
        fails after the 1024-cell grid with LocalizationError, a
        RuntimeError, naming the step."""
        model = _CurvatureModel(lambda x: 2.0 + x)
        counted = _CountingModel(model)
        with pytest.raises(em.LocalizationError, match="step 0") as info:
            em.localize(counted, _unit_segment_log(), 0, (1.0,))
        assert isinstance(info.value, RuntimeError)
        assert counted.calls == 1025 and len(set(counted.points)) == 1025

    def test_refinement_only_for_unbracketed_targets(self):
        """q(tau) = tau + a bump no node of the 64-cell grid sees. The
        target 1.2 is reached only inside the bump, so it is found on
        the 128-cell grid; 0.7 is bracketed at tau = 0.7 on the coarse
        grid and keeps that root, although the finer grid would first
        bracket it on the bump's rising flank near tau = 0.5."""
        model = _BumpModel()
        log = TrajectoryLog(eta=1.0, model_id="bump", losses=np.zeros(2),
                            grads=np.array([[-1.0], [0.0]]),
                            w_stored=np.array([[0.0], [1.0]]))
        bump, line = em.localize(model, log, 0, (1.2, 0.7))
        assert 0.5 < bump.point < _BumpModel.CENTER
        assert abs(bump.q_at_point - 1.2) <= 1e-9 and not bump.constant_profile
        assert line.point == pytest.approx(0.7, abs=1e-12)
        assert [bump, line] == (em.localize(model, log, 0, (1.2,))
                                + em.localize(model, log, 0, (0.7,)))


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
        table = em.CurvatureTable("loss", np.arange(5), np.ones(5), r, r,
                                  np.zeros(5, dtype=np.int64), [], [])
        assert em.eos_onset(table, 0.5) == 3
        short = em.CurvatureTable("loss", np.arange(2), np.ones(2), r[:2], r[:2],
                                  np.zeros(2, dtype=np.int64), [], [])
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
                            "delta_L,proxy,return_ratio")
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(1 / 3, abs=1e-6)
        assert float(first[5]) == pytest.approx(0.5, abs=1e-6)
        last = lines[-1].split(",")
        assert last[8] == "" and last[9] == ""  # no k+2 record at the end
