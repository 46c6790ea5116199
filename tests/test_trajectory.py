"""Runners, logs, replay and divergence handling."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edge_lab.loss_models import (Dataset, make_mlp, make_quadratic,
                                  make_scalar_poly, make_synthetic_dataset)
from edge_lab.trajectory import (ITERATE_DIVERGENCE, LOSS_DIVERGENCE,
                                 NoiseSource, _diverged, run_gd, run_pair_gd,
                                 run_sgd, run_summary, write_csv,
                                 write_trajectory_csv)


def _replay(model, w0, eta, n, noise=None):
    """Iterate n updates of the logged rule from w0, outside the runner."""
    x = np.array(w0, dtype=float)
    for k in range(n):
        g = model.gradient(x) if noise is None else model.gradient(x) + noise[k]
        x = x + -eta * g
    return x


def _bound_cases():
    """(loss, row, diverged) with the row's largest |entry| one ulp below,
    at and one ulp above C (1 - (dim + 5) u) / sqrt(dim), C =
    ITERATE_DIVERGENCE and u = 2^-53, a rounding bound below which no row
    norm can pass the limit: every entry at that value (the largest norm
    the bound admits), and one negated entry with the rest 0. No such norm
    reaches the limit."""
    cases = []
    for dim in (1, 2, 180, 533):
        b = ITERATE_DIVERGENCE * (1.0 - (dim + 5) * 2.0 ** -53) / math.sqrt(dim)
        for m in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)):
            cases += [(0.5, [m] * dim, False), (0.5, [-m] + [0.0] * (dim - 1), False)]
    return cases


@st.composite
def _stacks(draw):
    """(W, u): an (m, dim) stack, m in 0..32 and dim in 0..2048, whose rows
    have magnitudes 1e-150 to 1e150, some rows holding a NaN or an inf, laid
    out C-ordered, F-ordered, as a strided slice or by fancy indexing; and
    a (dim,) vector, contiguous or strided."""
    m, dim = draw(st.integers(0, 32)), draw(st.integers(0, 2048))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = 10.0 ** rng.uniform(-150.0, 150.0, size=(m, 1))
    base = rng.standard_normal((m, dim)) * scales
    if dim:
        for i in draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)):
            base[i, rng.integers(dim)] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    layout = draw(st.sampled_from(["C", "F", "sliced", "fancy"]))
    if layout == "F":
        W = np.asfortranarray(base)
    elif layout == "sliced":
        W = np.zeros((2 * m, 3 * dim))
        W[::2, 1::3] = base
        W = W[::2, 1::3]
    elif layout == "fancy":
        W = base[rng.integers(0, max(m, 1), size=m)]
    else:
        W = base
    u = rng.standard_normal(2 * dim) * 10.0 ** rng.uniform(-150.0, 150.0)
    return W, (u[::2] if draw(st.booleans()) else u[:dim])


def _assert_rows(log, dim):
    n = log.num_steps
    assert log.losses.shape == (n + 1,) and log.grads.shape == (n + 1, dim)
    assert log.w_stored.shape == (n + 1, dim)
    assert np.all(np.isfinite(log.losses)) and np.all(np.isfinite(log.grads))
    for k in (-1, n):
        with pytest.raises(IndexError):
            log.step(k)


class TestGd:
    def test_first_step(self):
        log = run_gd(make_scalar_poly(3.0), np.array([1.0]), 0.5, 10)
        assert log.w(1)[0] == pytest.approx(-0.5, abs=1e-16)

    def test_marginal_multiplier_alternates(self):
        # eta * lam = 2 gives multiplier -1: the iterate flips sign forever
        log = run_gd(make_scalar_poly(4.0), np.array([1.0]), 0.5, 50)
        for k in range(51):
            assert log.w(k)[0] == pytest.approx((-1.0) ** k, abs=1e-12)

    def test_quartic_reaches_period_two_orbit(self):
        # supercritical scalar quartic: orbit amplitude sqrt((2/eta - lam)/beta)
        log = run_gd(make_scalar_poly(1.0, 0.0, -1.0), np.array([0.3]), 2.5, 3000)
        amp = math.sqrt(0.2)
        tail = [abs(log.w(k)[0]) for k in range(2900, 3001)]
        np.testing.assert_allclose(tail, amp, atol=1e-10)

    def test_step_is_minus_eta_grad(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_gd(model, np.array([1.0, -2.0]), 0.4, 20)
        for k in range(log.num_steps):
            np.testing.assert_array_equal(log.step(k), -0.4 * log.grads[k])

    def test_replay_gradients(self):
        """Re-evaluating the model at logged iterates reproduces logged data."""
        ds = make_synthetic_dataset(0, 30, 4, 2, teacher_rank=2)
        model = make_mlp([4, 6, 2], "tanh", ds)
        log = run_gd(model, model.init_params(seed=2), 0.3, 50)
        for k in range(0, 51, 7):
            w = log.w(k)
            assert abs(model.value(w) - log.losses[k]) <= 1e-13 * (1 + abs(log.losses[k]))
            np.testing.assert_allclose(model.gradient(w), log.grads[k],
                                       atol=1e-13, rtol=1e-13)

    def test_quadratic_propagator(self):
        """Step increments obey d_{k+1} = (I - eta H) d_k on quadratics."""
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6))
        H = (A + A.T) / 2 + 3 * np.eye(6)
        model = make_quadratic(H)
        log = run_gd(model, rng.standard_normal(6), 0.2, 80)
        P = np.eye(6) - 0.2 * H
        for k in range(log.num_steps - 1):
            np.testing.assert_allclose(log.step(k + 1), P @ log.step(k),
                                       atol=1e-12)

    def test_monotone_descent_below_threshold(self):
        H = np.diag([3.0, 1.0, 0.5])
        log = run_gd(make_quadratic(H), np.array([1.0, 1.0, 1.0]), 0.5, 40)
        diffs = np.diff(log.losses)
        assert np.all(diffs < 0)

    def test_divergence_truncates_with_flag(self):
        # eta*lam > 2 from a large start blows past the loss threshold
        log = run_gd(make_scalar_poly(5.0), np.array([1e3]), 1.0, 200)
        assert log.diverged
        assert log.divergence_step is not None
        assert log.num_steps < 200
        assert np.all(np.isfinite(log.losses))

    def test_validation(self):
        model = make_scalar_poly(1.0)
        with pytest.raises(ValueError):
            run_gd(model, np.array([1.0]), -0.1, 5)
        with pytest.raises(ValueError):
            run_gd(model, np.array([1.0]), 0.1, 0)
        with pytest.raises(ValueError):
            run_gd(model, np.array([1.0, 2.0]), 0.1, 5)


class TestTruncation:
    """A diverged run keeps exactly the steps taken before the blow-up."""

    def test_divergence_at_step_zero(self):
        model = make_scalar_poly(5.0)
        log = run_gd(model, np.array([1e9]), 1.0, 50)
        assert log.diverged and log.divergence_step == 0
        assert log.num_steps == 0
        _assert_rows(log, 1)
        np.testing.assert_array_equal(log.w(0), [1e9])
        assert log.losses[0] == model.value([1e9])

    def test_divergence_mid_run(self):
        # multiplier 1 - eta lam = -4: the loss passes 1e12 at step 5
        model = make_scalar_poly(5.0)
        log = run_gd(model, np.array([1e3]), 1.0, 50)
        assert log.diverged and log.divergence_step == 5
        assert log.num_steps == 4
        _assert_rows(log, 1)
        x = _replay(model, [1e3], 1.0, 4)
        np.testing.assert_array_equal(log.w(4), x)
        assert log.losses[4] == model.value(x)
        np.testing.assert_array_equal(log.grads[4], model.gradient(x))

    def test_divergence_under_sgd(self):
        model = make_quadratic(np.diag([5.0, 1.0]))
        w0 = np.array([1e3, 1.0])
        log = run_sgd(model, w0, 1.0, 50, NoiseSource("gaussian", seed=4, sigma=0.5))
        assert log.diverged and log.divergence_step == log.num_steps + 1
        assert 0 < log.num_steps < 50
        _assert_rows(log, 2)
        assert log.noise.shape == (log.num_steps, 2)
        x = _replay(model, w0, 1.0, log.num_steps, log.noise)
        np.testing.assert_array_equal(log.w(log.num_steps), x)
        assert log.losses[-1] == model.value(x)

    @pytest.mark.parametrize("loss, w, diverged", [
        (0.5, [1.0, 2.0], False),
        (math.nan, [1.0], True),
        (math.inf, [1.0], True),
        (-math.inf, [1.0], True),
        (-1e13, [1.0], False),            # the cubic is unbounded below
        (0.5, [math.nan, 1.0], True),
        (0.5, [math.inf, 1.0], True),
        (0.5, [1e300, 1e300], True),      # the norm overflows to inf
        (LOSS_DIVERGENCE, [1.0], False),
        (math.nextafter(LOSS_DIVERGENCE, math.inf), [1.0], True),
        (0.5, [ITERATE_DIVERGENCE, 0.0], False),
        (0.5, [math.nextafter(ITERATE_DIVERGENCE, math.inf), 0.0], True),
        *_bound_cases(),
    ])
    def test_divergence_verdict(self, loss, w, diverged):
        """The verdict is the rule's, applied with the point's own norm."""
        losses, W = np.array([loss]), np.array([w])
        with np.errstate(over="ignore"):     # the overflowing norm warns
            per_row = ~((losses > -math.inf) & (losses <= LOSS_DIVERGENCE)
                        & (np.linalg.norm(W[0]) <= ITERATE_DIVERGENCE))
            assert _diverged(losses, W).tolist() == per_row.tolist() == [diverged]

    def test_empty_stacks(self):
        assert _diverged(np.empty(0), np.empty((0, 3))).tolist() == []
        losses = np.array([0.5, math.nan])
        assert _diverged(losses, np.empty((2, 0))).tolist() == [False, True]

    def test_stack_verdict_is_each_row_alone(self):
        """Each row of a stack gets the verdict it gets alone."""
        losses = np.array([0.5, 0.5, math.nan, 0.5, 0.5,
                           math.nextafter(LOSS_DIVERGENCE, math.inf)])
        W = np.array([[1.0, 2.0], [math.inf, 1.0], [1.0, 1.0], [1e300, 1e300],
                      [ITERATE_DIVERGENCE, 0.0], [1.0, 0.0]])
        with np.errstate(over="ignore"):
            verdicts = _diverged(losses, W)
            assert verdicts.tolist() == [False, True, True, True, False, True]
            for i in range(len(W)):
                assert _diverged(losses[i:i + 1], W[i:i + 1])[0] == verdicts[i]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(stack=_stacks())
    def test_vecdot_is_each_row_dot(self, stack):
        """``np.vecdot``, which takes the stacked row norms and projections,
        gives each row the bits of that row's own 1-D dot."""
        W, u = stack
        with np.errstate(over="ignore", invalid="ignore"):
            for got, want in ((np.vecdot(W, W), [w.dot(w) for w in W]),
                              (np.vecdot(W, u), [w @ u for w in W])):
                want = np.array(want, dtype=float)
                assert got.shape == want.shape == (len(W),)
                assert got.tobytes() == want.tobytes()

    def test_log_is_held_once(self):
        """The runner fills one buffer per logged quantity, and only the
        gradients and iterates are (K+1, dim): its traced peak stays close
        to the bytes of the finished log."""
        model = make_quadratic(np.diag(np.linspace(0.1, 1.0, 200)))
        w0 = np.ones(200)
        tracemalloc.start()
        try:
            log = run_gd(model, w0, 0.5, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not log.diverged
        arrays = [v for v in vars(log).values() if isinstance(v, np.ndarray)]
        assert [a.shape for a in arrays].count((2001, 200)) == 2
        log_bytes = sum(a.nbytes for a in arrays)
        assert peak <= 1.25 * log_bytes, peak / log_bytes


def _step_case(case):
    """(model, w0, eta, noise source or None) of a run whose steps are checked."""
    if case in ("gd", "minibatch"):
        ds = make_synthetic_dataset(0, 25, 4, 2, teacher_rank=2)
        model = make_mlp([4, 5, 2], "tanh", ds)
        noise = NoiseSource("minibatch", seed=21, batch_size=5) if case == "minibatch" else None
        return model, model.init_params(seed=1), 0.3, noise
    if case == "gd-diverged":       # the loss passes 1e12 at step 5
        return make_scalar_poly(5.0), np.array([1e3]), 1.0, None
    model = make_quadratic(np.diag([5.0, 1.0]))
    if case == "gaussian":
        return model, np.array([1.0, -1.0]), 0.3, NoiseSource("gaussian", seed=3, sigma=0.1)
    return model, np.array([1e3, 1.0]), 1.0, NoiseSource("gaussian", seed=4, sigma=0.5)


class TestStepDerivation:
    """A log derives each increment from its logged gradient (and noise);
    the result is the increment the runner applied, bit for bit."""

    @pytest.mark.parametrize("case", ["gd", "gaussian", "minibatch",
                                      "gd-diverged", "gaussian-diverged"])
    def test_step_is_the_applied_increment(self, case):
        model, w0, eta, noise = _step_case(case)
        log = (run_gd(model, w0, eta, 40) if noise is None
               else run_sgd(model, w0, eta, 40, noise))
        assert log.diverged == case.endswith("diverged") and log.num_steps > 0
        for k in range(log.num_steps):
            d = log.step(k)
            assert np.array_equal(log.w(k) + d, log.w(k + 1))
            g = log.grads[k] if noise is None else log.grads[k] + log.noise[k]
            assert np.array_equal(d, -eta * g)
        eps = None if noise is None else log.noise
        np.testing.assert_array_equal(
            _replay(model, w0, eta, log.num_steps, eps), log.w(log.num_steps))

    def test_step_is_a_new_array(self):
        log = run_gd(make_scalar_poly(3.0), np.array([1.0]), 0.5, 3)
        log.step(0)[0] = 7.0
        assert log.step(0)[0] == -0.5 * log.grads[0][0]


class TestSgd:
    def test_zero_noise_matches_gd_bitwise(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        w0 = np.array([1.0, -1.0])
        gd = run_gd(model, w0, 0.5, 30)
        sgd = run_sgd(model, w0, 0.5, 30, NoiseSource("gaussian", seed=0, sigma=0.0))
        assert np.array_equal(gd.losses, sgd.losses)
        assert np.array_equal(gd.w_stored, sgd.w_stored)
        for k in range(30):
            assert np.array_equal(gd.step(k), sgd.step(k))

    def test_seeded_reproducibility(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        w0 = np.array([1.0, -1.0])
        a = run_sgd(model, w0, 0.5, 30, NoiseSource("gaussian", seed=9, sigma=0.01))
        b = run_sgd(model, w0, 0.5, 30, NoiseSource("gaussian", seed=9, sigma=0.01))
        assert np.array_equal(a.noise, b.noise)
        assert np.array_equal(a.losses, b.losses)

    def test_step_identity(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_sgd(model, np.array([1.0, -1.0]), 0.5, 30,
                      NoiseSource("gaussian", seed=3, sigma=0.1))
        for k in range(log.num_steps):
            np.testing.assert_array_equal(
                log.step(k), -0.5 * (log.grads[k] + log.noise[k]))

    def test_minibatch_noise_replayable(self):
        """Mini-batch residual noise: indices replay from the documented stream."""
        ds = make_synthetic_dataset(0, 25, 4, 2, teacher_rank=2)
        model = make_mlp([4, 5, 2], "tanh", ds)
        w0 = model.init_params(seed=1)
        log = run_sgd(model, w0, 0.2, 15,
                      NoiseSource("minibatch", seed=21, batch_size=5))
        rng = np.random.default_rng(21)
        for k in range(log.num_steps):
            idx = rng.integers(0, 25, size=5)
            eps = model.gradient_batch(log.w(k), idx) - log.grads[k]
            np.testing.assert_allclose(log.noise[k], eps, atol=1e-15)

    def test_minibatch_requires_dataset(self):
        model = make_quadratic(np.diag([1.0]))
        with pytest.raises(ValueError):
            run_sgd(model, np.array([1.0]), 0.5, 3,
                    NoiseSource("minibatch", seed=0, batch_size=2))


class TestPairs:
    def test_identical_objectives_zero_gap(self):
        model = make_quadratic(np.diag([3.0, 1.0]))
        pair = run_pair_gd(model, model, np.array([1.0, 2.0]), 0.4, 20)
        for k in range(21):
            np.testing.assert_array_equal(pair.log_s.w(k), pair.log_sp.w(k))

    def test_quadratic_gap_closed_form(self):
        """Same curvature, shifted centers: the gap solves a linear recursion."""
        H = np.diag([3.0, 1.0])
        a, b = np.array([0.1, 0.0]), np.array([-0.2, 0.3])
        eta = 0.4
        pair = run_pair_gd(make_quadratic(H, a), make_quadratic(H, b),
                           np.array([1.0, 1.0]), eta, 25)
        P = np.eye(2) - eta * H
        f = H @ (b - a)
        for k in range(26):
            geom = sum(np.linalg.matrix_power(P, j) for j in range(k)) if k else np.zeros((2, 2))
            delta_expected = -eta * geom @ f
            delta = pair.log_s.w(k) - pair.log_sp.w(k)
            np.testing.assert_allclose(delta, delta_expected, atol=1e-12)

    def test_one_sample_difference_gives_stress(self):
        ds = make_synthetic_dataset(5, 20, 3, 2, teacher_rank=2, noise=0.1)
        keep = np.arange(1, 20)
        ds2 = Dataset(X=ds.X[keep], Y=ds.Y[keep], seed=ds.seed,
                      teacher_rank=ds.teacher_rank)
        m1 = make_mlp([3, 4, 2], "tanh", ds)
        m2 = make_mlp([3, 4, 2], "tanh", ds2)
        w0 = m1.init_params(seed=0)
        assert np.linalg.norm(m1.gradient(w0) - m2.gradient(w0)) > 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_pair_gd(make_scalar_poly(1.0), make_quadratic(np.eye(2)),
                        np.array([0.1]), 0.1, 3)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        """Every CSV output ends each line, the last too, with CRLF (RFC 4180)."""
        ds = make_synthetic_dataset(4, 5, 3, 2)
        header = ["x0", "x1", "x2", "y0", "y1"]
        path = tmp_path / "data.csv"
        write_csv(path, header, [[*x, *y] for x, y in zip(ds.X, ds.Y)])
        raw = path.read_bytes()
        assert raw.startswith(b"x0,x1,x2,y0,y1\r\n") and raw.endswith(b"\r\n")
        assert raw.count(b"\r\n") == 6 and raw.count(b"\n") == 6
        with open(path, newline="") as fh:
            head, *data = list(csv.reader(fh))
        assert head == header
        np.testing.assert_array_equal(np.array(data, dtype=float),
                                      np.hstack([ds.X, ds.Y]))

    def test_csv_cells(self, tmp_path):
        """None is an empty field, a str is written as is, and every number
        (int, numpy integer, float, NaN) with 17 significant digits."""
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b", "c", "d", "e", "f"],
                  [[None, "mode", 7, np.int64(12), 0.1, float("nan")],
                   [np.float64(1.0) / 3.0, None, -2, np.int64(0), 1e-300, None]])
        assert path.read_bytes().decode().split("\r\n") == [
            "a,b,c,d,e,f",
            ",mode,7,12,0.10000000000000001,nan",
            "0.33333333333333331,,-2,0,1e-300,",
            ""]

    def test_trajectory_csv_and_summary(self, tmp_path):
        model = make_quadratic(np.diag([3.0, 1.0]))
        log = run_gd(model, np.array([1.0, -1.0]), 0.5, 10)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(log, path)
        lines = path.read_bytes().decode().strip().split("\r\n")
        assert lines[0] == "k,loss,grad_norm,step_norm"
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert last[3] == ""  # no step off the final record
        assert float(last[2]) == np.linalg.norm(log.grads[10])
        assert float(lines[-2].split(",")[3]) == np.linalg.norm(log.step(9))

        summary = run_summary(log)
        json.dumps(summary)
        assert summary["eta"] == 0.5 and "seed" not in summary
        assert not summary["diverged"]
