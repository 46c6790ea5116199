"""Named verification checks over the bundled models and runs.

Each check re-derives one family of identities or bounds (curvature
route agreement, telescoping balance, localization, branch scaling,
stability mechanisms, strain recurrence, noisy balance) at its pinned
tolerance and reports the measured residuals; the CLI `verify`
subcommand and the acceptance tests run these. Each per-run theorem is
one function of a run, which the suite applies to the bundled runs and
``verify --run-dir`` to the runs a command hands over as it replays a
directory: ``THEOREMS`` of a GD run's model, run and curvature table,
``raw_orbit`` of a sweep's continuation points and
``recurrence_residual`` of a strain.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bifurcation, edge_metrics, loss_models, stability_kv, trajectory
from .numerics import dense_eigvalsh, lambda_max_iter

__all__ = ["CheckResult", "SUITES", "run_suite", "CHECKS", "THEOREMS",
           "raw_orbit", "recurrence_residual", "telescoping_tolerance"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "seconds": round(self.seconds, 3), "details": self.details}


def _timed(fn):
    def wrapper() -> CheckResult:
        t0 = time.perf_counter()
        passed, details = fn()
        return CheckResult(fn.__name__.removeprefix("_check_"),
                           bool(passed), time.perf_counter() - t0, details)
    wrapper.__name__ = fn.__name__
    return wrapper


def telescoping_tolerance(losses, is_mlp: bool) -> float:
    """Largest accepted telescoping residual of a run with these losses:
    1e-5 max(1, |2 (L_0 - L_K)|) on an MLP (its profile quadrature is only
    tolerance-controlled), 1e-8 max(1, |L_0|) on polynomial models."""
    if is_mlp:
        return 1e-5 * max(1.0, abs(2.0 * float(losses[0] - losses[-1])))
    return 1e-8 * max(1.0, abs(float(losses[0])))


# Per-run theorems, each (model, run, curvature table) -> (passed, details).

def _telescoping_balance(model, run, table):
    """sum_k ||d_k||^2 (2/eta - rtilde_k) = 2 (L_0 - L_K), to ``telescoping_tolerance``."""
    resid = edge_metrics.edge_balance_report(model, run, table).identity_residual
    tol = telescoping_tolerance(run.losses, isinstance(model, loss_models.MlpModel))
    return resid <= tol, {"residual": resid, "tolerance": tol,
                          "unsettled_steps": table.unsettled}


def _route_agreement(model, run, table):
    """At every step, |rbar_k - rbar_exact_k| <= rbar_bound_k and
    |rtilde_k - rtilde_exact_k| <= rtilde_bound_k: the model's profile
    integrates to what the run's gradients and losses give, within the
    row's quadrature estimate and rounding. The steps that fail are named.

    Recoil, <d_{k+1}, d_k> = (1 - eta rbar_k) ||d_k||^2, and
    near-periodicity, |rbar_k - 2/eta| <= ||d_k + d_{k+1}|| / (eta ||d_k||),
    hold for rbar_exact by algebra, d_{k+1} - d_k = -eta (g_{k+1} - g_k),
    on any gradient sequence. With the quadrature's rbar, the model's,
    recoil holds to eta times this check's rbar gap, relative to
    ||d_k||^2, and near-periodicity to the gap itself."""
    rbar_gap = np.abs(table.rbar - table.rbar_exact) / table.rbar_bound
    rtilde_gap = np.abs(table.rtilde - table.rtilde_exact) / table.rtilde_bound
    failed = table.k[~((rbar_gap <= 1.0) & (rtilde_gap <= 1.0))]
    return not failed.size, {
        "max_rbar_gap_over_bound": float(np.max(rbar_gap, initial=0.0)),
        "max_rtilde_gap_over_bound": float(np.max(rtilde_gap, initial=0.0)),
        "failed_steps": failed.tolist()}


def _localization(model, run, table):
    """Each step's rtilde is attained inside it, where the sharpness is at
    least rtilde: the localization columns of a table built with
    ``localize``. A step whose localization failed is named with its
    message; a table built without localization localizes no step."""
    q_tol = 1e-6 if isinstance(model, loss_models.MlpModel) else 1e-8
    total = len(table.k)
    at_target = np.abs(table.q_xi - table.rtilde) <= q_tol
    located = int(at_target.sum())
    lam_ok = int((at_target & (table.lambda_max_xi >= table.rtilde - 1e-8)).sum())
    return located == total and lam_ok == located, {
        "steps": total, "localized_fraction": located / total if total else 1.0,
        "sharpness_bound_ok": lam_ok == located,
        "failed_steps": {k: str(exc) for k, exc in table.localization_errors.items()}}


# The per-run theorems of a GD run: each reads its model, the run (a log
# or a finished ``StepStream``, of which it reads the step size, the losses
# and the step count) and its curvature table.
THEOREMS = {"telescoping_balance": _telescoping_balance,
            "route_agreement": _route_agreement,
            "localization": _localization}


def raw_orbit(points) -> tuple[bool, dict]:
    """Every continuation point of a sweep is a period-two orbit of the raw
    GD map, to RAW_ORBIT_TOL (``BranchPoint.raw_ok``)."""
    return all(p.raw_ok for p in points), {
        "max_raw_residual": max((p.raw_residual for p in points), default=None),
        "tolerance": bifurcation.RAW_ORBIT_TOL,
        "failed_etas": [p.eta for p in points if not p.raw_ok]}


def recurrence_residual(strain) -> tuple[bool, dict]:
    """Every step of a StrainLog's recurrence within STRAIN_RTOL
    max(1, ||delta_k||), the tolerance its quadrature settles to."""
    return not strain.unsettled, {
        "max_recurrence_residual": float(strain.residual.max()) if strain.num_steps else None,
        "tolerance": stability_kv.STRAIN_RTOL, "unsettled_steps": strain.unsettled}


def _apply(theorem, runs: dict) -> tuple[bool, dict]:
    """``theorem`` on each named GD run: whether all pass, details by name."""
    outcomes = {name: theorem(*run) for name, run in runs.items()}
    return (all(ok for ok, _ in outcomes.values()),
            {name: details for name, (_, details) in outcomes.items()})


# ---------------------------------------------------------------------------
# Bundled models and runs (built lazily, cached for the process lifetime)
# ---------------------------------------------------------------------------

def _quad_nd(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    # No eigenvalue near 1/eta = 2 (eta = 0.5), where a mode hits the rounding floor.
    lo = rng.uniform(0.2, 1.7, size=dim // 2)
    hi = rng.uniform(2.3, 3.8, size=dim - dim // 2)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    H = Q @ np.diag(np.concatenate([lo, hi])) @ Q.T
    H = (H + H.T) / 2.0
    return loss_models.make_quadratic(H, 0.0)


@functools.cache
def _models():
    """The quartic w^2/2 - w^4/4, the balanced linear net (w_bar, geometry)
    and the README MLP."""
    ds = loss_models.make_synthetic_dataset(0, 200, 10, 5, teacher_rank=3, noise=0.1)
    return (loss_models.make_scalar_poly(1.0, 0.0, -1.0),
            loss_models.balanced_minimizer(np.diag([2.0, 1.0]), 2),
            loss_models.make_mlp([10, 16, 16, 5], "tanh", ds))


def _gd(model, w0, eta: float, steps: int, localize: bool = False) -> tuple:
    """(model, log, curvature table) of a GD run, as ``THEOREMS`` read it."""
    log = trajectory.run_gd(model, w0, eta, steps)
    return model, log, edge_metrics.curvature_table(model, log, localize=localize)


@functools.cache
def _bundle():
    """Bundled runs, each with its localized table, for the per-run theorems."""
    quartic, (w_bar, geom), mlp = _models()
    runs = {
        "quad1d": (loss_models.make_quadratic([[3.0]], 0.0), np.array([1.0]), 0.5, 40),
        "quad_nd": (_quad_nd(8, seed=2), np.random.default_rng(3).standard_normal(8),
                    0.5, 80),
        "cubic1d": (loss_models.make_scalar_poly(1.0, 1.0, 0.0), np.array([0.4]), 0.5, 40),
        "quartic_eos": (quartic, np.array([0.3]), 2.5, 200),
        "linear_net_eos": (geom.model, w_bar + 1e-2 * geom.sharp_direction(), 0.55, 400),
        "mlp_eos": (mlp, mlp.init_params(seed=1), 0.5, 300),
    }
    return {name: _gd(*run, localize=True) for name, run in runs.items()}


@functools.cache
def _long_runs():
    """The 2,000-step quartic and linear-net runs and the 4,000-step MLP
    run, each with its table."""
    quartic, (w_bar, geom), mlp = _models()
    return {"quartic": _gd(quartic, np.array([0.3]), 2.5, 2000),
            "linear_net": _gd(geom.model, w_bar + 1e-2 * geom.sharp_direction(),
                              0.55, 2000),
            "mlp": _gd(mlp, mlp.init_params(seed=1), 0.5, 4000)}


# ---------------------------------------------------------------------------
# Checks (one per acceptance criterion family)
# ---------------------------------------------------------------------------

@_timed
def _check_quadratic_exactness():
    """Routes agree with u^T H u; step propagator and telescoping are exact."""
    tol = 1e-10
    worst_route = worst_prop = worst_tel = 0.0
    for dim, seed in ((1, 0), (5, 1), (20, 2)):
        model = _quad_nd(dim, seed) if dim > 1 else loss_models.make_quadratic([[3.0]], 0.0)
        rng = np.random.default_rng(seed + 10)
        log = trajectory.run_gd(model, rng.standard_normal(dim), 0.5, 100)
        table = edge_metrics.curvature_table(model, log)
        H = model.H
        for i, k in enumerate(table.k):
            d = log.step(k)
            u = d / float(np.linalg.norm(d))
            uhu = float(u @ (H @ u))
            vals = [table.rbar_exact[i], table.rtilde_exact[i],
                    table.rbar[i], table.rtilde[i]]
            worst_route = max(worst_route, max(abs(v - uhu) for v in vals))
            if k + 1 < log.num_steps:
                pred = d - log.eta * (H @ d)
                worst_prop = max(worst_prop, float(np.linalg.norm(log.step(k + 1) - pred)))
        rep = edge_metrics.edge_balance_report(model, log, table)
        worst_tel = max(worst_tel, rep.identity_residual)
    passed = max(worst_route, worst_prop, worst_tel) <= tol
    return passed, {"route_agreement": worst_route, "propagator": worst_prop,
                    "telescoping": worst_tel, "tolerance": tol}


@_timed
def _check_edge_balance_independent():
    """Quadrature-route telescoping balance on polynomial and MLP runs."""
    ok, outcomes = _apply(THEOREMS["telescoping_balance"], _long_runs())
    return ok, {f"{name}_{key}": details[key] for name, details in outcomes.items()
                for key in ("residual", "tolerance")}


@_timed
def _check_route_agreement():
    """Each step's quadrature averages agree with its exact routes, within
    the table's bounds, on the bundled and the long runs."""
    return _apply(THEOREMS["route_agreement"], {**_bundle(), **_long_runs()})


@_timed
def _check_mlp_saturation():
    """Weighted-mean curvature saturates at 2/eta; forcing bound at every K."""
    mlp, log, table = _long_runs()["mlp"]
    eta = log.eta
    thr = 2.0 / eta
    lam0 = lambda_max_iter(mlp.hvp_at(log.w(0)), mlp.dim, seed=0)
    running, bounds = edge_metrics.running_balance(mlp, log, table)
    tail = running[int(0.75 * running.size):]
    tail_dev = float(np.max(np.abs(tail - thr)) / thr)
    forcing_ok = bool(np.all(np.maximum.accumulate(table.rtilde) >= bounds - 1e-12))
    passed = (lam0 < thr) and tail_dev <= 0.05 and forcing_ok
    return passed, {"initial_sharpness": lam0, "threshold": thr,
                    "tail_relative_deviation": tail_dev, "tolerance": 0.05,
                    "forcing_bound_everywhere": forcing_ok,
                    "onset_step": edge_metrics.eos_onset(table, eta)}


@_timed
def _check_localization():
    """Interior points realizing rtilde, with sharpness bound, on every bundled run."""
    return _apply(THEOREMS["localization"], _bundle())


@_timed
def _check_scalar_pitchfork():
    """Continuation amplitude matches sqrt(1 - 2/eta); exponent 0.5 +- 0.02."""
    quartic, _, _ = _models()
    etas = 2.0 + np.logspace(math.log10(0.002), math.log10(0.2), 12)
    w_bar, u = np.array([0.0]), np.array([1.0])
    eta_c, _ = bifurcation.critical_eta(quartic, w_bar)
    Q_u = bifurcation.quartic_coefficient(quartic, w_bar, u)
    points, lost = bifurcation.branch_sweep(quartic, w_bar, etas, "continuation",
                                            u=u, eta_c=eta_c, Q_u=Q_u)
    amps = np.array([p.amplitude for p in points])
    exact = np.sqrt(1.0 - 2.0 / etas)
    rel = float(np.max(np.abs(amps - exact) / exact))
    slope = bifurcation.fit_scaling_exponent(etas, amps, 2.0)
    raw_ok, _ = raw_orbit(points)
    passed = (not lost) and rel <= 1e-8 and abs(slope - 0.5) <= 0.02 and raw_ok
    return passed, {"amplitude_relative_error": rel, "amplitude_tolerance": 1e-8,
                    "exponent": slope, "exponent_window": 0.02,
                    "raw_orbits_verified": raw_ok}


@_timed
def _check_linear_net_normal_form():
    """Transverse spectrum, quartic coefficient, critical step size,
    width invariance, and empirical branch scaling of the linear network."""
    details = {}
    ok = True

    _, (w_bar, geom), _ = _models()
    net = geom.model
    S, _ = geom.normal_basis()
    analytic = geom.transverse_spectrum()
    H_red = S.T @ net.hessian_dense(w_bar) @ S
    numeric = dense_eigvalsh(H_red)[::-1]
    spec_err = float(np.max(np.abs(analytic - numeric)))
    details["spectrum_error"] = spec_err
    ok &= spec_err <= 1e-8

    Q = bifurcation.quartic_coefficient(net, w_bar, geom.sharp_direction(), S)
    details["quartic_u_c"] = Q
    ok &= abs(Q - (-4.0)) <= 1e-4

    eta_c, _ = bifurcation.critical_eta(net, w_bar, S)
    details["eta_c_error"] = abs(eta_c - 0.5)
    ok &= abs(eta_c - 0.5) <= 1e-10

    rng = np.random.default_rng(0)
    worst = 0.0
    for h in (2, 3, 5):
        geom_h = geom.with_width(h)
        for _ in range(100):
            xi = geom.embed(rng.standard_normal((2, 2)), None, None) * 0.3
            xi_h = loss_models.width_pad(geom, xi, h)
            lr = net.value(w_bar + xi)
            lh = geom_h.model.value(geom_h.w_bar + xi_h)
            worst = max(worst, abs(lr - lh) / max(abs(lr), 1e-30))
    details["width_invariance"] = worst
    ok &= worst <= 1e-13

    ds = loss_models.make_synthetic_dataset(11, 200, 10, 5, noise=0.0,
                                            teacher_spectrum=[2.0, 1.0, 0.5])
    M = np.linalg.lstsq(ds.X, ds.Y, rcond=None)[0].T
    w_bar2, geom2 = loss_models.balanced_minimizer(M, 3, rank=3)
    eta_c2, _ = bifurcation.critical_eta(geom2.model, w_bar2, geom2.normal_basis()[0])
    etas = eta_c2 + np.logspace(math.log10(0.005 * eta_c2),
                                math.log10(0.2 * eta_c2), 9)
    emp, _ = bifurcation.branch_sweep(geom2.model, w_bar2, etas, "empirical",
                                      u=geom2.sharp_direction(), run_steps=4000)
    orbits = [p for p in emp if p.orbit]
    slope = bifurcation.fit_scaling_exponent(
        [p.eta for p in orbits], [p.amplitude for p in orbits], eta_c2)
    details["empirical_exponent"] = slope
    details["empirical_diverged_etas"] = [p.eta for p in emp if p.diverged]
    details["empirical_decayed_etas"] = [p.eta for p in emp if p.decayed]
    ok &= abs(slope - 0.5) <= 0.05 and len(orbits) == len(emp)
    return ok, details


@_timed
def _check_near_periodicity():
    """The MLP's two-step return ratio drops below 0.3 after onset."""
    _, log_m, table_m = _long_runs()["mlp"]
    onset = edge_metrics.eos_onset(table_m, log_m.eta)
    rows = (table_m.k >= onset) & (table_m.k + 1 < log_m.num_steps)
    ratios = table_m.two_step_norm[rows] / np.sqrt(table_m.step_norm_sq[rows])
    med = float(np.median(ratios))
    return med < 0.3, {"mlp_post_onset_median_ratio": med}


@_timed
def _check_mechanisms():
    """Oscillatory cancellation and propagator norm bound, on random draws."""
    ok, details = True, {}
    rng = np.random.default_rng(7)
    viol = 0
    for _ in range(1000):
        T = int(rng.integers(1, 200))
        m = rng.uniform(-1.0, 0.0, T)
        u = rng.standard_normal(T)
        xT, bound = stability_kv.oscillatory_bound(m, u, float(rng.uniform(0.01, 2.0)))
        viol += xT > bound + 1e-12
    details["oscillatory_violations"] = int(viol)
    ok &= viol == 0

    viol = 0
    for i in range(500):
        n = int(rng.integers(2, 10))
        L = int(rng.integers(1, 12))
        eta = float(rng.uniform(0.1, 1.0))
        T = np.eye(n)
        ksum = 0.0
        for _ in range(L):
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2.0
            T = (np.eye(n) - eta * A) @ T
            ksum += stability_kv.excursion_kappa(A, eta)
        viol += stability_kv.propagator_norm(T) > math.exp(ksum) + 1e-10
    details["propagator_violations"] = int(viol)
    ok &= viol == 0
    return ok, details


@_timed
def _check_kelvin_voigt():
    """Strain recurrence at every step within the tolerance its quadrature
    settles to (no unsettled step), propagator formula, quadratic closed form."""
    H = np.diag([3.0, 1.0])
    qa = loss_models.make_quadratic(H, np.array([0.2, -0.1]))
    qb = loss_models.make_quadratic(H, np.array([-0.3, 0.4]))
    eta = 0.5
    strains = {"quadratic": stability_kv.strain_run(
        trajectory.run_pair_gd(qa, qb, np.array([1.0, 1.0]), eta, 30), qa)}

    _, (w_bar, geom), _ = _models()
    net_b = loss_models.make_two_layer_linear(np.diag([2.0, 1.0]) + 0.05, 2)
    strains["linear_net"] = stability_kv.strain_run(
        trajectory.run_pair_gd(geom.model, net_b, w_bar + 0.05, 0.3, 30), geom.model)

    ds = loss_models.make_synthetic_dataset(3, 60, 6, 4, teacher_rank=2, noise=0.05)
    m_full = loss_models.make_mlp([6, 8, 4], "tanh", ds)
    ds_loo = loss_models.Dataset(X=ds.X[1:], Y=ds.Y[1:], seed=ds.seed,
                                 teacher_rank=ds.teacher_rank)
    m_loo = loss_models.make_mlp([6, 8, 4], "tanh", ds_loo)
    pair_m = trajectory.run_pair_gd(m_full, m_loo, m_full.init_params(seed=7), 0.3, 40)
    strains["mlp"] = stability_kv.strain_run(pair_m, m_full, 8)

    details, ok = {}, True
    worst_prop = worst_bound = 0.0
    for name, s in strains.items():
        settled, recurrence = recurrence_residual(s)
        details[f"{name}_recurrence_residual"] = recurrence["max_recurrence_residual"]
        ok &= settled
        err = (np.linalg.norm(s.propagated - s.delta, axis=1)
               / (1.0 + np.linalg.norm(s.delta, axis=1)))
        worst_prop = max(worst_prop, float(err.max()))
        bound = stability_kv.strain_bound_rhs(s)
        for k in range(1, s.num_steps + 1):
            worst_bound = max(worst_bound, float(np.linalg.norm(s.delta[k])) - bound[k])
    details["propagator_formula"] = worst_prop
    details["strain_bound_max_excess"] = worst_bound
    ok &= worst_prop <= 1e-10 and worst_bound <= 1e-10

    strain = strains["quadratic"]
    f = H @ (qb.center - qa.center)
    prop = np.eye(2) - eta * H
    worst_cf = 0.0
    for k in range(1, strain.num_steps + 1):
        geom_sum = sum(np.linalg.matrix_power(prop, j) for j in range(k))
        closed = -eta * geom_sum @ f
        worst_cf = max(worst_cf, float(np.linalg.norm(strain.delta[k] - closed)))
    details["quadratic_closed_form"] = worst_cf
    ok &= worst_cf <= 1e-10
    return ok, details


@_timed
def _check_stochastic_balance():
    """Noisy telescoping identity and the zero-mean cross term."""
    details = {}
    ok = True

    q = loss_models.make_quadratic(np.diag([3.0, 1.0]), 0.0)
    worst = worst_prop = 0.0
    for seed, sigma in ((5, 0.05), (6, 0.3), (7, 0.0)):
        noise = trajectory.NoiseSource("gaussian", seed=seed, sigma=sigma)
        slog = trajectory.run_sgd(q, np.array([1.0, -1.0]), 0.5, 200, noise)
        rep = edge_metrics.sgd_balance_report(q, slog)
        worst = max(worst, rep.residual)
        worst_prop = max(worst_prop, rep.max_propagator_residual)
    details["quadratic_identity_residual"] = worst
    details["propagator_residual"] = worst_prop
    ok &= worst <= 1e-9 and worst_prop <= 1e-9

    ds = loss_models.make_synthetic_dataset(9, 60, 6, 4, teacher_rank=2, noise=0.05)
    mlp = loss_models.make_mlp([6, 8, 4], "tanh", ds)
    w0 = mlp.init_params(seed=4)
    sums = np.empty(1000)
    for i in range(1000):
        noise = trajectory.NoiseSource("minibatch", seed=10_000 + i, batch_size=8)
        slog = trajectory.run_sgd(mlp, w0, 0.2, 20, noise)
        sums[i] = sum(float(slog.grads[k] @ slog.noise[k])
                      for k in range(slog.num_steps))
    mean = float(sums.mean())
    se = float(sums.std(ddof=1) / math.sqrt(sums.size))
    details["cross_term_mean"] = mean
    details["cross_term_se"] = se
    details["z_score"] = mean / se if se > 0 else 0.0
    ok &= abs(mean) <= 3.0 * se
    return ok, details


CHECKS = {
    "quadratic_exactness": _check_quadratic_exactness,
    "edge_balance_independent": _check_edge_balance_independent,
    "route_agreement": _check_route_agreement,
    "mlp_saturation": _check_mlp_saturation,
    "localization": _check_localization,
    "scalar_pitchfork": _check_scalar_pitchfork,
    "linear_net_normal_form": _check_linear_net_normal_form,
    "near_periodicity": _check_near_periodicity,
    "mechanisms": _check_mechanisms,
    "kelvin_voigt": _check_kelvin_voigt,
    "stochastic_balance": _check_stochastic_balance,
}

SUITES = {
    "quadratic": ["quadratic_exactness", "mechanisms", "stochastic_balance"],
    "full": list(CHECKS),
}


def run_suite(suite: str = "full", echo=None) -> list[CheckResult]:
    """Run the named suite; returns one result per check."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for name in SUITES[suite]:
        res = CHECKS[name]()
        results.append(res)
        if echo is not None:
            echo(f"[{'PASS' if res.passed else 'FAIL'}] {res.name} "
                 f"({res.seconds:.2f}s)")
    return results
