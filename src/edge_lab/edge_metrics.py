"""Single-trajectory curvature diagnostics along each step segment.

Two segment-averaged curvatures are tracked per step: the uniform
average rbar (which governs the step-increment propagator) and the
triangularly weighted "effective" curvature rtilde (which governs the
one-step loss change). Each is computable by two independent routes:
exactly from logged gradients/losses, or by quadrature of the
directional curvature profile q(tau) = u^T H(w_k + tau d_k) u. Taking
rtilde from the quadrature makes the telescoping balance identity a
genuine test instead of a tautology.

``curvature_table`` walks a run once by quadrature, and every consumer
(balance report, metrics CSV, localization targets, the noisy balance,
run-directory replay) reads its per-step rows. It integrates each step's
profile with the embedded G4/K9 Gauss-Kronrod pair, a fixed table of
nodes and weights (``K9_NODES``, ``K9_WEIGHTS``, ``G4_WEIGHTS``),
bisecting intervals until both averages settle; each row records the
nodes it took and the profile values of its final intervals, and steps
that exhaust the interval budget are listed as unsettled. ``localize``
brackets each average from those values. ``write_metrics_csv`` puts the
exact routes beside the table's values.

Curvature values carry inverse-step-size units (they are compared
against the threshold 2/eta).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._procmap import OrderedMap
from .loss_models import LossModel
from .numerics import (BracketError, EvaluationError, NonConvergenceError,
                       brent_root, dense_eigvalsh,
                       lambda_max_iter, uniform_rule)
from .trajectory import StochasticTrajectoryLog, TrajectoryLog, write_csv

__all__ = [
    "DEGENERATE_STEP",
    "DegenerateStepError",
    "LocalizationError",
    "CurvatureTable",
    "LocalizationRecord",
    "WindowMass",
    "EdgeBalanceReport",
    "SgdBalanceReport",
    "step_mean_curvature_exact",
    "effective_curvature_from_loss",
    "curvature_table",
    "localize",
    "localized_sharpness",
    "edge_balance_report",
    "running_balance",
    "near_periodicity_bound",
    "return_ratio",
    "loss_change_proxy",
    "sgd_balance_report",
    "eos_onset",
    "write_metrics_csv",
]

Array = NDArray[np.float64]

# Steps shorter than this are degenerate: the unit direction (and any
# curvature along it) is numerically meaningless.
DEGENERATE_STEP = 1e-14


class DegenerateStepError(ValueError):
    """Step increment too short to define a direction."""


class LocalizationError(RuntimeError):
    """The known profile values of a step neither bracket a target nor
    stay constant."""


def _read_only(values) -> Array:
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


# The embedded G4/K9 Gauss-Kronrod pair on [0, 1]: 9 profile nodes per
# interval, of which K9_NODES[1::2] are the 4 Gauss-Legendre nodes with
# weights G4_WEIGHTS. K9 is exact to degree 13 and G4 to degree 7. The
# nodes mirror bitwise (K9_NODES[8 - i] == 1 - K9_NODES[i]) and each weight
# set is the correctly rounded interpolatory weights of its nodes, summing
# to 1. Both segment averages settle when their summed |K9 - G4| error is
# at most QUADRATURE_RTOL max(1, |value|); a step that has not settled by
# QUADRATURE_MAX_INTERVALS intervals is reported unsettled.
K9_NODES = _read_only([
    0.01171987463121349, 0.06943184420297377, 0.179856891251845,
    0.33000947820757187, 0.5, 0.6699905217924281,
    0.820143108748155, 0.9305681557970262, 0.9882801253687865])
K9_WEIGHTS = _read_only([
    0.03148868683273658, 0.0850268026678613, 0.1333991702261422,
    0.16347459480072582, 0.17322149094506817, 0.16347459480072582,
    0.1333991702261422, 0.0850268026678613, 0.03148868683273658])
G4_WEIGHTS = _read_only([
    0.17392742256872698, 0.326072577431273, 0.326072577431273,
    0.17392742256872698])
QUADRATURE_RTOL = 1e-9
QUADRATURE_MAX_INTERVALS = 128

# ``curvature_table`` deals its steps to its processes in chunks of this
# many consecutive non-degenerate steps, so a table of at most this many
# steps forks nothing.
_CHUNK_STEPS = 32


@dataclass(frozen=True)
class CurvatureTable:
    """Both segment curvatures of every non-degenerate step of one run.

    Row i describes trajectory step ``k[i]``; degenerate steps have no
    row and are listed in ``skipped``. ``nodes[i]`` counts the profile
    values the row's quadrature took, and ``unsettled`` lists the steps
    whose quadrature hit the interval budget before it settled.

    The table keeps the K9 nodes of each row's final intervals and the
    profile values there: row i's are
    ``node_tau[node_start[i]:node_start[i + 1]]``, ascending and interior
    to (0, 1), and ``node_q`` at the same places (``profile(i)``). The
    row's rbar and rtilde are combinations of those values whose
    coefficients are positive and sum to 1.
    """

    k: NDArray[np.int64]
    step_norm_sq: Array
    rbar: Array
    rtilde: Array
    nodes: NDArray[np.int64]
    skipped: list[int]
    unsettled: list[int]
    node_start: NDArray[np.int64]
    node_tau: Array
    node_q: Array

    def profile(self, i: int) -> tuple[Array, Array]:
        """(nodes, profile values) of row i."""
        lo, hi = self.node_start[i], self.node_start[i + 1]
        return self.node_tau[lo:hi], self.node_q[lo:hi]


@dataclass(frozen=True)
class LocalizationRecord:
    """Interior point where a segment-averaged curvature is attained."""

    k: int
    point: float          # xi (for rtilde) or zeta (for rbar), in (0, 1)
    target: float
    q_at_point: float
    constant_profile: bool


def _step(log: TrajectoryLog, k: int) -> tuple[Array, float]:
    d = log.step(k)
    nd = float(np.linalg.norm(d))
    if nd < DEGENERATE_STEP:
        raise DegenerateStepError(f"step {k} has norm {nd:.3e} < {DEGENERATE_STEP}")
    return d, nd


def step_mean_curvature_exact(log: TrajectoryLog, k: int) -> float:
    """Uniform segment-average curvature from the logged gradient difference.

    d^T (grad_{k+1} - grad_k) / ||d||^2; exact by the fundamental theorem
    of calculus, no quadrature involved.
    """
    d, nd = _step(log, k)
    return float(d @ (log.grads[k + 1] - log.grads[k])) / nd ** 2


def effective_curvature_from_loss(log: TrajectoryLog, k: int) -> float:
    """Triangularly weighted segment curvature recovered from logged losses.

    Rearranges the one-step loss change
    L_{k+1} - L_k = -||d||^2/eta + (1/2) d^T Htilde d.
    """
    d, nd = _step(log, k)
    dloss = float(log.losses[k + 1] - log.losses[k])
    return 2.0 * (dloss + nd ** 2 / log.eta) / nd ** 2


def _intervals(profile, spans) -> list[tuple]:
    """K9 sums over each (a, h) span [a, a + h] of the step, from one call
    of the step's ``segment_profile``: per span (a, h, rbar part, rtilde
    part, the |K9 - G4| error of each part, and the span's nodes and
    profile values). A non-finite profile value raises EvaluationError."""
    ts = [a + h * K9_NODES for a, h in spans]
    qs = profile(np.concatenate(ts)).reshape(len(spans), -1)
    if not np.isfinite(qs).all():
        bad = np.argwhere(~np.isfinite(qs))[0]
        raise EvaluationError(f"non-finite profile value {qs[tuple(bad)]} "
                              f"at tau {ts[bad[0]][bad[1]]:.17g}")
    out = []
    for (a, h), t, q in zip(spans, ts, qs):
        tri = 2.0 * (1.0 - t)
        kq, gq = h * K9_WEIGHTS * q, h * G4_WEIGHTS * q[1::2]
        rbar, rtilde = float(np.sum(kq)), float(np.dot(tri, kq))
        out.append((a, h, rbar, rtilde, abs(rbar - float(np.sum(gq))),
                    abs(rtilde - float(np.dot(tri[1::2], gq))), t, q))
    return out


def _segment_averages(model: LossModel, w: Array, d: Array) -> tuple:
    """(rbar, rtilde, profile nodes, settled, final nodes, their values)
    of one step.

    The profile is integrated by the embedded G4/K9 pair: rbar = sum w_i q_i
    and rtilde = sum 2 (1 - tau_i) w_i q_i from the K9 values, and
    |K9 - G4| on each interval as the error estimate. The step settles
    when, for both averages, the summed error is at most
    QUADRATURE_RTOL max(1, |total|). Otherwise the interval whose errors
    are the largest share of their tolerances (the leftmost on a tie) is
    bisected and both halves are evaluated, until the step holds
    QUADRATURE_MAX_INTERVALS intervals; then it is unsettled. The final
    intervals' nodes ascend, and their K9 weights times the interval
    widths are positive and sum to 1, as do those times 2 (1 - tau_i).
    """
    profile = model.segment_profile(w, d)
    parts = _intervals(profile, [(0.0, 1.0)])
    while True:
        rbar, rtilde, e_bar, e_tilde = (sum(col) for col in list(zip(*parts))[2:6])
        tol_bar = QUADRATURE_RTOL * max(1.0, abs(rbar))
        tol_tilde = QUADRATURE_RTOL * max(1.0, abs(rtilde))
        settled = e_bar <= tol_bar and e_tilde <= tol_tilde
        if settled or len(parts) >= QUADRATURE_MAX_INTERVALS:
            nodes = len(K9_NODES) * (2 * len(parts) - 1)
            *_, taus, qs = zip(*parts)
            return rbar, rtilde, nodes, settled, np.concatenate(taus), np.concatenate(qs)
        i = int(np.argmax([max(p[4] / tol_bar, p[5] / tol_tilde) for p in parts]))
        a, h = parts[i][:2]
        parts[i:i + 1] = _intervals(profile, [(a, h / 2.0), (a + h / 2.0, h / 2.0)])


def _row(model: LossModel, log: TrajectoryLog, k: int) -> tuple:
    """(rbar, rtilde, profile nodes, settled, final nodes, their values)
    of non-degenerate step k, the last two as raw float64 bytes. A
    non-finite profile value raises EvaluationError naming the step."""
    try:
        rbar, rtilde, count, settled, taus, qs = _segment_averages(
            model, log.w(k), log.step(k))
    except EvaluationError as exc:
        raise EvaluationError(f"curvature table, step {k}: {exc}") from exc
    return rbar, rtilde, count, settled, taus.tobytes(), qs.tobytes()


def curvature_table(model: LossModel, log: TrajectoryLog,
                    work: Counter | None = None,
                    *, workers: int | None = None) -> CurvatureTable:
    """Segment curvatures of every step of a run, in one pass.

    Integrates each step's directional curvature profile adaptively
    (``_segment_averages``) and keeps each row's final nodes and profile
    values. Degenerate steps are skipped; their contribution to every
    weighted sum is below the rounding floor by construction.

    The rows are computed in up to ``workers`` processes, by default one
    per CPU this process may run on, which take chunks of _CHUNK_STEPS
    consecutive steps on demand (``OrderedMap``); the table is the same
    for any count. ``work["curvature_table_workers"]`` becomes the
    largest number of processes a table has used. A non-finite profile
    value raises EvaluationError naming the step.
    """
    ks, norms_sq, skipped = [], [], []
    for k in range(log.num_steps):
        nd = float(np.linalg.norm(log.step(k)))
        if nd < DEGENERATE_STEP:
            skipped.append(k)
        else:
            ks.append(k)
            norms_sq.append(nd ** 2)
    with OrderedMap(lambda k: _row(model, log, k), ks, _CHUNK_STEPS, workers) as rows:
        rbars, rtildes, nodes, settled, taus, qs = zip(*rows) if ks else [()] * 6
    if work is not None:
        work["curvature_table_workers"] = max(work["curvature_table_workers"],
                                              rows.processes)
    node_start = [0] + [len(t) // K9_NODES.itemsize for t in taus]
    return CurvatureTable(np.array(ks, dtype=np.int64), np.array(norms_sq),
                          np.array(rbars), np.array(rtildes),
                          np.array(nodes, dtype=np.int64), skipped,
                          [k for k, ok in zip(ks, settled) if not ok],
                          np.cumsum(node_start, dtype=np.int64),
                          np.frombuffer(b"".join(taus)), np.frombuffer(b"".join(qs)))


def localize(model: LossModel, log: TrajectoryLog, k: int, targets,
             profile: tuple[Array, Array], tol: float = 1e-10,
             work: Counter | None = None) -> list[LocalizationRecord]:
    """Interior points of step k where the profile attains each target.

    ``profile`` holds profile values q_i at ascending interior nodes
    tau_i, the step's row of the run's ``curvature_table``
    (``CurvatureTable.profile``). Each target is an average of the step
    (its rtilde and/or rbar in that table): a combination of the q_i with
    positive coefficients summing to 1. So q_i - target changes sign
    between two adjacent nodes or vanishes at a node, unless every q_i
    lies within rounding of the target.

    One record is returned per target. If the q_i span at most ``tol``
    the profile counts as constant and every target gets the
    conventional midpoint 0.5. Otherwise a target is decided at its
    leftmost event: a node where q equals it exactly, or a sign change
    between adjacent nodes refined by Brent's method, whichever lies
    further left. A target the nodes do not bracket, one that is no such
    average, raises LocalizationError naming the step. The step's
    ``segment_profile`` evaluates each further tau once per call; the
    number it evaluates is added to ``work["localization_profile_nodes"]``.
    """
    d, _ = _step(log, k)
    step_profile = model.segment_profile(log.w(k), d)
    taus, qs = profile
    # Brent re-evaluates its bracket ends and the root is read back:
    # evaluate each tau once per call.
    memo = dict(zip(taus.tolist(), qs.tolist()))
    known = len(memo)

    def q(t: float) -> float:
        if t not in memo:
            memo[t] = float(step_profile((t,))[0])
        return memo[t]

    def event(target):
        """Record of ``target`` at its leftmost event on the nodes, else None."""
        g = qs - target
        hits = np.nonzero(g == 0.0)[0]
        changes = np.nonzero(g[:-1] * g[1:] < 0.0)[0]
        if hits.size and not (changes.size and changes[0] < hits[0]):
            t0 = float(taus[hits[0]])
            return LocalizationRecord(k, t0, target, q(t0), False)
        if not changes.size:
            return None
        i = int(changes[0])
        root = brent_root(lambda t: q(t) - target,
                          float(taus[i]), float(taus[i + 1]), tol=1e-14)
        return LocalizationRecord(k, root, target, q(root), False)

    if float(qs.max() - qs.min()) <= tol:
        records = [LocalizationRecord(k, 0.5, target, q(0.5), True) for target in targets]
    else:
        records = [event(target) for target in targets]
    if work is not None:
        work["localization_profile_nodes"] += len(memo) - known
    if None in records:
        raise LocalizationError(
            f"no interior point found for step {k} "
            f"(target {targets[records.index(None)]:g}): its {len(taus)} "
            "profile nodes neither bracket the target nor lie within "
            f"{tol:g} of constant")
    return records


def localized_sharpness(model: LossModel, log: TrajectoryLog,
                        rec: LocalizationRecord,
                        work: Counter | None = None) -> float:
    """Largest Hessian eigenvalue at the localized interior point.

    Dense eigenvalues for small models, otherwise Lanczos seeded
    with the step direction (so the estimate is at least the directional
    curvature there) on one ``hvp_at`` operator for the point. The
    directions the operator applies, the symmetry spot-check's two
    included, are added to ``work["lanczos_products"]``.
    """
    d = log.step(rec.k)
    w_pt = log.w(rec.k) + rec.point * d
    if model.dim <= 64:
        return float(dense_eigvalsh(model.hessian_dense(w_pt))[-1])
    u = d / float(np.linalg.norm(d))
    op = model.hvp_at(w_pt)
    if work is not None:
        apply = op

        def op(v):
            work["lanczos_products"] += len(np.atleast_2d(v))
            return apply(v)
    return lambda_max_iter(op, model.dim, v0=u)


@dataclass(frozen=True)
class WindowMass:
    """Step-weight mass below/above a window around 2/eta."""

    delta: float
    sub_mass: float
    super_mass: float
    in_window_fraction: float
    sub_bound: float
    super_bound: float


@dataclass
class EdgeBalanceReport:
    """Aggregates of the telescoping curvature balance over a run."""

    eta: float
    K: int
    E_K: float
    loss_drop: float              # L(w_0) - L(w_K)
    identity_residual: float      # |sum w_k (2/eta - rtilde_k) - 2 loss_drop|
    weighted_mean: float          # sum w_k rtilde_k / E_K
    forcing_bound: float          # 2/eta - 2 (L_0 - L_inf) / E_K, nan if L_inf unknown
    max_rtilde: float
    B_minus: float
    B_plus: float
    windows: dict[float, WindowMass]
    table: CurvatureTable = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "eta": self.eta, "K": self.K,
            "E_K": self.E_K, "loss_drop": self.loss_drop,
            "identity_residual": self.identity_residual,
            "weighted_mean": self.weighted_mean,
            "forcing_bound": self.forcing_bound,
            "max_rtilde": self.max_rtilde,
            "B_minus": self.B_minus, "B_plus": self.B_plus,
            "windows": {
                f"{d:.17g}": {
                    "sub_mass": wm.sub_mass, "super_mass": wm.super_mass,
                    "in_window_fraction": wm.in_window_fraction,
                    "sub_bound": wm.sub_bound, "super_bound": wm.super_bound,
                } for d, wm in self.windows.items()},
            "skipped_steps": self.table.skipped,
            "unsettled_steps": self.table.unsettled,
        }


def _forcing_bound(model: LossModel, log: TrajectoryLog, E):
    """2/eta - 2 (L_0 - L_inf) / E at step weights E > 0; NaN if L_inf is unknown."""
    if model.inf_value is None:
        return E * float("nan")
    return 2.0 / log.eta - 2.0 * (float(log.losses[0]) - model.inf_value) / E


def edge_balance_report(model: LossModel, log: TrajectoryLog,
                        table: CurvatureTable,
                        deltas=None) -> EdgeBalanceReport:
    """Telescoping balance, signed decomposition and window masses.

    Reads rtilde and the step weights ||d_k||^2 from ``table`` (the run's
    ``curvature_table``), which already leaves out degenerate steps.
    """
    eta = log.eta
    thr = 2.0 / eta
    if deltas is None:
        deltas = [0.05 * thr, 0.1 * thr, 0.5 * thr]
    rtildes, weights = table.rtilde, table.step_norm_sq

    E_K = float(weights.sum())
    loss_drop = float(log.losses[0] - log.losses[-1])
    lhs = float(np.sum(weights * (thr - rtildes)))
    identity_residual = abs(lhs - 2.0 * loss_drop)
    weighted_mean = float(np.sum(weights * rtildes) / E_K) if E_K > 0 else float("nan")

    forcing = _forcing_bound(model, log, E_K) if E_K > 0 else float("nan")

    dev = thr - rtildes
    B_minus = float(np.sum(weights * np.clip(dev, 0.0, None)))
    B_plus = float(np.sum(weights * np.clip(-dev, 0.0, None)))

    gap = 2.0 * (float(log.losses[0]) - (model.inf_value if model.inf_value is not None
                                         else float(log.losses[-1])))
    windows = {}
    for delta in deltas:
        sub = float(np.sum(weights[rtildes <= thr - delta]))
        sup = float(np.sum(weights[rtildes >= thr + delta]))
        inw = float(np.sum(weights[np.abs(rtildes - thr) < delta]) / E_K) if E_K > 0 else 0.0
        windows[float(delta)] = WindowMass(
            delta=float(delta), sub_mass=sub, super_mass=sup,
            in_window_fraction=inw,
            sub_bound=(gap + B_plus) / delta, super_bound=B_plus / delta)

    return EdgeBalanceReport(
        eta=eta, K=log.num_steps, E_K=E_K, loss_drop=loss_drop,
        identity_residual=identity_residual, weighted_mean=weighted_mean,
        forcing_bound=forcing, max_rtilde=float(rtildes.max()) if rtildes.size else float("nan"),
        B_minus=B_minus, B_plus=B_plus, windows=windows, table=table)


def running_balance(model: LossModel, log: TrajectoryLog,
                    table: CurvatureTable) -> tuple[Array, Array]:
    """Running weighted mean curvature sum w_j rtilde_j / E_i and forcing
    bound 2/eta - 2 (L_0 - L_inf) / E_i at each table row i, E_i summing
    the step weights of rows 0..i; the largest rtilde of those rows is at
    least the bound, which is NaN when ``model.inf_value`` is unknown."""
    cum_w = np.cumsum(table.step_norm_sq)
    running = np.cumsum(table.step_norm_sq * table.rtilde) / cum_w
    return running, _forcing_bound(model, log, cum_w)


def near_periodicity_bound(log: TrajectoryLog, k: int) -> tuple[float, float]:
    """(|rbar_k - 2/eta|, ||w_{k+2} - w_k|| / (eta ||d_k||)).

    The left side never exceeds the right: near two-step return forces
    the segment curvature to the threshold.
    """
    if k + 1 >= log.num_steps:
        raise IndexError("near_periodicity_bound needs records k..k+2")
    d, nd = _step(log, k)
    lhs = abs(step_mean_curvature_exact(log, k) - 2.0 / log.eta)
    two_step = d + log.step(k + 1)
    rhs = float(np.linalg.norm(two_step)) / (log.eta * nd)
    return lhs, rhs


def return_ratio(log: TrajectoryLog, k: int) -> float:
    """Two-step return ratio ||w_{k+2} - w_k|| / ||d_k||."""
    d, nd = _step(log, k)
    return float(np.linalg.norm(d + log.step(k + 1))) / nd


def loss_change_proxy(log: TrajectoryLog, k: int) -> tuple[float, float]:
    """Trajectory-only loss-change proxy and the actual change.

    Proxy: -(1/2 eta) d_k . (w_{k+2} - w_k). Exact on quadratics.
    """
    if k + 1 >= log.num_steps:
        raise IndexError("loss_change_proxy needs records k..k+2")
    d = log.step(k)
    two_step = d + log.step(k + 1)
    proxy = -float(d @ two_step) / (2.0 * log.eta)
    actual = float(log.losses[k + 1] - log.losses[k])
    return proxy, actual


def eos_onset(table: CurvatureTable, eta: float) -> int | None:
    """First trajectory step whose effective curvature reaches 95% of 2/eta."""
    thr = 0.95 * 2.0 / eta
    hits = np.nonzero(table.rtilde >= thr)[0]
    return int(table.k[hits[0]]) if hits.size else None


@dataclass
class SgdBalanceReport:
    """Both sides of the noisy telescoping balance plus the forced propagator."""

    eta: float
    K: int
    lhs: float                    # sum ||s_k||^2 (2/eta - rtilde_k)
    loss_term: float              # 2 (L_0 - L_K)
    cross_term: float             # 2 eta sum <grad_k, eps_k>
    noise_term: float             # 2 eta sum ||eps_k||^2
    residual: float
    max_propagator_residual: float

    @property
    def rhs(self) -> float:
        return self.loss_term + self.cross_term + self.noise_term


def sgd_balance_report(model: LossModel,
                       log: StochasticTrajectoryLog) -> SgdBalanceReport:
    """Noisy balance identity and per-step forced-propagator residual.

    rtilde comes from the run's ``curvature_table``. The
    propagator residual applies the uniform segment Hessian to the
    stochastic step by order-4 vector quadrature, so it is an
    independent check rather than a restatement of the update rule.
    """
    if log.noise.shape[0] != log.num_steps:
        raise ValueError("stochastic log is missing noise records")
    eta = log.eta
    thr = 2.0 / eta
    u_rule = uniform_rule()

    table = curvature_table(model, log)
    lhs = float(np.sum(table.step_norm_sq * (thr - table.rtilde)))
    cross = 0.0
    noise_sq = 0.0
    max_prop = 0.0
    for k in range(log.num_steps):
        s = log.step(k)
        ns = float(np.linalg.norm(s))
        eps = log.noise[k]
        g = log.grads[k]
        cross += float(g @ eps)
        noise_sq += float(eps @ eps)
        if ns >= DEGENERATE_STEP and k + 1 < log.num_steps:
            w = log.w(k)
            hbar_s = np.zeros_like(s)
            for wq, tau in zip(u_rule.weights, u_rule.nodes):
                hbar_s = hbar_s + wq * model.hvp(w + tau * s, s)
            resid = log.step(k + 1) - (s - eta * hbar_s) \
                + eta * (log.noise[k + 1] - eps)
            max_prop = max(max_prop, float(np.linalg.norm(resid)))

    loss_term = 2.0 * float(log.losses[0] - log.losses[-1])
    cross_term = 2.0 * eta * cross
    noise_term = 2.0 * eta * noise_sq
    residual = abs(lhs - (loss_term + cross_term + noise_term))
    return SgdBalanceReport(eta=eta, K=log.num_steps, lhs=lhs,
                            loss_term=loss_term, cross_term=cross_term,
                            noise_term=noise_term, residual=residual,
                            max_propagator_residual=max_prop)


def write_metrics_csv(model: LossModel, log: TrajectoryLog, table: CurvatureTable,
                      path, with_localization: bool = True,
                      work: Counter | None = None) -> None:
    """Per-step metrics table.

    Columns: k, step_norm_sq, rbar, rtilde, xi, zeta, lambda_max_xi,
    delta_L, proxy, return_ratio, rbar_exact, rtilde_exact. rbar and
    rtilde are the rows of ``table``, the run's ``curvature_table``;
    rbar_exact and rtilde_exact are the exact routes from the logged
    gradient difference and loss change (``step_mean_curvature_exact``
    and ``effective_curvature_from_loss``). Each step is localized
    from its row's profile values (``localize``); ``work`` tallies the
    profile nodes and Lanczos products this takes. Fields that need records
    beyond the end of the run (or a localized point when localization
    is off) are left empty, as is every curvature field of a degenerate
    step. A Brent or Lanczos iteration of the localization that does not
    converge raises NonConvergenceError naming the step; a non-finite
    profile value or an invalid bracket in Brent's method raises
    EvaluationError or BracketError naming the step.
    """
    header = ["k", "step_norm_sq", "rbar", "rtilde", "xi", "zeta", "lambda_max_xi",
              "delta_L", "proxy", "return_ratio", "rbar_exact", "rtilde_exact"]
    row_of = {int(k): i for i, k in enumerate(table.k)}
    rows = []
    for k in range(log.num_steps):
        i = row_of.get(k)
        if i is None:
            nd = float(np.linalg.norm(log.step(k)))
            rows.append([k, nd * nd] + [None] * (len(header) - 2))
            continue
        rbar, rtilde = float(table.rbar[i]), float(table.rtilde[i])
        xi = zeta = lam_xi = None
        if with_localization:
            try:
                rec_t, rec_b = localize(model, log, k, (rtilde, rbar),
                                        table.profile(i), work=work)
                lam_xi = localized_sharpness(model, log, rec_t, work)
            except NonConvergenceError as exc:
                raise NonConvergenceError(f"localization of step {k}: {exc}",
                                          exc.history) from exc
            except (EvaluationError, BracketError) as exc:
                raise type(exc)(f"localization of step {k}: {exc}") from exc
            xi, zeta = rec_t.point, rec_b.point
        # Each step increment is derived once; the cells are those of
        # loss_change_proxy, return_ratio and the two exact routes bit for
        # bit, the latter from the row's own step norm and loss change.
        d = log.step(k)
        delta_l = float(log.losses[k + 1] - log.losses[k])
        proxy = ratio = None
        if k + 1 < log.num_steps:
            two_step = d + log.step(k + 1)
            proxy = -float(d @ two_step) / (2.0 * log.eta)
            ratio = float(np.linalg.norm(two_step)) / float(np.linalg.norm(d))
        nsq = float(table.step_norm_sq[i])
        rbar_exact = float(d @ (log.grads[k + 1] - log.grads[k])) / nsq
        rtilde_exact = 2.0 * (delta_l + nsq / log.eta) / nsq
        rows.append([k, nsq, rbar, rtilde, xi, zeta, lam_xi,
                     delta_l, proxy, ratio, rbar_exact, rtilde_exact])
    write_csv(path, header, rows)
