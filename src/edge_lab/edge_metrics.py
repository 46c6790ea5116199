"""Single-trajectory curvature diagnostics along each step segment.

Two segment-averaged curvatures are tracked per step: the uniform
average rbar (which governs the step-increment propagator) and the
triangularly weighted "effective" curvature rtilde (which governs the
one-step loss change). Each is computable by two independent routes:
exactly from logged gradients/losses, or by quadrature of the
directional curvature profile q(tau) = u^T H(w_k + tau d_k) u. Taking
rtilde from the quadrature makes the telescoping balance identity a
genuine test instead of a tautology.

``curvature_table`` walks a run's steps once, as the runner takes them
(a ``StepStream``) or from a log, and every consumer (balance report,
metrics CSV, balance scatter, the noisy balance, the per-run theorems of
``verify``) reads its per-step rows. Each row holds both
averages by quadrature, both by the exact routes, the step's two-step
terms and, when asked, where the step attains its averages. The table
integrates each step's profile with the embedded G4/K9 Gauss-Kronrod
pair, a fixed table of nodes and weights (``K9_NODES``, ``K9_WEIGHTS``,
``G4_WEIGHTS``), bisecting intervals until both averages settle; each
row records how many nodes it took, and steps that exhaust the interval
budget are listed as unsettled. With localization, the process that
computed a row hands the step's profile operator and the profile values
at the K9 nodes of its final intervals to ``localize``, which brackets
each average from those values; the table keeps the points found, not
the nodes.

Curvature values carry inverse-step-size units (they are compared
against the threshold 2/eta).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._procmap import OrderedMap, cpu_count
from .loss_models import LossModel
from .numerics import (BracketError, EvaluationError, NonConvergenceError,
                       brent_root, dense_eigvalsh,
                       lambda_max_iter, uniform_rule)
from .trajectory import StepStream, StochasticTrajectoryLog, TrajectoryLog, write_csv

__all__ = [
    "DEGENERATE_STEP",
    "LocalizationError",
    "CurvatureTable",
    "LocalizationRecord",
    "WindowMass",
    "EdgeBalanceReport",
    "SgdBalanceReport",
    "curvature_table",
    "localize",
    "localized_sharpness",
    "edge_balance_report",
    "running_balance",
    "sgd_balance_report",
    "eos_onset",
    "write_metrics_csv",
]

Array = NDArray[np.float64]

# Steps shorter than this are degenerate: the unit direction (and any
# curvature along it) is numerically meaningless.
DEGENERATE_STEP = 1e-14


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

# ``localize`` takes a step's profile for constant when its known values
# span at most this much.
CONSTANT_PROFILE_TOL = 1e-10

# ``curvature_table`` submits its steps to its processes in chunks of at
# most this many consecutive non-degenerate steps, and a run of at most
# this many steps forks nothing.
_CHUNK_STEPS = 32
# A chunk also holds at most as many steps as fit their (w_k, d_k), 16 dim
# bytes a step, in this many bytes (at least one step), so the chunks the
# table reads ahead hold a bounded number of bytes at any dim: 32 steps up
# to dim 2,048 (273 kB at the README MLP's 533), 3 steps at dim 20,490.
# A worker keeps the heap it freed (``_procmap._start``), up to 256 MiB: its
# peak RSS was 53.0 MiB on a dim-20,490 run and 29.8 MiB on the README MLP.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class CurvatureTable:
    """The run's one per-step table: both segment curvatures of every
    non-degenerate step, by quadrature and by the exact routes, and the
    trajectory's two-step terms there.

    Row i describes trajectory step ``k[i]``, with increment d_k and
    weight ``step_norm_sq`` ||d_k||^2; degenerate steps have no row and
    are listed in ``skipped``. ``rbar`` and ``rtilde`` integrate the
    step's curvature profile; ``nodes[i]`` counts the profile values the
    row's quadrature took, and ``unsettled`` lists the steps whose
    quadrature hit the interval budget before it settled.

    ``rbar_exact`` is d_k^T (g_{k+1} - g_k) / ||d_k||^2, exact by the
    fundamental theorem of calculus, ``delta_L`` is the loss change
    L_{k+1} - L_k, and ``rtilde_exact`` is
    2 (delta_L + ||d_k||^2 / eta) / ||d_k||^2, the GD loss change
    L_{k+1} - L_k = -||d_k||^2 / eta + (1/2) d_k^T Htilde d_k rearranged.
    ``rbar_bound`` and ``rtilde_bound`` bound how far each average may
    lie from its exact route: the row's summed |K9 - G4| estimate plus
    the rounding of the exact route (``_route_rounding``).
    ``proxy`` is the trajectory-only loss-change proxy
    -d_k . (d_k + d_{k+1}) / (2 eta), exact on quadratics, and
    ``two_step_norm`` is ||w_{k+2} - w_k|| = ||d_k + d_{k+1}||; these two
    are NaN at the last step, which has no d_{k+1}. On a
    ``StochasticTrajectoryLog`` d_k is
    the noisy step, for which the GD relation behind ``rtilde_exact`` and
    ``proxy`` does not hold, so neither is the step's value there.
    ``np.sqrt(step_norm_sq)`` is ||d_k|| bitwise: in binary floating
    point the rounded square root of a rounded square is its argument.

    A table built with ``localize`` holds where each step attains its
    averages, found by ``localize`` from the profile values at the nodes
    of the row's final quadrature intervals, of which the row's rbar and
    rtilde are combinations with positive coefficients summing to 1:
    ``xi`` where the profile equals rtilde,
    ``zeta`` where it equals rbar, ``q_xi`` the profile value at xi, and
    ``lambda_max_xi`` the largest Hessian eigenvalue there
    (``localized_sharpness``). These four are NaN in every row of a table
    built without it, and in a row whose localization failed;
    ``localization_errors`` maps each such step k to the exception its
    localization raised, in step order.
    """

    k: NDArray[np.int64]
    step_norm_sq: Array
    rbar: Array
    rtilde: Array
    rbar_exact: Array
    rtilde_exact: Array
    rbar_bound: Array
    rtilde_bound: Array
    delta_L: Array
    proxy: Array
    two_step_norm: Array
    xi: Array
    zeta: Array
    q_xi: Array
    lambda_max_xi: Array
    localization_errors: dict[int, Exception]
    nodes: NDArray[np.int64]
    skipped: list[int]
    unsettled: list[int]


@dataclass(frozen=True)
class LocalizationRecord:
    """Interior point where a segment-averaged curvature is attained."""

    k: int
    point: float          # xi (for rtilde) or zeta (for rbar), in (0, 1)
    target: float
    q_at_point: float
    constant_profile: bool


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
    """(rbar, rtilde, their error estimates, profile nodes, settled,
    profile operator, final nodes, their values) of one step.

    The profile is integrated by the embedded G4/K9 pair: rbar = sum w_i q_i
    and rtilde = sum 2 (1 - tau_i) w_i q_i from the K9 values, and
    |K9 - G4| on each interval as the error estimate, summed over the
    final intervals for each average. The step settles
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
            return (rbar, rtilde, e_bar, e_tilde, nodes, settled, profile,
                    np.concatenate(taus), np.concatenate(qs))
        i = int(np.argmax([max(p[4] / tol_bar, p[5] / tol_tilde) for p in parts]))
        a, h = parts[i][:2]
        parts[i:i + 1] = _intervals(profile, [(a, h / 2.0), (a + h / 2.0, h / 2.0)])


def _localized(model: LossModel, k: int, w: Array, d: Array, rbar: float,
               rtilde: float, profile, taus: Array, qs: Array) -> tuple:
    """(xi, zeta, q(xi), lambda_max(xi), profile nodes, Lanczos products,
    None) of step k from w along d, localized on its quadrature's
    ``profile`` operator from the values ``qs`` at its final nodes
    ``taus``; where the localization raises, the four points are NaN and
    the last entry is the exception. A Brent or Lanczos iteration that
    does not converge is a NonConvergenceError naming the step, a
    non-finite profile value or an invalid bracket in Brent's method an
    EvaluationError or BracketError naming the step, and a target the
    nodes do not bracket a LocalizationError."""
    work = Counter()
    points, failure = (math.nan,) * 4, None
    try:
        rec_t, rec_b = localize(profile, k, (rtilde, rbar), taus, qs, work=work)
        points = (rec_t.point, rec_b.point, rec_t.q_at_point,
                  localized_sharpness(model, w, d, rec_t, work))
    except LocalizationError as exc:
        failure = exc
    except NonConvergenceError as exc:
        failure = NonConvergenceError(f"localization of step {k}: {exc}", exc.history)
    except (EvaluationError, BracketError) as exc:
        failure = type(exc)(f"localization of step {k}: {exc}")
    return (*points, work["localization_profile_nodes"], work["lanczos_products"],
            failure)


def _row(model: LossModel, localized: bool, item: tuple) -> tuple:
    """(rbar, rtilde, their error estimates, profile nodes, settled) of the
    non-degenerate step ``item`` = (k, w_k, d_k), followed, when
    ``localized``, by the step's
    ``_localized`` entries, from the profile operator and final nodes of
    its quadrature. A non-finite profile value of the quadrature raises
    EvaluationError naming the step."""
    k, w, d = item
    try:
        *quadrature, profile, taus, qs = _segment_averages(model, w, d)
    except EvaluationError as exc:
        raise EvaluationError(f"curvature table, step {k}: {exc}") from exc
    if not localized:
        return tuple(quadrature)
    return (*quadrature, *_localized(model, k, w, d, *quadrature[:2], profile, taus, qs))


def _route_rounding(eta: float, rbar_exact: float, nsq: float, losses,
                    w_norms, g_norms) -> tuple[float, float]:
    """Rounding terms (for rbar, for rtilde) of a step's exact routes, from
    rbar_exact, ||d_k||^2 and the losses, iterate norms and gradient norms
    at w_k and w_{k+1}.

    The quadrature integrates the profile along the segment from w_k to
    w_k + d_k; the exact routes difference gradients and losses evaluated
    at the stored iterates. With eps the machine epsilon and rho a scale
    of the Hessian near the step, the two differ by rounding in three
    ways:

    - The stored w_{k+1} = fl(w_k + d_k) lies within eps/2 ||w_{k+1}|| of
      the segment's end, which moves g_{k+1} by up to rho eps/2 ||w_{k+1}||
      and L_{k+1} by ||g_{k+1}|| eps/2 ||w_{k+1}||, to first order.
    - A backward-stable evaluation at w returns the exact value at a point
      within a few eps ||w|| of w, rounded to a few eps of its size: the
      gradient is off by about eps (||g|| + rho ||w||) and the loss by
      about eps (|L| + ||g|| ||w||). Near a minimum ||g|| and |L| are
      small, but the iterate is not, so there the ||w|| terms dominate.
    - The averages, and the 2/eta in rtilde_exact, are rounded to eps of
      their size, rho.

    rbar_exact divides d_k^T (g_{k+1} - g_k) by ||d_k||^2, so a gradient
    error e adds at most ||e|| / ||d_k||; rtilde_exact divides
    2 (L_{k+1} - L_k) by ||d_k||^2. With rho = max(|rbar_exact|, 2/eta),
    the Hessian's average along the step or the sharpness's scale at the
    edge of stability, and c = 4 for the few ulps of each evaluation:

        rbar:   c eps (rho + (||g_k|| + ||g_{k+1}||
                              + rho (||w_k|| + ||w_{k+1}||)) / ||d_k||)
        rtilde: c eps (rho + 2 (|L_k| + |L_{k+1}| + ||g_k|| ||w_k||
                                + ||g_{k+1}|| ||w_{k+1}||) / ||d_k||^2)

    Like |K9 - G4|, these estimate the error's size; they are no rigorous
    bound, since rho is a scale and not the Hessian's norm.
    """
    rho = max(abs(rbar_exact), 2.0 / eta)
    ulps = 4.0 * float(np.finfo(float).eps)
    (w0, w1), (g0, g1) = w_norms, g_norms
    return (ulps * (rho + (g0 + g1 + rho * (w0 + w1)) / math.sqrt(nsq)),
            ulps * (rho + 2.0 * (abs(losses[0]) + abs(losses[1])
                                 + g0 * w0 + g1 * w1) / nsq))


def curvature_table(model: LossModel, run: TrajectoryLog | StepStream,
                    work: Counter | None = None,
                    *, localize: bool = False,
                    workers: int | None = None) -> CurvatureTable:
    """Per-step table of a run, in one pass over its steps.

    ``run`` is a ``StepStream``, whose steps the table reads as the
    runner takes them, or a log, which supplies the same steps from its
    rows. The walk holds two consecutive steps at a time: from step k
    and step k + 1 it takes the norm of d_k the step carries, the exact
    routes, their rounding terms (``_route_rounding``, from the norms of
    both iterates and gradients) and the two-step terms. Each step's
    directional curvature profile is integrated adaptively
    (``_segment_averages``), and the route bounds add the row's error
    estimates to the rounding terms. Degenerate steps are skipped; their contribution to every weighted
    sum is below the rounding floor by construction. With ``localize``,
    each step is then localized (``localize``, ``localized_sharpness``)
    in the process that integrated it, on the profile operator of its
    quadrature and from the profile values at the nodes of its final
    intervals, filling ``xi``, ``zeta``, ``q_xi`` and ``lambda_max_xi``;
    a step whose localization fails gets NaN there and its exception in
    ``localization_errors``.

    The rows are computed in up to ``workers`` processes, by default one
    per CPU this process may run on, which take chunks of consecutive
    steps as they free up (``OrderedMap``), each chunk's (k, w_k, d_k)
    pickled along; a run of at most _CHUNK_STEPS steps forks nothing. A
    chunk holds at most _CHUNK_STEPS steps, at most a quarter of each
    process's share of the run's ``max_steps``, so the last round of
    chunks leaves no process long idle, and at most the steps whose
    (w_k, d_k) fit in _CHUNK_BYTES, so the chunks read ahead of the
    rows, twice the processes' count, hold a bounded number of bytes at
    any dim. The table is the same for any count, as long as this
    process too runs BLAS on one thread, as the workers do.
    ``work["curvature_table_workers"]`` becomes the largest number of
    processes a table has used; with ``localize``, the profile
    nodes localization evaluated beyond the table's and the Lanczos
    products of its sharpness estimates are added to
    ``work["localization_profile_nodes"]`` and ``work["lanczos_products"]``.
    A non-finite profile value of the quadrature raises EvaluationError
    naming the step.
    """
    eta, K = run.eta, run.max_steps
    workers = 1 if K <= _CHUNK_STEPS else (workers or cpu_count())
    chunk = min(_CHUNK_STEPS, -(-K // (4 * workers)),
                max(1, _CHUNK_BYTES // (16 * run.dim)))
    ks, skipped = [], []
    # Column i holds row i's step_norm_sq, rbar_exact, rtilde_exact, their
    # rounding terms, delta_L and two two-step terms, which are NaN at the
    # last step. A column is written as its row is made, so a run that ends
    # early touches no more of the buffer than its rows.
    cols = np.empty((8, K))

    def steps():
        """(k, w_k, d_k) of each non-degenerate step, its columns filled."""
        held = ((s, float(np.linalg.norm(s.w)), float(np.linalg.norm(s.grad)))
                for s in run)
        for (s, w_norm, g_norm), (s_next, w_norm_next, g_norm_next) in \
                itertools.pairwise(held):
            d, d_next = s.d, s_next.d
            if s.norm < DEGENERATE_STEP:
                skipped.append(s.k)
                continue
            nsq = s.norm ** 2
            delta_l = float(s_next.loss - s.loss)
            rbar_exact = float(d @ (s_next.grad - s.grad)) / nsq
            col = cols[:, len(ks)]
            col[:6] = (nsq, rbar_exact, 2.0 * (delta_l + nsq / eta) / nsq,
                       *_route_rounding(eta, rbar_exact, nsq, (s.loss, s_next.loss),
                                        (w_norm, w_norm_next), (g_norm, g_norm_next)),
                       delta_l)
            col[6:] = math.nan
            if d_next is not None:
                two_step = d + d_next
                col[6:] = (-float(d @ two_step) / (2.0 * eta),
                           float(np.linalg.norm(two_step)))
            ks.append(s.k)
            yield s.k, s.w, d

    with OrderedMap(functools.partial(_row, model, localize), steps(), chunk,
                    workers, count=K) as rows:
        columns = list(zip(*rows)) or [()] * (13 if localize else 6)
    rbars, rtildes, e_bars, e_tildes, nodes, settled = columns[:6]
    # Rows of a table built without localization hold only their
    # quadrature entries: NaN points, no work and no failure.
    *points, loc_nodes, products, failures = (
        columns[6:] or [(math.nan,) * len(ks)] * 4 + [(), (), ()])
    if work is not None:
        work["curvature_table_workers"] = max(work["curvature_table_workers"],
                                              rows.processes)
        if localize:
            work["localization_profile_nodes"] += sum(loc_nodes)
            work["lanczos_products"] += sum(products)
    norms_sq, rbar_exact, rtilde_exact, rbar_round, rtilde_round, *rest = \
        cols[:, :len(ks)]
    return CurvatureTable(np.array(ks, dtype=np.int64), norms_sq,
                          np.array(rbars), np.array(rtildes), rbar_exact, rtilde_exact,
                          rbar_round + np.array(e_bars, dtype=np.float64),
                          rtilde_round + np.array(e_tildes, dtype=np.float64), *rest,
                          *(np.array(col, dtype=np.float64) for col in points),
                          {k: exc for k, exc in zip(ks, failures) if exc is not None},
                          np.array(nodes, dtype=np.int64), skipped,
                          [k for k, ok in zip(ks, settled) if not ok])


def localize(profile, k: int, targets, taus: Array, qs: Array,
             work: Counter | None = None) -> list[LocalizationRecord]:
    """Interior points of step k where its profile attains each target.

    ``profile`` is the step's ``segment_profile`` operator, and ``qs``
    its values at the ascending interior nodes ``taus``: in
    ``curvature_table``, the K9 nodes of the final intervals of the
    step's quadrature. Each target is an average of the step (its rtilde
    and/or rbar by that quadrature): a combination of the q_i with
    positive coefficients summing to 1. So q_i - target changes sign
    between two adjacent nodes or vanishes at a node, unless every q_i
    lies within rounding of the target.

    One record is returned per target. If the q_i span at most
    CONSTANT_PROFILE_TOL the profile counts as constant and every target
    gets the conventional midpoint 0.5. Otherwise a target is decided at
    its leftmost event: a node where q equals it exactly, or a sign
    change between adjacent nodes refined by Brent's method, whichever
    lies further left. A target the nodes do not bracket, one that is no
    such average, raises LocalizationError naming the step. ``profile``
    evaluates each further tau once per call; the number it evaluates is
    added to ``work["localization_profile_nodes"]``.
    """
    # Brent re-evaluates its bracket ends and the root is read back:
    # evaluate each tau once per call.
    memo = dict(zip(taus.tolist(), qs.tolist()))
    known = len(memo)

    def q(t: float) -> float:
        if t not in memo:
            memo[t] = float(profile((t,))[0])
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

    if float(qs.max() - qs.min()) <= CONSTANT_PROFILE_TOL:
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
            f"{CONSTANT_PROFILE_TOL:g} of constant")
    return records


def localized_sharpness(model: LossModel, w: Array, d: Array,
                        rec: LocalizationRecord,
                        work: Counter | None = None) -> float:
    """Largest Hessian eigenvalue at the localized interior point
    w + rec.point d of the step from w along d.

    Dense eigenvalues for small models, otherwise Lanczos seeded
    with the step direction (so the estimate is at least the directional
    curvature there) on one ``hvp_at`` operator for the point. The
    directions the operator applies, the symmetry spot-check's two
    included, are added to ``work["lanczos_products"]``.
    """
    w_pt = w + rec.point * d
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


def _forcing_bound(model: LossModel, run: TrajectoryLog | StepStream, E):
    """2/eta - 2 (L_0 - L_inf) / E at step weights E > 0; NaN if L_inf is unknown."""
    if model.inf_value is None:
        return E * float("nan")
    return 2.0 / run.eta - 2.0 * (float(run.losses[0]) - model.inf_value) / E


def edge_balance_report(model: LossModel, run: TrajectoryLog | StepStream,
                        table: CurvatureTable,
                        deltas=None) -> EdgeBalanceReport:
    """Telescoping balance, signed decomposition and window masses.

    Reads rtilde and the step weights ||d_k||^2 from ``table`` (the run's
    ``curvature_table``), which already leaves out degenerate steps, and
    the losses from ``run``, a log or a finished stream.
    """
    eta = run.eta
    thr = 2.0 / eta
    if deltas is None:
        deltas = [0.05 * thr, 0.1 * thr, 0.5 * thr]
    rtildes, weights = table.rtilde, table.step_norm_sq

    E_K = float(weights.sum())
    loss_drop = float(run.losses[0] - run.losses[-1])
    lhs = float(np.sum(weights * (thr - rtildes)))
    identity_residual = abs(lhs - 2.0 * loss_drop)
    weighted_mean = float(np.sum(weights * rtildes) / E_K) if E_K > 0 else float("nan")

    forcing = _forcing_bound(model, run, E_K) if E_K > 0 else float("nan")

    dev = thr - rtildes
    B_minus = float(np.sum(weights * np.clip(dev, 0.0, None)))
    B_plus = float(np.sum(weights * np.clip(-dev, 0.0, None)))

    gap = 2.0 * (float(run.losses[0]) - (model.inf_value if model.inf_value is not None
                                         else float(run.losses[-1])))
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
        eta=eta, K=run.num_steps, E_K=E_K, loss_drop=loss_drop,
        identity_residual=identity_residual, weighted_mean=weighted_mean,
        forcing_bound=forcing, max_rtilde=float(rtildes.max()) if rtildes.size else float("nan"),
        B_minus=B_minus, B_plus=B_plus, windows=windows, table=table)


def running_balance(model: LossModel, run: TrajectoryLog | StepStream,
                    table: CurvatureTable) -> tuple[Array, Array]:
    """Running weighted mean curvature sum w_j rtilde_j / E_i and forcing
    bound 2/eta - 2 (L_0 - L_inf) / E_i at each table row i, E_i summing
    the step weights of rows 0..i; the largest rtilde of those rows is at
    least the bound, which is NaN when ``model.inf_value`` is unknown."""
    cum_w = np.cumsum(table.step_norm_sq)
    running = np.cumsum(table.step_norm_sq * table.rtilde) / cum_w
    return running, _forcing_bound(model, run, cum_w)


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

    rtilde comes from the run's ``curvature_table``, whose rows are the
    non-degenerate steps the propagator residual is taken at. The
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
    for g, eps in zip(log.grads, log.noise):
        cross += float(g @ eps)
        noise_sq += float(eps @ eps)
    max_prop = 0.0
    for k in table.k[table.k + 1 < log.num_steps]:
        s = log.step(k)
        w = log.w(k)
        hbar_s = np.zeros_like(s)
        for wq, tau in zip(u_rule.weights, u_rule.nodes):
            hbar_s = hbar_s + wq * model.hvp(w + tau * s, s)
        resid = log.step(k + 1) - (s - eta * hbar_s) \
            + eta * (log.noise[k + 1] - log.noise[k])
        max_prop = max(max_prop, float(np.linalg.norm(resid)))

    loss_term = 2.0 * float(log.losses[0] - log.losses[-1])
    cross_term = 2.0 * eta * cross
    noise_term = 2.0 * eta * noise_sq
    residual = abs(lhs - (loss_term + cross_term + noise_term))
    return SgdBalanceReport(eta=eta, K=log.num_steps, lhs=lhs,
                            loss_term=loss_term, cross_term=cross_term,
                            noise_term=noise_term, residual=residual,
                            max_propagator_residual=max_prop)


def write_metrics_csv(run: TrajectoryLog | StepStream, table: CurvatureTable,
                      path) -> None:
    """Per-step metrics table, written from the columns of ``table``, the
    run's ``curvature_table``, and the step norms of ``run``, a log or a
    finished stream.

    Columns: k, step_norm_sq, rbar, rtilde, xi, zeta, lambda_max_xi,
    delta_L, proxy, return_ratio, rbar_exact, rtilde_exact. Each
    non-degenerate step's cells are its row of the table: rbar and rtilde
    by quadrature, the localized points xi and zeta and the sharpness
    lambda_max_xi there, rbar_exact and rtilde_exact by the exact routes,
    the loss-change proxy, and the two-step return ratio
    ||w_{k+2} - w_k|| / ||d_k||. Fields that need records beyond the end
    of the run, or the localized points of a table built without
    localization, are left empty. A degenerate step's row holds only k
    and step_norm_sq. If the localization of a step failed, the exception
    of the lowest such step (``CurvatureTable.localization_errors``) is
    raised and nothing is written.
    """
    if table.localization_errors:
        raise next(iter(table.localization_errors.values()))
    header = ["k", "step_norm_sq", "rbar", "rtilde", "xi", "zeta", "lambda_max_xi",
              "delta_L", "proxy", "return_ratio", "rbar_exact", "rtilde_exact"]
    row_of = {int(k): i for i, k in enumerate(table.k)}
    ratios = table.two_step_norm / np.sqrt(table.step_norm_sq)

    def row(k):
        i = row_of.get(k)
        if i is None:
            nd = float(run.step_norms[k])
            return [k, nd * nd] + [None] * (len(header) - 2)
        where = [float(table.xi[i]), float(table.zeta[i]), float(table.lambda_max_xi[i])]
        if math.isnan(where[0]):
            where = [None] * 3
        two_step = [None, None]
        if k + 1 < run.num_steps:
            two_step = [float(table.proxy[i]), float(ratios[i])]
        return [k, float(table.step_norm_sq[i]), float(table.rbar[i]),
                float(table.rtilde[i]), *where, float(table.delta_L[i]), *two_step,
                float(table.rbar_exact[i]), float(table.rtilde_exact[i])]
    write_csv(path, header, map(row, range(run.num_steps)))
