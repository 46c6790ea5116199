"""Stability mechanisms and the discrete two-trajectory strain framework.

Covers the step-recoil identity above the threshold, the oscillatory
cancellation bound inside the stability window, the excursion measure
of a step matrix beyond [0, 2/eta], the norm of a propagator product
with its exponential bound, and the strain/stress recurrence for a
pair of runs on two objectives.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._procmap import OrderedMap
from .edge_metrics import DEGENERATE_STEP, step_mean_curvature_exact
from .loss_models import LossModel
from .numerics import QuadratureRule, dense_eigvalsh, uniform_rule
from .trajectory import PairedLog, TrajectoryLog, write_csv

__all__ = [
    "StrainLog",
    "recoil_check",
    "oscillatory_bound",
    "excursion_kappa",
    "propagator_norm",
    "strain_run",
    "strain_bound_rhs",
    "supercritical_run_lengths",
    "write_strain_csv",
]

Array = NDArray[np.float64]

# Adaptive strain quadrature: the order doubles until successive segment
# Hessians agree to this relative tolerance.
ADAPT_TOL = 1e-10

# ``strain_run`` deals its steps to its processes in chunks of this many
# consecutive steps. Each A_k crosses a pipe, so a chunk holds dim^2 * 8
# bytes per step; a short chunk keeps the results waiting for an earlier
# chunk, and so the caller's memory, small.
_CHUNK_STEPS = 4


def recoil_check(log: TrajectoryLog, k: int) -> tuple[float, float, float]:
    """(inner, predicted, growth) for consecutive steps k, k+1.

    inner = <d_{k+1}, d_k>, predicted = (1 - eta*rbar_k) ||d_k||^2 with
    the exact gradient-difference curvature, growth = ||d_{k+1}||/||d_k||.
    The two first entries agree identically; above the threshold the
    growth factor is at least 1 + eta*(rbar - 2/eta). A degenerate step k
    raises ``DegenerateStepError``.
    """
    if k + 1 >= log.num_steps:
        raise IndexError("recoil_check needs steps k and k+1")
    d0, d1 = log.step(k), log.step(k + 1)
    rbar = step_mean_curvature_exact(log, k)
    nd0 = float(np.linalg.norm(d0))
    inner = float(d1 @ d0)
    predicted = (1.0 - log.eta * rbar) * nd0 ** 2
    growth = float(np.linalg.norm(d1)) / nd0
    return inner, predicted, growth


def oscillatory_bound(m_seq, u_seq, eta: float) -> tuple[float, float]:
    """Simulate x_{k+1} = m_k x_k - eta u_k from x_0 = 0 and its bound.

    Requires every multiplier in [-1, 0]. Returns (|x_T|, bound) with
    bound = eta (|u_{T-1}| + sum |u_{k+1} - u_k|): the final forcing
    value plus the total variation, so alternation cancels rather than
    accumulates.
    """
    m = np.asarray(m_seq, dtype=float)
    u = np.asarray(u_seq, dtype=float)
    if m.shape != u.shape or m.ndim != 1 or m.size < 1:
        raise ValueError("m_seq and u_seq must be 1-d of equal length >= 1")
    if np.any(m < -1.0) or np.any(m > 0.0):
        raise ValueError("multipliers must lie in [-1, 0]")
    x = 0.0
    for mk, uk in zip(m, u):
        x = mk * x - eta * uk
    bound = eta * (abs(u[-1]) + float(np.sum(np.abs(np.diff(u)))))
    return abs(x), bound


def excursion_kappa(A: Array, eta: float) -> float:
    """Distance of the spectrum of A outside the stability window [0, 2/eta].

    kappa = max{0, eta*lambda_max - 2, -eta*lambda_min}; zero exactly
    when the one-step map I - eta*A is a contraction.
    """
    evals = dense_eigvalsh(A)
    return max(0.0, eta * float(evals[-1]) - 2.0, -eta * float(evals[0]))


@dataclass
class StrainLog:
    """Per-step records of the two-trajectory strain recurrence.

    delta[k] = w_k - w'_k is the logged strain, stress[k] the gradient
    mismatch at the reference trajectory, kappa[k] the excursion of the
    segment-averaged Hessian A_k of the first objective, residual[k] the
    recurrence mismatch ||delta_{k+1} - (I - eta A_k) delta_k + eta f_k||,
    and propagated[k] the variation-of-constants strain
    -eta sum_{s<k} (I - eta A_{k-1}) ... (I - eta A_{s+1}) f_s.
    """

    eta: float
    delta: Array                  # (K+1, dim)
    stress: Array                 # (K, dim)
    propagated: Array             # (K+1, dim)
    kappa: Array                  # (K,)
    residual: Array               # (K,)

    @property
    def num_steps(self) -> int:
        return self.stress.shape[0]


def _segment_hessian(model: LossModel, base: Array, delta: Array,
                     rule: QuadratureRule) -> Array:
    dim = model.dim
    A = np.zeros((dim, dim))
    for w, tau in zip(rule.weights, rule.nodes):
        A += w * model.hessian_dense(base + tau * delta)
    return A


def _step_matrix(model: LossModel, base: Array, delta: Array,
                 rule: QuadratureRule, adaptive: bool) -> tuple[Array, int]:
    """(A, the dense Hessians it took): the segment Hessian from ``base``
    along ``delta`` by ``rule``, with ``adaptive`` at doubled orders until
    two successive ones agree."""
    order, A = rule.order, _segment_hessian(model, base, delta, rule)
    hessians = len(rule.nodes)
    while adaptive and order < 64:
        order *= 2
        A, prev = _segment_hessian(model, base, delta, uniform_rule(order)), A
        hessians += order
        if float(np.max(np.abs(A - prev))) <= ADAPT_TOL * max(1.0, float(np.max(np.abs(A)))):
            break
    return A, hessians


def strain_run(pair: PairedLog, model_s: LossModel,
               rule: QuadratureRule | None = None,
               adaptive: bool = False, work: Counter | None = None,
               *, workers: int | None = None) -> StrainLog:
    """Assemble the strain/stress/excursion log of a paired run.

    A_k is the uniform quadrature of the first objective's Hessian along
    the segment from w'_k to w_k. With ``adaptive`` the order doubles
    until A_k stabilizes (for non-polynomial objectives).

    Each A_k depends on its step alone, so the A_k are computed in up to
    ``workers`` processes, by default one per CPU this process may run
    on, which take chunks of _CHUNK_STEPS consecutive steps on demand
    (``OrderedMap``). This process consumes them in k order and holds
    each only while its step is processed: kappa, the residual and the
    propagated strain z_0 = 0, z_{k+1} = (I - eta A_k) z_k - eta f_k
    follow in the same pass, so the log is the same for any count.
    ``work["strain_workers"]`` becomes the largest number of processes a
    run has used, and ``work["strain_dense_hessians"]`` adds the dense
    Hessians of every process.
    """
    if rule is None:
        rule = uniform_rule()
    K = pair.num_steps
    eta = pair.log_s.eta
    dim = pair.log_s.dim

    delta = pair.log_s.w_stored[:K + 1] - pair.log_sp.w_stored[:K + 1]
    stress = np.zeros((K, dim))
    z = np.zeros((K + 1, dim))
    kappa = np.zeros(K)
    residual = np.zeros(K)
    hessians = 0

    def step_matrix(k: int) -> tuple[Array, int]:
        return _step_matrix(model_s, pair.log_sp.w_stored[k], delta[k], rule, adaptive)

    with OrderedMap(step_matrix, range(K), _CHUNK_STEPS, workers) as matrices:
        for k, (A, count) in enumerate(matrices):
            hessians += count
            stress[k] = model_s.gradient(pair.log_sp.w_stored[k]) - pair.log_sp.grads[k]
            kappa[k] = excursion_kappa(A, eta)
            predicted = delta[k] - eta * (A @ delta[k]) - eta * stress[k]
            residual[k] = float(np.linalg.norm(delta[k + 1] - predicted))
            z[k + 1] = z[k] - eta * (A @ z[k]) - eta * stress[k]
    if work is not None:
        work["strain_workers"] = max(work["strain_workers"], matrices.processes)
        work["strain_dense_hessians"] += hessians
    return StrainLog(eta=eta, delta=delta, stress=stress, propagated=z,
                     kappa=kappa, residual=residual)


def propagator_norm(T: Array) -> float:
    """Operator norm via the dense spectrum of T^T T."""
    evals = dense_eigvalsh(T.T @ T)
    return math.sqrt(max(float(evals[-1]), 0.0))


def strain_bound_rhs(strain: StrainLog) -> Array:
    """Exponential-excursion bounds eta sum_{s<k} exp(sum_{s<r<k} kappa_r) ||f_s||.

    Returns the K+1 values k = 0..K from the recurrence
    B(k+1) = exp(kappa_k) B(k) + ||f_k||, B(0) = 0, in one pass.
    """
    B = np.zeros(strain.num_steps + 1)
    for k in range(strain.num_steps):
        B[k + 1] = math.exp(strain.kappa[k]) * B[k] + float(np.linalg.norm(strain.stress[k]))
    return strain.eta * B


def supercritical_run_lengths(log: TrajectoryLog) -> list[tuple[int, int, int]]:
    """Maximal above-threshold runs with their geometric-growth length caps.

    Returns (start, length, cap) per maximal run of steps with
    rbar_k > 2/eta; cap is ceil(log(dmax/dmin) / log(1 + eta*delta))
    for the run's smallest threshold excess delta. On a bounded run the
    observed length can never exceed the cap.
    """
    thr = 2.0 / log.eta
    K = log.num_steps
    norms = np.array([np.linalg.norm(log.step(k)) for k in range(K)])
    usable = norms >= DEGENERATE_STEP
    if not np.any(usable):
        return []
    dmax, dmin = float(norms[usable].max()), float(norms[usable].min())
    out = []
    k = 0
    while k < K:
        if usable[k] and step_mean_curvature_exact(log, k) > thr:
            start = k
            excess = []
            while k < K and usable[k]:
                e = step_mean_curvature_exact(log, k) - thr
                if e <= 0:
                    break
                excess.append(e)
                k += 1
            delta = min(excess)
            cap = math.ceil(math.log(dmax / dmin) / math.log1p(log.eta * delta)) \
                if delta > 0 and dmax > dmin else len(excess)
            out.append((start, len(excess), max(cap, 1)))
        else:
            k += 1
    return out


def write_strain_csv(strain: StrainLog, path) -> None:
    """Columns k, strain_norm, stress_norm, kappa, recurrence_residual, bound_rhs."""
    bound = strain_bound_rhs(strain)
    rows = [[k, np.linalg.norm(strain.delta[k]), np.linalg.norm(strain.stress[k]),
             strain.kappa[k], strain.residual[k], bound[k]]
            for k in range(strain.num_steps)]
    write_csv(path, ["k", "strain_norm", "stress_norm", "kappa",
                     "recurrence_residual", "bound_rhs"], rows)
