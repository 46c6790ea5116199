"""Stability mechanisms and the discrete two-trajectory strain framework.

Covers the oscillatory cancellation bound inside the stability window,
the excursion measure of a step matrix beyond [0, 2/eta], the norm of a
propagator product with its exponential bound, and the strain/stress
recurrence for a pair of runs on two objectives.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from ._procmap import OrderedMap
from .loss_models import LossModel
from .numerics import QuadratureRule, dense_eigvalsh, uniform_rule
from .trajectory import PairedLog, write_csv

__all__ = [
    "StrainLog",
    "oscillatory_bound",
    "excursion_kappa",
    "propagator_norm",
    "strain_run",
    "strain_bound_rhs",
    "write_strain_csv",
]

Array = NDArray[np.float64]

# A step's strain quadrature settles once its recurrence residual, which is
# exactly the quadrature's error eta ||(A_k - Abar_k) delta_k||, is at most
# STRAIN_RTOL * max(1, ||delta_k||); the residual's rounding floor on the
# benchmark's dim-92 MLP is 3e-16..7e-16. Until then its Gauss-Legendre
# order doubles, while below STRAIN_MAX_ORDER.
STRAIN_RTOL = 1e-10
STRAIN_MAX_ORDER = 64

# ``strain_run`` submits its steps to its processes in chunks of this many
# consecutive steps. Each A_k is pickled back to the caller, so a chunk's
# results hold dim^2 * 8 bytes per step; a short chunk keeps the results
# waiting for an earlier chunk, and so the caller's memory, small.
_CHUNK_STEPS = 4


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
    propagated[k] the variation-of-constants strain
    -eta sum_{s<k} (I - eta A_{k-1}) ... (I - eta A_{s+1}) f_s, and
    unsettled the steps whose residual stayed above the tolerance.
    """

    eta: float
    delta: Array                  # (K+1, dim)
    stress: Array                 # (K, dim)
    propagated: Array             # (K+1, dim)
    kappa: Array                  # (K,)
    residual: Array               # (K,)
    unsettled: list[int] = field(default_factory=list)

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


def strain_run(pair: PairedLog, model_s: LossModel, order: int = 4,
               work: Counter | None = None, *, workers: int | None = None) -> StrainLog:
    """Assemble the strain/stress/excursion log of a paired run.

    A_k is the Gauss-Legendre quadrature of the first objective's Hessian
    along the segment from w'_k to w_k, from ``order`` nodes; the order
    doubles, up to STRAIN_MAX_ORDER, while the step's residual is above
    the tolerance (``STRAIN_RTOL``), and a step still above it is listed
    in ``unsettled``.

    Each step's stress f_k, A_k, kappa and residual depend on that step
    alone, so they are computed in up to ``workers`` processes, by default
    one per CPU this process may run on, which take chunks of _CHUNK_STEPS
    consecutive steps as they free up (``OrderedMap``) and pickle their
    results back. This process consumes them in k order and holds each
    A_k only while it advances the propagated strain z_0 = 0,
    z_{k+1} = (I - eta A_k) z_k - eta f_k, so the log is the same for any
    count, as long as this process too runs BLAS on one thread.
    ``work["strain_workers"]`` becomes the largest number of
    processes a run has used, and ``work["strain_dense_hessians"]`` adds
    the dense Hessians of every process.
    """
    K = pair.num_steps
    eta = pair.log_s.eta
    dim = pair.log_s.dim
    w_sp = pair.log_sp.w_stored

    delta = pair.log_s.w_stored[:K + 1] - w_sp[:K + 1]
    stress = np.zeros((K, dim))
    z = np.zeros((K + 1, dim))
    kappa = np.zeros(K)
    residual = np.zeros(K)
    unsettled, hessians = [], 0

    def step(k: int) -> tuple[Array, Array, float, float, bool, int]:
        f = model_s.gradient(w_sp[k]) - pair.log_sp.grads[k]
        tol = STRAIN_RTOL * max(1.0, float(np.linalg.norm(delta[k])))
        n, count = order, 0
        while True:
            A = _segment_hessian(model_s, w_sp[k], delta[k], uniform_rule(n))
            count += n
            predicted = delta[k] - eta * (A @ delta[k]) - eta * f
            r = float(np.linalg.norm(delta[k + 1] - predicted))
            if r <= tol or n >= STRAIN_MAX_ORDER:
                return A, f, excursion_kappa(A, eta), r, r <= tol, count
            n *= 2

    with OrderedMap(step, range(K), _CHUNK_STEPS, workers) as steps:
        for k, (A, f, excursion, r, settled, count) in enumerate(steps):
            stress[k], kappa[k], residual[k] = f, excursion, r
            if not settled:
                unsettled.append(k)
            hessians += count
            z[k + 1] = z[k] - eta * (A @ z[k]) - eta * f
    if work is not None:
        work["strain_workers"] = max(work["strain_workers"], steps.processes)
        work["strain_dense_hessians"] += hessians
    return StrainLog(eta=eta, delta=delta, stress=stress, propagated=z,
                     kappa=kappa, residual=residual, unsettled=unsettled)


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


def write_strain_csv(strain: StrainLog, path) -> None:
    """Columns k, strain_norm, stress_norm, kappa, recurrence_residual, bound_rhs."""
    bound = strain_bound_rhs(strain)
    rows = [[k, np.linalg.norm(strain.delta[k]), np.linalg.norm(strain.stress[k]),
             strain.kappa[k], strain.residual[k], bound[k]]
            for k in range(strain.num_steps)]
    write_csv(path, ["k", "strain_norm", "stress_norm", "kappa",
                     "recurrence_residual", "bound_rhs"], rows)
