"""Gradient-descent runners and per-step trajectory logs.

Deterministic full-batch GD, noisy SGD (Gaussian or mini-batch residual
noise), and synchronized two-objective pairs. Logs keep every iterate,
loss and gradient (and the SGD noise) densely; a step increment is not
stored but derived from its logged gradient by the runner's own
expression, so it is the increment the runner applied, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .loss_models import LossModel, MlpModel
from .numerics import MACHINE_EPS

__all__ = [
    "TrajectoryLog",
    "StochasticTrajectoryLog",
    "PairedLog",
    "NoiseSource",
    "run_gd",
    "run_sgd",
    "run_pair_gd",
    "write_csv",
    "write_trajectory_csv",
    "run_summary",
]

Array = NDArray[np.float64]

# Runs abort (partial log, diverged flag) past these magnitudes.
LOSS_DIVERGENCE = 1e12
ITERATE_DIVERGENCE = 1e8


@dataclass
class TrajectoryLog:
    """Complete per-step record of a gradient-descent run.

    Iterates (``w_stored``), losses and gradients are stored for every
    step 0..K. ``step(k)`` is the increment the runner applied,
    w_{k+1} = w_k + step(k) bitwise, derived from ``grads[k]``.
    """

    eta: float
    model_id: str
    losses: Array
    grads: Array
    w_stored: Array
    diverged: bool = False
    divergence_step: int | None = None

    @property
    def num_steps(self) -> int:
        return self.w_stored.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.grads.shape[1]

    def w(self, k: int) -> Array:
        if not 0 <= k <= self.num_steps:
            raise IndexError(f"step {k} outside 0..{self.num_steps}")
        return self.w_stored[k].copy()

    def _check_step(self, k: int) -> None:
        if not 0 <= k < self.num_steps:
            raise IndexError(f"step {k} outside 0..{self.num_steps - 1}")

    def step(self, k: int) -> Array:
        """Increment of step k, -eta grad_k, a new array."""
        self._check_step(k)
        return -self.eta * self.grads[k]


@dataclass
class StochasticTrajectoryLog(TrajectoryLog):
    """Trajectory log with the per-step gradient noise recorded exactly."""

    noise: Array = field(default_factory=lambda: np.zeros((0, 0)))

    def step(self, k: int) -> Array:
        """Increment of step k, -eta (grad_k + eps_k), a new array."""
        self._check_step(k)
        return -self.eta * (self.grads[k] + self.noise[k])


@dataclass
class PairedLog:
    """Two synchronized runs (shared step size and initialization)."""

    log_s: TrajectoryLog
    log_sp: TrajectoryLog

    def __post_init__(self):
        if self.log_s.eta != self.log_sp.eta:
            raise ValueError("paired runs must share the step size")
        if not np.array_equal(self.log_s.w(0), self.log_sp.w(0)):
            raise ValueError("paired runs must share the initial point")

    @property
    def num_steps(self) -> int:
        return min(self.log_s.num_steps, self.log_sp.num_steps)


def _row_norms(W: Array) -> Array:
    """Norm of each row of ``W``, from the 1-D ``dot`` that
    ``np.linalg.norm`` takes for a single point, so a row's norm does not
    depend on its stack."""
    return np.sqrt([w.dot(w) for w in W])


def _norm_free_bound(dim: int) -> float:
    """A bound on |entries| below which no row of length ``dim`` (at least
    1) has a computed norm past ``ITERATE_DIVERGENCE``.

    With u = MACHINE_EPS / 2 and M the largest |entry| of a row, the row's dot is
    at most (1 + gamma_dim) dim M^2, gamma_dim = dim u / (1 - dim u), in
    any order of summation (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1), and the correctly rounded sqrt
    adds a factor (1 + u). The bound C (1 - (dim + 5) u) / sqrt(dim),
    C = ITERATE_DIVERGENCE, is formed exactly up to its product, its
    sqrt and its division, three roundings that put it at most a factor
    (1 + u)^2 / (1 - u) above its exact value. So M below it gives a
    norm below C (1 - (dim + 5) u) (1 + u)^3 (1 + gamma_dim)^(1/2) / (1 - u),
    which is at most C while dim u <= 1/100: there the factor
    (1 + u)^3 (1 + gamma_dim)^(1/2) / (1 - u) is at most
    1 + (0.51 dim + 4.01) u, less than 1 / (1 - (dim + 5) u).
    """
    return ITERATE_DIVERGENCE * (1.0 - (dim + 5) * MACHINE_EPS / 2.0) / math.sqrt(dim)


def _diverged(losses: Array, W: Array) -> Array:
    """Which rows of the iterate stack ``W``, at their ``losses``, are past
    the divergence limits.

    Row norms come from ``_row_norms``, so a row's verdict does not depend
    on its stack. When every entry of the stack is finite and below
    ``_norm_free_bound``, no norm can pass the limit, so only the losses
    are tested and the norms are not taken; the verdict is the same.
    """
    # NaN fails every comparison, so a NaN or infinite entry (max|w| NaN or
    # inf) takes the per-row path, where it makes its row's norm inf or NaN.
    loss_ok = (losses > -math.inf) & (losses <= LOSS_DIVERGENCE)
    if W.size and np.abs(W).max() < _norm_free_bound(W.shape[1]):
        return ~loss_ok
    return ~(loss_ok & (_row_norms(W) <= ITERATE_DIVERGENCE))


class NoiseSource:
    """Deterministic gradient-noise generator for SGD runs.

    Modes: ("gaussian", sigma) adds isotropic Gaussian noise of the
    given scale; ("minibatch", batch_size) uses the mini-batch gradient
    residual (batch gradient minus full gradient, batches sampled
    uniformly with replacement), which has zero conditional mean.
    """

    def __init__(self, mode: str, seed: int, sigma: float = 0.0,
                 batch_size: int = 0):
        if mode not in ("gaussian", "minibatch"):
            raise ValueError("noise mode must be 'gaussian' or 'minibatch'")
        self.mode = mode
        self.seed = int(seed)
        self.sigma = float(sigma)
        self.batch_size = int(batch_size)
        self._rng = np.random.default_rng(self.seed)

    def sample(self, model: LossModel, w: Array, grad: Array) -> Array:
        if self.mode == "gaussian":
            if self.sigma == 0.0:
                return np.zeros_like(grad)
            return self.sigma * self._rng.standard_normal(grad.shape)
        if not isinstance(model, MlpModel):
            raise ValueError("minibatch noise requires a dataset-backed model")
        idx = self._rng.integers(0, model.dataset.n, size=self.batch_size)
        return model.gradient_batch(w, idx) - grad


def run_gd(model: LossModel, w0: Array, eta: float, K: int) -> TrajectoryLog:
    """Full-batch gradient descent for K steps.

    On divergence (non-finite or exploding loss/iterate) the log is
    truncated at the offending step and flagged.
    """
    return _run(model, w0, eta, K, noise=None)


def run_sgd(model: LossModel, w0: Array, eta: float, K: int,
            noise: NoiseSource) -> StochasticTrajectoryLog:
    """Noisy gradient descent w_{k+1} = w_k - eta (grad + eps_k).

    The noise actually applied at each step is recorded verbatim.
    """
    return _run(model, w0, eta, K, noise=noise)


def _run(model, w0, eta, K, noise):
    if eta <= 0:
        raise ValueError("eta must be positive")
    if K < 1:
        raise ValueError("K must be at least 1")
    w = np.atleast_1d(np.asarray(w0, dtype=float)).copy()
    if w.shape != (model.dim,):
        raise ValueError(f"w0 must have dimension {model.dim}")

    # One buffer per logged quantity, filled in place; on divergence the
    # log keeps the prefix of the n steps taken. Each increment is the
    # expression of the log's ``step``, so the log re-derives it bitwise.
    eta = float(eta)
    losses = np.empty(K + 1)
    grads = np.empty((K + 1, model.dim))
    noises = np.empty((K, model.dim)) if noise is not None else None
    iterates = np.empty((K + 1, model.dim))
    iterates[0] = w
    losses[0], grads[0] = model.value_and_grad(w)
    n = 0
    div_step = 0 if _diverged(losses[:1], iterates[:1])[0] else None
    while div_step is None and n < K:
        if noise is not None:
            noises[n] = noise.sample(model, w, grads[n])
            w = w + -eta * (grads[n] + noises[n])
        else:
            w = w + -eta * grads[n]
        loss, g = model.value_and_grad(w)
        if _diverged(np.array([loss]), w[None])[0]:
            div_step = n + 1
            break
        n += 1
        losses[n], grads[n], iterates[n] = loss, g, w

    kwargs = dict(
        eta=eta, model_id=model.name,
        losses=losses[:n + 1], grads=grads[:n + 1],
        w_stored=iterates[:n + 1],
        diverged=div_step is not None, divergence_step=div_step)
    if noise is not None:
        return StochasticTrajectoryLog(noise=noises[:n], **kwargs)
    return TrajectoryLog(**kwargs)


def run_pair_gd(model_s: LossModel, model_sp: LossModel, w0: Array,
                eta: float, K: int) -> PairedLog:
    """Synchronized GD on two objectives from a common initialization."""
    if model_s.dim != model_sp.dim:
        raise ValueError("paired models must share the parameter dimension")
    log_s = run_gd(model_s, w0, eta, K)
    log_sp = run_gd(model_sp, w0, eta, K)
    return PairedLog(log_s, log_sp)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def write_csv(path, header, rows) -> None:
    """Write the header and rows as CSV lines, each ended by CRLF (RFC 4180).

    Every CSV output is written here, so its byte format is decided in one
    place: None is an empty field, a str is written as is, and a number
    is written with 17 significant digits (``.17g``), which round-trips
    every float64.
    """
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(map(_cell, row)) + "\r\n" for row in [header, *rows]))


def write_trajectory_csv(log: TrajectoryLog, path) -> None:
    """Columns k, loss, grad_norm, step_norm."""
    rows = [[k, log.losses[k], np.linalg.norm(log.grads[k]),
             np.linalg.norm(log.step(k)) if k < log.num_steps else None]
            for k in range(log.num_steps + 1)]
    write_csv(path, ["k", "loss", "grad_norm", "step_norm"], rows)


def run_summary(log: TrajectoryLog) -> dict:
    """JSON-ready run summary."""
    return {
        "eta": log.eta,
        "model": log.model_id,
        "num_steps": log.num_steps,
        "final_loss": float(log.losses[-1]),
        "diverged": log.diverged,
        "divergence_step": log.divergence_step,
    }
