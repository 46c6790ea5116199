"""Gradient-descent runners, their step streams and per-step trajectory logs.

Deterministic full-batch GD, noisy SGD (Gaussian or mini-batch residual
noise), and synchronized two-objective pairs. One runner, ``StepStream``,
produces a run's steps one at a time and keeps only its per-step
scalars, so a consumer that reads each step as it comes (the curvature
table) holds O(dim) arrays. ``run_gd`` and ``run_sgd`` collect that
stream into a log, which keeps every iterate, loss and gradient (and the
SGD noise) densely; a log's step increment is not stored but derived
from its logged gradient by the runner's own expression, so it is the
increment the runner applied, bit for bit. A log supplies the same
stream of steps from its stored rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
from numpy.typing import NDArray

from .loss_models import LossModel, MlpModel
from .numerics import MACHINE_EPS

__all__ = [
    "Step",
    "StepStream",
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


class Step(NamedTuple):
    """Step k of a run: the iterate w_k, its loss and gradient, and the
    increment d_k the runner applied to it, with ||d_k|| and, in SGD, the
    gradient noise eps_k in it. At the run's last iterate ``d``, ``norm``
    and ``noise`` are None."""

    k: int
    w: Array
    loss: float
    grad: Array
    d: Array | None
    norm: float | None
    noise: Array | None


class StepStream:
    """A GD or SGD run as the stream of its ``Step``s, taken as they are
    read; iterate it once.

    Step k is yielded once w_{k+1} is known to be within the divergence
    limits: the first iterate past them ends the run without a step into
    it, at ``divergence_step``, as the log of ``run_gd`` is truncated.
    Iterating keeps only O(dim) arrays and fills the run's per-step
    scalars: ``losses`` and ``grad_norms`` of iterates 0..n and
    ``step_norms`` ||d_k|| of steps 0..n - 1, buffers of the
    ``max_steps`` + 1 iterates a run may reach, cut to the run once the
    stream ends, together with ``num_steps`` n, ``diverged`` and
    ``divergence_step``. ``seconds`` adds up the wall time spent taking
    the steps. With ``noise`` the increment is -eta (grad_k + eps_k),
    else -eta grad_k, the expression of the log's ``step``.
    """

    def __init__(self, model: LossModel, w0: Array, eta: float, K: int,
                 noise: NoiseSource | None = None):
        if eta <= 0:
            raise ValueError("eta must be positive")
        if K < 1:
            raise ValueError("K must be at least 1")
        w = np.atleast_1d(np.asarray(w0, dtype=float)).copy()
        if w.shape != (model.dim,):
            raise ValueError(f"w0 must have dimension {model.dim}")
        self.eta, self.model_id, self.dim, self.max_steps = float(eta), model.name, model.dim, K
        self.losses, self.grad_norms = np.empty(K + 1), np.empty(K + 1)
        self.step_norms = np.empty(K)
        self.num_steps: int | None = None
        self.divergence_step: int | None = None
        self.seconds = 0.0
        self._steps = self._take(model, w, noise)

    @property
    def diverged(self) -> bool:
        return self.divergence_step is not None

    def __iter__(self) -> Iterator[Step]:
        return self._steps

    def _take(self, model, w, noise) -> Iterator[Step]:
        eta, k = self.eta, 0
        start = time.perf_counter()
        loss, g = model.value_and_grad(w)
        if _diverged(np.array([loss]), w[None])[0]:
            self.divergence_step = 0
        while True:
            g = np.array(g, dtype=float)
            self.losses[k], self.grad_norms[k] = loss, np.linalg.norm(g)
            d = norm = eps = None
            if self.divergence_step is None and k < self.max_steps:
                eps = None if noise is None else noise.sample(model, w, g)
                d = -eta * g if eps is None else -eta * (g + eps)
                w_next = w + d
                loss, g_next = model.value_and_grad(w_next)
                if _diverged(np.array([loss]), w_next[None])[0]:
                    self.divergence_step = k + 1
                    d = eps = None
                else:
                    self.step_norms[k] = norm = float(np.linalg.norm(d))
            self.seconds += time.perf_counter() - start
            yield Step(k, w, self.losses[k], g, d, norm, eps)
            start = time.perf_counter()
            if d is None:
                break
            k, w, g = k + 1, w_next, g_next
        self.num_steps = k
        self.losses, self.grad_norms = self.losses[:k + 1], self.grad_norms[:k + 1]
        self.step_norms = self.step_norms[:k]


@dataclass
class TrajectoryLog:
    """Complete per-step record of a gradient-descent run.

    Iterates (``w_stored``), losses and gradients are stored for every
    step 0..K. ``step(k)`` is the increment the runner applied,
    w_{k+1} = w_k + step(k) bitwise, derived from ``grads[k]``.
    Iterating a log yields the ``Step``s of its stored rows, those its
    ``StepStream`` yielded.
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

    # A log's steps are all there is: a consumer that sizes its work by the
    # steps a stream may reach reads ``max_steps`` of either.
    max_steps = num_steps

    @property
    def dim(self) -> int:
        return self.grads.shape[1]

    @functools.cached_property
    def grad_norms(self) -> Array:
        return np.array([np.linalg.norm(g) for g in self.grads])

    @functools.cached_property
    def step_norms(self) -> Array:
        """||step(k)|| of each step k, each computed once."""
        return np.array([np.linalg.norm(self.step(k)) for k in range(self.num_steps)])

    def __iter__(self) -> Iterator[Step]:
        n = self.num_steps
        for k in range(n + 1):
            d = self.step(k) if k < n else None
            yield Step(k, self.w_stored[k], self.losses[k], self.grads[k], d,
                       None if d is None else float(self.step_norms[k]),
                       self._noise(k) if k < n else None)

    def _noise(self, k: int) -> Array | None:
        return None

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

    def _noise(self, k: int) -> Array:
        return self.noise[k]


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
    """Full-batch gradient descent for K steps: the ``StepStream`` of the
    run, collected.

    On divergence (non-finite or exploding loss/iterate) the log is
    truncated at the offending step and flagged.
    """
    return _collect(StepStream(model, w0, eta, K))


def run_sgd(model: LossModel, w0: Array, eta: float, K: int,
            noise: NoiseSource) -> StochasticTrajectoryLog:
    """Noisy gradient descent w_{k+1} = w_k - eta (grad + eps_k).

    The noise actually applied at each step is recorded verbatim.
    """
    return _collect(StepStream(model, w0, eta, K, noise=noise), noisy=True)


def _collect(stream: StepStream, noisy: bool = False):
    """The log of every step of ``stream``, filled into one buffer per
    logged quantity and cut to the steps taken."""
    K, dim = stream.max_steps, stream.dim
    grads = np.empty((K + 1, dim))
    iterates = np.empty((K + 1, dim))
    noises = np.empty((K, dim)) if noisy else None
    for step in stream:
        iterates[step.k], grads[step.k] = step.w, step.grad
        if step.noise is not None:
            noises[step.k] = step.noise
    n = stream.num_steps
    kwargs = dict(
        eta=stream.eta, model_id=stream.model_id, losses=stream.losses,
        grads=grads[:n + 1], w_stored=iterates[:n + 1],
        diverged=stream.diverged, divergence_step=stream.divergence_step)
    if noisy:
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
    every float64. Rows are written as they are read, so ``rows`` may be
    a generator and no more than one row is held as text.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(_cell, row)) + "\r\n"
                      for row in itertools.chain([header], rows))


def write_trajectory_csv(run: TrajectoryLog | StepStream, path) -> None:
    """Columns k, loss, grad_norm, step_norm, from the per-step scalars of
    a log or of a finished stream."""
    rows = ([k, run.losses[k], run.grad_norms[k],
             run.step_norms[k] if k < run.num_steps else None]
            for k in range(run.num_steps + 1))
    write_csv(path, ["k", "loss", "grad_norm", "step_norm"], rows)


def run_summary(run: TrajectoryLog | StepStream) -> dict:
    """JSON-ready run summary of a log or of a finished stream."""
    return {
        "eta": run.eta,
        "model": run.model_id,
        "num_steps": run.num_steps,
        "final_loss": float(run.losses[-1]),
        "diverged": run.diverged,
        "divergence_step": run.divergence_step,
    }
