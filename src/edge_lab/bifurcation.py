"""Fixed points and period-two orbits of the gradient-descent map.

The machinery runs on a model restricted to an affine slice through a
critical point (the normal space of the minimum manifold for
overparametrized models, the full space otherwise). One kernel, the edge
coupling, writes the period-two equations: its two partial gradients
vanish exactly on fixed points and on period-two orbits, and its Hessian
is their Newton Jacobian. Around it sit critical-point refinement, the
quartic branching coefficient, the critical step size, branch
prediction, and continuation or empirical sweeps across a step-size
grid. Every accepted orbit is re-verified against the raw two-step
dynamics in the full space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .loss_models import LossModel
from .numerics import NonConvergenceError, SingularJacobianError, newton_solve
from .trajectory import _diverged

__all__ = [
    "NoBranchError",
    "EdgeCoupling",
    "BranchPoint",
    "EmpiricalPoint",
    "find_critical_point",
    "period_two_solve",
    "quartic_coefficient",
    "critical_eta",
    "branch_predict",
    "branch_sweep",
    "fit_scaling_exponent",
]

Array = NDArray[np.float64]

TRIVIAL_AMPLITUDE = 1e-7
RAW_ORBIT_TOL = 1e-8
KERNEL_THRESHOLD = 1e-8


class NoBranchError(ValueError):
    """The model admits no period-two branch to follow: it has no positive
    curvature (so no threshold), or a zero quartic coefficient."""


class _Slice:
    """Model restricted to an affine slice w_bar + span(S)."""

    def __init__(self, model: LossModel, w_bar: Array, S: Array | None):
        self.model = model
        self.w_bar = np.asarray(w_bar, dtype=float)
        if S is None:
            self.S = None
            self.n = model.dim
        else:
            S = np.asarray(S, dtype=float)
            if S.ndim != 2 or S.shape[0] != model.dim:
                raise ValueError("subspace basis must be dim x n_sub")
            gram = S.T @ S
            if float(np.max(np.abs(gram - np.eye(S.shape[1])))) > 1e-10:
                raise ValueError("subspace basis must be orthonormal")
            self.S = S
            self.n = S.shape[1]

    def to_full(self, z: Array) -> Array:
        z = np.atleast_1d(np.asarray(z, float))
        return self.w_bar + (z if self.S is None else self.S @ z)

    def dir_to_full(self, z: Array) -> Array:
        z = np.atleast_1d(np.asarray(z, float))
        return z if self.S is None else self.S @ z

    def to_reduced(self, v_full: Array) -> Array:
        v = np.asarray(v_full, float)
        return v if self.S is None else self.S.T @ v

    def value(self, z: Array) -> float:
        return self.model.value(self.to_full(z))

    def gradient(self, z: Array) -> Array:
        g = self.model.gradient(self.to_full(z))
        return g if self.S is None else self.S.T @ g

    def hessian(self, z: Array) -> Array:
        """Slice Hessian S^T H S at the point of reduced coordinates z,
        exactly symmetric.

        With a subspace it is one stacked ``hvp`` of the n basis directions,
        S^T H S from n products and never the dim x dim Hessian, so no
        dimension limit applies; ``(A + A^T) / 2`` then makes it symmetric
        bit for bit. Without one it is ``hessian_dense``.
        """
        x = self.to_full(z)
        if self.S is None:
            return self.model.hessian_dense(x)
        A = self.model.hvp(x, self.S.T) @ self.S
        return (A + A.T) / 2.0


class EdgeCoupling:
    """Coupling functional on consecutive iterate pairs at step size eta.

    C(x, y) = L(x) + L(y) - ||x - y||^2 / (2 eta) on the slice
    w_bar + span(subspace), with x and y in reduced coordinates. Its two
    partial gradients, scaled by eta, are the one-step residuals of GD
    in each direction; both vanish exactly when y = x - eta grad L(x)
    and x = y - eta grad L(y), that is on fixed points (x = y) and on
    period-two orbits.
    """

    def __init__(self, eta: float, model: LossModel, w_bar: Array,
                 subspace: Array | None = None):
        self.eta = eta
        self.slice = _Slice(model, w_bar, subspace)

    def value(self, x: Array, y: Array) -> float:
        diff = np.asarray(x, float) - np.asarray(y, float)
        return (self.slice.value(x) + self.slice.value(y)
                - float(diff @ diff) / (2.0 * self.eta))

    def step_residuals(self, x: Array, y: Array) -> tuple[Array, Array]:
        """eta times both partial gradients of C at (x, y)."""
        return (y - x + self.eta * self.slice.gradient(x),
                x - y + self.eta * self.slice.gradient(y))

    def step_jacobian(self, x: Array, y: Array) -> Array:
        """eta times the Hessian of C at (x, y): the Jacobian of
        ``step_residuals`` stacked as (x, y)."""
        I = np.eye(self.slice.n)
        top = np.hstack([-I + self.eta * self.slice.hessian(x), I])
        bot = np.hstack([I, -I + self.eta * self.slice.hessian(y)])
        return np.vstack([top, bot])


def _pinv_solve(H: Array, g: Array) -> Array:
    """Solve H x = g on the complement of the near-kernel of symmetric H."""
    evals, vecs = np.linalg.eigh((H + H.T) / 2.0)
    cut = KERNEL_THRESHOLD * float(np.max(np.abs(evals))) if evals.size else 0.0
    inv = np.where(np.abs(evals) > cut, 1.0 / np.where(evals == 0, 1.0, evals), 0.0)
    return vecs @ (inv * (vecs.T @ g))


def find_critical_point(model: LossModel, w0: Array, tol: float = 1e-12) -> Array:
    """Newton refinement of a nearby critical point of the loss.

    Rank-deficient Hessians (minimum manifolds) are handled by restricting
    each of at most 100 Newton steps to the complement of the near-kernel.
    """
    x = np.atleast_1d(np.asarray(w0, dtype=float)).copy()
    history = []
    for _ in range(100):
        g = model.gradient(x)
        res = float(np.linalg.norm(g))
        history.append(res)
        if res <= tol:
            return x
        H = model.hessian_dense(x)
        x = x - _pinv_solve(H, g)
    g = model.gradient(x)
    res = float(np.linalg.norm(g))
    if res <= tol:
        return x
    raise NonConvergenceError(
        f"critical-point search stalled at residual {res:g}", history + [res])


@dataclass
class BranchPoint:
    """One point on the period-two branch at step size eta."""

    eta: float
    a: Array
    m: Array
    # ||(r_x - r_y) / 2|| / eta of the step residuals r_x, r_y at the orbit
    # pair: || grad profile(a) - (2/eta) a || on the slice.
    residual: float
    profile_value: float
    trivial: bool
    raw_residual: float       # || GD^2(x) - x || for x = m - a, full space
    raw_ok: bool

    @property
    def amplitude(self) -> float:
        return float(np.linalg.norm(self.a))


@dataclass(frozen=True)
class EmpiricalPoint:
    """Amplitude observed by running the raw dynamics at one step size.

    A run that passed the divergence limits is ``diverged``; its
    ``amplitude`` then measures the truncated window before the blow-up,
    not an orbit. A run that settled toward the fixed point is
    ``decayed``; its amplitude measures the transient. Neither kept an
    ``orbit``, and neither belongs in a scaling fit. ``evaluations``
    counts the iterates whose loss and gradient the run computed: its
    rows in the sweep's stacked ``value_and_grad`` calls.
    """

    eta: float
    amplitude: float
    diverged: bool = False
    decayed: bool = False
    evaluations: int = 0

    @property
    def orbit(self) -> bool:
        return not (self.diverged or self.decayed)


def _raw_two_step_residual(model: LossModel, eta: float, x: Array) -> float:
    y = x - eta * model.gradient(x)
    x2 = y - eta * model.gradient(y)
    return float(np.linalg.norm(x2 - x))


def period_two_solve(model: LossModel, w_bar: Array, eta: float, a0: Array,
                     tol: float = 1e-12,
                     subspace: Array | None = None) -> BranchPoint:
    """Newton solve for a period-two orbit near w_bar at step size eta.

    Newton drives both step residuals of the edge coupling to zero for
    the orbit pair on the slice, with the coupling Hessian as Jacobian,
    and reports the nonlinear-eigenproblem residual of the half-amplitude.
    Convergence to the fixed point is flagged trivial, not an error.
    """
    coupling = EdgeCoupling(eta, model, w_bar, subspace)
    sl = coupling.slice
    a_red = sl.to_reduced(np.atleast_1d(np.asarray(a0, dtype=float)))
    n = sl.n

    def F(zz):
        return np.concatenate(coupling.step_residuals(zz[:n], zz[n:]))

    def J(zz):
        return coupling.step_jacobian(zz[:n], zz[n:])

    z0 = np.concatenate([-a_red, a_red])
    zz = newton_solve(F, J, z0, tol=tol, max_iter=120)

    def amplitude_of(z):
        return float(np.linalg.norm((z[n:] - z[:n]) / 2.0))

    # At the exact threshold the orbit equation degenerates to its cubic
    # term and the residual tolerance admits small spurious amplitudes; a
    # genuine orbit is a Newton fixed point, a collapsing one keeps
    # contracting, so iterate the suspicious case down.
    amp = amplitude_of(zz)
    if TRIVIAL_AMPLITUDE <= amp < 1e-3:
        try:
            for _ in range(400):
                step = np.linalg.solve(J(zz), F(zz))
                if amplitude_of(zz - step) > 0.9 * amplitude_of(zz):
                    break
                zz = zz - step
                if amplitude_of(zz) < TRIVIAL_AMPLITUDE:
                    break
        except np.linalg.LinAlgError:
            pass

    zx, zy = zz[:n], zz[n:]
    a_full = sl.dir_to_full((zy - zx) / 2.0)
    m_full = sl.to_full((zx + zy) / 2.0)

    trivial = float(np.linalg.norm(a_full)) < TRIVIAL_AMPLITUDE
    rx, ry = coupling.step_residuals(zx, zy)
    resid = float(np.linalg.norm((rx - ry) / 2.0)) / eta
    profile = 0.5 * (model.value(m_full + a_full) + model.value(m_full - a_full))
    raw = _raw_two_step_residual(model, eta, m_full - a_full)
    raw_ok = raw <= RAW_ORBIT_TOL * (1.0 + float(np.linalg.norm(m_full - a_full)))
    return BranchPoint(eta=float(eta), a=a_full, m=m_full, residual=resid,
                       profile_value=float(profile), trivial=trivial,
                       raw_residual=raw, raw_ok=raw_ok)


def quartic_coefficient(model: LossModel, w_bar: Array, u: Array,
                        subspace: Array | None = None) -> float:
    """Quartic branching coefficient of the orbit profile along ``u``.

    (1/6) d4 - (1/2) <d3, H^{-1} d3>: the fourth directional derivative
    of the loss with the center-map correction, where d3 = D^3 L[u, u, .]
    projected onto the slice and H is the slice Hessian. Both
    contractions are the model's exact ``line_derivatives``, so a model
    without them raises ``ValueError``. Homogeneous of degree four in u.
    """
    sl = _Slice(model, w_bar, subspace)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    u_slice = sl.dir_to_full(sl.to_reduced(u))
    if float(np.linalg.norm(u_slice - u)) > 1e-8 * (1.0 + float(np.linalg.norm(u))):
        raise ValueError("direction u must lie in the given subspace")
    d3, d4 = model.line_derivatives(sl.w_bar, u_slice)
    d3 = sl.to_reduced(d3)

    H = sl.hessian(np.zeros(sl.n))
    evals = np.linalg.eigvalsh(H)
    cut = KERNEL_THRESHOLD * float(np.max(np.abs(evals)))
    if float(np.min(np.abs(evals))) <= cut:
        raise SingularJacobianError(
            "restricted Hessian is singular; pass the normal-space basis of "
            "the minimum manifold as `subspace`")
    return float(d4 / 6.0 - 0.5 * float(d3 @ np.linalg.solve(H, d3)))


def critical_eta(model: LossModel, w_bar: Array,
                 subspace: Array | None = None) -> tuple[float, Array]:
    """Critical step size 2 / lambda_max of the slice-restricted Hessian.

    Also returns the (full-space) basis of the critical eigenspace:
    eigenvectors within a relative 1e-8 window of the top eigenvalue.
    """
    sl = _Slice(model, w_bar, subspace)
    H = sl.hessian(np.zeros(sl.n))
    evals, vecs = np.linalg.eigh(H)
    lam_max = float(evals[-1])
    if lam_max <= 0.0:
        raise NoBranchError("no positive curvature: the period-two threshold "
                            "does not exist")
    sel = evals >= lam_max - 1e-8 * lam_max
    basis = vecs[:, sel]
    if sl.S is not None:
        basis = sl.S @ basis
    return 2.0 / lam_max, basis


def branch_predict(eta: float, eta_c: float, Q_u: float) -> tuple[bool, float]:
    """Leading-order amplitude^2 of the period-two branch at step size eta.

    amplitude^2 = (2/eta - 2/eta_c) / Q_u; the branch exists on the side
    where that quantity is positive. Degenerate (zero) quartic
    coefficients admit no prediction.
    """
    if Q_u == 0.0:
        raise NoBranchError("degenerate branch: quartic coefficient is zero")
    alpha_sq = (2.0 / eta - 2.0 / eta_c) / Q_u
    return alpha_sq > 0.0, alpha_sq


def _lockstep_projections(model: LossModel, w_bar: Array, u: Array,
                          run_offset: float, etas: list[float],
                          K: int) -> tuple[Array, list[int], list[int]]:
    """Full-batch GD from w_bar + run_offset u at every step size at once.

    One (m, dim) stack of iterates advances by one stacked
    ``value_and_grad`` per step, each row by its own step size, exactly as
    ``run_gd`` advances one. Only the projections (w_k - w_bar) . u are
    kept, each by the 1-D dot of a single point: returns the (K + 1, m)
    projections and, per step size, the number of steps its run keeps and
    the number of its iterates evaluated. A row past the divergence
    limits at iterate n keeps iterates 0..n - 1, as ``run_gd`` truncates
    its log, and leaves the stack after n + 1 evaluations; a start point
    past them keeps iterate 0.
    """
    if not model.stacked_value_and_grad:
        raise ValueError(f"the empirical sweep needs a model whose "
                         f"value_and_grad takes an (m, dim) stack of points; "
                         f"{model.name} does not")
    if any(eta <= 0 for eta in etas):
        raise ValueError("eta must be positive")
    if K < 1:
        raise ValueError("K must be at least 1")
    m = len(etas)
    proj = np.empty((K + 1, m))
    kept = [K] * m
    evaluated = [K + 1] * m
    neg_etas = -np.array(etas)
    rows = np.arange(m)      # the step size of each row of W
    W = np.tile(w_bar + run_offset * u, (m, 1))
    for k in range(K + 1):
        if not rows.size:
            break
        if k > 0:
            W = W + neg_etas[rows, None] * G
        D = W - w_bar
        for i, r in enumerate(rows.tolist()):
            proj[k, r] = D[i] @ u
        losses, G = model.value_and_grad(W)
        out = _diverged(losses, W)
        if out.any():
            for r in rows[out].tolist():
                kept[r] = max(k - 1, 0)
                evaluated[r] = k + 1
            rows, W, G = rows[~out], W[~out], G[~out]
    return proj, kept, evaluated


def _half_range(x: Array) -> float:
    return 0.5 * float(x.max() - x.min())


def branch_sweep(model: LossModel, w_bar: Array, etas, mode: str, u: Array,
                 subspace: Array | None = None, run_steps: int = 2000,
                 run_offset: float = 1e-3, discard_frac: float = 0.8,
                 eta_c: float | None = None, Q_u: float | None = None):
    """Sweep the period-two branch along ``u`` over a step-size grid.

    Continuation mode follows the branch from the caller's normal form,
    the critical step size ``eta_c`` and the quartic coefficient ``Q_u``
    (``critical_eta`` and ``quartic_coefficient``), which it requires. It
    seeds the first grid point from the branch prediction and every later
    one from the previous orbit scaled by the predicted amplitude ratio,
    bisecting the eta step once on failure before declaring the branch
    lost; returns (list of BranchPoint, lost flag). Empirical mode runs
    the raw dynamics from a small offset along ``u`` at every step size
    in lockstep (so the model's ``value_and_grad`` must take point
    stacks), discards the leading ``discard_frac`` of each run's steps and
    reports half the peak-to-peak projection onto ``u``, flagging the runs
    that diverged or decayed; returns (list of EmpiricalPoint, lost flag),
    the branch lost when no run kept an orbit.
    """
    etas = [float(e) for e in etas]
    u = np.asarray(u, dtype=float)
    u = u / float(np.linalg.norm(u))

    if mode == "empirical":
        proj, kept, evaluated = _lockstep_projections(
            model, w_bar, u, run_offset, etas, run_steps)
        points = []
        for r, (eta, n) in enumerate(zip(etas, kept)):
            window = proj[int(discard_frac * n):n + 1, r]
            amp = _half_range(window)
            # Only a row that left the stack keeps fewer than run_steps steps.
            diverged = n < run_steps
            # A decaying run's amplitude over the last tenth of its window
            # is below half that over the first; an orbit's is about equal.
            # A tenth holds at least the two iterates of one period.
            tenth = max(2, len(window) // 10)
            decayed = not diverged and (amp == 0 or _half_range(window[-tenth:])
                                        < 0.5 * _half_range(window[:tenth]))
            points.append(EmpiricalPoint(eta=eta, amplitude=amp, diverged=diverged,
                                         decayed=decayed, evaluations=evaluated[r]))
        return points, not any(p.orbit for p in points)

    if mode != "continuation":
        raise ValueError("mode must be 'continuation' or 'empirical'")
    if eta_c is None or Q_u is None:
        raise ValueError("continuation needs the normal form: pass eta_c and Q_u")

    def solve(eta: float, prev: BranchPoint | None) -> BranchPoint | None:
        """The nontrivial orbit at eta, or None; seeded at the predicted
        amplitude, along ``u`` or along the previous orbit ``prev``."""
        exists, alpha_sq = branch_predict(eta, eta_c, Q_u)
        if not exists:
            return None
        if prev is None:
            seed = math.sqrt(alpha_sq) * u
        else:
            seed = math.sqrt(alpha_sq / branch_predict(prev.eta, eta_c, Q_u)[1]) * prev.a
        try:
            bp = period_two_solve(model, w_bar, eta, seed, subspace=subspace)
        except (NonConvergenceError, SingularJacobianError):
            return None
        return None if bp.trivial else bp

    points: list[BranchPoint] = []
    for eta in etas:
        prev = points[-1] if points else None
        bp = solve(eta, prev)
        if bp is None and prev is not None:
            # One bisection of the eta step before giving up.
            mid = solve(0.5 * (prev.eta + eta), prev)
            bp = None if mid is None else solve(eta, mid)
        if bp is None:
            return points, True
        points.append(bp)
    return points, False


def fit_scaling_exponent(etas, amplitudes, eta_c: float,
                         side: str = "above") -> float:
    """Least-squares slope of log amplitude against log|eta - eta_c|.

    Fits the points on the branch's ``side`` of eta_c: "above" (eta >
    eta_c, a supercritical branch) or "below" (eta < eta_c, a
    subcritical one), as ``bifurcate``'s ``branch_side`` states it.
    """
    if side not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', not {side!r}")
    etas = np.asarray(etas, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    gap = etas - eta_c if side == "above" else eta_c - etas
    mask = (gap > 0) & (amps > 0)
    if int(mask.sum()) < 2:
        raise ValueError(f"need at least two points {side} the threshold")
    x = np.log(gap[mask])
    y = np.log(amps[mask])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
