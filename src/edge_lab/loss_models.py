"""Differentiable objectives with analytic gradients and Hessian-vector products.

Includes quadratic bowls, a scalar cubic/quartic family, the two-layer
linear network together with its balanced-minimizer geometry (normal
slice, zero-padding between hidden widths), and a small dense MLP on a
synthetic teacher dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .numerics import DENSE_DIM_LIMIT

__all__ = [
    "LossModel",
    "QuadraticModel",
    "ScalarPolyModel",
    "TwoLayerLinearModel",
    "MlpModel",
    "LinearNetGeometry",
    "Dataset",
    "make_quadratic",
    "make_scalar_poly",
    "make_two_layer_linear",
    "make_mlp",
    "make_synthetic_dataset",
    "balanced_minimizer",
    "width_pad",
]

Array = NDArray[np.float64]

# Rows of a direction stack that one MLP R-operator block applies at once.
_HVP_BLOCK = 32


class LossModel:
    """Base interface for a differentiable objective.

    Subclasses provide ``dim`` and two kernels: ``value_and_grad`` and
    ``hvp``. ``value_and_grad(w)`` takes one point of shape ``(dim,)`` and
    returns the loss and the gradient; a model that sets
    ``stacked_value_and_grad`` (the scalar polynomial and the linear net)
    also takes an ``(m, dim)`` stack of row points and returns ``(m,)``
    losses and ``(m, dim)`` gradients, each row bit-equal to the same point
    passed alone. ``hvp(w, v)`` takes one direction of shape ``(dim,)`` or
    an ``(m, dim)`` stack of row directions and returns the products in the
    same shape. ``value`` and ``gradient`` are read off ``value_and_grad``;
    ``hvp_at(w)`` is the operator ``v -> hvp(w, v)`` at one point, which a
    model may override to linearize once for many products (the MLP does,
    so a Lanczos estimate reuses one linearization);
    ``hessian_dense`` is one ``hvp`` call on the identity stack (for the
    MLP, one forward pass plus blocks of 32 directions) and is only
    available for dim <= 512; ``segment_profile(w, d)`` is the operator
    ``taus -> q(taus)``, the step profile along one step from one ``hvp``
    per node, which a model may override to set up the step once for many
    calls (the MLP does, so localization's one-node calls share one
    setup).
    ``line_derivatives(w, u)`` returns the exact
    contractions D^3 L(w)[u, u, .] and D^4 L(w)[u, u, u, u] of the normal
    form; only models with closed-form line derivatives (the scalar
    polynomial and the linear net) provide it, the others raise
    ``ValueError``. ``inf_value`` is a declared lower bound on the loss
    over the region the bundled experiments visit (used by the
    curvature-forcing bound); None means unknown.
    """

    dim: int
    name: str = "loss"
    inf_value: float | None = None
    stacked_value_and_grad: bool = False

    def value_and_grad(self, w: Array) -> tuple[float, Array]:
        raise NotImplementedError

    def value(self, w: Array) -> float:
        return self.value_and_grad(w)[0]

    def gradient(self, w: Array) -> Array:
        return self.value_and_grad(w)[1]

    def hvp(self, w: Array, v: Array) -> Array:
        raise NotImplementedError

    def hvp_at(self, w: Array):
        """Operator ``v -> hvp(w, v)`` at a fixed point, for repeated products."""
        return lambda v: self.hvp(w, v)

    def hessian_dense(self, w: Array) -> Array:
        if self.dim > DENSE_DIM_LIMIT:
            raise ValueError(
                f"dense Hessian only available for dim <= {DENSE_DIM_LIMIT} "
                f"(model has dim {self.dim})")
        H = self.hvp(np.asarray(w, dtype=float), np.eye(self.dim))
        return (H + H.T) / 2.0

    def line_derivatives(self, w: Array, u: Array) -> tuple[Array, float]:
        raise ValueError(f"{self.name} has no exact line derivatives for "
                         f"the normal form")

    def segment_profile(self, w: Array, d: Array):
        """Operator ``taus -> q(taus)`` along one step: the profile
        q(tau_i) = d^T H(w + tau_i d) d / ||d||^2 at each node.

        The generic route is one ``hvp`` per node along the unit direction.
        """
        u = d / float(np.linalg.norm(d))
        return lambda taus: np.array([float(np.dot(u, self.hvp(w + t * d, u)))
                                      for t in taus])


class QuadraticModel(LossModel):
    """L(w) = 0.5 (w - c)^T H (w - c) with constant symmetric H."""

    def __init__(self, H: Array, center: Array | float = 0.0):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        if H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        scale = float(np.max(np.abs(H))) or 1.0
        if float(np.max(np.abs(H - H.T))) > 1e-12 * scale:
            raise ValueError("H must be symmetric")
        self.H = (H + H.T) / 2.0  # exactly symmetric; unchanged if H already is
        self.dim = H.shape[0]
        c = np.asarray(center, dtype=float)
        self.center = np.full(self.dim, float(c)) if c.ndim == 0 else c.copy()
        if self.center.shape != (self.dim,):
            raise ValueError("center shape does not match H")
        self.name = f"quadratic(dim={self.dim})"
        evals = np.linalg.eigvalsh(self.H)
        self.inf_value = 0.0 if evals[0] >= -1e-12 * max(scale, 1.0) else None

    def value_and_grad(self, w):
        r = np.asarray(w, float) - self.center
        g = self.H @ r
        return float((0.5 * r) @ g), g

    def hvp(self, w, v):
        # One matrix-vector product per direction, so a row of a stack is
        # bit-equal to the same direction passed alone.
        return (self.H @ np.asarray(v, float)[..., None])[..., 0]

    def hessian_dense(self, w):
        return self.H.copy()


class ScalarPolyModel(LossModel):
    """One-dimensional L(x) = lam/2 x^2 + gamma/3 x^3 + beta/4 x^4.

    The cubic term makes the directional curvature profile along a step
    linear in the interior parameter, which gives closed-form interior
    localization points; the quartic term controls the period-two branch.
    ``inf_value = 0`` refers to the basin of the critical point at 0
    (the global infimum is -inf when beta < 0 or gamma != 0).
    """

    dim = 1
    stacked_value_and_grad = True

    def __init__(self, lam: float, gamma: float = 0.0, beta: float = 0.0):
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.beta = float(beta)
        self.name = f"scalar_poly(lam={lam:g},gamma={gamma:g},beta={beta:g})"
        self.inf_value = 0.0 if self.lam > 0 else None

    def value_and_grad(self, w):
        w = np.asarray(w, dtype=float)
        if w.ndim == 2:
            # Python-float arithmetic per row, as for a single point.
            pairs = [self._value_and_slope(x) for x in w[:, 0].tolist()]
            return (np.array([v for v, _ in pairs]),
                    np.array([g for _, g in pairs])[:, None])
        value, slope = self._value_and_slope(float(w.reshape(())))
        return value, np.array([slope])

    def _value_and_slope(self, x: float) -> tuple[float, float]:
        return (0.5 * self.lam * x * x + self.gamma / 3.0 * x ** 3 + 0.25 * self.beta * x ** 4,
                self.lam * x + self.gamma * x * x + self.beta * x ** 3)

    def hvp(self, w, v):
        x = float(np.asarray(w).reshape(()))
        return self.second_derivative(x) * np.asarray(v, float)

    def hessian_dense(self, w):
        x = float(np.asarray(w).reshape(()))
        return np.array([[self.second_derivative(x)]])

    def line_derivatives(self, w, u):
        x = float(np.asarray(w).reshape(()))
        t = float(np.asarray(u).reshape(()))
        return (np.array([self.third_derivative(x) * t * t]),
                self.fourth_derivative(x) * t ** 4)

    def second_derivative(self, x: float) -> float:
        return self.lam + 2.0 * self.gamma * x + 3.0 * self.beta * x * x

    def third_derivative(self, x: float) -> float:
        return 2.0 * self.gamma + 6.0 * self.beta * x

    def fourth_derivative(self, x: float) -> float:
        return 6.0 * self.beta


class TwoLayerLinearModel(LossModel):
    """L(W1, W2) = 0.5 ||W2 W1 - M||_F^2.

    The parameter vector packs W1 (h x d, row-major) first, then W2
    (p x h, row-major). This packing order is fixed; all geometry
    helpers in this module respect it.
    """

    stacked_value_and_grad = True

    def __init__(self, M: Array, hidden: int):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        self.M = M
        self.p, self.d = M.shape
        self.h = int(hidden)
        if self.h < 1:
            raise ValueError("hidden width must be positive")
        self.dim = self.h * self.d + self.p * self.h
        self.name = f"two_layer_linear(p={self.p},h={self.h},d={self.d})"
        self.inf_value = 0.0

    def unpack(self, w: Array) -> tuple[Array, Array]:
        """Factors (W1, W2); a stack of packed vectors gives stacks of factors."""
        w = np.asarray(w, dtype=float)
        n1, lead = self.h * self.d, w.shape[:-1]
        W1 = w[..., :n1].reshape(lead + (self.h, self.d))
        W2 = w[..., n1:].reshape(lead + (self.p, self.h))
        return W1, W2

    def pack(self, W1: Array, W2: Array) -> Array:
        if W1.shape[-2:] != (self.h, self.d) or W2.shape[-2:] != (self.p, self.h):
            raise ValueError("factor shapes do not match the model")
        return np.concatenate([W1.reshape(*W1.shape[:-2], self.h * self.d),
                               W2.reshape(*W2.shape[:-2], self.p * self.h)], axis=-1)

    def value_and_grad(self, w):
        # One GEMM per point and one sum over each point's residual, so a
        # row of a stack is bit-equal to the same point passed alone.
        W1, W2 = self.unpack(w)
        R = W2 @ W1 - self.M
        value = 0.5 * np.sum(R * R, axis=(-2, -1))
        grad = self.pack(W2.swapaxes(-1, -2) @ R, R @ W1.swapaxes(-1, -2))
        return (float(value) if value.ndim == 0 else value), grad

    def hvp(self, w, v):
        W1, W2 = self.unpack(w)
        V1, V2 = self.unpack(v)
        R = W2 @ W1 - self.M
        dR = W2 @ V1 + V2 @ W1
        return self.pack(V2.swapaxes(-1, -2) @ R + W2.T @ dR,
                         dR @ W1.T + R @ V1.swapaxes(-1, -2))

    def line_derivatives(self, w, u):
        # (W2 + t V2)(W1 + t V1) = P0 + t P1 + t^2 P2, so L(w + t u) is a
        # quartic in t: D^4 L[u^4] = 12 ||P2||^2, and D^3 L[u, u, .] is the
        # gradient in w of D^2 L[u, u] = ||P1||^2 + 2 <P0 - M, P2>.
        W1, W2 = self.unpack(w)
        V1, V2 = self.unpack(u)
        P1 = W2 @ V1 + V2 @ W1
        P2 = V2 @ V1
        d3 = 2.0 * self.pack(V2.T @ P1 + W2.T @ P2, P1 @ V1.T + P2 @ W1.T)
        return d3, 12.0 * float(np.sum(P2 * P2))


def _rank_from_singular_values(s: Array, rank: int | None) -> int:
    if rank is not None:
        return int(rank)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-12 * s[0]))


@dataclass
class LinearNetGeometry:
    """Balanced-minimizer geometry of a two-layer linear network.

    Holds the target SVD, the canonical balanced minimizer at a given
    hidden width, and the (Y, B, G)-block embedding of the normal space
    of the minimum manifold. All embeddings are expressed in the packed
    parameter coordinates of :class:`TwoLayerLinearModel`.
    """

    M: Array
    h: int
    r: int
    sigma: Array          # singular values, length r, descending
    U: Array              # p x p orthogonal
    V: Array              # d x d orthogonal
    w_bar: Array = field(init=False)
    model: TwoLayerLinearModel = field(init=False)

    def __post_init__(self):
        if self.r > self.h:
            raise ValueError(f"hidden width {self.h} below target rank {self.r}")
        if self.r >= 2 and not np.all(np.diff(self.sigma) <= 1e-12):
            raise ValueError("singular values must be non-increasing")
        if self.r >= 1 and self.sigma[self.r - 1] <= 0:
            raise ValueError("positive singular values required")
        self.model = TwoLayerLinearModel(self.M, self.h)
        p, d, h, r = self.model.p, self.model.d, self.h, self.r
        rootS = np.sqrt(self.sigma)
        W1c = np.zeros((h, d))
        W2c = np.zeros((p, h))
        W1c[:r, :r] = np.diag(rootS)
        W2c[:r, :r] = np.diag(rootS)
        self.w_bar = self.model.pack(W1c @ self.V.T, self.U @ W2c)

    def embed(self, Y: Array, B: Array, G: Array) -> Array:
        """Packed tangent vector for normal-space coordinates (Y, B, G)."""
        p, d, h, r = self.model.p, self.model.d, self.h, self.r
        Y = np.zeros((r, r)) if Y is None else np.atleast_2d(np.asarray(Y, float))
        B = np.zeros((r, d - r)) if B is None else np.asarray(B, float).reshape(r, d - r)
        G = np.zeros((p - r, r)) if G is None else np.asarray(G, float).reshape(p - r, r)
        if Y.shape != (r, r):
            raise ValueError(f"Y must be {r}x{r}")
        rootS = np.sqrt(self.sigma)
        dW1 = np.zeros((h, d))
        dW2 = np.zeros((p, h))
        dW1[:r, :r] = rootS[:, None] * Y
        dW1[:r, r:] = B
        dW2[:r, :r] = Y * rootS[None, :]
        dW2[r:, :r] = G
        return self.model.pack(dW1 @ self.V.T, self.U @ dW2)

    def decode(self, xi: Array) -> tuple[Array, Array, Array, float]:
        """Inverse of :meth:`embed`; returns (Y, B, G, slice residual).

        The residual is the norm of the part of ``xi`` that does not lie
        in the normal slice.
        """
        p, d, r = self.model.p, self.model.d, self.r
        dW1, dW2 = self.model.unpack(np.asarray(xi, float))
        C1 = dW1 @ self.V        # canonical coordinates
        C2 = self.U.T @ dW2
        rootS = np.sqrt(self.sigma)
        Y1 = C1[:r, :r] / rootS[:, None]
        Y2 = C2[:r, :r] / rootS[None, :]
        Y = (Y1 + Y2) / 2.0
        B = C1[:r, r:]
        G = C2[r:, :r]
        residual = float(np.linalg.norm(self.embed(Y, B, G) - np.asarray(xi, float)))
        return Y, B, G, residual

    def normal_basis(self) -> tuple[Array, Array]:
        """Orthonormal basis of the normal space with its curvature spectrum.

        Returns (S, lam): S has one column per basis vector, and lam[i]
        is the restricted-Hessian eigenvalue of column i. Y-block units
        give sigma_i + sigma_j, B-units give sigma_i, G-units sigma_j.
        """
        p, d, r = self.model.p, self.model.d, self.r
        cols, lams = [], []
        for i in range(r):
            for j in range(r):
                Y = np.zeros((r, r))
                Y[i, j] = 1.0 / math.sqrt(self.sigma[i] + self.sigma[j])
                cols.append(self.embed(Y, None, None))
                lams.append(self.sigma[i] + self.sigma[j])
        for i in range(r):
            for b in range(d - r):
                B = np.zeros((r, d - r))
                B[i, b] = 1.0
                cols.append(self.embed(None, B, None))
                lams.append(self.sigma[i])
        for a in range(p - r):
            for j in range(r):
                G = np.zeros((p - r, r))
                G[a, j] = 1.0
                cols.append(self.embed(None, None, G))
                lams.append(self.sigma[j])
        return np.column_stack(cols), np.array(lams)

    def transverse_spectrum(self) -> Array:
        """Eigenvalues of the Hessian restricted to the normal space, descending."""
        _, lams = self.normal_basis()
        return np.sort(lams)[::-1]

    def sharp_direction(self) -> Array:
        """Unit eigenvector of the largest transverse eigenvalue 2*sigma_1."""
        r = self.r
        Y = np.zeros((r, r))
        Y[0, 0] = 1.0 / math.sqrt(2.0 * self.sigma[0])
        return self.embed(Y, None, None)

    def with_width(self, h: int) -> "LinearNetGeometry":
        """Same target and SVD frame at a different hidden width."""
        return LinearNetGeometry(self.M, int(h), self.r, self.sigma, self.U, self.V)


def balanced_minimizer(M: Array, hidden: int,
                       rank: int | None = None) -> tuple[Array, LinearNetGeometry]:
    """Canonical balanced global minimizer of the two-layer linear loss.

    Returns the packed parameter vector and the associated geometry.
    Raises when the hidden width is below the target rank.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    r = _rank_from_singular_values(s, rank)
    if r > hidden:
        raise ValueError(f"hidden width {hidden} below target rank {r}")
    geom = LinearNetGeometry(M, int(hidden), r, s[:r].copy(), U, Vt.T)
    return geom.w_bar, geom


def width_pad(geometry_r: LinearNetGeometry, xi: Array, hidden: int) -> Array:
    """Zero-padding of a minimal-width normal-slice vector to width ``hidden``.

    The padded vector evaluates to the identical restricted loss. Raises
    when ``xi`` has a component outside the normal slice (projection
    residual above 1e-10 of its norm).
    """
    Y, B, G, residual = geometry_r.decode(xi)
    scale = float(np.linalg.norm(xi)) or 1.0
    if residual > 1e-10 * scale:
        raise ValueError(
            f"input is not in the normal slice (projection residual {residual:.3e})")
    return geometry_r.with_width(hidden).embed(Y, B, G)


# ---------------------------------------------------------------------------
# Synthetic datasets and the MLP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Regression dataset: Gaussian inputs, teacher-generated targets."""

    X: Array
    Y: Array
    seed: int
    teacher_rank: int

    @property
    def n(self) -> int:
        return self.X.shape[0]


def make_synthetic_dataset(seed: int, n: int, d_in: int, d_out: int,
                           teacher_rank: int | None = None,
                           noise: float = 0.0,
                           teacher_spectrum=None) -> Dataset:
    """Deterministic Gaussian inputs with a low-rank linear teacher.

    Targets are y = T x (+ optional Gaussian noise) for a rank-limited
    teacher matrix T drawn from the same seed. ``teacher_spectrum``
    optionally pins the singular values of T (and overrides the rank);
    useful when a well-separated top mode is required.
    """
    if min(n, d_in, d_out) < 1:
        raise ValueError("n, d_in, d_out must be positive")
    if teacher_spectrum is not None:
        spec = np.sort(np.asarray(teacher_spectrum, dtype=float))[::-1]
        r = spec.size
    else:
        spec = None
        r = min(d_in, d_out) if teacher_rank is None else int(teacher_rank)
    if not 1 <= r <= min(d_in, d_out):
        raise ValueError("teacher rank out of range")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d_in))
    if spec is not None:
        Uq, _ = np.linalg.qr(rng.standard_normal((d_out, r)))
        Vq, _ = np.linalg.qr(rng.standard_normal((d_in, r)))
        T = (Uq * spec) @ Vq.T
    else:
        A = rng.standard_normal((d_out, r)) / math.sqrt(r)
        Bt = rng.standard_normal((r, d_in)) / math.sqrt(d_in)
        T = A @ Bt
    Y = X @ T.T
    if noise > 0.0:
        Y = Y + noise * rng.standard_normal(Y.shape)
    return Dataset(X=X, Y=Y, seed=int(seed), teacher_rank=r)


def _tanh_triplet(z, second=True):
    t = np.tanh(z)
    dp = 1.0 - t * t
    return t, dp, (-2.0 * t * dp if second else None)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu_triplet(z, second=True):
    # Exact erf form; smooth to all orders.
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(z * _INV_SQRT2))
    pdf = np.exp(-0.5 * z * z) * _INV_SQRT2PI
    val = z * cdf
    dp = cdf + z * pdf
    return val, dp, (pdf * (2.0 - z * z) if second else None)


def _tanh_taylor(Z, Zd, Zdd, A, Ad, Add, scratch):
    """Write A = tanh(Z) and its first two tau-derivatives into A, Ad, Add.

    phi' = 1 - A^2 and phi'' = -2 A phi', so Add = phi' Zdd - 2 A Ad Zd;
    ``Zdd`` None means Zdd = 0. ``scratch`` is overwritten.
    """
    np.tanh(Z, out=A)
    dp = np.multiply(A, A, out=scratch)
    np.subtract(1.0, dp, out=dp)
    np.multiply(dp, Zd, out=Ad)
    np.multiply(A, -2.0, out=Add)
    Add *= Ad
    Add *= Zd
    if Zdd is not None:
        dp *= Zdd
        Add += dp


def _gelu_taylor(Z, Zd, Zdd, A, Ad, Add, scratch):
    """As ``_tanh_taylor``, from the exact-erf GELU triplet."""
    val, dp, ddp = _gelu_triplet(Z)
    np.copyto(A, val)
    np.multiply(dp, Zd, out=Ad)
    np.multiply(ddp, Zd, out=Add)
    Add *= Zd
    if Zdd is not None:
        Add += np.multiply(dp, Zdd, out=scratch)


# Per activation: the (phi, phi', phi'') triplet of an array, and the
# in-place Taylor step of the profile kernel.
_ACTIVATIONS = {"tanh": (_tanh_triplet, _tanh_taylor),
                "gelu": (_gelu_triplet, _gelu_taylor)}


class MlpModel(LossModel):
    """Fully connected network with mean-squared-error loss.

    Loss is (1/2n) sum_i ||f(x_i) - y_i||^2 over the dataset. Hidden
    layers use tanh or exact-erf GELU; the output layer is linear.
    Parameters pack per layer as weight rows then bias.
    """

    def __init__(self, widths, activation: str, dataset: Dataset):
        widths = [int(v) for v in widths]
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(_ACTIVATIONS)}")
        if dataset.X.shape[1] != widths[0] or dataset.Y.shape[1] != widths[-1]:
            raise ValueError("dataset shapes do not match network widths")
        self.widths = widths
        self.activation = activation
        self._act, self._taylor = _ACTIVATIONS[activation]
        self.dataset = dataset
        self.n_layers = len(widths) - 1
        self.dim = sum(widths[l + 1] * widths[l] + widths[l + 1]
                       for l in range(self.n_layers))
        self.name = (f"mlp({'-'.join(str(v) for v in widths)},{activation},"
                     f"n={dataset.n},seed={dataset.seed})")
        self.inf_value = 0.0  # MSE is nonnegative
        self._hvp_buffers = None
        # (unit, sample) data for the profile kernel, laid out once.
        self._inputs_t = np.ascontiguousarray(dataset.X.T)
        self._targets_t = np.ascontiguousarray(dataset.Y.T)

    def init_params(self, seed: int, scale: float = 1.0) -> Array:
        """Gaussian init, std scale/sqrt(fan_in) per layer, zero biases."""
        rng = np.random.default_rng(seed)
        parts = []
        for l in range(self.n_layers):
            fan_in, fan_out = self.widths[l], self.widths[l + 1]
            W = rng.standard_normal((fan_out, fan_in)) * (scale / math.sqrt(fan_in))
            parts.append(np.ravel(W))
            parts.append(np.zeros(fan_out))
        return np.concatenate(parts)

    def unpack(self, w: Array):
        """Per-layer (W, b); a stack of packed vectors gives stacked layers."""
        w = np.asarray(w, dtype=float)
        params, pos, lead = [], 0, w.shape[:-1]
        for l in range(self.n_layers):
            fan_in, fan_out = self.widths[l], self.widths[l + 1]
            W = w[..., pos:pos + fan_out * fan_in].reshape(lead + (fan_out, fan_in))
            pos += fan_out * fan_in
            b = w[..., pos:pos + fan_out]
            pos += fan_out
            params.append((W, b))
        return params

    def pack(self, params) -> Array:
        return np.concatenate([np.concatenate([W.reshape(*W.shape[:-2], -1), b], axis=-1)
                               for W, b in params], axis=-1)

    def _forward(self, params, X, second=True):
        A = X
        acts = [A]        # post-activation per layer, acts[0] = inputs
        # phi' and phi'' (None unless ``second``) of the hidden layers; the
        # output is affine.
        dphis, ddphis = [], []
        for l, (W, b) in enumerate(params):
            A = A @ W.T + b
            if l < self.n_layers - 1:
                A, dp, ddp = self._act(A, second)
                dphis.append(dp)
                ddphis.append(ddp)
            acts.append(A)
        return acts, dphis, ddphis

    def _value_grad(self, w, X, Y):
        params = self.unpack(w)
        acts, dphis, _ = self._forward(params, X, second=False)
        n = X.shape[0]
        resid = acts[-1] - Y
        val = float(0.5 * np.sum(resid * resid) / n)
        D = resid / n
        grads = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            W, _ = params[l]
            grads[l] = (D.T @ acts[l], D.sum(axis=0))
            if l > 0:
                D = (D @ W) * dphis[l - 1]
        return val, self.pack(grads)

    def value_and_grad(self, w):
        return self._value_grad(w, self.dataset.X, self.dataset.Y)

    def gradient_batch(self, w, indices) -> Array:
        """Gradient of the same half-MSE averaged over the given sample rows."""
        idx = np.asarray(indices, dtype=int)
        return self._value_grad(w, self.dataset.X[idx], self.dataset.Y[idx])[1]

    def hvp(self, w, v):
        return self.hvp_at(w)(v)

    def hvp_at(self, w):
        """R-operator at ``w``: one linearization, applied to any directions.

        The forward pass, the activations and phi' transposed to (unit,
        sample), and the direction-free part of the backward chain (the
        output sensitivities D_l and W_l^T D_l * phi'') are computed once.
        The returned operator maps one direction or an (m, dim) stack;
        tangents are direction-major (m, unit, sample) and a stack is
        applied in blocks of ``_HVP_BLOCK`` rows. Products over a layer
        width are one GEMM per block. Sums over samples stay one GEMM per
        direction: on some OpenBLAS kernels a collapsed GEMM rounds
        differently as its row count changes, and a row must be bit-equal
        to the same direction passed alone.

        A block's (m, unit, sample) tangents are written into the first m
        rows of the model's block buffers (``_block_buffers``), which every
        operator of the model shares, and its products straight into its
        rows of one result array that each call allocates, so the returned
        products are fresh arrays. Reusing the buffers, and packing no
        block's products apart from the result, keeps the allocator from
        returning and faulting in pages around every block. The operators
        of one model must therefore not run in several threads at once.
        """
        params = self.unpack(w)
        X, Y = self.dataset.X, self.dataset.Y
        n = X.shape[0]
        acts, dphis, ddphis = self._forward(params, X)
        acts_t = [np.ascontiguousarray(A.T) for A in acts]
        dphis_t = [np.ascontiguousarray(dp.T) for dp in dphis]
        D = np.ascontiguousarray((acts[-1] - Y).T) / n
        Ds, curvs = [None] * self.n_layers, [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            Ds[l] = D
            if l > 0:
                back = params[l][0].T @ D
                curvs[l - 1] = back * ddphis[l - 1].T
                D = back * dphis_t[l - 1]

        def block(V, HV):
            m = V.shape[0]
            tang, hv = self.unpack(V), self.unpack(HV)
            bufs = [buf[:, :m] for buf in self._block_buffers()]
            RAs, RZs = [None], []
            for l, ((W, _), (Vw, vb)) in enumerate(zip(params, tang)):
                out, fan_in = W.shape
                RZ, RA, _, prod = bufs[l]
                np.matmul(Vw.reshape(m * out, fan_in), acts_t[l],
                          out=RZ.reshape(m * out, n))
                if l > 0:
                    RZ += np.matmul(W, RAs[l], out=prod)
                RZ += vb[..., None]
                RZs.append(RZ)
                RAs.append(np.multiply(dphis_t[l], RZ, out=RA)
                           if l < self.n_layers - 1 else RZ)

            RD = np.divide(RAs[-1], n, out=bufs[-1][2])
            for l in range(self.n_layers - 1, -1, -1):
                (W, _), (Vw, _), (HW, Hb) = params[l], tang[l], hv[l]
                gW = np.matmul(RD, acts[l])
                if l > 0:
                    gW += np.matmul(Ds[l], RAs[l].swapaxes(-1, -2))
                HW[...], Hb[...] = gW, RD.sum(axis=-1)
                if l > 0:
                    # (W^T RD + Vw^T D) phi' + (W^T D phi'') RZ, in place:
                    # RZs[l - 1] is not read again.
                    out, fan_in = W.shape
                    _, _, RD_next, prod = bufs[l - 1]
                    RD = np.matmul(W.T, RD, out=RD_next)
                    np.matmul(Vw.swapaxes(-1, -2).reshape(m * fan_in, out), Ds[l],
                              out=prod.reshape(m * fan_in, n))
                    RD += prod
                    RD *= dphis_t[l - 1]
                    RZ = RZs[l - 1]
                    RZ *= curvs[l - 1]
                    RD += RZ

        def apply(v):
            V = np.asarray(v, dtype=float)
            HV = np.empty(V.shape)
            V2, HV2 = np.atleast_2d(V), np.atleast_2d(HV)
            for i in range(0, V2.shape[0], _HVP_BLOCK):
                block(V2[i:i + _HVP_BLOCK], HV2[i:i + _HVP_BLOCK])
            return HV

        return apply

    def _block_buffers(self):
        """Per layer, one (4, _HVP_BLOCK, unit, sample) array holding the
        R-operator's RZ, RA and RD tangents and a product scratch; allocated
        on first use."""
        if self._hvp_buffers is None:
            n = self.dataset.n
            self._hvp_buffers = [np.empty((4, _HVP_BLOCK, out, n))
                                 for out in self.widths[1:]]
        return self._hvp_buffers

    def segment_profile(self, w, d):
        """Profile along the step by second-order forward (Taylor) mode.

        Along w + tau d each layer carries its pre-activation Z and the
        first two tau-derivatives (Zd, Zdd); the loss's second derivative
        is sum(Zd^2 + (Z - Y) Zdd) / n at the output, with no backward
        pass. Arrays are (unit, sample), which measured faster than
        (sample, unit) for the bundled widths. The first pre-activation
        is affine in tau: its tangent and its value at tau = 0 are
        computed once per step, its value at each node by one
        multiply-add, with Zdd = 0.

        Every later layer, of fan-in h, reads one stacked operand
        S = [1; A; Ad; Add] of shape (1 + 3h, n), into which the
        activation's Taylor step writes A = phi(Z) and its
        tau-derivatives in place. With W_t = W + tau D and b_t = b + tau db
        (D, db the step's blocks), the layer is three GEMMs on row slices
        of S, which fold in the bias adds and the sums of tangent products:

            Z'   = [b_t | W_t]      S[0 : 1+h]
            Zd'  = [db | D | W_t]   S[0 : 1+2h]
            Zdd' = [2D | W_t]       S[1+h : 1+3h]

        Whatever does not depend on the nodes is built once, when the
        operator is made: the unpacked blocks, the first layer's tangent,
        [b | W], [db | D] and 2D, the S operands and the result buffers.
        Each call builds the left operands of its nodes by elementwise
        operations, which round each entry as for one node alone, then
        runs the nodes one at a time through the same buffers. So a
        node's value depends neither on the other nodes of its call nor
        on earlier calls. Batching the nodes along the sample axis
        measured slower. An operator writes only the buffers it allocated
        itself, so operators of one model may run in several threads at
        once, but one operator must not (unlike ``hvp_at``, whose
        operators share the model's block buffers).
        """
        params, tang = self.unpack(w), self.unpack(d)
        X, Y = self._inputs_t, self._targets_t
        n = X.shape[1]
        (W, b), (D, db) = params[0], tang[0]
        Zd_first = D @ X + db[:, None]
        Z_base = W @ X + b[:, None]
        # Per later layer: [b | W], [db | D] and 2D, the views the Taylor
        # step writes (A, Ad, Add of S, and a scratch), and (rows of S,
        # result) of each of the three GEMMs.
        layers = []
        for (W, b), (D, db) in zip(params[1:], tang[1:]):
            out, h = W.shape
            S = np.empty((1 + 3 * h, n))
            S[0] = 1.0
            Z, Zd, Zdd = np.empty((3, out, n))
            layers.append((np.concatenate([b[:, None], W], axis=1),
                           np.concatenate([db[:, None], D], axis=1), 2.0 * D,
                           (S[1:1 + h], S[1 + h:1 + 2 * h], S[1 + 2 * h:],
                            np.empty((h, n))),
                           ((S[:1 + h], Z), (S[:1 + 2 * h], Zd), (S[1 + h:], Zdd))))
        scale = self.dataset.n * float(np.linalg.norm(d)) ** 2

        def profile(taus):
            taus = np.asarray(taus, dtype=float)
            m, ts = len(taus), taus[:, None, None]
            Z_first = Z_base + ts * Zd_first
            # Per later layer: the Taylor step's views, and (left operand
            # per node, rows of S, result) of each of the three GEMMs.
            steps = []
            for base, tangent, twice_D, taylor_out, gemms in layers:
                out, h = twice_D.shape
                left0 = base + ts * tangent
                left1, left2 = np.empty((m, out, 1 + 2 * h)), np.empty((m, out, 2 * h))
                left1[:, :, :1 + h] = tangent
                left1[:, :, 1 + h:] = left2[:, :, h:] = left0[:, :, 1:]
                left2[:, :, :h] = twice_D
                steps.append((taylor_out, [(left, *g) for left, g
                                           in zip((left0, left1, left2), gemms)]))
            q = np.empty(m)
            for i in range(m):
                Z, Zd, Zdd = Z_first[i], Zd_first, None    # Zdd = 0 here
                for taylor_out, gemms in steps:
                    self._taylor(Z, Zd, Zdd, *taylor_out)
                    Z, Zd, Zdd = [np.dot(left[i], rows, out=res)
                                  for left, rows, res in gemms]
                curv = np.vdot(Zd, Zd)
                if Zdd is not None:   # a single affine layer has no Zdd term
                    curv += np.vdot(np.subtract(Z, Y, out=Z), Zdd)
                q[i] = curv / scale
            return q

        return profile


def make_quadratic(H, center=0.0) -> QuadraticModel:
    return QuadraticModel(H, center)


def make_scalar_poly(lam, gamma=0.0, beta=0.0) -> ScalarPolyModel:
    return ScalarPolyModel(lam, gamma, beta)


def make_two_layer_linear(M, hidden) -> TwoLayerLinearModel:
    model = TwoLayerLinearModel(M, hidden)
    _, s, _ = np.linalg.svd(model.M)
    if _rank_from_singular_values(s, None) > model.h:
        raise ValueError("hidden width below rank of the target")
    return model


def make_mlp(widths, activation, dataset) -> MlpModel:
    return MlpModel(widths, activation, dataset)
