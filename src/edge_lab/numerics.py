"""Shared numerical kernels.

Gauss-Legendre rules on [0, 1], bracketed root finding, damped Newton
solves, dense symmetric eigenvalues, iterative largest-eigenvalue
estimation from Hessian-vector products, and the default central
finite-difference step. (The embedded G4/K9 Gauss-Kronrod pair that
integrates curvature profiles is a fixed table in ``edge_metrics``.)

scipy is imported by the two functions that use it, ``brent_root``
(``brentq``) and ``lambda_max_iter`` (``eigsh``), on their first call:
importing it takes most of a CLI process's start-up, and only localization
and ``verify``'s saturation check need it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "DENSE_DIM_LIMIT",
    "MACHINE_EPS",
    "QuadratureRule",
    "uniform_rule",
    "brent_root",
    "newton_solve",
    "dense_eigvalsh",
    "lambda_max_iter",
    "fd_step",
    "BracketError",
    "EvaluationError",
    "NonConvergenceError",
    "SingularJacobianError",
]

MACHINE_EPS = float(np.finfo(np.float64).eps)

# Dense linear-algebra paths are allowed up to this dimension; above it
# only matrix-free (HVP) routes may be used.
DENSE_DIM_LIMIT = 512


class EvaluationError(ValueError):
    """An integrand or objective produced a non-finite value."""


class BracketError(ValueError):
    """Root bracket is invalid (no sign change or empty interval)."""


class NonConvergenceError(RuntimeError):
    """Iteration hit its budget before reaching the requested tolerance."""

    def __init__(self, message: str, history: Sequence[float] | None = None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class SingularJacobianError(RuntimeError):
    """Newton Jacobian is singular beyond the working subspace."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [0, 1]; the weights sum to 1.

    A rule of order n integrates polynomials up to degree 2n-1 exactly.
    """

    order: int
    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("quadrature order must be positive")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


@functools.lru_cache(maxsize=None)
def uniform_rule(order: int = 4) -> QuadratureRule:
    """Gauss-Legendre rule mapped to [0, 1] with unit weight.

    Built once per order; every caller shares the same read-only arrays.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(order, nodes, weights)


def brent_root(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12) -> float:
    """Root of ``f`` in [lo, hi] by Brent's method.

    Requires a sign change on the bracket; the returned point satisfies
    |f(x)| <= tol or lies in a bracket of width <= tol.
    """
    if not lo < hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)):
        raise EvaluationError("non-finite endpoint value in brent_root")
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:g}, f(hi)={fhi:g}")
    from scipy.optimize import brentq
    return float(brentq(f, lo, hi, xtol=tol, rtol=4 * MACHINE_EPS))


def newton_solve(F: Callable, J: Callable, x0, tol: float = 1e-12,
                 max_iter: int = 50) -> NDArray[np.float64]:
    """Solve F(x) = 0 by Newton's method with Jacobian oracle J.

    Returns x with ||F(x)||_2 <= tol. Raises SingularJacobianError when
    the Jacobian condition estimate exceeds 1e12, NonConvergenceError
    (carrying the residual history) when the budget runs out.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    history: list[float] = []
    for _ in range(max_iter):
        Fx = np.atleast_1d(np.asarray(F(x), dtype=float))
        res = float(np.linalg.norm(Fx))
        history.append(res)
        if not np.isfinite(res):
            raise EvaluationError("non-finite residual in newton_solve")
        if res <= tol:
            return x
        Jx = np.atleast_2d(np.asarray(J(x), dtype=float))
        if np.linalg.cond(Jx) > 1e12:
            raise SingularJacobianError(
                f"Jacobian condition estimate exceeds 1e12 at residual {res:g}")
        x = x - np.linalg.solve(Jx, Fx)
    Fx = np.atleast_1d(np.asarray(F(x), dtype=float))
    res = float(np.linalg.norm(Fx))
    history.append(res)
    if res <= tol:
        return x
    raise NonConvergenceError(
        f"newton_solve: residual {res:g} > tol {tol:g} after {max_iter} iterations",
        history)


def _check_symmetric(A: NDArray[np.float64]) -> NDArray[np.float64]:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    scale = float(np.max(np.abs(A))) or 1.0
    if float(np.max(np.abs(A - A.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    return A


def dense_eigvalsh(A: NDArray[np.float64]) -> NDArray[np.float64]:
    """Eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(_check_symmetric(A))


def lambda_max_iter(hvp: Callable[[NDArray[np.float64]], NDArray[np.float64]],
                    dim: int, tol: float = 1e-9, seed: int = 0, v0: NDArray[np.float64] | None = None) -> float:
    """Largest (algebraically) eigenvalue of a symmetric operator.

    Lanczos iteration on the matrix-free operator; deterministic for a
    given seed. ``v0`` optionally seeds the Krylov space, in which case
    the estimate is at least the Rayleigh quotient of ``v0``. Symmetry
    of ``hvp`` is spot-checked on random vectors.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    hu, hv = np.asarray(hvp(u), float), np.asarray(hvp(v), float)
    scale = max(np.linalg.norm(hu) * np.linalg.norm(v),
                np.linalg.norm(hv) * np.linalg.norm(u), 1.0)
    if abs(float(u @ hv - v @ hu)) > 1e-8 * scale:
        raise ValueError("hvp operator fails the symmetry spot-check")

    if dim <= 2:
        H = np.column_stack([np.asarray(hvp(e), float) for e in np.eye(dim)])
        return float(np.linalg.eigvalsh((H + H.T) / 2.0)[-1])

    from scipy.sparse.linalg import LinearOperator, eigsh
    start = rng.standard_normal(dim) if v0 is None else np.asarray(v0, float)
    op = LinearOperator((dim, dim), matvec=lambda x: np.asarray(hvp(x), float))
    try:
        vals = eigsh(op, k=1, which="LA", v0=start, tol=tol,
                     maxiter=1000, return_eigenvectors=False)
    except Exception as exc:  # ARPACK non-convergence
        raise NonConvergenceError(f"lambda_max_iter failed to converge: {exc}") from exc
    return float(vals[0])


def fd_step(order: int, w_norm: float = 0.0) -> float:
    """Default central-difference step balancing truncation and rounding."""
    if order in (1, 2):
        return MACHINE_EPS ** (1.0 / 3.0) * (1.0 + w_norm)
    if order in (3, 4):
        return MACHINE_EPS ** (1.0 / 5.0) * (1.0 + w_norm)
    raise ValueError("derivative order must be in {1, 2, 3, 4}")
