"""Shared numerical kernels.

Gauss-Legendre rules on [0, 1], bracketed root finding, damped Newton
solves, dense symmetric eigenvalues, and iterative largest-eigenvalue
estimation from Hessian-vector products. (The embedded G4/K9
Gauss-Kronrod pair that integrates curvature profiles is a fixed table
in ``edge_metrics``.)

Every kernel here is numpy-only: ``brent_root`` is a port of scipy's
``brentq`` and ``lambda_max_iter`` runs its own Lanczos iteration, so
localization and ``verify``'s saturation check load no scipy module.
The one scipy user in the package is GELU's ``erf`` in ``loss_models``.
"""

from __future__ import annotations

import functools
import math
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
    "BracketError",
    "EvaluationError",
    "NonConvergenceError",
    "SingularJacobianError",
]

MACHINE_EPS = float(np.finfo(np.float64).eps)

# Dense linear-algebra paths are allowed up to this dimension; above it
# only matrix-free (HVP) routes may be used.
DENSE_DIM_LIMIT = 512

# Iteration budget of brent_root (scipy's brentq default) and the largest
# Krylov basis lambda_max_iter builds before it gives up.
BRENT_MAX_ITER = 100
LANCZOS_MAX_VECTORS = 300
# ARPACK's floor on |theta| in its convergence test.
_EPS23 = MACHINE_EPS ** (2.0 / 3.0)
# lambda_max_iter tests the Ritz value once a block holds _RITZ_FROM
# vectors and then at every _RITZ_EVERY-th one. Each test is an eigh of
# the block's tridiagonal matrix; on the README MLP (dim 533) an estimate
# takes about 30 vectors, and an eigh at every one took a fifth of it.
_RITZ_FROM = 12
_RITZ_EVERY = 3


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


def _finite_value(fx) -> float:
    fx = float(fx)
    if not math.isfinite(fx):
        raise EvaluationError(f"non-finite function value {fx} in brent_root")
    return fx


def brent_root(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12) -> float:
    """Root of ``f`` in [lo, hi] by Brent's method.

    Requires a sign change on the bracket. The step rules, the stopping
    test and the order of every floating-point operation are those of
    scipy's ``brentq`` with ``xtol=tol`` and ``rtol=4 eps``, so the root
    is the one it returns, bit for bit: a point where f vanishes, or the
    best end of a sign-change bracket narrower than tol + 4 eps |x|.
    Raises NonConvergenceError after ``BRENT_MAX_ITER`` iterations and
    EvaluationError on a non-finite value of f.
    """
    if not lo < hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = _finite_value(f(xpre)), _finite_value(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fpre:g}, f(hi)={fcur:g}")
    rtol = 4.0 * MACHINE_EPS
    # xcur is the best point so far, xblk the contrapoint (f changes sign
    # between them) and xpre the previous point; scur and spre are the
    # last two steps.
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _finite_value(f(xcur))
    raise NonConvergenceError(
        f"brent_root: bracket of [{lo}, {hi}] still wider than tol {tol:g} "
        f"after {BRENT_MAX_ITER} iterations")


def _condition_number(A: NDArray[np.float64]) -> float:
    """2-norm condition number of square ``A``, inf for a singular A.

    A matrix equal to its transpose takes it from its eigenvalues,
    max|lambda| / min|lambda|; any other matrix from ``np.linalg.cond``.
    """
    if not np.array_equal(A, A.T):
        return float(np.linalg.cond(A))
    mags = np.abs(np.linalg.eigvalsh(A))
    lo, hi = float(mags.min()), float(mags.max())
    # inf when min|lambda| is 0 (the zero matrix too) and, as np.linalg.cond
    # takes it, when an infinite entry makes the eigenvalues NaN; the test
    # comes before the division, so nothing divides by zero.
    return hi / lo if lo > 0.0 else math.inf


def newton_solve(F: Callable, J: Callable, x0, tol: float = 1e-12,
                 max_iter: int = 50) -> NDArray[np.float64]:
    """Solve F(x) = 0 by Newton's method with Jacobian oracle J.

    Returns x with ||F(x)||_2 <= tol. Raises SingularJacobianError when
    the 2-norm condition number of the Jacobian exceeds 1e12,
    NonConvergenceError (carrying the residual history) when the budget
    runs out. A Jacobian equal to its transpose has that condition number
    max|lambda| / min|lambda| from its eigenvalues, which costs a fraction
    of the singular value decomposition ``np.linalg.cond`` takes for any
    other Jacobian.
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
        if _condition_number(Jx) > 1e12:
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

    Lanczos iteration on the matrix-free operator, one product per basis
    vector; deterministic for a given seed. ``v0`` optionally seeds the
    Krylov space, in which case the estimate is at least the Rayleigh
    quotient of ``v0``. Symmetry of ``hvp`` is spot-checked on random
    vectors.

    Each new vector is orthogonalized against the whole basis by two
    classical Gram-Schmidt passes. The iteration stops on ARPACK's test:
    the largest Ritz value theta of the tridiagonal matrix is accepted
    once |beta s_last| <= tol max(eps^(2/3), |theta|), with beta the norm
    of the new residual and s_last the last entry of theta's Ritz vector.
    The test runs once the block holds _RITZ_FROM vectors, then at every
    _RITZ_EVERY-th. A residual norm at most tol times the largest |theta|
    (a breakdown: the Krylov space is invariant to within tol) closes the
    block; that test is made at every vector, from the Ritz values
    wherever a Gershgorin bound on the largest |theta| does not rule it
    out. A block grown from a random vector then holds the largest
    eigenvalue of the space it was drawn from, and the iteration
    returns. A block grown from ``v0`` may sit inside an invariant
    subspace that misses the largest eigenvalue, so the iteration goes
    on once from a seeded random vector orthogonal to the basis, as
    ARPACK's restart does. The estimate is the largest Ritz value over
    all blocks, tested on the block still growing. Raises
    NonConvergenceError once the basis would exceed
    ``LANCZOS_MAX_VECTORS`` vectors.
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

    # Rows are touched only as the basis grows, so the pages of an unused
    # tail are never mapped.
    V = np.empty((min(dim, LANCZOS_MAX_VECTORS), dim))
    # The tridiagonal matrix of the basis, written one entry per vector;
    # the block still growing is T[first:j + 1, first:j + 1].
    T = np.zeros((len(V) + 1, len(V) + 1))
    first = 0
    done = -math.inf            # largest Ritz value of the closed block
    # The largest |diagonal| and |off-diagonal| entries of the block:
    # twice their sum bounds its largest |theta| with room for rounding.
    amax = bmax = 0.0
    random_block = v0 is None
    q = rng.standard_normal(dim) if random_block else np.asarray(v0, float)
    q = q / np.linalg.norm(q)
    for j in range(len(V)):
        V[j] = q
        r = np.asarray(hvp(q), float)
        basis = V[:j + 1]
        c = basis @ r
        r = r - c @ basis
        c2 = basis @ r
        r = r - c2 @ basis
        T[j, j] = c[j] + c2[j]
        b = float(np.linalg.norm(r))
        amax = max(amax, abs(float(T[j, j])))
        size = j + 1 - first
        if (j + 1 == dim or b <= tol * max(_EPS23, 2.0 * (amax + 2.0 * bmax))
                or (size >= _RITZ_FROM and (size - _RITZ_FROM) % _RITZ_EVERY == 0)):
            theta, S = np.linalg.eigh(T[first:j + 1, first:j + 1])
            top = max(done, float(theta[-1]))
            if j + 1 == dim:
                return top
            if b <= tol * max(_EPS23, float(np.max(np.abs(theta)))):    # breakdown
                if random_block:
                    return top
                done, first, random_block = top, j + 1, True
                amax = bmax = 0.0
                q = rng.standard_normal(dim)
                for _ in range(2):
                    q = q - (basis @ q) @ basis
                q = q / np.linalg.norm(q)
                continue
            if abs(b * S[-1, -1]) <= tol * max(_EPS23, abs(float(theta[-1]))):
                return top
        T[j, j + 1] = T[j + 1, j] = b
        bmax = max(bmax, b)
        q = r / b
    raise NonConvergenceError(
        f"lambda_max_iter: not converged to tol {tol:g} within "
        f"{LANCZOS_MAX_VECTORS} Lanczos vectors")
