"""Weightings and positive magnitude of scaled finite metric spaces.

For a distance matrix D and scale s > 0, the similarity matrix is
Z[a, b] = exp(-s * D[a, b]). The weighting gamma solves Z gamma = 1;
positive magnitude is the sum of the positive parts of gamma, and plain
magnitude the full sum. Z is symmetric positive definite for distinct
Euclidean points, so a Cholesky factorization and a conjugate-gradient
Krylov solver are both applicable and double-check each other. The
direct solve holds one m x m buffer: Z is factored in place, and the
residual rebuilds Z from the distances 64 rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import InvalidInputError, NumericalFailureError
from .geometry import DistanceMatrix

SOLVERS = ("direct", "conjugate_gradient")
RESIDUAL_TOL = 1e-10
CG_RELATIVE_TOL = 1e-12
CG_MAX_ITER_FACTOR = 10

# entries below the smallest positive normal double are flushed to zero,
# which preserves SPD structure and avoids denormal slowdowns
_UNDERFLOW = np.finfo(np.float64).tiny
# exp(x) < tiny / e for x below this cut, so _similarity skips exp there
_EXP_CUT = float(np.log(_UNDERFLOW)) - 1.0
# rows of Z rebuilt at a time for the residual of a direct solve
_RESIDUAL_ROWS = 64


def scale_grid(scales) -> tuple[float, ...]:
    """The distinct scales in increasing order, each finite and positive."""
    grid = tuple(float(s) for s in sorted(set(scales)))
    if not grid:
        raise InvalidInputError("scale grid must be nonempty")
    if not all(0 < s < np.inf for s in grid):
        raise InvalidInputError(f"scales must be finite and positive, got {grid}")
    return grid


@dataclass
class WeightingSolution:
    """Weighting vector gamma, with solve diagnostics."""

    gamma: np.ndarray
    residual: float
    solver: str
    iterations: int

    @property
    def magnitude(self) -> float:
        return float(self.gamma.sum())

    @property
    def pmag(self) -> float:
        return float(np.maximum(self.gamma, 0.0).sum())


def _similarity(values: np.ndarray, s: float) -> np.ndarray:
    """exp(-s * values) in a new array, with the entries below tiny zero."""
    # exp in the same buffer, skipped below the cut, where numpy's exp is
    # slow; the flush zeroes a skipped entry as it would its exp, an
    # overflowing -s*d (-inf) included
    with np.errstate(over="ignore"):
        z = np.multiply(values, -s)
    np.exp(z, out=z, where=z >= _EXP_CUT)
    z[z < _UNDERFLOW] = 0.0
    return z


def similarity_matrix(dist: DistanceMatrix, s: float) -> np.ndarray:
    if not 0 < s < np.inf:
        raise InvalidInputError(f"scale must be finite and > 0, got {s}")
    return _similarity(dist.values, s)


def _residual(dist: DistanceMatrix, s: float, gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - Z gamma, with Z rebuilt from the distances 64 rows at a time: its
    buffer holds the factor by then, and a 64-row product gives the bits of
    the one-thread product (see `blas`)."""
    r = np.empty_like(b)
    for start in range(0, len(b), _RESIDUAL_ROWS):
        rows = slice(start, start + _RESIDUAL_ROWS)
        r[rows] = b[rows] - _similarity(dist.values[rows], s) @ gamma
    return r


def _solve_direct(z: np.ndarray, dist: DistanceMatrix, s: float,
                  b: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky solve of Z gamma = b, for Z = similarity_matrix(dist, s) in
    `z`; returns gamma and its residual ||Z gamma - b||_inf.

    Z is finite, and exactly symmetric because its distances are, so LAPACK
    factors z.T, its Fortran-ordered view, with no finiteness checks; it is
    factored in place, so `z` holds the factor of `scipy.linalg.cho_factor`
    afterwards, and the residual rebuilds Z's rows from `dist`."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(z.T, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise NumericalFailureError(
            "similarity matrix is not positive definite; this usually means "
            "duplicate points survived deduplication or the distances are not Euclidean"
        )
    gamma = dpotrs(factor, b)[0]
    r = _residual(dist, s, gamma, b)
    if np.abs(r).max() > RESIDUAL_TOL:
        # one step of iterative refinement with the existing factorization
        gamma = gamma + dpotrs(factor, r)[0]
        r = _residual(dist, s, gamma, b)
    return gamma, float(np.abs(r).max())


def _solve_cg(z: np.ndarray, b: np.ndarray, max_iter: int) -> tuple[np.ndarray, int, bool]:
    """Preconditioned conjugate gradient; diag(Z) = 1 makes the Jacobi
    preconditioner the identity. Returns (x, iterations, converged)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    threshold = CG_RELATIVE_TOL * float(np.linalg.norm(b))
    for k in range(1, max_iter + 1):
        zp = z @ p
        curvature = float(p @ zp)
        if curvature <= 0:
            return x, k, False
        alpha = rr / curvature
        x += alpha * p
        r -= alpha * zp
        rr_new = float(r @ r)
        if np.sqrt(rr_new) <= threshold:
            return x, k, True
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, max_iter, False


def weighting(dist: DistanceMatrix, s: float, solver: str = "direct") -> WeightingSolution:
    """Solve Z gamma = 1 for the scaled space.

    The conjugate-gradient path falls back to the dense factorization when
    it does not reach its relative-residual target within 10*m iterations,
    or when its true residual exceeds the tolerance. Either way the returned
    residual ||Z gamma - 1||_inf is at most 1e-10.
    """
    if solver not in SOLVERS:
        raise InvalidInputError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
    m = len(dist)
    # the diagonal is zero and no entry is negative, so more than m
    # nonpositive entries means a zero off the diagonal
    if np.count_nonzero(dist.values <= 0) > m:
        raise InvalidInputError("distance matrix contains coincident points; deduplicate first")
    z = similarity_matrix(dist, s)
    b = np.ones(m)

    iterations = 0
    # a threaded factor or matrix-vector product changes with the thread
    # count, so every process of a command solves at its start count, and
    # `jobs` changes no byte
    with blas.full_threads():
        if solver == "conjugate_gradient":
            gamma, iterations, converged = _solve_cg(z, b, CG_MAX_ITER_FACTOR * m)
            # CG stops on its recursively updated residual; the true one decides
            residual = float(np.abs(z @ gamma - b).max()) if converged else np.inf
            if residual <= RESIDUAL_TOL:
                return WeightingSolution(gamma, residual, solver, iterations)
        gamma, residual = _solve_direct(z, dist, s, b)
    if residual > RESIDUAL_TOL:
        raise NumericalFailureError(
            f"weighting residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "check for near-duplicate points"
        )
    return WeightingSolution(gamma, residual, "direct", iterations)


def positive_magnitude(dist: DistanceMatrix, s: float, solver: str = "direct") -> float:
    """Sum of the positive parts of the weighting at scale s."""
    return weighting(dist, s, solver=solver).pmag


def pmag_scale(lam: float, lipschitz: float, loss_bound: float, beta: float) -> float:
    """Scale schedule lam * L / (B * beta^(1/3)) used by the magnitude bound."""
    if lam <= 0 or lipschitz <= 0 or loss_bound <= 0 or beta <= 0:
        raise InvalidInputError("pmag_scale arguments must all be positive")
    return lam * lipschitz * beta ** (-1.0 / 3.0) / loss_bound
