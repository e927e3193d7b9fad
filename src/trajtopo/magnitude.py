"""Weightings and positive magnitude of scaled finite metric spaces.

For a distance matrix D and scale s > 0, the similarity matrix is
Z[a, b] = exp(-s * D[a, b]). The weighting gamma solves Z gamma = 1;
positive magnitude is the sum of the positive parts of gamma, and plain
magnitude the full sum. Z is symmetric positive definite for distinct
Euclidean points, so a Cholesky factorization and a conjugate-gradient
Krylov solver are both applicable and double-check each other.
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
# exp(x) < tiny / e for x below this cut, so similarity_matrix skips exp there
_EXP_CUT = float(np.log(_UNDERFLOW)) - 1.0


@dataclass
class ScaleGrid:
    """Strictly increasing positive scales for magnitude sweeps."""

    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        self.scales = tuple(float(s) for s in self.scales)
        if not self.scales:
            raise InvalidInputError("scale grid must be nonempty")
        if not all(0 < s < np.inf for s in self.scales):
            raise InvalidInputError(f"scales must be finite and positive, got {self.scales}")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise InvalidInputError("scales must be strictly increasing")


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


def similarity_matrix(dist: DistanceMatrix, s: float) -> np.ndarray:
    if not 0 < s < np.inf:
        raise InvalidInputError(f"scale must be finite and > 0, got {s}")
    # exp in the same buffer, skipped below the cut, where numpy's exp is
    # slow; the flush zeroes a skipped entry as it would its exp, an
    # overflowing -s*d (-inf) included
    with np.errstate(over="ignore"):
        z = np.multiply(dist.values, -s)
    np.exp(z, out=z, where=z >= _EXP_CUT)
    z[z < _UNDERFLOW] = 0.0
    return z


def _solve_direct(z: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky solve; returns gamma and its residual ||Z gamma - b||_inf.

    Z is finite, and exactly symmetric because its distances are, so LAPACK
    factors z.T, its Fortran-ordered view, with no finiteness checks and no
    transposing copy; the factor is the one of `scipy.linalg.cho_factor`."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(z.T, lower=0, clean=0)
    if info > 0:
        raise NumericalFailureError(
            "similarity matrix is not positive definite; this usually means "
            "duplicate points survived deduplication or the distances are not Euclidean"
        )
    gamma = dpotrs(factor, b)[0]
    r = b - z @ gamma
    if np.abs(r).max() > RESIDUAL_TOL:
        # one step of iterative refinement with the existing factorization
        gamma = gamma + dpotrs(factor, r)[0]
        r = b - z @ gamma
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
        gamma, residual = _solve_direct(z, b)
    if residual > RESIDUAL_TOL:
        raise NumericalFailureError(
            f"weighting residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "check for near-duplicate points"
        )
    return WeightingSolution(gamma, residual, "direct", iterations)


def positive_magnitude(dist: DistanceMatrix, s: float, solver: str = "direct") -> float:
    """Sum of the positive parts of the weighting at scale s."""
    return weighting(dist, s, solver=solver).pmag


def magnitude_profile(
    dist: DistanceMatrix, scales: ScaleGrid, solver: str = "direct"
) -> dict[float, WeightingSolution]:
    """Weighting solutions across a scale grid, keyed by scale."""
    return {s: weighting(dist, s, solver=solver) for s in scales.scales}


def pmag_scale(lam: float, lipschitz: float, loss_bound: float, beta: float) -> float:
    """Scale schedule lam * L / (B * beta^(1/3)) used by the magnitude bound."""
    if lam <= 0 or lipschitz <= 0 or loss_bound <= 0 or beta <= 0:
        raise InvalidInputError("pmag_scale arguments must all be positive")
    return lam * lipschitz * beta ** (-1.0 / 3.0) / loss_bound
