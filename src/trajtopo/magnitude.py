"""Weightings and positive magnitude of scaled finite metric spaces.

For a distance matrix D and scale s > 0, the similarity matrix is
Z[a, b] = exp(-s * D[a, b]). The weighting gamma solves Z gamma = 1;
positive magnitude is the sum of the positive parts of gamma, and plain
magnitude the full sum. Z is symmetric positive definite for distinct
Euclidean points, so gamma comes from a Cholesky factorization with one
step of iterative refinement when its residual is above the tolerance.

The solve holds one m x m buffer. It is Z with every entry below 2^-511
zeroed, not only those below the smallest normal double (`tiny`), as in
`similarity_matrix`: the product of two kept entries is then a normal
number, and the factorization multiplies no subnormals, which are slow.
A dropped entry changes Z gamma by at most m * 2^-511 * max|gamma|, far
below the residual tolerance. LAPACK factors the buffer in place, in its
lower triangle and diagonal; the strict upper triangle still holds Z, and
Z's diagonal is 1, so the residual copies Z's rows out of the buffer 64 at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import InvalidInputError, NumericalFailureError, check_positive
from .geometry import DistanceMatrix

RESIDUAL_TOL = 1e-10

# entries below the smallest positive normal double are flushed to zero,
# which preserves SPD structure and avoids denormal slowdowns
_UNDERFLOW = np.finfo(np.float64).tiny
# the entries of the factored buffer are zero below this floor, so that
# the product of two of them is at least tiny
_FACTOR_FLOOR = 2.0 ** -511
# rows of Z copied at a time for the residual of a solve
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
    """Weighting vector gamma, with its residual ||Z gamma - 1||_inf."""

    gamma: np.ndarray
    residual: float

    @property
    def magnitude(self) -> float:
        return float(self.gamma.sum())

    @property
    def pmag(self) -> float:
        return float(np.maximum(self.gamma, 0.0).sum())


def _similarity(dist: DistanceMatrix, s: float, floor: float) -> np.ndarray:
    """exp(-s * D) in a new array, with the entries below `floor` zero."""
    if not 0 < s < np.inf:
        raise InvalidInputError(f"scale must be finite and > 0, got {s}")
    # exp in the same buffer, skipped where it is below floor / e, where
    # numpy's exp is slow; the flush zeroes a skipped entry as it would its
    # exp, an overflowing -s*d (-inf) included
    with np.errstate(over="ignore"):
        z = np.multiply(dist.values, -s)
    np.exp(z, out=z, where=z >= float(np.log(floor)) - 1.0)
    z[z < floor] = 0.0
    return z


def similarity_matrix(dist: DistanceMatrix, s: float) -> np.ndarray:
    """Z at scale s, with the entries below tiny zero."""
    return _similarity(dist, s, _UNDERFLOW)


def _residual(z: np.ndarray, gamma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - Z gamma, for the buffer `z` after `dpotrf`, 64 rows of Z at a
    time: a row's entries right of the diagonal are the buffer's, those
    left of it the buffer's column above the diagonal, and its diagonal
    entry is 1. A 64-row product gives the bits of the one-thread product
    (see `blas`)."""
    m = len(b)
    r = np.empty_like(b)
    block = np.empty((min(_RESIDUAL_ROWS, m), m))
    for start in range(0, m, _RESIDUAL_ROWS):
        stop = min(start + _RESIDUAL_ROWS, m)
        rows = block[: stop - start]
        rows[:, start:] = z[start:stop, start:]
        rows[:, :start] = z[:start, start:stop].T
        # the square on the diagonal holds the factor below its diagonal
        square = rows[:, start:stop]
        upper = np.triu(square, 1)
        np.add(upper, upper.T, out=square)
        np.fill_diagonal(square, 1.0)
        r[start:stop] = b[start:stop] - rows @ gamma
    return r


def _solve_direct(z: np.ndarray, dist: DistanceMatrix, s: float,
                  b: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky solve of Z gamma = b, for the similarity matrix of `dist`
    at scale `s` in `z`; returns gamma and its residual ||Z gamma - b||_inf.
    The solve reads Z from `z` alone; `dist` and `s` define the system, so
    that a reference solve can take this one's place.

    Z is finite, and exactly symmetric because its distances are, so LAPACK
    factors z.T, its Fortran-ordered view, with no finiteness checks; it is
    factored in place, so `z` holds the factor of `scipy.linalg.cho_factor`
    afterwards, and the residual copies Z's rows out of it."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(z.T, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise NumericalFailureError(
            "similarity matrix is not positive definite; this usually means "
            "duplicate points survived deduplication or the distances are not Euclidean"
        )
    gamma = dpotrs(factor, b)[0]
    r = _residual(z, gamma, b)
    if np.abs(r).max() > RESIDUAL_TOL:
        # one step of iterative refinement with the existing factorization
        gamma = gamma + dpotrs(factor, r)[0]
        r = _residual(z, gamma, b)
    return gamma, float(np.abs(r).max())


def weighting(dist: DistanceMatrix, s: float, solver: str = "direct") -> WeightingSolution:
    """Solve Z gamma = 1 for the scaled space, to a residual
    ||Z gamma - 1||_inf of at most 1e-10.

    `solver` must be "direct", the one solver: the benchmark's tracer reads
    this argument by name, so the keyword stays until the tracer drops it.
    """
    if solver != "direct":
        raise InvalidInputError(f"unknown solver {solver!r}, expected 'direct'")
    m = len(dist)
    # the diagonal is zero and no entry is negative, so more than m
    # nonpositive entries means a zero off the diagonal
    if np.count_nonzero(dist.values <= 0) > m:
        raise InvalidInputError("distance matrix contains coincident points; deduplicate first")
    z = _similarity(dist, s, _FACTOR_FLOOR)
    # a threaded factor changes with the thread count, so every process of
    # a command solves at its start count, and `jobs` changes no byte
    with blas.full_threads():
        gamma, residual = _solve_direct(z, dist, s, np.ones(m))
    if residual > RESIDUAL_TOL:
        raise NumericalFailureError(
            f"weighting residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "check for near-duplicate points"
        )
    return WeightingSolution(gamma, residual)


def positive_magnitude(dist: DistanceMatrix, s: float) -> float:
    """Sum of the positive parts of the weighting at scale s."""
    return weighting(dist, s).pmag


def pmag_scale(lam: float, lipschitz: float, loss_bound: float, beta: float) -> float:
    """Scale schedule lam * L / (B * beta^(1/3)) used by the magnitude bound."""
    check_positive({"lambda": lam, "L": lipschitz, "B": loss_bound, "beta": beta})
    return lam * lipschitz * beta ** (-1.0 / 3.0) / loss_bound
