"""Generalization-bound evaluation.

Evaluates the two trajectory-complexity bounds (lifetime-sum and positive
magnitude variants), the Rademacher-complexity upper bounds they rest on,
and a Monte-Carlo/exhaustive Rademacher estimator used to verify those
inequalities numerically. Expectations over runs are replaced by sample
means over the supplied complexity samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .artifacts import LossMatrix, Trajectory
from .errors import InvalidInputError, NumericalFailureError
from .rng import stream
from .trainer import SyntheticTask, _block_rows

EXHAUSTIVE_LIMIT = 20
_SIGN_CHUNK = 1 << 14


@dataclass
class ConstantsEstimate:
    """Loss regularity constants: Lipschitz L, bound B, smoothness G."""

    lipschitz: float
    loss_bound: float
    smoothness: float | None = None
    source: str = "user_supplied"
    probes: int = 0

    def __post_init__(self) -> None:
        if self.lipschitz <= 0 or self.loss_bound <= 0:
            raise InvalidInputError("constants must be positive")
        if self.smoothness is not None and self.smoothness <= 0:
            raise InvalidInputError("smoothness must be positive when given")
        if self.source not in ("user_supplied", "empirical"):
            raise InvalidInputError(f"unknown source {self.source!r}")


@dataclass
class BoundResult:
    """Evaluated bound value together with the inputs that produced it."""

    theorem: str
    beta: float
    value: float
    inputs: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value < 0:
            raise InvalidInputError("bound value must be finite and nonnegative")


def kn_alpha(n: int, lipschitz: float, loss_bound: float, alpha: float) -> float:
    """Constant 2 (2 L sqrt(n) / B)^alpha in the lifetime-sum bound."""
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    if lipschitz <= 0 or loss_bound <= 0:
        raise InvalidInputError("L and B must be positive")
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    return 2.0 * (2.0 * lipschitz * np.sqrt(n) / loss_bound) ** alpha


def ealpha_bound(
    beta: float, loss_bound: float, k_const: float, ealpha_samples: list[float]
) -> BoundResult:
    """beta^(1/3) * (2 + 2B + 2B * mean(sqrt(2 log(1 + K * E)))) over samples."""
    if beta <= 0:
        raise InvalidInputError("beta must be positive")
    if loss_bound <= 0 or k_const <= 0:
        raise InvalidInputError("B and K must be positive")
    samples = np.asarray(ealpha_samples, dtype=np.float64)
    if samples.size == 0:
        raise InvalidInputError("need at least one complexity sample")
    if (samples < 0).any():
        raise InvalidInputError("lifetime sums must be nonnegative")
    mean_term = float(np.mean(np.sqrt(2.0 * np.log1p(k_const * samples))))
    value = beta ** (1.0 / 3.0) * (2.0 + 2.0 * loss_bound + 2.0 * loss_bound * mean_term)
    return BoundResult(
        theorem="ealpha",
        beta=beta,
        value=float(value),
        inputs={
            "B": loss_bound,
            "K": k_const,
            "samples": samples.size,
            "mean_sqrt_log": mean_term,
        },
    )


def pmag_bound(
    beta: float, loss_bound: float, lam: float, pmag_samples: list[float]
) -> BoundResult:
    """beta^(1/3) * (2 + lam*B + (2B/lam) * mean(log PMag)) over samples."""
    if beta <= 0:
        raise InvalidInputError("beta must be positive")
    if loss_bound <= 0 or lam <= 0:
        raise InvalidInputError("B and lambda must be positive")
    samples = np.asarray(pmag_samples, dtype=np.float64)
    if samples.size == 0:
        raise InvalidInputError("need at least one complexity sample")
    if (samples <= 0).any():
        raise InvalidInputError("magnitude samples must be positive")
    mean_log = float(np.mean(np.log(samples)))
    value = beta ** (1.0 / 3.0) * (
        2.0 + lam * loss_bound + (2.0 * loss_bound / lam) * mean_log
    )
    return BoundResult(
        theorem="pmag",
        beta=beta,
        value=float(value),
        inputs={"B": loss_bound, "lambda": lam, "samples": samples.size, "mean_log": mean_log},
    )


def _sign_patterns(start: int, count: int, n: int) -> np.ndarray:
    codes = np.arange(start, start + count, dtype=np.uint64)[:, None]
    bits = (codes >> np.arange(n, dtype=np.uint64)[None, :]) & 1
    return 2.0 * bits.astype(np.float64) - 1.0


def mc_rademacher(
    losses: np.ndarray, draws: int = 1000, seed: int = 0, mode: str = "monte_carlo"
) -> tuple[float, float]:
    """Rademacher complexity of a finite loss table.

    `losses[w, i]` is the loss of hypothesis w on sample i. Exhaustive mode
    averages the supremum over all 2^n sign patterns (exact, stderr 0);
    Monte-Carlo mode draws sign vectors from the (seed, "rademacher")
    stream and reports the standard error over draws.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 2 or losses.size == 0:
        raise InvalidInputError("loss table must be a nonempty 2-D array")
    n = losses.shape[1]
    if mode == "exhaustive":
        if n > EXHAUSTIVE_LIMIT:
            raise InvalidInputError(
                f"exhaustive mode supports n <= {EXHAUSTIVE_LIMIT}, got {n}"
            )
        total = 1 << n
        acc = 0.0
        for lo in range(0, total, _SIGN_CHUNK):
            count = min(_SIGN_CHUNK, total - lo)
            signs = _sign_patterns(lo, count, n)
            acc += float((signs @ losses.T).max(axis=1).sum())
        return acc / (total * n), 0.0
    if mode == "monte_carlo":
        if draws < 1:
            raise InvalidInputError("need at least one draw")
        rng = stream(seed, "rademacher")
        signs = rng.integers(0, 2, size=(draws, n)) * 2.0 - 1.0
        sups = (signs @ losses.T).max(axis=1) / n
        estimate = float(sups.mean())
        stderr = float(sups.std(ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
        return estimate, stderr
    raise InvalidInputError(f"unknown mode {mode!r}")


def lemma_rhs_ealpha(m: int, loss_bound: float, k_const: float, ealpha: float) -> float:
    """Rademacher upper bound B/sqrt(m) + B sqrt(2 log(1 + K * E) / m)."""
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if loss_bound <= 0 or k_const <= 0:
        raise InvalidInputError("B and K must be positive")
    if ealpha < 0:
        raise InvalidInputError("lifetime sum must be nonnegative")
    return float(
        loss_bound / np.sqrt(m) + loss_bound * np.sqrt(2.0 * np.log1p(k_const * ealpha) / m)
    )


def lemma_rhs_pmag(m: int, loss_bound: float, lam: float, pmag_at_scale: float) -> float:
    """Rademacher upper bound lam*B^2/(2m) + log(PMag)/lam.

    The magnitude argument must be evaluated at scale L * lam.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    if loss_bound <= 0 or lam <= 0:
        raise InvalidInputError("B and lambda must be positive")
    if pmag_at_scale < 1:
        raise InvalidInputError("positive magnitude of a nonempty space is >= 1")
    return float(lam * loss_bound**2 / (2.0 * m) + np.log(pmag_at_scale) / lam)


def _largest_jumps(values: np.ndarray) -> np.ndarray:
    """`np.abs(np.diff(values, axis=0)).max(axis=1)`, bit for bit, through
    one scratch buffer of a block of rows instead of two table-sized
    temporaries."""
    jumps = np.empty(len(values) - 1)
    rows = _block_rows(values.shape[1])
    scratch = np.empty((min(rows, len(jumps)), values.shape[1]))
    for start in range(0, len(jumps), rows):
        stop = min(start + rows, len(jumps))
        block = scratch[: stop - start]
        np.subtract(values[start + 1 : stop + 1], values[start:stop], out=block)
        np.abs(block, out=block)
        block.max(axis=1, out=jumps[start:stop])
    return jumps


def estimate_constants(
    task: SyntheticTask, traj: Trajectory, losses: LossMatrix
) -> ConstantsEstimate:
    """Empirical L (difference quotients along the trajectory) and B (max loss).

    The Lipschitz estimate is a lower bound on the true constant; consecutive
    iterate pairs closer than 1e-12 are skipped to avoid zero denominators.
    """
    if len(traj) < 2:
        raise InvalidInputError("need at least two iterates")
    if not np.array_equal(traj.iteration_ids, losses.iteration_ids):
        raise InvalidInputError("trajectory and loss matrix must cover the same iterations")
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    usable = steps >= 1e-12
    if not usable.any():
        raise NumericalFailureError(
            "all consecutive iterates coincide; Lipschitz estimate undefined"
        )
    quotients = _largest_jumps(losses.values)[usable] / steps[usable]
    lipschitz = float(quotients.max())
    if lipschitz <= 0:
        # constant loss along a moving trajectory; keep the estimate usable
        lipschitz = float(np.finfo(np.float64).tiny)
        warnings.warn("the loss is constant along the trajectory, so the empirical L is 0; "
                      f"L is set to the smallest positive double, {lipschitz!r}", stacklevel=2)
    return ConstantsEstimate(
        lipschitz=lipschitz,
        loss_bound=float(losses.values.max()),
        # the quadratic loss has gradient-Lipschitz constant 1
        smoothness=1.0 if task.kind == "quadratic" else None,
        source="empirical",
        probes=int(usable.sum()) * losses.values.shape[1],
    )
