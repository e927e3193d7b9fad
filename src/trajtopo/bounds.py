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
from .errors import InvalidInputError, check_positive
from .rng import stream
from .trainer import row_sup_distances

EXHAUSTIVE_LIMIT = 20
_SIGN_CHUNK = 1 << 14


@dataclass
class ConstantsEstimate:
    """A window's empirical Lipschitz constant L and loss bound B, which a
    grid cell keeps in its `RunRecord`; G is the task's `smoothness`."""

    lipschitz: float
    loss_bound: float

    def __post_init__(self) -> None:
        if self.lipschitz <= 0 or self.loss_bound <= 0:
            raise InvalidInputError("constants must be positive")


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
    check_positive({"L": lipschitz, "B": loss_bound})
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must lie in (0, 1], got {alpha}")
    return 2.0 * (2.0 * lipschitz * np.sqrt(n) / loss_bound) ** alpha


def _check_samples(samples: np.ndarray, in_range: np.ndarray, message: str) -> None:
    """Raise InvalidInputError with `message` and the first sample that is
    out of range or not finite; NaN fails every comparison."""
    bad = samples[~(in_range & (samples < np.inf))]
    if bad.size:
        raise InvalidInputError(f"{message}, got {float(bad[0])}")


def ealpha_bound(
    beta: float, loss_bound: float, k_const: float, ealpha_samples: list[float]
) -> BoundResult:
    """beta^(1/3) * (2 + 2B + 2B * mean(sqrt(2 log(1 + K * E)))) over samples."""
    check_positive({"beta": beta, "B": loss_bound, "K": k_const})
    samples = np.asarray(ealpha_samples, dtype=np.float64)
    if samples.size == 0:
        raise InvalidInputError("need at least one complexity sample")
    _check_samples(samples, samples >= 0, "lifetime sums must be finite and >= 0")
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
    check_positive({"beta": beta, "B": loss_bound, "lambda": lam})
    samples = np.asarray(pmag_samples, dtype=np.float64)
    if samples.size == 0:
        raise InvalidInputError("need at least one complexity sample")
    # the positive magnitude of a nonempty space is at least 1
    _check_samples(samples, samples >= 1, "magnitude samples must be finite and >= 1")
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
    check_positive({"B": loss_bound, "K": k_const})
    if not 0 <= ealpha < np.inf:
        raise InvalidInputError(f"lifetime sum must be finite and >= 0, got {ealpha}")
    return float(
        loss_bound / np.sqrt(m) + loss_bound * np.sqrt(2.0 * np.log1p(k_const * ealpha) / m)
    )


def lemma_rhs_pmag(m: int, loss_bound: float, lam: float, pmag_at_scale: float) -> float:
    """Rademacher upper bound lam*B^2/(2m) + log(PMag)/lam.

    The magnitude argument must be evaluated at scale L * lam.
    """
    if m < 1:
        raise InvalidInputError("m must be >= 1")
    check_positive({"B": loss_bound, "lambda": lam})
    # the positive magnitude of a nonempty space is at least 1
    if not 1 <= pmag_at_scale < np.inf:
        raise InvalidInputError(f"positive magnitude must be finite and >= 1, got {pmag_at_scale}")
    return float(lam * loss_bound**2 / (2.0 * m) + np.log(pmag_at_scale) / lam)


def estimate_constants(traj: Trajectory, losses: LossMatrix) -> ConstantsEstimate:
    """Empirical L (difference quotients along the trajectory) and B (max loss).

    The Lipschitz estimate is a lower bound on the true constant; consecutive
    iterate pairs closer than 1e-12 are skipped to avoid zero denominators.
    An L of 0 (no such pair, or a constant loss) becomes the smallest
    positive double, with a warning.
    """
    if len(traj) < 2:
        raise InvalidInputError("need at least two iterates")
    if not np.array_equal(traj.iteration_ids, losses.iteration_ids):
        raise InvalidInputError("trajectory and loss matrix must cover the same iterations")
    steps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
    usable = steps >= 1e-12
    quotients = row_sup_distances(losses.values[1:], losses.values[:-1])[usable] / steps[usable]
    lipschitz = float(quotients.max(initial=0.0))
    if lipschitz <= 0:
        lipschitz = float(np.finfo(np.float64).tiny)
        warnings.warn("the window never moves or its loss is constant along it, so the "
                      f"empirical L is 0; L is set to the smallest positive double, {lipschitz!r}",
                      stacklevel=2)
    return ConstantsEstimate(lipschitz=lipschitz, loss_bound=float(losses.values.max()))
