"""Trajectory-stability estimation.

The empirical estimator compares two trajectories through their loss
matrices on a shared evaluation set: for each iterate of the first run it
finds the closest iterate of the second run under the worst-per-sample
loss difference, then reports the worst such match. The closed-form
companion gives the decay rate of projected SGD with decaying steps on
smooth Lipschitz losses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .artifacts import LossMatrix
from .errors import InvalidInputError, check_fields
from .rng import stream
from .trainer import (
    Dataset,
    PerturbSpec,
    SGDConfig,
    loss_matrix,
    make_task,
    make_task_and_data,
    perturb_dataset,
    projected_sgd,
)

INIT_MODES = ("random_init", "locally_converged")
EVAL_SPLITS = ("train", "validation")
DIRECTIONS = ("directed", "symmetrized")


def default_injection_count(n: int) -> int:
    """50 replacements, scaled down proportionally for n below 100."""
    if n >= 100:
        return 50
    return max(1, (50 * n) // 100)


_BLOCK_ROWS = 64


def _directed_estimate(a: np.ndarray, b: np.ndarray) -> float:
    """Max over rows of `a` of the min over rows of `b` of the Chebyshev
    (worst-sample) distance, found without the full distance matrix.

    The distance from row i to row min(i, T'b - 1) of `b`, the twin run's
    iterate at the same step, bounds row i's minimum from above and is the
    very value `cdist` gives for that pair. Rows are visited by decreasing
    bound, in blocks; a row whose bound is at most the running max cannot
    raise it and is skipped, and the first block left empty ends the scan
    (early break as in Taha & Hanbury, TPAMI 2015). The result equals the
    dense `cdist(a, b).min(axis=1).max()` bit for bit.
    """
    twins = b[np.minimum(np.arange(a.shape[0]), b.shape[0] - 1)]
    bounds = np.abs(a - twins).max(axis=1)
    order = np.argsort(-bounds, kind="stable")
    best = 0.0
    for start in range(0, order.size, _BLOCK_ROWS):
        block = order[start : start + _BLOCK_ROWS]
        rows = block[bounds[block] > best]
        if rows.size == 0:
            break
        best = max(best, float(cdist(a[rows], b, "chebyshev").min(axis=1).max()))
    return best


def estimate_stability(
    losses_a: LossMatrix, losses_b: LossMatrix, symmetrized: bool = False
) -> float:
    """Worst-case best-match loss deviation between two trajectories.

    Directed by default (first trajectory is the reference); the
    symmetrized variant takes the larger of the two directions and
    dominates both.
    """
    if not np.array_equal(losses_a.sample_ids, losses_b.sample_ids):
        raise InvalidInputError("loss matrices must share the same evaluation samples")
    if losses_a.values.size == 0 or losses_b.values.size == 0:
        raise InvalidInputError("loss matrices must hold at least one iterate and one sample")
    value = _directed_estimate(losses_a.values, losses_b.values)
    if symmetrized:
        value = max(value, _directed_estimate(losses_b.values, losses_a.values))
    return value


def analytic_sgd_stability(
    lipschitz: float, smoothness: float, radius: float, step: float, n: int, iterations: int
) -> float:
    """Closed-form stability parameter of projected SGD with steps c/k.

    Requires c < 1/G (G the gradient-Lipschitz constant); decays like
    1/(n - 1) in the sample count and grows with the iteration budget.
    """
    if lipschitz <= 0 or smoothness <= 0 or radius <= 0 or step <= 0:
        raise InvalidInputError("constants must be positive")
    if step >= 1.0 / smoothness:
        raise InvalidInputError(
            f"step constant {step} must be below 1/G = {1.0 / smoothness}"
        )
    if n < 2:
        raise InvalidInputError("need n >= 2")
    if iterations < 0:
        raise InvalidInputError("iteration count must be nonnegative")
    if iterations == 0:
        return 0.0
    gc = smoothness * step
    exponent = gc / (gc + 1.0)
    k = np.arange(1, iterations + 1, dtype=np.float64)
    return (
        (4.0 * lipschitz * radius / (n - 1))
        * (lipschitz / (smoothness * radius)) ** (1.0 / (gc + 1.0))
        * float(np.sum(k**exponent))
    )


@dataclass
class StabilityConfig:
    """One stability experiment: task, perturbation size, and SGD settings.
    An unset `J` becomes `default_injection_count(n)`."""

    task: str
    n: int
    seeds: list[int]
    J: int | None = None
    input_dim: int = 8
    init_mode: str = "random_init"
    eval_split: str = "train"
    direction: str = "directed"
    radius: float = 10.0
    step: float = 0.05
    step_rule: str = "constant"
    iterations: int = 200
    converge_iterations: int = 400
    class_sep: float = 1.0
    noise: float = 1.0
    hidden: int = 8

    def __post_init__(self) -> None:
        check_fields(type(self), vars(self), "stability config")
        make_task(self.task, self.input_dim, self.hidden)
        if self.J is None:
            self.J = default_injection_count(self.n)
        if self.init_mode not in INIT_MODES:
            raise InvalidInputError(f"unknown init mode {self.init_mode!r}")
        if self.eval_split not in EVAL_SPLITS:
            raise InvalidInputError(f"unknown eval split {self.eval_split!r}")
        if self.direction not in DIRECTIONS:
            raise InvalidInputError(f"unknown direction {self.direction!r}")
        if not self.seeds:
            raise InvalidInputError("need at least one seed")
        if not 0 <= self.J <= self.n:
            raise InvalidInputError(f"replacement count {self.J} must lie in [0, n = {self.n}]")
        for warmup in (False, True):
            self.sgd_config(self.seeds[0], warmup)

    def sgd_config(self, seed: int, warmup: bool = False) -> SGDConfig:
        """The SGD settings of the twin runs of `seed`, or with `warmup` of
        the run whose last iterate starts them in `locally_converged` mode."""
        return SGDConfig(radius=self.radius, step=self.step, seed=seed, step_rule=self.step_rule,
                         iterations=self.converge_iterations if warmup else self.iterations,
                         stream_tag="warmup" if warmup else "window")


@dataclass
class StabilityReport:
    """Per-seed stability estimates with their aggregate.

    `raw_deviations` holds the max-min loss deviation of each seed pair;
    `beta_hats` divides it by the replacement count J, giving the
    per-replacement stability coefficient that the deviation is assumed to
    scale with (for J = 0 the two coincide at zero). Mean and stderr refer
    to `beta_hats`. The field order is the key order of `to_json`.
    """

    n: int
    J: int
    direction: str
    eval_split: str
    init_mode: str
    seeds: list[int]
    beta_hats: list[float]
    raw_deviations: list[float]
    mean: float
    stderr: float

    def __post_init__(self) -> None:
        check_fields(type(self), vars(self), "stability report")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def csv_row(self) -> str:
        return ",".join(
            [
                self.init_mode,
                self.eval_split,
                str(self.n),
                str(self.J),
                repr(self.mean),
                repr(self.stderr),
                str(len(self.seeds)),
            ]
        )


STABILITY_CSV_HEADER = "init_mode,eval_split,n,J,mean,stderr,seeds"


def stability_csv(reports: list[StabilityReport]) -> str:
    """The text of `stability.csv`: the header, then one row per report."""
    return "\n".join([STABILITY_CSV_HEADER] + [r.csv_row() for r in reports]) + "\n"


def _probe_set(
    cfg: StabilityConfig, seed: int, data_perturbed: Dataset, pool: Dataset, injected: np.ndarray
) -> Dataset:
    m = min(cfg.n, 500)
    if cfg.eval_split == "train":
        # evaluation samples live in the perturbed training set, minus the
        # injected ones, so both runs are probed on data they share
        picks = stream(seed, "probe").choice(cfg.n, size=m, replace=False)
        picks.sort()
        keep = picks[~np.isin(data_perturbed.ids[picks], injected)]
        if keep.size == 0:
            raise InvalidInputError("every probe sample was injected; decrease J")
        return data_perturbed.take(keep)
    start = cfg.J
    if start + m > pool.n:
        raise InvalidInputError("pool too small for validation probes")
    return pool.take(np.arange(start, start + m))


def run_single_seed(cfg: StabilityConfig, seed: int) -> float:
    """One Algorithm-style estimate: train twin runs differing only in J
    injected samples, then compare their loss matrices."""
    task, data, pool = make_task_and_data(
        cfg.task, cfg.n, cfg.input_dim, seed,
        class_sep=cfg.class_sep, noise=cfg.noise, hidden=cfg.hidden,
    )
    spec = PerturbSpec(J=cfg.J, pool=pool, seed=seed)
    data_perturbed = perturb_dataset(data, spec)
    injected = pool.ids[: cfg.J]

    sgd = cfg.sgd_config(seed)
    if cfg.init_mode == "locally_converged":
        warm = cfg.sgd_config(seed, warmup=True)
        sgd = replace(sgd, w0=projected_sgd(task, data, warm).points[-1])
    traj_a = projected_sgd(task, data, sgd)
    traj_b = projected_sgd(task, data_perturbed, sgd)

    probes = _probe_set(cfg, seed, data_perturbed, pool, injected)
    losses_a = loss_matrix(task, traj_a, probes, "probe")
    losses_b = loss_matrix(task, traj_b, probes, "probe")
    return estimate_stability(losses_a, losses_b, symmetrized=cfg.direction == "symmetrized")


def run_stability_experiment(cfg: StabilityConfig) -> StabilityReport:
    """Estimate stability across seeds and aggregate mean and stderr."""
    raw = [run_single_seed(cfg, seed) for seed in cfg.seeds]
    betas = [r / cfg.J if cfg.J > 0 else r for r in raw]
    arr = np.array(betas)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return StabilityReport(
        beta_hats=[float(b) for b in betas],
        raw_deviations=[float(r) for r in raw],
        seeds=list(cfg.seeds),
        mean=mean,
        stderr=stderr,
        n=cfg.n,
        J=cfg.J,
        direction=cfg.direction,
        eval_split=cfg.eval_split,
        init_mode=cfg.init_mode,
    )
