"""Trajectory-stability estimation.

The empirical estimator compares two trajectories through their loss
matrices on a shared evaluation set: for each iterate of the first run it
finds the closest iterate of the second run under the worst-per-sample
loss difference, then reports the worst such match. The closed-form
companion gives the decay rate of projected SGD with decaying steps on
smooth Lipschitz losses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .artifacts import LossMatrix, Trajectory, csv_text
from .errors import InvalidInputError, check_fields
from .rng import stream
from .trainer import (
    PROBE_SIZE,
    Dataset,
    SGDConfig,
    SyntheticTask,
    loss_matrix,
    make_task,
    make_task_and_data,
    perturb_dataset,
    projected_sgd_stack,
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
# half-widths of the rings of twin rows that a row compares, outward from its
# twin step, before it compares the rest of the twin
_RINGS = (8, 64, 256)


def _directed_estimate(a: np.ndarray, b: np.ndarray) -> float:
    """Max over rows of `a` of the min over rows of `b` of the Chebyshev
    (worst-sample) distance, found without the full distance matrix.

    The distance from row i to row min(i, T'b - 1) of `b`, the twin run's
    iterate at the same step, bounds row i's minimum from above and is the
    very value `cdist` gives for that pair. Rows are visited by decreasing
    bound; the first whose bound is at most the running max ends the scan,
    since neither it nor any later row can raise the max. A visited row
    compares the twin's rows in rings of growing width around its twin step,
    each twin row once, and stops as soon as its running minimum is at most
    the running max: its true minimum is no larger, so it cannot raise the
    max either (the early breaks of Taha & Hanbury, TPAMI 2015). A row that
    compares the whole twin has its exact minimum, above the running max,
    which it becomes. Each distance is a max of |a - b| terms, and max and
    min involve no rounding, so the result equals the dense
    `cdist(a, b).min(axis=1).max()` bit for bit.
    """
    from scipy.spatial.distance import cdist

    last = b.shape[0] - 1
    twin = np.minimum(np.arange(a.shape[0]), last)
    # in blocks of rows, so that no temporary is as large as a loss matrix
    bounds = np.concatenate([
        np.abs(a[start : start + _BLOCK_ROWS] - b[twin[start : start + _BLOCK_ROWS]]).max(axis=1)
        for start in range(0, a.shape[0], _BLOCK_ROWS)
    ])
    best = 0.0
    for i in np.argsort(-bounds, kind="stable"):
        nearest = bounds[i]
        if nearest <= best:
            break
        lo = hi = twin[i]  # rows lo..hi of b are compared
        for width in _RINGS + (last,):
            ring_lo, ring_hi = max(twin[i] - width, 0), min(twin[i] + width, last)
            for ring in (b[ring_lo:lo], b[hi + 1 : ring_hi + 1]):
                if ring.shape[0]:
                    nearest = min(nearest, cdist(a[i : i + 1], ring, "chebyshev").min())
            lo, hi = ring_lo, ring_hi
            if nearest <= best:
                break
        else:
            best = nearest
    return float(best)


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
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise InvalidInputError(f"seeds must be a nonempty list of distinct values, "
                                    f"got {self.seeds}")
        if not 0 <= self.J <= self.n:
            raise InvalidInputError(f"replacement count {self.J} must lie in [0, n = {self.n}]")
        if self.eval_split == "train" and self.J >= self.n:
            # every training sample would be injected, leaving no probe
            raise InvalidInputError(f"replacement count J = {self.J} must be below n = {self.n}"
                                    " with eval_split 'train'")
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
    to `beta_hats`. The field order is the key order of its stored JSON
    (`artifacts.record_json`).
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


STABILITY_CSV_HEADER = "init_mode,eval_split,n,J,mean,stderr,seeds"


def stability_csv(reports: list[StabilityReport]) -> str:
    """The text of `stability.csv`: the header, then one row per report."""
    return csv_text(STABILITY_CSV_HEADER,
                    [[r.init_mode, r.eval_split, r.n, r.J, r.mean, r.stderr, len(r.seeds)]
                     for r in reports])


def _probe_set(
    cfg: StabilityConfig, seed: int, data_perturbed: Dataset, pool: Dataset, injected: np.ndarray
) -> Dataset:
    m = min(cfg.n, PROBE_SIZE)
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


def _twin_runs(cfg: StabilityConfig,
               task: SyntheticTask) -> tuple[list[Trajectory], list[Dataset]]:
    """Every seed's twin runs, in seed order, and its probe set. The
    `locally_converged` warm-ups of all seeds train as one stack, and then
    all twin runs as one; the training data is not kept."""
    datasets, probes = [], []
    for seed in cfg.seeds:
        _, data, pool = make_task_and_data(
            cfg.task, cfg.n, cfg.input_dim, seed,
            class_sep=cfg.class_sep, noise=cfg.noise, hidden=cfg.hidden,
        )
        perturbed = perturb_dataset(data, pool, cfg.J, seed)
        datasets += [data, perturbed]
        probes.append(_probe_set(cfg, seed, perturbed, pool, pool.ids[: cfg.J]))

    sgds = [cfg.sgd_config(seed) for seed in cfg.seeds]
    if cfg.init_mode == "locally_converged":
        warm = projected_sgd_stack(task, datasets[::2],
                                   [cfg.sgd_config(seed, warmup=True) for seed in cfg.seeds], keep=1)
        sgds = [replace(sgd, w0=run.points[0]) for sgd, run in zip(sgds, warm)]
    return projected_sgd_stack(task, datasets, [sgd for sgd in sgds for _ in range(2)]), probes


def run_stability_experiment(cfg: StabilityConfig) -> StabilityReport:
    """Estimate stability across seeds and aggregate mean and stderr.

    Each seed trains twin runs that differ only in J injected samples and
    share their start point and batch indices (the coupled runs of Hardt,
    Recht & Singer, ICML 2016), then compares their loss matrices on the
    seed's probe set, seed by seed.
    """
    task = make_task(cfg.task, cfg.input_dim, cfg.hidden)
    twins, probes = _twin_runs(cfg, task)
    raw = []
    for i, probe in enumerate(probes):
        losses_a = loss_matrix(task, twins[2 * i], probe, "probe")
        losses_b = loss_matrix(task, twins[2 * i + 1], probe, "probe")
        raw.append(estimate_stability(losses_a, losses_b,
                                      symmetrized=cfg.direction == "symmetrized"))
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
