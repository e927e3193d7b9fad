"""Desk-scale training-data generator.

Synthetic tasks with hand-coded gradients, projected single-index SGD,
dataset perturbation for stability experiments, and vectorized loss-matrix
evaluation. Every stochastic choice draws from a stream derived from
(seed, purpose tag), so runs are bit-reproducible across platforms and the
batch-index stream can be shared between a run and its perturbed twin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import LossMatrix, Trajectory
from .errors import InvalidInputError, NumericalFailureError
from .rng import stream

TASK_KINDS = ("quadratic", "logistic_regression", "small_mlp")
STEP_RULES = ("constant", "decaying")


class SyntheticTask:
    """Loss/gradient pair over parameter vectors and samples.

    A sample is a row of length input_dim + 1: features followed by a
    label (the label column is unused by the quadratic task). Losses are
    nonnegative by construction for every task.
    """

    kind: str
    input_dim: int
    param_dim: int

    def loss(self, w: np.ndarray, z: np.ndarray) -> float:
        return float(self.loss_table(w[None, :], z[None, :])[0, 0])

    def gradient(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.mean_gradient(w, z[None, :])

    def mean_gradient(self, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_table(self, iterates: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Vectorized losses, shape (iterates, samples)."""
        raise NotImplementedError

    @functools.cached_property
    def _expit(self):
        """scipy's logistic sigmoid, bound at the first gradient: building a
        task, which every config check does, then loads no scipy, and an
        SGD step runs no import statement."""
        from scipy.special import expit

        return expit


class QuadraticTask(SyntheticTask):
    """loss(w, z) = ||w - x||^2 / 2 with target x = z[:d]."""

    kind = "quadratic"

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.param_dim = input_dim

    def mean_gradient(self, w, batch):
        return w - batch[:, : self.input_dim].mean(axis=0)

    def loss_table(self, iterates, samples):
        from scipy.spatial.distance import cdist

        targets = samples[:, : self.input_dim]
        return 0.5 * cdist(iterates, targets, metric="sqeuclidean")


class LogisticTask(SyntheticTask):
    """Binary logistic loss log(1 + exp(-y <w, x>)) with label y in {-1, +1}."""

    kind = "logistic_regression"

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.param_dim = input_dim

    def mean_gradient(self, w, batch):
        x = batch[:, : self.input_dim]
        y = batch[:, self.input_dim]
        s = self._expit(-y * (x @ w))
        return -(x.T @ (y * s)) / len(batch)

    def loss_table(self, iterates, samples):
        x = samples[:, : self.input_dim]
        y = samples[:, self.input_dim]
        # one table-sized buffer, negated margins then losses: the peak is
        # one table instead of three
        table = iterates @ x.T
        table *= -y
        return np.logaddexp(0.0, table, out=table)


class SmallMLPTask(SyntheticTask):
    """One-hidden-layer tanh network with a logistic output loss.

    Parameters are packed as [W1 (h x d), b1 (h), w2 (h), b2 (1)].
    """

    kind = "small_mlp"

    def __init__(self, input_dim: int, hidden: int = 8):
        self.input_dim = input_dim
        self.hidden = hidden
        self.param_dim = hidden * input_dim + 2 * hidden + 1

    def _unpack(self, w: np.ndarray):
        d, h = self.input_dim, self.hidden
        w1 = w[: h * d].reshape(h, d)
        b1 = w[h * d : h * d + h]
        w2 = w[h * d + h : h * d + 2 * h]
        b2 = w[-1]
        return w1, b1, w2, b2

    def mean_gradient(self, w, batch):
        w1, b1, w2, b2 = self._unpack(w)
        x = batch[:, : self.input_dim]
        y = batch[:, self.input_dim]
        act = np.tanh(x @ w1.T + b1)
        out = act @ w2 + b2
        dout = -y * self._expit(-y * out) / len(batch)
        dw2 = act.T @ dout
        db2 = dout.sum()
        dpre = (dout[:, None] * w2[None, :]) * (1.0 - act * act)
        dw1 = dpre.T @ x
        db1 = dpre.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2, [db2]])

    def loss_table(self, iterates, samples):
        x = samples[:, : self.input_dim]
        y = samples[:, self.input_dim]
        out = np.empty((iterates.shape[0], samples.shape[0]))
        for t, w in enumerate(iterates):
            w1, b1, w2, b2 = self._unpack(w)
            out[t] = np.tanh(x @ w1.T + b1) @ w2 + b2
        return np.logaddexp(0.0, -out * y[None, :])


@dataclass
class Dataset:
    """Sample matrix with persistent per-sample ids.

    Ids identify samples across perturbation: a replaced sample carries the
    id of the pool sample injected in its place.
    """

    samples: np.ndarray
    n: int
    ids: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.n < 1 or self.samples.shape[0] != self.n or self.ids.shape != (self.n,):
            raise InvalidInputError("dataset must hold n >= 1 samples with matching ids")
        if not np.isfinite(self.samples).all():
            raise InvalidInputError("dataset contains non-finite samples")

    def take(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.samples[idx], len(idx), self.ids[idx])


@dataclass
class PerturbSpec:
    """Replace J samples with the first J entries of a disjoint pool."""

    J: int
    pool: Dataset
    seed: int

    def __post_init__(self) -> None:
        if self.J < 0:
            raise InvalidInputError("replacement count must be >= 0")
        if self.J > self.pool.n:
            raise InvalidInputError(f"replacement count {self.J} exceeds pool size {self.pool.n}")


@dataclass
class SGDConfig:
    """Settings of one projected-SGD run, and the one check of their ranges."""

    radius: float
    step: float
    iterations: int
    seed: int
    step_rule: str = "constant"
    batch: int = 1
    w0: np.ndarray | None = None
    stream_tag: str = "sgd"

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise InvalidInputError(f"projection radius must be positive, got {self.radius}")
        if self.step < 0:
            raise InvalidInputError(f"step constant must be nonnegative, got {self.step}")
        if self.step_rule not in STEP_RULES:
            raise InvalidInputError(f"unknown step rule {self.step_rule!r}")
        if self.iterations < 0:
            raise InvalidInputError(f"iteration count must be nonnegative, got {self.iterations}")
        if self.batch < 1:
            raise InvalidInputError(f"batch size must be >= 1, got {self.batch}")


def sample_in_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    """Uniform draw from the ball of the given radius."""
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    return radius * rng.uniform() ** (1.0 / dim) * direction


def projected_sgd(task: SyntheticTask, data: Dataset, cfg: SGDConfig) -> Trajectory:
    """Single-index (or mini-batch) SGD with projection onto the radius ball.

    Returns iterations + 1 rows including the starting point. Batch indices
    come from the (seed, stream_tag, "batch") stream, so two runs with the
    same config share their algorithmic randomness regardless of the data
    they are trained on.
    """
    if cfg.w0 is not None:
        w = np.asarray(cfg.w0, dtype=np.float64).copy()
        if w.shape != (task.param_dim,):
            raise InvalidInputError(
                f"w0 has shape {w.shape}, task expects ({task.param_dim},)"
            )
    else:
        w = sample_in_ball(stream(cfg.seed, cfg.stream_tag, "init"), task.param_dim, cfg.radius)

    # one draw of every batch gives the same indices as a draw per step
    batches = stream(cfg.seed, cfg.stream_tag, "batch").integers(
        0, data.n, size=(cfg.iterations, cfg.batch)
    )
    points = np.empty((cfg.iterations + 1, task.param_dim))
    points[0] = w
    # a non-finite gradient or an overflowing step makes its row non-finite,
    # and every later one too (NaN passes the step and the projection), so
    # one check after the loop finds the iteration where it first appeared
    with np.errstate(over="ignore", invalid="ignore"):
        for k, idx in enumerate(batches, start=1):
            grad = task.mean_gradient(w, data.samples[idx])
            eta = cfg.step if cfg.step_rule == "constant" else cfg.step / k
            w = w - eta * grad
            norm = math.sqrt(w @ w)
            if norm > cfg.radius:
                w *= cfg.radius / norm
            points[k] = w
    finite = np.isfinite(points[1:]).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise NumericalFailureError(f"non-finite gradient at iteration {k}")

    meta = {
        "task": task.kind,
        "n": str(data.n),
        "eta": repr(float(cfg.step)),
        "batch": str(cfg.batch),
        "seed": str(cfg.seed),
        "iterations": str(cfg.iterations),
        "step_rule": cfg.step_rule,
        "radius": repr(float(cfg.radius)),
    }
    return Trajectory(points=points, iteration_ids=np.arange(cfg.iterations + 1), meta=meta)


def tail_window(traj: Trajectory, rows: int) -> Trajectory:
    """Last `rows` iterates, preserving original iteration ids."""
    if rows < 1 or rows > len(traj):
        raise InvalidInputError(f"window of {rows} rows not available from {len(traj)}")
    return Trajectory(
        points=traj.points[-rows:],
        iteration_ids=traj.iteration_ids[-rows:],
        meta=dict(traj.meta),
    )


def perturb_dataset(data: Dataset, spec: PerturbSpec) -> Dataset:
    """Replace J samples at PRNG-chosen positions with pool entries.

    The pool must be disjoint from the dataset (by sample id). Replacement
    keeps every other sample in place, so the output differs from the input
    in exactly J positions.
    """
    if spec.J > data.n:
        raise InvalidInputError(f"replacement count {spec.J} exceeds dataset size {data.n}")
    if np.intersect1d(data.ids, spec.pool.ids).size > 0:
        raise InvalidInputError("pool shares sample ids with the dataset")
    samples = data.samples.copy()
    ids = data.ids.copy()
    if spec.J > 0:
        where = stream(spec.seed, "perturb").choice(data.n, size=spec.J, replace=False)
        samples[where] = spec.pool.samples[: spec.J]
        ids[where] = spec.pool.ids[: spec.J]
    return Dataset(samples=samples, n=data.n, ids=ids)


def loss_matrix(
    task: SyntheticTask, traj: Trajectory, eval_data: Dataset, split: str
) -> LossMatrix:
    """Losses of every iterate on every evaluation sample."""
    values = task.loss_table(traj.points, eval_data.samples)
    return LossMatrix(
        values=values,
        iteration_ids=traj.iteration_ids.copy(),
        sample_ids=eval_data.ids.copy(),
        split=split,
    )


def make_task(kind: str, input_dim: int, hidden: int = 8) -> SyntheticTask:
    """The task of `kind`; the one check of the task kind and its sizes."""
    if kind not in TASK_KINDS:
        raise InvalidInputError(f"unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    if input_dim < 1 or hidden < 1:
        raise InvalidInputError("input_dim and hidden must be >= 1")
    if kind == "quadratic":
        return QuadraticTask(input_dim)
    if kind == "logistic_regression":
        return LogisticTask(input_dim)
    return SmallMLPTask(input_dim, hidden=hidden)


def make_task_and_data(
    kind: str,
    n: int,
    input_dim: int,
    seed: int,
    pool_size: int | None = None,
    class_sep: float = 1.0,
    noise: float = 1.0,
    hidden: int = 8,
) -> tuple[SyntheticTask, Dataset, Dataset]:
    """Build a task plus disjoint train and pool datasets from one stream.

    Generator: standard normal targets for the quadratic task; Gaussian
    class-conditional features (mean +/- class_sep/sqrt(d) per coordinate,
    noise scale `noise`) with labels in {-1, +1} for the classifiers. The
    pool holds held-out samples for test risks, probes, and injections.
    """
    if n < 1:
        raise InvalidInputError("need at least one training sample")
    task = make_task(kind, input_dim, hidden=hidden)
    if pool_size is None:
        pool_size = max(n, 600)
    total = n + pool_size
    rng = stream(seed, "data")
    if kind == "quadratic":
        features = rng.standard_normal((total, input_dim))
        labels = np.zeros(total)
    else:
        labels = rng.integers(0, 2, size=total) * 2.0 - 1.0
        center = class_sep / np.sqrt(input_dim)
        features = center * labels[:, None] + noise * rng.standard_normal((total, input_dim))
    samples = np.hstack([features, labels[:, None]])
    train = Dataset(samples[:n], n, ids=np.arange(n, dtype=np.int64))
    pool = Dataset(samples[n:], pool_size, ids=np.arange(n, total, dtype=np.int64))
    return task, train, pool
