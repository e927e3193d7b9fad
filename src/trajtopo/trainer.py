"""Desk-scale training-data generator.

Synthetic tasks with hand-coded gradients, projected single-index SGD,
dataset perturbation for stability experiments, and vectorized loss-matrix
evaluation. Every stochastic choice draws from a stream derived from
(seed, purpose tag), so runs are bit-reproducible across platforms and the
batch-index stream can be shared between a run and its perturbed twin.

A `Dataset(samples, ids)` reads its size `n` from its samples, and
`perturb_dataset(data, pool, J, seed)` holds every check of its arguments.

`projected_sgd_stack` trains R lockstep runs of one task: runs that share
the iteration count, step, step rule, radius and batch size, and may
differ in dataset, seed, stream tag and start point, such as a run and its
perturbed twin, or every (n, seed) of one (eta, batch) group of grid
cells.

There are two step paths, picked by R, because each is the faster one
where it runs. A stack of R >= 2 runs steps as one (R, p) array, one
numpy call per operation for all R runs instead of R calls. A lone run
(`projected_sgd`, and any stack of one run) steps on 1-D rows: the task's
one-run kernel `mean_gradient`, the step scaled and subtracted in place,
and a norm from one BLAS dot; the logistic kernel of a one-sample batch
takes its margin by one BLAS dot and its sigmoid in Python floats. Both
paths share the chunked batch draws, the kept window and the non-finite
check. A run's rows are bit-identical whether it trains alone or in any
stack: each operation on a row is elementwise, or a BLAS dot or matrix
product over that run's own slices (a task's `stack_gradient`,
`row_norms`), which numpy issues run by run with the arguments a run
alone would pass, and the lone path makes the same dots and rounds each
scalar as the stacked arrays do.
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
# the most samples a probe set holds: each split of a grid cell's loss
# matrices, and each seed's probe set in a stability experiment
PROBE_SIZE = 500


class SyntheticTask:
    """Loss/gradient pair over parameter vectors and samples.

    A sample is a row of length input_dim + 1: features followed by a
    label (the label column is unused by the quadratic task). Losses are
    nonnegative by construction for every task.
    """

    kind: str
    # the gradient-Lipschitz constant G of the loss, where it is known
    smoothness: float | None = None

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self.param_dim = input_dim

    def mean_gradient(self, w: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Mean gradient over the (B, input_dim + 1) `batch` at `w`, the
        kernel of a lone run's step: the one-run view of `stack_gradient`,
        unless a task overrides it with a kernel that gives the same bits."""
        return self.stack_gradient(w[None, :], batch[None])[0]

    def stack_gradient(self, w: np.ndarray, batches: np.ndarray) -> np.ndarray:
        """Mean gradients of R runs, shape (R, p), at the rows of `w`, each
        over its own (B, input_dim + 1) block of `batches`. Row r depends on
        w[r] and batches[r] alone, through elementwise operations, sums over
        that run's axes and stacked matrix products, which numpy computes
        run by run; so it does not change with R."""
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
    smoothness = 1.0

    def stack_gradient(self, w, batches):
        return w - batches[:, :, : self.input_dim].mean(axis=1)

    def loss_table(self, iterates, samples):
        from scipy.spatial.distance import cdist

        table = cdist(iterates, samples[:, : self.input_dim], metric="sqeuclidean")
        table *= 0.5
        return table


class LogisticTask(SyntheticTask):
    """Binary logistic loss log(1 + exp(-y <w, x>)) with label y in {-1, +1}."""

    kind = "logistic_regression"

    def stack_gradient(self, w, batches):
        x = batches[:, :, : self.input_dim]
        neg_y = -batches[:, :, self.input_dim :]
        # (R, B, 1) margins, then (R, 1, d) sums weighted by -y s: the sum
        # with -y is the negated sum with y, bit for bit
        s = self._expit(neg_y * (x @ w[:, :, None]))
        return ((neg_y * s).transpose(0, 2, 1) @ x)[:, 0] / batches.shape[1]

    def mean_gradient(self, w, batch):
        """For one sample, the stacked kernel's operations on Python floats
        and 1-D arrays, bit for bit: a BLAS dot for the margin, scipy's
        `expit` as 1 / (1 + exp(-z)), which is 0.0 where exp overflows, and
        the sample scaled by -y s (a mean over one sample divides by 1).
        Adding 0.0 turns a -0.0 product into the +0.0 that the stacked
        matrix product's sum gives."""
        if len(batch) != 1:
            return super().mean_gradient(w, batch)
        x = batch[0, : self.input_dim]
        neg_y = -float(batch[0, self.input_dim])
        z = neg_y * float(x.dot(w))
        try:
            s = 1.0 / (1.0 + math.exp(-z))
        except OverflowError:
            s = 0.0
        grad = x * (neg_y * s)
        grad += 0.0
        return grad

    def loss_table(self, iterates, samples):
        x = samples[:, : self.input_dim]
        y = samples[:, self.input_dim]
        return _margins_to_losses(iterates @ x.T, y)


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
        """Views of the layers of the rows of `w`, shape (R, p):
        W1 (R, h, d), b1 (R, h), w2 (R, h) and b2 (R,)."""
        d, h = self.input_dim, self.hidden
        w1 = w[:, : h * d].reshape(-1, h, d)
        b1 = w[:, h * d : h * d + h]
        w2 = w[:, h * d + h : h * d + 2 * h]
        b2 = w[:, -1]
        return w1, b1, w2, b2

    def _forward(self, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations (R, B, h) and outputs (R, B) of the rows of
        `w`, shape (R, p), on `x`: each run's own (B, d) block of an
        (R, B, d) array, or one (B, d) block for every run. The activations
        are formed in one buffer."""
        w1, b1, w2, b2 = self._unpack(w)
        act = x @ w1.transpose(0, 2, 1)
        act += b1[:, None, :]
        np.tanh(act, out=act)
        return act, (act @ w2[:, :, None])[:, :, 0] + b2[:, None]

    def stack_gradient(self, w, batches):
        x = batches[:, :, : self.input_dim]
        y = batches[:, :, self.input_dim]
        act, out = self._forward(w, x)
        w2 = self._unpack(w)[2]
        dout = -y * self._expit(-y * out) / batches.shape[1]
        dw2 = (act.transpose(0, 2, 1) @ dout[:, :, None])[:, :, 0]
        db2 = dout.sum(axis=1)
        dpre = (dout[:, :, None] * w2[:, None, :]) * (1.0 - act * act)
        dw1 = dpre.transpose(0, 2, 1) @ x
        db1 = dpre.sum(axis=1)
        return np.concatenate([dw1.reshape(len(w), -1), db1, dw2, db2[:, None]], axis=1)

    def loss_table(self, iterates, samples):
        """Losses in chunks of iterates, each chunk's activations held at
        once, so the peak stays near one table. Each iterate's products are
        the same BLAS calls as one at a time."""
        x = samples[:, : self.input_dim]
        table = np.empty((iterates.shape[0], samples.shape[0]))
        rows = _block_rows(samples.shape[0] * self.hidden)
        for start in range(0, iterates.shape[0], rows):
            table[start : start + rows] = self._forward(iterates[start : start + rows], x)[1]
        return _margins_to_losses(table, samples[:, self.input_dim])


@dataclass
class Dataset:
    """Sample matrix with persistent per-sample ids; `n` counts the samples.

    Ids identify samples across perturbation: a replaced sample carries the
    id of the pool sample injected in its place.
    """

    samples: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if len(self.samples) < 1 or self.ids.shape != self.samples.shape[:1]:
            raise InvalidInputError("dataset must hold n >= 1 samples with matching ids")
        if not np.isfinite(self.samples).all():
            raise InvalidInputError("dataset contains non-finite samples")

    @property
    def n(self) -> int:
        return len(self.samples)

    def take(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.samples[idx], self.ids[idx])


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
        if not self.radius > 0:
            raise InvalidInputError(f"projection radius must be positive, got {self.radius}")
        if not self.step >= 0:
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


def row_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of `w`: one BLAS dot per row, the same
    call as `math.sqrt(row @ row)`."""
    return np.sqrt(np.vecdot(w, w))


# bytes of each buffer that holds a chunk of steps (gathered samples,
# iterates) or a block of loss-table rows
_CHUNK_BYTES = 1 << 19
_SHARED_SETTINGS = ("iterations", "step", "step_rule", "radius", "batch")


def _block_rows(row_values: int) -> int:
    """The float64 rows of `row_values` entries each that fill one
    `_CHUNK_BYTES` buffer, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * max(1, row_values)))


def row_sup_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.abs(a - b).max(axis=1)` bit for bit, `b` possibly a broadcast
    view of `a`'s shape, a block of rows at a time through one scratch
    buffer of at most `_CHUNK_BYTES` instead of two table-sized temporaries."""
    out = np.empty(a.shape[0])
    rows = _block_rows(a.shape[1])
    scratch = np.empty((min(rows, len(out)), a.shape[1]))
    for start in range(0, len(out), rows):
        stop = min(start + rows, len(out))
        block = scratch[: stop - start]
        np.subtract(a[start:stop], b[start:stop], out=block)
        np.abs(block, out=block)
        block.max(axis=1, out=out[start:stop])
    return out


def _margins_to_losses(table: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Logistic losses log(1 + exp(-y m)) of the margins m in `table`, one
    column per label of `y`, written over the margins, which it returns.

    Each entry is softplus(t) = max(t, 0) + log1p(exp(-|t|)) of t = -y m,
    which numpy computes with SIMD `exp` and `log1p` kernels where the CPU
    has them. On every table measured it was within 3 ulp of
    `np.logaddexp(0, t)`, which numpy runs one element at a time through
    libm. Rows go a block at a time through one scratch buffer of at most
    `_CHUNK_BYTES`, so that the block stays in cache and the peak is one
    table and one block. Every operation is elementwise, so the bits do
    not depend on the block size.
    """
    neg_y = -y
    rows = _block_rows(table.shape[1])
    scratch = np.empty((min(rows, table.shape[0]), table.shape[1]))
    for start in range(0, table.shape[0], rows):
        block = table[start : start + rows]
        soft = scratch[: len(block)]
        block *= neg_y
        np.abs(block, out=soft)
        np.negative(soft, out=soft)
        np.exp(soft, out=soft)
        np.log1p(soft, out=soft)
        np.maximum(block, 0.0, out=block)
        block += soft
    return table


def _start_point(task: SyntheticTask, cfg: SGDConfig) -> np.ndarray:
    if cfg.w0 is None:
        return sample_in_ball(stream(cfg.seed, cfg.stream_tag, "init"), task.param_dim, cfg.radius)
    w = np.asarray(cfg.w0, dtype=np.float64)
    if w.shape != (task.param_dim,):
        raise InvalidInputError(f"w0 has shape {w.shape}, task expects ({task.param_dim},)")
    return w


def _shrink(radius: float, norm: float) -> float:
    """The factor that projects an iterate of norm `norm` > `radius` onto
    the ball. A finite iterate above about 1.3e154 has an infinite squared
    norm, and radius / inf would zero it: NaN makes it non-finite instead,
    so the chunk's check names that iteration as a numerical failure."""
    return radius / norm if norm < math.inf else math.nan


def _stacked_steps(task: SyntheticTask, w: np.ndarray, batches: np.ndarray,
                   iterates: np.ndarray, etas: list[float], radius: float) -> None:
    """Steps of R >= 2 runs, one numpy call per operation for all runs:
    from the (R, p) iterate `w`, step j writes iterates[j]."""
    delta = np.empty_like(w)
    for j, eta in enumerate(etas):
        np.multiply(eta, task.stack_gradient(w, batches[j]), out=delta)
        w = np.subtract(w, delta, out=iterates[j])
        for r, norm in enumerate(row_norms(w).tolist()):
            if norm > radius:
                w[r] *= _shrink(radius, norm)


def _lone_steps(task: SyntheticTask, w: np.ndarray, batches: np.ndarray,
                iterates: np.ndarray, etas: list[float], radius: float) -> None:
    """Steps of one run, on 1-D rows: the task's one-run kernel, the step
    scaled and subtracted in place, and one BLAS dot for the norm. Each
    operation rounds as its stacked counterpart does."""
    w, batches, iterates = w[0], batches[:, 0], iterates[:, 0]
    gradient = task.mean_gradient
    for j, eta in enumerate(etas):
        grad = gradient(w, batches[j])
        grad *= eta
        w = np.subtract(w, grad, out=iterates[j])
        norm = math.sqrt(w.dot(w))
        if norm > radius:
            w *= _shrink(radius, norm)


def _chunked_sgd(task: SyntheticTask, datasets: list[Dataset], cfgs: list[SGDConfig],
                 keep: int | None, steps_of_chunk) -> list[Trajectory]:
    """Projected SGD runs that share `_SHARED_SETTINGS`, stepped chunk by
    chunk by `steps_of_chunk` (`_stacked_steps` or `_lone_steps`).

    A chunk's batch indices are drawn and its samples gathered at once,
    and its iterates checked and the kept ones copied out, so that the
    buffers take at most about `_CHUNK_BYTES` each. A run whose iterates
    turn non-finite raises NumericalFailureError for the first such run in
    stack order, with the index of that run as the error's `run`.
    """
    first = cfgs[0]
    runs, steps, batch = len(cfgs), first.iterations, first.batch
    keep = steps + 1 if keep is None else keep
    if not 1 <= keep <= steps + 1:
        raise InvalidInputError(f"cannot keep {keep} of {steps + 1} iterates")
    skip = steps + 1 - keep  # iterates before the kept ones, the start point first
    # one array per run, so that each can be freed on its own
    points = [np.empty((keep, task.param_dim)) for _ in cfgs]
    w = np.array([_start_point(task, cfg) for cfg in cfgs])
    for r, out in enumerate(points):
        out[0] = w[r]  # overwritten when the start point is not kept
    draws = [stream(cfg.seed, cfg.stream_tag, "batch") for cfg in cfgs]
    cols = datasets[0].samples.shape[1]
    chunk = max(1, min(steps, _CHUNK_BYTES // (8 * runs * max(batch * cols, task.param_dim))))
    batches = np.empty((chunk, runs, batch, cols))
    iterates = np.empty((chunk, runs, task.param_dim))
    failed = np.zeros(runs, dtype=np.int64)  # each run's first non-finite iteration, or 0

    with np.errstate(over="ignore", invalid="ignore"):
        for begin in range(0, steps, chunk):
            size = min(chunk, steps - begin)
            for r, (g, data) in enumerate(zip(draws, datasets)):
                # drawing a run's batches in chunks gives the indices of one draw per step
                np.take(data.samples, g.integers(0, data.n, size=(size, batch)), axis=0,
                        out=batches[:size, r])
            etas = ([first.step] * size if first.step_rule == "constant"
                    else [first.step / k for k in range(begin + 1, begin + size + 1)])
            steps_of_chunk(task, w, batches, iterates, etas, first.radius)
            w = iterates[size - 1]
            # a non-finite gradient, an overflowing step or an overflowing
            # squared norm (`_shrink`) makes its iterate non-finite, and every
            # later one too (NaN passes the step and the projection), so one
            # check per chunk finds where it began
            bad = ~np.isfinite(iterates[:size]).all(axis=2)
            new = bad.any(axis=0) & (failed == 0)
            failed[new] = begin + 1 + bad[:, new].argmax(axis=0)
            low = max(begin + 1, skip)  # the chunk's first kept iteration
            if low <= begin + size:
                for r, out in enumerate(points):
                    out[low - skip : begin + size + 1 - skip] = iterates[low - begin - 1 : size, r]
    if failed.any():
        r = int(np.argmax(failed > 0))
        exc = NumericalFailureError(f"non-finite gradient at iteration {failed[r]}")
        exc.run = r
        raise exc

    return [
        Trajectory(points=points[r], iteration_ids=np.arange(skip, steps + 1), meta={
            "task": task.kind,
            "n": str(data.n),
            "eta": repr(float(cfg.step)),
            "batch": str(cfg.batch),
            "seed": str(cfg.seed),
            "iterations": str(cfg.iterations),
            "step_rule": cfg.step_rule,
            "radius": repr(float(cfg.radius)),
        })
        for r, (data, cfg) in enumerate(zip(datasets, cfgs))
    ]


def projected_sgd_stack(
    task: SyntheticTask, datasets: list[Dataset], cfgs: list[SGDConfig], keep: int | None = None
) -> list[Trajectory]:
    """Projected SGD runs of one task in lockstep, run r on `datasets[r]`
    under `cfgs[r]`: each trajectory is bit-identical to the run trained
    alone. The runs must share `_SHARED_SETTINGS`. Each trajectory holds
    the last `keep` of its iterations + 1 iterates (all by default), with
    their iteration ids. A run whose iterates turn non-finite raises
    NumericalFailureError for the first such run in stack order, with the
    index of that run as the error's `run`.

    A stack of one run is `projected_sgd`'s lone run; larger stacks step
    as one (R, p) array.
    """
    if not cfgs or len(datasets) != len(cfgs):
        raise InvalidInputError("a stack needs one dataset per SGD config, and at least one run")
    if len(cfgs) == 1:
        return [projected_sgd(task, datasets[0], cfgs[0], keep=keep)]
    first = cfgs[0]
    if any(getattr(c, k) != getattr(first, k) for c in cfgs for k in _SHARED_SETTINGS):
        raise InvalidInputError(f"runs in one stack must share {', '.join(_SHARED_SETTINGS)}")
    return _chunked_sgd(task, datasets, cfgs, keep, _stacked_steps)


def projected_sgd(task: SyntheticTask, data: Dataset, cfg: SGDConfig,
                  keep: int | None = None) -> Trajectory:
    """Single-index (or mini-batch) SGD with projection onto the radius ball.

    Returns the last `keep` of the iterations + 1 iterates (all by default,
    the starting point first), with their iteration ids. Batch indices
    come from the (seed, stream_tag, "batch") stream, so two runs with the
    same config share their algorithmic randomness regardless of the data
    they are trained on. A non-finite iterate raises NumericalFailureError
    naming its iteration.
    """
    return _chunked_sgd(task, [data], [cfg], keep, _lone_steps)[0]


def perturb_dataset(data: Dataset, pool: Dataset, J: int, seed: int) -> Dataset:
    """Replace J samples of `data`, at positions drawn from the (seed,
    "perturb") stream, with the first J samples of `pool`.

    The pool must be disjoint from the dataset (by sample id), and J at most
    the size of each. The output differs from `data` in exactly J positions.
    """
    if J < 0:
        raise InvalidInputError("replacement count must be >= 0")
    if J > pool.n:
        raise InvalidInputError(f"replacement count {J} exceeds pool size {pool.n}")
    if J > data.n:
        raise InvalidInputError(f"replacement count {J} exceeds dataset size {data.n}")
    if np.intersect1d(data.ids, pool.ids).size > 0:
        raise InvalidInputError("pool shares sample ids with the dataset")
    samples = data.samples.copy()
    ids = data.ids.copy()
    if J > 0:
        where = stream(seed, "perturb").choice(data.n, size=J, replace=False)
        samples[where] = pool.samples[:J]
        ids[where] = pool.ids[:J]
    return Dataset(samples, ids)


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
    class_sep: float = 1.0,
    noise: float = 1.0,
    hidden: int = 8,
) -> tuple[SyntheticTask, Dataset, Dataset]:
    """Build a task plus disjoint train and pool datasets from one stream.

    Generator: standard normal targets for the quadratic task; Gaussian
    class-conditional features (mean +/- class_sep/sqrt(d) per coordinate,
    noise scale `noise`) with labels in {-1, +1} for the classifiers. The
    pool holds max(n, 600) held-out samples for test risks, probe sets, injections.
    """
    if n < 1:
        raise InvalidInputError("need at least one training sample")
    task = make_task(kind, input_dim, hidden=hidden)
    total = n + max(n, 600)
    rng = stream(seed, "data")
    if kind == "quadratic":
        features = rng.standard_normal((total, input_dim))
        labels = np.zeros(total)
    else:
        labels = rng.integers(0, 2, size=total) * 2.0 - 1.0
        center = class_sep / np.sqrt(input_dim)
        features = center * labels[:, None] + noise * rng.standard_normal((total, input_dim))
    samples = np.hstack([features, labels[:, None]])
    train = Dataset(samples[:n], np.arange(n, dtype=np.int64))
    pool = Dataset(samples[n:], np.arange(n, total, dtype=np.int64))
    return task, train, pool
