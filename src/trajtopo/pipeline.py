"""End-to-end experiment pipeline.

For every grid cell (n, eta, batch, seed): generate data, train projected
SGD, window and subsample the trajectory, compute the distance matrix and
both complexity statistics, and append a RunRecord. The cells that share
(eta, batch) train as one stack of every (n, seed), or with `jobs > 1` as
up to `jobs` stacks of consecutive cells, each cell bit-identical to one
trained alone. Cells run in the order (eta, batch, n, seed).
Optional stages add empirical stability estimates per sample size and
evaluate both generalization bounds. Reports are assembled
deterministically: two runs with the same config produce byte-identical
CSV/JSON outputs.

The cell stage runs in two phases around the stability stage, so that
each cell's distance matrix is built once per run. Phase A trains each
stack, computes each fresh cell's loss tables, gap, L and B, writes its
subsample and frees the tables. The stability stage then gives each
sample size its theorem scale, which needs β and the largest L and B of
that n's cells. Phase B reads each fresh cell's subsample back, builds
its distances once, and computes from them E^α, the configured PMags and
the PMag at the theorem scale; a stored cell that lacks the last at the
new scale goes through phase B for it alone. The bounds stage is then
arithmetic over the records.

A re-run into the same directory reuses what a config that shapes it the
same way stored, and recomputes the rest:
- a cell, when `cells/<id>/fingerprint` holds the SHA-256 of every config
  field that shapes the cell (all but `UNFINGERPRINTED`) with its own
  (n, eta, batch, seed) and the `CELL_LAYOUT` of its files;
- a stability report, stored as `stability/<SHA-256 of its
  StabilityConfig>.json`;
- a cell's PMag at the theorem scale, when `cells/<id>/theorem_pmag.json`
  holds it at the scale of the bound that is due.

Phase A writes a fresh cell's trajectory, after removing its fingerprint
and `theorem_pmag.json`. Phase B writes its record (its empirical L and B
included), then `theorem_pmag.json`, then the fingerprint last. Of a
stored cell's files it writes only `theorem_pmag.json`, when that lacks
the scale due, and removes it when the cell's n has no bound row. The
bounds stage opens no file. Each run then writes `run.json`, from which
`trajtopo report` runs the pipeline again with every one of these reuses
required to hit. Every file goes through `artifacts.write_file`, which
replaces it whole, so an interrupted run leaves no stored file cut short,
and a `run` removes the `*.partial` files that one left where runs write.
The report stage removes a report file only under a name that some run
writes and this config does not.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, blas, bounds, geometry, lifetime, magnitude, stability, trainer
from .analysis import THEOREM_KEY
from .artifacts import (LossMatrix, RunRecord, Trajectory, load_trajectory, read_json_object,
                        read_record, save_trajectory, write_file, write_record)
from .errors import InvalidInputError, NumericalFailureError, check_fields, from_json_object
from .rng import check_seed, stream


# The keys of a run's stability section. Each sample size's `StabilityConfig`
# takes the rest of its fields from the grid (`STABILITY_GRID_KEYS`) and its n.
STABILITY_SECTION_KEYS = ("J", "seeds", "init_mode", "eval_split", "direction", "iterations",
                          "converge_iterations", "step")
STABILITY_GRID_KEYS = ("task", "input_dim", "radius", "step_rule", "class_sep", "noise", "hidden",
                       "seeds")


@dataclass
class ExperimentConfig:
    """Declarative description of a full grid experiment.

    Every field can be set in a JSON config file under the same name and
    overridden from the command line. Construction checks every value, the
    stability section and the SGD settings of every cell included.
    """

    task: str = "quadratic"
    input_dim: int = 16
    n_grid: list[int] = field(default_factory=lambda: [100, 500, 1000, 5000, 10000])
    eta_grid: list[float] = field(default_factory=lambda: [0.05, 0.1])
    batch_grid: list[int] = field(default_factory=lambda: [1])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    iterations: int = 5000
    warmup: int = 0
    subsample: int = 1500
    radius: float = 10.0
    step_rule: str = "constant"
    alpha: float = 1.0
    pmag_scales: list[float] = field(default_factory=lambda: [100.0])
    theorem_lambda: float = 1.0
    stability: dict | None = None
    lipschitz: float | None = None
    loss_bound: float | None = None
    class_sep: float = 1.0
    noise: float = 1.0
    hidden: int = 8
    output_dir: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        check_fields(type(self), vars(self), "config")
        trainer.make_task(self.task, self.input_dim, self.hidden)
        for name in ("n_grid", "eta_grid", "batch_grid", "seeds", "pmag_scales"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise InvalidInputError(f"{name} must be a nonempty list of distinct values, "
                                        f"got {values}")
        for seed in self.seeds:
            check_seed(seed)
        if any(n < 1 for n in self.n_grid):
            raise InvalidInputError("sample sizes must be >= 1")
        if self.iterations < 1 or self.warmup < 0:
            raise InvalidInputError("iteration counts out of range")
        for eta in self.eta_grid:
            for batch in self.batch_grid:
                self.sgd_config(eta, batch, self.seeds[0])
        if self.subsample < 1:
            raise InvalidInputError("subsample size must be >= 1")
        if not 0 <= self.alpha:
            raise InvalidInputError("alpha must be nonnegative")
        if self.stability is not None and not 0 < self.alpha <= 1:
            # the bounds stage evaluates the lifetime-sum bound at this alpha
            raise InvalidInputError(
                f"alpha must lie in (0, 1] with a stability section, got {self.alpha}"
            )
        magnitude.scale_grid(self.pmag_scales)
        if self.theorem_lambda <= 0:
            raise InvalidInputError("theorem_lambda must be positive")
        if any(v is not None and v <= 0 for v in (self.lipschitz, self.loss_bound)):
            raise InvalidInputError("lipschitz and loss_bound must be positive when given")
        if self.jobs < 1:
            raise InvalidInputError("jobs must be >= 1")
        self.stability_configs()

    def sgd_config(self, eta: float, batch: int, seed: int) -> trainer.SGDConfig:
        """The SGD settings of the cell (eta, batch, seed): the warm-up and
        the recorded window in one run."""
        return trainer.SGDConfig(radius=self.radius, step=eta, seed=seed, batch=batch,
                                 iterations=self.warmup + self.iterations, step_rule=self.step_rule)

    def stability_configs(self) -> list[stability.StabilityConfig]:
        """One stability experiment per sample size, none without a
        stability section. Each takes the grid's `STABILITY_GRID_KEYS`, the
        first learning rate as `step`, then every key that the section sets,
        then its n; a null `seeds` or `step` keeps the grid's value, a null
        `J` the default."""
        section = self.stability
        if section is None:
            return []
        unknown = set(section) - set(STABILITY_SECTION_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown stability section keys: {sorted(unknown)}")
        doc = {k: getattr(self, k) for k in STABILITY_GRID_KEYS} | {"step": self.eta_grid[0]}
        doc |= {k: v for k, v in section.items() if v is not None or k not in ("seeds", "step")}
        return [from_json_object(stability.StabilityConfig, doc | {"n": n}, "stability section")
                for n in sorted(self.n_grid)]


def config_from_dict(doc: dict, what: str = "config") -> ExperimentConfig:
    """Build a run config, which checks itself, from a decoded JSON object;
    an error names the source `what`."""
    return from_json_object(ExperimentConfig, doc, what)


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path), f"config {path}")


def _slug(value: float) -> str:
    return repr(float(value)).replace(".", "p").replace("-", "m")


def cell_id(task: str, n: int, eta: float, batch: int, seed: int) -> str:
    return f"{task}-n{n}-eta{_slug(eta)}-b{batch}-s{seed}"


def scale_key(s: float) -> str:
    return repr(float(s))


# Run-config fields that a cell's fingerprint leaves out: the grid lists,
# which the cell's own (n, eta, batch, seed) replace; the inputs of the
# stability and bounds stages alone; and where and how the run executes.
UNFINGERPRINTED = ("n_grid", "eta_grid", "batch_grid", "seeds", "stability", "theorem_lambda",
                   "lipschitz", "loss_bound", "output_dir", "jobs")
# the layout of a cell's files, in its fingerprint: a cell of an older layout
# misses once and trains again, never half read (2: L and B in `record.json`)
CELL_LAYOUT = 2
THEOREM_PMAG = "theorem_pmag.json"
RUN_MANIFEST = "run.json"
# where a run writes, so where an interrupted one may leave `*.partial` files
PARTIAL_FILES = ("cells/*/*.partial", "stability/*.partial", "report/*.partial",
                 f"{RUN_MANIFEST}.partial")


def _fingerprint(doc: dict) -> str:
    """SHA-256 of the canonical JSON of `doc`, as `rng._tag_entropy` hashes tags."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _cache_miss(path: Path) -> InvalidInputError:
    return InvalidInputError(f"{path} is missing or from another config; re-run `trajtopo run`")


def _stored_fingerprint(path: Path) -> str | None:
    """The fingerprint that a cell's files were last completely written
    under; None if there is none."""
    if not path.exists():
        return None
    data = path.read_bytes()
    if not re.fullmatch(rb"[0-9a-f]{64}\n", data):
        raise InvalidInputError(f"cell fingerprint {path} must hold one SHA-256 hex digest")
    return data[:-1].decode("ascii")


@dataclass
class TheoremPMag:
    """`cells/<id>/theorem_pmag.json`: the cell's PMag at the theorem scale."""

    scale: float
    pmag: float


@dataclass
class CellStats:
    """A cell trained in this run, after phase A: its sample size, its
    generalization gap, its window's empirical L and B, and the fingerprint
    that phase B writes once it has finished the record from the stored
    subsample."""

    n: int
    gen_gap: float
    lipschitz: float
    loss_bound: float
    fingerprint: str


@dataclass
class CellResult:
    record: RunRecord
    skipped: bool


@dataclass
class TrainedCell:
    """A trained grid cell: its seed, task and data, and the window of the
    last `cfg.iterations + 1` iterates of its run."""

    seed: int
    task: trainer.SyntheticTask
    data: trainer.Dataset
    pool: trainer.Dataset
    window: Trajectory

    def loss_matrices(self) -> tuple[LossMatrix, LossMatrix]:
        """The window's losses on up to `trainer.PROBE_SIZE` training
        samples and as many held-out samples."""
        m = min(self.data.n, trainer.PROBE_SIZE)
        picks = stream(self.seed, "train-probe").choice(self.data.n, size=m, replace=False)
        return (trainer.loss_matrix(self.task, self.window, self.data.take(np.sort(picks)), "train"),
                trainer.loss_matrix(self.task, self.window, self.pool.take(np.arange(m)), "test"))


def train_cells(cfg: ExperimentConfig, eta: float, batch: int,
                cells: list[tuple[int, int]]) -> list[TrainedCell]:
    """Train the cells (n, eta, batch, seed) of the (n, seed) pairs `cells`
    as one stack, in that order; each is bit-identical to the cell trained
    alone. A numerical failure names the index in `cells` of the first
    failing cell as its `run`."""
    task = trainer.make_task(cfg.task, cfg.input_dim, cfg.hidden)
    datasets = [trainer.make_task_and_data(cfg.task, n, cfg.input_dim, seed, class_sep=cfg.class_sep,
                                           noise=cfg.noise, hidden=cfg.hidden)[1:]
                for n, seed in cells]
    windows = trainer.projected_sgd_stack(task, [data for data, _ in datasets],
                                          [cfg.sgd_config(eta, batch, seed) for _, seed in cells],
                                          keep=cfg.iterations + 1)
    return [TrainedCell(seed, task, data, pool, window)
            for (_, seed), (data, pool), window in zip(cells, datasets, windows)]


def prepare_cell(cfg: ExperimentConfig, n: int, eta: float, batch: int, seed: int, out_dir: str,
                 fingerprint: str, trained: TrainedCell) -> CellStats:
    """Phase A of a trained cell under `fingerprint`, the SHA-256 of the
    config fields that shape it: its gap and empirical L and B from the loss
    tables of its window, and its subsampled trajectory written, after its
    stored fingerprint and `THEOREM_PMAG` are removed, so that the cell
    stays a miss until phase B finishes it. The tables are freed on return."""
    cid = cell_id(cfg.task, n, eta, batch, seed)
    cell_dir = Path(out_dir) / "cells" / cid
    try:
        lm_train, lm_test = trained.loss_matrices()
        # Python shows a warning once per code location and text, so the
        # cell id in the text gives each cell's warning a line of its own
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            consts = bounds.estimate_constants(trained.window, lm_train)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"cell {cid}: {exc}") from exc
    for caught_warning in caught:
        warnings.warn(f"cell {cid}: {caught_warning.message}", caught_warning.category)
    cell_dir.mkdir(parents=True, exist_ok=True)
    for stale in (cell_dir / "fingerprint", cell_dir / THEOREM_PMAG):
        stale.unlink(missing_ok=True)
    save_trajectory(geometry.subsample_uniform(trained.window, cfg.subsample, seed),
                    cell_dir / "trajectory")
    return CellStats(n=n, gen_gap=analysis.worst_case_gap(lm_train, lm_test),
                     lipschitz=consts.lipschitz, loss_bound=consts.loss_bound,
                     fingerprint=fingerprint)


def prepare_cells(cfg: ExperimentConfig, eta: float, batch: int, cells: list[tuple[int, int]],
                  out_dir: str,
                  reuse_only: bool = False) -> list[tuple[RunRecord | CellStats, float]]:
    """Phase A of the cells (n, eta, batch, seed) of the (n, seed) pairs
    `cells` in that order, each with its seconds.

    A cell whose record exists under the fingerprint of the config is read
    back, which makes re-runs cheap and idempotent. The others, whatever
    their n, train as one stack, and `prepare_cell` takes each through
    phase A; with `reuse_only`, such a cell is an InvalidInputError
    instead. A numerical failure names the first failing cell in the order
    of `cells`, after the cells before it are finished without a theorem
    scale, as a run of one cell at a time would. A trained cell's seconds
    include an equal share of the stack's training time.
    """
    cell_dirs = {(n, seed): Path(out_dir) / "cells" / cell_id(cfg.task, n, eta, batch, seed)
                 for n, seed in cells}
    shaping = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in UNFINGERPRINTED}
    fingerprints = {(n, seed): _fingerprint(shaping | {"n": n, "eta": eta, "batch": batch,
                                                       "seed": seed, "layout": CELL_LAYOUT})
                    for n, seed in cells}
    stale = [c for c in cells
             if not ((cell_dirs[c] / "record.json").exists()
                     and _stored_fingerprint(cell_dirs[c] / "fingerprint") == fingerprints[c])]

    trained, share = {}, 0.0
    if stale and not reuse_only:
        started = time.perf_counter()
        try:
            trained = dict(zip(stale, train_cells(cfg, eta, batch, stale)))
        except NumericalFailureError as exc:
            n, seed = stale[exc.run]
            before = stale[: exc.run]
            compute_cells(cfg, eta, batch, before, prepare_cells(cfg, eta, batch, before, out_dir),
                          {}, out_dir)
            raise NumericalFailureError(
                f"cell {cell_id(cfg.task, n, eta, batch, seed)}: {exc}") from exc
        share = (time.perf_counter() - started) / len(stale)

    results = []
    for n, seed in cells:
        started = time.perf_counter()
        record_path = cell_dirs[n, seed] / "record.json"
        if (n, seed) not in stale:
            results.append((read_record(RunRecord, record_path, "run record"),
                            time.perf_counter() - started))
            continue
        if reuse_only:
            raise _cache_miss(cell_dirs[n, seed] / "fingerprint" if record_path.exists()
                              else record_path)
        try:
            # popped, so that a prepared cell's window is freed
            stats = prepare_cell(cfg, n, eta, batch, seed, out_dir, fingerprints[n, seed],
                                 trained.pop((n, seed)))
        except NumericalFailureError:
            done = [(cell, r) for cell, r in zip(cells, results) if cell in stale]
            compute_cells(cfg, eta, batch, [c for c, _ in done], [r for _, r in done], {}, out_dir)
            raise
        results.append((stats, time.perf_counter() - started + share))
    return results


def _stored_theorem_pmag(path: Path, s_theorem: float) -> float | None:
    """The PMag that `path` stores if it was solved at the scale
    `s_theorem`, else None."""
    if not path.exists():
        return None
    stored = read_record(TheoremPMag, path, "theorem PMag")
    return stored.pmag if scale_key(stored.scale) == scale_key(s_theorem) else None


def compute_cell(cfg: ExperimentConfig, n: int, eta: float, batch: int, seed: int, out_dir: str,
                 prepared: RunRecord | CellStats, s_theorem: float | None,
                 reuse_only: bool = False) -> CellResult:
    """Phase B of one grid cell: its record, with its PMag at the theorem
    scale `s_theorem` (None when its n has no bound row) in memory.

    `prepared` is phase A's result. A record stored under the cell's
    fingerprint is returned, skipped, with the PMag that `THEOREM_PMAG`
    holds at this scale; a miss there (an InvalidInputError with
    `reuse_only`) solves it from the stored trajectory and stores it, and
    without a scale the run removes the file. The stats of a cell trained
    in this run are finished from its stored trajectory: its complexity
    values and theorem-scale PMag come from one distance matrix, and its
    record, `THEOREM_PMAG` and fingerprint are written, the fingerprint
    last, so that an interrupted write is never reused.
    """
    cid = cell_id(cfg.task, n, eta, batch, seed)
    cell_dir = Path(out_dir) / "cells" / cid
    theorem_path = cell_dir / THEOREM_PMAG
    skipped = isinstance(prepared, RunRecord)
    if skipped:
        record = prepared
        if s_theorem is None:
            if not reuse_only:
                theorem_path.unlink(missing_ok=True)
            return CellResult(record=record, skipped=True)
        theorem = _stored_theorem_pmag(theorem_path, s_theorem)
        if theorem is not None:
            record.pmag[THEOREM_KEY] = theorem
            return CellResult(record=record, skipped=True)
        if reuse_only:
            raise _cache_miss(theorem_path)
    try:
        dist = geometry.distance_matrix(load_trajectory(cell_dir / "trajectory"))
        if not skipped:
            pmag = {scale_key(s): magnitude.positive_magnitude(dist, s) for s in cfg.pmag_scales}
            record = RunRecord(run_id=cid, n=n, eta=eta, batch=batch, seed=seed,
                               gen_gap=prepared.gen_gap,
                               e_alpha=lifetime.alpha_weighted_lifetime_sum(dist, cfg.alpha),
                               pmag=pmag, lipschitz=prepared.lipschitz,
                               loss_bound=prepared.loss_bound)
        theorem = None if s_theorem is None else magnitude.positive_magnitude(dist, s_theorem)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"cell {cid}: {exc}") from exc
    if not skipped:
        write_record(record, cell_dir / "record.json")
    if theorem is not None:
        write_record(TheoremPMag(s_theorem, theorem), theorem_path)
        record.pmag[THEOREM_KEY] = theorem
    if not skipped:
        write_file(cell_dir / "fingerprint", prepared.fingerprint + "\n")
    return CellResult(record=record, skipped=skipped)


def compute_cells(cfg: ExperimentConfig, eta: float, batch: int, cells: list[tuple[int, int]],
                  prepared: list[tuple[RunRecord | CellStats, float]], scales: dict[int, float],
                  out_dir: str, reuse_only: bool = False) -> list[tuple[CellResult, float]]:
    """Phase B of the cells (n, eta, batch, seed) of the (n, seed) pairs
    `cells` in that order, from phase A's `prepared`, at the theorem scale
    `scales[n]` of each bounded n: each cell's result, with the seconds of
    both phases."""
    results = []
    for (n, seed), (first, seconds) in zip(cells, prepared):
        started = time.perf_counter()
        result = compute_cell(cfg, n, eta, batch, seed, out_dir, first, scales.get(n), reuse_only)
        results.append((result, round(seconds + time.perf_counter() - started, 3)))
    return results


def _split_stacks(cells: list[tuple[int, int]], jobs: int) -> list[list[tuple[int, int]]]:
    """The (n, seed) pairs `cells` split into `min(jobs, len(cells))`
    stacks of consecutive cells, as even as they come, so that `jobs`
    workers share a group."""
    parts = min(jobs, len(cells))
    return [cells[i * len(cells) // parts : (i + 1) * len(cells) // parts] for i in range(parts)]


@dataclass
class PipelineResult:
    records: list[RunRecord]
    stability_reports: list[stability.StabilityReport]
    bound_rows: list[dict]
    computed: int
    skipped: int
    output_dir: str


def _stability_stage(cfg: ExperimentConfig, out_dir: Path, log,
                     reuse_only: bool) -> list[stability.StabilityReport]:
    """One report per stability config: read from `stability/` if an
    earlier run stored it under the config's fingerprint, else computed
    and stored there, or an InvalidInputError with `reuse_only`."""
    reports = []
    for scfg in cfg.stability_configs():
        started = time.perf_counter()
        path = out_dir / "stability" / f"{_fingerprint(asdict(scfg))}.json"
        skipped = path.exists()
        if skipped:
            report = read_record(stability.StabilityReport, path, "stability report")
        elif reuse_only:
            raise _cache_miss(path)
        else:
            report = stability.run_stability_experiment(scfg)
            path.parent.mkdir(exist_ok=True)
            write_record(report, path)
        log("stability", n=scfg.n, J=scfg.J, skipped=skipped,
            seconds=round(time.perf_counter() - started, 3))
        reports.append(report)
    return reports


def _row_constants(cfg: ExperimentConfig, group: list, beta: float) -> tuple[float, float, float]:
    """L, B and the theorem scale of the bound row at β > 0 of the cells
    `group` (records or `CellStats`) of one n: L and B are the configured
    values, else the largest over the group."""
    # a configured constant is positive, so `or` takes it when given
    lipschitz = cfg.lipschitz or max(c.lipschitz for c in group)
    loss_bound = cfg.loss_bound or max(c.loss_bound for c in group)
    return (lipschitz, loss_bound,
            magnitude.pmag_scale(cfg.theorem_lambda, lipschitz, loss_bound, beta))


def _bounds_stage(cfg: ExperimentConfig, records: list[RunRecord],
                  stab_reports: list[stability.StabilityReport]) -> list[dict]:
    """One row per stability report with a positive mean β̂: both bounds at
    β̂, and as `*_analytic` at the closed-form β of `decaying` steps where
    that applies and is positive. L and B are the configured values, else
    the largest over the sample size's records; G is the task's. Each
    bounded record holds its PMag at the theorem scale from phase B."""
    rows: list[dict] = []
    # the closed form needs n >= 2, the task's smoothness G and a first step in (0, 1/G)
    smoothness = trainer.make_task(cfg.task, cfg.input_dim, cfg.hidden).smoothness
    step = cfg.eta_grid[0]
    closed_form = (cfg.step_rule == "decaying" and smoothness is not None
                   and 0 < step < 1.0 / smoothness)
    for report in stab_reports:
        n, beta = report.n, report.mean
        if beta <= 0:
            # the bounds need a positive stability coefficient
            continue
        group = [r for r in records if r.n == n]
        lipschitz, loss_bound, s_theorem = _row_constants(cfg, group, beta)
        k_const = bounds.kn_alpha(n, lipschitz, loss_bound, cfg.alpha)

        analytic = None
        if closed_form and n >= 2:
            analytic = stability.analytic_sgd_stability(lipschitz, smoothness, cfg.radius, step,
                                                        n, cfg.iterations)
        row = {"n": n, "beta_hat": beta, "analytic_beta": analytic, "L": lipschitz,
               "B": loss_bound, "alpha": cfg.alpha, "K": k_const, "lambda": cfg.theorem_lambda,
               "theorem_scale": s_theorem}
        betas = [("", beta)]
        if analytic is not None and analytic > 0:
            betas.append(("_analytic", analytic))
        for suffix, b in betas:
            row["ealpha_bound" + suffix] = bounds.ealpha_bound(
                b, loss_bound, k_const, [r.e_alpha for r in group]).value
            row["pmag_bound" + suffix] = bounds.pmag_bound(
                b, loss_bound, cfg.theorem_lambda, [r.pmag[THEOREM_KEY] for r in group]).value
        rows.append(row)
    return rows


def _write_reports(
    cfg: ExperimentConfig,
    report_dir: Path,
    records: list[RunRecord],
    stab_reports: list[stability.StabilityReport],
    bound_rows: list[dict],
) -> None:
    """Write the grid CSVs, `stability.csv` and `summary.json`, and remove
    any grid CSV (one per `analysis.COMPLEXITY_KINDS`) or `stability.csv`
    that an earlier run wrote and this one does not; no other file. The
    first configured scale is the fixed scale."""
    report_dir.mkdir(parents=True, exist_ok=True)

    kinds = [("e_alpha", None), ("pmag_fixed_scale", scale_key(cfg.pmag_scales[0]))]
    # theorem-scale stats only when every record carries the value (the
    # bounds stage may skip groups whose stability coefficient is zero)
    if records and all(THEOREM_KEY in r.pmag for r in records):
        kinds.append(("pmag_theorem_scale", THEOREM_KEY))
    reports = {kind: analysis.grid_report(records, kind, scale_key=key) for kind, key in kinds}
    texts = {report_dir / f"grid_{kind}.csv": rep.to_csv() for kind, rep in reports.items()}

    stab_reports = sorted(stab_reports, key=lambda r: r.n)
    if stab_reports:
        texts[report_dir / "stability.csv"] = stability.stability_csv(stab_reports)
    for path, text in texts.items():
        write_file(path, text)
    owned = {report_dir / f"grid_{kind}.csv" for kind in analysis.COMPLEXITY_KINDS}
    for stale in (owned | {report_dir / "stability.csv"}) - set(texts):
        stale.unlink(missing_ok=True)

    summary = {
        "task": cfg.task,
        "alpha": cfg.alpha,
        "pmag_scales": cfg.pmag_scales,
        "runs": [asdict(r) for r in records],
        "per_n_stats": {
            kind: {
                str(n): asdict(g) for n, g in rep.per_n_stats.items()
            }
            for kind, rep in reports.items()
        },
        "stability": [asdict(r) for r in stab_reports],
        "bounds": bound_rows,
    }
    write_file(report_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")


def run_pipeline(cfg: ExperimentConfig, output_dir: str | Path, *,
                 report_dir: str | Path | None = None) -> PipelineResult:
    """Run phase A of the full grid into `output_dir`, then the stability
    stage, phase B, and the bounds and report stages, and write `run.json`. Given `report_dir`, compute nothing
    (a miss raises InvalidInputError) and write only the reports, there."""
    out_dir = Path(output_dir)
    reuse_only = report_dir is not None
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "pipeline.log.jsonl"

    def log(event: str, **fields) -> None:
        if not reuse_only:
            with log_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"event": event, **fields}) + "\n")

    if not reuse_only:
        for pattern in PARTIAL_FILES:
            for leftover in out_dir.glob(pattern):
                if leftover.is_file():
                    leftover.unlink()
    # the cells that share (eta, batch) train together, ordered by n, then seed
    group = [(n, seed) for n in cfg.n_grid for seed in cfg.seeds]
    stacks = list(zip(*[(eta, batch, cells) for eta in cfg.eta_grid for batch in cfg.batch_grid
                        for cells in _split_stacks(group, cfg.jobs)]))
    where = {"out_dir": str(out_dir), "reuse_only": reuse_only}
    # `report` trains nothing, so it reads the cells in this process
    with blas.worker_pool(cfg.jobs) if cfg.jobs > 1 and not reuse_only else nullcontext() as pool:
        run = map if pool is None else pool.map
        prepared = list(run(partial(prepare_cells, cfg, **where), *stacks))
        stab_reports = _stability_stage(cfg, out_dir, log, reuse_only)
        # the theorem scale of each n with a bound row, as `_bounds_stage` takes it
        firsts = [first for stack in prepared for first, _ in stack]
        scales = {r.n: _row_constants(cfg, [c for c in firsts if c.n == r.n], r.mean)[2]
                  for r in stab_reports if r.mean > 0}
        finished = list(run(partial(compute_cells, cfg, scales=scales, **where), *stacks,
                            prepared))
    results: list[CellResult] = []
    for stack in finished:
        for res, seconds in stack:
            log("cell", id=res.record.run_id, skipped=res.skipped, seconds=seconds)
            results.append(res)

    records = sorted((r.record for r in results), key=lambda r: (r.n, r.eta, r.batch, r.seed))
    bound_rows = _bounds_stage(cfg, records, stab_reports)
    _write_reports(cfg, Path(report_dir or out_dir / "report"), records, stab_reports, bound_rows)
    if not reuse_only:
        write_record(cfg, out_dir / RUN_MANIFEST)

    return PipelineResult(
        records=records,
        stability_reports=stab_reports,
        bound_rows=bound_rows,
        computed=sum(1 for r in results if not r.skipped),
        skipped=sum(1 for r in results if r.skipped),
        output_dir=str(out_dir),
    )
