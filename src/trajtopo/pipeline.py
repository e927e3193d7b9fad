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

A re-run into the same directory reuses what a config that shapes it the
same way stored, and recomputes the rest:
- a cell, when `cells/<id>/fingerprint` holds the SHA-256 of every config
  field that shapes the cell (all but `UNFINGERPRINTED`) with its own
  (n, eta, batch, seed);
- a stability report, stored as `stability/<SHA-256 of its
  StabilityConfig>.json`;
- a cell's PMag at the theorem scale, when `cells/<id>/theorem_pmag.json`
  holds it at the scale of the bound that is due.

The cell stage writes each cell's record, constants, trajectory and
fingerprint once; the bounds stage alone writes `theorem_pmag.json`. Each
run then writes `run.json`, from which `trajtopo report` runs the pipeline
again with every one of these reuses required to hit. Every file goes
through `artifacts.write_file`, which replaces it whole, so an interrupted
run leaves no stored file cut short, and a `run` removes the `*.partial`
files that one left where runs write. The report stage removes a report file only
under a name that some run writes and this config does not.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis, blas, bounds, geometry, lifetime, magnitude, stability, trainer
from .analysis import THEOREM_KEY
from .artifacts import (LossMatrix, RunRecord, Trajectory, load_trajectory, read_json_object,
                        read_record, save_trajectory, write_file, write_record)
from .errors import (InvalidInputError, NumericalFailureError, check_fields, from_json_object,
                     naming)
from .rng import stream


@dataclass
class StabilitySettings:
    """Stability stage: one experiment per sample size in the grid."""

    J: int | None = None
    seeds: list[int] | None = None
    init_mode: str = "random_init"
    eval_split: str = "train"
    direction: str = "directed"
    iterations: int = 200
    converge_iterations: int = 400
    step: float | None = None

    def __post_init__(self) -> None:
        check_fields(type(self), vars(self), "stability section")


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
    iterations: int = geometry.DEFAULT_TRAJECTORY_LENGTH
    warmup: int = 0
    subsample: int = geometry.DEFAULT_SUBSAMPLE
    radius: float = 10.0
    step_rule: str = "constant"
    alpha: float = 1.0
    pmag_scales: list[float] = field(default_factory=lambda: [100.0])
    theorem_lambda: float = 1.0
    stability: StabilitySettings | None = None
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
        for name in ("n_grid", "eta_grid", "batch_grid", "seeds"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise InvalidInputError(f"{name} must be a nonempty list of distinct values, "
                                        f"got {values}")
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
        magnitude.ScaleGrid(tuple(sorted(set(self.pmag_scales))))
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
        stability section. Each field that the run config and
        `StabilityConfig` share, and `step` as the first learning rate, is
        the grid's value unless the section sets it; J is clamped to n."""
        settings = self.stability
        if settings is None:
            return []
        grid_keys = {f.name for f in fields(self)} & {
            f.name for f in fields(stability.StabilityConfig)
        }
        shared = {k: getattr(self, k) for k in grid_keys} | {"step": self.eta_grid[0]}
        shared |= {k: v for k, v in vars(settings).items() if v is not None}
        configs = []
        with naming("stability section"):
            for n in sorted(self.n_grid):
                j = None if settings.J is None else min(settings.J, n)
                configs.append(stability.StabilityConfig(**(shared | {"n": n, "J": j})))
        return configs


def config_from_dict(doc: dict, what: str = "config") -> ExperimentConfig:
    """Build a run config, which checks itself, from a decoded JSON object;
    an error names the source `what`."""
    if doc.get("stability") is not None:
        section = from_json_object(StabilitySettings, doc["stability"], "stability section")
        doc = doc | {"stability": section}
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
        """The window's losses on up to 500 training samples and as many
        held-out samples."""
        m = min(self.data.n, 500)
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


def compute_cell(cfg: ExperimentConfig, n: int, eta: float, batch: int, seed: int, out_dir: str,
                 fingerprint: str, trained: TrainedCell | None = None) -> CellResult:
    """One grid cell under `fingerprint`, the SHA-256 of the config fields
    that shape it.

    Without `trained`, the record that `compute_cells` found stored under
    the fingerprint is loaded and returned, less any theorem-scale value
    that an older version stored in it. Otherwise the trained cell is
    finished: its window is subsampled, its complexity values, constants
    and generalization gap computed, and its record, subsampled trajectory,
    constants and fingerprint written, the fingerprint last, so that an
    interrupted write is never reused.
    """
    cid = cell_id(cfg.task, n, eta, batch, seed)
    cell_dir = Path(out_dir) / "cells" / cid
    record_path = cell_dir / "record.json"
    if trained is None:
        record = read_record(RunRecord, record_path, "run record")
        record.pmag.pop(THEOREM_KEY, None)
        return CellResult(record=record, skipped=True)
    try:
        lm_train, lm_test = trained.loss_matrices()
        sub = geometry.subsample_uniform(trained.window, cfg.subsample, seed)
        dist = geometry.distance_matrix(sub)
        e_alpha = lifetime.alpha_weighted_lifetime_sum(dist, cfg.alpha)
        pmag = {scale_key(s): magnitude.positive_magnitude(dist, s) for s in cfg.pmag_scales}
        consts = bounds.estimate_constants(trained.task, trained.window, lm_train)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"cell {cid}: {exc}") from exc
    record = RunRecord(run_id=cid, n=n, eta=eta, batch=batch, seed=seed,
                       gen_gap=analysis.worst_case_gap(lm_train, lm_test), e_alpha=e_alpha,
                       pmag=pmag)
    cell_dir.mkdir(parents=True, exist_ok=True)
    fingerprint_path = cell_dir / "fingerprint"
    for stale in (fingerprint_path, cell_dir / THEOREM_PMAG):
        stale.unlink(missing_ok=True)
    save_trajectory(sub, cell_dir / "trajectory")
    write_record(consts, cell_dir / "constants.json")
    write_record(record, record_path)
    write_file(fingerprint_path, fingerprint + "\n")
    return CellResult(record=record, skipped=False)


def compute_cells(cfg: ExperimentConfig, eta: float, batch: int, cells: list[tuple[int, int]],
                  out_dir: str, reuse_only: bool = False) -> list[tuple[CellResult, float]]:
    """The cells (n, eta, batch, seed) of the (n, seed) pairs `cells` in
    that order, each with its seconds.

    A cell whose record exists under the fingerprint of the config is read
    back, which makes re-runs cheap and idempotent. The others, whatever
    their n, train as one stack, and `compute_cell` finishes each; with
    `reuse_only`, such a cell is an InvalidInputError instead. A numerical
    failure names the first failing cell in the order of `cells`, after the
    cells before it are finished, as a run of one cell at a time would. A
    trained cell's seconds include an equal share of the stack's training
    time.
    """
    shaping = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in UNFINGERPRINTED}
    cell_dirs = {(n, seed): Path(out_dir) / "cells" / cell_id(cfg.task, n, eta, batch, seed)
                 for n, seed in cells}
    fingerprints = {(n, seed): _fingerprint(shaping | {"n": n, "eta": eta, "batch": batch,
                                                       "seed": seed})
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
            compute_cells(cfg, eta, batch, cells[: cells.index((n, seed))], out_dir)
            raise NumericalFailureError(
                f"cell {cell_id(cfg.task, n, eta, batch, seed)}: {exc}") from exc
        share = (time.perf_counter() - started) / len(stale)

    results = []
    for n, seed in cells:
        started = time.perf_counter()
        if reuse_only and (n, seed) in stale:
            record_path = cell_dirs[n, seed] / "record.json"
            raise _cache_miss(cell_dirs[n, seed] / "fingerprint" if record_path.exists()
                              else record_path)
        # popped, so that a finished cell's window is freed
        result = compute_cell(cfg, n, eta, batch, seed, out_dir, fingerprints[n, seed],
                              trained.pop((n, seed), None))
        seconds = time.perf_counter() - started + (share if (n, seed) in stale else 0.0)
        results.append((result, round(seconds, 3)))
    return results


def _split_stacks(cells: list[tuple[int, int]], jobs: int) -> list[list[tuple[int, int]]]:
    """The (n, seed) pairs `cells` split into `min(jobs, len(cells))`
    stacks of consecutive cells, as even as they come, so that `jobs`
    workers share a group."""
    parts = min(jobs, len(cells))
    return [cells[i * len(cells) // parts : (i + 1) * len(cells) // parts] for i in range(parts)]


def worker_pool(jobs: int):
    """The process pool of a run with `jobs` > 1 workers, each at one BLAS
    thread but for its turns at the magnitude solves, which run at this
    process's start count."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs, initializer=blas.one_thread,
                               initargs=(blas.start_threads(), multiprocessing.Lock()))


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


def _theorem_pmag(cell_dir: Path, s_theorem: float, reuse_only: bool) -> float:
    """The cell's PMag at the theorem scale `s_theorem`: the value stored in
    its `THEOREM_PMAG` if solved at this scale, else (unless `reuse_only`)
    solved from the stored trajectory and stored there."""
    path = cell_dir / THEOREM_PMAG
    if path.exists():
        stored = read_record(TheoremPMag, path, "theorem PMag")
        if scale_key(stored.scale) == scale_key(s_theorem):
            return stored.pmag
    if reuse_only:
        raise _cache_miss(path)
    dist = geometry.distance_matrix(load_trajectory(cell_dir / "trajectory"))
    solved = TheoremPMag(s_theorem, magnitude.positive_magnitude(dist, s_theorem))
    write_record(solved, path)
    return solved.pmag


def _bounds_stage(
    cfg: ExperimentConfig,
    out_dir: Path,
    records: list[RunRecord],
    stab_reports: list[stability.StabilityReport],
    reuse_only: bool,
) -> list[dict]:
    """Evaluate both bounds per sample size, one per stability report,
    reusing stored trajectories for the theorem-schedule magnitude scale.
    Each bounded record gets its theorem-scale PMag in memory, for the
    reports; a run removes the stored value of every other record."""
    rows: list[dict] = []
    for report in stab_reports:
        n, beta = report.n, report.mean
        group = [r for r in records if r.n == n]
        consts = [read_record(bounds.ConstantsEstimate,
                              out_dir / "cells" / r.run_id / "constants.json", "constants")
                  for r in group]
        lipschitz = cfg.lipschitz if cfg.lipschitz is not None else max(
            c.lipschitz for c in consts
        )
        loss_bound = cfg.loss_bound if cfg.loss_bound is not None else max(
            c.loss_bound for c in consts
        )
        if beta <= 0:
            # bound needs a positive stability coefficient
            continue
        k_const = bounds.kn_alpha(n, lipschitz, loss_bound, cfg.alpha)
        ealpha_samples = [r.e_alpha for r in group]
        res_e = bounds.ealpha_bound(beta, loss_bound, k_const, ealpha_samples)

        s_theorem = magnitude.pmag_scale(cfg.theorem_lambda, lipschitz, loss_bound, beta)
        for r in group:
            r.pmag[THEOREM_KEY] = _theorem_pmag(out_dir / "cells" / r.run_id, s_theorem, reuse_only)
        pmag_samples = [r.pmag[THEOREM_KEY] for r in group]
        res_p = bounds.pmag_bound(beta, loss_bound, cfg.theorem_lambda, pmag_samples)

        # the closed form needs every cell's smoothness G and a first step below 1/G
        analytic = None
        smoothness = [c.smoothness for c in consts]
        step = cfg.eta_grid[0]
        if cfg.step_rule == "decaying" and None not in smoothness:
            g = max(smoothness)
            if step < 1.0 / g:
                analytic = stability.analytic_sgd_stability(
                    lipschitz, g, cfg.radius, step, n, cfg.iterations
                )
        row = {
            "n": n,
            "beta_hat": beta,
            "analytic_beta": analytic,
            "L": lipschitz,
            "B": loss_bound,
            "alpha": cfg.alpha,
            "K": k_const,
            "lambda": cfg.theorem_lambda,
            "theorem_scale": s_theorem,
            "ealpha_bound": res_e.value,
            "pmag_bound": res_p.value,
        }
        if analytic is not None and analytic > 0:
            row["ealpha_bound_analytic"] = bounds.ealpha_bound(
                analytic, loss_bound, k_const, ealpha_samples
            ).value
            row["pmag_bound_analytic"] = bounds.pmag_bound(
                analytic, loss_bound, cfg.theorem_lambda, pmag_samples
            ).value
        rows.append(row)

    bounded = {row["n"] for row in rows}
    for r in records:
        if r.n not in bounded and not reuse_only:
            (out_dir / "cells" / r.run_id / THEOREM_PMAG).unlink(missing_ok=True)
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
    reports = {}
    texts = {}
    for kind, key in kinds:
        rep = analysis.grid_report(records, kind, scale_key=key)
        reports[kind] = rep
        texts[report_dir / f"grid_{kind}.csv"] = rep.to_csv()

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
    """Run the full grid into `output_dir`, then the stability, bounds, and
    report stages, and write `run.json`. Given `report_dir`, compute nothing
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
            for partial in out_dir.glob(pattern):
                if partial.is_file():
                    partial.unlink()
    # the cells that share (eta, batch) train together, ordered by n, then seed
    group = [(n, seed) for n in cfg.n_grid for seed in cfg.seeds]
    stacks = [
        (cfg, eta, batch, cells, str(out_dir), reuse_only)
        for eta in cfg.eta_grid
        for batch in cfg.batch_grid
        for cells in _split_stacks(group, cfg.jobs)
    ]
    results: list[CellResult] = []
    with worker_pool(cfg.jobs) if cfg.jobs > 1 else nullcontext() as pool:
        for stack in (map if pool is None else pool.map)(compute_cells, *zip(*stacks)):
            for res, seconds in stack:
                log("cell", id=res.record.run_id, skipped=res.skipped, seconds=seconds)
                results.append(res)

    records = sorted((r.record for r in results), key=lambda r: (r.n, r.eta, r.batch, r.seed))
    stab_reports = _stability_stage(cfg, out_dir, log, reuse_only)
    bound_rows = _bounds_stage(cfg, out_dir, records, stab_reports, reuse_only)
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
