"""End-to-end experiment pipeline.

For every grid cell (n, eta, batch, seed): generate data, train projected
SGD, window and subsample the trajectory, compute the distance matrix and
both complexity statistics, and append a RunRecord. Optional stages add
empirical stability estimates per sample size and evaluate both
generalization bounds. Reports are assembled deterministically: two runs
with the same config produce byte-identical CSV/JSON outputs, and
completed cells are skipped on re-runs via their on-disk records.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis, bounds, geometry, lifetime, magnitude, stability, trainer
from .analysis import THEOREM_KEY
from .artifacts import (LossMatrix, RunRecord, Trajectory, load_trajectory, read_json_object,
                        save_trajectory)
from .errors import (InvalidInputError, NumericalFailureError, check_fields, fits, from_json_object,
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
            if not getattr(self, name):
                raise InvalidInputError(f"{name} must be nonempty")
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
        shared = {k: getattr(self, k) for k in grid_keys} | {"step": float(self.eta_grid[0])}
        shared |= {k: v for k, v in vars(settings).items() if v is not None}
        configs = []
        with naming("stability section"):
            for n in sorted(set(self.n_grid)):
                j = None if settings.J is None else min(settings.J, n)
                configs.append(stability.StabilityConfig(**(shared | {"n": n, "J": j})))
        return configs


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a run config, which checks itself, from a decoded JSON object."""
    if doc.get("stability") is not None:
        section = from_json_object(StabilitySettings, doc["stability"], "stability section")
        doc = doc | {"stability": section}
    return from_json_object(ExperimentConfig, doc, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json_object(path))


def _slug(value: float) -> str:
    return repr(float(value)).replace(".", "p").replace("-", "m")


def cell_id(task: str, n: int, eta: float, batch: int, seed: int) -> str:
    return f"{task}-n{n}-eta{_slug(eta)}-b{batch}-s{seed}"


def scale_key(s: float) -> str:
    return repr(float(s))


@dataclass
class CellResult:
    record: RunRecord
    skipped: bool


def _read_record(path: Path) -> RunRecord:
    return RunRecord.from_json(path.read_text(), f"run record {path}")


def _in_grid_order(records: list[RunRecord]) -> list[RunRecord]:
    return sorted(records, key=lambda r: (r.n, r.eta, r.batch, r.seed))


def compute_cell(cfg: ExperimentConfig, n: int, eta: float, batch: int, seed: int,
                 out_dir: str) -> CellResult:
    """Train one grid cell and write its record and subsampled trajectory.

    If the cell's record already exists on disk it is loaded and returned
    unchanged, making re-runs cheap and idempotent.
    """
    cid = cell_id(cfg.task, n, eta, batch, seed)
    cell_dir = Path(out_dir) / "cells" / cid
    record_path = cell_dir / "record.json"
    if record_path.exists():
        return CellResult(record=_read_record(record_path), skipped=True)
    try:
        task, window, lm_train, lm_test = train_cell(cfg, n, eta, batch, seed)
        sub = geometry.subsample_uniform(window, cfg.subsample, seed)
        dist = geometry.distance_matrix(sub)
        e_alpha = lifetime.alpha_weighted_lifetime_sum(dist, cfg.alpha)
        pmag = {scale_key(s): magnitude.positive_magnitude(dist, s) for s in cfg.pmag_scales}
        consts = bounds.estimate_constants(task, window, lm_train)
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"cell {cid}: {exc}") from exc
    record = RunRecord(run_id=cid, n=n, eta=float(eta), batch=batch, seed=seed,
                       gen_gap=analysis.worst_case_gap(lm_train, lm_test), e_alpha=e_alpha,
                       pmag=pmag)
    cell_dir.mkdir(parents=True, exist_ok=True)
    save_trajectory(sub, cell_dir / "trajectory")
    (cell_dir / "constants.json").write_text(json.dumps(asdict(consts), indent=2) + "\n")
    record_path.write_text(record.to_json())
    return CellResult(record=record, skipped=False)


def train_cell(
    cfg: ExperimentConfig, n: int, eta: float, batch: int, seed: int
) -> tuple[trainer.SyntheticTask, Trajectory, LossMatrix, LossMatrix]:
    """Train one grid cell and probe its tail window.

    Returns the task, the window of the last `cfg.iterations + 1` iterates,
    and its loss matrices on up to 500 training samples and as many
    held-out samples.
    """
    task, data, pool = trainer.make_task_and_data(
        cfg.task, n, cfg.input_dim, seed,
        class_sep=cfg.class_sep, noise=cfg.noise, hidden=cfg.hidden,
    )
    full = trainer.projected_sgd(task, data, cfg.sgd_config(eta, batch, seed))
    window = trainer.tail_window(full, cfg.iterations + 1)

    m = min(n, 500)
    train_idx = np.sort(stream(seed, "train-probe").choice(n, size=m, replace=False))
    lm_train = trainer.loss_matrix(task, window, data.take(train_idx), "train")
    lm_test = trainer.loss_matrix(task, window, pool.take(np.arange(m)), "test")
    return task, window, lm_train, lm_test


def _timed_cell(args) -> tuple[CellResult, float]:
    started = time.perf_counter()
    result = compute_cell(*args)
    return result, round(time.perf_counter() - started, 3)


@dataclass
class PipelineResult:
    records: list[RunRecord]
    stability_reports: list[stability.StabilityReport]
    bound_rows: list[dict]
    computed: int
    skipped: int
    output_dir: str


def _load_constants(out_dir: Path, cid: str) -> bounds.ConstantsEstimate:
    path = out_dir / "cells" / cid / "constants.json"
    return from_json_object(bounds.ConstantsEstimate, read_json_object(path, "constants"),
                            f"constants {path}")


def _stability_stage(cfg: ExperimentConfig, log) -> list[stability.StabilityReport]:
    reports = []
    for scfg in cfg.stability_configs():
        started = time.perf_counter()
        report = stability.run_stability_experiment(scfg)
        log("stability", n=scfg.n, J=scfg.J, seconds=round(time.perf_counter() - started, 3))
        reports.append(report)
    return reports


def _bounds_stage(
    cfg: ExperimentConfig,
    out_dir: Path,
    records: list[RunRecord],
    stab_reports: list[stability.StabilityReport],
) -> list[dict]:
    """Evaluate both bounds per sample size, one per stability report,
    reusing stored trajectories for the theorem-schedule magnitude scale."""
    rows: list[dict] = []
    for report in stab_reports:
        n, beta = report.n, report.mean
        group = [r for r in records if r.n == n]
        consts = [_load_constants(out_dir, r.run_id) for r in group]
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
        pmag_samples = []
        for r in group:
            traj = load_trajectory(out_dir / "cells" / r.run_id / "trajectory")
            value = magnitude.positive_magnitude(geometry.distance_matrix(traj), s_theorem)
            pmag_samples.append(value)
            r.pmag[THEOREM_KEY] = value
            (out_dir / "cells" / r.run_id / "record.json").write_text(r.to_json())
        res_p = bounds.pmag_bound(beta, loss_bound, cfg.theorem_lambda, pmag_samples)

        # the closed form needs every cell's smoothness G and a first step below 1/G
        analytic = None
        smoothness = [c.smoothness for c in consts]
        step = float(cfg.eta_grid[0])
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
    return rows


def _write_reports(
    cfg: ExperimentConfig,
    report_dir: Path,
    records: list[RunRecord],
    stab_reports: list[stability.StabilityReport],
    bound_rows: list[dict],
) -> None:
    """Write the grid CSVs, `stability.csv` and `summary.json`. Only
    `task`, `alpha` and `pmag_scales` of the config are read; the first
    configured scale is the fixed scale."""
    report_dir.mkdir(parents=True, exist_ok=True)

    kinds = [("e_alpha", None), ("pmag_fixed_scale", scale_key(cfg.pmag_scales[0]))]
    # theorem-scale stats only when every record carries the value (the
    # bounds stage may skip groups whose stability coefficient is zero)
    if records and all(THEOREM_KEY in r.pmag for r in records):
        kinds.append(("pmag_theorem_scale", THEOREM_KEY))
    reports = {}
    for kind, key in kinds:
        rep = analysis.grid_report(records, kind, scale_key=key)
        reports[kind] = rep
        (report_dir / f"grid_{kind}.csv").write_text(rep.to_csv())

    stab_reports = sorted(stab_reports, key=lambda r: r.n)
    if stab_reports:
        (report_dir / "stability.csv").write_text(stability.stability_csv(stab_reports))

    summary = {
        "task": cfg.task,
        "alpha": cfg.alpha,
        "pmag_scales": [float(s) for s in cfg.pmag_scales],
        "runs": [json.loads(r.to_json()) for r in records],
        "per_n_stats": {
            kind: {
                str(n): asdict(g) for n, g in rep.per_n_stats.items()
            }
            for kind, rep in reports.items()
        },
        "stability": [asdict(r) for r in stab_reports],
        "bounds": bound_rows,
    }
    (report_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )


def rebuild_reports(runs_dir: Path, report_dir: Path) -> list[RunRecord]:
    """Rewrite every report file of the finished run in `runs_dir` into
    `report_dir`, from its cell records and its `report/summary.json`;
    returns the records."""
    record_paths = sorted(runs_dir.glob("cells/*/record.json"))
    if not record_paths:
        raise InvalidInputError(f"no run records under {runs_dir}")
    records = _in_grid_order([_read_record(p) for p in record_paths])
    summary_path = runs_dir / "report" / "summary.json"
    if not summary_path.exists():
        raise InvalidInputError(f"no {summary_path}; report needs a finished `trajtopo run`")
    summary = read_json_object(summary_path, "summary")
    keys = ("task", "alpha", "pmag_scales", "stability", "bounds")
    if not all(k in summary for k in keys):
        raise InvalidInputError(f"{summary_path} lacks one of {keys}; re-run `trajtopo run`")
    if not fits(summary["stability"], list[dict]) or not fits(summary["bounds"], list[dict]):
        raise InvalidInputError(f"{summary_path}: 'stability' and 'bounds' must list objects")
    with naming(str(summary_path)):
        cfg = config_from_dict({k: summary[k] for k in ("task", "alpha", "pmag_scales")})
    # older summaries also hold `analytic_beta` and `extras`, which reports no longer carry
    dropped = ("analytic_beta", "extras")
    stab_reports = [from_json_object(stability.StabilityReport,
                                     {k: v for k, v in doc.items() if k not in dropped},
                                     f"stability report in {summary_path}")
                    for doc in summary["stability"]]
    _write_reports(cfg, report_dir, records, stab_reports, summary["bounds"])
    return records


def run_pipeline(cfg: ExperimentConfig, output_dir: str | Path) -> PipelineResult:
    """Run the full grid into `output_dir`, then the stability, bounds, and
    report stages."""
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "pipeline.log.jsonl"

    def log(event: str, **fields) -> None:
        entry = {"event": event, **fields}
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")

    cells = [
        (cfg, n, eta, batch, seed, str(out_dir))
        for n in cfg.n_grid
        for eta in cfg.eta_grid
        for batch in cfg.batch_grid
        for seed in cfg.seeds
    ]
    results: list[CellResult] = []
    with ProcessPoolExecutor(max_workers=cfg.jobs) if cfg.jobs > 1 else nullcontext() as pool:
        for res, seconds in (map if pool is None else pool.map)(_timed_cell, cells):
            log("cell", id=res.record.run_id, skipped=res.skipped, seconds=seconds)
            results.append(res)

    records = _in_grid_order([r.record for r in results])

    stab_reports = _stability_stage(cfg, log)
    bound_rows = _bounds_stage(cfg, out_dir, records, stab_reports)
    _write_reports(cfg, out_dir / "report", records, stab_reports, bound_rows)

    return PipelineResult(
        records=records,
        stability_reports=stab_reports,
        bound_rows=bound_rows,
        computed=sum(1 for r in results if not r.skipped),
        skipped=sum(1 for r in results if r.skipped),
        output_dir=str(out_dir),
    )
