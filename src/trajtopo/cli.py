"""Command-line interface.

Subcommands cover the full pipeline (`run`) and each stage on its own
(`traj-gen`, `distmat`, `lifetime-sum`, `pmag`, `stability`, `bound`,
`report`), operating on the artifact files described in `artifacts`.
Exit codes: 0 success, 2 invalid config or input, 3 numerical failure.

The default output root can be set with the TRAJTOPO_OUT environment
variable; explicit --out flags take precedence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import analysis, blas, bounds, geometry, lifetime, magnitude, pipeline, stability, trainer
from .artifacts import (
    load_loss_matrix,
    load_trajectory,
    read_json,
    read_json_object,
    record_json,
    save_loss_matrix,
    save_trajectory,
    write_file,
)
from .errors import InvalidInputError, NumericalFailureError, TrajtopoError, fits, from_json_object
from .geometry import load_distance_matrix, save_distance_matrix
from .pipeline import ExperimentConfig

ENV_OUTPUT_ROOT = "TRAJTOPO_OUT"


def _default_out(explicit: str | None, configured: str | None = None) -> str:
    out = explicit or configured or os.environ.get(ENV_OUTPUT_ROOT)
    if not out:
        raise InvalidInputError(
            f"no output directory given; pass --out or set {ENV_OUTPUT_ROOT}"
        )
    return out


def _parse_list(text: str, kind: type = float) -> list:
    try:
        return [kind(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated {kind.__name__}s, got {text!r}") from exc


def _run_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the config file, the dedicated flags and every --set key=JSON
    into one config document, in that order, and build it with the one
    typed check of `pipeline.config_from_dict`. `stability.KEY` reaches the
    stability section."""
    doc = read_json_object(args.config) if args.config else {}
    lists = {"n_grid": int, "eta_grid": float, "seeds": int}
    for key in ("task", "n_grid", "eta_grid", "seeds", "iterations", "jobs"):
        value = getattr(args, key)
        if value is not None:
            doc[key] = _parse_list(value, lists[key]) if key in lists else value
    for assignment in args.set or []:
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise InvalidInputError(f"--set expects key=value, got {assignment!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if key.startswith("stability."):
            if doc.get("stability") is None:
                doc["stability"] = {}
            if not isinstance(doc["stability"], dict):
                raise InvalidInputError("stability section must be a JSON object")
            doc["stability"][key.split(".", 1)[1]] = value
        else:
            doc[key] = value
    return pipeline.config_from_dict(doc)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    out = _default_out(args.out, cfg.output_dir)
    result = pipeline.run_pipeline(cfg, output_dir=out)
    print(
        json.dumps(
            {
                "output_dir": result.output_dir,
                "cells_computed": result.computed,
                "cells_skipped": result.skipped,
                "runs": len(result.records),
            },
            sort_keys=True,
        )
    )
    return 0


# traj-gen flag -> config key; the four flags of the cell fill one-element grids
_TRAJ_GEN_KEYS = {
    "n": "n_grid", "eta": "eta_grid", "batch": "batch_grid", "seed": "seeds",
    "task": "task", "iterations": "iterations", "warmup": "warmup", "input_dim": "input_dim",
    "radius": "radius", "step_rule": "step_rule", "class_sep": "class_sep", "noise": "noise",
}


def cmd_traj_gen(args: argparse.Namespace) -> int:
    """Train the one cell that the flags name; every unset flag takes the
    run config's default."""
    doc = {}
    for flag, key in _TRAJ_GEN_KEYS.items():
        value = getattr(args, flag)
        if value is not None:
            doc[key] = value if flag == key else [value]
    cfg = pipeline.config_from_dict(doc)
    out_dir = Path(_default_out(args.out))
    out_dir.mkdir(parents=True, exist_ok=True)
    (cell,) = pipeline.train_cells(cfg, cfg.eta_grid[0], cfg.batch_grid[0],
                                   [(cfg.n_grid[0], cfg.seeds[0])])
    lm_train, lm_test = cell.loss_matrices()

    save_trajectory(cell.window, out_dir / "trajectory")
    save_loss_matrix(lm_train, out_dir / "losses_train")
    save_loss_matrix(lm_test, out_dir / "losses_test")
    gen_gap = analysis.worst_case_gap(lm_train, lm_test)
    print(json.dumps({"output_dir": str(out_dir), "gen_gap": gen_gap}, sort_keys=True))
    return 0


def cmd_distmat(args: argparse.Namespace) -> int:
    traj = load_trajectory(args.trajectory)
    if args.subsample is not None:
        traj = geometry.subsample_uniform(traj, args.subsample, args.seed)
    dist = geometry.distance_matrix(traj, args.dedup_eps)
    save_distance_matrix(dist, args.out)
    print(json.dumps({"points": len(dist), "out": str(args.out)}, sort_keys=True))
    return 0


def cmd_lifetime_sum(args: argparse.Namespace) -> int:
    dist = load_distance_matrix(args.distmat)
    value = lifetime.alpha_weighted_lifetime_sum(dist, args.alpha)
    # a spanning tree on m points has m - 1 edges
    print(
        json.dumps(
            {"alpha": args.alpha, "e_alpha": value, "edges": len(dist) - 1},
            sort_keys=True,
        )
    )
    return 0


def cmd_pmag(args: argparse.Namespace) -> int:
    dist = load_distance_matrix(args.distmat)
    if args.theorem_scale is not None:
        parts = _parse_list(args.theorem_scale)
        if len(parts) != 4:
            raise InvalidInputError("--theorem-scale expects lambda,L,B,beta")
        scales = [magnitude.pmag_scale(*parts)]
    else:
        scales = _parse_list(args.scales)
    grid = magnitude.ScaleGrid(tuple(sorted(set(scales))))
    profile = magnitude.magnitude_profile(dist, grid, solver=args.solver)
    doc = {
        repr(s): {
            "pmag": sol.pmag,
            "magnitude": sol.magnitude,
            "residual": sol.residual,
            "solver": sol.solver,
            "iterations": sol.iterations,
        }
        for s, sol in profile.items()
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    if args.losses:
        if len(args.losses) != 2:
            raise InvalidInputError("pass exactly two loss-matrix artifact stems")
        a = load_loss_matrix(args.losses[0])
        b = load_loss_matrix(args.losses[1])
        value = stability.estimate_stability(a, b, symmetrized=args.symmetrized)
        print(json.dumps({"estimate": value, "symmetrized": args.symmetrized}, sort_keys=True))
        return 0
    if not args.config:
        raise InvalidInputError("pass --config or two loss-matrix artifacts")
    doc = read_json_object(args.config, "stability config")
    n = doc.pop("n", None)
    n_values = n if isinstance(n, list) else [n]
    if not n_values or not fits(n_values, list[int]):
        raise InvalidInputError(
            f"stability config 'n' must be an integer or a nonempty list of integers, got {n!r}"
        )
    configs = [
        from_json_object(stability.StabilityConfig, {**doc, "n": n}, "stability config")
        for n in n_values
    ]
    reports = [stability.run_stability_experiment(cfg) for cfg in configs]
    for report in reports:
        sys.stdout.write(record_json(report))
    if args.csv:
        write_file(args.csv, stability.stability_csv(reports))
    return 0


def _load_samples(args: argparse.Namespace) -> list[float]:
    if args.samples is not None:
        return _parse_list(args.samples)
    doc = read_json(args.samples_file, "samples file")
    if isinstance(doc, dict):
        doc = doc.get("samples")
    if not fits(doc, list[float]):
        raise InvalidInputError(f"samples file {args.samples_file} must be a list of numbers"
                                " or {'samples': [...]}")
    return [float(v) for v in doc]


def cmd_bound(args: argparse.Namespace) -> int:
    if args.beta is not None:
        beta = args.beta
    else:
        mean = read_json_object(args.stability_report, "stability report").get("mean")
        if not fits(mean, float):
            raise InvalidInputError(f"stability report needs a number 'mean', got {mean!r}")
        beta = float(mean)
    samples = _load_samples(args)
    if args.theorem == "ealpha":
        if args.k_const is not None:
            k_const = args.k_const
        elif args.lipschitz is not None and args.n is not None:
            k_const = bounds.kn_alpha(args.n, args.lipschitz, args.loss_bound, args.alpha)
        else:
            raise InvalidInputError("pass --k-const, or --lipschitz with --n")
        result = bounds.ealpha_bound(beta, args.loss_bound, k_const, samples)
    else:
        result = bounds.pmag_bound(beta, args.loss_bound, args.lam, samples)
    sys.stdout.write(record_json(result))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    runs_dir = Path(args.runs_dir)
    out_dir = Path(args.out) if args.out else runs_dir / "report"
    manifest = runs_dir / pipeline.RUN_MANIFEST
    if not manifest.exists():
        raise InvalidInputError(f"no {manifest}; re-run `trajtopo run` into {runs_dir}")
    result = pipeline.run_pipeline(pipeline.load_config(manifest), runs_dir, report_dir=out_dir)
    print(json.dumps({"out": str(out_dir), "runs": len(result.records)}, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument as an InvalidInputError, so it exits 2
    with one line like every other input error."""

    def error(self, message: str):
        raise InvalidInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trajtopo",
        description="Topological complexity and stability analysis of optimizer trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full grid pipeline from a config file")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--out", help="output directory (overrides config and environment)")
    p.add_argument("--task", choices=trainer.TASK_KINDS)
    p.add_argument("--n-grid", help="comma-separated sample sizes")
    p.add_argument("--eta-grid", help="comma-separated learning rates")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--iterations", type=int)
    p.add_argument("--jobs", type=int, help="parallel workers over grid cells")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key (JSON value); stability.KEY reaches the stability section",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("traj-gen", help="train one run and emit its artifacts")
    p.add_argument("--task", choices=trainer.TASK_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--input-dim", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--step-rule", choices=trainer.STEP_RULES)
    p.add_argument("--class-sep", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_traj_gen)

    p = sub.add_parser("distmat", help="distance matrix from a trajectory artifact")
    p.add_argument("trajectory", help="trajectory artifact stem")
    p.add_argument("--out", required=True, help="output artifact stem")
    p.add_argument("--subsample", type=int, help="uniform subsample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dedup-eps", type=float, help="duplicate threshold (default: relative)")
    p.set_defaults(func=cmd_distmat)

    p = sub.add_parser("lifetime-sum", help="alpha-weighted MST lifetime sum")
    p.add_argument("distmat", help="distance-matrix artifact stem")
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_lifetime_sum)

    p = sub.add_parser("pmag", help="positive magnitude over a scale grid")
    p.add_argument("distmat", help="distance-matrix artifact stem")
    scales = p.add_mutually_exclusive_group(required=True)
    scales.add_argument("--scales", help="comma-separated scales")
    scales.add_argument("--theorem-scale", help="lambda,L,B,beta for the schedule scale")
    p.add_argument("--solver", default="direct", choices=list(magnitude.SOLVERS))
    p.set_defaults(func=cmd_pmag)

    p = sub.add_parser("stability", help="stability estimate from artifacts or a config")
    p.add_argument("losses", nargs="*", help="two loss-matrix artifact stems")
    p.add_argument("--config", help="JSON stability experiment config")
    p.add_argument("--symmetrized", action="store_true")
    p.add_argument("--csv", help="also write a CSV summary to this path")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("bound", help="evaluate a generalization bound")
    p.add_argument("--theorem", required=True, choices=["ealpha", "pmag"])
    beta = p.add_mutually_exclusive_group(required=True)
    beta.add_argument("--beta", type=float, help="stability coefficient")
    beta.add_argument("--stability-report", help="JSON stability report (uses its mean)")
    p.add_argument("--loss-bound", type=float, required=True, help="loss bound B")
    p.add_argument("--lipschitz", type=float, help="Lipschitz constant L")
    p.add_argument("--n", type=int, help="sample count (for the lifetime-sum constant)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k-const", type=float, help="lifetime-sum constant, overrides --lipschitz/--n")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    samples = p.add_mutually_exclusive_group(required=True)
    samples.add_argument("--samples", help="comma-separated complexity samples")
    samples.add_argument("--samples-file", help="JSON file with complexity samples")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("report", help="rewrite the reports of a finished run; computes nothing")
    p.add_argument("runs_dir", help="pipeline output directory")
    p.add_argument("--out", help="report directory (default: RUNS_DIR/report)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # OpenBLAS at one thread but for the magnitude solves (see `blas`)
        with blas.command_threads():
            return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (TrajtopoError, OSError) as exc:
        # an OSError names its path: a missing file, a directory given for a
        # file, an output path taken by a file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
