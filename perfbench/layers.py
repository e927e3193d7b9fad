"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of the `trajtopo` modules at
module-attribute level. A function object is replaced under every name
that refers to it in any loaded `trajtopo` module, so names imported by
name (`stability.projected_sgd`, `pipeline.save_trajectory`,
`geometry.read_artifact`, ...) are wrapped too. Nothing is wrapped until
`Tracer.installed()` is entered, and everything is restored when it exits,
so the untraced run calls the program's own functions.

Each call opens a span on a parent stack. A span's self time is its
duration minus the time of the spans it called. Counts are computed from
the arguments and results at the same boundary, never measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict


def _count_solve(args, result):
    counts = {"magnitude.solves": 1}
    if args["solver"] == "conjugate_gradient":
        counts["magnitude.cg_attempts"] = 1
        counts["magnitude.cg_iterations"] = result.iterations
        counts["magnitude.cg_fallbacks"] = int(result.solver != "conjugate_gradient")
    return counts


def _count_estimate(args, result):
    a, b = args["losses_a"].values, args["losses_b"].values
    cells = a.shape[0] * b.shape[0] * a.shape[1]
    return {"stability.estimate_cells": 2 * cells if args["symmetrized"] else cells}


def _count_dedup(args, result):
    return {
        "geometry.points_in": len(args["dist"]),
        "geometry.points_removed": len(args["dist"]) - len(result),
    }


def _count_cell(args, result):
    return {"pipeline.cells_skipped" if result.skipped else "pipeline.cells_computed": 1}


# (span group, "module:function", counter or None). A counter maps the
# bound arguments and the result to count increments. The `pipeline._*`
# stage functions are private; they are the only boundary of each stage.
SPANS = [
    ("magnitude.solve", "magnitude:weighting", _count_solve),
    ("stability.estimate", "stability:estimate_stability", _count_estimate),
    ("stability.experiment", "stability:run_stability_experiment", None),
    ("trainer.sgd", "trainer:projected_sgd",
     lambda args, result: {"trainer.sgd_steps": len(result) - 1}),
    ("trainer.loss_matrix", "trainer:loss_matrix",
     lambda args, result: {"trainer.loss_entries": result.values.size}),
    ("geometry.pdist", "geometry:pairwise_distances", None),
    ("geometry.dedup", "geometry:deduplicate", _count_dedup),
    ("lifetime.mst", "lifetime:minimum_spanning_tree",
     lambda args, result: {"lifetime.mst_calls": 1}),
    ("artifacts.write", "artifacts:write_artifact",
     lambda args, result: {"artifacts.bytes_written": 8 * args["matrix"].size}),
    ("artifacts.write", "artifacts:save_trajectory", None),
    ("artifacts.write", "artifacts:save_loss_matrix", None),
    ("artifacts.write", "geometry:save_distance_matrix", None),
    ("artifacts.read", "artifacts:read_artifact",
     lambda args, result: {"artifacts.bytes_read": 8 * result[1].size}),
    ("artifacts.read", "artifacts:load_trajectory", None),
    ("artifacts.read", "artifacts:load_loss_matrix", None),
    ("artifacts.read", "geometry:load_distance_matrix", None),
    ("pipeline.cell", "pipeline:compute_cell", _count_cell),
    ("pipeline.stability_stage", "pipeline:_stability_stage", None),
    ("pipeline.bounds_stage", "pipeline:_bounds_stage", None),
    ("pipeline.reports", "pipeline:_write_reports", None),
    ("bounds.constants", "bounds:estimate_constants", None),
    ("analysis.report", "analysis:grid_report", None),
]

# Reported time metrics: name -> (group, "self" or "total"). Stage spans
# report their total time, because their own code is a thin loop over
# the layers below; every other span reports self time.
TIME_METRICS = {
    "magnitude.solve_s": ("magnitude.solve", "self"),
    "stability.estimate_s": ("stability.estimate", "self"),
    "stability.experiment_s": ("stability.experiment", "total"),
    "trainer.sgd_s": ("trainer.sgd", "self"),
    "trainer.loss_matrix_s": ("trainer.loss_matrix", "self"),
    "geometry.pdist_s": ("geometry.pdist", "self"),
    "geometry.dedup_s": ("geometry.dedup", "self"),
    "lifetime.mst_s": ("lifetime.mst", "self"),
    "artifacts.write_s": ("artifacts.write", "self"),
    "artifacts.read_s": ("artifacts.read", "self"),
    "pipeline.stability_stage_s": ("pipeline.stability_stage", "total"),
    "pipeline.bounds_stage_s": ("pipeline.bounds_stage", "total"),
    "pipeline.reports_s": ("pipeline.reports", "total"),
    "bounds.constants_s": ("bounds.constants", "self"),
    "analysis.report_s": ("analysis.report", "self"),
}

# Computed counts; each must repeat exactly between traced operations.
COUNT_METRICS = (
    "magnitude.solves",
    "magnitude.cg_iterations",
    "magnitude.cg_fallbacks",
    "stability.estimate_cells",
    "trainer.sgd_steps",
    "trainer.loss_entries",
    "geometry.points_in",
    "geometry.points_removed",
    "lifetime.mst_calls",
    "artifacts.bytes_written",
    "artifacts.bytes_read",
    "pipeline.cells_computed",
    "pipeline.cells_skipped",
)


class Tracer:
    """Span stack and per-operation accumulators for the wrapped layers."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def _wrap(self, group, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self._stack
            frame = [group, 0.0]
            frames.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                frames.pop()
                self.self_s[group] += elapsed - frame[1]
                if frames:
                    frames[-1][1] += elapsed
                if all(f[0] != group for f in frames):
                    self.total_s[group] += elapsed
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, value in counter(bound.arguments, result).items():
                    self.counts[name] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span target for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "trajtopo" or name.startswith("trajtopo."))]
        replaced = []
        try:
            for group, target, counter in SPANS:
                module_name, attr = target.split(":")
                module = importlib.import_module(f"trajtopo.{module_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: trajtopo.{module_name}.{attr} not found; "
                          f"its time counts as unattributed", file=sys.stderr)
                    continue
                wrapper = self._wrap(group, fn, counter)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, name, wrapper)
                            replaced.append((mod, name, fn))
            yield self
        finally:
            for mod, name, fn in reversed(replaced):
                setattr(mod, name, fn)

    def snapshot(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the operation traced since the last reset."""
        out: dict[str, float] = {}
        for name, (group, kind) in TIME_METRICS.items():
            out[name] = (self.self_s if kind == "self" else self.total_s)[group]
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        attempts = self.counts["magnitude.cg_attempts"]
        fallbacks = self.counts["magnitude.cg_fallbacks"]
        # with no CG solve attempted no CG work was wasted
        out["magnitude.cg_useful_ratio"] = (attempts - fallbacks) / attempts if attempts else 1.0
        out["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        return out
