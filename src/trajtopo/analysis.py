"""Generalization gaps, correlation statistics, and grid reports.

Correlation conventions: sample (k-1) variance throughout; the regression
slope is complexity-on-gap, i.e. the least-squares slope of the complexity
statistic regressed on the observed gap. Kendall's tau uses the tie-
corrected tau-b form computed by exhaustive pair enumeration, which is
exact and fast at grid sizes of a few hundred runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import LossMatrix, RunRecord, csv_text
from .errors import InvalidInputError, UndefinedStatisticError

COMPLEXITY_KINDS = ("e_alpha", "pmag_fixed_scale", "pmag_theorem_scale")
GRID_CSV_HEADER = "n,measure,tau,r,slope,count"
# `RunRecord.pmag` key of the magnitude at the bound's theorem scale
THEOREM_KEY = "theorem"


def worst_case_gap(train_losses: LossMatrix, test_losses: LossMatrix) -> float:
    """Largest per-iteration difference of mean test loss minus mean train loss."""
    if not np.array_equal(train_losses.iteration_ids, test_losses.iteration_ids):
        raise InvalidInputError("train and test loss matrices must share iterations")
    gaps = test_losses.values.mean(axis=1) - train_losses.values.mean(axis=1)
    return float(gaps.max())


def pearson(x, y) -> tuple[float, float, float]:
    """Product-moment correlation of x and y plus the least-squares line
    of y on x. Returns (r, slope, intercept)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise InvalidInputError("need two equal-length vectors with at least 2 entries")
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(dx @ dx) / (x.size - 1)
    var_y = float(dy @ dy) / (x.size - 1)
    if var_x == 0.0 or var_y == 0.0:
        raise UndefinedStatisticError("correlation undefined for zero-variance input")
    cov = float(dx @ dy) / (x.size - 1)
    slope = cov / var_x
    return cov / math.sqrt(var_x * var_y), slope, float(y.mean() - slope * x.mean())


def kendall(x, y) -> float:
    """Tie-corrected tau-b over all pairs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise InvalidInputError("need two equal-length vectors with at least 2 entries")
    concordant = discordant = ties_x = ties_y = 0
    k = x.size
    for i in range(k - 1):
        sx = np.sign(x[i + 1 :] - x[i])
        sy = np.sign(y[i + 1 :] - y[i])
        prod = sx * sy
        concordant += int((prod > 0).sum())
        discordant += int((prod < 0).sum())
        ties_x += int((sx == 0).sum())
        ties_y += int((sy == 0).sum())
    n0 = k * (k - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        raise UndefinedStatisticError("tau undefined when one variable is fully tied")
    return (concordant - discordant) / denom


def spearman(x, y) -> float:
    """Rank correlation: Pearson r of average ranks."""
    from scipy.stats import rankdata

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r, _, _ = pearson(rankdata(x), rankdata(y))
    return r


@dataclass
class GroupStats:
    """Correlation statistics for one (sample size, measure) group."""

    tau: float | None
    r: float | None
    slope: float | None
    count: int


@dataclass
class GridReport:
    """Per-sample-size statistics for one complexity kind, raw and log."""

    complexity_kind: str
    per_n_stats: dict[int, GroupStats] = field(default_factory=dict)
    per_n_stats_log: dict[int, GroupStats] = field(default_factory=dict)

    def to_csv(self) -> str:
        rows = [
            [n, measure, g.tau, g.r, g.slope, g.count]
            for measure, stats in (
                (self.complexity_kind, self.per_n_stats),
                (f"log_{self.complexity_kind}", self.per_n_stats_log),
            )
            for n, g in sorted(stats.items())
        ]
        return csv_text(GRID_CSV_HEADER, rows)


def _complexity_value(record: RunRecord, kind: str, scale_key: str | None) -> float:
    if kind == "e_alpha":
        return record.e_alpha
    key = scale_key
    if key is None and kind == "pmag_theorem_scale":
        key = THEOREM_KEY
    if key is None:
        # the fixed scale defaults to the smallest recorded one
        keys = [k for k in record.pmag if k != THEOREM_KEY]
        if not keys:
            raise InvalidInputError(f"run {record.run_id} has no fixed-scale magnitude values")
        key = min(keys, key=float)
    try:
        return record.pmag[key]
    except KeyError as exc:
        raise InvalidInputError(f"run {record.run_id} lacks magnitude at scale {key!r}") from exc


def _group_stats(gaps: np.ndarray, comps: np.ndarray) -> GroupStats:
    tau: float | None
    r: float | None
    slope: float | None
    try:
        tau = kendall(gaps, comps)
    except UndefinedStatisticError:
        tau = None
    try:
        r, slope, _ = pearson(gaps, comps)
    except UndefinedStatisticError:
        r, slope = None, None
    return GroupStats(tau=tau, r=r, slope=slope, count=len(gaps))


def grid_report(
    runs: list[RunRecord], complexity_kind: str, scale_key: str | None = None
) -> GridReport:
    """Group runs by sample size and correlate gap with complexity.

    Statistics are reported against the raw complexity and its logarithm;
    groups where a statistic is undefined get null cells rather than
    failing the report.
    """
    if complexity_kind not in COMPLEXITY_KINDS:
        raise InvalidInputError(f"unknown complexity kind {complexity_kind!r}")
    if not runs:
        raise InvalidInputError("need at least one run")
    report = GridReport(complexity_kind=complexity_kind)
    by_n: dict[int, list[RunRecord]] = {}
    for record in runs:
        by_n.setdefault(record.n, []).append(record)
    for n, group in sorted(by_n.items()):
        if len(group) < 2:
            continue
        gaps = np.array([g.gen_gap for g in group])
        comps = np.array([_complexity_value(g, complexity_kind, scale_key) for g in group])
        report.per_n_stats[n] = _group_stats(gaps, comps)
        if (comps > 0).all():
            report.per_n_stats_log[n] = _group_stats(gaps, np.log(comps))
        else:
            report.per_n_stats_log[n] = GroupStats(None, None, None, len(group))
    return report


@dataclass
class TrendSummary:
    """Ordered per-n slopes and how monotone their growth is."""

    n_values: list[int]
    slopes: list[float]
    increasing_fraction: float


def slope_vs_n(per_n_stats: dict[int, GroupStats]) -> TrendSummary:
    """Slope sequence across sample sizes and its increasing fraction."""
    usable = {n: g for n, g in per_n_stats.items() if g.slope is not None}
    if len(usable) < 3:
        raise InvalidInputError("need slopes for at least 3 sample sizes")
    ns = sorted(usable)
    slopes = [usable[n].slope for n in ns]
    pairs = list(zip(slopes, slopes[1:]))
    frac = sum(1 for a, b in pairs if b > a) / len(pairs)
    return TrendSummary(n_values=ns, slopes=[float(s) for s in slopes], increasing_fraction=frac)
