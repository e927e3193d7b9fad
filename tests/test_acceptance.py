"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line (visible with `pytest -s`) and
asserts the criterion at its stated tolerance, including runtime caps for
the long-running checks.
"""

import math
import time

import numpy as np
import pytest

from conftest import distances_of
from oracles import conjugate_gradient_weighting, exhaustive_lifetime_sum
from trajtopo.analysis import grid_report, pearson, slope_vs_n, spearman, worst_case_gap
from trajtopo.artifacts import RunRecord
from trajtopo.bounds import (
    ealpha_bound,
    kn_alpha,
    lemma_rhs_ealpha,
    lemma_rhs_pmag,
    mc_rademacher,
    pmag_bound,
)
from trajtopo.geometry import (
    deduplicate,
    default_dedup_eps,
    pairwise_distances,
    subsample_uniform,
)
from trajtopo.lifetime import alpha_weighted_lifetime_sum
from trajtopo.magnitude import positive_magnitude, weighting
from trajtopo.pipeline import ExperimentConfig, run_pipeline
from trajtopo.rng import stream
from trajtopo.stability import (
    StabilityConfig,
    analytic_sgd_stability,
    run_stability_experiment,
)
from trajtopo.trainer import SGDConfig, loss_matrix, make_task_and_data, projected_sgd


def check(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {name}{' :: ' + detail if detail else ''}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def run_windowed(kind, dim, n, eta, seed, warmup, window, radius=10.0):
    task, data, pool = make_task_and_data(kind, n, dim, seed)
    cfg = SGDConfig(radius=radius, step=eta, iterations=warmup + window, seed=seed)
    traj = projected_sgd(task, data, cfg, keep=window + 1)
    return task, data, pool, traj


def complexity_of(traj, m_sub, seed, alpha=1.0, scale=100.0):
    sub = subsample_uniform(traj, m_sub, seed)
    dist = pairwise_distances(sub)
    dist = deduplicate(dist, default_dedup_eps(dist))
    return alpha_weighted_lifetime_sum(dist, alpha), positive_magnitude(dist, scale)


def test_criterion_1_mst_oracle_equivalence():
    """Production lifetime sums equal exhaustive-enumeration values to 1e-12."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        m = int(rng.integers(2, 8))
        dim = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.3, 1.0))
        dist = distances_of(rng.uniform(0.0, 1.0, size=(m, dim)))
        got = alpha_weighted_lifetime_sum(dist, alpha)
        want = exhaustive_lifetime_sum(dist.values, alpha)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - started
    check(
        1,
        "MST oracle equivalence",
        worst <= 1e-12 and elapsed < 10.0,
        f"max |diff| = {worst:.2e} over 200 point sets, {elapsed:.1f}s",
    )


def test_criterion_2_magnitude_correctness():
    """Two-point closed form (1e-10), agreement of the Cholesky weighting
    with a conjugate-gradient oracle (1e-8), and the point-count limit
    (1e-6)."""
    rng = np.random.default_rng(202)
    started = time.perf_counter()

    worst_closed = 0.0
    for _ in range(100):
        d = float(rng.uniform(0.02, 8.0))
        s = float(rng.uniform(0.05, 50.0))
        got = positive_magnitude(distances_of([[0.0], [d]]), s)
        want = 2.0 / (1.0 + math.exp(-s * d))
        worst_closed = max(worst_closed, abs(got - want))

    worst_rel = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 201))
        dim = int(rng.integers(2, 6))
        dist = distances_of(rng.standard_normal((m, dim)))
        direct = weighting(dist, s=2.0)
        krylov, _, residual = conjugate_gradient_weighting(dist, 2.0)
        # an oracle run that does not converge counts as a gap of inf
        rel = np.linalg.norm(krylov - direct.gamma) / np.linalg.norm(direct.gamma)
        worst_rel = max(worst_rel, rel if residual <= 1e-10 else np.inf)

    worst_limit = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 30))
        dist = distances_of(rng.standard_normal((m, 3)))
        dist = deduplicate(dist, default_dedup_eps(dist))
        kept = len(dist)
        s = 700.0 / dist.values[dist.values > 0].min()
        worst_limit = max(worst_limit, abs(positive_magnitude(dist, s) - kept))

    elapsed = time.perf_counter() - started
    check(
        2,
        "magnitude correctness",
        worst_closed <= 1e-10 and worst_rel <= 1e-8 and worst_limit <= 1e-6 and elapsed < 30.0,
        f"closed form {worst_closed:.2e}, solver gap {worst_rel:.2e}, "
        f"limit {worst_limit:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_lemma_inequality_suite():
    """Exhaustive Rademacher complexity never exceeds either closed-form cap
    on 500 Lipschitz-valid random instances."""
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    violations = 0
    margin_e = margin_p = np.inf
    for _ in range(500):
        w_count = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        bound = float(rng.uniform(0.5, 3.0))
        spread = float(rng.uniform(0.1, 5.0))
        points = rng.uniform(-spread, spread, size=(w_count, int(rng.integers(1, 4))))
        anchors = rng.uniform(-spread, spread, size=(n, points.shape[1]))
        losses = np.minimum(
            bound, np.linalg.norm(points[:, None, :] - anchors[None, :, :], axis=2)
        )
        rad, _ = mc_rademacher(losses, mode="exhaustive")

        dist = distances_of(points)
        dist = deduplicate(dist, default_dedup_eps(dist))
        alpha = float(rng.uniform(0.2, 1.0))
        rhs_e = lemma_rhs_ealpha(
            n, bound, kn_alpha(n, 1.0, bound, alpha),
            alpha_weighted_lifetime_sum(dist, alpha),
        )
        lam = float(rng.uniform(0.2, 5.0))
        rhs_p = lemma_rhs_pmag(n, bound, lam, positive_magnitude(dist, lam))
        margin_e = min(margin_e, rhs_e - rad)
        margin_p = min(margin_p, rhs_p - rad)
        violations += (rad > rhs_e + 1e-12) + (rad > rhs_p + 1e-12)
    elapsed = time.perf_counter() - started
    check(
        3,
        "Rademacher lemma inequalities",
        violations == 0 and elapsed < 60.0,
        f"0 required, got {violations} violations; min margins "
        f"{margin_e:.3e}/{margin_p:.3e}, {elapsed:.1f}s",
    )


def test_criterion_4_stability_decay():
    """Per-replacement stability estimates fall monotonically in n with a
    log-log slope in [-1.5, -0.4] on both tasks."""
    started = time.perf_counter()
    ns = [50, 100, 200, 400, 800]
    details = []
    ok = True
    for kind, dim, step in (("quadratic", 8, 0.05), ("logistic_regression", 16, 0.1)):
        means = []
        for n in ns:
            cfg = StabilityConfig(
                task=kind,
                n=n,
                J=max(1, n // 10),
                seeds=list(range(10)),
                input_dim=dim,
                radius=10.0,
                step=step,
                iterations=200,
            )
            means.append(run_stability_experiment(cfg).mean)
        monotone = all(b < a for a, b in zip(means, means[1:]))
        _, slope, _ = pearson(np.log(ns), np.log(means))
        ok = ok and monotone and -1.5 <= slope <= -0.4
        details.append(f"{kind}: slope {slope:.2f}, monotone {monotone}")
    elapsed = time.perf_counter() - started
    check(4, "stability decay in n", ok and elapsed < 600.0,
          "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_5_zero_injection_self_consistency():
    """J = 0 with shared algorithmic randomness estimates exactly zero."""
    worst = 0.0
    for kind in ("quadratic", "logistic_regression", "small_mlp"):
        for seed in (0, 1, 2):
            cfg = StabilityConfig(
                task=kind, n=15, J=0, seeds=[seed], input_dim=3,
                iterations=30, step=0.1,
            )
            report = run_stability_experiment(cfg)
            worst = max(worst, abs(report.beta_hats[0]))
    check(5, "zero-injection self-consistency", worst == 0.0,
          f"max estimate {worst!r} (must be exactly 0.0)")


def test_criterion_6_complexity_grows_with_n():
    """Mean lifetime sum and fixed-scale magnitude rise with n at both
    learning rates (Spearman >= 0.8 over the n grid)."""
    started = time.perf_counter()
    ns = [50, 100, 200, 400, 800]
    seeds = range(4)
    ok = True
    details = []
    for eta in (0.05, 0.2):
        e1_means, pm_means = [], []
        for n in ns:
            e1s, pms = [], []
            for seed in seeds:
                _, _, _, traj = run_windowed(
                    "logistic_regression", 64, n, eta, seed, warmup=1500, window=600
                )
                e1, pm = complexity_of(traj, m_sub=500, seed=seed)
                e1s.append(e1)
                pms.append(pm)
            e1_means.append(np.mean(e1s))
            pm_means.append(np.mean(pms))
        rho_e1 = spearman(ns, e1_means)
        rho_pm = spearman(ns, pm_means)
        ok = ok and rho_e1 >= 0.8 and rho_pm >= 0.8
        details.append(f"eta={eta}: spearman E1 {rho_e1:.2f}, PMag {rho_pm:.2f}")
    elapsed = time.perf_counter() - started
    check(6, "complexity grows with n", ok and elapsed < 900.0,
          "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_7_slope_growth():
    """Regression slope of the lifetime sum on the gap rises with n in at
    least 2 of 3 task configurations (monotone fraction >= 2/3)."""
    started = time.perf_counter()
    ns = [50, 150, 400, 800]
    etas = [0.05, 0.1, 0.2]
    seeds = range(4)
    passing = 0
    details = []
    for kind, dim in (("logistic_regression", 64), ("quadratic", 16), ("small_mlp", 16)):
        records = []
        for n in ns:
            for eta in etas:
                for seed in seeds:
                    task, data, pool, traj = run_windowed(
                        kind, dim, n, eta, seed, warmup=1500, window=600
                    )
                    m = min(n, 500)
                    probe = np.sort(stream(seed, "train-probe").choice(n, size=m, replace=False))
                    gap = worst_case_gap(
                        loss_matrix(task, traj, data.take(probe), "train"),
                        loss_matrix(task, traj, pool.take(np.arange(m)), "test"),
                    )
                    e1, _ = complexity_of(traj, m_sub=400, seed=seed)
                    records.append(RunRecord(
                        run_id=f"{kind}-{n}-{eta}-{seed}", n=n, eta=eta, batch=1,
                        seed=seed, gen_gap=gap, e_alpha=e1, pmag={"100.0": 1.0},
                        lipschitz=1.0, loss_bound=1.0,
                    ))
        trend = slope_vs_n(grid_report(records, "e_alpha").per_n_stats)
        passing += trend.increasing_fraction >= 2.0 / 3.0
        details.append(f"{kind}: fraction {trend.increasing_fraction:.2f}")
    elapsed = time.perf_counter() - started
    check(7, "slope growth with n", passing >= 2 and elapsed < 900.0,
          "; ".join(details) + f" (need >= 2/3 in >= 2 configs), {elapsed:.0f}s")


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    cfg = ExperimentConfig(
        task="quadratic",
        input_dim=3,
        n_grid=[20, 40],
        eta_grid=[0.05, 0.1],
        batch_grid=[1],
        seeds=[0, 1],
        iterations=50,
        subsample=40,
        stability={"J": 4, "iterations": 40, "converge_iterations": 0},
    )
    out = tmp_path_factory.mktemp("grid")
    return cfg, out, run_pipeline(cfg, output_dir=out / "a")


def test_criterion_8_bound_sanity(small_grid):
    """Bound values are finite on every grid cell, scale exactly as the cube
    root of the stability coefficient, and rise with any complexity sample."""
    _, _, result = small_grid
    finite = bool(result.bound_rows) and all(
        np.isfinite(row["ealpha_bound"]) and np.isfinite(row["pmag_bound"])
        for row in result.bound_rows
    )

    samples = [0.5, 2.0, 7.0]
    base_e = ealpha_bound(0.21, 1.3, 5.0, samples).value
    base_p = pmag_bound(0.21, 1.3, 1.7, [s + 1.0 for s in samples]).value
    ratio_e = ealpha_bound(8.0 * 0.21, 1.3, 5.0, samples).value / base_e
    ratio_p = pmag_bound(8.0 * 0.21, 1.3, 1.7, [s + 1.0 for s in samples]).value / base_p
    cube_root_exact = abs(ratio_e - 2.0) <= 1e-12 and abs(ratio_p - 2.0) <= 1e-12

    monotone = True
    for i in range(len(samples)):
        bumped = list(samples)
        bumped[i] += 0.25
        monotone &= ealpha_bound(0.21, 1.3, 5.0, bumped).value > base_e
        bumped_p = [s + 1.0 for s in samples]
        bumped_p[i] += 0.25
        monotone &= pmag_bound(0.21, 1.3, 1.7, bumped_p).value > base_p

    check(
        8,
        "bound sanity",
        finite and cube_root_exact and monotone,
        f"finite on {len(result.bound_rows)} groups, cube-root ratios "
        f"{ratio_e:.15f}/{ratio_p:.15f}, monotone {monotone}",
    )


def test_criterion_9_pipeline_determinism(small_grid):
    """Re-running the identical config reproduces every report byte."""
    from test_pipeline import tree_digest

    cfg, out, _ = small_grid
    first = tree_digest(out / "a")
    run_pipeline(cfg, output_dir=out / "a")  # idempotent re-run
    rerun_same = tree_digest(out / "a") == first
    run_pipeline(cfg, output_dir=out / "b")  # fresh directory
    fresh_same = tree_digest(out / "b") == first
    check(9, "pipeline determinism", rerun_same and fresh_same,
          f"re-run identical: {rerun_same}, fresh run identical: {fresh_same}")


def test_criterion_10_formula_spot_checks():
    """Closed-form constants, bounds, and the stability formula match their
    hand-derived values to 1e-12."""
    cases = [
        (kn_alpha(1, 1.0, 1.0, 1.0), 4.0),
        (kn_alpha(4, 1.0, 2.0, 1.0), 4.0),
        (kn_alpha(4, 1.0, 1.0, 0.5), 4.0),
        (ealpha_bound(1.0, 1.0, 5.0, [0.0]).value, 4.0),
        (ealpha_bound(8.0, 1.0, 5.0, [0.0]).value, 8.0),
        (ealpha_bound(1.0, 1.0, 4.0, [(math.exp(0.5) - 1.0) / 4.0]).value, 6.0),
        (pmag_bound(1.0, 1.0, 2.0, [1.0]).value, 4.0),
        (pmag_bound(1.0, 1.0, 1.0, [math.e]).value, 5.0),
        (pmag_bound(1e-3, 1.0, 1.0, [1.0]).value, 0.3),
        (lemma_rhs_ealpha(1, 1.0, 1.0, 0.0), 1.0),
        (lemma_rhs_ealpha(4, 2.0, 1.0, 0.0), 1.0),
        (lemma_rhs_ealpha(2, 1.0, 4.0, (math.exp(0.5) - 1.0) / 4.0), math.sqrt(2.0)),
        (lemma_rhs_pmag(1, 1.0, 2.0, 1.0), 1.0),
        (lemma_rhs_pmag(2, 1.0, 1.0, math.e), 1.25),
        (analytic_sgd_stability(1.0, 1.0, 1.0, 0.5, n=5, iterations=0), 0.0),
        (analytic_sgd_stability(1.0, 1.0, 1.0, 0.5, n=5, iterations=1), 1.0),
        (
            analytic_sgd_stability(2.0, 0.5, 3.0, 1.0, n=9, iterations=7)
            / analytic_sgd_stability(2.0, 0.5, 3.0, 1.0, n=17, iterations=7),
            2.0,
        ),
    ]
    worst = max(abs(got - want) for got, want in cases)
    check(10, "formula spot checks", worst <= 1e-12,
          f"max |diff| = {worst:.2e} over {len(cases)} identities")
