import numpy as np
import pytest
import scipy.stats

from oracles import average_ranks
from trajtopo.analysis import (
    GRID_CSV_HEADER,
    grid_report,
    kendall,
    pearson,
    slope_vs_n,
    spearman,
    worst_case_gap,
)
from trajtopo.artifacts import LossMatrix, RunRecord
from trajtopo.errors import InvalidInputError, UndefinedStatisticError


def loss_rows(rows, split):
    values = np.asarray(rows, dtype=np.float64)
    return LossMatrix(
        values=values,
        iteration_ids=np.arange(values.shape[0]),
        sample_ids=np.arange(values.shape[1]),
        split=split,
    )


def record(n, gap, e_alpha, pmag=None, seed=0):
    return RunRecord(
        run_id=f"n{n}-s{seed}", n=n, eta=0.1, batch=1, seed=seed,
        gen_gap=gap, e_alpha=e_alpha, pmag=pmag or {"100.0": max(e_alpha, 1.0)},
    )


class TestWorstCaseGap:
    def test_identical_risks_give_zero(self, rng):
        lm = loss_rows(np.abs(rng.standard_normal((4, 3))), "train")
        test = loss_rows(lm.values.copy(), "test")
        assert worst_case_gap(lm, test) == 0.0

    def test_single_iterate(self):
        train = loss_rows([[0.4, 0.4]], "train")
        test = loss_rows([[0.9, 0.9]], "test")
        np.testing.assert_allclose(worst_case_gap(train, test), 0.5, rtol=0.0, atol=1e-15)

    def test_max_over_iterations(self):
        train = loss_rows([[0.1, 0.1], [0.2, 0.2]], "train")
        test = loss_rows([[0.2, 0.2], [0.5, 0.5]], "test")
        np.testing.assert_allclose(worst_case_gap(train, test), 0.3, rtol=0.0, atol=1e-15)

    def test_dominates_final_iterate_gap(self, rng):
        train = loss_rows(np.abs(rng.standard_normal((6, 4))), "train")
        test = loss_rows(np.abs(rng.standard_normal((6, 4))), "test")
        final = test.values[-1].mean() - train.values[-1].mean()
        assert worst_case_gap(train, test) >= final

    def test_mismatched_iterations_rejected(self):
        train = loss_rows([[0.1]], "train")
        test = LossMatrix(
            values=np.array([[0.2]]), iteration_ids=[5], sample_ids=[0], split="test"
        )
        with pytest.raises(InvalidInputError):
            worst_case_gap(train, test)


class TestPearson:
    def test_exact_line(self):
        r, slope, intercept = pearson([0.0, 1.0, 2.0], [0.0, 2.0, 4.0])
        assert (r, slope, intercept) == (1.0, 2.0, 0.0)

    def test_exact_antiline(self):
        r, _, _ = pearson([0.0, 1.0], [1.0, 0.0])
        assert r == -1.0

    def test_half_correlation(self):
        r, slope, _ = pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        np.testing.assert_allclose(r, 0.5, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(slope, 0.5, rtol=0.0, atol=1e-15)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            pearson([1.0, 1.0], [0.0, 1.0])

    def test_affine_invariance_of_r(self, rng):
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        r, slope, _ = pearson(x, y)
        r2, slope2, _ = pearson(3.0 * x + 7.0, y)
        np.testing.assert_allclose(r2, r, rtol=1e-12)
        np.testing.assert_allclose(slope2, slope / 3.0, rtol=1e-12)

    def test_matches_scipy(self, rng):
        x = rng.standard_normal(30)
        y = 0.3 * x + rng.standard_normal(30)
        r, slope, intercept = pearson(x, y)
        np.testing.assert_allclose(r, scipy.stats.pearsonr(x, y).statistic, rtol=1e-12)
        fit = scipy.stats.linregress(x, y)
        np.testing.assert_allclose(slope, fit.slope, rtol=1e-12)
        np.testing.assert_allclose(intercept, fit.intercept, rtol=1e-12)


class TestKendall:
    def test_monotone_sequences(self):
        assert kendall([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
        assert kendall([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_one_discordant_pair(self):
        np.testing.assert_allclose(
            kendall([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]), 1.0 / 3.0, rtol=0.0, atol=1e-15
        )

    def test_fully_tied_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            kendall([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    def test_matches_scipy_with_ties(self, rng):
        x = rng.integers(0, 5, size=40).astype(float)
        y = rng.integers(0, 5, size=40).astype(float)
        np.testing.assert_allclose(
            kendall(x, y), scipy.stats.kendalltau(x, y).statistic, rtol=1e-12
        )

    def test_invariant_under_monotone_transform(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        np.testing.assert_allclose(kendall(np.exp(x), y), kendall(x, y), rtol=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert -1.0 <= kendall(x, y) <= 1.0


class TestSpearman:
    def test_monotone_nonlinear(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, np.exp(x)) == 1.0

    def test_matches_scipy(self, rng):
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        np.testing.assert_allclose(
            spearman(x, y), scipy.stats.spearmanr(x, y).statistic, rtol=1e-12
        )

    def test_equals_loop_ranks(self, rng):
        """Spearman is bit-identical to Pearson r of the ranks that a
        tie-grouping loop assigns, with and without ties."""
        cases = [
            ([3.0, 1.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0]),
            ([1.0, 1.0, 2.0, 2.0, 2.0, 0.0], [0.5, 0.5, 0.5, 1.0, 2.0, 3.0]),
        ]
        for _ in range(2000):
            size = int(rng.integers(2, 40))
            cases.append((rng.integers(0, 6, size).astype(float), rng.standard_normal(size)))
        for x, y in cases:
            for a, b in ((np.asarray(x), np.asarray(y)), (np.asarray(y), np.asarray(x))):
                try:
                    expected = pearson(average_ranks(a), average_ranks(b))[0]
                except UndefinedStatisticError:
                    with pytest.raises(UndefinedStatisticError):
                        spearman(a, b)
                else:
                    assert spearman(a, b) == expected


class TestGridReport:
    def test_perfect_linear_group(self):
        runs = [record(100, gap, 2.0 * gap, seed=i) for i, gap in enumerate([0.1, 0.2, 0.3])]
        report = grid_report(runs, "e_alpha")
        stats = report.per_n_stats[100]
        np.testing.assert_allclose(stats.r, 1.0, rtol=1e-12)
        np.testing.assert_allclose(stats.slope, 2.0, rtol=1e-12)
        assert stats.count == 3

    def test_slope_regresses_complexity_on_gap(self):
        runs = [record(100, gap, 3.0 * gap, seed=i) for i, gap in enumerate([0.1, 0.2, 0.4])]
        stats = grid_report(runs, "e_alpha").per_n_stats[100]
        np.testing.assert_allclose(stats.slope, 3.0, rtol=1e-12)

    def test_two_groups_two_rows_per_measure(self):
        runs = [
            record(50, 0.1, 1.0, seed=0), record(50, 0.2, 2.0, seed=1),
            record(200, 0.1, 1.5, seed=0), record(200, 0.3, 2.5, seed=1),
        ]
        report = grid_report(runs, "e_alpha")
        csv = report.to_csv().strip().split("\n")
        assert csv[0] == GRID_CSV_HEADER
        assert len(csv) == 1 + 4
        assert sum(line.split(",")[1] == "e_alpha" for line in csv[1:]) == 2
        assert sum(line.split(",")[1] == "log_e_alpha" for line in csv[1:]) == 2

    def test_degenerate_group_emits_null_cells(self):
        runs = [record(100, 0.1, 1.0, seed=0), record(100, 0.1, 2.0, seed=1)]
        report = grid_report(runs, "e_alpha")
        stats = report.per_n_stats[100]
        assert stats.r is None and stats.slope is None
        line = report.to_csv().strip().split("\n")[1]
        assert ",," in line

    def test_magnitude_kinds_select_scale(self):
        runs = [
            record(10, 0.1, 1.0, pmag={"100.0": 2.0, "theorem": 5.0}, seed=0),
            record(10, 0.2, 1.0, pmag={"100.0": 4.0, "theorem": 9.0}, seed=1),
        ]
        fixed = grid_report(runs, "pmag_fixed_scale").per_n_stats[10]
        theorem = grid_report(runs, "pmag_theorem_scale").per_n_stats[10]
        np.testing.assert_allclose(fixed.slope, 20.0, rtol=1e-12)
        np.testing.assert_allclose(theorem.slope, 40.0, rtol=1e-12)

    def test_fixed_scale_defaults_to_smallest_scale(self):
        """Without a scale key the fixed scale is the numerically smallest
        one: "20.0" although "100.0" sorts first as a string."""
        runs = [
            record(10, 0.1, 1.0, pmag={"100.0": 7.0, "20.0": 2.0, "theorem": 5.0}, seed=0),
            record(10, 0.2, 1.0, pmag={"100.0": 7.5, "20.0": 4.0, "theorem": 9.0}, seed=1),
        ]
        fixed = grid_report(runs, "pmag_fixed_scale").per_n_stats[10]
        np.testing.assert_allclose(fixed.slope, 20.0, rtol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            grid_report([record(10, 0.1, 1.0)], "persistence")

    def test_groups_below_two_runs_skipped(self):
        report = grid_report([record(10, 0.1, 1.0)], "e_alpha")
        assert report.per_n_stats == {}


class TestSlopeTrend:
    def stats_for(self, slopes):
        from trajtopo.analysis import GroupStats

        return {
            n: GroupStats(tau=None, r=None, slope=s, count=2)
            for n, s in zip((10, 20, 40), slopes)
        }

    def test_increasing(self):
        trend = slope_vs_n(self.stats_for([1.0, 2.0, 3.0]))
        assert trend.increasing_fraction == 1.0
        assert trend.slopes == [1.0, 2.0, 3.0]

    def test_decreasing(self):
        assert slope_vs_n(self.stats_for([3.0, 2.0, 1.0])).increasing_fraction == 0.0

    def test_needs_three_groups(self):
        stats = self.stats_for([1.0, 2.0, 3.0])
        del stats[40]
        with pytest.raises(InvalidInputError):
            slope_vs_n(stats)
