import numpy as np
import pytest
import scipy.spatial.distance

from oracles import blocked_max_min_estimate, stability_report_json
from trajtopo.artifacts import LossMatrix, record_json
from trajtopo.errors import InvalidInputError
from trajtopo.stability import (
    StabilityConfig,
    StabilityReport,
    analytic_sgd_stability,
    default_injection_count,
    estimate_stability,
    run_stability_experiment,
    stability_csv,
)


def losses(values, sample_ids=None, split="probe"):
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if sample_ids is None:
        sample_ids = np.arange(values.shape[1])
    return LossMatrix(
        values=values,
        iteration_ids=np.arange(values.shape[0]),
        sample_ids=sample_ids,
        split=split,
    )


class TestEstimator:
    def test_identical_matrices_give_zero(self, rng):
        a = losses(np.abs(rng.standard_normal((6, 4))))
        assert estimate_stability(a, a) == 0.0

    def test_single_cell_absolute_difference(self):
        assert estimate_stability(losses([[0.25]]), losses([[0.875]])) == 0.625

    def test_hand_traced_two_by_two(self):
        # worst-per-sample differences: [[0.5, 0.9], [0.5, 0.1]];
        # best matches per row: (0.5, 0.1); worst row: 0.5
        a = losses([[0.0], [1.0]])
        b = losses([[0.5], [0.9]])
        assert estimate_stability(a, b) == 0.5

    @pytest.mark.parametrize("symmetrized", [False, True])
    @pytest.mark.parametrize(
        "rows_a, rows_b, cols",
        [(7, 13, 5), (13, 7, 5), (1, 9, 4), (9, 1, 4), (1, 1, 3), (300, 200, 40)],
    )
    def test_matches_blocked_broadcast_oracle(self, rng, rows_a, rows_b, cols, symmetrized):
        a = rng.exponential(size=(rows_a, cols)) * 10.0 ** rng.integers(-3, 3)
        b = rng.exponential(size=(rows_b, cols)) * 10.0 ** rng.integers(-3, 3)
        expected = blocked_max_min_estimate(a, b)
        if symmetrized:
            expected = max(expected, blocked_max_min_estimate(b, a))
        assert estimate_stability(losses(a), losses(b), symmetrized=symmetrized) == expected
        # small blocks exercise the oracle's multi-block path on the same inputs
        assert blocked_max_min_estimate(a, b, block_target=cols * rows_b) == (
            estimate_stability(losses(a), losses(b))
        )

    def test_column_permutation_invariance(self, rng):
        a = np.abs(rng.standard_normal((5, 7)))
        b = np.abs(rng.standard_normal((4, 7)))
        perm = rng.permutation(7)
        assert estimate_stability(losses(a), losses(b)) == estimate_stability(
            losses(a[:, perm]), losses(b[:, perm])
        )

    def test_directed_and_symmetrized(self):
        a = losses([[0.0], [10.0]])
        b = losses([[0.0]])
        forward = estimate_stability(a, b)
        backward = estimate_stability(b, a)
        assert forward == 10.0 and backward == 0.0
        sym = estimate_stability(a, b, symmetrized=True)
        assert sym == max(forward, backward)

    def test_bounded_by_worst_pairwise_difference(self, rng):
        a = np.abs(rng.standard_normal((8, 5)))
        b = np.abs(rng.standard_normal((9, 5)))
        value = estimate_stability(losses(a), losses(b))
        worst = np.abs(a[:, None, :] - b[None, :, :]).max()
        assert 0.0 <= value <= worst

    def test_different_lengths_allowed(self, rng):
        a = losses(np.abs(rng.standard_normal((3, 4))))
        b = losses(np.abs(rng.standard_normal((11, 4))))
        assert estimate_stability(a, b) >= 0.0

    def test_mismatched_samples_rejected(self):
        a = losses([[0.0, 1.0]], sample_ids=[0, 1])
        b = losses([[0.0, 1.0]], sample_ids=[0, 2])
        with pytest.raises(InvalidInputError):
            estimate_stability(a, b)

    def test_empty_matrix_rejected(self):
        no_iterates = LossMatrix(values=np.zeros((0, 2)), iteration_ids=[], sample_ids=[0, 1],
                                 split="probe")
        full = losses([[0.0, 1.0]])
        for a, b in ((no_iterates, full), (full, no_iterates)):
            with pytest.raises(InvalidInputError, match="at least one iterate"):
                estimate_stability(a, b)
        no_samples = losses(np.zeros((2, 0)), sample_ids=[])
        with pytest.raises(InvalidInputError, match="one sample"):
            estimate_stability(no_samples, no_samples)


def assert_matches_oracle(a, b):
    """The pruned estimator equals the dense oracle, directed both ways and
    symmetrized."""
    forward = blocked_max_min_estimate(a, b)
    backward = blocked_max_min_estimate(b, a)
    assert estimate_stability(losses(a), losses(b)) == forward
    assert estimate_stability(losses(b), losses(a)) == backward
    assert estimate_stability(losses(a), losses(b), symmetrized=True) == max(forward, backward)


def twin_like(rng, rows, cols):
    """A loss path and its twin: the same path plus a small perturbation."""
    a = np.abs(np.cumsum(rng.standard_normal((rows, cols)), axis=0))
    return a, a + 1e-3 * rng.exponential(size=a.shape)


class TestPrunedEstimator:
    """The scan that skips rows which cannot raise the max, against the dense
    max-min oracle."""

    def test_random_shapes_sweep(self):
        rng = np.random.default_rng(7)
        shapes = [(1, 1, 3), (1, 40, 3), (40, 1, 3), (1, 1, 1), (1, 130, 2), (130, 1, 2)]
        shapes += [tuple(int(v) for v in rng.integers(1, 150, size=2)) + (int(rng.integers(1, 9)),)
                   for _ in range(210)]
        shapes += [(t, t, 4) for t in (2, 63, 64, 65, 129)]
        relations = {(ta > tb) - (ta < tb) for ta, tb, _ in shapes}
        assert relations == {-1, 0, 1}
        for rows_a, rows_b, cols in shapes:
            if rng.uniform() < 0.5:
                # few distinct values: ties between rows and between bounds
                a = rng.integers(0, 3, size=(rows_a, cols)).astype(np.float64)
                b = rng.integers(0, 3, size=(rows_b, cols)).astype(np.float64)
            else:
                a = rng.exponential(size=(rows_a, cols)) * 10.0 ** rng.integers(-3, 3)
                b = rng.exponential(size=(rows_b, cols)) * 10.0 ** rng.integers(-3, 3)
            assert_matches_oracle(a, b)

    def test_all_bounds_tied(self, rng):
        # every row is exactly 1 from its twin, so every bound is equal
        a = rng.integers(0, 4, size=(150, 3)).astype(np.float64)
        b = a + 1.0
        bounds = np.abs(a - b).max(axis=1)
        assert (bounds == 1.0).all()
        assert_matches_oracle(a, b)

    def test_twin_like_inputs(self, rng):
        for rows_a, rows_b in ((300, 300), (300, 200), (200, 300)):
            a, b = twin_like(rng, max(rows_a, rows_b), 20)
            assert_matches_oracle(a[:rows_a], b[:rows_b])

    def test_reversed_twin_defeats_pruning(self, rng):
        a, _ = twin_like(rng, 200, 10)
        assert_matches_oracle(a, a[::-1].copy())

    def test_several_blocks(self, rng):
        for rows in (65, 128, 129, 700):
            a = rng.exponential(size=(rows, 6))
            b = rng.exponential(size=(rows + 3, 6))
            assert_matches_oracle(a, b)

    def test_twin_like_pair_computes_few_distances(self, rng, monkeypatch):
        a, b = twin_like(rng, 1001, 50)
        value, pairs = estimate_counting_pairs(monkeypatch, a, b)
        assert value == blocked_max_min_estimate(a, b)
        assert pairs <= 1001**2 // 20

    def test_each_pair_computed_at_most_once(self, rng, monkeypatch):
        # the input of test_reversed_twin_defeats_pruning
        a, _ = twin_like(rng, 200, 10)
        b = a[::-1].copy()
        value, pairs = estimate_counting_pairs(monkeypatch, a, b)
        assert value == blocked_max_min_estimate(a, b)
        assert pairs <= a.shape[0] * b.shape[0]


def estimate_counting_pairs(monkeypatch, a, b):
    """The directed estimate of `a` against `b` and the number of row pairs
    whose distance it computed: the twin pair of every row of `a`, plus every
    pair passed to `cdist`."""
    pairs = [a.shape[0]]
    dense = scipy.spatial.distance.cdist

    def recording_cdist(x, y, metric):
        pairs.append(x.shape[0] * y.shape[0])
        return dense(x, y, metric)

    # the estimator imports cdist when it runs, so it resolves this patch
    with monkeypatch.context() as patch:
        patch.setattr(scipy.spatial.distance, "cdist", recording_cdist)
        value = estimate_stability(losses(a), losses(b))
    return value, sum(pairs)


def line_path(rows):
    """Twin rows (j + 1, 0): the distance between rows j and k is |j - k|."""
    return np.stack([np.arange(1.0, rows + 1), np.zeros(rows)], axis=1)


class TestRingScan:
    """A visited row compares the twin in rings around its twin step: the
    edges of those rings against the dense max-min oracle."""

    def test_twin_shorter_than_first_ring(self, rng):
        a, b = twin_like(rng, 40, 3)
        for rows_b in (1, 2, 5, 8, 9, 16, 17):
            assert_matches_oracle(a, b[:rows_b])

    def test_twin_step_clamped_to_last_twin_row(self, rng):
        a, b = twin_like(rng, 700, 4)
        for rows_b in (9, 65, 100, 257, 300, 513):
            assert_matches_oracle(a, b[:rows_b])

    def test_argmin_on_each_side_of_each_ring_edge(self, rng):
        # row i lies 0.1-0.4 from twin row i + offset and at least 0.6 from
        # every other, so its minimum sits at that offset
        b = line_path(600)
        offsets = np.array([0, 1, 8, 9, 64, 65, 256, 257, 599])
        offsets = rng.choice(np.concatenate([offsets, -offsets]), size=600)
        a = b[np.clip(np.arange(600) + offsets, 0, 599)].copy()
        a[:, 0] += rng.uniform(0.1, 0.4, size=600) * rng.choice([-1.0, 1.0], size=600)
        assert_matches_oracle(a, b)

    def test_argmin_at_far_end_of_twin(self, monkeypatch):
        b = line_path(600)
        a = b.copy()
        a[0, 0] = 600.25  # nearest: the last twin row, 599 rows from its twin
        a[599, 0] = 0.5  # nearest: the first twin row
        assert_matches_oracle(a, b)
        value, pairs = estimate_counting_pairs(monkeypatch, a, b)
        assert value == 0.5
        # both rows compare the whole twin; every other row's bound is 0
        assert pairs == 600 + 2 * 599

    def test_rows_at_the_max_stop(self, monkeypatch):
        b = line_path(100)
        a = b.copy()
        a[0, 0] = 100.5  # compares the whole twin, and sets the max to 0.5
        a[1, 0] = 4.5  # bound 2.5, but 0.5 from twin rows 3 and 4 of its first ring
        a[2, 0] = 3.5  # bound 0.5, the max: it ends the scan
        assert_matches_oracle(a, b)
        value, pairs = estimate_counting_pairs(monkeypatch, a, b)
        assert value == 0.5
        # row 1 stops after its first ring, twin rows 0 and 2..9; row 2 compares none
        assert pairs == 100 + 99 + 9

    def test_single_sample(self, rng):
        for rows_a, rows_b in ((1, 1), (9, 1), (1, 9), (300, 600), (600, 300)):
            a, b = twin_like(rng, max(rows_a, rows_b), 1)
            assert_matches_oracle(a[:rows_a], b[:rows_b])
            assert_matches_oracle(rng.exponential(size=(rows_a, 1)),
                                  rng.exponential(size=(rows_b, 1)))

    def test_symmetrized_across_ring_widths(self, rng):
        # assert_matches_oracle checks the symmetrized estimate too
        for rows_a, rows_b in ((9, 17), (65, 64), (129, 257), (513, 258), (600, 600)):
            a, b = twin_like(rng, max(rows_a, rows_b), 6)
            assert_matches_oracle(a[:rows_a], b[:rows_b])
            assert_matches_oracle(b[:rows_a], a[:rows_b])


class TestClosedForm:
    def test_zero_iterations(self):
        assert analytic_sgd_stability(1.0, 1.0, 1.0, 0.5, n=5, iterations=0) == 0.0

    def test_unit_example(self):
        assert analytic_sgd_stability(1.0, 1.0, 1.0, 0.5, n=5, iterations=1) == 1.0

    def test_inverse_sample_scaling_exact(self):
        """The value is proportional to 1/(n-1): doubling n-1 halves it."""
        for n in (2, 5, 17):
            a = analytic_sgd_stability(2.0, 0.5, 3.0, 1.0, n=n, iterations=7)
            b = analytic_sgd_stability(2.0, 0.5, 3.0, 1.0, n=2 * n - 1, iterations=7)
            assert a == 2.0 * b

    def test_step_constant_hypothesis_enforced(self):
        with pytest.raises(InvalidInputError, match="1/G"):
            analytic_sgd_stability(1.0, 2.0, 1.0, 0.5, n=5, iterations=1)

    def test_monotone_in_n_and_iterations(self):
        values_n = [
            analytic_sgd_stability(1.0, 1.0, 1.0, 0.9, n=n, iterations=10)
            for n in (2, 4, 8, 16)
        ]
        assert all(b < a for a, b in zip(values_n, values_n[1:]))
        values_t = [
            analytic_sgd_stability(1.0, 1.0, 1.0, 0.9, n=5, iterations=t)
            for t in (1, 2, 5, 20)
        ]
        assert all(b > a for a, b in zip(values_t, values_t[1:]))

    def test_positivity_validation(self):
        with pytest.raises(InvalidInputError):
            analytic_sgd_stability(0.0, 1.0, 1.0, 0.5, n=5, iterations=1)
        with pytest.raises(InvalidInputError):
            analytic_sgd_stability(1.0, 1.0, 1.0, 0.5, n=1, iterations=1)


class TestExperiment:
    def test_no_injection_gives_exact_zero(self):
        cfg = StabilityConfig(
            task="quadratic", n=12, J=0, seeds=[0, 1], input_dim=2,
            iterations=25, step=0.2,
        )
        report = run_stability_experiment(cfg)
        assert report.beta_hats == [0.0, 0.0]
        assert report.mean == 0.0 and report.stderr == 0.0

    def test_single_seed_has_zero_stderr(self):
        cfg = StabilityConfig(
            task="quadratic", n=12, J=2, seeds=[3], input_dim=2,
            iterations=25, step=0.2,
        )
        report = run_stability_experiment(cfg)
        assert report.stderr == 0.0
        assert len(report.beta_hats) == 1

    def test_beta_is_deviation_per_replacement(self):
        cfg = StabilityConfig(
            task="quadratic", n=20, J=4, seeds=[0], input_dim=2,
            iterations=30, step=0.2,
        )
        report = run_stability_experiment(cfg)
        assert report.beta_hats[0] == report.raw_deviations[0] / 4

    def test_mean_decreases_with_sample_count(self):
        """Fixed replacement count: a smaller replaced fraction perturbs the
        run less, so the estimate shrinks as n grows."""
        means = []
        for n in (50, 100, 200):
            cfg = StabilityConfig(
                task="quadratic", n=n, J=5, seeds=list(range(10)), input_dim=4,
                iterations=100, step=0.1,
            )
            means.append(run_stability_experiment(cfg).mean)
        assert means[0] > means[1] > means[2]

    def test_validation_split_probes_disjoint_from_train(self):
        cfg = StabilityConfig(
            task="logistic_regression", n=30, J=3, seeds=[0], input_dim=3,
            iterations=20, step=0.2, eval_split="validation",
        )
        report = run_stability_experiment(cfg)
        assert report.eval_split == "validation"
        assert report.beta_hats[0] >= 0.0

    def test_locally_converged_mode_runs(self):
        cfg = StabilityConfig(
            task="quadratic", n=20, J=2, seeds=[0], input_dim=2,
            iterations=20, step=0.2, init_mode="locally_converged",
            converge_iterations=50,
        )
        assert run_stability_experiment(cfg).beta_hats[0] >= 0.0

    @pytest.mark.parametrize("task, init_mode, eval_split, direction", [
        ("logistic_regression", "random_init", "train", "directed"),
        ("small_mlp", "locally_converged", "validation", "symmetrized"),
        ("quadratic", "locally_converged", "train", "directed"),
    ])
    def test_stacked_runs_give_the_estimates_of_each_seed_alone(self, task, init_mode,
                                                                eval_split, direction):
        """Training every seed's warm-up, and then every seed's twin runs,
        as one stack gives each seed the deviation of its runs trained one
        at a time, bit for bit."""
        from dataclasses import replace

        from trajtopo import stability
        from trajtopo.trainer import (loss_matrix, make_task_and_data, perturb_dataset,
                                      projected_sgd)

        cfg = StabilityConfig(task=task, n=30, J=4, seeds=[2, 0, 5], input_dim=3, hidden=4,
                              iterations=40, converge_iterations=25, step=0.2,
                              init_mode=init_mode, eval_split=eval_split, direction=direction)
        expected = []
        for seed in cfg.seeds:
            task_, data, pool = make_task_and_data(task, 30, 3, seed, hidden=4)
            perturbed = perturb_dataset(data, pool, 4, seed)
            sgd = cfg.sgd_config(seed)
            if init_mode == "locally_converged":
                warm = projected_sgd(task_, data, cfg.sgd_config(seed, warmup=True))
                sgd = replace(sgd, w0=warm.points[-1])
            probes = stability._probe_set(cfg, seed, perturbed, pool, pool.ids[:4])
            expected.append(estimate_stability(
                loss_matrix(task_, projected_sgd(task_, data, sgd), probes, "probe"),
                loss_matrix(task_, projected_sgd(task_, perturbed, sgd), probes, "probe"),
                symmetrized=direction == "symmetrized"))
        assert run_stability_experiment(cfg).raw_deviations == expected
        assert all(v > 0 for v in expected)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            StabilityConfig(task="quadratic", n=5, J=6, seeds=[0])
        with pytest.raises(InvalidInputError):
            StabilityConfig(task="quadratic", n=5, J=1, seeds=[])
        with pytest.raises(InvalidInputError):
            StabilityConfig(task="quadratic", n=5, J=1, seeds=[0], init_mode="warm")

    @pytest.mark.parametrize("n, J", [(1, None), (5, 5)])
    def test_train_split_needs_j_below_n(self, n, J):
        """On the train split a J of n injects every training sample, so no
        probe is left: the config says so before any SGD step, also for the
        default J of n = 1. The validation split probes the pool instead."""
        with pytest.raises(InvalidInputError, match=f"J = {n} must be below n = {n} with "
                                                    "eval_split 'train'"):
            StabilityConfig(task="quadratic", n=n, J=J, seeds=[0])
        assert StabilityConfig(task="quadratic", n=n, J=J, seeds=[0],
                               eval_split="validation").J == n

    def test_default_injection_rule(self):
        assert default_injection_count(100) == 50
        assert default_injection_count(10_000) == 50
        assert default_injection_count(50) == 25
        assert default_injection_count(98) == 49
        assert default_injection_count(1) == 1
        # a config without J gets the default for its n
        assert StabilityConfig(task="quadratic", n=40, seeds=[0]).J == 20
        assert StabilityConfig(task="quadratic", n=400, seeds=[0]).J == 50

    def test_csv_row_layout(self):
        cfg = StabilityConfig(
            task="quadratic", n=12, J=2, seeds=[0], input_dim=2,
            iterations=10, step=0.2,
        )
        report = run_stability_experiment(cfg)
        row = stability_csv([report]).splitlines()[1].split(",")
        assert row[0] == "random_init" and row[1] == "train"
        assert row[2] == "12" and row[3] == "2"

    def test_to_json_key_order(self):
        """Reports serialize with the hand-listed key order of the JSON
        format, byte for byte."""
        cfg = StabilityConfig(
            task="quadratic", n=12, J=2, seeds=[0, 1], input_dim=2,
            iterations=10, step=0.2, direction="symmetrized",
        )
        reports = [
            run_stability_experiment(cfg),
            StabilityReport(
                beta_hats=[0.125, 1e-17], raw_deviations=[0.25, 2e-17], seeds=[3, 9],
                mean=0.0625, stderr=0.0625, n=400, J=2, direction="directed",
                eval_split="validation", init_mode="locally_converged",
            ),
            StabilityReport(
                beta_hats=[0.0], raw_deviations=[0.0], seeds=[0], mean=0.0, stderr=0.0,
                n=1, J=0, direction="directed", eval_split="train", init_mode="random_init",
            ),
        ]
        for report in reports:
            assert record_json(report) == stability_report_json(report)
