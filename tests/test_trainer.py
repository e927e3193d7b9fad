import numpy as np
import pytest

from oracles import per_step_sgd
from trajtopo.errors import InvalidInputError
from trajtopo.trainer import (
    Dataset,
    PerturbSpec,
    SGDConfig,
    loss_matrix,
    make_task,
    make_task_and_data,
    perturb_dataset,
    projected_sgd,
    tail_window,
)


def dataset(rows, start_id=0):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return Dataset(
        samples=rows,
        n=rows.shape[0],
        ids=np.arange(start_id, start_id + rows.shape[0]),
    )


def single_target_data(value=1.0):
    # one quadratic sample: feature (target) plus unused label column
    return dataset([[value, 0.0]])


class TestProjectedSgd:
    def test_zero_step_is_constant(self):
        task = make_task("quadratic", 1)
        cfg = SGDConfig(radius=1.0, step=0.0, iterations=5, seed=0, w0=np.array([0.25]))
        traj = projected_sgd(task, single_target_data(), cfg)
        np.testing.assert_array_equal(traj.points, np.full((6, 1), 0.25))

    def test_projection_clamps_outside_start(self):
        task = make_task("quadratic", 2)
        cfg = SGDConfig(radius=1.0, step=0.0, iterations=3, seed=0, w0=np.array([2.0, 0.0]))
        traj = projected_sgd(task, dataset([[0.0, 0.0, 0.0]]), cfg)
        np.testing.assert_array_equal(traj.points[0], [2.0, 0.0])
        np.testing.assert_array_equal(traj.points[1:], np.tile([1.0, 0.0], (3, 1)))

    def test_hand_computed_quadratic_step(self):
        task = make_task("quadratic", 1)
        cfg = SGDConfig(radius=1.0, step=0.5, iterations=1, seed=0, w0=np.array([0.0]))
        traj = projected_sgd(task, single_target_data(1.0), cfg)
        np.testing.assert_allclose(traj.points[1], [0.5], rtol=0.0, atol=1e-15)

    def test_hand_computed_decaying_steps(self):
        # eta_k = c / k with c = 0.5: w1 = 0.5, w2 = 0.5 + 0.25 * 0.5
        task = make_task("quadratic", 1)
        cfg = SGDConfig(
            radius=1.0, step=0.5, iterations=2, seed=0, w0=np.array([0.0]),
            step_rule="decaying",
        )
        traj = projected_sgd(task, single_target_data(1.0), cfg)
        np.testing.assert_allclose(traj.points[2], [0.625], rtol=0.0, atol=1e-15)

    def test_row_count_and_ids(self, rng):
        task, data, _ = make_task_and_data("quadratic", 20, 3, seed=1)
        cfg = SGDConfig(radius=5.0, step=0.1, iterations=17, seed=1)
        traj = projected_sgd(task, data, cfg)
        assert traj.points.shape == (18, 3)
        np.testing.assert_array_equal(traj.iteration_ids, np.arange(18))
        assert traj.meta["n"] == "20" and traj.meta["task"] == "quadratic"

    @pytest.mark.parametrize("kind,batch", [("quadratic", 1), ("logistic_regression", 1),
                                            ("small_mlp", 1), ("quadratic", 8)])
    def test_iterates_respect_radius(self, kind, batch):
        task, data, _ = make_task_and_data(kind, 30, 4, seed=2)
        cfg = SGDConfig(radius=0.7, step=0.5, iterations=60, seed=2, batch=batch)
        traj = projected_sgd(task, data, cfg)
        norms = np.linalg.norm(traj.points[1:], axis=1)
        assert (norms <= 0.7 + 1e-12).all()

    @pytest.mark.parametrize("rule", ["constant", "decaying"])
    def test_bit_reproducible(self, rule):
        task, data, _ = make_task_and_data("small_mlp", 25, 3, seed=5)
        cfg = SGDConfig(radius=3.0, step=0.05, iterations=40, seed=5, step_rule=rule)
        a = projected_sgd(task, data, cfg)
        b = projected_sgd(task, data, cfg)
        assert a.points.tobytes() == b.points.tobytes()

    def test_shared_stream_across_datasets(self):
        """Two runs with the same seed share w0 and batch indices, so equal
        datasets give bit-identical trajectories."""
        task, data, pool = make_task_and_data("quadratic", 10, 2, seed=9)
        clone = perturb_dataset(data, PerturbSpec(J=0, pool=pool, seed=9))
        cfg = SGDConfig(radius=2.0, step=0.2, iterations=30, seed=9)
        a = projected_sgd(task, data, cfg)
        b = projected_sgd(task, clone, cfg)
        assert a.points.tobytes() == b.points.tobytes()

    def test_non_finite_gradient_rejected(self):
        from trajtopo.errors import NumericalFailureError
        from trajtopo.trainer import QuadraticTask

        class ExplodingTask(QuadraticTask):
            def mean_gradient(self, w, batch):
                return np.full(self.param_dim, np.inf)

        task = ExplodingTask(2)
        cfg = SGDConfig(radius=1.0, step=0.1, iterations=3, seed=0, w0=np.zeros(2))
        with pytest.raises(NumericalFailureError, match="iteration 1"):
            projected_sgd(task, dataset([[0.0, 0.0, 0.0]]), cfg)

    def test_gradient_turning_non_finite_names_its_iteration(self):
        from trajtopo.errors import NumericalFailureError
        from trajtopo.trainer import QuadraticTask

        class LateExplodingTask(QuadraticTask):
            calls = 0

            def mean_gradient(self, w, batch):
                self.calls += 1
                if self.calls == 3:
                    return np.array([np.nan, np.inf])
                return super().mean_gradient(w, batch)

        task = LateExplodingTask(2)
        cfg = SGDConfig(radius=1.0, step=0.1, iterations=5, seed=0, w0=np.zeros(2))
        with pytest.raises(NumericalFailureError, match="iteration 3$"):
            projected_sgd(task, dataset([[0.5, 0.5, 0.0]]), cfg)

    def test_overflowing_step_is_a_numerical_failure(self):
        """A finite gradient whose step overflows is a numerical failure at
        that step, not an invalid (non-finite) trajectory."""
        from trajtopo.errors import NumericalFailureError
        from trajtopo.trainer import QuadraticTask

        class SteepTask(QuadraticTask):
            def mean_gradient(self, w, batch):
                return np.full(self.param_dim, 1e308)

        task = SteepTask(2)
        cfg = SGDConfig(radius=1.0, step=10.0, iterations=5, seed=0, w0=np.zeros(2))
        with pytest.raises(NumericalFailureError, match="iteration 1$"):
            projected_sgd(task, dataset([[0.0, 0.0, 0.0]]), cfg)

    def test_w0_shape_checked(self):
        task = make_task("quadratic", 3)
        cfg = SGDConfig(radius=1.0, step=0.1, iterations=1, seed=0, w0=np.zeros(2))
        with pytest.raises(InvalidInputError):
            projected_sgd(task, dataset([[0.0, 0.0, 0.0, 0.0]]), cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SGDConfig(radius=0.0, step=0.1, iterations=1, seed=0)
        with pytest.raises(InvalidInputError):
            SGDConfig(radius=1.0, step=-0.1, iterations=1, seed=0)
        with pytest.raises(InvalidInputError):
            SGDConfig(radius=1.0, step=0.1, iterations=1, seed=0, step_rule="cosine")

    @pytest.mark.parametrize("rule", ["constant", "decaying"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic_regression", "small_mlp"])
    def test_batch_draws_match_per_step_draws(self, kind, rule):
        """Drawing every batch up front gives the iterates of one draw per
        step, for each batch size and for the run and stability streams."""
        task, data, _ = make_task_and_data(kind, 30, 3, seed=4)
        for batch in (1, 2, 3, 4, 7):
            for tag in ("sgd", "window", "warmup"):
                cfg = SGDConfig(radius=2.0, step=0.3, iterations=40, seed=4,
                                step_rule=rule, batch=batch, stream_tag=tag)
                traj = projected_sgd(task, data, cfg)
                assert np.array_equal(traj.points, per_step_sgd(task, data, cfg))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_batch_draws_edge_cases(self, batch):
        """No steps, a single training sample, and a given start point."""
        task, data, _ = make_task_and_data("logistic_regression", 1, 3, seed=6)
        _, wide, _ = make_task_and_data("logistic_regression", 12, 3, seed=6)
        cases = [
            (data, SGDConfig(radius=2.0, step=0.3, iterations=0, seed=6, batch=batch)),
            (data, SGDConfig(radius=2.0, step=0.3, iterations=25, seed=6, batch=batch)),
            (wide, SGDConfig(radius=2.0, step=0.3, iterations=25, seed=6, batch=batch,
                             w0=np.array([0.5, -1.0, 0.25]))),
        ]
        for train, cfg in cases:
            traj = projected_sgd(task, train, cfg)
            assert np.array_equal(traj.points, per_step_sgd(task, train, cfg))

    def test_tail_window(self):
        task = make_task("quadratic", 1)
        cfg = SGDConfig(radius=1.0, step=0.1, iterations=10, seed=0)
        traj = projected_sgd(task, single_target_data(), cfg)
        window = tail_window(traj, 4)
        np.testing.assert_array_equal(window.iteration_ids, [7, 8, 9, 10])
        np.testing.assert_array_equal(window.points, traj.points[-4:])
        with pytest.raises(InvalidInputError):
            tail_window(traj, 12)


class TestGradients:
    @pytest.mark.parametrize("kind,dim", [("quadratic", 4), ("logistic_regression", 6),
                                          ("small_mlp", 3)])
    def test_matches_central_differences(self, kind, dim, rng):
        """Directional derivatives agree with finite differences at 100
        random parameter/sample pairs."""
        task, data, _ = make_task_and_data(kind, 40, dim, seed=3)
        h = 1e-6
        for _ in range(100):
            w = rng.standard_normal(task.param_dim)
            z = data.samples[rng.integers(0, data.n)]
            v = rng.standard_normal(task.param_dim)
            v /= np.linalg.norm(v)
            analytic = float(task.gradient(w, z) @ v)
            numeric = (task.loss(w + h * v, z) - task.loss(w - h * v, z)) / (2 * h)
            assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic))

    @pytest.mark.parametrize("kind", ["quadratic", "logistic_regression", "small_mlp"])
    def test_losses_nonnegative(self, kind, rng):
        task, data, _ = make_task_and_data(kind, 30, 4, seed=4)
        iterates = rng.standard_normal((20, task.param_dim))
        assert (task.loss_table(iterates, data.samples) >= 0.0).all()

    def test_mean_gradient_averages(self, rng):
        task, data, _ = make_task_and_data("logistic_regression", 12, 5, seed=6)
        w = rng.standard_normal(task.param_dim)
        batch = data.samples[:4]
        single = np.mean([task.gradient(w, z) for z in batch], axis=0)
        np.testing.assert_allclose(task.mean_gradient(w, batch), single, rtol=1e-12)


class TestPerturbDataset:
    def test_zero_replacements_identity(self):
        data = dataset([[1.0, 0.0], [2.0, 0.0]])
        pool = dataset([[9.0, 0.0]], start_id=2)
        out = perturb_dataset(data, PerturbSpec(J=0, pool=pool, seed=0))
        np.testing.assert_array_equal(out.samples, data.samples)
        np.testing.assert_array_equal(out.ids, data.ids)

    def test_full_replacement(self):
        data = dataset([[1.0, 0.0], [2.0, 0.0]])
        pool = dataset([[8.0, 0.0], [9.0, 0.0]], start_id=2)
        out = perturb_dataset(data, PerturbSpec(J=2, pool=pool, seed=0))
        assert set(out.ids) == {2, 3}

    def test_partial_replacement_counts(self):
        data = dataset([[float(i), 0.0] for i in range(4)])
        pool = dataset([[100.0, 0.0], [101.0, 0.0]], start_id=4)
        out = perturb_dataset(data, PerturbSpec(J=2, pool=pool, seed=1))
        shared = sum(
            (out.samples[i] == data.samples[i]).all() and out.ids[i] == data.ids[i]
            for i in range(4)
        )
        assert shared == 2

    def test_deterministic(self):
        data = dataset([[float(i), 0.0] for i in range(6)])
        pool = dataset([[50.0, 0.0], [51.0, 0.0]], start_id=6)
        a = perturb_dataset(data, PerturbSpec(J=2, pool=pool, seed=7))
        b = perturb_dataset(data, PerturbSpec(J=2, pool=pool, seed=7))
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_oversized_replacement_rejected(self):
        data = dataset([[1.0, 0.0]])
        pool = dataset([[2.0, 0.0]], start_id=1)
        with pytest.raises(InvalidInputError):
            perturb_dataset(data, PerturbSpec(J=2, pool=pool, seed=0))
        with pytest.raises(InvalidInputError):
            PerturbSpec(J=2, pool=pool, seed=0).__post_init__()

    def test_overlapping_pool_rejected(self):
        data = dataset([[1.0, 0.0], [2.0, 0.0]])
        pool = dataset([[9.0, 0.0]], start_id=1)
        with pytest.raises(InvalidInputError, match="ids"):
            perturb_dataset(data, PerturbSpec(J=1, pool=pool, seed=0))


class TestLossMatrix:
    def test_constant_trajectory_rows_equal(self):
        task, data, _ = make_task_and_data("quadratic", 5, 2, seed=0)
        cfg = SGDConfig(radius=1.0, step=0.0, iterations=3, seed=0, w0=np.zeros(2))
        lm = loss_matrix(task, projected_sgd(task, data, cfg), data, "train")
        assert (lm.values == lm.values[0]).all()

    def test_single_cell_equals_direct_evaluation(self):
        task = make_task("quadratic", 1)
        cfg = SGDConfig(radius=1.0, step=0.0, iterations=0, seed=0, w0=np.array([0.3]))
        traj = projected_sgd(task, single_target_data(1.0), cfg)
        lm = loss_matrix(task, traj, single_target_data(1.0), "probe")
        assert lm.values.shape == (1, 1)
        assert lm.values[0, 0] == task.loss(np.array([0.3]), np.array([1.0, 0.0]))

    def test_hand_computed_quadratic_table(self):
        task = make_task("quadratic", 1)
        traj_points = np.array([[0.0], [0.5]])
        from conftest import make_trajectory

        traj = make_trajectory(traj_points)
        evals = dataset([[1.0, 0.0], [-1.0, 0.0]])
        lm = loss_matrix(task, traj, evals, "train")
        np.testing.assert_allclose(
            lm.values, [[0.5, 0.5], [0.125, 1.125]], rtol=0.0, atol=1e-12
        )


class TestMakeTaskAndData:
    def test_same_seed_is_bit_identical(self):
        _, a_train, a_pool = make_task_and_data("logistic_regression", 15, 3, seed=42)
        _, b_train, b_pool = make_task_and_data("logistic_regression", 15, 3, seed=42)
        assert a_train.samples.tobytes() == b_train.samples.tobytes()
        assert a_pool.samples.tobytes() == b_pool.samples.tobytes()

    def test_single_sample(self):
        _, train, _ = make_task_and_data("quadratic", 1, 2, seed=0)
        assert train.n == 1

    def test_disjoint_ids(self):
        _, train, pool = make_task_and_data("small_mlp", 10, 2, seed=1)
        assert np.intersect1d(train.ids, pool.ids).size == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            make_task_and_data("svm", 5, 2, seed=0)

    def test_labels_are_signs_for_classifiers(self):
        _, train, _ = make_task_and_data("logistic_regression", 50, 3, seed=2)
        assert set(np.unique(train.samples[:, -1])) <= {-1.0, 1.0}

    def test_lipschitz_observable_and_stable_across_seeds(self):
        """Difference quotients of the logistic loss stay bounded across
        seeds when features and radius are fixed."""
        from trajtopo.bounds import estimate_constants

        estimates = []
        for seed in (0, 1, 2):
            task, data, _ = make_task_and_data("logistic_regression", 40, 4, seed=seed)
            cfg = SGDConfig(radius=2.0, step=0.2, iterations=80, seed=seed)
            traj = projected_sgd(task, data, cfg)
            lm = loss_matrix(task, traj, data, "train")
            estimates.append(estimate_constants(task, traj, lm).lipschitz)
        assert all(np.isfinite(e) and 0 < e < 50 for e in estimates)
        assert max(estimates) <= 5.0 * min(estimates)
