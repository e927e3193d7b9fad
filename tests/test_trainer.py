import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from oracles import per_step_sgd, softplus
from trajtopo import trainer
from trajtopo.errors import InvalidInputError
from trajtopo.rng import stream
from trajtopo.trainer import (
    Dataset,
    SGDConfig,
    loss_matrix,
    make_task,
    make_task_and_data,
    perturb_dataset,
    projected_sgd,
    projected_sgd_stack,
)


def dataset(rows, start_id=0):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return Dataset(rows, np.arange(start_id, start_id + rows.shape[0]))


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
        clone = perturb_dataset(data, pool, 0, 9)
        cfg = SGDConfig(radius=2.0, step=0.2, iterations=30, seed=9)
        a = projected_sgd(task, data, cfg)
        b = projected_sgd(task, clone, cfg)
        assert a.points.tobytes() == b.points.tobytes()

    def test_non_finite_gradient_rejected(self):
        from trajtopo.errors import NumericalFailureError
        from trajtopo.trainer import QuadraticTask

        class ExplodingTask(QuadraticTask):
            def stack_gradient(self, w, batches):
                return np.full(w.shape, np.inf)

        task = ExplodingTask(2)
        cfg = SGDConfig(radius=1.0, step=0.1, iterations=3, seed=0, w0=np.zeros(2))
        with pytest.raises(NumericalFailureError, match="iteration 1"):
            projected_sgd(task, dataset([[0.0, 0.0, 0.0]]), cfg)

    def test_gradient_turning_non_finite_names_its_iteration(self):
        from trajtopo.errors import NumericalFailureError
        from trajtopo.trainer import QuadraticTask

        class LateExplodingTask(QuadraticTask):
            calls = 0

            def stack_gradient(self, w, batches):
                self.calls += 1
                if self.calls == 3:
                    return np.array([[np.nan, np.inf]])
                return super().stack_gradient(w, batches)

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
            def stack_gradient(self, w, batches):
                return np.full(w.shape, 1e308)

        task = SteepTask(2)
        cfg = SGDConfig(radius=1.0, step=10.0, iterations=5, seed=0, w0=np.zeros(2))
        with pytest.raises(NumericalFailureError, match="iteration 1$"):
            projected_sgd(task, dataset([[0.0, 0.0, 0.0]]), cfg)

    @pytest.mark.parametrize("kind,step", [("logistic_regression", 1e160), ("quadratic", 1e200)])
    def test_squared_norm_overflow_is_a_numerical_failure(self, kind, step):
        """An iterate above about 1.3e154 in norm is finite, but its squared
        norm overflows: that is a numerical failure at its iteration, not an
        iterate projected to zero; a smaller one still projects."""
        from trajtopo.errors import NumericalFailureError

        task, data, _ = make_task_and_data(kind, 5, 2, seed=0)
        cfg = SGDConfig(radius=1.0, step=step, iterations=3, seed=0)
        with pytest.raises(NumericalFailureError, match="iteration 1$"):
            projected_sgd(task, data, cfg)
        tame = projected_sgd(task, data, SGDConfig(**{**vars(cfg), "step": 1e150}))
        np.testing.assert_allclose(np.linalg.norm(tame.points[1:], axis=1), 1.0, rtol=1e-15)

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

    def test_keep_equals_the_tail_of_the_full_run(self):
        """`keep=k` gives the last k rows of the full run bit for bit, with
        their iteration ids and the same meta, on every task at batch 1
        and 4; a window longer than the run is rejected."""
        for kind in ("quadratic", "logistic_regression", "small_mlp"):
            task, data, _ = make_task_and_data(kind, 30, 3, seed=3)
            for batch in (1, 4):
                cfg = SGDConfig(radius=1.5, step=0.3, iterations=300, seed=3, batch=batch)
                full = projected_sgd(task, data, cfg)
                for keep in (1, 4, 150, 301):
                    window = projected_sgd(task, data, cfg, keep=keep)
                    assert window.points.tobytes() == full.points[-keep:].tobytes()
                    assert window.iteration_ids.tobytes() == full.iteration_ids[-keep:].tobytes()
                    assert window.meta == full.meta
                with pytest.raises(InvalidInputError, match="cannot keep 302 of 301"):
                    projected_sgd(task, data, cfg, keep=302)


def _stack_runs(kind, rule, batch, runs):
    """`runs` SGD runs of one task that share their step settings and
    differ in everything else a stack allows: twin pairs on a dataset and
    its perturbation, other sizes n, seeds, stream tags, and start points
    given or drawn."""
    task, data, pool = make_task_and_data(kind, 24, 3, seed=11)
    twin = perturb_dataset(data, pool, 5, 11)
    _, wide, _ = make_task_and_data(kind, 41, 3, seed=12)
    datasets, cfgs = [], []
    for r in range(runs):
        w0 = np.linspace(-1.0, 1.0, task.param_dim) * (r + 1) if r % 3 == 2 else None
        datasets.append((data, twin, wide)[r % 3])
        cfgs.append(SGDConfig(radius=1.5, step=0.4, iterations=30, seed=(r + 1) // 2,
                              step_rule=rule, batch=batch, w0=w0,
                              stream_tag=("window", "warmup", "sgd")[r % 3]))
    return task, datasets, cfgs


class TestStackedSgd:
    @pytest.mark.parametrize("chunk_bytes", [None, 2048], ids=["one-chunk", "chunks"])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("rule", ["constant", "decaying"])
    @pytest.mark.parametrize("kind", ["quadratic", "logistic_regression", "small_mlp"])
    def test_rows_equal_the_run_trained_alone(self, kind, rule, batch, chunk_bytes, monkeypatch):
        """Each run of a stack of R = 1..8 runs is bit-identical to the same
        run trained alone, twins on different datasets included; with
        radius 1.5 the projection acts on some steps. With 2048-byte
        buffers the 30 steps go in chunks of 1 to 16 steps, which vary
        with R."""
        if chunk_bytes is not None:
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", chunk_bytes)
        for runs in range(1, 9):
            task, datasets, cfgs = _stack_runs(kind, rule, batch, runs)
            stacked = projected_sgd_stack(task, datasets, cfgs)
            assert len(stacked) == runs
            for traj, data, cfg in zip(stacked, datasets, cfgs):
                alone = projected_sgd(task, data, cfg)
                assert traj.points.tobytes() == alone.points.tobytes()
                assert traj.meta == alone.meta
                np.testing.assert_array_equal(traj.iteration_ids, alone.iteration_ids)

    def test_kept_iterates_are_the_tail_of_the_run(self, monkeypatch):
        """`keep` keeps the last iterates, bit for bit and with their ids,
        also when the kept ones start inside a chunk (7 steps here)."""
        task, datasets, cfgs = _stack_runs("logistic_regression", "constant", 1, 5)
        full = projected_sgd_stack(task, datasets, cfgs)
        monkeypatch.setattr(trainer, "_CHUNK_BYTES", 8 * 5 * 4 * 7)
        for keep in (1, 6, 7, 8, 24, 30, 31):
            for kept, run in zip(projected_sgd_stack(task, datasets, cfgs, keep=keep), full):
                assert kept.points.tobytes() == run.points[-keep:].tobytes()
                np.testing.assert_array_equal(kept.iteration_ids, run.iteration_ids[-keep:])
        for keep in (0, 32):
            with pytest.raises(InvalidInputError, match="cannot keep"):
                projected_sgd_stack(task, datasets, cfgs, keep=keep)

    def test_stack_needs_shared_step_settings(self):
        task, data, _ = make_task_and_data("quadratic", 10, 2, seed=0)
        base = SGDConfig(radius=1.0, step=0.1, iterations=5, seed=0)
        for change in ({"radius": 2.0}, {"step": 0.2}, {"iterations": 6},
                       {"step_rule": "decaying"}, {"batch": 2}):
            other = SGDConfig(**{**vars(base), "seed": 1, **change})
            with pytest.raises(InvalidInputError, match="must share"):
                projected_sgd_stack(task, [data, data], [base, other])
        with pytest.raises(InvalidInputError):
            projected_sgd_stack(task, [data], [base, base])
        with pytest.raises(InvalidInputError):
            projected_sgd_stack(task, [], [])

    def test_first_failing_run_raises_with_its_iteration(self, monkeypatch):
        """Rows fail independently: the error names the first failing run
        in stack order and the iteration where that run turned non-finite,
        not the earliest iteration of any run."""
        from trajtopo.errors import NumericalFailureError
        from trajtopo.trainer import QuadraticTask

        class RowExplodingTask(QuadraticTask):
            def __init__(self, fail_at):
                super().__init__(2)
                self.fail_at, self.calls = fail_at, 0  # run -> first non-finite iteration

            def stack_gradient(self, w, batches):
                self.calls += 1
                grad = super().stack_gradient(w, batches)
                for run, k in self.fail_at.items():
                    if self.calls >= k:
                        grad[run] = np.nan
                return grad

        data = dataset([[0.5, 0.5, 0.0], [0.1, -0.2, 0.0]])
        cfgs = [SGDConfig(radius=1.0, step=0.1, iterations=8, seed=s) for s in range(3)]
        for fail_at, run, k in (({1: 5, 2: 3}, 1, 5), ({0: 8, 2: 1}, 0, 8), ({2: 2}, 2, 2)):
            # in one chunk, in chunks of 3 steps, and with only the last iterate kept
            for chunk_bytes, keep in ((1 << 19, None), (8 * 3 * 3 * 3, None), (1 << 19, 1)):
                monkeypatch.setattr(trainer, "_CHUNK_BYTES", chunk_bytes)
                with pytest.raises(NumericalFailureError, match=f"iteration {k}$") as failure:
                    projected_sgd_stack(RowExplodingTask(fail_at), [data] * 3, cfgs, keep=keep)
                assert failure.value.run == run


    def test_squared_norm_overflow_names_its_run(self):
        """In a stack, the run whose squared norm overflows fails at its own
        iteration, named by its index; the other runs project as before."""
        from trajtopo.errors import NumericalFailureError

        task, data, _ = make_task_and_data("logistic_regression", 5, 2, seed=0)
        _, big, _ = make_task_and_data("logistic_regression", 5, 2, seed=0, class_sep=1e10)
        cfgs = [SGDConfig(radius=1.0, step=1e150, iterations=3, seed=s) for s in range(3)]
        with pytest.raises(NumericalFailureError, match="iteration 1$") as failure:
            projected_sgd_stack(task, [data, big, data], cfgs)
        assert failure.value.run == 1


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
            analytic = float(task.mean_gradient(w, z[None]) @ v)
            ahead = task.loss_table((w + h * v)[None], z[None])[0, 0]
            behind = task.loss_table((w - h * v)[None], z[None])[0, 0]
            numeric = (ahead - behind) / (2 * h)
            assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic))

    @pytest.mark.parametrize("kind", ["quadratic", "logistic_regression", "small_mlp"])
    def test_losses_nonnegative(self, kind, rng):
        task, data, _ = make_task_and_data(kind, 30, 4, seed=4)
        iterates = rng.standard_normal((20, task.param_dim))
        assert (task.loss_table(iterates, data.samples) >= 0.0).all()

    def test_logistic_table_equals_plain_formula(self, rng):
        """The in-place logistic table is bit-identical to softplus(-y m)
        computed from fresh arrays, a zero iterate (margins of 0) included."""
        task, data, _ = make_task_and_data("logistic_regression", 30, 4, seed=4)
        iterates = np.vstack([np.zeros(task.param_dim), rng.standard_normal((20, task.param_dim))])
        x, y = data.samples[:, :4], data.samples[:, 4]
        expected = softplus(-((iterates @ x.T) * y[None, :]))
        np.testing.assert_array_equal(task.loss_table(iterates, data.samples), expected)

    def test_mlp_table_equals_one_iterate_at_a_time(self, rng):
        """The chunked small-MLP table is bit-identical to the loop over
        iterates it replaced, over several chunks and a partial last one."""
        task, data, _ = make_task_and_data("small_mlp", 30, 4, seed=4, hidden=6)
        iterates = rng.standard_normal((1000, task.param_dim))
        d, h = 4, 6
        x, y = data.samples[:, :d], data.samples[:, d]
        out = np.empty((len(iterates), data.n))
        for t, w in enumerate(iterates):
            w1, b1 = w[: h * d].reshape(h, d), w[h * d : h * d + h]
            out[t] = np.tanh(x @ w1.T + b1) @ w[h * d + h : h * d + 2 * h] + w[-1]
        expected = softplus(-out * y[None, :])
        np.testing.assert_array_equal(task.loss_table(iterates, data.samples), expected)

    def test_losses_are_within_4_ulp_of_logaddexp(self, rng):
        """softplus(t) taken as max(t, 0) + log1p(exp(-|t|)) is within 4 ulp
        of np.logaddexp(0, t): at zeros of both signs, at +-1e-300, around
        the points where exp(-|t|) falls below the last bit of 1 (+-36.7)
        and underflows (-708 to -745), past them, and at random margins
        of every scale."""
        special = [0.0, -0.0, 1e-300, 36.0, 38.0, 709.0, 746.0, 800.0]
        spread = rng.standard_normal(2000) * 10.0 ** rng.uniform(-3, 3, 2000)
        margins = np.concatenate([special, np.negative(special), spread])
        for y in (1.0, -1.0):
            expected = np.logaddexp(0.0, -y * margins)
            got = trainer._margins_to_losses(margins[None, :].copy(), np.full(len(margins), y))[0]
            assert (got >= 0.0).all()
            assert (np.abs(got - expected) <= 4 * np.spacing(expected)).all()

    @pytest.mark.parametrize("kind", ["logistic_regression", "small_mlp"])
    def test_table_bits_do_not_depend_on_the_block_size(self, kind, rng, monkeypatch):
        """Blocks of one row, one block of exactly the table, and blocks of
        7 rows with a partial last one of 1 give the bits of the default
        block size."""
        task, data, _ = make_task_and_data(kind, 30, 4, seed=4)
        iterates = rng.standard_normal((50, task.param_dim)) * 3.0
        expected = task.loss_table(iterates, data.samples)
        for chunk_bytes in (8 * 30, 8 * 30 * 50, 8 * 30 * 7):
            monkeypatch.setattr(trainer, "_CHUNK_BYTES", chunk_bytes)
            got = task.loss_table(iterates, data.samples)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["quadratic", "logistic_regression", "small_mlp"])
    def test_table_peak_memory_is_one_table_and_one_block(self, kind, rng):
        """One loss_table call allocates, at its peak, less than its table
        and two blocks: a whole-table temporary would double the table."""
        task, data, _ = make_task_and_data(kind, 400, 4, seed=4)
        iterates = rng.standard_normal((1000, task.param_dim))
        table_bytes = 8 * len(iterates) * data.n
        assert table_bytes > 2 * trainer._CHUNK_BYTES
        task.loss_table(iterates[:2], data.samples)  # imports scipy's cdist untraced
        tracemalloc.start()
        try:
            task.loss_table(iterates, data.samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes + 2 * trainer._CHUNK_BYTES

    def test_one_sample_logistic_kernel_equals_the_stacked_kernel(self, rng):
        """The one-run logistic kernel of a one-sample batch gives the bits
        of the stacked kernel's row: margins past +-709.78, where the
        sigmoid saturates, signed zeros, and parameters with +-inf and NaN
        included (NaN in the same places)."""
        task = make_task("logistic_regression", 8)
        for trial in range(2000):
            w = rng.standard_normal(8) * 10.0 ** rng.uniform(-2, 3)
            x = np.append(rng.standard_normal(8), rng.choice([-1.0, 1.0]))
            if trial % 5 == 0:
                x[rng.integers(8)] = 0.0
            if trial % 7 == 0:
                w[rng.integers(8)] = rng.choice([np.inf, -np.inf, np.nan])
            with np.errstate(invalid="ignore", over="ignore"):
                one = task.mean_gradient(w, x[None])
                stacked = task.stack_gradient(w[None], x[None, None])[0]
            nan = np.isnan(stacked)
            assert np.array_equal(np.isnan(one), nan)
            assert one[~nan].tobytes() == stacked[~nan].tobytes()

    @pytest.mark.parametrize("rule", ["constant", "decaying"])
    def test_saturated_lone_logistic_run_equals_its_stacked_row(self, rule):
        """A lone logistic run whose margins pass -710, where the sigmoid is
        0.0, is bit-identical to its row in a stack of two runs."""
        task, data, _ = make_task_and_data("logistic_regression", 20, 3, seed=8, class_sep=6.0)
        cfgs = [SGDConfig(radius=1e3, step=50.0, iterations=60, seed=s, step_rule=rule)
                for s in (8, 9)]
        alone = projected_sgd(task, data, cfgs[0])
        margins = alone.points @ data.samples[:, :3].T * data.samples[:, 3]
        assert margins.max() > 710.0
        stacked = projected_sgd_stack(task, [data, data], cfgs)[0]
        assert alone.points.tobytes() == stacked.points.tobytes()

    def test_mean_gradient_averages(self, rng):
        task, data, _ = make_task_and_data("logistic_regression", 12, 5, seed=6)
        w = rng.standard_normal(task.param_dim)
        batch = data.samples[:4]
        single = np.mean([task.mean_gradient(w, z[None]) for z in batch], axis=0)
        np.testing.assert_allclose(task.mean_gradient(w, batch), single, rtol=1e-12)


class TestDataset:
    def test_n_is_read_from_the_samples(self):
        data = Dataset(np.zeros((3, 2)), [4, 5, 6])
        assert data.n == 3
        assert data.take(np.array([2, 0])).n == 2
        np.testing.assert_array_equal(data.take(np.array([2, 0])).ids, [6, 4])

    @pytest.mark.parametrize("samples, ids", [
        (np.zeros((0, 2)), []),
        (np.zeros((3, 2)), [0, 1]),
        (np.zeros((3, 2)), [0, 1, 2, 3]),
        (np.zeros((3, 2)), [[0, 1, 2]]),
    ], ids=["no-samples", "fewer-ids", "more-ids", "ids-not-1d"])
    def test_rejects_zero_samples_and_ids_of_another_length(self, samples, ids):
        with pytest.raises(InvalidInputError, match="n >= 1 samples with matching ids"):
            Dataset(samples, ids)

    def test_rejects_non_finite_samples(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            Dataset(np.array([[0.0, np.nan]]), [0])


class TestPerturbDataset:
    @pytest.mark.parametrize("J, pool_rows, pool_start, message", [
        (-1, 2, 3, "replacement count must be >= 0"),
        (3, 2, 3, "replacement count 3 exceeds pool size 2"),
        (4, 5, 3, "replacement count 4 exceeds dataset size 3"),
        (2, 2, 2, "pool shares sample ids with the dataset"),
    ], ids=["J-negative", "J-above-pool-size", "J-above-n", "shared-ids"])
    def test_bad_arguments_raise_one_error(self, J, pool_rows, pool_start, message):
        """Each bad argument of `perturb_dataset` raises one
        InvalidInputError, from the one place that checks them all."""
        data = dataset([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        pool = dataset([[8.0 + v, 0.0] for v in range(pool_rows)], start_id=pool_start)
        with pytest.raises(InvalidInputError, match=message):
            perturb_dataset(data, pool, J, 0)

    def test_zero_replacements_identity(self):
        data = dataset([[1.0, 0.0], [2.0, 0.0]])
        pool = dataset([[9.0, 0.0]], start_id=2)
        out = perturb_dataset(data, pool, 0, 0)
        np.testing.assert_array_equal(out.samples, data.samples)
        np.testing.assert_array_equal(out.ids, data.ids)

    def test_full_replacement(self):
        data = dataset([[1.0, 0.0], [2.0, 0.0]])
        pool = dataset([[8.0, 0.0], [9.0, 0.0]], start_id=2)
        out = perturb_dataset(data, pool, 2, 0)
        assert set(out.ids) == {2, 3}

    def test_partial_replacement_counts(self):
        data = dataset([[float(i), 0.0] for i in range(4)])
        pool = dataset([[100.0, 0.0], [101.0, 0.0]], start_id=4)
        out = perturb_dataset(data, pool, 2, 1)
        shared = sum(
            (out.samples[i] == data.samples[i]).all() and out.ids[i] == data.ids[i]
            for i in range(4)
        )
        assert shared == 2

    def test_deterministic(self):
        data = dataset([[float(i), 0.0] for i in range(6)])
        pool = dataset([[50.0, 0.0], [51.0, 0.0]], start_id=6)
        a = perturb_dataset(data, pool, 2, 7)
        b = perturb_dataset(data, pool, 2, 7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_oversized_replacement_rejected(self):
        data = dataset([[1.0, 0.0]])
        pool = dataset([[2.0, 0.0]], start_id=1)
        with pytest.raises(InvalidInputError, match="exceeds pool size 1"):
            perturb_dataset(data, pool, 2, 0)
        wide = dataset([[2.0, 0.0], [3.0, 0.0]], start_id=1)
        with pytest.raises(InvalidInputError, match="exceeds dataset size 1"):
            perturb_dataset(data, wide, 2, 0)

    def test_overlapping_pool_rejected(self):
        data = dataset([[1.0, 0.0], [2.0, 0.0]])
        pool = dataset([[9.0, 0.0]], start_id=1)
        with pytest.raises(InvalidInputError, match="ids"):
            perturb_dataset(data, pool, 1, 0)


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
        assert lm.values[0, 0] == task.loss_table(np.array([[0.3]]), np.array([[1.0, 0.0]]))[0, 0]

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
            estimates.append(estimate_constants(traj, lm).lipschitz)
        assert all(np.isfinite(e) and 0 < e < 50 for e in estimates)
        assert max(estimates) <= 5.0 * min(estimates)


class TestRowSupDistances:
    """`row_sup_distances(a, b)` against `np.abs(a - b).max(axis=1)`, bit
    for bit."""

    @pytest.mark.parametrize("rows", [1, 2, 162, 163, 164, 999])
    def test_equals_the_whole_table_formula(self, rows, rng):
        # 400 columns fill a block with 163 rows: one row, a part block, a
        # whole one, one row past it, and six blocks and a part
        assert trainer._block_rows(400) == 163
        a = rng.random((rows, 400))
        b = rng.random((rows, 400)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        expected = np.abs(a - b).max(axis=1)
        assert trainer.row_sup_distances(a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows_b", [1, 5, 299, 300, 301, 700])
    def test_twin_rows_then_a_broadcast_of_its_last_row(self, rows_b, rng):
        """The twin bounds of the stability estimator: each row of a table
        against the twin's row of the same step while the twin lasts, then
        against a broadcast view of the twin's last row; the twin one row
        long, shorter, as long or longer."""
        a, b = rng.random((300, 700)), rng.random((rows_b, 700))
        k = min(len(a), len(b))
        got = np.concatenate([
            trainer.row_sup_distances(a[:k], b[:k]),
            trainer.row_sup_distances(a[k:], np.broadcast_to(b[-1], a[k:].shape)),
        ])
        expected = np.abs(a - b[np.minimum(np.arange(300), rows_b - 1)]).max(axis=1)
        assert got.tobytes() == expected.tobytes()

    def test_holds_one_block_of_scratch(self, rng):
        a, b = rng.random((2000, 400)), rng.random((2000, 400))
        tracemalloc.start()
        try:
            out = trainer.row_sup_distances(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + trainer._CHUNK_BYTES + (1 << 16) < a.nbytes


class TestSeedStreams:
    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**64 + 1])
    def test_a_seed_outside_64_bits_is_rejected(self, seed):
        """A seed masked to 64 bits would draw the stream of another seed:
        2**64 that of 0, and -1 that of 2**64 - 1."""
        message = re.escape(f"seed {seed} must lie in [0, 2**64)")
        with pytest.raises(InvalidInputError, match=message):
            stream(seed, "sgd", "batch")

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
    def test_a_seed_in_range_draws_its_documented_stream(self, seed):
        tags = [int.from_bytes(hashlib.sha256(t.encode()).digest()[:8], "little")
                for t in ("sgd", "batch")]
        expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), *tags])))
        assert np.array_equal(stream(seed, "sgd", "batch").integers(0, 2**62, 16),
                              expected.integers(0, 2**62, 16))
