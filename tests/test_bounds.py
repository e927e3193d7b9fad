import math

import numpy as np
import pytest

from conftest import distances_of, make_trajectory
from oracles import bound_result_json, brute_rademacher
from trajtopo import trainer
from trajtopo.artifacts import LossMatrix, record_json
from trajtopo.bounds import (
    BoundResult,
    ConstantsEstimate,
    ealpha_bound,
    estimate_constants,
    kn_alpha,
    lemma_rhs_ealpha,
    lemma_rhs_pmag,
    mc_rademacher,
    pmag_bound,
)
from trajtopo.errors import InvalidInputError, NumericalFailureError
from trajtopo.trainer import make_task


class TestKnAlpha:
    def test_spot_values(self):
        assert kn_alpha(1, 1.0, 1.0, 1.0) == 4.0
        assert kn_alpha(4, 1.0, 2.0, 1.0) == 4.0
        assert kn_alpha(4, 1.0, 1.0, 0.5) == 4.0

    def test_alpha_range_enforced(self):
        for alpha in (0.0, -0.1, 1.0001):
            with pytest.raises(InvalidInputError):
                kn_alpha(4, 1.0, 1.0, alpha)

    def test_positivity_enforced(self):
        with pytest.raises(InvalidInputError):
            kn_alpha(0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            kn_alpha(4, 0.0, 1.0, 1.0)


class TestEalphaBound:
    def test_zero_complexity(self):
        assert ealpha_bound(1.0, 1.0, 5.0, [0.0]).value == 4.0

    def test_cube_root_of_beta(self):
        assert ealpha_bound(8.0, 1.0, 5.0, [0.0]).value == 8.0

    def test_log_term_spot_value(self):
        sample = (math.exp(0.5) - 1.0) / 4.0
        np.testing.assert_allclose(
            ealpha_bound(1.0, 1.0, 4.0, [sample]).value, 6.0, rtol=0.0, atol=1e-12
        )

    def test_sample_mean_used(self):
        a = ealpha_bound(1.0, 1.0, 4.0, [0.0, 0.0]).value
        assert a == 4.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ealpha_bound(0.0, 1.0, 1.0, [1.0])
        with pytest.raises(InvalidInputError):
            ealpha_bound(1.0, 1.0, 1.0, [])
        with pytest.raises(InvalidInputError):
            ealpha_bound(1.0, 1.0, 1.0, [-1.0])

    def test_monotone_in_beta_bound_and_samples(self):
        base = ealpha_bound(0.5, 1.0, 4.0, [1.0, 2.0]).value
        assert ealpha_bound(0.6, 1.0, 4.0, [1.0, 2.0]).value > base
        assert ealpha_bound(0.5, 1.2, 4.0, [1.0, 2.0]).value > base
        assert ealpha_bound(0.5, 1.0, 4.0, [1.0, 2.5]).value > base

    def test_beta_scaling_is_exact_cube_root(self):
        base = ealpha_bound(0.37, 2.0, 4.0, [1.0, 3.0]).value
        scaled = ealpha_bound(8.0 * 0.37, 2.0, 4.0, [1.0, 3.0]).value
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12)


class TestPmagBound:
    def test_unit_magnitude(self):
        assert pmag_bound(1.0, 1.0, 2.0, [1.0]).value == 4.0

    def test_log_of_e(self):
        np.testing.assert_allclose(
            pmag_bound(1.0, 1.0, 1.0, [math.e]).value, 5.0, rtol=0.0, atol=1e-12
        )

    def test_small_beta(self):
        np.testing.assert_allclose(
            pmag_bound(1e-3, 1.0, 1.0, [1.0]).value, 0.3, rtol=0.0, atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            pmag_bound(-1.0, 1.0, 1.0, [1.0])
        with pytest.raises(InvalidInputError):
            pmag_bound(1.0, 1.0, 0.0, [1.0])
        with pytest.raises(InvalidInputError):
            pmag_bound(1.0, 1.0, 1.0, [0.0])

    def test_monotone_and_cube_root(self):
        base = pmag_bound(0.2, 1.5, 1.0, [2.0, 4.0]).value
        assert pmag_bound(0.3, 1.5, 1.0, [2.0, 4.0]).value > base
        assert pmag_bound(0.2, 1.5, 1.0, [2.0, 5.0]).value > base
        np.testing.assert_allclose(
            pmag_bound(1.6, 1.5, 1.0, [2.0, 4.0]).value, 2.0 * base, rtol=1e-12
        )


class TestBoundResultJson:
    def test_to_json_key_order(self):
        """Bound results serialize with the hand-listed key order of the
        JSON format and sorted inputs, byte for byte."""
        results = [
            ealpha_bound(0.02, 1.5, kn_alpha(100, 2.0, 1.5, 0.5), [1.0, 2.5, 3.0]),
            ealpha_bound(1.0, 1.0, 5.0, [0.0]),
            pmag_bound(0.03, 2.0, 0.5, [1.5, 4.0, 9.0]),
            BoundResult(theorem="pmag", beta=0.5, value=2.0, inputs={"z": 1.0, "a": 2}),
            BoundResult(theorem="ealpha", beta=1e-9, value=0.0),
        ]
        for result in results:
            assert record_json(result) == bound_result_json(result)


class TestRademacher:
    def test_singleton_constant_class_is_zero(self):
        estimate, stderr = mc_rademacher(np.full((1, 4), 2.5), mode="exhaustive")
        assert estimate == 0.0 and stderr == 0.0

    def test_two_hypotheses_single_sample(self):
        estimate, _ = mc_rademacher(np.array([[0.0], [1.0]]), mode="exhaustive")
        assert estimate == 0.5

    def test_two_hypotheses_two_samples(self):
        estimate, _ = mc_rademacher(np.array([[0.0, 0.0], [1.0, 1.0]]), mode="exhaustive")
        assert estimate == 0.25

    def test_matches_pure_python_oracle(self, rng):
        for _ in range(10):
            losses = rng.uniform(0.0, 2.0, size=(rng.integers(1, 6), rng.integers(1, 8)))
            estimate, _ = mc_rademacher(losses, mode="exhaustive")
            np.testing.assert_allclose(estimate, brute_rademacher(losses), rtol=0.0, atol=1e-12)

    def test_monte_carlo_converges_to_exhaustive(self, rng):
        losses = rng.uniform(0.0, 1.0, size=(5, 10))
        exact, _ = mc_rademacher(losses, mode="exhaustive")
        estimate, stderr = mc_rademacher(losses, draws=4000, seed=1, mode="monte_carlo")
        assert abs(estimate - exact) <= 4.0 * stderr

    def test_estimate_within_loss_range(self, rng):
        bound = 3.0
        losses = rng.uniform(0.0, bound, size=(6, 9))
        estimate, _ = mc_rademacher(losses, mode="exhaustive")
        assert 0.0 <= estimate <= bound

    def test_exhaustive_width_limit(self):
        with pytest.raises(InvalidInputError):
            mc_rademacher(np.zeros((1, 21)), mode="exhaustive")

    def test_bad_mode_and_shapes(self):
        with pytest.raises(InvalidInputError):
            mc_rademacher(np.zeros((0, 2)), mode="exhaustive")
        with pytest.raises(InvalidInputError):
            mc_rademacher(np.zeros((1, 2)), mode="antithetic")

    def test_monte_carlo_deterministic_per_seed(self, rng):
        losses = rng.uniform(0.0, 1.0, size=(3, 6))
        a = mc_rademacher(losses, draws=100, seed=5, mode="monte_carlo")
        b = mc_rademacher(losses, draws=100, seed=5, mode="monte_carlo")
        assert a == b


class TestLemmaRhs:
    def test_lifetime_spot_values(self):
        assert lemma_rhs_ealpha(1, 1.0, 1.0, 0.0) == 1.0
        assert lemma_rhs_ealpha(4, 2.0, 1.0, 0.0) == 1.0
        np.testing.assert_allclose(
            lemma_rhs_ealpha(2, 1.0, 4.0, (math.exp(0.5) - 1.0) / 4.0),
            math.sqrt(2.0),
            rtol=0.0,
            atol=1e-12,
        )

    def test_magnitude_spot_values(self):
        assert lemma_rhs_pmag(1, 1.0, 2.0, 1.0) == 1.0
        np.testing.assert_allclose(
            lemma_rhs_pmag(2, 1.0, 1.0, math.e), 1.25, rtol=0.0, atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            lemma_rhs_ealpha(0, 1.0, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            lemma_rhs_ealpha(1, 1.0, 1.0, -1.0)
        with pytest.raises(InvalidInputError):
            lemma_rhs_pmag(1, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInputError):
            lemma_rhs_pmag(1, 1.0, 1.0, 0.5)


class TestEstimateConstants:
    def test_hand_computed_quadratic(self):
        task = make_task("quadratic", 1)
        traj = make_trajectory([[0.0], [0.5]])
        values = np.array([[0.5], [0.125]])
        lm = LossMatrix(values=values, iteration_ids=[0, 1], sample_ids=[0], split="train")
        consts = estimate_constants(task, traj, lm)
        assert consts.lipschitz == 0.75
        assert consts.loss_bound == 0.5
        assert consts.source == "empirical"
        assert consts.smoothness == 1.0

    @pytest.mark.parametrize("jump", [None, 0, 162, 163, 326, 980, 998])
    def test_lipschitz_equals_the_whole_table_formula(self, jump, rng):
        """L from the loss jumps taken a block of rows at a time is the
        whole-table formula's bit for bit, on a table of 999 jumps: six
        blocks of 163 rows and a partial last one of 21. A step in one
        sample's losses puts the largest quotient at a chosen jump: in the
        first block, at both edges of the second, inside a later block and
        in the partial last one. Coinciding iterates are skipped as before."""
        rows = trainer._block_rows(400)
        assert rows == 163 and 999 % rows == 21
        values = rng.random((1000, 400))
        if jump is not None:
            values[jump + 1 :, 7] += 50.0
        points = np.cumsum(rng.uniform(0.5, 2.0, (1000, 3)), axis=0)
        points[[11, 500]] = points[[10, 499]]
        traj = make_trajectory(points)
        lm = LossMatrix(values=values, iteration_ids=np.arange(1000),
                        sample_ids=np.arange(400), split="train")
        steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
        usable = steps >= 1e-12
        expected = np.abs(np.diff(values, axis=0)).max(axis=1)[usable] / steps[usable]
        got = estimate_constants(make_task("logistic_regression", 3), traj, lm)
        assert got.lipschitz.hex() == float(expected.max()).hex()
        if jump is not None:
            assert expected.argmax() + (jump > 10) + (jump > 499) == jump

    def test_constant_losses_give_tiny_lipschitz(self):
        task = make_task("quadratic", 1)
        traj = make_trajectory([[0.0], [1.0]])
        lm = LossMatrix(
            values=np.full((2, 3), 2.0), iteration_ids=[0, 1],
            sample_ids=[0, 1, 2], split="train",
        )
        with pytest.warns(UserWarning, match="smallest positive double"):
            consts = estimate_constants(task, traj, lm)
        assert type(consts.lipschitz) is float
        assert consts.lipschitz == np.finfo(np.float64).tiny
        assert consts.loss_bound == 2.0

    def test_degenerate_trajectory_rejected(self):
        task = make_task("quadratic", 1)
        traj = make_trajectory([[0.5], [0.5]], ids=[0, 1])
        lm = LossMatrix(
            values=np.ones((2, 1)), iteration_ids=[0, 1], sample_ids=[0], split="train"
        )
        with pytest.raises(NumericalFailureError):
            estimate_constants(task, traj, lm)

    def test_requires_two_iterates_and_matching_ids(self):
        task = make_task("quadratic", 1)
        lm = LossMatrix(values=np.ones((1, 1)), iteration_ids=[0], sample_ids=[0], split="train")
        with pytest.raises(InvalidInputError):
            estimate_constants(task, make_trajectory([[0.0]]), lm)

    def test_constants_validation(self):
        with pytest.raises(InvalidInputError):
            ConstantsEstimate(lipschitz=0.0, loss_bound=1.0)
        with pytest.raises(InvalidInputError):
            ConstantsEstimate(lipschitz=1.0, loss_bound=1.0, source="guessed")


class TestLemmaInequalitiesSmall:
    def test_random_instances_respect_both_bounds(self, rng):
        """Clipped-distance losses are 1-Lipschitz and bounded, so the
        exhaustive Rademacher value must sit below both closed-form caps."""
        for _ in range(50):
            w_count = int(rng.integers(1, 9))
            n = int(rng.integers(1, 13))
            bound = float(rng.uniform(0.5, 3.0))
            points = rng.uniform(-2.0, 2.0, size=(w_count, 2))
            anchors = rng.uniform(-2.0, 2.0, size=(n, 2))
            table = np.minimum(
                bound, np.linalg.norm(points[:, None, :] - anchors[None, :, :], axis=2)
            )
            rad, _ = mc_rademacher(table, mode="exhaustive")

            from trajtopo.geometry import deduplicate, default_dedup_eps
            from trajtopo.lifetime import alpha_weighted_lifetime_sum
            from trajtopo.magnitude import positive_magnitude

            dist = deduplicate(distances_of(points), default_dedup_eps(distances_of(points)))
            alpha = float(rng.uniform(0.2, 1.0))
            e_alpha = alpha_weighted_lifetime_sum(dist, alpha)
            rhs_e = lemma_rhs_ealpha(n, bound, kn_alpha(n, 1.0, bound, alpha), e_alpha)
            lam = float(rng.uniform(0.2, 5.0))
            rhs_p = lemma_rhs_pmag(n, bound, lam, positive_magnitude(dist, lam))
            assert rad <= rhs_e + 1e-12
            assert rad <= rhs_p + 1e-12
