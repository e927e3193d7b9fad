import numpy as np
import pytest

from conftest import distances_of, make_trajectory
from oracles import brute_distance_matrix, greedy_dedup_indices
from trajtopo.errors import InvalidInputError
from trajtopo.geometry import (
    DistanceMatrix,
    deduplicate,
    default_dedup_eps,
    load_distance_matrix,
    pairwise_distances,
    save_distance_matrix,
    subsample_uniform,
)
from trajtopo.rng import stream


class TestPairwiseDistances:
    def test_single_point(self):
        dist = distances_of([[3.0, 4.0]])
        np.testing.assert_array_equal(dist.values, np.zeros((1, 1)))

    def test_unit_basis_vectors(self):
        dist = distances_of([[1.0, 0.0], [0.0, 1.0]])
        assert dist.values[0, 1] == np.sqrt(2.0)
        assert dist.values[1, 0] == np.sqrt(2.0)

    def test_matches_coordinate_oracle(self, rng):
        points = rng.standard_normal((3, 4))
        dist = distances_of(points)
        np.testing.assert_allclose(dist.values, brute_distance_matrix(points),
                                   rtol=0.0, atol=1e-12)

    def test_translation_invariance(self, rng):
        points = rng.standard_normal((8, 5))
        shifted = points + rng.standard_normal(5) * 100.0
        np.testing.assert_allclose(
            distances_of(points).values, distances_of(shifted).values, rtol=1e-9, atol=1e-9
        )

    def test_scaling_equivariance_power_of_two_exact(self, rng):
        points = rng.standard_normal((6, 3))
        base = distances_of(points).values
        np.testing.assert_array_equal(distances_of(4.0 * points).values, 4.0 * base)

    def test_scaling_equivariance_general(self, rng):
        points = rng.standard_normal((6, 3))
        base = distances_of(points).values
        np.testing.assert_allclose(distances_of(-1.7 * points).values, 1.7 * base, rtol=1e-12)

    def test_triangle_inequality_sampled(self, rng):
        values = distances_of(rng.standard_normal((20, 6))).values
        for _ in range(200):
            i, j, k = rng.integers(0, 20, size=3)
            assert values[i, k] <= values[i, j] + values[j, k] + 1e-9


class TestSubsample:
    def test_full_sample_returns_input(self, rng):
        traj = make_trajectory(rng.standard_normal((5, 2)))
        assert subsample_uniform(traj, 5, seed=0) is traj
        assert subsample_uniform(traj, 9, seed=0) is traj

    def test_single_row_is_member(self, rng):
        points = rng.standard_normal((3, 2))
        traj = make_trajectory(points)
        sub = subsample_uniform(traj, 1, seed=4)
        assert any((sub.points[0] == row).all() for row in points)

    def test_deterministic_for_fixed_seed(self, rng):
        traj = make_trajectory(rng.standard_normal((10, 2)))
        a = subsample_uniform(traj, 4, seed=11)
        b = subsample_uniform(traj, 4, seed=11)
        np.testing.assert_array_equal(a.iteration_ids, b.iteration_ids)
        np.testing.assert_array_equal(a.points, b.points)

    def test_matches_documented_stream(self, rng):
        """Indices must come from the (seed, "subsample") stream."""
        traj = make_trajectory(rng.standard_normal((10, 2)))
        sub = subsample_uniform(traj, 4, seed=11)
        expected = np.sort(stream(11, "subsample").choice(10, size=4, replace=False))
        np.testing.assert_array_equal(sub.iteration_ids, expected)

    def test_preserves_temporal_order(self, rng):
        traj = make_trajectory(rng.standard_normal((50, 2)))
        sub = subsample_uniform(traj, 20, seed=3)
        assert (np.diff(sub.iteration_ids) > 0).all()

    def test_zero_size_rejected(self, rng):
        traj = make_trajectory(rng.standard_normal((5, 2)))
        with pytest.raises(InvalidInputError):
            subsample_uniform(traj, 0, seed=0)


class TestDeduplicate:
    def test_exact_duplicate_removed(self):
        dist = distances_of([[0.0], [0.0], [1.0]])
        out = deduplicate(dist, 1e-12)
        assert len(out) == 2
        np.testing.assert_array_equal(out.point_ids, [0, 2])

    def test_no_close_pairs_is_identity(self, rng):
        dist = distances_of(rng.standard_normal((6, 2)))
        assert deduplicate(dist, 1e-12) is dist

    def test_greedy_chain(self):
        """Scan keeps the first point of each cluster: of points at 0,
        0.5*eps, and 1.1*eps only the first and third survive."""
        eps = 1e-6
        dist = distances_of([[0.0], [0.5 * eps], [1.1 * eps]])
        out = deduplicate(dist, eps)
        np.testing.assert_array_equal(out.point_ids, [0, 2])
        assert (out.values[~np.eye(2, dtype=bool)] > eps).all()

    @pytest.mark.parametrize(
        "points, eps",
        [
            ([[0.0], [1.0], [3.0], [7.0]], 1e-12),
            ([[0.0], [0.0], [1.0], [1.0], [0.0]], 1e-12),
            ([[0.0], [0.6], [1.2], [5.0]], 1.0),
            ([[0.0], [0.0], [2.0]], 0.0),
            ([[0.0], [0.5], [2.0]], 0.0),
            ([[4.0]], 1e-12),
        ],
        ids=["no-close-pair", "exact-duplicates", "eps-chain", "eps-zero-duplicate",
             "eps-zero-distinct", "single-point"],
    )
    def test_matches_greedy_scan_oracle(self, points, eps):
        dist = distances_of(points)
        kept = greedy_dedup_indices(dist.values, eps)
        out = deduplicate(dist, eps)
        if len(kept) == len(dist):
            assert out is dist
        np.testing.assert_array_equal(out.point_ids, dist.point_ids[kept])
        np.testing.assert_array_equal(out.values, dist.values[np.ix_(kept, kept)])

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidInputError):
            deduplicate(distances_of([[0.0]]), -1.0)

    def test_default_eps_is_relative(self, rng):
        dist = distances_of(rng.standard_normal((4, 2)) * 1e6)
        assert default_dedup_eps(dist) == 1e-12 * dist.values.max()


class TestDistanceMatrixValidation:
    def test_asymmetry_rejected(self):
        values = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInputError, match="symmetric"):
            DistanceMatrix(values=values, point_ids=[0, 1])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidInputError, match="diagonal"):
            DistanceMatrix(values=np.ones((2, 2)), point_ids=[0, 1])

    def test_negative_entry_rejected(self):
        values = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidInputError, match="nonnegative"):
            DistanceMatrix(values=values, point_ids=[0, 1])

    def test_artifact_roundtrip(self, tmp_path, rng):
        dist = distances_of(rng.standard_normal((5, 3)))
        save_distance_matrix(dist, tmp_path / "d")
        back = load_distance_matrix(tmp_path / "d")
        np.testing.assert_array_equal(back.values, dist.values)
        np.testing.assert_array_equal(back.point_ids, dist.point_ids)
