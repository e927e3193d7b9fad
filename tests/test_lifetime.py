import numpy as np
import pytest

from conftest import distances_of
from oracles import exhaustive_lifetime_sum, exhaustive_mst_edges, tie_break_prim_edges
from trajtopo.errors import InvalidInputError
from trajtopo.lifetime import alpha_weighted_lifetime_sum, minimum_spanning_tree


def total_length(edges):
    """Sum of the lengths of (i, j, length) edges, in list order."""
    return float(sum(length for _, _, length in edges))


class TestMinimumSpanningTree:
    def test_collinear_path(self):
        dist = distances_of([[0.0], [1.0], [3.0]])
        tree = minimum_spanning_tree(dist)
        assert tree == [(0, 1, 1.0), (1, 2, 2.0)]
        assert len(tree) == 2

    def test_single_point_has_no_edges(self):
        tree = minimum_spanning_tree(distances_of([[5.0, 5.0]]))
        assert tree == []
        assert len(tree) == 0

    def test_unit_square_uses_three_sides(self):
        """All 16 spanning trees of the square agree: total 3, no diagonal."""
        corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        dist = distances_of(corners)
        tree = minimum_spanning_tree(dist)
        assert total_length(tree) == 3.0
        assert all(length == 1.0 for _, _, length in tree)
        oracle = exhaustive_mst_edges(dist.values)
        total = dist.values[oracle[:, 0], oracle[:, 1]].sum()
        assert total_length(tree) == total

    def test_total_length_matches_enumeration(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 8))
            dist = distances_of(rng.uniform(0.0, 1.0, size=(m, 2)))
            tree = minimum_spanning_tree(dist)
            edges = exhaustive_mst_edges(dist.values)
            np.testing.assert_allclose(
                total_length(tree),
                dist.values[edges[:, 0], edges[:, 1]].sum(),
                rtol=0.0,
                atol=1e-12,
            )

    def test_spans_without_cycles(self, rng):
        m = 30
        tree = minimum_spanning_tree(distances_of(rng.standard_normal((m, 3))))
        assert len(tree) == m - 1
        seen = {0}
        remaining = list(tree)
        while remaining:
            progress = [e for e in remaining if e[0] in seen or e[1] in seen]
            assert progress, "edges do not connect the point set"
            for e in progress:
                assert not (e[0] in seen and e[1] in seen), "cycle edge"
                seen.update((e[0], e[1]))
                remaining.remove(e)
        assert seen == set(range(m))

    def test_tie_break_prefers_smallest_index_pair(self):
        corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        tree = minimum_spanning_tree(distances_of(corners))
        assert [(i, j) for i, j, _ in tree] == [(0, 1), (0, 3), (1, 2)]

    def test_deterministic(self, rng):
        dist = distances_of(rng.standard_normal((12, 2)))
        assert minimum_spanning_tree(dist) == minimum_spanning_tree(dist)

    def test_matches_tie_resolving_scan(self, rng):
        """The lowest-index scan gives the old tie-resolving scan's edges when
        no two distances are equal, and the same multiset of edge lengths on
        tie-heavy lattices. The lifetime sums are equal where every distance
        is an integer; elsewhere a tie may change the order of the sum, so
        it may move by a few ulps."""
        for _ in range(40):
            dist = distances_of(rng.standard_normal((int(rng.integers(1, 60)), 3)))
            assert minimum_spanning_tree(dist) == tie_break_prim_edges(dist.values)
        for dim in (1, 2):
            for _ in range(40):
                points = rng.integers(0, 5, size=(int(rng.integers(1, 60)), dim))
                dist = distances_of(points.astype(np.float64))
                old = np.array([e[2] for e in tie_break_prim_edges(dist.values)])
                new = np.array([e[2] for e in minimum_spanning_tree(dist)])
                np.testing.assert_array_equal(np.sort(new), np.sort(old))
                for alpha in (0.0, 0.5, 1.0):
                    expected = float(np.sum(old**alpha)) if len(old) else 0.0
                    value = alpha_weighted_lifetime_sum(dist, alpha)
                    if dim == 1:
                        assert value == expected
                    else:
                        assert value == pytest.approx(expected, rel=len(old) * np.finfo(float).eps)

    def test_total_length_matches_scipy_at_scale(self, rng):
        """Independent library MST agrees on total length for clouds far
        beyond the enumeration oracle's reach."""
        from scipy.sparse.csgraph import minimum_spanning_tree as scipy_mst

        for m in (50, 200):
            dist = distances_of(rng.standard_normal((m, 5)))
            ours = total_length(minimum_spanning_tree(dist))
            theirs = scipy_mst(dist.values).sum()
            np.testing.assert_allclose(ours, theirs, rtol=1e-12)


class TestLifetimeSum:
    def test_unit_spacing(self):
        dist = distances_of([[0.0], [1.0], [2.0], [3.0]])
        assert alpha_weighted_lifetime_sum(dist, 1.0) == 3.0

    def test_squared_lengths(self):
        dist = distances_of([[0.0], [1.0], [3.0]])
        with pytest.warns(UserWarning):
            assert alpha_weighted_lifetime_sum(dist, 2.0) == 5.0

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 8))
            dist = distances_of(rng.uniform(0.0, 1.0, size=(m, 2)))
            np.testing.assert_allclose(
                alpha_weighted_lifetime_sum(dist, 0.7),
                exhaustive_lifetime_sum(dist.values, 0.7),
                rtol=0.0,
                atol=1e-12,
            )

    def test_single_point_is_zero(self):
        assert alpha_weighted_lifetime_sum(distances_of([[1.0]]), 1.0) == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            alpha_weighted_lifetime_sum(distances_of([[0.0], [1.0]]), -0.5)

    def test_alpha_above_one_warns(self, rng):
        dist = distances_of(rng.standard_normal((4, 2)))
        with pytest.warns(UserWarning, match="alpha"):
            alpha_weighted_lifetime_sum(dist, 1.5)

    def test_alpha_zero_counts_edges(self, rng):
        m = 9
        dist = distances_of(rng.standard_normal((m, 2)))
        assert alpha_weighted_lifetime_sum(dist, 0.0) == m - 1

    def test_homogeneity_exact_power_of_two(self, rng):
        points = rng.standard_normal((7, 2))
        base = alpha_weighted_lifetime_sum(distances_of(points), 1.0)
        assert alpha_weighted_lifetime_sum(distances_of(2.0 * points), 1.0) == 2.0 * base

    def test_homogeneity_general_alpha(self, rng):
        points = rng.standard_normal((7, 2))
        t, alpha = 1.7, 0.6
        base = alpha_weighted_lifetime_sum(distances_of(points), alpha)
        np.testing.assert_allclose(
            alpha_weighted_lifetime_sum(distances_of(t * points), alpha),
            t**alpha * base,
            rtol=1e-12,
        )

    def test_permutation_invariance(self, rng):
        points = rng.standard_normal((10, 3))
        perm = rng.permutation(10)
        np.testing.assert_allclose(
            alpha_weighted_lifetime_sum(distances_of(points), 0.8),
            alpha_weighted_lifetime_sum(distances_of(points[perm]), 0.8),
            rtol=1e-12,
        )
