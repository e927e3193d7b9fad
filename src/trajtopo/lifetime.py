"""Minimum spanning trees and weighted lifetime sums.

The total-lifetime statistic used here is the sum of MST edge lengths
raised to a power alpha; it coincides with the degree-0 persistence
lifetime sum of the point set, so no filtration machinery is needed.
`minimum_spanning_tree` returns the tree as a list of (i, j, length) edges.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InvalidInputError
from .geometry import DistanceMatrix


def minimum_spanning_tree(dist: DistanceMatrix) -> list[tuple[int, int, float]]:
    """MST edges (i, j, length), i < j, sorted by (i, j), by a dense Prim scan:
    O(m^2) time and O(m) extra space.

    Among equally close candidates the lowest-index vertex joins first,
    and each vertex keeps the first tree vertex that reached its distance,
    so the returned edge list is a deterministic function of the input.
    Every minimum spanning tree has the same multiset of edge lengths.
    """
    d = dist.values
    m = d.shape[0]
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    # distance from each outside vertex to the tree; +inf once inside
    best = d[0].copy()
    best[0] = np.inf
    parent = np.zeros(m, dtype=np.int64)

    edges: list[tuple[int, int, float]] = []
    for _ in range(m - 1):
        v = int(np.argmin(best))
        a = int(parent[v])
        edges.append((min(a, v), max(a, v), float(d[a, v])))
        in_tree[v] = True
        best[v] = np.inf

        dv = d[v]
        closer = ~in_tree & (dv < best)
        best[closer] = dv[closer]
        parent[closer] = v

    edges.sort(key=lambda e: (e[0], e[1]))
    return edges


def alpha_weighted_lifetime_sum(dist: DistanceMatrix, alpha: float) -> float:
    """Sum over MST edges of length**alpha; zero for a single point."""
    if not 0 <= alpha < np.inf:
        raise InvalidInputError(f"alpha must be finite and >= 0, got {alpha}")
    if alpha > 1:
        warnings.warn(
            "alpha > 1 is outside the range covered by the lifetime-sum "
            "generalization bound (alpha in (0, 1]); the statistic itself is "
            "still well defined",
            stacklevel=2,
        )
    return float(np.sum(np.array([e[2] for e in minimum_spanning_tree(dist)]) ** alpha))
