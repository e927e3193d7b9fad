"""Minimum spanning trees and weighted lifetime sums.

The total-lifetime statistic used here is the sum of MST edge lengths
raised to a power alpha; it coincides with the degree-0 persistence
lifetime sum of the point set, so no filtration machinery is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .geometry import DistanceMatrix


@dataclass
class EdgeList:
    """MST edges as (i, j, length) with i < j, sorted by (i, j)."""

    edges: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.edges)

    def total_length(self) -> float:
        return float(sum(e[2] for e in self.edges))

    def lengths(self) -> np.ndarray:
        return np.array([e[2] for e in self.edges], dtype=np.float64)


def minimum_spanning_tree(dist: DistanceMatrix) -> EdgeList:
    """Dense Prim scan, O(m^2) time and O(m) extra space.

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
    return EdgeList(edges)


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
    return float(np.sum(minimum_spanning_tree(dist).lengths() ** alpha))
