"""Euclidean geometry over trajectories.

Distance matrices are computed over (optionally subsampled) iterates with
the plain Euclidean norm. Coincident iterates are removed before any
similarity-matrix solve, because exact duplicates make that system
singular.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import (ArtifactManifest, Trajectory, join_ids, parse_ids, read_artifact,
                        write_artifact)
from .errors import InvalidInputError, naming
from .rng import check_seed, stream


@dataclass
class DistanceMatrix:
    """Symmetric pairwise Euclidean distances, with a map back to iterates."""

    values: np.ndarray
    point_ids: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64)
        m = self.values.shape[0]
        if self.values.ndim != 2 or self.values.shape != (m, m):
            raise InvalidInputError("distance matrix must be square")
        if self.point_ids.shape != (m,):
            raise InvalidInputError("point_ids length must match matrix size")
        if not np.isfinite(self.values).all():
            raise InvalidInputError("distance matrix contains non-finite entries")
        if (np.diagonal(self.values) != 0).any():
            raise InvalidInputError("distance matrix diagonal must be zero")
        if (self.values < 0).any():
            raise InvalidInputError("distances must be nonnegative")
        if not np.array_equal(self.values, self.values.T):
            raise InvalidInputError("distance matrix must be symmetric")

    def __len__(self) -> int:
        return self.values.shape[0]


def pairwise_distances(traj: Trajectory) -> DistanceMatrix:
    """Euclidean distance matrix over all iterates of a trajectory."""
    from scipy.spatial.distance import pdist, squareform

    values = squareform(pdist(traj.points, metric="euclidean"))
    return DistanceMatrix(values=values, point_ids=traj.iteration_ids.copy())


def subsample_uniform(traj: Trajectory, m: int, seed: int) -> Trajectory:
    """Keep m iterates sampled uniformly without replacement, in temporal order.

    Returns the trajectory unchanged when m >= T. Deterministic for a fixed
    seed: indices come from the (seed, "subsample") stream.
    """
    if m < 1:
        raise InvalidInputError(f"subsample size must be >= 1, got {m}")
    check_seed(seed)
    t = len(traj)
    if m >= t:
        return traj
    idx = stream(seed, "subsample").choice(t, size=m, replace=False)
    idx.sort()
    return Trajectory(
        points=traj.points[idx],
        iteration_ids=traj.iteration_ids[idx],
        meta=dict(traj.meta),
    )


def deduplicate(dist: DistanceMatrix, eps: float) -> DistanceMatrix:
    """Drop points within eps of an already-kept point, scanning by index.

    The greedy scan keeps the first point of every eps-cluster, so all
    pairwise distances in the output exceed eps.
    """
    if not 0 <= eps < np.inf:
        raise InvalidInputError(f"eps must be finite and >= 0, got {eps}")
    m = len(dist)
    # the m zero diagonal entries are the only ones <= eps when no pair is close
    if np.count_nonzero(dist.values <= eps) == m:
        return dist
    kept: list[int] = []
    for i in range(m):
        if not kept or (dist.values[i, kept] > eps).all():
            kept.append(i)
    idx = np.array(kept, dtype=np.int64)
    return DistanceMatrix(
        values=dist.values[np.ix_(idx, idx)],
        point_ids=dist.point_ids[idx],
    )


def default_dedup_eps(dist: DistanceMatrix) -> float:
    """Relative threshold that removes only numerically coincident iterates."""
    return 1e-12 * float(dist.values.max(initial=0.0))


def distance_matrix(traj: Trajectory, eps: float | None = None) -> DistanceMatrix:
    """Distances between a trajectory's iterates with coincident ones
    removed: `pairwise_distances`, then `deduplicate` at `eps`, by default
    `default_dedup_eps`."""
    dist = pairwise_distances(traj)
    return deduplicate(dist, default_dedup_eps(dist) if eps is None else eps)


def save_distance_matrix(dist: DistanceMatrix, path: str | Path) -> None:
    meta = {"point_ids": join_ids(dist.point_ids)}
    manifest = ArtifactManifest(role="distance_matrix", shape=dist.values.shape, metadata=meta)
    write_artifact(manifest, dist.values, path)


def load_distance_matrix(path: str | Path) -> DistanceMatrix:
    manifest, matrix = read_artifact(path, "distance_matrix")
    point_ids = parse_ids(manifest.metadata, "point_ids", path)
    with naming(f"artifact {path}"):
        return DistanceMatrix(values=matrix, point_ids=point_ids)
