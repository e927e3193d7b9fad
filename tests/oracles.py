"""Independent brute-force oracles used by the tests.

These deliberately avoid the production algorithms: spanning trees are
enumerated exhaustively via label sequences, distances are summed
coordinate by coordinate, and Rademacher sups are looped in pure Python.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import sys
import types
import typing
from functools import lru_cache

import numpy as np


def _decode_tree_sequence(seq: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Decode a length-(m-2) label sequence into the edges of its tree."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = sorted(i for i in range(m) if degree[i] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # keep the pending-leaf list sorted
            import bisect

            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return edges


@lru_cache(maxsize=None)
def all_labeled_trees(m: int) -> np.ndarray:
    """Every labeled tree on m nodes as an (trees, m-1, 2) index array."""
    if m == 1:
        return np.zeros((1, 0, 2), dtype=np.int64)
    if m == 2:
        return np.array([[[0, 1]]], dtype=np.int64)
    trees = [
        _decode_tree_sequence(seq, m)
        for seq in itertools.product(range(m), repeat=m - 2)
    ]
    return np.array(trees, dtype=np.int64)


def exhaustive_mst_edges(dist: np.ndarray) -> np.ndarray:
    """Edges of a minimum-total-length spanning tree, by full enumeration."""
    m = dist.shape[0]
    trees = all_labeled_trees(m)
    totals = dist[trees[:, :, 0], trees[:, :, 1]].sum(axis=1)
    return trees[int(np.argmin(totals))]

def exhaustive_lifetime_sum(dist: np.ndarray, alpha: float) -> float:
    """Sum of length**alpha over the exhaustively found minimal tree."""
    edges = exhaustive_mst_edges(dist)
    if edges.shape[0] == 0:
        return 0.0
    return float((dist[edges[:, 0], edges[:, 1]] ** alpha).sum())


def brute_distance_matrix(points: np.ndarray) -> np.ndarray:
    """Coordinate-by-coordinate sum-of-squares Euclidean distances."""
    m, d = points.shape
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            acc = 0.0
            for k in range(d):
                diff = points[i, k] - points[j, k]
                acc += diff * diff
            out[i, j] = math.sqrt(acc)
    return out


def brute_rademacher(losses: np.ndarray) -> float:
    """Exact Rademacher complexity by looping sign tuples in Python."""
    w_count, n = losses.shape
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        best = max(
            sum(s * losses[w, i] for i, s in enumerate(signs)) for w in range(w_count)
        )
        total += best / n
    return total / 2**n


def blocked_max_min_estimate(
    a: np.ndarray, b: np.ndarray, block_target: int = 10_000_000
) -> float:
    """Directed max-min loss deviation by explicit broadcasting.

    Rows of `a` are taken in blocks sized to keep the (block, T'b, M)
    difference tensor near `block_target` entries; each block reduces to
    the worst sample, then the best match in `b`, then the worst iterate.
    """
    rows = max(1, block_target // max(1, b.size))
    worst = 0.0
    for start in range(0, a.shape[0], rows):
        block = a[start : start + rows]
        diff = np.abs(block[:, None, :] - b[None, :, :]).max(axis=2)
        worst = max(worst, float(diff.min(axis=1).max()))
    return worst


def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) of every entry as max(t, 0) + log1p(exp(-|t|)), the
    loss tables' formula, from fresh arrays over the whole array at once:
    no blocks and no buffer written in place."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def per_step_sgd(task, data, cfg) -> np.ndarray:
    """Projected SGD iterates with one batch draw per step.

    Same streams as `trainer.projected_sgd`, but each step asks the
    (seed, stream_tag, "batch") generator for its own `cfg.batch` indices.
    """
    from trajtopo.rng import stream
    from trajtopo.trainer import sample_in_ball

    if cfg.w0 is not None:
        w = np.asarray(cfg.w0, dtype=np.float64).copy()
    else:
        w = sample_in_ball(stream(cfg.seed, cfg.stream_tag, "init"), task.param_dim, cfg.radius)
    batch_rng = stream(cfg.seed, cfg.stream_tag, "batch")
    points = [w]
    for k in range(1, cfg.iterations + 1):
        idx = batch_rng.integers(0, data.n, size=cfg.batch)
        grad = task.mean_gradient(w, data.samples[idx])
        eta = cfg.step if cfg.step_rule == "constant" else cfg.step / k
        w = w - eta * grad
        norm = float(np.linalg.norm(w))
        if norm > cfg.radius:
            w *= cfg.radius / norm
        points.append(w)
    return np.array(points)


def greedy_dedup_indices(values: np.ndarray, eps: float) -> list[int]:
    """Indices kept by a scan that keeps a point only when every point
    kept before it is more than eps away."""
    kept: list[int] = []
    for i in range(values.shape[0]):
        if all(values[i, j] > eps for j in kept):
            kept.append(i)
    return kept


def tie_break_prim_edges(d: np.ndarray) -> list[tuple[int, int, float]]:
    """Dense Prim scan that resolves every tie between equally close
    candidates, and between equally close tree vertices, toward the
    lexicographically smallest normalized (i, j) pair; edges sorted by
    (i, j)."""
    m = d.shape[0]
    if m == 1:
        return []
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    parent = np.zeros(m, dtype=np.int64)
    best[0] = np.inf
    idx = np.arange(m)
    edges = []
    for _ in range(m - 1):
        masked = np.where(in_tree, np.inf, best)
        w = float(masked.min())
        candidates = np.flatnonzero(masked == w)
        lo = np.minimum(parent[candidates], candidates)
        hi = np.maximum(parent[candidates], candidates)
        v = int(candidates[np.lexsort((hi, lo))[0]])
        a = int(parent[v])
        edges.append((min(a, v), max(a, v), float(d[a, v])))
        in_tree[v] = True
        best[v] = np.inf
        dv = d[v]
        out = ~in_tree
        closer = out & (dv < best)
        best[closer] = dv[closer]
        parent[closer] = v
        tied = out & (dv == best) & ~closer
        if tied.any():
            t = idx[tied]
            new_lo, new_hi = np.minimum(v, t), np.maximum(v, t)
            old_lo, old_hi = np.minimum(parent[t], t), np.maximum(parent[t], t)
            swap = (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi))
            parent[t[swap]] = v
    edges.sort(key=lambda e: (e[0], e[1]))
    return edges


def stability_report_json(report) -> str:
    """A stability report as JSON with its keys listed by hand."""
    doc = {
        "n": report.n,
        "J": report.J,
        "direction": report.direction,
        "eval_split": report.eval_split,
        "init_mode": report.init_mode,
        "seeds": report.seeds,
        "beta_hats": report.beta_hats,
        "raw_deviations": report.raw_deviations,
        "mean": report.mean,
        "stderr": report.stderr,
    }
    return json.dumps(doc, indent=2) + "\n"


def bound_result_json(result) -> str:
    """A bound result as JSON with its keys listed by hand."""
    doc = {
        "theorem": result.theorem,
        "beta": result.beta,
        "value": result.value,
        "inputs": dict(sorted(result.inputs.items())),
    }
    return json.dumps(doc, indent=2) + "\n"


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def reference_similarity_matrix(dist, s: float) -> np.ndarray:
    """exp(-s * D) evaluated at every entry, then the entries below the
    smallest normal double set to zero."""
    z = np.exp(-s * dist.values)
    z[z < np.finfo(np.float64).tiny] = 0.0
    return z


def reference_solve_direct(z: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy's checked `cho_factor` and `cho_solve`, with one refinement
    step when the residual exceeds 1e-10; gamma and ||b - Z gamma||_inf."""
    import scipy.linalg

    factor = scipy.linalg.cho_factor(z)
    gamma = scipy.linalg.cho_solve(factor, b)
    r = b - z @ gamma
    if np.abs(r).max() > 1e-10:
        gamma = gamma + scipy.linalg.cho_solve(factor, r)
        r = b - z @ gamma
    return gamma, float(np.abs(r).max())


def reference_fits(value, hint) -> bool:
    """Whether a decoded JSON value fits the annotation `hint`, dispatched on
    the hint at every value: a class, a union, `list[...]` or
    `dict[..., ...]`. An integer also fits `float`; a bool fits neither
    `int` nor `float`; a value that fills a `float` must be finite as a
    float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        return any(reference_fits(value, h) for h in args)
    if origin is list:
        return isinstance(value, list) and all(reference_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            reference_fits(k, args[0]) and reference_fits(v, args[1]) for k, v in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    return isinstance(value, numbers.Integral if hint is int else hint)


def reference_as_declared(value, hint):
    """`value`, which fits `hint`, with each number that fills a `float` as
    a float; a union converts it as the first member it fits."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        return reference_as_declared(value, next(h for h in args if reference_fits(value, h)))
    if origin is list:
        return [reference_as_declared(v, args[0]) for v in value]
    if origin is dict:
        return {k: reference_as_declared(v, args[1]) for k, v in value.items()}
    return float(value) if hint is float else value
