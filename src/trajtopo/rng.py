"""Deterministic random-stream derivation.

All stochastic operations in the toolkit draw from PCG64 generators whose
seed material is derived from a user seed plus a string purpose tag. Tags
are hashed with SHA-256, so streams for different purposes never alias and
the mapping is identical on every platform and Python version.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidInputError


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64), the seeds that name distinct streams."""
    if not 0 <= int(seed) < 1 << 64:
        raise InvalidInputError(f"seed {seed} must lie in [0, 2**64)")


def _tag_entropy(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, *tags: str) -> np.random.Generator:
    """Return the PCG64 generator for (seed, tags).

    The same (seed, tags) pair always yields an identical stream; distinct
    seeds or tags yield statistically independent streams.
    """
    check_seed(seed)
    entropy = [int(seed)] + [_tag_entropy(t) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
