"""Seeded random-stream hierarchy.

Every source of randomness in the engine draws from a named substream of one
base seed, so a run is reproducible bit-for-bit from (seed, config, dataset)
alone and streams never alias across purposes.
"""

from __future__ import annotations

import zlib

import numpy as np

SEED_LIMIT = 2**32  # seeds lie in [0, SEED_LIMIT): substream keeps 32 bits, so others alias


def check_seed(seed, name: str = "seed", error=ValueError) -> None:
    """Raise error, naming the seed name, unless seed is an integer in [0, SEED_LIMIT)."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < SEED_LIMIT):
        raise error(f"{name} must be an integer in [0, 2**32), got {seed!r}")


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def substream(seed: int, *tags) -> np.random.Generator:
    """Generator for the stream identified by (seed, *tags).

    seed lies in [0, SEED_LIMIT) (check_seed). Tags may be strings or
    integers; the mapping is stable across runs and platforms.
    """
    check_seed(seed)
    entropy = [int(seed)] + [_tag_to_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))
