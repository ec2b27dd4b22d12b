"""Seeded, splittable random streams.

All sampling in this package goes through numpy `Generator` objects backed by
PCG64. `substream(seed, *key)` derives an independent stream from a run's seed
and an integer key path (e.g. a trial index), so Monte Carlo trials can be
distributed across workers and aggregated in any order while staying
bit-reproducible.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20240917


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from (seed, key path).

    Streams with distinct key paths are statistically independent; the same
    (seed, key) always yields the same stream.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))
