"""Deterministic RNG substreams derived from a single master seed.

Every random decision in an experiment draws from a generator built as
``substream(master_seed, TAG, *indices)``.  Substreams for distinct key
tuples are statistically independent, so work items (graphs, trials,
sweep points) can run in any order or in parallel and still reproduce
byte-identical results.
"""

from __future__ import annotations

import numpy as np

# Purpose tags keep substreams for different pipeline stages disjoint even
# when the trailing index tuples collide.
GRAPH = 1
THRESHOLDS = 2
SEEDS = 3
ENGINE = 4
INTERVENTION = 5


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator keyed by (master_seed, *key); all parts must be non-negative ints."""
    entropy = [int(master_seed), *(int(part) for part in key)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
