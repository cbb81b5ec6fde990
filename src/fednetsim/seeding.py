"""Derived random streams.

Every random decision in a run is drawn from a generator keyed by the run
seed plus a tuple of integers naming the decision (round, client, purpose
tag). Streams with different keys are statistically independent, and the
same key always reproduces the same stream, which is what makes whole runs
bit-reproducible.
"""

import numpy as np

# Purpose tags; keys (seed, TAG, ...) must never collide across purposes.
TAG_INIT = 101
TAG_SELECT = 102
TAG_TRAIN = 103
TAG_DATA = 201
TAG_PARTITION = 203
TAG_COMPROMISE = 204
TAG_ATTACK = 301
TAG_VISIBLE = 302
TAG_ATTACK_DSTAR = 303
TAG_SERVER_DSTAR = 304

# Tags of the stream a function draws from the seed it is handed, keys
# (seed, TAG). The values are the bare numbers the functions used before
# they were named here, so no draw moves.
TAG_SYNTHETIC_DRAW = 1  # datasets.gen_synthetic: class directions, then points
TAG_PARTITION_DRAW = 2  # datasets.partition: holders, class pools, Dirichlet fills
TAG_INIT_DRAW = 3  # models.init_model: initial weights
TAG_SGD_ORDER = 4  # models.local_train: each client's shuffle, per epoch
TAG_VISIBLE_DRAW = 5  # adversary.sample_visible_set: weights, then the set
TAG_MC_DRAW = 6  # analysis.monte_carlo_rounds: the simulated rounds


def _entropy(keys) -> np.ndarray:
    # The little-endian 32-bit words of each key, [0] for a zero key: the
    # words SeedSequence derives from the int list, without its coercion cost.
    words = []
    for key in keys:
        key = int(key)
        if key < 0:
            raise ValueError(f"stream keys must be >= 0, got {key}")
        words.append(key & 0xFFFFFFFF)
        while key > 0xFFFFFFFF:
            key >>= 32
            words.append(key & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def spawn_rng(*keys: int) -> np.random.Generator:
    """Generator for the stream named by an integer key tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(keys))))


def spawn_seed(*keys: int) -> int:
    """Single integer seed derived from a key tuple (for seed-taking APIs)."""
    return int(np.random.SeedSequence(_entropy(keys)).generate_state(1)[0])
