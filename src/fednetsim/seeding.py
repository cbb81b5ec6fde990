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


def spawn_rng(*keys: int) -> np.random.Generator:
    """Generator for the stream named by an integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def spawn_seed(*keys: int) -> int:
    """Single integer seed derived from a key tuple (for seed-taking APIs)."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])
