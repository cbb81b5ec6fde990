"""Derived random streams: the key tuple names the stream exactly as numpy would."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fednetsim.seeding as seeding
from fednetsim.seeding import spawn_rng, spawn_seed

KEYS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]),
    st.integers(0, 2**130),
)


@given(st.lists(KEYS, min_size=1, max_size=6))
def test_streams_equal_seed_sequence_of_key_list(keys):
    reference = np.random.SeedSequence(list(keys))
    assert spawn_rng(*keys).bit_generator.state == np.random.default_rng(reference).bit_generator.state
    assert spawn_seed(*keys) == int(reference.generate_state(1)[0])


def test_integer_like_keys():
    assert spawn_seed(np.int64(7), True, 3) == spawn_seed(7, 1, 3)


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        spawn_rng(1, -1)
    with pytest.raises(ValueError):
        spawn_seed(-2)


def test_every_tag_is_distinct_and_used():
    tags = {name: value for name, value in vars(seeding).items() if name.startswith("TAG_")}
    assert len(set(tags.values())) == len(tags)
    package = pathlib.Path(seeding.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "seeding.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
            used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(set(tags) - used) == []
