"""Label flipping and boosted model-replacement updates."""

import numpy as np
import pytest

from fednetsim.datasets import ExampleSet, gen_synthetic
from fednetsim.models import ModelSpec, init_model, local_train
from fednetsim.poisoning import (
    ModelReplacementPoisoner,
    PoisonPlan,
    craft_poison_update,
    default_flip_to,
    flip_labels,
)
from fednetsim.protocol import aggregate

from conftest import Update


class TestFlipLabels:
    def make_shard(self, labels):
        labels = np.asarray(labels)
        return ExampleSet(np.arange(len(labels) * 2, dtype=float).reshape(-1, 2), labels)

    def test_no_target_examples_unchanged(self):
        shard = self.make_shard([1, 2, 1, 3])
        flipped = flip_labels(shard, target_class=0, flip_to=1)
        assert np.array_equal(flipped.y, shard.y)
        assert flipped.x is shard.x

    def test_all_target_examples_flip(self):
        shard = self.make_shard([0, 0, 0])
        flipped = flip_labels(shard, 0, 2)
        assert np.array_equal(flipped.y, [2, 2, 2])

    def test_mixed_shard_flips_exactly_targets(self):
        labels = [0, 1, 0, 2, 0, 3, 0, 1, 2, 3]
        shard = self.make_shard(labels)
        flipped = flip_labels(shard, 0, 3)
        changed = (flipped.y != shard.y).sum()
        assert changed == 4
        assert np.array_equal(flipped.y[shard.y != 0], shard.y[shard.y != 0])
        # order preserved
        assert np.array_equal(flipped.x, shard.x)

    def test_flip_to_target_rejected(self):
        with pytest.raises(ValueError):
            flip_labels(self.make_shard([0, 1]), 0, 0)

    def test_default_flip_to_wraps(self):
        assert default_flip_to(0, 10) == 1
        assert default_flip_to(9, 10) == 0


class TestCraftPoisonUpdate:
    def setup_method(self):
        self.spec = ModelSpec(5, (6,), 4)
        self.f = init_model(self.spec, 2)
        src, _ = gen_synthetic(4, 5, 50, 0, 2.0, seed=3)
        self.shard = flip_labels(src, 0, 1)

    def test_unit_boost_equals_honest_training(self):
        poison = craft_poison_update(self.f, self.spec, self.shard, 2, 0.1, 1.0, seed=5)
        honest = local_train(self.f, self.spec, [self.shard], 2, 0.1, None, [5])[0]
        assert np.array_equal(poison, honest)

    def test_zero_epochs_zero_delta(self):
        poison = craft_poison_update(self.f, self.spec, self.shard, 0, 0.1, 50.0, seed=5)
        assert not poison.any()

    def test_boost_scales_exactly(self):
        base = craft_poison_update(self.f, self.spec, self.shard, 2, 0.1, 1.0, seed=5)
        doubled = craft_poison_update(self.f, self.spec, self.shard, 2, 0.1, 2.0, seed=5)
        assert np.array_equal(doubled, 2.0 * base)
        big = craft_poison_update(self.f, self.spec, self.shard, 2, 0.1, 10.0, seed=5)
        assert np.linalg.norm(big) == 10.0 * np.linalg.norm(base)

    def test_clip_saturation(self):
        # once the boosted norm exceeds the clip threshold, all boosts land on
        # the same clipped contribution
        base = craft_poison_update(self.f, self.spec, self.shard, 2, 0.1, 1.0, seed=7)
        assert np.linalg.norm(base) > 1.0 or np.linalg.norm(10 * base) > 1.0
        out10 = aggregate(self.f, [Update(0, 10.0 * base)], 1.0, clip_norm=1.0)
        out1000 = aggregate(self.f, [Update(0, 1000.0 * base)], 1.0, clip_norm=1.0)
        assert np.abs(out10 - out1000).max() < 1e-9

    def test_invalid_boost_rejected(self):
        with pytest.raises(ValueError):
            craft_poison_update(self.f, self.spec, self.shard, 1, 0.1, 0.0, seed=0)


class TestModelReplacementPoisoner:
    def setup_method(self):
        self.poisoner = ModelReplacementPoisoner(PoisonPlan(compromised_ids=(2,), boost=8.0, start_round=5))
        self.delta = np.linspace(-1.0, 1.0, 7)

    def test_honest_clients_untouched(self):
        assert self.poisoner.poison_update(10, 3, self.delta) is None

    def test_delta_passes_unchanged_until_start_round(self):
        assert np.array_equal(self.poisoner.poison_update(5, 2, self.delta), self.delta)

    def test_boost_only_after_start_round(self):
        assert np.array_equal(self.poisoner.poison_update(6, 2, self.delta), 8.0 * self.delta)
