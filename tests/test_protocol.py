"""Participant sampling, aggregation identities, and the round loop."""

import numpy as np
import pytest

from fednetsim.datasets import gen_synthetic, partition
from fednetsim.models import ModelSpec, local_train
from fednetsim.protocol import (
    EvalSets,
    LocalUpdate,
    ProtocolConfig,
    aggregate,
    run_protocol,
    select_participants,
)


class TestSelectParticipants:
    def test_exhaustive_draw(self):
        p = np.full(7, 1 / 7)
        assert select_participants(7, 7, p, seed=1, t=1) == list(range(7))

    def test_point_mass(self):
        p = np.zeros(5)
        p[3] = 1.0
        for t in range(1, 20):
            assert select_participants(5, 1, p, seed=2, t=t) == [3]

    def test_deterministic_per_seed_and_round(self):
        p = np.full(20, 0.05)
        a = select_participants(20, 6, p, seed=3, t=4)
        assert a == select_participants(20, 6, p, seed=3, t=4)
        assert a != select_participants(20, 6, p, seed=3, t=5) or a != select_participants(
            20, 6, p, seed=4, t=4
        )

    def test_uniform_frequencies(self):
        # 10,000 simulated rounds at n=60, m=10: empirical per-client
        # frequency within +/-15% of m/n
        n, m = 60, 10
        p = np.full(n, 1 / n)
        counts = np.zeros(n)
        for t in range(1, 10001):
            for j in select_participants(n, m, p, seed=6, t=t):
                counts[j] += 1
        freq = counts / 10000
        assert np.all(np.abs(freq - m / n) <= 0.15 * m / n)

    def test_too_few_positive_probabilities(self):
        p = np.zeros(6)
        p[0] = 0.5
        p[1] = 0.5
        with pytest.raises(ValueError, match="positive"):
            select_participants(6, 3, p, seed=0, t=1)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            select_participants(4, 2, np.array([0.5, 0.4, 0.0, 0.0]), seed=0, t=1)
        with pytest.raises(ValueError):
            select_participants(4, 2, np.array([0.6, 0.6, -0.2, 0.0]), seed=0, t=1)


class TestAggregate:
    def setup_method(self):
        self.f = np.array([1.0, -2.0, 0.5, 3.0])

    def test_zero_updates_fixpoint(self):
        ups = [LocalUpdate(0, np.zeros(4)), LocalUpdate(1, np.zeros(4))]
        assert np.array_equal(aggregate(self.f, ups, 0.7), self.f)

    def test_empty_list_returns_previous(self):
        out = aggregate(self.f, [], 0.5)
        assert np.array_equal(out, self.f)
        out_fixed = aggregate(self.f, [], 0.5, denominator_mode="fixed_m", m=10)
        assert np.array_equal(out_fixed, self.f)

    def test_single_update_identity(self):
        u = np.array([0.1, 0.2, -0.3, 0.4])
        out = aggregate(self.f, [LocalUpdate(5, u)], 1.0)
        assert np.array_equal(out, self.f + u)

    def test_clip_halves_norm_two_delta(self):
        delta = np.zeros(4)
        delta[0] = 2.0  # l2 norm exactly 2
        out = aggregate(self.f, [LocalUpdate(0, delta)], 1.0, clip_norm=1.0)
        assert np.array_equal(out, self.f + delta / 2)

    def test_clip_leaves_small_updates_alone(self):
        delta = np.array([0.1, 0.0, 0.0, 0.0])
        out = aggregate(self.f, [LocalUpdate(0, delta)], 1.0, clip_norm=1.0)
        assert np.array_equal(out, self.f + delta)

    def test_denominator_modes(self):
        u = np.ones(4)
        received = aggregate(self.f, [LocalUpdate(0, u)], 1.0, denominator_mode="received_count")
        fixed = aggregate(self.f, [LocalUpdate(0, u)], 1.0, denominator_mode="fixed_m", m=4)
        assert np.array_equal(received, self.f + u)
        assert np.array_equal(fixed, self.f + u / 4)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(0)
        ups = [LocalUpdate(j, rng.standard_normal(4)) for j in range(6)]
        a = aggregate(self.f, ups, 0.3, clip_norm=0.8)
        b = aggregate(self.f, list(reversed(ups)), 0.3, clip_norm=0.8)
        assert np.array_equal(a, b)

    def test_clipped_step_bounded(self):
        rng = np.random.default_rng(1)
        lr, clip = 0.25, 1.0
        ups = [LocalUpdate(j, 5 * rng.standard_normal(4)) for j in range(5)]
        out = aggregate(self.f, ups, lr, clip_norm=clip)
        assert np.linalg.norm(out - self.f) <= lr * clip + 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            aggregate(self.f, [LocalUpdate(0, np.zeros(3))], 1.0)

    def test_nonfinite_update_rejected(self):
        bad = np.zeros(4)
        bad[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(self.f, [LocalUpdate(0, bad)], 1.0)
        bad[2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(self.f, [LocalUpdate(0, bad)], 1.0)

    def test_fixed_m_requires_m(self):
        with pytest.raises(ValueError, match="fixed_m"):
            aggregate(self.f, [LocalUpdate(0, np.zeros(4))], 1.0, denominator_mode="fixed_m")


def small_world(seed=1, n=8, k=2, classes=4, rounds=12):
    src = gen_synthetic(classes, 5, 400, 2.5, seed=seed)
    plan = partition(src, n, k, 0, 0.5, 1.0, 30, seed=seed + 1)
    shards = [src.subset(idx) for idx in plan.shards]
    holdout = gen_synthetic(classes, 5, 60, 2.5, seed=seed)  # same seed: same geometry
    eval_sets = EvalSets(holdout.class_examples(0), holdout.all_examples(), 0)
    spec = ModelSpec(5, (6,), classes)
    cfg = ProtocolConfig(n=n, m=4, rounds=rounds, server_lr=0.5, local_epochs=1, local_lr=0.1)
    return cfg, shards, spec, eval_sets, plan


def run_with_models(*args, **kwargs):
    """``run_protocol`` records plus each round's (global_before, global_after)."""
    models = []
    observers = [lambda trace: models.append((trace.global_before, trace.global_after))]
    records = run_protocol(*args, observers=observers, **kwargs)
    return records, models


class TestRunProtocol:
    def test_identical_shards_equal_centralized_step(self):
        # one round, all clients hold the same data: FedAvg step equals one
        # centralized full-batch step (shuffle order only permutes the
        # floating-point sums, so agreement is to rounding error)
        src = gen_synthetic(3, 4, 60, 2.0, seed=2)
        shard = src.all_examples()
        spec = ModelSpec(4, (), 3)
        n = 5
        cfg = ProtocolConfig(n=n, m=n, rounds=1, server_lr=1.0, local_epochs=1, local_lr=0.1)
        eval_sets = EvalSets(src.class_examples(0), shard, 0)
        _, models = run_with_models(cfg, [shard] * n, spec, eval_sets, seed=3)
        f0, f1 = models[0]
        centralized = f0 + local_train(f0, spec, shard, 1, 0.1, None, 12345)
        assert np.allclose(f1, centralized, atol=1e-12)

    def test_drop_everything_fixpoint(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        records, models = run_with_models(cfg, shards, spec, eval_sets, seed=5, filter_hook=lambda ups, t: [])
        assert np.array_equal(models[-1][1], models[0][0])
        assert all(len(r.received) == 0 for r in records)

    def test_bit_identical_reruns(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        a, models_a = run_with_models(cfg, shards, spec, eval_sets, seed=8)
        b, models_b = run_with_models(cfg, shards, spec, eval_sets, seed=8)
        for (_, fa), (_, fb) in zip(models_a, models_b):
            assert np.array_equal(fa, fb)
        for ra, rb in zip(a, b):
            assert ra.target_loss == rb.target_loss
            assert ra.participants == rb.participants

    def test_received_subset_of_participants(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        drop_id = 3

        def drop_three(ups, t):
            return [u for u in ups if u.client_id != drop_id]

        records = run_protocol(cfg, shards, spec, eval_sets, seed=9, filter_hook=drop_three)
        for r in records:
            assert set(r.received) <= set(r.participants)
            assert drop_id not in r.received

    def test_resample_hook_changes_selection(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        p = np.zeros(cfg.n)
        p[:4] = 0.25
        records = run_protocol(cfg, shards, spec, eval_sets, seed=10, resample_hook=lambda t, n: p)
        for r in records:
            assert set(r.participants) == {0, 1, 2, 3}

    def test_poison_hook_replaces_update(self):
        # zero out client 1's update and keep only it: rounds where client 1
        # arrives leave the model unchanged
        cfg, shards, spec, eval_sets, _ = small_world(rounds=6)

        def poison(t, j, f, seed):
            return np.zeros(spec.param_count()) if j == 1 else None

        def keep_only_one(ups, t):
            return [u for u in ups if u.client_id == 1]

        records, models = run_with_models(
            cfg, shards, spec, eval_sets, seed=11, poison_hook=poison, filter_hook=keep_only_one
        )
        arrived = [i for i, r in enumerate(records) if 1 in r.received]
        assert arrived
        for i in arrived:
            assert np.array_equal(models[i][1], models[i][0])

    def test_fixed_m_denominator_shrinks_partial_rounds(self):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=1)
        keep_first = lambda ups, t: ups[:1]
        _, (received_models,) = run_with_models(cfg, shards, spec, eval_sets, seed=12, filter_hook=keep_first)
        cfg_fixed = ProtocolConfig(
            n=cfg.n, m=cfg.m, rounds=1, server_lr=cfg.server_lr,
            local_epochs=cfg.local_epochs, local_lr=cfg.local_lr,
            denominator_mode="fixed_m",
        )
        _, (fixed_models,) = run_with_models(cfg_fixed, shards, spec, eval_sets, seed=12, filter_hook=keep_first)
        step_received = received_models[1] - received_models[0]
        step_fixed = fixed_models[1] - fixed_models[0]
        assert np.allclose(step_fixed * cfg.m, step_received, atol=1e-12)

    def test_wrong_shard_count_rejected(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        with pytest.raises(ValueError, match="shards"):
            run_protocol(cfg, shards[:-1], spec, eval_sets, seed=1)
