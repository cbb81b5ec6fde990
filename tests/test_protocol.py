"""Participant sampling, aggregation identities, and the round loop."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fednetsim.models as models
import fednetsim.protocol as protocol
from fednetsim.adversary import FixedSetDropper, LedgerObserver, TargetedDropAttacker
from fednetsim.config import AttackConfig, DefenseConfig, ProtocolConfig
from fednetsim.datasets import ExampleSet, gen_synthetic, partition
from fednetsim.defense import UpsamplingDefender
from fednetsim.models import ModelSpec, forward_eval, init_model, local_train
from fednetsim.poisoning import ModelReplacementPoisoner, PoisonPlan
from fednetsim.protocol import (
    EvalSets,
    aggregate,
    run_protocol,
    select_participants,
    weighted_sample_without_replacement,
)
from fednetsim.seeding import TAG_INIT, TAG_TRAIN, spawn_seed

from conftest import Update, round_trace


def choice_loop_sample(rng, weights, size):
    """Reference: one ``rng.choice`` per draw, renormalizing after each."""
    remaining = np.asarray(weights, dtype=np.float64).copy()
    chosen = []
    for _ in range(size):
        idx = int(rng.choice(len(remaining), p=remaining / remaining.sum()))
        chosen.append(idx)
        remaining[idx] = 0.0
    return chosen


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

    @settings(deadline=None)
    @given(
        st.data(),
        st.integers(1, 30),
        st.integers(0, 2**31),
        st.integers(1, 500),
    )
    def test_distinct_sorted_and_deterministic(self, data, n, seed, t):
        m = data.draw(st.integers(1, n))
        weights = np.array(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), float)
        p = weights / weights.sum()
        ids = select_participants(n, m, p, seed=seed, t=t)
        assert len(ids) == m
        assert ids == sorted(set(ids))
        assert all(0 <= j < n for j in ids)
        assert select_participants(n, m, p, seed=seed, t=t) == ids

    @settings(deadline=None)
    @given(
        st.data(),
        st.integers(1, 80),
        st.integers(0, 2**63),
        st.sampled_from(["uniform", "dirichlet", "sparse"]),
    )
    def test_sample_equals_choice_loop(self, data, n, seed, kind):
        shape = np.random.default_rng(seed)
        if kind == "uniform":
            weights = np.full(n, 1 / n)
        elif kind == "dirichlet":
            weights = shape.dirichlet(np.full(n, data.draw(st.sampled_from([0.1, 1.0, 10.0]))))
        else:
            weights = shape.random(n) * (shape.random(n) < 0.5)
            weights[shape.integers(n)] = 1.0
        size = data.draw(st.integers(0, int(np.count_nonzero(weights > 0))))
        got = weighted_sample_without_replacement(np.random.default_rng([seed, 1]), weights, size)
        assert got == choice_loop_sample(np.random.default_rng([seed, 1]), weights, size)

    def test_sample_rejects_bad_weights(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="positive weight"):
            weighted_sample_without_replacement(rng, np.array([1.0, 0.0, 0.0]), 2)
        for bad in ([1.0, -0.5, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                weighted_sample_without_replacement(rng, np.array(bad), 1)

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
        ups = [Update(0, np.zeros(4)), Update(1, np.zeros(4))]
        assert np.array_equal(aggregate(self.f, ups, 0.7), self.f)

    def test_empty_list_returns_previous(self):
        out = aggregate(self.f, [], 0.5)
        assert np.array_equal(out, self.f)
        out_fixed = aggregate(self.f, [], 0.5, denominator=10)
        assert np.array_equal(out_fixed, self.f)

    def test_single_update_identity(self):
        u = np.array([0.1, 0.2, -0.3, 0.4])
        out = aggregate(self.f, [Update(5, u)], 1.0)
        assert np.array_equal(out, self.f + u)

    def test_clip_halves_norm_two_delta(self):
        delta = np.zeros(4)
        delta[0] = 2.0  # l2 norm exactly 2
        out = aggregate(self.f, [Update(0, delta)], 1.0, clip_norm=1.0)
        assert np.array_equal(out, self.f + delta / 2)

    def test_clip_leaves_small_updates_alone(self):
        delta = np.array([0.1, 0.0, 0.0, 0.0])
        out = aggregate(self.f, [Update(0, delta)], 1.0, clip_norm=1.0)
        assert np.array_equal(out, self.f + delta)

    def test_denominator_modes(self):
        u = np.ones(4)
        received = aggregate(self.f, [Update(0, u)], 1.0, denominator=None)
        fixed = aggregate(self.f, [Update(0, u)], 1.0, denominator=4)
        assert np.array_equal(received, self.f + u)
        assert np.array_equal(fixed, self.f + u / 4)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(0)
        ups = [Update(j, rng.standard_normal(4)) for j in range(6)]
        a = aggregate(self.f, ups, 0.3, clip_norm=0.8)
        b = aggregate(self.f, list(reversed(ups)), 0.3, clip_norm=0.8)
        assert np.array_equal(a, b)

    def test_clipped_step_bounded(self):
        rng = np.random.default_rng(1)
        lr, clip = 0.25, 1.0
        ups = [Update(j, 5 * rng.standard_normal(4)) for j in range(5)]
        out = aggregate(self.f, ups, lr, clip_norm=clip)
        assert np.linalg.norm(out - self.f) <= lr * clip + 1e-12

    @settings(deadline=None)
    @given(
        st.data(),
        st.integers(1, 8),
        st.one_of(st.none(), st.floats(1e-3, 10.0)),
    )
    def test_order_invariance_and_clip_bound(self, data, count, clip):
        finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
        deltas = [np.array(data.draw(st.lists(finite, min_size=4, max_size=4))) for _ in range(count)]
        ups = [Update(j, d) for j, d in enumerate(deltas)]
        shuffled = data.draw(st.permutations(ups))
        denominator = data.draw(st.sampled_from([None, count + 2]))
        a = aggregate(self.f, ups, 0.3, clip, denominator)
        assert np.array_equal(a, aggregate(self.f, shuffled, 0.3, clip, denominator))
        if clip is not None:
            # each clipped delta alone: lr 1, denominator 1
            for u in ups:
                clipped = aggregate(np.zeros(4), [u], 1.0, clip)
                assert np.linalg.norm(clipped) <= clip * (1 + 1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            aggregate(self.f, [Update(0, np.zeros(3))], 1.0)

    def test_nonfinite_update_rejected(self):
        bad = np.zeros(4)
        bad[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(self.f, [Update(0, bad)], 1.0)
        bad[2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(self.f, [Update(0, bad)], 1.0)

    def test_overflowing_aggregate_rejected(self):
        # finite updates whose step overflows float64
        big = [Update(j, np.full(4, 1e300)) for j in range(2)]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="aggregated model contains non-finite"):
            aggregate(self.f, big, 1e10)

    def test_each_delta_is_read_once(self):
        reads = []

        class CountedUpdate:
            def __init__(self, client_id, delta):
                self.client_id, self._delta = client_id, delta

            @property
            def delta(self):
                reads.append(self.client_id)
                return self._delta

        ups = [CountedUpdate(j, np.full(4, j + 1.0)) for j in range(3)]
        aggregate(self.f, ups, 1.0, clip_norm=1.5)
        assert sorted(reads) == [0, 1, 2]


def small_world(seed=1, n=8, k=2, classes=4, rounds=12):
    src, _ = gen_synthetic(classes, 5, 400, 0, 2.5, seed=seed)
    plan = partition(src.y, classes, n, k, 0, 0.5, 1.0, 30, seed=seed + 1)
    shards = [src.subset(idx) for idx in plan.shards]
    holdout, _ = gen_synthetic(classes, 5, 60, 0, 2.5, seed=seed)  # same seed: same geometry
    eval_sets = EvalSets(holdout, 0)
    spec = ModelSpec(5, (6,), classes)
    cfg = ProtocolConfig(m=4, rounds=rounds, server_lr=0.5, local_epochs=1, local_lr=0.1, batch_size=None)
    return cfg, shards, spec, eval_sets, plan


def run_traces(*args, observers=(), **kwargs):
    """Each round's ``RoundTrace`` of a ``run_protocol`` run, after the ``observers`` saw it."""
    traces = []
    run_protocol(*args, observers=[*observers, traces.append], **kwargs)
    return traces


class TestRunProtocol:
    def test_identical_shards_equal_centralized_step(self):
        # one round, all clients hold the same data: FedAvg step equals one
        # centralized full-batch step (shuffle order only permutes the
        # floating-point sums, so agreement is to rounding error)
        shard, _ = gen_synthetic(3, 4, 60, 0, 2.0, seed=2)
        spec = ModelSpec(4, (), 3)
        n = 5
        cfg = ProtocolConfig(m=n, rounds=1, server_lr=1.0, local_epochs=1, local_lr=0.1, batch_size=None)
        eval_sets = EvalSets(shard, 0)
        (trace,) = run_traces(cfg, [shard] * n, spec, eval_sets, seed=3)
        f0 = trace.global_before
        centralized = f0 + local_train(f0, spec, [shard], 1, 0.1, None, [12345])[0]
        assert np.allclose(trace.global_after, centralized, atol=1e-12)

    def test_drop_everything_fixpoint(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        traces = run_traces(cfg, shards, spec, eval_sets, seed=5, filter_hook=lambda ups, t: [])
        assert np.array_equal(traces[-1].global_after, traces[0].global_before)
        assert all(len(tr.received) == 0 for tr in traces)

    def test_bit_identical_reruns(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        a = run_traces(cfg, shards, spec, eval_sets, seed=8)
        b = run_traces(cfg, shards, spec, eval_sets, seed=8)
        assert len(a) == len(b) == cfg.rounds
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.global_after, tb.global_after)
            assert ta.target_loss == tb.target_loss
            assert ta.participants == tb.participants

    def test_received_subset_of_participants(self):
        # a filter that drops and reorders: the trace's ids are still sorted
        cfg, shards, spec, eval_sets, _ = small_world()
        drop_id = 3

        def drop_three_reversed(ups, t):
            return [u for u in reversed(ups) if u.client_id != drop_id]

        for tr in run_traces(cfg, shards, spec, eval_sets, seed=9, filter_hook=drop_three_reversed):
            assert set(tr.received) <= set(tr.participants)
            assert drop_id not in tr.received
            assert list(tr.received) == sorted(tr.received)

    def test_resample_hook_changes_selection(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        p = np.zeros(len(shards))
        p[:4] = 0.25
        for tr in run_traces(cfg, shards, spec, eval_sets, seed=10, resample_hook=lambda t, n: p):
            assert set(tr.participants) == {0, 1, 2, 3}

    def test_poison_hook_replaces_update(self):
        # the hook sees client 1's trained delta and zeroes it; keeping only
        # client 1, rounds where it arrives leave the model unchanged
        cfg, shards, spec, eval_sets, _ = small_world(rounds=6)
        seen = {}

        def poison(t, j, delta):
            seen[t, j] = delta
            return np.zeros_like(delta) if j == 1 else None

        def keep_only_one(ups, t):
            return [u for u in ups if u.client_id == 1]

        traces = run_traces(cfg, shards, spec, eval_sets, seed=11, poison_hook=poison, filter_hook=keep_only_one)
        arrived = [tr for tr in traces if 1 in tr.received]
        assert arrived
        for tr in arrived:
            f, t = tr.global_before, tr.t
            assert np.array_equal(tr.global_after, f)
            assert np.array_equal(seen[t, 1], eager_delta(cfg, shards, spec, 11, None, f, t, 1))

    def test_fixed_m_denominator_shrinks_partial_rounds(self):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=1)
        keep_first = lambda ups, t: ups[:1]
        (count,) = run_traces(cfg, shards, spec, eval_sets, seed=12, filter_hook=keep_first)
        cfg_fixed = ProtocolConfig(
            m=cfg.m, rounds=1, server_lr=cfg.server_lr,
            local_epochs=cfg.local_epochs, local_lr=cfg.local_lr, batch_size=None,
            denominator_mode="fixed_m",
        )
        (fixed,) = run_traces(cfg_fixed, shards, spec, eval_sets, seed=12, filter_hook=keep_first)
        step_received = count.global_after - count.global_before
        step_fixed = fixed.global_after - fixed.global_before
        assert np.allclose(step_fixed * cfg.m, step_received, atol=1e-12)

    def test_overall_acc_is_accuracy_on_the_whole_test_set(self):
        cfg, shards, spec, eval_sets, _ = small_world()
        for tr in run_traces(cfg, shards, spec, eval_sets, seed=4):
            after = tr.global_after
            assert tr.overall_acc == forward_eval(after, spec, eval_sets.test_set).accuracy
            assert tr.target_acc == forward_eval(after, spec, eval_sets.target_set).accuracy
            assert tr.nontarget_acc == forward_eval(after, spec, eval_sets.nontarget_set).accuracy

    def test_eval_sets_split_the_test_set_by_target_class(self):
        _, _, _, eval_sets, _ = small_world()
        test = eval_sets.test_set
        assert np.array_equal(eval_sets.target_set.x, test.x[test.y == 0])
        assert np.array_equal(eval_sets.nontarget_set.y, test.y[test.y != 0])
        only_target = EvalSets(eval_sets.target_set, 0)
        assert only_target.nontarget_set is None

    @pytest.mark.parametrize("target, views", [(0, True), (3, True), (1, False), (2, False)])
    def test_eval_sets_are_views_of_one_block_and_copies_otherwise(self, target, views):
        # a synthetic test set is stored class by class, so the first and the
        # last class leave both sets one block each, and a middle class splits
        # the non-target rows in two
        test, _ = gen_synthetic(4, 5, 60, 0, 2.5, seed=3)
        eval_sets = EvalSets(test, target)
        is_target = test.y == target
        for part, mask in ((eval_sets.target_set, is_target), (eval_sets.nontarget_set, ~is_target)):
            assert np.array_equal(part.x, test.x[mask]) and np.array_equal(part.y, test.y[mask])
            assert part.x.strides == test.x.strides
        assert np.shares_memory(eval_sets.target_set.x, test.x)
        assert np.shares_memory(eval_sets.target_set.y, test.y)
        assert np.shares_memory(eval_sets.nontarget_set.x, test.x) == views
        assert np.shares_memory(eval_sets.nontarget_set.y, test.y) == views

    def test_scattered_target_rows_are_copied(self):
        test = ExampleSet(np.arange(10.0).reshape(5, 2), np.array([0, 1, 0, 1, 1]))
        eval_sets = EvalSets(test, 0)
        assert np.array_equal(eval_sets.target_set.x, test.x[[0, 2]])
        assert np.array_equal(eval_sets.nontarget_set.y, [1, 1, 1])
        assert not np.shares_memory(eval_sets.target_set.x, test.x)
        assert not np.shares_memory(eval_sets.nontarget_set.x, test.x)

    def test_eval_sets_without_target_rows_rejected(self):
        test = ExampleSet(np.zeros((3, 5)), np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="target class 0"):
            EvalSets(test, 0)


def count_training(monkeypatch):
    """The train seed of every client the protocol trains.

    Fails any training made inside ``aggregate``.
    """
    calls = []
    inside = []

    def counted(*args):
        assert not inside, "an update was trained inside aggregate"
        calls.extend(args[6])
        return local_train(*args)

    def aggregating(*args, **kwargs):
        inside.append(True)
        try:
            return aggregate(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(protocol, "local_train", counted)
    monkeypatch.setattr(protocol, "aggregate", aggregating)
    return calls


def eager_delta(cfg, shards, spec, seed, poison_hook, f, t, j):
    """Client j's round-t delta: local SGD from f, then the poison hook's replacement, if any."""
    train_seed = spawn_seed(seed, TAG_TRAIN, t, j)
    delta = local_train(f, spec, [shards[j]], cfg.local_epochs, cfg.local_lr, cfg.batch_size, [train_seed])[0]
    poisoned = poison_hook(t, j, delta) if poison_hook is not None else None
    return delta if poisoned is None else poisoned


# what a round reports besides its models
ROUND_VALUES = ("t", "participants", "received", "target_loss", "target_acc", "overall_acc", "nontarget_acc")


def round_values(trace):
    return tuple(getattr(trace, name) for name in ROUND_VALUES)


def eager_reference(cfg, shards, spec, eval_sets, seed, filter_hook, poison_hook=None):
    """Reference round loop: train every participant, then filter, aggregate, evaluate.

    Returns each round's ``ROUND_VALUES`` and its new global model.
    """
    f = init_model(spec, spawn_seed(seed, TAG_INIT))
    n = len(shards)
    uniform = np.full(n, 1.0 / n)
    rounds, afters = [], []
    for t in range(1, cfg.rounds + 1):
        participants = select_participants(n, cfg.m, uniform, seed, t)
        updates = []
        for j in participants:
            updates.append(Update(j, eager_delta(cfg, shards, spec, seed, poison_hook, f, t, j)))
        received = filter_hook(updates, t)
        denominator = cfg.m if cfg.denominator_mode == "fixed_m" else None
        f_next = aggregate(f, received, cfg.server_lr, cfg.clip_norm, denominator)
        target = forward_eval(f_next, spec, eval_sets.target_set)
        nontarget = forward_eval(f_next, spec, eval_sets.nontarget_set)
        rounds.append(
            (
                t,
                tuple(participants),
                tuple(sorted(u.client_id for u in received)),
                target.mean_loss,
                target.accuracy,
                (target.correct + nontarget.correct) / len(eval_sets.test_set),
                nontarget.accuracy,
            )
        )
        afters.append(f_next)
        f = f_next
    return rounds, afters


class TestLazyRound:
    """An update is trained only when it is aggregated or observed."""

    def run_attacked(self, attacker, seed=21):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=12)
        return run_traces(
            cfg, shards, spec, eval_sets, seed,
            filter_hook=attacker.filter_updates,
            observers=[attacker.observe] if isinstance(attacker, LedgerObserver) else [],
        )

    def targeted(self, kind):
        _, _, spec, eval_sets, _ = small_world()
        return TargetedDropAttacker(AttackConfig(mode=kind, t_n=3, k_n=2), spec, eval_sets.target_set)

    @pytest.mark.parametrize("make", ["encrypted", "fixed_set"])
    def test_blind_droppers_train_only_received_updates(self, make, monkeypatch):
        calls = count_training(monkeypatch)
        attacker = self.targeted("encrypted") if make == "encrypted" else FixedSetDropper([0, 1, 5])
        traces = self.run_attacked(attacker)
        received = sum(len(tr.received) for tr in traces)
        assert received < sum(len(tr.participants) for tr in traces), "nothing was dropped"
        assert len(calls) == received

    def test_plain_attacker_trains_every_participant(self, monkeypatch):
        calls = count_training(monkeypatch)
        traces = self.run_attacked(self.targeted("plain"))
        assert sum(len(tr.received) for tr in traces) < sum(len(tr.participants) for tr in traces)
        assert len(calls) == sum(len(tr.participants) for tr in traces)
        assert len(set(calls)) == len(calls)

    def test_round_training_runs_as_stacks(self, monkeypatch):
        # the received updates train as one stack; the plain attacker reads
        # every sent model, so a round's dropped ones train as one more
        stacks = []

        def stack(*args):
            stacks.append(args[6])
            return local_train(*args)

        monkeypatch.setattr(protocol, "local_train", stack)
        traces = self.run_attacked(self.targeted("plain"))
        dropped_rounds = sum(len(tr.received) < len(tr.participants) for tr in traces)
        assert dropped_rounds > 0
        assert all(tr.received for tr in traces)
        assert len(stacks) == len(traces) + dropped_rounds
        seeds = [seed for stack in stacks for seed in stack]
        assert len(seeds) == len(set(seeds)) == sum(len(tr.participants) for tr in traces)

    def test_ragged_shards_are_refused_before_training(self, monkeypatch):
        calls = count_training(monkeypatch)
        cfg, shards, spec, eval_sets, _ = small_world()
        shards = [shard.subset(np.arange(len(shard) - j % 3)) for j, shard in enumerate(shards)]
        with pytest.raises(ValueError, match="one length"):
            run_protocol(cfg, shards, spec, eval_sets, 31)
        assert not calls

    def test_delta_read_twice_trains_once(self, monkeypatch):
        # a LocalUpdate reads the round's store: building one trains nothing,
        # the first read trains its client and the second finds it stored
        calls = count_training(monkeypatch)
        cfg, shards, spec, eval_sets, _ = small_world(rounds=1)
        reads, traces = [], []

        def read_twice(ups, t):
            assert not calls
            reads.append((ups[0].client_id, ups[0].delta, ups[0].delta))
            return []

        run_protocol(cfg, shards, spec, eval_sets, 3, filter_hook=read_twice, observers=[traces.append])
        (j, first, second), = reads
        assert second is first
        assert len(calls) == 1
        f = traces[0].global_before
        assert np.array_equal(first, eager_delta(cfg, shards, spec, 3, None, f, 1, j))

    def test_local_model_read_twice_trains_once(self, monkeypatch):
        calls = count_training(monkeypatch)
        cfg, shards, spec, eval_sets, _ = small_world(rounds=1)
        reads = []

        def observe(trace):
            j = trace.participants[0]
            reads.append((*trace.local_models([j]), *trace.local_models([j])))

        run_protocol(cfg, shards, spec, eval_sets, 3, filter_hook=lambda ups, t: [], observers=[observe])
        (a, b), = reads
        assert np.array_equal(a, b)
        assert len(calls) == 1

    def test_reading_ids_trains_nothing(self, monkeypatch):
        calls = count_training(monkeypatch)
        cfg, shards, spec, eval_sets, _ = small_world(rounds=3)
        seen = []

        def observe(trace):
            seen.append(len(trace.participants) - len(trace.received))

        traces = run_traces(cfg, shards, spec, eval_sets, 6, filter_hook=lambda ups, t: ups[:2], observers=[observe])
        assert seen == [cfg.m - 2] * cfg.rounds
        assert len(calls) == sum(len(tr.received) for tr in traces)

    def test_each_client_trains_once_whichever_read_comes_first(self, monkeypatch):
        calls = count_training(monkeypatch)
        cfg, shards, spec, eval_sets, _ = small_world(rounds=4)

        def drop_two_read_one(ups, t):
            ups[0].delta  # a lone read of a dropped update
            return ups[2:]

        reads = []

        def observe(trace):
            ids = list(trace.participants)
            reads.append((trace, ids, trace.local_models(ids)))

        run_protocol(cfg, shards, spec, eval_sets, 8, filter_hook=drop_two_read_one, observers=[observe])
        assert len(calls) == len(set(calls)) == cfg.m * cfg.rounds
        for trace, ids, local in reads:
            for j, model in zip(ids, local):
                f = trace.global_before
                assert np.array_equal(model, f + eager_delta(cfg, shards, spec, 8, None, f, trace.t, j))

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 2**32),
        st.lists(st.frozensets(st.integers(0, 7)), min_size=6, max_size=6),
        st.frozensets(st.integers(0, 7)),
        st.sampled_from([None, "toy", "model_replacement"]),
        st.frozensets(st.integers(0, 7)),
    )
    def test_records_equal_the_eager_loop(self, seed, drops, poisoned, poison, read):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=6)

        def drop(ups, t):
            return [u for u in ups if u.client_id not in drops[t - 1]]

        def toy_hook(t, j, delta):
            return np.full_like(delta, 0.01 * (j + t)) - 0.1 * delta if j in poisoned else None

        hooks = {
            None: None,
            "toy": toy_hook,
            "model_replacement": ModelReplacementPoisoner(
                PoisonPlan(tuple(sorted(poisoned)), boost=3.0, start_round=2)
            ).poison_update,
        }
        hook = hooks[poison]
        traces = run_traces(cfg, shards, spec, eval_sets, seed, filter_hook=drop, poison_hook=hook)
        ref_rounds, ref_afters = eager_reference(cfg, shards, spec, eval_sets, seed, drop, hook)
        assert [round_values(trace) for trace in traces] == ref_rounds
        assert len(traces) == len(ref_afters)
        for trace, want in zip(traces, ref_afters):
            assert np.array_equal(trace.global_after, want)
        # dropped models read after the run still start from their round's global model
        for trace in traces:
            for j in sorted(set(trace.participants) - set(trace.received)):
                if j not in read:
                    continue
                f = trace.global_before
                delta = eager_delta(cfg, shards, spec, seed, hook, f, trace.t, j)
                assert np.array_equal(*trace.local_models([j]), f + delta)


class TestRoundLifetime:
    def test_a_rounds_trace_is_freed_before_the_next_round_trains(self, monkeypatch):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=4)
        traces = []
        rounds_before = []

        def stack(*args):
            assert all(ref() is None for ref in traces), "an earlier round's trace is still reachable"
            rounds_before.append(len(traces))
            return local_train(*args)

        monkeypatch.setattr(protocol, "local_train", stack)
        run_protocol(cfg, shards, spec, eval_sets, 5, observers=[lambda trace: traces.append(weakref.ref(trace))])
        assert sorted(set(rounds_before)) == list(range(cfg.rounds))


def count_forward_passes(monkeypatch):
    """From now on, record the row count of every forward pass; returns the list."""
    passes = []
    real = models._forward

    def counted(layers, activation, x):
        passes.append(len(x))
        return real(layers, activation, x)

    monkeypatch.setattr(models, "_forward", counted)
    return passes


class TestEvaluateOnlyWhatIsRead:
    """A round evaluates only what its trace carries or an observer reads."""

    def test_losses_are_computed_on_the_target_pass_only(self, monkeypatch):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=5)
        rows = []
        real = models._per_example_losses

        def counted(logits, y):
            rows.append(len(y))
            return real(logits, y)

        monkeypatch.setattr(models, "_per_example_losses", counted)
        traces = run_traces(cfg, shards, spec, eval_sets, 3)
        assert len(eval_sets.target_set) != len(eval_sets.nontarget_set)
        assert rows == [len(eval_sets.target_set)] * cfg.rounds
        assert all(tr.target_loss > 0 for tr in traces)

    def test_plain_record_round_makes_one_forward_pass(self, monkeypatch):
        _, _, spec, eval_sets, _ = small_world()
        target_set = eval_sets.target_set
        rng = np.random.default_rng(0)
        before = init_model(spec, 1)
        local = {j: before + 0.1 * rng.standard_normal(before.shape) for j in (1, 3, 4, 6, 7)}
        trace = round_trace(1, (1, 3, 4, 6), before, before, local)
        loss_before = forward_eval(before, spec, target_set).mean_loss
        expected = {j: loss_before - forward_eval(local[j], spec, target_set).mean_loss for j in (1, 3, 4, 6)}
        observer = LedgerObserver("sent", spec, target_set, 1, 5)
        passes = count_forward_passes(monkeypatch)
        observer.observe(trace)
        ledger = observer.ledger
        assert passes == [len(target_set)]
        assert ledger.sums == expected
        assert ledger.counts == {j: 1 for j in expected}

    @pytest.mark.parametrize("observer", ["encrypted", "encrypted_limited", "aggregate_only"])
    def test_encrypted_record_round_makes_one_forward_pass(self, monkeypatch, observer):
        # global_before and global_after go through one stacked pass, not two
        _, _, spec, eval_sets, _ = small_world()
        target_set = eval_sets.target_set
        before = init_model(spec, 1)
        after = before + 0.1 * np.random.default_rng(0).standard_normal(before.shape)
        trace = round_trace(1, (1, 3, 4, 6), before, after)
        if observer == "aggregate_only":
            watcher = UpsamplingDefender(DefenseConfig(t_s=5, k_s=1, server_mode=observer), spec, target_set)
        else:
            visible = frozenset({3, 6, 7}) if observer == "encrypted_limited" else None
            watcher = TargetedDropAttacker(AttackConfig(mode=observer, t_n=5, k_n=1), spec, target_set, visible)
        credited = (3, 6) if observer == "encrypted_limited" else (1, 3, 4, 6)
        change = forward_eval(before, spec, target_set).mean_loss - forward_eval(after, spec, target_set).mean_loss
        passes = count_forward_passes(monkeypatch)
        watcher.observe(trace)
        assert passes == [len(target_set)]
        assert watcher.ledger.sums == dict.fromkeys(credited, change)
        assert watcher.ledger.counts == dict.fromkeys(credited, 1)

    @pytest.mark.parametrize("observer", ["encrypted_limited", "plain_server"])
    def test_a_party_that_credits_nobody_makes_no_forward_pass(self, monkeypatch, observer):
        # a limited attacker that sees no participant, and a plain server
        # in a round whose every update was dropped
        _, _, spec, eval_sets, _ = small_world()
        target_set = eval_sets.target_set
        before = init_model(spec, 1)
        after = before + 0.1 * np.random.default_rng(0).standard_normal(before.shape)
        if observer == "plain_server":
            trace = round_trace(1, (1, 3, 4, 6), before, before, received=())
            watcher = UpsamplingDefender(DefenseConfig(t_s=1, k_s=1, server_mode="plain"), spec, target_set)
        else:
            trace = round_trace(1, (1, 3, 4, 6), before, after)
            attack = AttackConfig(mode=observer, t_n=1, k_n=1)
            watcher = TargetedDropAttacker(attack, spec, target_set, frozenset({0, 2, 7}))
        passes = count_forward_passes(monkeypatch)
        watcher.observe(trace)
        assert passes == []
        assert watcher.ledger.sums == watcher.ledger.counts == {}
        assert watcher.identified == []


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test, its count restored after."""
    lib = models._openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS")
    before = models.blas_threads()
    lib.scipy_openblas_set_num_threads64_(2)
    yield
    lib.scipy_openblas_set_num_threads64_(before)


class TestOneBlasThread:
    def test_rounds_run_on_one_thread_and_the_count_comes_back(self, two_blas_threads):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=3)
        seen = []
        run_protocol(cfg, shards, spec, eval_sets, 1, observers=[lambda trace: seen.append(models.blas_threads())])
        assert seen == [1, 1, 1]
        assert models.blas_threads() == 2

    def test_count_comes_back_when_a_round_raises(self, two_blas_threads):
        cfg, shards, spec, eval_sets, _ = small_world(rounds=3)

        def fail(trace):
            assert models.blas_threads() == 1
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            run_protocol(cfg, shards, spec, eval_sets, 1, observers=[fail])
        assert models.blas_threads() == 2

    def test_core_name_read_through_the_same_handle(self):
        if models._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        assert isinstance(models.blas_core(), str) and models.blas_core()
