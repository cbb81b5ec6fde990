"""Observation views, the contribution ledger, identification, and dropping."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednetsim.adversary import (
    ContributionLedger,
    FixedSetDropper,
    LedgerObserver,
    TargetedDropAttacker,
    drop_filter,
    identification_score,
    identify_clients,
    sample_visible_set,
)
from fednetsim.config import AttackConfig
from fednetsim.defense import UpsamplingDefender
from fednetsim.datasets import gen_synthetic
from fednetsim.models import ModelSpec, forward_eval, init_model

from conftest import Update, round_trace


def make_ledger(entries):
    ledger = ContributionLedger()
    for client, values in entries.items():
        for v in values:
            ledger.record(client, v)
    return ledger


class TestSampleVisibleSet:
    def test_full_visibility_is_everyone(self):
        for alpha_v in (0.5, 1.0, 1e6):
            vis = sample_visible_set(12, (0, 1, 2), 12, alpha_v, seed=4)
            assert vis == frozenset(range(12))

    def test_huge_alpha_covers_targets(self):
        # alpha_v >> 1 concentrates the weight on target clients; sampling
        # v = k should then recover them almost every time
        n, targets = 20, (3, 7, 11, 15)
        hits = 0
        for seed in range(200):
            vis = sample_visible_set(n, targets, len(targets), 1e6, seed=seed)
            hits += vis >= set(targets)
        assert hits >= 190  # >= 0.95 empirically

    def test_symmetric_alpha_is_exchangeable(self):
        # alpha_v = 1 treats targets like everyone else: expected number of
        # targets in a size-v set is v * k / n
        n, v, targets = 30, 6, tuple(range(5))
        total = 0
        trials = 1000
        for seed in range(trials):
            vis = sample_visible_set(n, targets, v, 1.0, seed=seed)
            total += len(vis & set(targets))
        expected = v * len(targets) / n
        assert abs(total / trials - expected) <= 0.1 * expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_visible_set(5, (0,), 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_visible_set(5, (0,), 6, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_visible_set(5, (0,), 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_visible_set(5, (7,), 2, 1.0, seed=0)


class LedgerWorld:
    """Tiny model world for exercising the observation views."""

    def __init__(self):
        self.spec = ModelSpec(4, (), 3)
        src, _ = gen_synthetic(3, 4, 40, 0, 2.0, seed=1)
        self.target_set = src.subset(np.flatnonzero(src.y == 0))
        self.f_before = init_model(self.spec, 0)
        self.f_after = self.f_before + 0.05

    def loss(self, params):
        return forward_eval(params, self.spec, self.target_set).mean_loss

    def trace(self, participants, local_models=None, t=1):
        return round_trace(t, participants, self.f_before, self.f_after, local_models)


class TestRecordRound:
    """One round recorded into a ``LedgerObserver``'s ledger, per view."""

    def recorded(self, w, view, *traces, visible=None):
        observer = LedgerObserver(view, w.spec, w.target_set, 1, 1, visible=visible)
        for trace in traces:
            observer.observe(trace)
        return observer.ledger

    def test_encrypted_credits_all_participants(self):
        w = LedgerWorld()
        ledger = self.recorded(w, "aggregate", w.trace((3, 7)))
        change = w.loss(w.f_before) - w.loss(w.f_after)
        assert ledger.counts == {3: 1, 7: 1}
        assert ledger.mean(3) == ledger.mean(7) == change

    def test_plain_zero_difference_for_unchanged_model(self):
        w = LedgerWorld()
        ledger = self.recorded(w, "sent", w.trace((5, 6), {5: w.f_before.copy(), 6: w.f_before + 0.1}))
        assert ledger.counts == {5: 1, 6: 1} and ledger.mean(5) == 0.0

    def test_limited_visibility_intersects(self):
        w = LedgerWorld()
        ledger = self.recorded(w, "aggregate", w.trace((3, 7)), visible=frozenset({3}))
        assert set(ledger.counts) == {3}

    def test_full_visible_set_equals_encrypted(self):
        w = LedgerWorld()
        traces = [w.trace(parts, t=t) for t, parts in enumerate([(0, 4), (2, 9, 5), (1,)], start=1)]
        limited = self.recorded(w, "aggregate", *traces, visible=frozenset(range(10)))
        encrypted = self.recorded(w, "aggregate", *traces)
        assert limited.counts == encrypted.counts and limited.sums == encrypted.sums

    def test_model_views_credit_what_they_see(self):
        # sent: every participant's model; received: only the ones that
        # arrived; both limited to a visible set when one is given
        w = LedgerWorld()
        sent = {j: w.f_before + 0.01 * j for j in (2, 4, 6)}
        trace = round_trace(1, (2, 4, 6), w.f_before, w.f_after, sent, received=(4,))
        assert set(self.recorded(w, "sent", trace).counts) == {2, 4, 6}
        assert set(self.recorded(w, "received", trace).counts) == {4}
        assert set(self.recorded(w, "sent", trace, visible=frozenset({2, 4})).counts) == {2, 4}

    def test_parties_are_views_not_observers_of_their_own(self):
        # attacker and defender share LedgerObserver.observe; the fixed-set
        # baseline observes nothing
        assert "observe" not in vars(TargetedDropAttacker) and "observe" not in vars(UpsamplingDefender)
        assert TargetedDropAttacker.observe is UpsamplingDefender.observe is LedgerObserver.observe
        assert not hasattr(FixedSetDropper([1]), "observe")


class TestIdentifyClients:
    def test_orders_by_mean(self):
        ledger = make_ledger({0: [1.0], 1: [0.5], 2: [-0.2]})
        assert identify_clients(ledger, 2) == [0, 1]

    def test_tie_breaks_to_smaller_id(self):
        ledger = make_ledger({7: [0.4, 0.0], 2: [0.2]})  # both means 0.2
        assert identify_clients(ledger, 1) == [2]

    def test_empty_ledger(self):
        assert identify_clients(ContributionLedger(), 5) == []

    def test_fewer_observed_than_requested(self):
        ledger = make_ledger({3: [0.1], 9: [0.9]})
        assert identify_clients(ledger, 10) == [9, 3]

    def test_k_zero(self):
        ledger = make_ledger({0: [1.0]})
        assert identify_clients(ledger, 0) == []

    def test_zero_mean_ranks_below_positive(self):
        # a client seen only in no-change rounds has mean exactly 0 and can
        # never outrank a positive-mean client
        ledger = make_ledger({4: [0.0, 0.0, 0.0], 8: [1e-9]})
        assert identify_clients(ledger, 1) == [8]


# (client, loss difference) observations.
EVENTS = st.lists(
    st.tuples(st.integers(0, 6), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
    max_size=40,
)


def per_client_lists(events) -> dict[int, list[float]]:
    values: dict[int, list[float]] = {}
    for client, value in events:
        values.setdefault(client, []).append(value)
    return values


def left_sum(values) -> float:
    # Left-to-right float sum, which is what ``sum`` computes up to Python
    # 3.11 (3.12 compensates the rounding error, so it can differ).
    return functools.reduce(operator.add, values, 0.0)


class TestLedgerProperties:
    @settings(deadline=None)
    @given(EVENTS)
    def test_mean_is_bit_equal_to_list_mean(self, events):
        ledger = make_ledger(per_client_lists(events))
        for client, values in per_client_lists(events).items():
            assert ledger.counts[client] == len(values)
            assert ledger.mean(client) == left_sum(values) / len(values)

    @settings(deadline=None)
    @given(EVENTS, st.integers(0, 9))
    def test_identify_matches_reference_ranking(self, events, k_n):
        ledger = make_ledger(per_client_lists(events))
        means = {j: left_sum(v) / len(v) for j, v in per_client_lists(events).items()}
        reference = sorted(means, key=lambda j: (-means[j], j))[:k_n]
        assert identify_clients(ledger, k_n) == reference


class TestDropFilter:
    def updates(self, ids):
        return [Update(j, np.zeros(3)) for j in ids]

    def test_identity_before_start(self):
        ups = self.updates([1, 2, 3])
        assert drop_filter(ups, [1, 2, 3], t=5, t_n=5) == ups

    def test_total_drop(self):
        ups = self.updates([1, 2])
        assert drop_filter(ups, [1, 2], t=6, t_n=5) == []

    def test_partial_drop(self):
        ups = self.updates([2, 4, 9])
        kept = drop_filter(ups, [4, 7], t=6, t_n=5)
        assert [u.client_id for u in kept] == [2, 9]

    def test_fixed_set_is_kept_as_sorted_ints(self):
        # the one place a fixed drop set is put in order
        dropper = FixedSetDropper(np.array([5, 1, 3]))
        assert dropper.identified == [1, 3, 5]
        assert all(type(i) is int for i in dropper.identified)


class TestIdentificationScore:
    def test_perfect(self):
        assert identification_score([1, 2, 3], [1, 2, 3]) == 3

    def test_disjoint(self):
        assert identification_score([4, 5], [1, 2]) == 0

    def test_empty_identified(self):
        assert identification_score([], [1, 2]) == 0

    def test_partial(self):
        assert identification_score([1, 5, 6, 7], [1, 2]) == 1


class TestTargetedDropAttacker:
    def make_trace(self, w, t, participants, sent, received=None):
        return round_trace(t, participants, w.f_before, w.f_after, sent, received)

    def test_plain_separability(self):
        # exactly one client ever lowers the target loss; it must be the one
        # identified with k_n = 1 after any round it participated in
        w = LedgerWorld()
        helpful = 4
        attacker = TargetedDropAttacker(AttackConfig(mode="plain", t_n=2, k_n=1), w.spec, w.target_set)
        # a model with a large positive bias on class 0 lowers the target loss
        better = w.f_before.copy()
        better[-3] += 2.0
        for t, parts in enumerate([(1, 4), (2, 3), (4, 5)], start=1):
            sent = {j: (better if j == helpful else w.f_before.copy()) for j in parts}
            attacker.filter_updates([Update(j, sent[j] - w.f_before) for j in parts], t)
            attacker.observe(self.make_trace(w, t, parts, sent))
        assert attacker.identified == [helpful]

    def test_encrypted_freeze_after_own_drop(self):
        w = LedgerWorld()
        attacker = TargetedDropAttacker(AttackConfig(mode="encrypted", t_n=1, k_n=1), w.spec, w.target_set)
        sent = {3: w.f_after.copy()}
        attacker.filter_updates([Update(3, np.zeros(len(w.f_before)))], 1)
        attacker.observe(self.make_trace(w, 1, (3,), sent))
        assert attacker.identified == [3]
        seen_before = attacker.ledger.counts[3]
        # round 2: client 3 participates again, gets dropped; the attacker
        # corrupted the aggregate, so nothing may be recorded
        kept = attacker.filter_updates([Update(3, np.zeros(len(w.f_before)))], 2)
        assert kept == []
        attacker.observe(self.make_trace(w, 2, (3,), sent, received=()))
        assert attacker.ledger.counts[3] == seen_before

    def test_plain_mode_never_freezes(self):
        w = LedgerWorld()
        attacker = TargetedDropAttacker(AttackConfig(mode="plain", t_n=1, k_n=1), w.spec, w.target_set)
        sent = {3: w.f_after.copy()}
        attacker.filter_updates([Update(3, w.f_after - w.f_before)], 1)
        attacker.observe(self.make_trace(w, 1, (3,), sent))
        attacker.filter_updates([Update(3, w.f_after - w.f_before)], 2)
        attacker.observe(self.make_trace(w, 2, (3,), sent))
        assert attacker.ledger.counts[3] == 2

    def test_no_refresh_freezes_identified_set(self):
        w = LedgerWorld()
        attack = AttackConfig(mode="encrypted", t_n=1, k_n=1, refresh=False)
        attacker = TargetedDropAttacker(attack, w.spec, w.target_set)
        attacker.filter_updates([Update(9, np.zeros(len(w.f_before)))], 1)
        attacker.observe(self.make_trace(w, 1, (9,), {9: w.f_after.copy()}))
        first = list(attacker.identified)
        attacker.filter_updates([Update(2, np.zeros(len(w.f_before)))], 2)
        attacker.observe(self.make_trace(w, 2, (2,), {2: w.f_after.copy()}))
        assert attacker.identified == first
