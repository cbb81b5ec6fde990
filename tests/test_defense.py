"""Up-sampling distribution construction and the defending server driver."""

import numpy as np
import pytest

from fednetsim.adversary import (
    AttackPlan,
    ContributionLedger,
    ObservationMode,
    TargetedDropAttacker,
    record_round,
)
from fednetsim.datasets import gen_synthetic
from fednetsim.defense import DefensePlan, UpsamplingDefender, upsample_probabilities
from fednetsim.models import ModelSpec, init_model
from fednetsim.protocol import RoundTrace, select_participants


class TestUpsampleProbabilities:
    def test_empty_set_is_uniform(self):
        p = upsample_probabilities([], 10, 2.0)
        assert np.array_equal(p, np.full(10, 0.1))

    def test_factor_one_is_uniform_exactly(self):
        for n in (3, 10, 57):
            for k_s in range(0, n):
                p = upsample_probabilities(list(range(k_s)), n, 1.0)
                assert np.all(p == 1.0 / n)

    def test_worked_example(self):
        # n=10, two boosted clients at factor 2: p = 0.2 each, rest 6/80
        p = upsample_probabilities([1, 4], 10, 2.0)
        assert p[1] == 0.2 and p[4] == 0.2
        others = np.delete(p, [1, 4])
        assert np.allclose(others, 6.0 / 80.0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_sums_to_one_on_grid(self):
        for n in range(2, 101, 7):
            for k_s in range(0, n):
                for factor in (1.0, 1.5, 2.0, 3.0):
                    if k_s * factor >= n:
                        continue
                    p = upsample_probabilities(list(range(k_s)), n, factor)
                    assert abs(p.sum() - 1.0) < 1e-12
                    assert p.min() >= 0.0

    def test_oversized_factor_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            upsample_probabilities(list(range(5)), 10, 2.0)
        with pytest.raises(ValueError, match="too large"):
            upsample_probabilities(list(range(4)), 8, 2.5)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError):
            upsample_probabilities([11], 10, 1.5)

    def test_selection_rate_rises_by_factor(self):
        # boosted clients should be selected about factor times as often
        n, m, factor = 60, 5, 2.0
        boosted = [4, 17, 40]
        p = upsample_probabilities(boosted, n, factor)
        counts = np.zeros(n)
        rounds = 20000
        for t in range(1, rounds + 1):
            for j in select_participants(n, m, p, seed=13, t=t):
                counts[j] += 1
        rate = counts / rounds
        expected = m * factor / n
        for j in boosted:
            assert abs(rate[j] - expected) <= 0.1 * expected


class TestServerIdentify:
    def test_shares_attacker_ranking(self):
        # an aggregate-only server and an encrypted attacker that watch the
        # same rounds rank clients by the same rule
        spec = ModelSpec(4, (), 3)
        valid = gen_synthetic(3, 4, 40, 2.0, seed=2).class_examples(0)
        f0 = init_model(spec, 0)
        defender = UpsamplingDefender(
            DefensePlan(t_s=1, k_s=2, upsample_factor=2.0, valid_set=valid, server_mode="aggregate_only"),
            spec,
            n=10,
        )
        attacker = TargetedDropAttacker(
            AttackPlan(t_n=1, k_n=2, mode=ObservationMode("encrypted"), target_set=valid), spec
        )
        for t, (parts, step) in enumerate([((1, 5), 0.03), ((2, 5), -0.02), ((1, 9), 0.01)], start=1):
            trace = RoundTrace(t, parts, f0, f0 + step, {}, {})
            defender.observe(trace)
            attacker.observe(trace)
        assert len(defender.identified) == 2
        assert defender.identified == attacker.identified


class TestUpsamplingDefender:
    def world(self):
        spec = ModelSpec(4, (), 3)
        src = gen_synthetic(3, 4, 40, 2.0, seed=2)
        valid = src.class_examples(0)
        f0 = init_model(spec, 0)
        return spec, valid, f0

    def make_trace(self, f0, t, participants, received):
        return RoundTrace(
            t=t,
            participants=tuple(participants),
            global_before=f0,
            global_after=f0 + 0.02,
            sent_models={j: f0 + 0.01 for j in participants},
            received_models={j: f0 + 0.01 for j in received},
        )

    def test_uniform_before_warmup(self):
        spec, valid, f0 = self.world()
        plan = DefensePlan(t_s=3, k_s=2, upsample_factor=2.0, valid_set=valid)
        defender = UpsamplingDefender(plan, spec, n=10)
        assert defender.resample(1, 10) is None
        defender.observe(self.make_trace(f0, 1, (0, 1), (0, 1)))
        assert defender.resample(2, 10) is None

    def test_upsamples_after_warmup(self):
        spec, valid, f0 = self.world()
        plan = DefensePlan(t_s=1, k_s=2, upsample_factor=2.0, valid_set=valid)
        defender = UpsamplingDefender(plan, spec, n=10)
        defender.observe(self.make_trace(f0, 1, (4, 7), (4, 7)))
        p = defender.resample(2, 10)
        assert p is not None
        assert p[4] == 0.2 and p[7] == 0.2

    def test_plain_server_skips_dropped_clients(self):
        spec, valid, f0 = self.world()
        plan = DefensePlan(t_s=5, k_s=2, upsample_factor=2.0, valid_set=valid, server_mode="plain")
        defender = UpsamplingDefender(plan, spec, n=10)
        defender.observe(self.make_trace(f0, 1, (1, 2, 3), (1, 3)))
        assert set(defender.ledger.counts) == {1, 3}

    def test_aggregate_only_credits_all_participants(self):
        spec, valid, f0 = self.world()
        plan = DefensePlan(
            t_s=5, k_s=2, upsample_factor=2.0, valid_set=valid, server_mode="aggregate_only"
        )
        defender = UpsamplingDefender(plan, spec, n=10)
        defender.observe(self.make_trace(f0, 1, (1, 2, 3), (1, 3)))
        assert set(defender.ledger.counts) == {1, 2, 3}

    def test_aggregate_only_matches_encrypted_attacker_ledger(self):
        # same observations, shared ranking code path: ledgers must be
        # bitwise-identical
        spec, valid, f0 = self.world()
        plan = DefensePlan(
            t_s=9, k_s=2, upsample_factor=2.0, valid_set=valid, server_mode="aggregate_only"
        )
        defender = UpsamplingDefender(plan, spec, n=10)
        attacker_ledger = ContributionLedger()
        for t, parts in enumerate([(0, 3), (2, 5, 8), (1, 3)], start=1):
            trace = self.make_trace(f0, t, parts, parts)
            defender.observe(trace)
            record_round(attacker_ledger, trace, None, ObservationMode("encrypted"), valid, spec)
        assert defender.ledger == attacker_ledger

    def test_oversized_plan_rejected(self):
        spec, valid, _ = self.world()
        plan = DefensePlan(t_s=1, k_s=5, upsample_factor=2.0, valid_set=valid)
        with pytest.raises(ValueError, match="too large"):
            UpsamplingDefender(plan, spec, n=10)

    def test_empty_identified_set_is_a_noop(self):
        # k_s = 0 never reweights, so a defended run is bitwise identical to
        # an undefended one
        from fednetsim.datasets import partition
        from fednetsim.protocol import EvalSets, ProtocolConfig, run_protocol

        spec = ModelSpec(5, (6,), 3)
        src = gen_synthetic(3, 5, 400, 2.0, seed=4)
        plan = partition(src, 8, 2, 0, 0.5, 1.0, 30, seed=5)
        shards = [src.subset(idx) for idx in plan.shards]
        eval_sets = EvalSets(src.class_examples(0), src.all_examples(), 0)
        cfg = ProtocolConfig(n=8, m=3, rounds=8, server_lr=0.3, local_epochs=1, local_lr=0.1)
        defender = UpsamplingDefender(
            DefensePlan(t_s=2, k_s=0, upsample_factor=2.0, valid_set=eval_sets.target_set),
            spec,
            n=8,
        )
        models = {"defended": [], "undefended": []}

        def keep(name):
            return lambda trace: models[name].append(trace.global_after)

        defended = run_protocol(
            cfg, shards, spec, eval_sets, seed=6,
            resample_hook=defender.resample, observers=[defender.observe, keep("defended")],
        )
        undefended = run_protocol(cfg, shards, spec, eval_sets, seed=6, observers=[keep("undefended")])
        for a, b in zip(defended, undefended):
            assert a.participants == b.participants
        assert len(models["defended"]) == cfg.rounds
        for a, b in zip(models["defended"], models["undefended"]):
            assert np.array_equal(a, b)
