"""Up-sampling distribution construction and the defending server driver."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednetsim.adversary import TargetedDropAttacker
from fednetsim.config import AttackConfig, DefenseConfig, ProtocolConfig
from fednetsim.datasets import gen_synthetic
from fednetsim.defense import UpsamplingDefender, upsample_probabilities
from fednetsim.models import ModelSpec, init_model
from fednetsim.protocol import select_participants

from conftest import round_trace


class TestUpsampleProbabilities:
    @settings(deadline=None)
    @given(st.integers(1, 10**5), st.floats(1.0, 1e6))
    @example(10, 2.0)
    @example(10**5, 1.0)
    def test_empty_set_is_uniform(self, n, factor):
        p = upsample_probabilities([], n, factor)
        assert p.tobytes() == np.full(n, 1.0 / n).tobytes()

    @given(st.integers(1, 2**26), st.floats(1.0, 1e6))
    @example(2**26, 2.0)
    def test_empty_set_formula_is_one_over_n(self, n, factor):
        # the general formula at k_s = 0, as a scalar: n * n is exact, so
        # the quotient is 1 / n rounded once
        assert (n - 0 * factor) / (n * n - 0 * n) == 1.0 / n

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

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 200), st.floats(1.0, 50.0))
    def test_sums_to_one_or_rejects(self, data, n, factor):
        identified = data.draw(st.sets(st.integers(0, n - 1)))
        if len(identified) * factor >= n:
            with pytest.raises(ValueError, match="too large"):
                upsample_probabilities(identified, n, factor)
            return
        p = upsample_probabilities(identified, n, factor)
        assert abs(p.sum() - 1.0) <= 1e-12
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
        src, _ = gen_synthetic(3, 4, 40, 0, 2.0, seed=2)
        valid = src.subset(np.flatnonzero(src.y == 0))
        f0 = init_model(spec, 0)
        defender = UpsamplingDefender(
            DefenseConfig(t_s=1, k_s=2, upsample_factor=2.0, server_mode="aggregate_only"), spec, valid
        )
        attacker = TargetedDropAttacker(AttackConfig(mode="encrypted", t_n=1, k_n=2), spec, valid)
        for t, (parts, step) in enumerate([((1, 5), 0.03), ((2, 5), -0.02), ((1, 9), 0.01)], start=1):
            # nothing is dropped: every participant is received
            trace = round_trace(t, parts, f0, f0 + step, {j: f0 for j in parts})
            defender.observe(trace)
            attacker.observe(trace)
        assert len(defender.identified) == 2
        assert defender.identified == attacker.identified


class TestUpsamplingDefender:
    def world(self):
        spec = ModelSpec(4, (), 3)
        src, _ = gen_synthetic(3, 4, 40, 0, 2.0, seed=2)
        valid = src.subset(np.flatnonzero(src.y == 0))
        f0 = init_model(spec, 0)
        return spec, valid, f0

    def make_trace(self, f0, t, participants, received):
        return round_trace(t, participants, f0, f0 + 0.02, {j: f0 + 0.01 for j in participants}, received)

    def test_uniform_before_warmup(self):
        spec, valid, f0 = self.world()
        defender = UpsamplingDefender(DefenseConfig(t_s=3, k_s=2, upsample_factor=2.0), spec, valid)
        uniform = np.full(10, 1.0 / 10)
        assert np.array_equal(defender.resample(1, 10), uniform)
        defender.observe(self.make_trace(f0, 1, (0, 1), (0, 1)))
        assert np.array_equal(defender.resample(2, 10), uniform)

    def test_upsamples_after_warmup(self):
        spec, valid, f0 = self.world()
        defender = UpsamplingDefender(DefenseConfig(t_s=1, k_s=2, upsample_factor=2.0), spec, valid)
        defender.observe(self.make_trace(f0, 1, (4, 7), (4, 7)))
        p = defender.resample(2, 10)
        assert p[4] == 0.2 and p[7] == 0.2

    def test_plain_server_skips_dropped_clients(self):
        spec, valid, f0 = self.world()
        dfn = DefenseConfig(t_s=5, k_s=2, upsample_factor=2.0, server_mode="plain")
        defender = UpsamplingDefender(dfn, spec, valid)
        defender.observe(self.make_trace(f0, 1, (1, 2, 3), (1, 3)))
        assert set(defender.ledger.counts) == {1, 3}

    def test_aggregate_only_credits_all_participants(self):
        spec, valid, f0 = self.world()
        dfn = DefenseConfig(t_s=5, k_s=2, upsample_factor=2.0, server_mode="aggregate_only")
        defender = UpsamplingDefender(dfn, spec, valid)
        defender.observe(self.make_trace(f0, 1, (1, 2, 3), (1, 3)))
        assert set(defender.ledger.counts) == {1, 2, 3}

    def test_aggregate_only_matches_encrypted_attacker_ledger(self):
        # same observations, shared ranking code path: ledgers must be
        # bitwise-identical
        spec, valid, f0 = self.world()
        dfn = DefenseConfig(t_s=9, k_s=2, upsample_factor=2.0, server_mode="aggregate_only")
        defender = UpsamplingDefender(dfn, spec, valid)
        attacker = TargetedDropAttacker(AttackConfig(mode="encrypted", t_n=9, k_n=2), spec, valid)
        for t, parts in enumerate([(0, 3), (2, 5, 8), (1, 3)], start=1):
            trace = self.make_trace(f0, t, parts, parts)
            defender.observe(trace)
            attacker.observe(trace)
        assert defender.ledger.counts == attacker.ledger.counts
        assert defender.ledger.sums == attacker.ledger.sums

    @pytest.mark.parametrize(
        "dfn",
        [
            DefenseConfig(t_s=2, k_s=0, upsample_factor=2.0),
            DefenseConfig(t_s=9, k_s=2, upsample_factor=2.0),
        ],
        ids=["k_s=0", "t_s_past_the_run"],
    )
    def test_empty_identified_set_is_a_noop(self, dfn):
        # A defender that identifies nobody (k_s = 0, or t_s after the last
        # round) answers every round with the uniform distribution, so a
        # defended run is bitwise identical to an undefended one
        from fednetsim.datasets import partition
        from fednetsim.protocol import EvalSets, run_protocol

        spec = ModelSpec(5, (6,), 3)
        src, _ = gen_synthetic(3, 5, 400, 0, 2.0, seed=4)
        plan = partition(src.y, 3, 8, 2, 0, 0.5, 1.0, 30, seed=5)
        shards = [src.subset(idx) for idx in plan.shards]
        eval_sets = EvalSets(src, 0)
        cfg = ProtocolConfig(m=3, rounds=8, server_lr=0.3, local_epochs=1, local_lr=0.1, batch_size=None)
        defender = UpsamplingDefender(dfn, spec, eval_sets.target_set)
        defended, undefended = [], []
        run_protocol(
            cfg, shards, spec, eval_sets, seed=6,
            resample_hook=defender.resample, observers=[defender.observe, defended.append],
        )
        run_protocol(cfg, shards, spec, eval_sets, seed=6, observers=[undefended.append])
        assert len(defended) == len(undefended) == cfg.rounds
        for a, b in zip(defended, undefended):
            assert a.participants == b.participants
            assert np.array_equal(a.global_after, b.global_after)
