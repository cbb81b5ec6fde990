"""Scenario orchestration, metric emission, sweeps, and the identification bench."""

import json
import math
import pathlib
import struct
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fednetsim.config import (
    AttackConfig,
    ConfigError,
    DatasetConfig,
    DefenseConfig,
    ModelConfig,
    PartitionConfig,
    ATTACK_KINDS,
    PoisonConfig,
    ProtocolConfig,
    ScenarioConfig,
    load_scenario,
    scenario_from_dict,
)
import fednetsim.harness as harness
from fednetsim.emit import CSV_HEADER, emit_metrics, emit_sweep
from fednetsim.harness import (
    build_world,
    identify_bench,
    run_scenario,
    run_trial,
    sweep_grid,
)
from fednetsim.adversary import identification_score
from fednetsim.datasets import gen_synthetic, partition
from fednetsim.poisoning import craft_poison_update
from fednetsim.seeding import TAG_DATA, TAG_PARTITION, TAG_TRAIN, spawn_seed
from conftest import tiny_scenario

POSITIVE = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
OPTIONAL_POSITIVE = st.none() | POSITIVE


@st.composite
def scenarios(draw):
    """Scenario configs that pass ``validate_scenario``."""
    classes = draw(st.integers(2, 12))
    n = draw(st.integers(1, 200))
    k = draw(st.integers(0, n))
    target_class = draw(st.integers(0, classes - 1))
    part = PartitionConfig(
        n=n,
        k=k,
        target_class=target_class,
        alpha_t=draw(st.floats(1e-6, 1.0)),
        alpha_d=draw(POSITIVE),
        local_size=draw(st.integers(1, 10**4)),
    )
    model = ModelConfig(
        hidden_dims=tuple(draw(st.lists(st.integers(1, 512), max_size=3))),
        activation=draw(st.sampled_from(["relu", "tanh"])),
    )
    proto = ProtocolConfig(
        m=draw(st.integers(1, n)),
        rounds=draw(st.integers(1, 10**4)),
        server_lr=draw(POSITIVE),
        local_epochs=draw(st.integers(0, 20)),
        local_lr=draw(POSITIVE),
        batch_size=draw(st.none() | st.integers(1, 10**4)),
        clip_norm=draw(OPTIONAL_POSITIVE),
        denominator_mode=draw(st.sampled_from(["received_count", "fixed_m"])),
    )
    attack = None
    if draw(st.booleans()):
        kind = draw(st.sampled_from(ATTACK_KINDS))
        mode = draw(st.sampled_from(["plain", "encrypted", "encrypted_limited"]))
        limited = kind == "targeted" and mode == "encrypted_limited"
        attack = AttackConfig(
            kind=kind,
            mode=mode,
            t_n=draw(st.integers(1, 10**4)),
            k_n=draw(st.integers(0, k if kind == "perfect_knowledge" else n)),
            refresh=draw(st.booleans()),
            target_set_size=draw(st.integers(1, 10**4)),
            visible_size=draw(st.integers(1, n)) if limited else draw(st.none() | st.integers(1, n)),
            alpha_v=draw(POSITIVE) if limited else draw(OPTIONAL_POSITIVE),
        )
    poison = None
    if draw(st.booleans()):
        targeted = attack is not None and attack.kind == "targeted"
        flips = [c for c in range(classes) if c != target_class]
        poison = PoisonConfig(
            k_p=draw(st.integers(0, n - k)),
            boost=draw(POSITIVE),
            flip_to=draw(st.none() | st.sampled_from(flips)),
            start_round=draw((st.none() if targeted else st.nothing()) | st.integers(0, 10**4)),
        )
    defense = None
    if n >= 2 and draw(st.booleans()):
        factor = draw(st.floats(1.0, float(n) - 0.5))
        defense = DefenseConfig(
            t_s=draw(st.integers(1, 10**4)),
            k_s=draw(st.integers(0, math.ceil(n / factor) - 1).filter(lambda k_s: k_s * factor < n)),
            upsample_factor=factor,
            server_mode=draw(st.sampled_from(["plain", "aggregate_only"])),
            valid_set_size=draw(st.integers(1, 10**4)),
            clip_norm=draw(OPTIONAL_POSITIVE),
        )
    if draw(st.booleans()):
        path = st.text(st.characters(codec="utf-8", exclude_categories=("Cc", "Cs")), min_size=1)
        dataset = DatasetConfig(
            kind="idx",
            class_count=classes,
            train_images=draw(path),
            train_labels=draw(path),
            test_images=draw(path),
            test_labels=draw(path),
        )
    else:
        # a synthetic pool at least as large as the partition takes, from the
        # target class and from the non-target classes
        quotas = (k + (poison.k_p if poison is not None else 0)) * math.ceil(part.alpha_t * part.local_size)
        least = max(quotas, -(-(n * part.local_size - quotas) // (classes - 1)), 1)
        dataset = DatasetConfig(
            class_count=classes,
            input_dim=draw(st.integers(1, 64)),
            per_class=draw(st.integers(least, least + 10**6)),
            separation=draw(st.floats(0, 100)),
            eval_per_class=draw(st.integers(1, 10**4)),
        )
    return ScenarioConfig(
        dataset=dataset,
        partition=part,
        model=model,
        protocol=proto,
        attack=attack,
        poison=poison,
        defense=defense,
        trials=draw(st.integers(1, 100)),
        base_seed=draw(st.integers(0, 2**63)),
    )


class TestBuildWorld:
    def poisoned(self, **poison):
        return tiny_scenario(poison=PoisonConfig(k_p=2, boost=10.0, **poison))

    def unpoisoned(self):
        # k = 5 holders, as k + k_p in ``poisoned``: both worlds share one partition
        return tiny_scenario(partition=replace(tiny_scenario().partition, k=5), poison=None)

    @pytest.mark.parametrize("flip_to", [None, 3])
    def test_compromised_shards_are_flipped(self, flip_to):
        cfg = self.poisoned(flip_to=flip_to)
        world = build_world(cfg, 21)
        part = cfg.partition
        quota = math.ceil(part.alpha_t * part.local_size)
        to = 1 if flip_to is None else flip_to
        assert len(world.compromised) == 2 and len(world.honest_targets) == 3
        for j in world.compromised:
            y = world.shards[j].y
            assert not (y == part.target_class).any()
            assert (y == to).sum() >= quota
        for j in world.honest_targets:
            assert (world.shards[j].y == part.target_class).sum() == quota

    def test_only_compromised_labels_differ_from_the_unpoisoned_world(self):
        cfg = self.poisoned()
        world, clean = build_world(cfg, 21), build_world(self.unpoisoned(), 21)
        assert clean.compromised == ()
        assert sorted(world.compromised + world.honest_targets) == list(clean.honest_targets)
        for j, (shard, clean_shard) in enumerate(zip(world.shards, clean.shards)):
            assert np.array_equal(shard.x, clean_shard.x)
            want = clean_shard.y.copy()
            if j in world.compromised:
                want[want == cfg.partition.target_class] = 1
            assert np.array_equal(shard.y, want)

    def test_compromised_updates_equal_the_crafted_reference(self, monkeypatch):
        # a run's compromised updates are exactly craft_poison_update on the
        # world's flipped shard, unboosted up to start_round and boosted after
        cfg = replace(self.poisoned(start_round=3), protocol=replace(tiny_scenario().protocol, rounds=10))
        seed = 21
        world = build_world(cfg, seed)
        proto = cfg.protocol
        checked = []

        def check(trace):
            f = trace.global_before
            for j in set(trace.participants) & set(world.compromised):
                boost = cfg.poison.boost if trace.t > cfg.poison.start_round else 1.0
                crafted = craft_poison_update(
                    f, world.spec, world.shards[j], proto.local_epochs, proto.local_lr, boost,
                    spawn_seed(seed, TAG_TRAIN, trace.t, j), proto.batch_size,
                )
                (model,) = trace.local_models([j])
                assert np.array_equal(model, f + crafted)
                checked.append(boost)

        run_protocol = harness.run_protocol

        def observed(*args, observers=(), **kwargs):
            assert kwargs["poison_hook"] is not None
            return run_protocol(*args, observers=[*observers, check], **kwargs)

        monkeypatch.setattr(harness, "run_protocol", observed)
        run_trial(cfg, seed)
        assert {1.0, cfg.poison.boost} <= set(checked)

    def test_peak_memory_stays_near_the_generated_features(self):
        # the train and held-out features are drawn in place, so the build
        # holds them about once, not pooled and then copied per split
        cfg = load_scenario(pathlib.Path(__file__).resolve().parent.parent / "configs" / "standard.yaml")
        ds = cfg.dataset
        features = ds.class_count * (ds.per_class + ds.eval_per_class) * ds.input_dim * 8
        tracemalloc.start()
        try:
            build_world(cfg, cfg.base_seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * features, f"peak {peak / features:.2f}x the {features} feature bytes"

    def test_build_never_holds_the_full_training_pool(self):
        # the partition reads labels only, so only the rows its shards use
        # are kept: 12,000 of the pool's 40,000
        cfg = load_scenario(pathlib.Path(__file__).resolve().parent.parent / "configs" / "standard.yaml")
        ds = cfg.dataset
        pool = ds.class_count * ds.per_class * ds.input_dim * 8
        tracemalloc.start()
        try:
            build_world(cfg, cfg.base_seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pool, f"peak {peak / pool:.2f}x the {pool} bytes of the training pool"

    def test_shards_are_the_partitioned_rows_of_the_full_draw(self):
        cfg, seed = self.unpoisoned(), 21
        ds, part = cfg.dataset, cfg.partition
        world = build_world(cfg, seed)
        train, test = gen_synthetic(
            ds.class_count, ds.input_dim, ds.per_class, ds.eval_per_class, ds.separation,
            spawn_seed(seed, TAG_DATA),
        )
        plan = partition(
            train.y, ds.class_count, part.n, part.k, part.target_class, part.alpha_t, part.alpha_d,
            part.local_size, spawn_seed(seed, TAG_PARTITION),
        )
        assert world.honest_targets == plan.target_client_ids
        assert len(world.shards) == len(plan.shards)
        for shard, idx in zip(world.shards, plan.shards):
            assert shard.x.tobytes() == train.x[idx].tobytes()
            assert shard.y.tobytes() == train.y[idx].tobytes()
        assert world.eval_sets.test_set.x.tobytes() == test.x.tobytes()

    @pytest.mark.parametrize("kind", ["synthetic", "idx"])
    def test_shards_are_equal_length_views_of_one_array_in_client_order(self, kind, tmp_path):
        cfg = self.unpoisoned() if kind == "synthetic" else idx_scenario(tmp_path)
        part = cfg.partition
        world = build_world(cfg, 21)
        assert len(world.shards) == part.n
        for field in ("x", "y"):
            pool = getattr(world.shards[0], field).base
            assert pool is not None and len(pool) == part.n * part.local_size
            start = pool.__array_interface__["data"][0]
            for j, shard in enumerate(world.shards):
                rows = getattr(shard, field)
                assert len(rows) == part.local_size
                assert rows.base is pool and np.shares_memory(rows, pool)
                offset = rows.__array_interface__["data"][0] - start
                assert offset == j * part.local_size * pool.strides[0]


class TestRunScenario:
    def test_series_shapes_and_config_echo(self, tiny_cfg):
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=6, batch_size=5), trials=2)
        summary = run_scenario(cfg)
        assert summary.config is cfg
        assert len(summary.trials) == 2
        for series in summary.trials:
            for name in ("target_acc", "target_loss", "overall_acc", "nontarget_acc"):
                assert len(getattr(series, name)) == 6
            assert len(series.identified_hits) == 6
            assert len(series.dropped_count) == 6

    def test_trial_order_independence(self, tiny_cfg):
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=5, batch_size=5), trials=3)
        summary = run_scenario(cfg)
        shuffled = [run_trial(cfg, cfg.base_seed + i) for i in (2, 0, 1)]
        assert sorted(t.target_acc[-1] for t in summary.trials) == sorted(
            t.target_acc[-1] for t in shuffled
        )

    @pytest.mark.parametrize("round_index", [0, -1, 3])
    def test_metric_at_refuses_a_round_outside_the_run(self, tiny_cfg, round_index):
        # rounds=2: unchecked, 0 and -1 would wrap to rounds 2 and 1, and 3 is past the end
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=2, batch_size=5), trials=1)
        series = harness.TrialSeries([0.5, 0.75], [1.0, 0.5], [0.5, 0.5], [0.5, 0.5], [0, 1], [0, 0])
        summary = harness.RunSummary(cfg, [series])
        assert summary.metric_at("target_acc", 1) == [0.5] and summary.metric_at("target_acc", 2) == [0.75]
        with pytest.raises(ValueError, match=r"round_index: must be in \[1, 2\]"):
            summary.metric_at("target_acc", round_index)
        with pytest.raises(ValueError, match="round_index"):
            summary.mean_at("identified_hits", round_index)

    def test_mean_at_sums_left_to_right(self, tiny_cfg):
        # Python 3.12's sum() compensates to 0.6 here, and 0.6 / 3 is 0.19999999999999998
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=1, batch_size=5), trials=3)
        trials = [harness.TrialSeries([acc], [1.0], [0.5], [0.5], [0], [0]) for acc in (0.1, 0.2, 0.3)]
        assert harness.RunSummary(cfg, trials).mean_at("target_acc", 1) == 0.20000000000000004

    def test_no_attack_never_drops(self, tiny_cfg):
        cfg = replace(tiny_cfg, attack=None, poison=None, trials=1)
        summary = run_scenario(cfg)
        assert sum(summary.trials[0].dropped_count) == 0
        assert sum(summary.trials[0].identified_hits) == 0

    def test_targeted_with_zero_kn_never_drops(self, tiny_cfg):
        summary = run_scenario(replace(tiny_cfg, trials=1))
        assert sum(summary.trials[0].dropped_count) == 0

    def test_perfect_knowledge_drops_from_round_one(self, tiny_cfg):
        cfg = replace(
            tiny_cfg,
            attack=AttackConfig(kind="perfect_knowledge", k_n=3), poison=None, trials=1
        )
        series = run_scenario(cfg).trials[0]
        assert all(h == 3 for h in series.identified_hits)
        assert sum(series.dropped_count) > 0
        # every dropped update belongs to a round where a chosen target appeared
        assert max(series.dropped_count) <= 3

    def test_hits_of_a_round_score_the_ranking_after_it(self, tiny_cfg, monkeypatch):
        # identified_hits[t - 1] is the attacker's score once it has observed
        # round t: 0 before t_n, and round t_n's own ranking at t_n
        t_n = tiny_cfg.attack.t_n
        cfg = replace(
            tiny_cfg,
            attack=replace(tiny_cfg.attack, k_n=3),
            poison=None,
            protocol=replace(tiny_cfg.protocol, rounds=t_n + 3),
        )
        seed = cfg.base_seed
        honest_targets = build_world(cfg, seed).honest_targets
        after_round = []
        run_protocol = harness.run_protocol

        def observed(*args, observers=(), filter_hook=None, **kwargs):
            attacker = filter_hook.__self__  # the hook is the trial's attacker's bound filter_updates

            def score(trace):
                after_round.append(identification_score(attacker.identified, honest_targets))

            return run_protocol(*args, observers=[*observers, score], filter_hook=filter_hook, **kwargs)

        monkeypatch.setattr(harness, "run_protocol", observed)
        series = run_trial(cfg, seed)
        assert after_round[: t_n - 1] == [0] * (t_n - 1)
        assert after_round[t_n - 1] > 0
        assert series.identified_hits == after_round

    def test_random_drop_counts_hits_against_targets(self, tiny_cfg):
        cfg = replace(
            tiny_cfg,
            attack=AttackConfig(kind="random_drop", k_n=6), poison=None, trials=1
        )
        series = run_scenario(cfg).trials[0]
        assert 0 <= series.identified_hits[0] <= 3
        assert sum(series.dropped_count) > 0

    def test_limited_visibility_attack_runs(self, tiny_cfg):
        cfg = replace(
            tiny_cfg,
            attack=AttackConfig(
                kind="targeted", mode="encrypted_limited", t_n=8, k_n=3,
                visible_size=6, alpha_v=2.0,
            ),
            poison=None,
            trials=1,
        )
        series = run_scenario(cfg).trials[0]
        assert len(series.target_acc) == cfg.protocol.rounds
        # the attacker can only ever identify visible clients
        assert max(series.identified_hits) <= 3

    def test_full_visibility_equals_encrypted_run(self, tiny_cfg):
        # a visible set covering everyone is behaviorally identical to plain
        # encrypted observation, down to the bit
        enc = replace(
            tiny_cfg,
            attack=AttackConfig(kind="targeted", mode="encrypted", t_n=8, k_n=3),
            poison=None, trials=1,
        )
        lim = replace(
            tiny_cfg,
            attack=AttackConfig(
                kind="targeted", mode="encrypted_limited", t_n=8, k_n=3,
                visible_size=tiny_cfg.partition.n, alpha_v=1.0,
            ),
            poison=None, trials=1,
        )
        assert run_trial(enc, 21) == run_trial(lim, 21)

    def test_limited_visibility_weakens_the_attack(self):
        # fewer observable clients -> fewer identified targets -> higher
        # surviving target accuracy (standard scenario, 2-seed mean)
        import pathlib

        std = replace(
            load_scenario(pathlib.Path(__file__).resolve().parent.parent / "configs" / "standard.yaml"),
            trials=2,
        )
        enc = replace(
            std,
            attack=AttackConfig(kind="targeted", mode="encrypted", t_n=30, k_n=15)
        )
        lim = replace(
            std,
            attack=AttackConfig(
                kind="targeted", mode="encrypted_limited", t_n=30, k_n=15,
                visible_size=20, alpha_v=2.0,
            )
        )
        enc_summary = run_scenario(enc)
        lim_summary = run_scenario(lim)
        assert lim_summary.mean_at("identified_hits", 150) <= enc_summary.mean_at(
            "identified_hits", 150
        )
        assert lim_summary.mean_at("target_acc", 150) >= enc_summary.mean_at(
            "target_acc", 150
        )

    def test_poison_amplifies_limited_visibility_attack(self):
        # adding model replacement on top of a visibility-limited dropping
        # attack always degrades the target class further
        import pathlib

        std = replace(
            load_scenario(pathlib.Path(__file__).resolve().parent.parent / "configs" / "standard.yaml"),
            trials=2,
        )
        lim = replace(
            std,
            attack=AttackConfig(
                kind="targeted", mode="encrypted_limited", t_n=30, k_n=15,
                visible_size=20, alpha_v=2.0,
            )
        )
        lim_poisoned = replace(lim, poison=PoisonConfig(k_p=5, boost=10.0))
        drop_only = run_scenario(lim)
        amplified = run_scenario(lim_poisoned)
        assert amplified.mean_at("target_acc", 150) < drop_only.mean_at("target_acc", 150)

    def test_poisoning_collapses_target_class(self, tiny_cfg):
        clean = replace(tiny_cfg, poison=None, trials=1)
        poisoned = replace(
            tiny_cfg,
            poison=PoisonConfig(k_p=2, boost=10.0, start_round=8), trials=1
        )
        acc_clean = run_scenario(clean).trials[0].target_acc[-1]
        acc_poisoned = run_scenario(poisoned).trials[0].target_acc[-1]
        assert acc_poisoned < acc_clean - 0.2

    def test_defense_requires_consistent_plan(self, tiny_cfg):
        with pytest.raises(ConfigError, match="k_s"):
            replace(tiny_cfg, defense=DefenseConfig(t_s=8, k_s=8, upsample_factor=2.0))

    def test_defended_run_executes(self, tiny_cfg):
        cfg = replace(
            tiny_cfg,
            attack=AttackConfig(kind="targeted", mode="plain", t_n=8, k_n=3),
            defense=DefenseConfig(t_s=8, k_s=3, upsample_factor=2.0, server_mode="plain"),
            trials=1,
        )
        series = run_scenario(cfg).trials[0]
        assert len(series.target_acc) == cfg.protocol.rounds

    def test_separable_baseline_regression(self):
        # fixed-seed regression: easy data, no attack, 150 rounds
        cfg = ScenarioConfig(
            dataset=DatasetConfig(
                class_count=5, input_dim=8, per_class=400, separation=4.0, eval_per_class=100
            ),
            partition=PartitionConfig(n=20, k=5, target_class=0, alpha_t=0.5, alpha_d=1.0, local_size=60),
            model=ModelConfig(hidden_dims=(16,)),
            protocol=ProtocolConfig(m=5, rounds=150, server_lr=0.25, local_epochs=2, local_lr=0.1, batch_size=None),
            trials=1,
            base_seed=11,
        )
        summary = run_scenario(cfg)
        assert summary.mean_at("overall_acc", 150) >= 0.95
        # learning progresses: accuracy at T exceeds accuracy at T/2
        assert summary.mean_at("target_acc", 150) > summary.mean_at("target_acc", 75) - 1e-9


class TestIdxScenario:
    def test_end_to_end_on_idx_files(self, tmp_path):
        # a real-data-style run through the raster loader, no other module
        # changes required
        summary = run_scenario(idx_scenario(tmp_path))
        assert len(summary.trials[0].target_acc) == 3


def idx_scenario(tmp_path):
    """A 6-client scenario on IDX files of ``gen_raster`` images, written to ``tmp_path``."""
    rng = np.random.default_rng(3)
    for stem, (images, labels) in gen_raster(rng).items():
        with open(tmp_path / f"{stem}_images.idx", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, len(labels), 4, 4))
            fh.write(images.astype(np.uint8).tobytes())
        with open(tmp_path / f"{stem}_labels.idx", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, len(labels)))
            fh.write(labels.astype(np.uint8).tobytes())
    return tiny_scenario(
        dataset=DatasetConfig(
            kind="idx",
            class_count=3,
            train_images=str(tmp_path / "train_images.idx"),
            train_labels=str(tmp_path / "train_labels.idx"),
            test_images=str(tmp_path / "test_images.idx"),
            test_labels=str(tmp_path / "test_labels.idx"),
        ),
        partition=PartitionConfig(n=6, k=2, target_class=0, alpha_t=0.5, alpha_d=1.0, local_size=20),
        model=ModelConfig(hidden_dims=()),
        protocol=ProtocolConfig(m=3, rounds=3, batch_size=None),
        attack=None,
        poison=None,
        trials=1,
    )


def gen_raster(rng):
    """Class-dependent 4x4 uint8 images, enough for a 6-client partition."""
    out = {}
    for stem, per_class in (("train", 80), ("test", 20)):
        images, labels = [], []
        for c in range(3):
            base = np.zeros((4, 4))
            base[c, :] = 200
            images.append(base + rng.integers(0, 40, size=(per_class, 4, 4)))
            labels.append(np.full(per_class, c))
        out[stem] = (np.clip(np.concatenate(images), 0, 255), np.concatenate(labels))
    return out


class TestEmitMetrics:
    def test_row_count_and_header(self, tiny_cfg, tmp_path):
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=2, batch_size=5), trials=1)
        summary = run_scenario(cfg)
        csv_path, json_path = emit_metrics(summary, tmp_path)
        lines = pathlib.Path(csv_path).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2  # header + rounds*trials

    def test_json_config_roundtrip(self, tiny_cfg, tmp_path):
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=2, batch_size=5), trials=1)
        _, json_path = emit_metrics(run_scenario(cfg), tmp_path)
        payload = json.loads(pathlib.Path(json_path).read_text())
        assert scenario_from_dict(payload["config"]) == cfg

    def test_byte_identical_reruns(self, tiny_cfg, tmp_path):
        cfg = replace(tiny_cfg, protocol=ProtocolConfig(m=4, rounds=4, batch_size=5), trials=2)
        a_csv, a_json = emit_metrics(run_scenario(cfg), tmp_path / "a")
        b_csv, b_json = emit_metrics(run_scenario(cfg), tmp_path / "b")
        assert pathlib.Path(a_csv).read_bytes() == pathlib.Path(b_csv).read_bytes()
        assert pathlib.Path(a_json).read_bytes() == pathlib.Path(b_json).read_bytes()


class TestConfigLoading:
    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("foo: 1\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(path)

    def test_unknown_nested_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("protocol:\n  m: 5\n  bogus: 1\n")
        with pytest.raises(ConfigError, match="protocol"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param([1, 2], "top level: expected a mapping", id="top-level-list"),
            pytest.param({"dataset": [1]}, "dataset: expected a mapping", id="section-list"),
            pytest.param({"protocol": 3}, "protocol: expected a mapping", id="section-number"),
            pytest.param({"attack": False}, "attack: expected a mapping", id="section-false"),
            pytest.param({"foo": 1}, "top level: unknown keys ['foo']", id="unknown-top-level"),
            pytest.param({"protocol": {"m": 5, "bogus": 1}}, "protocol: unknown keys ['bogus']", id="unknown-in-section"),
            pytest.param({"trials": None}, "trials: expected integer, got None", id="trials-null"),
        ],
    )
    def test_structure_rejected_with_its_message(self, data, message):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(data)
        assert str(exc.value) == message

    def test_unknown_keys_of_mixed_types(self):
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({1: 2, "foo": 3})
        assert str(exc.value) == "top level: unknown keys [1, 'foo']"

    def test_null_and_empty_sections(self):
        assert scenario_from_dict({"dataset": None}).dataset == DatasetConfig()
        assert scenario_from_dict({"attack": None}).attack is None
        assert scenario_from_dict({"attack": {}}).attack == AttackConfig()

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError, match="partition.k"):
            scenario_from_dict({"partition": {"n": 5, "k": 9}})
        with pytest.raises(ConfigError, match="target_class"):
            scenario_from_dict({"dataset": {"class_count": 3}, "partition": {"target_class": 7}})
        with pytest.raises(ConfigError, match="flip_to"):
            scenario_from_dict({"poison": {"k_p": 1, "flip_to": 0, "start_round": 1}})

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param({"protocol": {"m": 0}}, r"protocol\.m:", id="protocol.m"),
            pytest.param({"protocol": {"m": 61}}, r"protocol\.m:", id="protocol.m>n"),
            pytest.param({"protocol": {"rounds": 0}}, r"protocol\.rounds:", id="protocol.rounds"),
            pytest.param({"protocol": {"server_lr": 0.0}}, r"protocol\.server_lr:", id="protocol.server_lr"),
            pytest.param({"protocol": {"local_epochs": -1}}, r"protocol\.local_epochs:", id="protocol.local_epochs"),
            pytest.param({"protocol": {"local_lr": 0}}, r"protocol\.local_lr:", id="protocol.local_lr"),
            pytest.param({"protocol": {"clip_norm": 0.0}}, r"protocol\.clip_norm:", id="protocol.clip_norm"),
            pytest.param(
                {"protocol": {"denominator_mode": "median"}}, r"protocol\.denominator_mode:",
                id="protocol.denominator_mode",
            ),
            pytest.param({"attack": {"t_n": 0}}, r"attack\.t_n:", id="attack.t_n"),
            pytest.param({"attack": {"k_n": -1}}, r"attack\.k_n:", id="attack.k_n"),
            pytest.param({"attack": {"mode": "psychic"}}, r"attack\.mode:", id="attack.mode"),
            pytest.param(
                {"attack": {"mode": "encrypted_limited", "alpha_v": 1.0}}, r"attack\.visible_size:",
                id="attack.visible_size",
            ),
            pytest.param(
                {"attack": {"mode": "encrypted_limited", "visible_size": 5}}, r"attack\.alpha_v:",
                id="attack.alpha_v",
            ),
            # a visibility field is range-checked in every mode it is set in
            pytest.param(
                {"attack": {"mode": "encrypted", "visible_size": 10**11}}, r"attack\.visible_size:",
                id="attack.visible_size>n",
            ),
            pytest.param(
                {"attack": {"mode": "plain", "visible_size": 0}}, r"attack\.visible_size:",
                id="attack.visible_size=0",
            ),
            pytest.param(
                {"attack": {"mode": "encrypted", "alpha_v": 0.0}}, r"attack\.alpha_v:",
                id="attack.alpha_v=0",
            ),
            # the former PoisonPlan checks, with their old inputs
            pytest.param(
                {"poison": {"k_p": 1, "boost": -2.0, "flip_to": 1, "start_round": 1}}, r"poison\.boost:",
                id="poison.boost",
            ),
            pytest.param(
                {"poison": {"k_p": 1, "boost": 1.0, "flip_to": 0, "start_round": 1}}, r"poison\.flip_to:",
                id="poison.flip_to",
            ),
            pytest.param({"poison": {"start_round": -1}}, r"poison\.start_round:", id="poison.start_round"),
            # the synthetic pool covers the partition: the k + k_p holders'
            # target-class quotas, and every other row from the non-target
            # classes (defaults: 60 x 200 rows, 15 x 120 of them target rows)
            pytest.param({"partition": {"n": 10**9}}, r"partition\.n:", id="partition.n*local_size"),
            pytest.param({"dataset": {"class_count": 3}}, r"partition\.n:", id="partition.n*local_size-quotas"),
            pytest.param({"dataset": {"per_class": 1500}}, r"partition\.k:", id="partition.k*quota"),
            pytest.param(
                {"dataset": {"per_class": 2000}, "poison": {"k_p": 5, "start_round": 1}}, r"partition\.k:",
                id="partition.(k+k_p)*quota",
            ),
            pytest.param({"defense": {"t_s": 0}}, r"defense\.t_s:", id="defense.t_s"),
            # the class count is checked for every kind, not only synthetic
            pytest.param(
                {
                    "dataset": {
                        "kind": "idx", "class_count": 1, "train_images": "a.idx", "train_labels": "b.idx",
                        "test_images": "c.idx", "test_labels": "d.idx",
                    }
                },
                r"dataset\.class_count: must be >= 2", id="dataset.class_count-idx",
            ),
            pytest.param({"defense": {"k_s": -1}}, r"defense\.k_s:", id="defense.k_s"),
            # past the float range: named, not an OverflowError from the float rules
            pytest.param(
                {"partition": {"local_size": 10**400}}, r"partition\.local_size:", id="partition.local_size>float"
            ),
            pytest.param({"defense": {"k_s": 10**400}}, r"defense\.k_s:", id="defense.k_s>float"),
            pytest.param(
                {"defense": {"upsample_factor": 0.5}}, r"defense\.upsample_factor:", id="defense.upsample_factor"
            ),
            pytest.param({"defense": {"server_mode": "psychic"}}, r"defense\.server_mode:", id="defense.server_mode"),
            # the former UpsamplingDefender check, with its old inputs (n=10)
            pytest.param(
                {
                    "partition": {"n": 10, "k": 3},
                    "protocol": {"m": 4},
                    "defense": {"t_s": 1, "k_s": 5, "upsample_factor": 2.0},
                },
                r"defense\.k_s: need k_s \* upsample_factor < n",
                id="defense.k_s*upsample_factor",
            ),
        ],
    )
    def test_rule_rejected_with_its_path(self, data, message):
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "section, changes, message",
        [
            pytest.param("dataset", {"class_count": 1}, r"dataset\.class_count:", id="dataset"),
            pytest.param("partition", {"local_size": 0}, r"partition\.local_size:", id="partition"),
            pytest.param("model", {"activation": "gelu"}, r"model\.activation:", id="model"),
            pytest.param("protocol", {"m": 13}, r"protocol\.m:", id="protocol"),
            pytest.param("attack", {"t_n": 0}, r"attack\.t_n:", id="attack"),
            pytest.param("poison", {"boost": 0.0}, r"poison\.boost:", id="poison"),
            pytest.param("defense", {"t_s": 0}, r"defense\.t_s:", id="defense"),
            pytest.param(None, {"trials": 0}, r"trials:", id="top-level"),
        ],
    )
    def test_replace_breaking_a_rule_raises_at_the_replace(self, section, changes, message):
        # a derived scenario is checked where it is made, not where it runs
        cfg = tiny_scenario(defense=DefenseConfig(t_s=8, k_s=3))
        if section is not None:
            changes = {section: replace(getattr(cfg, section), **changes)}
        with pytest.raises(ConfigError, match=message):
            replace(cfg, **changes)

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="train_images"):
            scenario_from_dict({"dataset": {"kind": "idx"}})

    @settings(deadline=None)
    @given(scenarios())
    def test_to_dict_yaml_round_trip(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "scenario.yaml"
            path.write_text(yaml.safe_dump(cfg.to_dict()), encoding="utf-8")
            assert load_scenario(path) == cfg

    def test_checked_in_configs_load(self):
        root = pathlib.Path(__file__).resolve().parent.parent / "configs"
        std = load_scenario(root / "standard.yaml")
        assert std.partition.n == 60 and std.partition.k == 15
        assert std.protocol.rounds == 150
        smoke = load_scenario(root / "smoke.yaml")
        assert smoke.protocol.rounds == 10


class TestSweep:
    def test_zero_cell_equals_base_run(self, tmp_path):
        base = tiny_scenario(trials=1)
        cell = sweep_grid(base, (0,), (0,))[(0, 0)]
        direct = run_scenario(replace(base, poison=None))
        a = emit_metrics(cell, tmp_path / "cell")[0]
        b = emit_metrics(direct, tmp_path / "direct")[0]
        assert pathlib.Path(a).read_text() == pathlib.Path(b).read_text()

    def test_target_accuracy_nonincreasing_in_kn(self):
        base = tiny_scenario()
        res = sweep_grid(base, (0, 1, 3), (0,))
        accs = [res[(kn, 0)].mean_at("target_acc", 40) for kn in (0, 1, 3)]
        assert accs[1] <= accs[0] + 0.03
        assert accs[2] <= accs[1] + 0.03

    def test_zero_cell_keeps_base_clipping(self, tmp_path):
        base = tiny_scenario(trials=1)
        base = replace(base, protocol=replace(base.protocol, clip_norm=0.5))
        cell = sweep_grid(base, (0,), (0,))[(0, 0)]
        direct = run_scenario(replace(base, poison=None))
        assert cell.config.protocol.clip_norm == 0.5
        for a, b in zip(emit_metrics(cell, tmp_path / "cell"), emit_metrics(direct, tmp_path / "direct")):
            assert pathlib.Path(a).read_text() == pathlib.Path(b).read_text()

    def test_clipping_blunts_poison_axis(self):
        base = tiny_scenario()
        no_clip = sweep_grid(base, (0,), (2,))[(0, 2)]
        clip_base = replace(base, protocol=replace(base.protocol, clip_norm=1.0))
        clipped = sweep_grid(clip_base, (0,), (2,))[(0, 2)]
        assert clipped.mean_at("target_acc", 40) > no_clip.mean_at("target_acc", 40)

    def test_requires_targeted_attack(self):
        base = tiny_scenario(attack=None, poison=None)
        with pytest.raises(ConfigError, match="targeted"):
            sweep_grid(base, (0,), (0,))

    def test_repeated_value_runs_its_cell_once(self, monkeypatch):
        calls = []

        def counted(cfg):
            calls.append((cfg.attack.k_n, cfg.poison))
            return run_scenario(cfg)

        monkeypatch.setattr(harness, "run_scenario", counted)
        base = tiny_scenario(trials=1, protocol=ProtocolConfig(m=4, rounds=3, batch_size=5))
        res = sweep_grid(base, (1, 1), (0,))
        assert calls == [(1, None)]
        assert list(res) == [(1, 0)]

    def test_bad_cell_is_refused_before_any_trial(self, trial_calls):
        base = tiny_scenario(trials=1, protocol=ProtocolConfig(m=4, rounds=3, batch_size=5))
        with pytest.raises(ConfigError, match=r"attack\.k_n"):
            sweep_grid(base, (0, base.partition.n + 1), (0,))
        assert trial_calls == []

    @pytest.mark.parametrize("k_n, k_p", [((), (0,)), ((0,), ())])
    def test_empty_axis_rejected(self, k_n, k_p):
        with pytest.raises(ConfigError, match="--kn"):
            sweep_grid(tiny_scenario(), k_n, k_p)

    def test_emit_sweep_files(self, tmp_path):
        base = tiny_scenario(trials=1, protocol=ProtocolConfig(m=4, rounds=3, batch_size=5))
        res = sweep_grid(base, (0, 1), (0,))
        matrix = emit_sweep(res, tmp_path)
        lines = pathlib.Path(matrix).read_text().splitlines()
        assert lines[0].startswith("k_n,k_p,")
        assert len(lines) == 3
        assert (tmp_path / "cell_kn0_kp0.csv").exists()
        assert (tmp_path / "cell_kn1_kp0.csv").exists()
        assert (tmp_path / "cell_kn1_kp0_summary.json").exists()


# one watcher per observation mode
WATCH = (
    AttackConfig(mode="plain", t_n=3, k_n=3, target_set_size=30),
    AttackConfig(mode="encrypted", t_n=3, k_n=3, target_set_size=30),
    AttackConfig(mode="encrypted_limited", t_n=3, k_n=3, target_set_size=30, visible_size=5, alpha_v=2.0),
)


class TestWatchers:
    def defended_smoke(self):
        smoke = load_scenario(pathlib.Path(__file__).resolve().parent.parent / "configs" / "smoke.yaml")
        return replace(
            smoke,
            attack=replace(smoke.attack, mode="plain"),
            poison=PoisonConfig(k_p=2, boost=10.0),
            defense=DefenseConfig(t_s=3, k_s=2, upsample_factor=2.0, clip_norm=1.0),
        )

    def test_watchers_leave_the_run_as_it_is(self):
        cfg = self.defended_smoke()
        for seed in (7, 8):
            watched = run_trial(cfg, seed, WATCH)
            assert len(watched.watched_hits) == len(WATCH)
            assert all(len(hits) == cfg.protocol.rounds for hits in watched.watched_hits)
            assert replace(watched, watched_hits=()) == run_trial(cfg, seed)


class TestIdentifyBench:
    def test_runs_each_trial_through_run_trial(self, trial_calls):
        cfg = tiny_scenario(trials=3)
        identify_bench(cfg, (2, 5))
        assert trial_calls == [cfg.base_seed + i for i in range(cfg.trials)]

    def test_hits_are_the_watched_hits_at_the_checkpoints(self):
        cfg = tiny_scenario(trials=2)
        res = identify_bench(cfg, (2, 5, 8))
        bench_cfg = replace(cfg, attack=None, poison=None, protocol=replace(cfg.protocol, rounds=8))
        watch = tuple(
            AttackConfig(mode=mode, t_n=1, k_n=cfg.partition.k, target_set_size=cfg.attack.target_set_size)
            for mode in ("plain", "encrypted")
        )
        trials = run_scenario(bench_cfg, watch).trials
        for i, mode in enumerate(("plain", "encrypted")):
            for c in (2, 5, 8):
                assert res[mode][c] == [t.watched_hits[i][c - 1] for t in trials]

    def test_structure_and_determinism(self):
        cfg = tiny_scenario(trials=2)
        res = identify_bench(cfg, (2, 5, 8))
        assert set(res) == {"plain", "encrypted"}
        for mode in res:
            assert sorted(res[mode]) == [2, 5, 8]
            for hits in res[mode].values():
                assert len(hits) == 2
                assert all(0 <= h <= 3 for h in hits)
        again = identify_bench(cfg, (2, 5, 8))
        assert res == again

    def test_plain_identification_dominates_by_final_round(self):
        cfg = tiny_scenario(trials=2)
        res = identify_bench(cfg, (12,))
        plain = np.mean(res["plain"][12])
        encrypted = np.mean(res["encrypted"][12])
        assert plain >= encrypted

    def test_rejects_bad_checkpoints(self):
        with pytest.raises(ConfigError):
            identify_bench(tiny_scenario(), (0, 5))

    def test_rejects_zero_targets(self):
        cfg = tiny_scenario(partition=replace(tiny_scenario().partition, k=0))
        with pytest.raises(ConfigError, match=r"partition\.k"):
            identify_bench(cfg, (2,))
