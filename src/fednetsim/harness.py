"""Experiment orchestration: scenario runs, sweeps, identification benchmarks.

``run_scenario`` executes a configured scenario for a number of independent
trials (seeds ``base_seed + i``), wiring the attack into the protocol's
filter hook, poisoning into the poison hook, and the defense into the
resample hook. ``sweep_grid`` crosses dropped-client and poisoned-client
counts, and ``identify_bench`` measures identification quality over
observation rounds for plain and encrypted adversaries.

Results are returned, not written: ``fednetsim.emit`` writes them to files,
byte-deterministic for a fixed configuration.
"""

from dataclasses import dataclass
from dataclasses import replace as dc_replace

import numpy as np

from fednetsim.adversary import (
    FixedSetDropper,
    TargetedDropAttacker,
    identification_score,
    sample_visible_set,
)
from fednetsim.config import AttackConfig, ConfigError, PoisonConfig, ScenarioConfig, validate_scenario
from fednetsim.datasets import ExampleSet, gen_synthetic, load_idx_dataset, partition, synthetic_labels
from fednetsim.defense import UpsamplingDefender
from fednetsim.models import ModelSpec
from fednetsim.poisoning import ModelReplacementPoisoner, PoisonPlan, default_flip_to, flip_labels
from fednetsim.protocol import EvalSets, RoundTrace, run_protocol
from fednetsim.seeding import (
    TAG_ATTACK,
    TAG_ATTACK_DSTAR,
    TAG_COMPROMISE,
    TAG_DATA,
    TAG_PARTITION,
    TAG_SERVER_DSTAR,
    TAG_VISIBLE,
    spawn_rng,
    spawn_seed,
)

SERIES_METRICS = ("target_acc", "target_loss", "overall_acc", "nontarget_acc")


@dataclass(frozen=True)
class TrialSeries:
    """Per-round metric series for one trial."""

    target_acc: list[float]
    target_loss: list[float]
    overall_acc: list[float]
    nontarget_acc: list[float]
    identified_hits: list[int]
    dropped_count: list[int]


@dataclass(frozen=True)
class RunSummary:
    """All trials of a scenario plus the configuration that produced them."""

    config: ScenarioConfig
    trials: list[TrialSeries]

    @property
    def rounds(self) -> int:
        return self.config.protocol.rounds

    @property
    def half_round(self) -> int:
        return max(1, self.rounds // 2)

    def metric_at(self, metric: str, round_index: int) -> list[float]:
        """Per-trial values of a metric at a 1-based round index."""
        return [getattr(t, metric)[round_index - 1] for t in self.trials]

    def mean_at(self, metric: str, round_index: int) -> float:
        values = self.metric_at(metric, round_index)
        return float(sum(values) / len(values))

    def scalars(self) -> dict:
        half = self.half_round
        out = {"per_trial": {}, "means": {}}
        for metric in SERIES_METRICS + ("identified_hits",):
            out["per_trial"][metric] = {
                "half": self.metric_at(metric, half),
                "final": self.metric_at(metric, self.rounds),
            }
            out["means"][metric] = {
                "half": self.mean_at(metric, half),
                "final": self.mean_at(metric, self.rounds),
            }
        out["half_round"] = half
        out["final_round"] = self.rounds
        return out


@dataclass(frozen=True)
class World:
    """Everything a trial runs in: model, client shards, eval data.

    ``compromised`` are the k_p target-class holders turned poisoners;
    their shards are label-flipped (``flip_labels``, to ``poison.flip_to``
    or else ``default_flip_to``), so they train like every other client.
    ``honest_targets`` are the remaining holders, the clients an attacker
    is scored on.
    """

    spec: ModelSpec
    shards: list[ExampleSet]
    compromised: tuple[int, ...]
    honest_targets: tuple[int, ...]
    eval_sets: EvalSets


def build_world(cfg: ScenarioConfig, trial_seed: int) -> World:
    """Data, model spec, partition (k + k_p holders), poisoners' flipped shards, eval sets.

    The partition reads only the training pool's labels, so only the rows
    its shards use are drawn (synthetic) or kept (IDX), end to end in shard
    order, and each shard is a slice of them.
    """
    ds, part = cfg.dataset, cfg.partition
    if ds.kind == "synthetic":
        labels = synthetic_labels(ds.class_count, ds.per_class)
    else:
        train = load_idx_dataset(ds.train_images, ds.train_labels, ds.class_count)
        test = load_idx_dataset(ds.test_images, ds.test_labels, ds.class_count)
        labels = train.y

    k_p = cfg.poison.k_p if cfg.poison is not None else 0
    plan = partition(
        labels,
        ds.class_count,
        part.n,
        part.k + k_p,
        part.target_class,
        part.alpha_t,
        part.alpha_d,
        part.local_size,
        spawn_seed(trial_seed, TAG_PARTITION),
    )
    keep = np.concatenate(plan.shards)
    if ds.kind == "synthetic":
        # One draw per trial: class by class, c's training rows and then its
        # held-out rows, so train and eval share the same class geometry and
        # differ only in sampled points.
        train, test = gen_synthetic(
            ds.class_count,
            ds.input_dim,
            ds.per_class,
            ds.eval_per_class,
            ds.separation,
            spawn_seed(trial_seed, TAG_DATA),
            keep,
        )
    else:
        train = train.subset(keep)
    spec = ModelSpec(
        input_dim=train.x.shape[1],
        hidden_dims=cfg.model.hidden_dims,
        class_count=ds.class_count,
        activation=cfg.model.activation,
    )

    holder_ids = list(plan.target_client_ids)
    ends = np.cumsum([len(idx) for idx in plan.shards])
    shards = [ExampleSet(train.x[a:b], train.y[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    compromised = ()
    if k_p > 0:
        rng = spawn_rng(trial_seed, TAG_COMPROMISE)
        compromised = tuple(sorted(int(i) for i in rng.choice(holder_ids, size=k_p, replace=False)))
        flip_to = cfg.poison.flip_to
        if flip_to is None:
            flip_to = default_flip_to(part.target_class, ds.class_count)
        for j in compromised:
            shards[j] = flip_labels(shards[j], part.target_class, flip_to)

    return World(
        spec=spec,
        shards=shards,
        compromised=compromised,
        honest_targets=tuple(i for i in holder_ids if i not in compromised),
        eval_sets=EvalSets(test, part.target_class),
    )


def _subsample(examples: ExampleSet, size: int, rng: np.random.Generator) -> ExampleSet:
    size = min(size, len(examples))
    idx = np.sort(rng.choice(len(examples), size=size, replace=False))
    return examples.subset(idx)


def run_trial(cfg: ScenarioConfig, trial_seed: int) -> TrialSeries:
    """One independent run of the configured scenario."""
    part = cfg.partition
    world = build_world(cfg, trial_seed)
    spec = world.spec
    honest_targets = world.honest_targets
    target_pool = world.eval_sets.target_set

    attacker = None
    if cfg.attack is not None:
        atk = cfg.attack
        if atk.kind == "targeted":
            visible = None
            if atk.mode == "encrypted_limited":
                visible = sample_visible_set(
                    part.n,
                    honest_targets,
                    atk.visible_size,
                    atk.alpha_v,
                    spawn_seed(trial_seed, TAG_VISIBLE),
                )
            dstar = _subsample(target_pool, atk.target_set_size, spawn_rng(trial_seed, TAG_ATTACK_DSTAR))
            attacker = TargetedDropAttacker(atk, spec, dstar, visible)
        else:
            rng = spawn_rng(trial_seed, TAG_ATTACK)
            if atk.kind == "perfect_knowledge":
                pool = list(honest_targets)
            else:
                pool = list(range(part.n))
            size = min(atk.k_n, len(pool))
            drop_ids = sorted(int(i) for i in rng.choice(pool, size=size, replace=False))
            attacker = FixedSetDropper(drop_ids)

    poisoner = None
    if world.compromised:
        start_round = cfg.poison.start_round if cfg.poison.start_round is not None else cfg.attack.t_n
        poisoner = ModelReplacementPoisoner(
            PoisonPlan(compromised_ids=world.compromised, boost=cfg.poison.boost, start_round=start_round)
        )

    defender = None
    proto = cfg.protocol
    if cfg.defense is not None:
        dfn = cfg.defense
        valid_set = _subsample(target_pool, dfn.valid_set_size, spawn_rng(trial_seed, TAG_SERVER_DSTAR))
        defender = UpsamplingDefender(dfn, spec, valid_set)
        if dfn.clip_norm is not None:
            proto = dc_replace(proto, clip_norm=dfn.clip_norm)

    hits_series: list[int] = []
    observers = []
    if attacker is not None:
        observers.append(attacker.observe)
    if defender is not None:
        observers.append(defender.observe)

    def snapshot_hits(trace: RoundTrace):
        if attacker is None:
            hits_series.append(0)
        else:
            hits_series.append(identification_score(attacker.identified, honest_targets).hits)

    observers.append(snapshot_hits)

    records = run_protocol(
        proto,
        world.shards,
        spec,
        world.eval_sets,
        trial_seed,
        filter_hook=attacker.filter_updates if attacker is not None else None,
        poison_hook=poisoner.poison_update if poisoner is not None else None,
        resample_hook=defender.resample if defender is not None else None,
        observers=observers,
    )

    return TrialSeries(
        target_acc=[r.target_acc for r in records],
        target_loss=[r.target_loss for r in records],
        overall_acc=[r.overall_acc for r in records],
        nontarget_acc=[r.nontarget_acc for r in records],
        identified_hits=hits_series,
        dropped_count=[len(r.participants) - len(r.received) for r in records],
    )


def run_scenario(cfg: ScenarioConfig) -> RunSummary:
    """Run all trials of a scenario (seeds ``base_seed + i``)."""
    validate_scenario(cfg)
    trials = [run_trial(cfg, cfg.base_seed + i) for i in range(cfg.trials)]
    return RunSummary(config=cfg, trials=trials)


def _cell_config(base: ScenarioConfig, k_n: int, k_p: int) -> ScenarioConfig:
    if base.attack is None or base.attack.kind != "targeted":
        raise ConfigError("sweep requires a base config with a targeted attack section")
    attack = dc_replace(base.attack, k_n=k_n)
    if k_p > 0:
        poison_base = base.poison if base.poison is not None else PoisonConfig()
        poison = dc_replace(poison_base, k_p=k_p)
    else:
        poison = None
    cfg = dc_replace(base, attack=attack, poison=poison)
    validate_scenario(cfg)
    return cfg


def sweep_grid(base: ScenarioConfig, k_n_values, k_p_values) -> dict[tuple[int, int], RunSummary]:
    """Cross product of distinct dropped and poisoned client counts; clipping is the base config's."""
    k_ns = sorted(set(int(v) for v in k_n_values))
    k_ps = sorted(set(int(v) for v in k_p_values))
    if not k_ns or not k_ps:
        raise ConfigError("sweep needs at least one --kn and one --kp value")
    return {(k_n, k_p): run_scenario(_cell_config(base, k_n, k_p)) for k_n in k_ns for k_p in k_ps}


def identify_bench(cfg: ScenarioConfig, checkpoint_rounds) -> dict[str, dict[int, list[int]]]:
    """Identification hit counts per mode and checkpoint round, per trial.

    Runs the protocol without any interference (training proceeds
    normally) next to a passive plain and a passive encrypted attacker
    (no filter hook, so they never drop), and scores what each has
    identified at every checkpoint; each names ``partition.k`` clients.
    Returns ``{mode: {round: [hits per trial]}}``.
    """
    validate_scenario(cfg)
    if cfg.partition.k == 0:
        raise ConfigError("identify-bench needs partition.k >= 1: recall over zero targets is undefined")
    checkpoints = sorted(set(int(c) for c in checkpoint_rounds))
    if not checkpoints or checkpoints[0] < 1:
        raise ConfigError("checkpoint rounds must be positive")
    bench_cfg = dc_replace(
        cfg,
        attack=None,
        poison=None,
        defense=None,
        protocol=dc_replace(cfg.protocol, rounds=checkpoints[-1]),
    )
    size = (cfg.attack or AttackConfig()).target_set_size

    modes = ("plain", "encrypted")
    results = {mode: {c: [] for c in checkpoints} for mode in modes}
    for i in range(bench_cfg.trials):
        trial_seed = bench_cfg.base_seed + i
        world = build_world(bench_cfg, trial_seed)
        dstar = _subsample(world.eval_sets.target_set, size, spawn_rng(trial_seed, TAG_ATTACK_DSTAR))
        watchers = {
            mode: TargetedDropAttacker(AttackConfig(mode=mode, t_n=1, k_n=cfg.partition.k), world.spec, dstar)
            for mode in modes
        }

        def score(trace: RoundTrace):
            if trace.t in checkpoints:
                for mode, watcher in watchers.items():
                    hits = identification_score(watcher.identified, world.honest_targets).hits
                    results[mode][trace.t].append(hits)

        observers = [w.observe for w in watchers.values()] + [score]
        run_protocol(
            bench_cfg.protocol, world.shards, world.spec, world.eval_sets, trial_seed, observers=observers
        )
    return results
