"""Experiment orchestration: scenario runs, sweeps, identification benchmarks.

``run_scenario`` is the one loop over trial seeds (``base_seed + i``). Each
``run_trial`` wires the attack into the protocol's filter hook, poisoning
into the poison hook, the defense into the resample hook, and any passive
watchers (targeted attackers that observe but never drop) in as observers.
The trial's ``TrialSeries`` is filled by one more observer, after theirs.
Before the first trial, every trial's partition is cut from the labels
alone, so a pool that a trial's fills run dry is a configuration error,
not a failure after earlier trials have run. ``sweep_grid`` crosses
dropped-client and poisoned-client counts, and ``identify_bench`` is a run
with a plain and an encrypted watcher.

Results are returned, not written: ``fednetsim.emit`` writes them to files,
byte-deterministic for a fixed configuration.
"""

from dataclasses import dataclass
from dataclasses import replace as dc_replace
from functools import reduce
from operator import add

import numpy as np

from fednetsim.adversary import (
    FixedSetDropper,
    LedgerObserver,
    TargetedDropAttacker,
    identification_score,
    sample_visible_set,
)
from fednetsim.config import AttackConfig, PoisonConfig, ScenarioConfig
from fednetsim.datasets import (
    ExampleSet,
    PartitionError,
    PartitionPlan,
    gen_synthetic,
    load_idx_dataset,
    partition,
    synthetic_labels,
)
from fednetsim.defense import UpsamplingDefender
from fednetsim.errors import ConfigError
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


@dataclass(frozen=True)
class TrialSeries:
    """Per-round metric series for one trial."""

    target_acc: list[float]
    target_loss: list[float]
    overall_acc: list[float]
    nontarget_acc: list[float]
    identified_hits: list[int]
    dropped_count: list[int]
    # per watcher, in ``watch`` order: its hits on the honest targets each round
    watched_hits: tuple[list[int], ...] = ()


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
        """Per-trial values of a metric at a 1-based round index in ``[1, rounds]``."""
        if not 1 <= round_index <= self.rounds:
            raise ValueError(f"round_index: must be in [1, {self.rounds}], got {round_index}")
        return [getattr(t, metric)[round_index - 1] for t in self.trials]

    def mean_at(self, metric: str, round_index: int) -> float:
        """Mean over trials, summed left to right: the same bits on every Python version."""
        values = self.metric_at(metric, round_index)
        return float(reduce(add, values, 0.0) / len(values))


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


def _partition(cfg: ScenarioConfig, labels: np.ndarray, trial_seed: int) -> PartitionPlan:
    """The trial's partition (k + k_p holders): the one call ``build_world`` and ``_check_pools`` share."""
    part = cfg.partition
    k_p = cfg.poison.k_p if cfg.poison is not None else 0
    return partition(
        labels,
        cfg.dataset.class_count,
        part.n,
        part.k + k_p,
        part.target_class,
        part.alpha_t,
        part.alpha_d,
        part.local_size,
        spawn_seed(trial_seed, TAG_PARTITION),
    )


def _check_pools(cfg: ScenarioConfig):
    """Cut every trial's partition from the training pool's labels; a dry pool is a ``ConfigError``.

    Validation bounds only the pools' totals, and a trial's Dirichlet fills
    can still run a class dry; the error names that trial's seed.
    """
    ds = cfg.dataset
    if ds.kind == "synthetic":
        labels = synthetic_labels(ds.class_count, ds.per_class)
    else:
        # read with its images, so a bad image file is reported as ``build_world`` reports it
        labels = load_idx_dataset(ds.train_images, ds.train_labels, ds.class_count).y
    for trial_seed in range(cfg.base_seed, cfg.base_seed + cfg.trials):
        try:
            _partition(cfg, labels, trial_seed)
        except PartitionError as exc:
            raise ConfigError(f"trial seed {trial_seed}: {exc}") from exc


def build_world(cfg: ScenarioConfig, trial_seed: int) -> World:
    """Data, model spec, partition (k + k_p holders), poisoners' flipped shards, eval sets.

    The partition reads only the training pool's labels, so only the rows
    its shards use are drawn (synthetic) or kept (IDX), end to end in shard
    order; the shards are ``n`` equal-length views of them, in client order.
    """
    ds, part = cfg.dataset, cfg.partition
    if ds.kind == "synthetic":
        labels = synthetic_labels(ds.class_count, ds.per_class)
    else:
        train = load_idx_dataset(ds.train_images, ds.train_labels, ds.class_count)
        test = load_idx_dataset(ds.test_images, ds.test_labels, ds.class_count)
        labels = train.y

    k_p = cfg.poison.k_p if cfg.poison is not None else 0
    plan = _partition(cfg, labels, trial_seed)
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

    holder_ids = plan.target_client_ids
    shards = [ExampleSet(x, y) for x, y in zip(np.split(train.x, part.n), np.split(train.y, part.n))]
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


def _targeted_attacker(atk: AttackConfig, world: World, n: int, trial_seed: int) -> TargetedDropAttacker:
    """A targeted attacker on its own D* sample (and, for ``encrypted_limited``, visible set)."""
    visible = None
    if atk.mode == "encrypted_limited":
        visible = sample_visible_set(
            n, world.honest_targets, atk.visible_size, atk.alpha_v, spawn_seed(trial_seed, TAG_VISIBLE)
        )
    dstar = _subsample(world.eval_sets.target_set, atk.target_set_size, spawn_rng(trial_seed, TAG_ATTACK_DSTAR))
    return TargetedDropAttacker(atk, world.spec, dstar, visible)


def run_trial(cfg: ScenarioConfig, trial_seed: int, watch: tuple[AttackConfig, ...] = ()) -> TrialSeries:
    """One independent run of the configured scenario.

    Each ``watch`` section is built into a targeted attacker that observes
    but is never the filter hook, so it leaves the run as it is; its
    per-round hits are the series' ``watched_hits``. Every per-round value
    of the series comes from one observer, run after every party's: the
    round's evaluation and dropped count off the ``RoundTrace``, and each
    scored party's hits once it has observed the round.
    """
    part = cfg.partition
    world = build_world(cfg, trial_seed)
    spec = world.spec
    honest_targets = world.honest_targets
    target_pool = world.eval_sets.target_set

    attacker = None
    if cfg.attack is not None:
        atk = cfg.attack
        if atk.kind == "targeted":
            attacker = _targeted_attacker(atk, world, part.n, trial_seed)
        else:
            rng = spawn_rng(trial_seed, TAG_ATTACK)
            pool = honest_targets if atk.kind == "perfect_knowledge" else range(part.n)
            attacker = FixedSetDropper(rng.choice(pool, size=min(atk.k_n, len(pool)), replace=False))
    watchers = [_targeted_attacker(w, world, part.n, trial_seed) for w in watch]

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

    scored = [attacker, *watchers]
    series = TrialSeries([], [], [], [], [], [], watched_hits=tuple([] for _ in watchers))

    def record_round(trace: RoundTrace):
        for name in ("target_acc", "target_loss", "overall_acc", "nontarget_acc"):
            getattr(series, name).append(getattr(trace, name))
        series.dropped_count.append(len(trace.participants) - len(trace.received))
        for hits, s in zip((series.identified_hits, *series.watched_hits), scored):
            hits.append(0 if s is None else identification_score(s.identified, honest_targets))

    # the series observes last, so a round's hits score what the parties identified after it
    observers = [p.observe for p in (*scored, defender) if isinstance(p, LedgerObserver)]
    run_protocol(
        proto,
        world.shards,
        spec,
        world.eval_sets,
        trial_seed,
        filter_hook=attacker.filter_updates if attacker is not None else None,
        poison_hook=poisoner.poison_update if poisoner is not None else None,
        resample_hook=defender.resample if defender is not None else None,
        observers=[*observers, record_round],
    )
    return series


def run_scenario(cfg: ScenarioConfig, watch: tuple[AttackConfig, ...] = ()) -> RunSummary:
    """Run all trials of a scenario (seeds ``base_seed + i``), each with the ``watch`` watchers."""
    _check_pools(cfg)
    trials = [run_trial(cfg, cfg.base_seed + i, watch) for i in range(cfg.trials)]
    return RunSummary(config=cfg, trials=trials)


def _cell_config(base: ScenarioConfig, k_n: int, k_p: int) -> ScenarioConfig:
    if base.attack is None or base.attack.kind != "targeted":
        raise ConfigError("sweep requires a base config with a targeted attack section")
    attack = dc_replace(base.attack, k_n=k_n)
    # k_p = 0 is the unpoisoned cell; any other count, a negative one too, is checked as a section
    poison = dc_replace(base.poison or PoisonConfig(), k_p=k_p) if k_p != 0 else None
    return dc_replace(base, attack=attack, poison=poison)


def sweep_grid(base: ScenarioConfig, k_n_values, k_p_values) -> dict[tuple[int, int], RunSummary]:
    """Cross product of distinct dropped and poisoned client counts; clipping is the base config's."""
    k_ns = sorted(set(int(v) for v in k_n_values))
    k_ps = sorted(set(int(v) for v in k_p_values))
    if not k_ns or not k_ps:
        raise ConfigError("sweep needs at least one --kn and one --kp value")
    # a cell is checked as it is built, and its pools after, so a bad one is refused before any trial runs
    cells = {(k_n, k_p): _cell_config(base, k_n, k_p) for k_n in k_ns for k_p in k_ps}
    for cfg in cells.values():
        _check_pools(cfg)
    return {cell: run_scenario(cfg) for cell, cfg in cells.items()}


def identify_bench(cfg: ScenarioConfig, checkpoint_rounds) -> dict[str, dict[int, list[int]]]:
    """Identification hit counts per mode and checkpoint round, per trial.

    Runs the scenario without attack, poisoning or defense (training
    proceeds normally) with a passive plain and a passive encrypted
    watcher, and scores what each has identified at every checkpoint; each
    names ``partition.k`` clients. Returns ``{mode: {round: [hits per trial]}}``.
    """
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
    watch = tuple(AttackConfig(mode=m, t_n=1, k_n=cfg.partition.k, target_set_size=size) for m in modes)
    trials = run_scenario(bench_cfg, watch).trials
    return {
        mode: {c: [t.watched_hits[i][c - 1] for t in trials] for c in checkpoints}
        for i, mode in enumerate(modes)
    }
