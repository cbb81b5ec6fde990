"""Experiment orchestration: scenario runs, sweeps, benchmarks, metrics files.

``run_scenario`` executes a configured scenario for a number of independent
trials (seeds ``base_seed + i``), wiring the attack into the protocol's
filter hook, poisoning into the poison hook, and the defense into the
resample hook. ``sweep_grid`` crosses dropped-client and poisoned-client
counts, and ``identify_bench`` measures identification quality over
observation rounds for plain and encrypted adversaries.

All emitted files are byte-deterministic for a fixed configuration.
"""

import json
import os
from dataclasses import asdict, dataclass
from dataclasses import replace as dc_replace

import numpy as np

from fednetsim.adversary import (
    AttackPlan,
    FixedSetDropper,
    ObservationMode,
    TargetedDropAttacker,
    identification_score,
    sample_visible_set,
)
from fednetsim.config import ConfigError, PoisonConfig, ScenarioConfig, validate_scenario
from fednetsim.datasets import DatasetSource, ExampleSet, gen_synthetic, load_idx_dataset, partition
from fednetsim.defense import DefensePlan, UpsamplingDefender
from fednetsim.models import ModelSpec
from fednetsim.poisoning import ModelReplacementPoisoner, PoisonPlan, default_flip_to, flip_labels
from fednetsim.protocol import EvalSets, ProtocolConfig, RoundTrace, run_protocol
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
CSV_HEADER = "round,trial,target_acc,target_loss,overall_acc,identified_hits,dropped_count"


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

    def metric_at(self, metric: str, round_index: int) -> list[float]:
        """Per-trial values of a metric at a 1-based round index."""
        return [getattr(t, metric)[round_index - 1] for t in self.trials]

    def mean_at(self, metric: str, round_index: int) -> float:
        values = self.metric_at(metric, round_index)
        return float(sum(values) / len(values))

    def scalars(self) -> dict:
        half = max(1, self.rounds // 2)
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
    """Everything a trial runs in: model, client shards, eval data, protocol.

    ``compromised`` are the k_p target-class holders turned poisoners;
    ``honest_targets`` are the remaining holders, the clients an attacker
    is scored on.
    """

    spec: ModelSpec
    shards: list[ExampleSet]
    compromised: tuple[int, ...]
    honest_targets: tuple[int, ...]
    eval_sets: EvalSets
    proto: ProtocolConfig


def build_world(cfg: ScenarioConfig, trial_seed: int) -> World:
    """Data, model spec, partition (k + k_p holders), poisoners, eval sets, protocol."""
    ds, part = cfg.dataset, cfg.partition
    if ds.kind == "synthetic":
        # One pooled draw per trial, split per class, so train and eval share
        # the same class geometry and differ only in sampled points.
        pooled = gen_synthetic(
            ds.class_count,
            ds.input_dim,
            ds.per_class + ds.eval_per_class,
            ds.separation,
            spawn_seed(trial_seed, TAG_DATA),
        )
        by_class = [np.flatnonzero(pooled.y == c) for c in range(ds.class_count)]
        train_idx = np.concatenate([idx[: ds.per_class] for idx in by_class])
        eval_idx = np.concatenate([idx[ds.per_class :] for idx in by_class])
        train_src = DatasetSource(pooled.x[train_idx], pooled.y[train_idx], ds.class_count)
        test_src = DatasetSource(pooled.x[eval_idx], pooled.y[eval_idx], ds.class_count)
    else:
        train_src = load_idx_dataset(ds.train_images, ds.train_labels, ds.class_count)
        test_src = load_idx_dataset(ds.test_images, ds.test_labels, ds.class_count)
    spec = ModelSpec(
        input_dim=train_src.x.shape[1],
        hidden_dims=cfg.model.hidden_dims,
        class_count=train_src.class_count,
        activation=cfg.model.activation,
    )

    k_p = cfg.poison.k_p if cfg.poison is not None else 0
    plan = partition(
        train_src,
        part.n,
        part.k + k_p,
        part.target_class,
        part.alpha_t,
        part.alpha_d,
        part.local_size,
        spawn_seed(trial_seed, TAG_PARTITION),
    )
    holder_ids = list(plan.target_client_ids)
    compromised = ()
    if k_p > 0:
        rng = spawn_rng(trial_seed, TAG_COMPROMISE)
        compromised = tuple(sorted(int(i) for i in rng.choice(holder_ids, size=k_p, replace=False)))

    return World(
        spec=spec,
        shards=[train_src.subset(idx) for idx in plan.shards],
        compromised=compromised,
        honest_targets=tuple(i for i in holder_ids if i not in compromised),
        eval_sets=EvalSets(
            target_set=test_src.class_examples(part.target_class),
            test_set=test_src.all_examples(),
            target_class=part.target_class,
        ),
        proto=ProtocolConfig(n=part.n, **asdict(cfg.protocol)),
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
            if atk.mode == "encrypted_limited":
                visible = sample_visible_set(
                    part.n,
                    honest_targets,
                    atk.visible_size,
                    atk.alpha_v,
                    spawn_seed(trial_seed, TAG_VISIBLE),
                )
                mode = ObservationMode("encrypted_limited", visible)
            else:
                mode = ObservationMode(atk.mode)
            dstar = _subsample(target_pool, atk.target_set_size, spawn_rng(trial_seed, TAG_ATTACK_DSTAR))
            attacker = TargetedDropAttacker(
                AttackPlan(t_n=atk.t_n, k_n=atk.k_n, mode=mode, target_set=dstar, refresh=atk.refresh),
                spec,
            )
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
        flip_to = (
            cfg.poison.flip_to
            if cfg.poison.flip_to is not None
            else default_flip_to(part.target_class, spec.class_count)
        )
        start_round = (
            cfg.poison.start_round if cfg.poison.start_round is not None else cfg.attack.t_n
        )
        flipped = {
            j: flip_labels(world.shards[j], part.target_class, flip_to) for j in world.compromised
        }
        poisoner = ModelReplacementPoisoner(
            PoisonPlan(
                compromised_ids=world.compromised,
                boost=cfg.poison.boost,
                target_class=part.target_class,
                flip_to=flip_to,
                start_round=start_round,
            ),
            spec,
            flipped,
            cfg.protocol.local_epochs,
            cfg.protocol.local_lr,
            cfg.protocol.batch_size,
        )

    defender = None
    proto = world.proto
    if cfg.defense is not None:
        dfn = cfg.defense
        valid_set = _subsample(target_pool, dfn.valid_set_size, spawn_rng(trial_seed, TAG_SERVER_DSTAR))
        defender = UpsamplingDefender(
            DefensePlan(
                t_s=dfn.t_s,
                k_s=dfn.k_s,
                upsample_factor=dfn.upsample_factor,
                valid_set=valid_set,
                server_mode=dfn.server_mode,
            ),
            spec,
            part.n,
        )
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


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_metrics(summary: RunSummary, out_dir, prefix: str = "metrics") -> tuple[str, str]:
    """Write the per-round CSV and the JSON summary; returns their paths.

    The CSV has one row per (round, trial); the JSON echoes the scenario
    configuration verbatim alongside per-trial and mean scalars at rounds
    T/2 and T.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{prefix}.csv")
    json_path = os.path.join(out_dir, f"{prefix}_summary.json")

    lines = [CSV_HEADER]
    for trial_idx, series in enumerate(summary.trials):
        for r in range(summary.rounds):
            lines.append(
                ",".join(
                    [
                        str(r + 1),
                        str(trial_idx),
                        _fmt(series.target_acc[r]),
                        _fmt(series.target_loss[r]),
                        _fmt(series.overall_acc[r]),
                        str(series.identified_hits[r]),
                        str(series.dropped_count[r]),
                    ]
                )
            )
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    payload = {"config": summary.config.to_dict(), **summary.scalars()}
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _cell_config(base: ScenarioConfig, k_n: int, k_p: int, clip_on: bool) -> ScenarioConfig:
    if base.attack is None or base.attack.kind != "targeted":
        raise ConfigError("sweep requires a base config with a targeted attack section")
    attack = dc_replace(base.attack, k_n=k_n)
    if k_p > 0:
        poison_base = base.poison if base.poison is not None else PoisonConfig()
        poison = dc_replace(poison_base, k_p=k_p)
    else:
        poison = None
    clip = (base.protocol.clip_norm if base.protocol.clip_norm is not None else 1.0) if clip_on else None
    protocol = dc_replace(base.protocol, clip_norm=clip)
    cfg = base.replace(attack=attack, poison=poison, protocol=protocol)
    validate_scenario(cfg)
    return cfg


def sweep_grid(
    base: ScenarioConfig,
    k_n_values,
    k_p_values,
    clip_on: bool = False,
) -> dict[tuple[int, int], RunSummary]:
    """Cross product of dropped and poisoned client counts."""
    results = {}
    for k_n in k_n_values:
        for k_p in k_p_values:
            results[(int(k_n), int(k_p))] = run_scenario(_cell_config(base, k_n, k_p, clip_on))
    return results


def emit_sweep(results: dict[tuple[int, int], RunSummary], out_dir) -> str:
    """Write one CSV per sweep cell plus the combined matrix file."""
    os.makedirs(out_dir, exist_ok=True)
    matrix_lines = [
        "k_n,k_p,target_acc_half_mean,target_acc_final_mean,"
        "overall_acc_final_mean,nontarget_acc_final_mean"
    ]
    for (k_n, k_p) in sorted(results):
        summary = results[(k_n, k_p)]
        emit_metrics(summary, out_dir, prefix=f"cell_kn{k_n}_kp{k_p}")
        half = max(1, summary.rounds // 2)
        matrix_lines.append(
            ",".join(
                [
                    str(k_n),
                    str(k_p),
                    _fmt(summary.mean_at("target_acc", half)),
                    _fmt(summary.mean_at("target_acc", summary.rounds)),
                    _fmt(summary.mean_at("overall_acc", summary.rounds)),
                    _fmt(summary.mean_at("nontarget_acc", summary.rounds)),
                ]
            )
        )
    matrix_path = os.path.join(out_dir, "sweep_matrix.csv")
    with open(matrix_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(matrix_lines) + "\n")
    return matrix_path


def identify_bench(
    cfg: ScenarioConfig, checkpoint_rounds, k_n: int | None = None
) -> dict[str, dict[int, list[int]]]:
    """Identification hit counts per mode and checkpoint round, per trial.

    Runs the protocol without any interference (training proceeds
    normally) next to a passive plain and a passive encrypted attacker
    (no filter hook, so they never drop), and scores what each has
    identified at every checkpoint. Returns ``{mode: {round: [hits per trial]}}``.
    """
    validate_scenario(cfg)
    checkpoints = sorted(set(int(c) for c in checkpoint_rounds))
    if not checkpoints or checkpoints[0] < 1:
        raise ConfigError("checkpoint rounds must be positive")
    if k_n is None:
        k_n = cfg.partition.k
    bench_cfg = cfg.replace(
        attack=None,
        poison=None,
        defense=None,
        protocol=dc_replace(cfg.protocol, rounds=checkpoints[-1]),
    )
    size = cfg.attack.target_set_size if cfg.attack is not None else 100

    modes = ("plain", "encrypted")
    results = {mode: {c: [] for c in checkpoints} for mode in modes}
    for i in range(bench_cfg.trials):
        trial_seed = bench_cfg.base_seed + i
        world = build_world(bench_cfg, trial_seed)
        dstar = _subsample(world.eval_sets.target_set, size, spawn_rng(trial_seed, TAG_ATTACK_DSTAR))
        watchers = {
            mode: TargetedDropAttacker(
                AttackPlan(t_n=1, k_n=k_n, mode=ObservationMode(mode), target_set=dstar), world.spec
            )
            for mode in modes
        }

        def score(trace: RoundTrace):
            if trace.t in checkpoints:
                for mode, watcher in watchers.items():
                    hits = identification_score(watcher.identified, world.honest_targets).hits
                    results[mode][trace.t].append(hits)

        observers = [w.observe for w in watchers.values()] + [score]
        run_protocol(world.proto, world.shards, world.spec, world.eval_sets, trial_seed, observers=observers)
    return results


def emit_identify_bench(results: dict, k: int, out_dir) -> tuple[str, str]:
    """Write identification benchmark CSV and JSON summary."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "identify_bench.csv")
    json_path = os.path.join(out_dir, "identify_bench_summary.json")
    lines = ["mode,round,trial,hits,recall"]
    means: dict[str, dict[str, float]] = {}
    for mode in sorted(results):
        for rnd in sorted(results[mode]):
            hits_list = results[mode][rnd]
            for trial_idx, hits in enumerate(hits_list):
                lines.append(
                    ",".join([mode, str(rnd), str(trial_idx), str(hits), _fmt(hits / k)])
                )
            means.setdefault(mode, {})[str(rnd)] = float(sum(hits_list) / len(hits_list))
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"k": k, "mean_hits": means}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
