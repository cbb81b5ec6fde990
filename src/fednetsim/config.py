"""Scenario configuration: the one schema, strict YAML loading, round-trip echo.

A scenario file is a YAML mapping with sections ``dataset``, ``partition``,
``model``, ``protocol`` and optional ``attack``, ``poison``, ``defense``,
plus top-level ``trials`` and ``base_seed``. The section types are also the
parameter types the simulator runs with: ``run_protocol`` takes a
``ProtocolConfig``, the attacker an ``AttackConfig`` and the defender a
``DefenseConfig``.

Every rule is checked once, here. Loading checks each value against its
field's annotation (no ``bool`` for a number, an integer is a float, a
float is finite, ``null`` only where ``| None`` allows it; nothing is
coerced), and :func:`validate_scenario` checks ranges and cross-field
consistency whenever a :class:`ScenarioConfig` is built, so a scenario
that exists is valid: one loaded from a file, and one derived from
another with ``dataclasses.replace``, is checked where it is made.
Unknown keys anywhere are errors. Failures raise :class:`ConfigError`
with the dotted path of the offending field.
"""

import sys
import types
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, get_args, get_origin

from fednetsim.datasets import holder_quota
from fednetsim.errors import ConfigError
from fednetsim.models import ACTIVATIONS

ATTACK_KINDS = ("targeted", "perfect_knowledge", "random_drop")
OBSERVATION_KINDS = ("plain", "encrypted", "encrypted_limited")
SERVER_MODES = ("plain", "aggregate_only")
DENOMINATOR_MODES = ("received_count", "fixed_m")


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic"
    class_count: int = 10
    input_dim: int = 10
    per_class: int = 4000
    separation: float = 1.6
    eval_per_class: int = 200
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None


@dataclass(frozen=True)
class PartitionConfig:
    n: int = 60
    k: int = 15
    target_class: int = 0
    alpha_t: float = 0.6
    alpha_d: float = 1.0
    local_size: int = 200


@dataclass(frozen=True)
class ModelConfig:
    hidden_dims: tuple[int, ...] = (64,)
    activation: str = "relu"


@dataclass(frozen=True)
class ProtocolConfig:
    """Server-side protocol parameters; the client count is the number of shards."""

    m: int = 10
    rounds: int = 150
    server_lr: float = 0.25
    local_epochs: int = 2
    local_lr: float = 0.1
    batch_size: int | None = 100
    clip_norm: float | None = None
    denominator_mode: str = "received_count"


@dataclass(frozen=True)
class AttackConfig:
    kind: str = "targeted"
    mode: str = "encrypted"
    t_n: int = 30
    k_n: int = 15
    refresh: bool = True
    target_set_size: int = 100
    visible_size: int | None = None
    alpha_v: float | None = None


@dataclass(frozen=True)
class PoisonConfig:
    k_p: int = 5
    boost: float = 10.0
    flip_to: int | None = None
    start_round: int | None = None


@dataclass(frozen=True)
class DefenseConfig:
    t_s: int = 30
    k_s: int = 15
    upsample_factor: float = 2.0
    server_mode: str = "plain"
    valid_set_size: int = 100
    clip_norm: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    attack: AttackConfig | None = None
    poison: PoisonConfig | None = None
    defense: DefenseConfig | None = None
    trials: int = 4
    base_seed: int = 1234

    def __post_init__(self):
        validate_scenario(self)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["model"]["hidden_dims"] = list(self.model.hidden_dims)
        return out


_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string", type(None): "null"}


def _fits(value, annotation) -> bool:
    """Whether a loaded value fits a field annotation as it is."""
    if isinstance(annotation, types.UnionType):
        return any(_fits(value, a) for a in get_args(annotation))
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        return isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        # finite as a float: no inf or nan, and no integer past the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, annotation)


def _describe(annotation) -> str:
    if isinstance(annotation, types.UnionType):
        return " or ".join(_describe(a) for a in get_args(annotation))
    if get_origin(annotation) is tuple:
        return f"list of {_describe(get_args(annotation)[0])}s"
    return _TYPE_NAMES[annotation]


def _build(cls, data: Any, path: str, prefix: str):
    """``cls`` from a loaded mapping; a section field recurses, and a null section keeps its default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    annotations = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(annotations)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown, key=str)}")
    kwargs = {}
    for name, value in data.items():
        annotation = annotations[name]
        # a section field is annotated with its dataclass X, or X | None when optional
        section = next((a for a in get_args(annotation) or (annotation,) if is_dataclass(a)), None)
        if section is None:
            if not _fits(value, annotation):
                raise ConfigError(f"{prefix}{name}: expected {_describe(annotation)}, got {value!r}")
            # A YAML list is the value of a tuple field.
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        elif value is not None:
            kwargs[name] = _build(section, value, prefix + name, f"{prefix}{name}.")
    return cls(**kwargs)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain mapping."""
    return _build(ScenarioConfig, data, "top level", "")


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario YAML file."""
    import yaml  # only loading a file needs PyYAML

    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if data is None:
        raise ConfigError(f"{path}: empty configuration")
    return scenario_from_dict(data)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def validate_scenario(cfg: ScenarioConfig):
    """Range and cross-field consistency checks with field-level messages.

    ``ScenarioConfig`` runs them when it is built, so calling this again on
    one is a no-op; it stays public as the list of rules.
    """
    ds, part, model, proto = cfg.dataset, cfg.partition, cfg.model, cfg.protocol

    _require(ds.kind in ("synthetic", "idx"), "dataset.kind: must be 'synthetic' or 'idx'")
    _require(ds.class_count >= 2, "dataset.class_count: must be >= 2")
    if ds.kind == "synthetic":
        _require(ds.input_dim >= 1, "dataset.input_dim: must be >= 1")
        _require(ds.per_class >= 1, "dataset.per_class: must be >= 1")
        _require(ds.eval_per_class >= 1, "dataset.eval_per_class: must be >= 1")
        _require(ds.separation >= 0, "dataset.separation: must be >= 0")
    else:
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            _require(getattr(ds, name) is not None, f"dataset.{name}: required for kind 'idx'")

    _require(part.n >= 1, "partition.n: must be >= 1")
    _require(0 <= part.k <= part.n, "partition.k: need 0 <= k <= n")
    _require(0 <= part.target_class < ds.class_count, "partition.target_class: out of range")
    _require(0 < part.alpha_t <= 1, "partition.alpha_t: must be in (0, 1]")
    _require(part.alpha_d > 0, "partition.alpha_d: must be > 0")
    _require(part.local_size >= 1, "partition.local_size: must be >= 1")
    # the partition's target quota (datasets.holder_quota) is computed in float arithmetic
    _require(part.local_size <= sys.float_info.max, "partition.local_size: must be within the float range")

    _require(model.activation in ACTIVATIONS, f"model.activation: must be one of {ACTIVATIONS}")
    _require(all(h >= 1 for h in model.hidden_dims), "model.hidden_dims: widths must be >= 1")

    _require(1 <= proto.m <= part.n, "protocol.m: need 1 <= m <= n")
    _require(proto.rounds >= 1, "protocol.rounds: must be >= 1")
    _require(proto.server_lr > 0, "protocol.server_lr: must be > 0")
    _require(proto.local_epochs >= 0, "protocol.local_epochs: must be >= 0")
    _require(proto.local_lr > 0, "protocol.local_lr: must be > 0")
    _require(
        proto.batch_size is None or proto.batch_size >= 1,
        "protocol.batch_size: must be >= 1 when set",
    )
    _require(
        proto.clip_norm is None or proto.clip_norm > 0,
        "protocol.clip_norm: must be > 0 when set",
    )
    _require(
        proto.denominator_mode in DENOMINATOR_MODES,
        f"protocol.denominator_mode: must be one of {DENOMINATOR_MODES}",
    )

    if cfg.attack is not None:
        atk = cfg.attack
        _require(atk.kind in ATTACK_KINDS, f"attack.kind: must be one of {ATTACK_KINDS}")
        _require(atk.k_n >= 0, "attack.k_n: must be >= 0")
        _require(atk.k_n <= part.n, "attack.k_n: cannot exceed n")
        _require(
            atk.visible_size is None or 1 <= atk.visible_size <= part.n,
            "attack.visible_size: need 1 <= visible_size <= n when set",
        )
        _require(atk.alpha_v is None or atk.alpha_v > 0, "attack.alpha_v: must be > 0 when set")
        if atk.kind == "targeted":
            _require(atk.mode in OBSERVATION_KINDS, f"attack.mode: must be one of {OBSERVATION_KINDS}")
            _require(atk.t_n >= 1, "attack.t_n: must be >= 1")
            _require(atk.target_set_size >= 1, "attack.target_set_size: must be >= 1")
            if atk.mode == "encrypted_limited":
                _require(atk.visible_size is not None, "attack.visible_size: required for encrypted_limited")
                _require(atk.alpha_v is not None, "attack.alpha_v: required for encrypted_limited")
        elif atk.kind == "perfect_knowledge":
            _require(atk.k_n <= part.k, "attack.k_n: perfect knowledge drops at most k target clients")

    if cfg.poison is not None:
        poi = cfg.poison
        _require(poi.k_p >= 0, "poison.k_p: must be >= 0")
        _require(poi.k_p + part.k <= part.n, "poison.k_p: need k + k_p <= n")
        _require(poi.boost > 0, "poison.boost: must be > 0")
        if poi.flip_to is not None:
            _require(
                0 <= poi.flip_to < ds.class_count and poi.flip_to != part.target_class,
                "poison.flip_to: must be a non-target class id",
            )
        if poi.start_round is None:
            _require(
                cfg.attack is not None and cfg.attack.kind == "targeted",
                "poison.start_round: required when no targeted attack provides t_n",
            )
        else:
            _require(poi.start_round >= 0, "poison.start_round: must be >= 0")

    if ds.kind == "synthetic":
        # The partition takes every shard's rows from the pool without
        # replacement: the k + k_p holders' quotas from the target class, and
        # every other row from the non-target classes.
        holders = part.k + (cfg.poison.k_p if cfg.poison is not None else 0)
        quotas = holders * holder_quota(part.alpha_t, part.local_size)
        pool = (ds.class_count - 1) * ds.per_class
        _require(
            part.n * part.local_size - quotas <= pool,
            f"partition.n: need n * local_size - (k + k_p) * ceil(alpha_t * local_size) <= "
            f"(class_count - 1) * per_class, the non-target classes' pool ({pool} rows)",
        )
        _require(
            quotas <= ds.per_class,
            f"partition.k: need (k + k_p) * ceil(alpha_t * local_size) <= per_class, "
            f"the target class's pool ({ds.per_class} rows)",
        )

    if cfg.defense is not None:
        dfn = cfg.defense
        _require(dfn.t_s >= 1, "defense.t_s: must be >= 1")
        _require(dfn.k_s >= 0, "defense.k_s: must be >= 0")
        _require(dfn.upsample_factor >= 1, "defense.upsample_factor: must be >= 1")
        _require(
            dfn.k_s < part.n and dfn.k_s * dfn.upsample_factor < part.n,
            "defense.k_s: need k_s * upsample_factor < n",
        )
        _require(dfn.server_mode in SERVER_MODES, f"defense.server_mode: must be one of {SERVER_MODES}")
        _require(dfn.valid_set_size >= 1, "defense.valid_set_size: must be >= 1")
        _require(
            dfn.clip_norm is None or dfn.clip_norm > 0,
            "defense.clip_norm: must be > 0 when set",
        )

    _require(cfg.trials >= 1, "trials: must be >= 1")
    _require(cfg.base_seed >= 0, "base_seed: must be >= 0")
