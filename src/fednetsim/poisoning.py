"""Model-replacement poisoning from compromised clients.

A compromised client holds a shard built exactly like a target client's,
except every target-class label is flipped to one fixed other class. Its
transmitted update is ``boost * (theta_star - f_prev)`` where theta_star is
the result of honest local training on the flipped shard; the boost factor
is what lets a single client overpower mean aggregation.
"""

from dataclasses import dataclass

import numpy as np

from fednetsim.config import ProtocolConfig
from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec, local_train


@dataclass(frozen=True)
class PoisonPlan:
    """What a trial derives from a validated poison section."""

    compromised_ids: tuple[int, ...]
    boost: float
    start_round: int


def default_flip_to(target_class: int, class_count: int) -> int:
    return (target_class + 1) % class_count


def flip_labels(shard: ExampleSet, target_class: int, flip_to: int) -> ExampleSet:
    """Relabel every target-class example to ``flip_to``, preserving order."""
    if flip_to == target_class:
        raise ValueError("flip_to must differ from target_class")
    y = shard.y.copy()
    y[y == target_class] = flip_to
    return ExampleSet(shard.x, y)


def craft_poison_update(
    f_prev: np.ndarray,
    spec: ModelSpec,
    poisoned_shard: ExampleSet,
    epochs: int,
    lr: float,
    boost: float,
    seed: int,
    batch_size: int | None = None,
) -> np.ndarray:
    """Boosted replacement delta: ``boost * (theta_star - f_prev)``.

    theta_star comes from ordinary local training on the (already
    label-flipped) shard, so ``boost=1`` reproduces an honest update on
    that shard exactly, and the delta scales linearly in ``boost``.
    """
    if boost <= 0:
        raise ValueError("boost must be > 0")
    raw = local_train(f_prev, spec, poisoned_shard, epochs, lr, batch_size, seed)
    return boost * raw


class ModelReplacementPoisoner:
    """Poison hook replacing compromised clients' updates during a run.

    Compromised clients always train on their flipped shard; the boost is
    applied only in rounds after ``start_round``, so before the campaign
    begins they behave as protocol-conforming clients with poisoned data.
    They train with the protocol's local epochs, learning rate and batch size.
    """

    def __init__(
        self,
        plan: PoisonPlan,
        spec: ModelSpec,
        flipped_shards: dict[int, ExampleSet],
        protocol: ProtocolConfig,
    ):
        missing = set(plan.compromised_ids) - set(flipped_shards)
        if missing:
            raise ValueError(f"no flipped shard for compromised clients {sorted(missing)}")
        self.plan = plan
        self.spec = spec
        self.flipped_shards = flipped_shards
        self.protocol = protocol

    def poison_update(
        self, t: int, client_id: int, f_prev: np.ndarray, seed: int
    ) -> np.ndarray | None:
        if client_id not in self.flipped_shards:
            return None
        boost = self.plan.boost if t > self.plan.start_round else 1.0
        proto = self.protocol
        return craft_poison_update(
            f_prev,
            self.spec,
            self.flipped_shards[client_id],
            proto.local_epochs,
            proto.local_lr,
            boost,
            seed,
            proto.batch_size,
        )
