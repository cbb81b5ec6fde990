"""Model-replacement poisoning from compromised clients.

A compromised client holds a shard built exactly like a target client's,
except every target-class label is flipped to one fixed other class
(``flip_labels``; the world builder flips it). It trains like every other
client, so theta_star is ordinary local training on the flipped shard, and
its transmitted update is ``boost * (theta_star - f_prev)``; the boost
factor is what lets a single client overpower mean aggregation.
"""

from dataclasses import dataclass

import numpy as np

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
    that shard exactly, and the delta scales linearly in ``boost``. A run
    does not call it: the protocol trains the compromised client and
    ``ModelReplacementPoisoner`` boosts the result. It is the reference
    that a run's compromised updates are tested against.
    """
    if boost <= 0:
        raise ValueError("boost must be > 0")
    return boost * local_train(f_prev, spec, [poisoned_shard], epochs, lr, batch_size, [seed])[0]


class ModelReplacementPoisoner:
    """Poison hook boosting compromised clients' updates during a run.

    The protocol trains compromised clients like everyone else, on the
    flipped shards the world gives them; the hook multiplies their delta by
    the boost only in rounds after ``start_round``, so before the campaign
    begins they behave as protocol-conforming clients with poisoned data.
    """

    def __init__(self, plan: PoisonPlan):
        self.plan = plan

    def poison_update(self, t: int, client_id: int, delta: np.ndarray) -> np.ndarray | None:
        if client_id not in self.plan.compromised_ids:
            return None
        return self.plan.boost * delta if t > self.plan.start_round else delta
