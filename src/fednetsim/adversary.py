"""Network-level attacker: observation, client identification, targeted dropping.

The attacker watches the protocol under one of three knowledge levels:

* ``plain`` - it sees every participant's transmitted local model, so it can
  score each client by how much that client's own model lowers the loss on
  a target-population sample.
* ``encrypted`` - it sees only who participated and the global model before
  and after the round; the round's single loss difference is credited to
  every participant.
* ``encrypted_limited`` - like ``encrypted``, but only a fixed visible
  subset of clients is ever observed.

Clients are ranked by the mean of their accumulated loss differences; the
top k are dropped in every round they participate after the observation
phase ends.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from fednetsim.config import AttackConfig
from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec, forward_eval
from fednetsim.protocol import LocalModels, LocalUpdate, RoundTrace, weighted_sample_without_replacement
from fednetsim.seeding import TAG_VISIBLE_DRAW, spawn_rng


class ContributionLedger:
    """Per-client running sums and counts of observed loss differences.

    Values are added in arrival order, so ``mean`` equals the left-to-right
    sum of a client's values divided by their count.
    """

    def __init__(self):
        self.sums: dict[int, float] = {}
        self.counts: dict[int, int] = {}

    def record(self, client_id: int, value: float):
        j = int(client_id)
        self.sums[j] = self.sums.get(j, 0.0) + float(value)
        self.counts[j] = self.counts.get(j, 0) + 1

    def rounds_seen(self, client_id: int) -> int:
        return self.counts.get(client_id, 0)

    def mean(self, client_id: int) -> float:
        return self.sums[client_id] / self.counts[client_id]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ContributionLedger)
            and self.sums == other.sums
            and self.counts == other.counts
        )


def sample_visible_set(
    n: int,
    target_client_ids,
    v: int,
    alpha_v: float,
    seed: int,
) -> frozenset[int]:
    """Fixed visible subset of v clients, biased toward target holders.

    Client weights are drawn from a Dirichlet whose concentration is
    ``alpha_v`` on target clients and 1.0 elsewhere, then v clients are
    sampled without replacement proportional to those weights. ``alpha_v``
    therefore controls how likely the visible set is to cover the clients
    that actually hold target-class data.
    """
    if not 1 <= v <= n:
        raise ValueError("need 1 <= v <= n")
    if alpha_v <= 0:
        raise ValueError("alpha_v must be > 0")
    targets = set(int(i) for i in target_client_ids)
    if any(not 0 <= i < n for i in targets):
        raise ValueError("target client ids out of range")
    rng = spawn_rng(seed, TAG_VISIBLE_DRAW)
    concentration = np.array([alpha_v if i in targets else 1.0 for i in range(n)])
    weights = rng.dirichlet(concentration)
    return frozenset(weighted_sample_without_replacement(rng, weights, v))


def record_round(
    ledger: ContributionLedger,
    trace: RoundTrace,
    models: Mapping[int, np.ndarray] | None,
    target_set: ExampleSet,
    spec: ModelSpec,
    visible: frozenset[int] | None = None,
) -> ContributionLedger:
    """Accumulate this round's loss differences into the ledger.

    ``models`` is the per-client model dict the observing party can see:
    the sent models for a plain network attacker, the received ones for a
    plain server, None under encrypted observation.

    With models, each participant j in ``models`` is credited separately
    with ``loss(global_before) - loss(models[j])`` on the target set.
    ``LocalModels`` are read with ``read_together``, so the deltas the
    round's store does not hold yet train together too.
    Without, the single global difference
    ``loss(global_before) - loss(global_after)`` is credited to every
    participant, or only to those in ``visible`` when a visible set is given.
    Either way, all the round's losses come from one stacked forward pass.
    """
    if models is not None:
        credited = [j for j in sorted(models) if j in trace.participants]
        if isinstance(models, LocalModels):
            compared = models.read_together(credited)
        else:
            compared = [models[j] for j in credited]
    else:
        credited = sorted(j for j in trace.participants if visible is None or j in visible)
        compared = [trace.global_after]
    loss_before, *losses = forward_eval(np.stack([trace.global_before, *compared]), spec, target_set).mean_loss
    if models is None:
        losses *= len(credited)  # the one global change is every credited client's
    for j, loss in zip(credited, losses):
        ledger.record(j, loss_before - loss)
    return ledger


def identify_clients(ledger: ContributionLedger, k_n: int) -> list[int]:
    """The k_n observed clients with the largest mean loss difference.

    Ties go to the smaller client id; if fewer than k_n clients were ever
    observed, all of them are returned, ranked.
    """
    if k_n < 0:
        raise ValueError("k_n must be >= 0")
    ranked = sorted(ledger.counts, key=lambda j: (-ledger.mean(j), j))
    return ranked[:k_n]


def drop_filter(
    updates: list[LocalUpdate], identified, t: int, t_n: int
) -> list[LocalUpdate]:
    """Remove identified clients' updates in rounds after t_n."""
    if t <= t_n:
        return list(updates)
    blocked = set(identified)
    return [u for u in updates if u.client_id not in blocked]


@dataclass(frozen=True)
class IdentificationScore:
    hits: int
    precision: float
    recall: float


def identification_score(identified, target_client_ids) -> IdentificationScore:
    """Overlap between an identified set and the true target holders."""
    z = set(identified)
    targets = set(target_client_ids)
    hits = len(z & targets)
    precision = hits / len(z) if z else 0.0
    recall = hits / len(targets) if targets else 0.0
    return IdentificationScore(hits, precision, recall)


class TargetedDropAttacker:
    """Stateful driver wiring identification and dropping into a protocol run.

    ``attack`` is a validated ``targeted`` attack section; ``target_set``
    is the attacker's target-population sample, and ``visible_set`` the
    clients an ``encrypted_limited`` attacker can see (None sees everyone).
    Feed it to ``run_protocol`` as both filter hook and observer. In
    encrypted modes the ledger is frozen for rounds in which fewer updates
    were received than sent: the attacker is the only filter, so it dropped
    them itself, and the aggregate it observes reflects its own
    interference, not client behavior.
    """

    def __init__(
        self,
        attack: AttackConfig,
        spec: ModelSpec,
        target_set: ExampleSet,
        visible_set: frozenset[int] | None = None,
    ):
        self.attack = attack
        self.spec = spec
        self.target_set = target_set
        self.visible_set = visible_set
        self.ledger = ContributionLedger()
        self.identified: list[int] = []

    def filter_updates(self, updates: list[LocalUpdate], t: int) -> list[LocalUpdate]:
        return drop_filter(updates, self.identified, t, self.attack.t_n)

    def observe(self, trace: RoundTrace):
        atk = self.attack
        if atk.mode == "plain":
            record_round(self.ledger, trace, trace.sent_models, self.target_set, self.spec)
        elif len(trace.received_models) == len(trace.participants):
            record_round(self.ledger, trace, None, self.target_set, self.spec, self.visible_set)
        if trace.t == atk.t_n or (atk.refresh and trace.t > atk.t_n):
            self.identified = identify_clients(self.ledger, atk.k_n)


class FixedSetDropper:
    """Baseline attacker dropping a fixed client set from the first round."""

    def __init__(self, drop_ids):
        self.identified = sorted(int(i) for i in drop_ids)

    def filter_updates(self, updates: list[LocalUpdate], t: int) -> list[LocalUpdate]:
        return drop_filter(updates, self.identified, t, 0)

    def observe(self, trace: RoundTrace):
        pass
