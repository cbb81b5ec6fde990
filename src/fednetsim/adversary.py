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

from dataclasses import dataclass

import numpy as np

from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec, forward_eval
from fednetsim.protocol import LocalUpdate, RoundTrace, weighted_sample_without_replacement
from fednetsim.seeding import spawn_rng

OBSERVATION_KINDS = ("plain", "encrypted", "encrypted_limited")


@dataclass(frozen=True)
class ObservationMode:
    """What the observer can see; ``visible_set`` only applies to encrypted_limited."""

    kind: str
    visible_set: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind not in OBSERVATION_KINDS:
            raise ValueError(f"kind must be one of {OBSERVATION_KINDS}")
        if self.kind == "encrypted_limited" and self.visible_set is None:
            raise ValueError("encrypted_limited requires a visible_set")


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


@dataclass(frozen=True)
class AttackPlan:
    """Targeted dropping campaign parameters."""

    t_n: int
    k_n: int
    mode: ObservationMode
    target_set: ExampleSet
    refresh: bool = True

    def __post_init__(self):
        if self.t_n < 1:
            raise ValueError("t_n must be >= 1")
        if self.k_n < 0:
            raise ValueError("k_n must be >= 0")


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
    rng = spawn_rng(seed, 5)
    concentration = np.array([alpha_v if i in targets else 1.0 for i in range(n)])
    weights = rng.dirichlet(concentration)
    return frozenset(weighted_sample_without_replacement(rng, weights, v))


def record_round(
    ledger: ContributionLedger,
    trace: RoundTrace,
    models: dict[int, np.ndarray] | None,
    mode: ObservationMode,
    target_set: ExampleSet,
    spec: ModelSpec,
) -> ContributionLedger:
    """Accumulate this round's loss differences into the ledger.

    ``models`` is the per-client model dict the observing party can see:
    the sent models for a network attacker, the received ones for a server,
    None under encrypted observation.

    Plain: each participant j in ``models`` is credited with
    ``loss(global_before) - loss(models[j])`` on the target set.
    Encrypted: the single global difference
    ``loss(global_before) - loss(global_after)`` is credited to every
    (visible) participant.
    """
    loss_before = forward_eval(trace.global_before, spec, target_set).mean_loss
    if mode.kind == "plain":
        if models is None:
            raise ValueError("plain observation requires per-client local models")
        for j in sorted(models):
            if j not in trace.participants:
                continue
            loss_local = forward_eval(models[j], spec, target_set).mean_loss
            ledger.record(j, loss_before - loss_local)
        return ledger

    visible = trace.participants
    if mode.kind == "encrypted_limited":
        visible = tuple(j for j in visible if j in mode.visible_set)
    loss_after = forward_eval(trace.global_after, spec, target_set).mean_loss
    change = loss_before - loss_after
    for j in sorted(visible):
        ledger.record(j, change)
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

    Feed it to ``run_protocol`` as both filter hook and observer. In
    encrypted modes the ledger is frozen for rounds in which the attacker
    itself dropped updates: the aggregate it observes in those rounds
    reflects its own interference, not client behavior.
    """

    def __init__(self, plan: AttackPlan, spec: ModelSpec):
        self.plan = plan
        self.spec = spec
        self.ledger = ContributionLedger()
        self.identified: list[int] = []
        self._dropped_last = 0

    def filter_updates(self, updates: list[LocalUpdate], t: int) -> list[LocalUpdate]:
        kept = drop_filter(updates, self.identified, t, self.plan.t_n)
        self._dropped_last = len(updates) - len(kept)
        return kept

    def observe(self, trace: RoundTrace):
        mode = self.plan.mode
        if mode.kind == "plain":
            record_round(self.ledger, trace, trace.sent_models, mode, self.plan.target_set, self.spec)
        elif self._dropped_last == 0:
            record_round(self.ledger, trace, None, mode, self.plan.target_set, self.spec)
        if trace.t == self.plan.t_n or (self.plan.refresh and trace.t > self.plan.t_n):
            self.identified = identify_clients(self.ledger, self.plan.k_n)
        self._dropped_last = 0


class FixedSetDropper:
    """Baseline attacker dropping a fixed client set from the first round."""

    def __init__(self, drop_ids):
        self.identified = sorted(int(i) for i in drop_ids)
        self._blocked = set(self.identified)

    def filter_updates(self, updates: list[LocalUpdate], t: int) -> list[LocalUpdate]:
        return [u for u in updates if u.client_id not in self._blocked]

    def observe(self, trace: RoundTrace):
        pass
