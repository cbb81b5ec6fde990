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
phase ends. ``LedgerObserver`` is the one observation path, for the
attacker and the defending server (``fednetsim.defense``) alike.
"""

from dataclasses import dataclass, field

import numpy as np

from fednetsim.config import AttackConfig
from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec, forward_eval
from fednetsim.protocol import LocalUpdate, RoundTrace, weighted_sample_without_replacement
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

    def mean(self, client_id: int) -> float:
        return self.sums[client_id] / self.counts[client_id]


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


def identification_score(identified, target_client_ids) -> int:
    """Hits: how many of the identified clients are true target holders."""
    return len(set(identified) & set(target_client_ids))


@dataclass(eq=False)
class LedgerObserver:
    """A party that credits clients with loss differences on ``target_set`` and ranks them.

    The attacker and the server are both one; only ``view``, what the party
    sees of a round, differs:

    * ``sent`` - the local model of every participant (a ``plain`` attacker);
    * ``received`` - the local models of the ``received`` ids, the ones that
      reached the server (a ``plain`` server);
    * ``aggregate`` - who took part and the global model before and after
      (an encrypted attacker, or a server behind secure aggregation).

    A model view credits each client j of its ids with
    ``loss(global_before) - loss(model_j)``, reading the models through the
    trace's ``local_models``; the aggregate view credits each participant
    with ``loss(global_before) - loss(global_after)``. With ``visible``,
    only the ids in it are credited. With ``skip_dropped_rounds``, a round
    with fewer ids received than participants is not recorded. The ``k``
    clients of largest mean credit are identified at round ``start`` and,
    with ``refresh``, after every later round. A round's losses come from
    one stacked forward pass.
    """

    view: str
    spec: ModelSpec
    target_set: ExampleSet
    k: int
    start: int
    refresh: bool = True
    visible: frozenset[int] | None = None
    skip_dropped_rounds: bool = False
    ledger: ContributionLedger = field(default_factory=ContributionLedger, init=False)
    identified: list[int] = field(default_factory=list, init=False)

    def observe(self, trace: RoundTrace):
        if not (self.skip_dropped_rounds and len(trace.received) < len(trace.participants)):
            self._credit(trace)
        if trace.t == self.start or (self.refresh and trace.t > self.start):
            self.identified = identify_clients(self.ledger, self.k)

    def _credit(self, trace: RoundTrace):
        aggregate = self.view == "aggregate"
        ids = trace.received if self.view == "received" else trace.participants
        credited = [j for j in ids if self._sees(j)]
        if not credited:
            return
        compared = [trace.global_after] if aggregate else trace.local_models(credited)
        stack = np.stack([trace.global_before, *compared])
        loss_before, *losses = forward_eval(stack, self.spec, self.target_set).mean_loss
        if aggregate:
            losses *= len(credited)  # the one global change is every credited client's
        for j, loss in zip(credited, losses):
            self.ledger.record(j, loss_before - loss)

    def _sees(self, client_id: int) -> bool:
        return self.visible is None or client_id in self.visible


class TargetedDropAttacker(LedgerObserver):
    """A network attacker that identifies target holders and drops their updates after t_n.

    ``attack`` is a validated ``targeted`` attack section; ``target_set``
    is the attacker's target-population sample, and ``visible_set`` the
    clients an ``encrypted_limited`` attacker can see (None sees everyone).
    Feed it to ``run_protocol`` as both filter hook and observer. An
    encrypted attacker skips the rounds it dropped updates in: it is the
    only filter, so the aggregate it sees reflects its own interference.
    """

    def __init__(
        self,
        attack: AttackConfig,
        spec: ModelSpec,
        target_set: ExampleSet,
        visible_set: frozenset[int] | None = None,
    ):
        plain = attack.mode == "plain"
        view = "sent" if plain else "aggregate"
        super().__init__(
            view, spec, target_set, attack.k_n, attack.t_n, attack.refresh, visible_set, skip_dropped_rounds=not plain
        )

    def filter_updates(self, updates: list[LocalUpdate], t: int) -> list[LocalUpdate]:
        return drop_filter(updates, self.identified, t, self.start)


class FixedSetDropper:
    """Baseline attacker dropping a fixed client set from the first round; it observes nothing.

    It takes the drop ids in any order and keeps them as sorted ints.
    """

    def __init__(self, drop_ids):
        self.identified = sorted(int(i) for i in drop_ids)

    def filter_updates(self, updates: list[LocalUpdate], t: int) -> list[LocalUpdate]:
        return drop_filter(updates, self.identified, t, 0)
