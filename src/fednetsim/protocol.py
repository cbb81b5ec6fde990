"""Federated Averaging engine.

Each round: sample m participants from the current selection distribution,
train each locally, let the attack hooks replace (poisoning) or remove
(dropping) updates, then apply mean aggregation
``f_t = f_{t-1} + lr * sum(deltas) / denom`` with optional per-update L2
clipping. The denominator is either the configured m (``fixed_m``) or the
number of updates that actually arrived (``received_count``).

Deltas are summed in ascending client-id order and every random draw comes
from a stream keyed on (seed, round, client), so a run is a pure function
of its configuration and seed.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec, forward_eval, init_model, local_train
from fednetsim.seeding import TAG_INIT, TAG_SELECT, TAG_TRAIN, spawn_rng, spawn_seed

DENOMINATOR_MODES = ("received_count", "fixed_m")


@dataclass(frozen=True)
class ProtocolConfig:
    """Server-side protocol parameters."""

    n: int
    m: int
    rounds: int
    server_lr: float
    local_epochs: int
    local_lr: float
    batch_size: int | None = None
    clip_norm: float | None = None
    denominator_mode: str = "received_count"

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.server_lr <= 0:
            raise ValueError("server_lr must be > 0")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")
        if self.local_lr <= 0:
            raise ValueError("local_lr must be > 0")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0 when set")
        if self.denominator_mode not in DENOMINATOR_MODES:
            raise ValueError(f"denominator_mode must be one of {DENOMINATOR_MODES}")


@dataclass(frozen=True)
class LocalUpdate:
    """One client's parameter delta for a round."""

    client_id: int
    delta: np.ndarray


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one round, including post-round evaluation."""

    t: int
    participants: tuple[int, ...]
    received: tuple[int, ...]
    target_loss: float
    target_acc: float
    overall_acc: float
    nontarget_acc: float


@dataclass(frozen=True)
class RoundTrace:
    """Full per-round information handed to observers (attacker, defender).

    ``sent_models`` are the local models as transmitted by every
    participant (visible on the wire); ``received_models`` are the subset
    that survived adversarial dropping (visible to the server).
    """

    t: int
    participants: tuple[int, ...]
    global_before: np.ndarray
    global_after: np.ndarray
    sent_models: dict[int, np.ndarray]
    received_models: dict[int, np.ndarray]


@dataclass(frozen=True)
class EvalSets:
    """Held-out data evaluated after every round."""

    target_set: ExampleSet
    test_set: ExampleSet
    target_class: int


def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, size: int
) -> list[int]:
    """Sequential draws proportional to ``weights``, renormalizing after each."""
    remaining = np.asarray(weights, dtype=np.float64).copy()
    if size > int(np.count_nonzero(remaining > 0)):
        raise ValueError(f"cannot draw {size} items from {np.count_nonzero(remaining > 0)} with positive weight")
    chosen = []
    for _ in range(size):
        probs = remaining / remaining.sum()
        idx = int(rng.choice(len(remaining), p=probs))
        chosen.append(idx)
        remaining[idx] = 0.0
    return chosen


def select_participants(n: int, m: int, p: np.ndarray, seed: int, t: int) -> list[int]:
    """m distinct client ids drawn without replacement proportional to ``p``.

    Deterministic per (seed, t); the returned ids are sorted.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"p must have length {n}")
    if np.any(p < 0):
        raise ValueError("p entries must be >= 0")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("p must sum to 1 within 1e-9")
    if int(np.count_nonzero(p > 0)) < m:
        raise ValueError(f"fewer than m={m} clients have positive selection probability")
    rng = spawn_rng(seed, TAG_SELECT, t)
    return sorted(weighted_sample_without_replacement(rng, p, m))


def aggregate(
    f_prev: np.ndarray,
    updates: Sequence[LocalUpdate],
    server_lr: float,
    clip_norm: float | None = None,
    denominator_mode: str = "received_count",
    m: int | None = None,
) -> np.ndarray:
    """Mean aggregation of update deltas onto the previous global model.

    With clipping enabled each delta is scaled by ``min(1, C/||delta||_2)``
    before averaging. An empty update list leaves the model unchanged.
    """
    if denominator_mode not in DENOMINATOR_MODES:
        raise ValueError(f"denominator_mode must be one of {DENOMINATOR_MODES}")
    if denominator_mode == "fixed_m" and m is None:
        raise ValueError("fixed_m mode requires m")
    if not updates:
        return f_prev.copy()
    total = np.zeros_like(f_prev)
    for u in sorted(updates, key=lambda u: u.client_id):
        if u.delta.shape != f_prev.shape:
            raise ValueError(
                f"update from client {u.client_id} has shape {u.delta.shape}, expected {f_prev.shape}"
            )
        if not np.isfinite(u.delta).all():
            raise ValueError(f"update from client {u.client_id} contains non-finite entries")
        delta = u.delta
        if clip_norm is not None:
            norm = float(np.linalg.norm(delta))
            if norm > clip_norm:
                delta = delta * (clip_norm / norm)
        total += delta
    denom = m if denominator_mode == "fixed_m" else len(updates)
    return f_prev + server_lr * (total / denom)


FilterHook = Callable[[list[LocalUpdate], int], list[LocalUpdate]]
PoisonHook = Callable[[int, int, np.ndarray, int], np.ndarray | None]
ResampleHook = Callable[[int, int], np.ndarray | None]
Observer = Callable[[RoundTrace], None]


def run_protocol(
    cfg: ProtocolConfig,
    shards: Sequence[ExampleSet],
    spec: ModelSpec,
    eval_sets: EvalSets,
    seed: int,
    filter_hook: FilterHook | None = None,
    poison_hook: PoisonHook | None = None,
    resample_hook: ResampleHook | None = None,
    observers: Iterable[Observer] = (),
    init_params: np.ndarray | None = None,
) -> list[RoundRecord]:
    """Run the full protocol for ``cfg.rounds`` rounds and record each one.

    Hooks: ``resample_hook(t, n)`` may return the selection distribution for
    round t (None keeps uniform); ``poison_hook(t, client_id, f_prev, seed)``
    may return a replacement delta for a compromised client; ``filter_hook``
    removes dropped updates before aggregation. All hooks default to
    identity behavior.
    """
    if len(shards) != cfg.n:
        raise ValueError(f"expected {cfg.n} shards, got {len(shards)}")
    observers = tuple(observers)

    f = init_params.copy() if init_params is not None else init_model(spec, spawn_seed(seed, TAG_INIT))
    uniform = np.full(cfg.n, 1.0 / cfg.n)

    test_y = eval_sets.test_set.y
    nontarget_idx = np.flatnonzero(test_y != eval_sets.target_class)
    nontarget_set = eval_sets.test_set.subset(nontarget_idx) if len(nontarget_idx) else None

    records = []
    for t in range(1, cfg.rounds + 1):
        p = None
        if resample_hook is not None:
            p = resample_hook(t, cfg.n)
        participants = select_participants(cfg.n, cfg.m, uniform if p is None else p, seed, t)

        updates = []
        for j in participants:
            train_seed = spawn_seed(seed, TAG_TRAIN, t, j)
            delta = None
            if poison_hook is not None:
                delta = poison_hook(t, j, f, train_seed)
            if delta is None:
                delta = local_train(
                    f, spec, shards[j], cfg.local_epochs, cfg.local_lr, cfg.batch_size, train_seed
                )
            updates.append(LocalUpdate(j, delta))

        received = filter_hook(list(updates), t) if filter_hook is not None else updates
        f_next = aggregate(f, received, cfg.server_lr, cfg.clip_norm, cfg.denominator_mode, cfg.m)

        target_eval = forward_eval(f_next, spec, eval_sets.target_set)
        overall_eval = forward_eval(f_next, spec, eval_sets.test_set)
        nontarget_acc = (
            forward_eval(f_next, spec, nontarget_set).accuracy if nontarget_set is not None else 0.0
        )

        trace = RoundTrace(
            t=t,
            participants=tuple(participants),
            global_before=f,
            global_after=f_next,
            sent_models={u.client_id: f + u.delta for u in updates},
            received_models={u.client_id: f + u.delta for u in received},
        )
        for obs in observers:
            obs(trace)

        records.append(
            RoundRecord(
                t=t,
                participants=tuple(participants),
                received=tuple(sorted(u.client_id for u in received)),
                target_loss=target_eval.mean_loss,
                target_acc=target_eval.accuracy,
                overall_acc=overall_eval.accuracy,
                nontarget_acc=nontarget_acc,
            )
        )
        f = f_next
    return records
