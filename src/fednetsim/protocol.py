"""Federated Averaging engine.

Each round: sample m participants from the round's selection distribution,
train each locally, let the attack hooks replace trained deltas (poisoning)
or remove updates (dropping), then apply mean aggregation
``f_t = f_{t-1} + lr * sum(deltas) / denom`` with optional per-update L2
clipping. The denominator is either the configured m (``fixed_m``) or the
number of updates that actually arrived (``received_count``). The new
global model is then evaluated on the held-out data, and the round leaves
through one ``RoundTrace``, evaluation included, handed to each observer.

Deltas are summed in ascending client-id order and every random draw comes
from a stream keyed on (seed, round, client), so a run is a pure function
of its configuration and seed.

An update is computed only when it is aggregated or observed: a dropped
update that no observer reads is never trained, and the poison hook is
never called for it. Hooks must therefore be pure functions of their
arguments; when, and whether, one is called for a dropped client is not
part of the contract. A round keeps its deltas in its own store, which
trains each client at most once: each read of it (the received updates
once the filter has run, ``RoundTrace.local_models`` or a
``LocalUpdate.delta``) trains the clients not stored yet as one
``models.local_train`` stack and applies the poison hook to each. Every
shard has one length, and each row is the same bits in any stack.

A round's state (its training, updates, evaluations and trace) lives only
for its round: the run keeps only the current global model, so round t's
arrays are freed before round t+1 trains, unless an observer keeps the
trace.
"""

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from fednetsim.config import ProtocolConfig
from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec, correct_count, forward_eval, init_model, local_train, mean_loss, one_blas_thread
from fednetsim.seeding import TAG_INIT, TAG_SELECT, TAG_TRAIN, spawn_rng, spawn_seed


class LocalUpdate:
    """Client ``client_id``'s parameter delta for a round, read from the round's store.

    ``deltas(ids)`` is the round's store: it returns the deltas of ``ids``,
    in order. Reading ``delta`` trains the client if the store does not
    hold it yet; the store keeps it, so a second read trains nothing.
    """

    __slots__ = ("client_id", "_deltas")

    def __init__(self, client_id: int, deltas: Callable[[Sequence[int]], list[np.ndarray]]):
        self.client_id = client_id
        self._deltas = deltas

    @property
    def delta(self) -> np.ndarray:
        return self._deltas([self.client_id])[0]


@dataclass(frozen=True)
class RoundTrace:
    """Everything that leaves round t, handed to each observer in turn.

    ``participants`` are the ids that took part and ``received`` the ones
    whose update survived adversarial dropping, both sorted.
    ``local_models(ids)`` returns the local models of ``ids``, in order, as
    their clients transmitted them; in a protocol run it reads the round's
    own store of deltas, so a model that is not also received is trained
    only if an observer reads it, and the ones read together train
    together. The hooks that produce the updates must be pure functions of
    their arguments; the poison hook may not be called for a dropped client.

    The last four fields evaluate ``global_after`` on the ``EvalSets``
    (``nontarget_acc`` is 0.0 when every row is of the target class); only
    the harness's per-trial series reads them. A party (attacker or
    defending server, a ``LedgerObserver``) reads only its view: ``t``,
    the ids, the global models and ``local_models``.
    """

    t: int
    participants: tuple[int, ...]
    received: tuple[int, ...]
    global_before: np.ndarray
    global_after: np.ndarray
    local_models: Callable[[Sequence[int]], list[np.ndarray]]
    target_loss: float
    target_acc: float
    overall_acc: float
    nontarget_acc: float


@dataclass(frozen=True)
class EvalSets:
    """Held-out data evaluated after every round.

    ``target_set`` and ``nontarget_set`` are the rows of ``test_set`` whose
    label is, and is not, ``target_class``, in order; ``nontarget_set`` is
    None when every row is of the target class. A set whose rows are one
    contiguous block of ``test_set`` is a view of it, and only a scattered
    set is a copy. A synthetic test set is stored class by class, so both
    sets are views when the target class is its first or last class.
    """

    test_set: ExampleSet
    target_class: int
    target_set: ExampleSet = field(init=False)
    nontarget_set: ExampleSet | None = field(init=False)

    def __post_init__(self):
        is_target = self.test_set.y == self.target_class
        if not is_target.any():
            raise ValueError(f"test set has no example of target class {self.target_class}")
        object.__setattr__(self, "target_set", self._rows(is_target))
        object.__setattr__(self, "nontarget_set", self._rows(~is_target) if not is_target.all() else None)

    def _rows(self, mask: np.ndarray) -> ExampleSet:
        idx = np.flatnonzero(mask)
        first, last = int(idx[0]), int(idx[-1])
        if last - first + 1 == len(idx):
            return ExampleSet(self.test_set.x[first : last + 1], self.test_set.y[first : last + 1])
        return self.test_set.subset(idx)


def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, size: int
) -> list[int]:
    """Sequential draws proportional to ``weights``, renormalizing after each.

    Each draw inverts the normalized cumulative weights at one uniform, as
    ``rng.choice(len(weights), p=weights / weights.sum())`` does, so the
    selections equal a loop of such calls.
    """
    remaining = np.asarray(weights, dtype=np.float64).copy()
    if not np.all(np.isfinite(remaining) & (remaining >= 0)):
        raise ValueError("weights must be finite and >= 0")
    if size > int(np.count_nonzero(remaining > 0)):
        raise ValueError(f"cannot draw {size} items from {np.count_nonzero(remaining > 0)} with positive weight")
    chosen = []
    for u in rng.random(size):
        cdf = np.cumsum(remaining / remaining.sum())
        cdf /= cdf[-1]
        idx = int(cdf.searchsorted(u, side="right"))
        chosen.append(idx)
        remaining[idx] = 0.0
    return chosen


def select_participants(n: int, m: int, p: np.ndarray, seed: int, t: int) -> list[int]:
    """m distinct client ids drawn without replacement proportional to ``p``.

    Deterministic per (seed, t); the returned ids are sorted. The sampler
    rejects negative entries and fewer than m positive ones.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"p must have length {n}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("p must sum to 1 within 1e-9")
    rng = spawn_rng(seed, TAG_SELECT, t)
    return sorted(weighted_sample_without_replacement(rng, p, m))


def aggregate(
    f_prev: np.ndarray,
    updates: Sequence[LocalUpdate],
    server_lr: float,
    clip_norm: float | None = None,
    denominator: int | None = None,
) -> np.ndarray:
    """Mean aggregation of update deltas onto the previous global model.

    ``updates`` are objects with ``client_id`` and ``delta``, such as a
    round's ``LocalUpdate``s; each delta is read once. With clipping
    enabled each delta is scaled by ``min(1, C/||delta||_2)`` before
    averaging. The summed deltas are divided by ``denominator``, or by the
    received count ``len(updates)`` when it is None. An empty update list
    leaves the model unchanged. Raises ``ValueError`` if an update or the
    aggregated model has a non-finite entry.
    """
    if not updates:
        return f_prev.copy()
    total = np.zeros_like(f_prev)
    for u in sorted(updates, key=lambda u: u.client_id):
        delta = u.delta
        if delta.shape != f_prev.shape:
            raise ValueError(
                f"update from client {u.client_id} has shape {delta.shape}, expected {f_prev.shape}"
            )
        if not np.isfinite(delta).all():
            raise ValueError(f"update from client {u.client_id} contains non-finite entries")
        if clip_norm is not None:
            norm = float(np.linalg.norm(delta))
            if norm > clip_norm:
                delta = delta * (clip_norm / norm)
        total += delta
    if denominator is None:
        denominator = len(updates)
    f_next = f_prev + server_lr * (total / denominator)
    if not np.isfinite(f_next).all():
        raise ValueError("aggregated model contains non-finite entries")
    return f_next


FilterHook = Callable[[list[LocalUpdate], int], list[LocalUpdate]]
PoisonHook = Callable[[int, int, np.ndarray], np.ndarray | None]
ResampleHook = Callable[[int, int], np.ndarray]
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
) -> None:
    """Run the full protocol for ``cfg.rounds`` rounds, handing each round's trace to the observers.

    Client j holds ``shards[j]``, so there are ``len(shards)`` clients, and
    every client trains the same way. Every shard has one length, as every
    world ``harness.build_world`` makes does; ragged shards raise
    ``ValueError`` before anything trains. Hooks: ``resample_hook(t, n)``
    returns round t's selection distribution (uniform without the hook);
    ``poison_hook(t, client_id, delta)`` receives a client's trained delta
    and may return a replacement for it; ``filter_hook(updates, t)``
    removes dropped updates before aggregation and returns a sub-list of
    the updates it is handed; reading an update's delta trains it, so a
    filter that decides by client id alone saves the training of what it
    drops. All hooks default to identity behavior.
    Each round's ``RoundTrace``, evaluation included, goes to the
    ``observers`` in order; it is all a run reports, so a caller that wants
    a round's values observes them. A global model whose target loss is not
    finite raises ``ValueError`` before any observer sees its round.
    The rounds run on one OpenBLAS thread (``models.one_blas_thread``); the
    previous thread count is back when this returns or raises.

    Each round runs in its own call, so nothing it builds outlives it
    unless an observer keeps the trace.
    """
    lengths = {len(shard) for shard in shards}
    if len(lengths) > 1:
        raise ValueError(f"every shard must have one length, got lengths {sorted(lengths)}")
    n = len(shards)
    observers = tuple(observers)
    uniform = np.full(n, 1.0 / n)
    denominator = cfg.m if cfg.denominator_mode == "fixed_m" else None

    def play_round(t: int, f: np.ndarray) -> np.ndarray:
        """Round t from global model f: observe its trace and return the next global model."""
        p = resample_hook(t, n) if resample_hook is not None else uniform
        participants = select_participants(n, cfg.m, p, seed, t)

        stored: dict[int, np.ndarray] = {}

        def deltas(ids: Sequence[int]) -> list[np.ndarray]:
            """The deltas of ``ids``, in order: the round's store, trained and poisoned once per client.

            The ids not stored yet train as one stack; client j's SGD stream
            is keyed on (seed, t, j), so its delta is the same bits in any stack.
            """
            new = [j for j in ids if j not in stored]
            if new:
                stack = local_train(
                    f, spec, [shards[j] for j in new], cfg.local_epochs, cfg.local_lr,
                    cfg.batch_size, [spawn_seed(seed, TAG_TRAIN, t, j) for j in new],
                )
                for j, delta in zip(new, stack):
                    poisoned = poison_hook(t, j, delta) if poison_hook is not None else None
                    stored[j] = delta if poisoned is None else poisoned
            return [stored[j] for j in ids]

        updates = [LocalUpdate(j, deltas) for j in participants]
        received = filter_hook(list(updates), t) if filter_hook is not None else updates
        received_ids = [u.client_id for u in received]
        # train what the server receives before, not inside, aggregation
        deltas(received_ids)
        f_next = aggregate(f, received, cfg.server_lr, cfg.clip_norm, denominator)

        # The target and non-target rows partition the test set, so their
        # correct counts give the overall accuracy without a third pass.
        # The loss and the target count read one logits array; the
        # non-target logits are read for their correct count only, so no
        # loss is computed on them.
        target, nontarget = eval_sets.target_set, eval_sets.nontarget_set
        logits = forward_eval(f_next, spec, target)
        target_loss = float(mean_loss(logits, target.y))
        if not np.isfinite(target_loss):
            raise ValueError(f"round {t}: the global model's target loss is not finite (the model diverged)")
        target_correct = int(correct_count(logits, target.y))
        nontarget_correct = 0
        if nontarget is not None:
            nontarget_correct = int(correct_count(forward_eval(f_next, spec, nontarget), nontarget.y))

        trace = RoundTrace(
            t=t,
            participants=tuple(participants),
            received=tuple(sorted(received_ids)),
            global_before=f,
            global_after=f_next,
            local_models=lambda ids: [f + delta for delta in deltas(ids)],
            target_loss=target_loss,
            target_acc=target_correct / len(target),
            overall_acc=(target_correct + nontarget_correct) / len(eval_sets.test_set),
            nontarget_acc=nontarget_correct / len(nontarget) if nontarget is not None else 0.0,
        )
        for obs in observers:
            obs(trace)
        return f_next

    f = init_model(spec, spawn_seed(seed, TAG_INIT))
    # One BLAS thread, so the bits do not depend on the core count; a
    # diverging model ends the run through the finiteness checks, not
    # through numpy's overflow warnings.
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.rounds + 1):
            f = play_round(t, f)
