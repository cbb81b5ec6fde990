"""Shared scenario factories for harness-level tests, hand-built round traces and updates, and one-model evaluation."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import fednetsim.harness as harness
from fednetsim.config import (
    AttackConfig,
    DatasetConfig,
    ModelConfig,
    PartitionConfig,
    PoisonConfig,
    ProtocolConfig,
    ScenarioConfig,
)
from fednetsim.models import correct_count, forward_eval, mean_loss
from fednetsim.protocol import RoundTrace


def tiny_scenario(**overrides) -> ScenarioConfig:
    """A 12-client world that runs a full scenario in well under a second."""
    cfg = ScenarioConfig(
        dataset=DatasetConfig(
            class_count=4, input_dim=6, per_class=500, separation=1.6, eval_per_class=80
        ),
        partition=PartitionConfig(
            n=12, k=3, target_class=0, alpha_t=0.6, alpha_d=1.0, local_size=50
        ),
        model=ModelConfig(hidden_dims=(12,)),
        protocol=ProtocolConfig(
            m=4, rounds=40, server_lr=0.25, local_epochs=2, local_lr=0.1, batch_size=5
        ),
        attack=AttackConfig(kind="targeted", mode="plain", t_n=8, k_n=0),
        poison=PoisonConfig(k_p=0, boost=10.0),
        trials=2,
        base_seed=21,
    )
    return replace(cfg, **overrides)


@pytest.fixture
def tiny_cfg():
    return tiny_scenario()


@pytest.fixture
def trial_calls(monkeypatch):
    """The seeds of every ``harness.run_trial`` call, in call order."""
    calls = []
    run_trial = harness.run_trial

    def counted(cfg, trial_seed, *args):
        calls.append(trial_seed)
        return run_trial(cfg, trial_seed, *args)

    monkeypatch.setattr(harness, "run_trial", counted)
    return calls


def round_trace(t, participants, global_before, global_after, models=None, received=None) -> RoundTrace:
    """A ``RoundTrace`` whose ``local_models`` reads client models from the dict ``models``.

    ``received`` defaults to every participant; both are sorted, as in a run.
    A party never reads the round's evaluation, so it is NaN.
    """
    models = {} if models is None else models
    return RoundTrace(
        t=t,
        participants=tuple(sorted(participants)),
        received=tuple(sorted(participants if received is None else received)),
        global_before=global_before,
        global_after=global_after,
        local_models=lambda ids: [models[j] for j in ids],
        target_loss=float("nan"),
        target_acc=float("nan"),
        overall_acc=float("nan"),
        nontarget_acc=float("nan"),
    )


def loss_on(params, spec, batch) -> float:
    """One model's mean loss on a batch."""
    return float(mean_loss(forward_eval(params, spec, batch), batch.y))


def accuracy_on(params, spec, batch) -> float:
    """One model's accuracy on a batch: its correct count over the row count."""
    return int(correct_count(forward_eval(params, spec, batch), batch.y)) / len(batch)


@dataclass(frozen=True)
class Update:
    """A hand-built update: the ``client_id`` and ``delta`` that ``aggregate`` and filters read of a ``LocalUpdate``."""

    client_id: int
    delta: np.ndarray
