"""Shared scenario factories for harness-level tests."""

from dataclasses import replace

import pytest

from fednetsim.config import (
    AttackConfig,
    DatasetConfig,
    ModelConfig,
    PartitionConfig,
    PoisonConfig,
    ProtocolConfig,
    ScenarioConfig,
)


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
