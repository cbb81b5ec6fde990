"""Deterministic federated-averaging simulator with network-level adversaries.

A desk-scale testbed for studying what an adversary sitting on the network
can do to federated training (targeted update dropping guided by
loss-difference client identification, optionally amplified by boosted
model-replacement poisoning) and what the server can do about it
(update clipping and defensive up-sampling of high-contribution clients).

The names below are exported lazily (PEP 562): ``fednetsim.run_protocol``
imports ``fednetsim.protocol`` on first access, so ``import fednetsim``
loads no submodule and a caller pays only for the layers it uses.
"""

import importlib

_EXPORTS = {
    "ContributionLedger": "adversary",
    "drop_filter": "adversary",
    "identification_score": "adversary",
    "identify_clients": "adversary",
    "record_round": "adversary",
    "sample_visible_set": "adversary",
    "expected_rounds_encrypted": "analysis",
    "expected_rounds_encrypted_exact": "analysis",
    "expected_rounds_plain": "analysis",
    "expected_rounds_plain_approx": "analysis",
    "harmonic": "analysis",
    "monte_carlo_rounds": "analysis",
    "prob_nontarget_batch": "analysis",
    "prob_nontarget_batch_exact": "analysis",
    "ProtocolConfig": "config",
    "ExampleSet": "datasets",
    "PartitionPlan": "datasets",
    "gen_synthetic": "datasets",
    "load_idx_dataset": "datasets",
    "partition": "datasets",
    "UpsamplingDefender": "defense",
    "upsample_probabilities": "defense",
    "ModelSpec": "models",
    "forward_eval": "models",
    "init_model": "models",
    "local_train": "models",
    "loss_gradient": "models",
    "craft_poison_update": "poisoning",
    "flip_labels": "poisoning",
    "LocalUpdate": "protocol",
    "RoundRecord": "protocol",
    "aggregate": "protocol",
    "run_protocol": "protocol",
    "select_participants": "protocol",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
