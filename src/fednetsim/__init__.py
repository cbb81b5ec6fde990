"""Deterministic federated-averaging simulator with network-level adversaries.

A desk-scale testbed for studying what an adversary sitting on the network
can do to federated training (targeted update dropping guided by
loss-difference client identification, optionally amplified by boosted
model-replacement poisoning) and what the server can do about it
(update clipping and defensive up-sampling of high-contribution clients).
"""

from fednetsim.adversary import (
    AttackPlan,
    ContributionLedger,
    ObservationMode,
    drop_filter,
    identification_score,
    identify_clients,
    record_round,
    sample_visible_set,
)
from fednetsim.analysis import (
    expected_rounds_encrypted,
    expected_rounds_plain,
    expected_rounds_plain_approx,
    harmonic,
    monte_carlo_rounds,
    prob_nontarget_batch,
    prob_nontarget_batch_exact,
)
from fednetsim.datasets import (
    DatasetSource,
    ExampleSet,
    PartitionPlan,
    gen_synthetic,
    load_idx_dataset,
    partition,
)
from fednetsim.defense import DefensePlan, UpsamplingDefender, upsample_probabilities
from fednetsim.models import ModelSpec, forward_eval, init_model, local_train, loss_gradient
from fednetsim.poisoning import PoisonPlan, craft_poison_update, flip_labels
from fednetsim.protocol import (
    LocalUpdate,
    ProtocolConfig,
    RoundRecord,
    aggregate,
    run_protocol,
    select_participants,
)

__version__ = "0.1.0"
