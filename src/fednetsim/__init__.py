"""Deterministic federated-averaging simulator with network-level adversaries.

A desk-scale testbed for studying what an adversary sitting on the network
can do to federated training (targeted update dropping guided by
loss-difference client identification, optionally amplified by boosted
model-replacement poisoning) and what the server can do about it
(update clipping and defensive up-sampling of high-contribution clients).

Each name is imported from its module (``from fednetsim.protocol import
run_protocol``); the package re-exports none of them, so ``import
fednetsim`` loads no submodule and a caller pays only for the layers it uses.
"""

__version__ = "0.1.0"
