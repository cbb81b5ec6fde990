"""Server-side defense: defensive up-sampling of high-contribution clients.

The server runs the same loss-difference identification as the attacker,
but with server knowledge: per-client updates in standard deployments
(``plain``), or only the aggregated model under MPC-style secure
aggregation (``aggregate_only``). Identified high-contribution clients get
their selection probability raised to ``lam / n`` while everyone else drops
to ``(n - k_s * lam) / (n^2 - k_s * n)``, which keeps the distribution
normalized exactly. Update clipping, the other defense, is part of
aggregation (``fednetsim.protocol.aggregate``).
"""

from dataclasses import dataclass

import numpy as np

from fednetsim.adversary import ContributionLedger, ObservationMode, identify_clients, record_round
from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec
from fednetsim.protocol import RoundTrace

SERVER_MODES = ("plain", "aggregate_only")


@dataclass(frozen=True)
class DefensePlan:
    """Up-sampling defense parameters."""

    t_s: int
    k_s: int
    upsample_factor: float
    valid_set: ExampleSet
    server_mode: str = "plain"

    def __post_init__(self):
        if self.t_s < 1:
            raise ValueError("t_s must be >= 1")
        if self.k_s < 0:
            raise ValueError("k_s must be >= 0")
        if self.upsample_factor < 1:
            raise ValueError("upsample_factor must be >= 1")
        if self.server_mode not in SERVER_MODES:
            raise ValueError(f"server_mode must be one of {SERVER_MODES}")


def upsample_probabilities(identified, n: int, factor: float) -> np.ndarray:
    """Selection distribution boosting the identified clients.

    ``p[i] = factor / n`` for identified clients and
    ``(n - k_s * factor) / (n^2 - k_s * n)`` for the rest; the vector sums
    to 1 analytically. Inputs with ``k_s * factor >= n`` would drive the
    non-selected probabilities negative and are rejected.
    """
    z = sorted(set(int(i) for i in identified))
    k_s = len(z)
    if any(not 0 <= i < n for i in z):
        raise ValueError("identified client ids out of range")
    if k_s * factor >= n:
        raise ValueError("upsampling factor too large: need k_s * factor < n")
    if k_s == 0:
        return np.full(n, 1.0 / n)
    p = np.full(n, (n - k_s * factor) / (n * n - k_s * n))
    p[z] = factor / n
    return p


class UpsamplingDefender:
    """Stateful driver wiring server identification into participant sampling.

    Feed it to ``run_protocol`` as both resample hook and observer. Unlike
    the attacker, the server never freezes its ledger: it has no way to
    know which rounds were corrupted by dropping.
    """

    def __init__(self, plan: DefensePlan, spec: ModelSpec, n: int):
        if plan.k_s * plan.upsample_factor >= n:
            raise ValueError("upsampling factor too large: need k_s * factor < n")
        self.plan = plan
        self.spec = spec
        self.n = n
        self.ledger = ContributionLedger()
        self.identified: list[int] = []
        self._mode = ObservationMode("plain" if plan.server_mode == "plain" else "encrypted")

    def resample(self, t: int, n: int) -> np.ndarray | None:
        if t <= self.plan.t_s or not self.identified:
            return None
        return upsample_probabilities(self.identified, n, self.plan.upsample_factor)

    def observe(self, trace: RoundTrace):
        models = trace.received_models if self._mode.kind == "plain" else None
        record_round(self.ledger, trace, models, self._mode, self.plan.valid_set, self.spec)
        if trace.t >= self.plan.t_s:
            self.identified = identify_clients(self.ledger, self.plan.k_s)
