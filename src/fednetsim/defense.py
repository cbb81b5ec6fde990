"""Server-side defense: defensive up-sampling of high-contribution clients.

The server is a ``LedgerObserver`` like the attacker, on its own view: the
per-client updates it received in standard deployments (``plain``), or
only the aggregated model under MPC-style secure aggregation
(``aggregate_only``), which is what an encrypted attacker sees. Identified
high-contribution clients get their selection probability raised to
``lam / n`` while everyone else drops to ``(n - k_s * lam) / (n^2 - k_s * n)``,
which keeps the distribution normalized exactly; while nobody is
identified, as before round ``t_s`` is observed, it is the uniform ``1 / n``.
Update clipping, the other defense, is part of aggregation
(``fednetsim.protocol.aggregate``).
"""

import numpy as np

from fednetsim.adversary import LedgerObserver
from fednetsim.config import DefenseConfig
from fednetsim.datasets import ExampleSet
from fednetsim.models import ModelSpec


def upsample_probabilities(identified, n: int, factor: float) -> np.ndarray:
    """Selection distribution boosting the identified clients.

    ``p[i] = factor / n`` for identified clients and
    ``(n - k_s * factor) / (n^2 - k_s * n)`` for the rest; the vector sums
    to 1 analytically, and ``k_s = 0`` gives ``n / n^2 == 1.0 / n`` exactly
    (``n^2`` is exact below ``n = 2**26``). Inputs with ``k_s * factor >= n``
    would drive the non-selected probabilities negative and are rejected.
    """
    z = sorted(set(int(i) for i in identified))
    k_s = len(z)
    if any(not 0 <= i < n for i in z):
        raise ValueError("identified client ids out of range")
    if k_s * factor >= n:
        raise ValueError("upsampling factor too large: need k_s * factor < n")
    p = np.full(n, (n - k_s * factor) / (n * n - k_s * n))
    p[z] = factor / n
    return p


class UpsamplingDefender(LedgerObserver):
    """Server identification from round ``t_s`` on, wired into participant sampling.

    ``defense`` is a validated defense section and ``valid_set`` the
    server's target-population sample. Feed it to ``run_protocol`` as both
    resample hook and observer. Unlike the attacker, the server never
    freezes its ledger: it has no way to know which rounds were corrupted
    by dropping.
    """

    def __init__(self, defense: DefenseConfig, spec: ModelSpec, valid_set: ExampleSet):
        view = "received" if defense.server_mode == "plain" else "aggregate"
        super().__init__(view, spec, valid_set, defense.k_s, defense.t_s)
        self.factor = defense.upsample_factor

    def resample(self, t: int, n: int) -> np.ndarray:
        """Round t's selection distribution over n clients; uniform while nobody is identified."""
        return upsample_probabilities(self.identified, n, self.factor)
