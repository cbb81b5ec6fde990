"""Closed-form identification-cost estimates and Monte-Carlo validators.

How long does the attacker have to watch the protocol before it has seen
the clients it wants to drop? The closed forms model a batch of m clients
as m independent uniform draws from the n clients, which turns the waiting
times into coupon-collector quantities:

* plain observation: expected batches to see k_n of the k target holders is
  ``(n/m) * (H_k - H_{k-k_n})``.
* encrypted observation: clients appearing in batches with no target
  holders are known non-targets; reaching precision ``alpha`` requires
  clearing ``n - k/alpha`` of them. Under the independent-draw model a
  batch is target-free with probability ``(1 - k/n)^m``, and the resulting
  round estimate is an upper bound on the true protocol's cost.

``prob_nontarget_batch_exact`` gives the without-replacement refinement
``C(n-k, m) / C(n, m)`` for comparison, and ``monte_carlo_rounds`` samples
the stopping times directly so the formulas can be cross-checked by
simulation.
"""

import math
from typing import NamedTuple

import numpy as np

from fednetsim.seeding import spawn_rng

# Validation grid shared by tests and the acceptance suite (24 points).
MC_GRID = tuple(
    (n, m, k, k_n)
    for n in (30, 60, 100)
    for m in (5, 10)
    for k in (5, 15)
    for k_n in (1, k)
)

# Largest expected encrypted simulation, in trials x rounds, that
# ``monte_carlo_rounds`` will start; the benchmark grid's largest point is
# below 1e6.
MC_ENCRYPTED_BUDGET = 1e8


def harmonic(i: int) -> float:
    """i-th harmonic number, with H_0 = 0."""
    if i < 0:
        raise ValueError("harmonic index must be >= 0")
    return math.fsum(1.0 / j for j in range(1, i + 1))


def expected_rounds_plain(n: int, m: int, k: int, k_n: int) -> float:
    """Expected batches until k_n of the k target clients have appeared."""
    _check_counts(n, m, k, min_m=1)
    if not 0 <= k_n <= k:
        raise ValueError("need 0 <= k_n <= k")
    return (n / m) * (harmonic(k) - harmonic(k - k_n))


def expected_rounds_plain_approx(n: int, m: int, k: int, k_n: int) -> float:
    """Log approximation of :func:`expected_rounds_plain` (ln 0 read as 0)."""
    _check_counts(n, m, k, min_m=1)
    if not 0 <= k_n <= k:
        raise ValueError("need 0 <= k_n <= k")
    if k_n == 0:
        return 0.0
    log_rest = math.log(k - k_n) if k_n < k else 0.0
    return (n / m) * (math.log(k) - log_rest)


def prob_nontarget_batch(n: int, k: int, m: int) -> float:
    """Probability a batch contains no target client: ``(1 - k/n)^m``.

    Exact under the module's independent-draw batch model; for actual
    m-distinct-of-n batches it overestimates slightly (see
    :func:`prob_nontarget_batch_exact`).
    """
    _check_counts(n, m, k)
    return (1.0 - k / n) ** m


def prob_nontarget_batch_exact(n: int, k: int, m: int) -> float:
    """Target-free probability for a true m-distinct-of-n batch.

    Exact ratio C(n-k, m) / C(n, m), evaluated as an iterative product so
    large inputs cannot overflow.
    """
    _check_counts(n, m, k)
    if m > n - k:
        return 0.0
    prob = 1.0
    for i in range(m):
        prob *= (n - k - i) / (n - i)
    return prob


def expected_rounds_encrypted(n: int, m: int, k: int, alpha: float) -> float:
    """Upper-bound estimate of total batches to reach precision ``alpha``.

    Non-target batches needed: ``(n/m) * (H_{n-k} - H_{ceil(k/alpha)-k})``;
    dividing by the non-target batch probability converts that into total
    batches observed.
    """
    _check_counts(n, m, k, min_m=1)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    clear_to = math.ceil(k / alpha)
    if clear_to > n:
        raise ValueError(f"precision alpha={alpha} needs k/alpha <= n")
    p = prob_nontarget_batch(n, k, m)
    if p == 0.0:
        raise ValueError("no batch can avoid target clients (k = n)")
    batches = (n / m) * (harmonic(n - k) - harmonic(clear_to - k))
    return batches / p


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: float


def _check_counts(n: int, m: int, k: int, min_m: int = 0):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not min_m <= m <= n:
        raise ValueError(f"need {min_m} <= m <= n")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")


def _simulate_plain(n, m, k, k_n, trials, rng) -> np.ndarray:
    # Draw-level simulation: a new unseen target arrives after Geometric(r/n)
    # uniform draws when r remain, so total draws stack independent
    # geometrics; m draws make one batch (fractional batches kept).
    draws = np.zeros(trials)
    for r in range(k, k - k_n, -1):
        draws += rng.geometric(r / n, size=trials)
    return draws / m


def _simulate_encrypted(n, m, k, alpha, trials, rng) -> np.ndarray:
    needed = n - math.ceil(k / alpha)
    if needed <= 0:
        return np.zeros(trials)
    if m > n - k:
        raise ValueError("no batch can avoid target clients (m > n - k)")
    rounds = np.zeros(trials)
    seen = np.zeros((trials, n - k), dtype=bool)
    active = np.arange(trials)
    t = 0
    while active.size:
        t += 1
        if t > 10_000_000:
            raise RuntimeError("encrypted simulation failed to terminate")
        batches = np.argpartition(rng.random((active.size, n)), m - 1, axis=1)[:, :m]
        clean = ~(batches < k).any(axis=1)
        if clean.any():
            rows = np.flatnonzero(clean)
            seen[active[rows][:, None], batches[rows] - k] = True
        done = seen[active].sum(axis=1) >= needed
        rounds[active[done]] = t
        active = active[~done]
    return rounds


def monte_carlo_rounds(
    n: int,
    m: int,
    k: int,
    k_n: int,
    mode: str,
    trials: int,
    seed: int,
    alpha: float | None = None,
) -> MonteCarloResult:
    """Sample the identification stopping time and return mean and stderr.

    ``plain`` counts (fractional) batches until k_n distinct targets have
    been drawn; ``encrypted`` counts whole rounds until enough distinct
    non-targets have appeared in target-free batches (requires ``alpha``);
    it raises ValueError when the expected cost, trials times the expected
    rounds, exceeds ``MC_ENCRYPTED_BUDGET``.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if mode not in ("plain", "encrypted"):
        raise ValueError("mode must be 'plain' or 'encrypted'")
    _check_counts(n, m, k, min_m=1)
    rng = spawn_rng(seed, 6)
    if mode == "plain":
        if not 0 <= k_n <= k:
            raise ValueError("need 0 <= k_n <= k")
        if k_n == 0:
            return MonteCarloResult(0.0, 0.0)
        samples = _simulate_plain(n, m, k, k_n, trials, rng)
    else:
        if alpha is None:
            raise ValueError("encrypted mode requires alpha")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        clear_to = math.ceil(k / alpha)
        if clear_to > n:
            raise ValueError(f"precision alpha={alpha} needs k/alpha <= n")
        # Refuse, rather than hang on, runs where target-free batches are rare.
        p = prob_nontarget_batch_exact(n, k, m)
        cost = trials * (n / m) * (harmonic(n - k) - harmonic(clear_to - k)) / p if p > 0 else 0.0
        if cost > MC_ENCRYPTED_BUDGET:
            raise ValueError(
                f"encrypted simulation would take about {cost:.3g} trial-rounds, "
                f"over the budget of {MC_ENCRYPTED_BUDGET:.0e}"
            )
        samples = _simulate_encrypted(n, m, k, alpha, trials, rng)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr)
