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
  batch is target-free with probability ``(1 - k/n)^m``. That is never
  below the exact ``C(n-k, m) / C(n, m)``, and far above it as m nears
  n - k, so the round estimate bounds the true protocol's cost from above
  only while the two probabilities are close (at n=60, m=44, k=15,
  alpha=0.5 it gives 4.6e5 rounds; the simulated mean is about 3e12).

``prob_nontarget_batch_exact`` gives the without-replacement refinement
``C(n-k, m) / C(n, m)`` for comparison, and ``monte_carlo_rounds`` samples
the stopping times directly so the formulas can be cross-checked by
simulation. The encrypted simulation uses true m-distinct-of-n batches and
steps from one target-free round to the next: the wait is Geometric(p) with
p the exact target-free probability, and a target-free batch, a uniform
m-subset of the n - k non-targets, newly clears Hypergeometric(n-k-s, s, m)
of them when s are already cleared.
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

def harmonic(i: int) -> float:
    """i-th harmonic number, with H_0 = 0."""
    if i < 0:
        raise ValueError("harmonic index must be >= 0")
    return math.fsum(1.0 / j for j in range(1, i + 1))


def expected_rounds_plain(n: int, m: int, k: int, k_n: int) -> float:
    """Expected batches until k_n of the k target clients have appeared."""
    _check_counts(n, m, k, min_m=1, k_n=k_n)
    return (n / m) * (harmonic(k) - harmonic(k - k_n))


def expected_rounds_plain_approx(n: int, m: int, k: int, k_n: int) -> float:
    """Log approximation of :func:`expected_rounds_plain` (ln 0 read as 0)."""
    _check_counts(n, m, k, min_m=1, k_n=k_n)
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
    """Independent-draw estimate of total batches to reach precision ``alpha``.

    Non-target batches needed: ``(n/m) * (H_{n-k} - H_{ceil(k/alpha)-k})``;
    dividing by the independent-draw non-target batch probability
    ``(1 - k/n)^m`` converts that into total batches observed. It is an
    upper bound on the true cost only while ``(1 - k/n)^m`` is close to the
    exact ``C(n-k, m) / C(n, m)``; as m nears n - k it falls below the true
    cost by orders of magnitude.
    """
    _check_counts(n, m, k, min_m=1)
    clear_to = _clear_to(n, k, alpha)
    p = prob_nontarget_batch(n, k, m)
    if p == 0.0:
        raise ValueError("no batch can avoid target clients (k = n)")
    batches = (n / m) * (harmonic(n - k) - harmonic(clear_to - k))
    return batches / p


class MonteCarloResult(NamedTuple):
    mean: float
    stderr: float


def _check_counts(n: int, m: int, k: int, min_m: int = 0, k_n: int | None = None):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not min_m <= m <= n:
        raise ValueError(f"need {min_m} <= m <= n")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k_n is not None and not 0 <= k_n <= k:
        raise ValueError("need 0 <= k_n <= k")


def _clear_to(n: int, k: int, alpha: float) -> int:
    """Candidate-set size ``ceil(k/alpha)`` at which precision alpha is reached."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    clear_to = math.ceil(k / alpha)
    if clear_to > n:
        raise ValueError(f"precision alpha={alpha} needs k/alpha <= n")
    return clear_to


def _simulate_plain(n, m, k, k_n, trials, rng) -> np.ndarray:
    # Draw-level simulation: a new unseen target arrives after Geometric(r/n)
    # uniform draws when r remain, so total draws stack independent
    # geometrics; m draws make one batch (fractional batches kept).
    draws = np.zeros(trials)
    for r in range(k, k - k_n, -1):
        draws += rng.geometric(r / n, size=trials)
    return draws / m


def _simulate_encrypted(n, m, k, needed, trials, rng) -> np.ndarray:
    rounds = np.zeros(trials)
    if needed <= 0:
        return rounds
    p = prob_nontarget_batch_exact(n, k, m)
    # At least ceil(needed/m) target-free rounds of mean 1/p rounds each; past
    # 2**53 rounds float64 counts are inexact and one wait can saturate int64.
    clean_rounds = -(-needed // m)
    if p * 2.0**53 < clean_rounds:
        raise ValueError(
            f"target-free batches are too rare to count rounds: at p={p:.3g} per round, "
            f"the {clean_rounds} needed are expected to take over 2**53 rounds"
        )
    seen = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    while active.size:
        rounds[active] += rng.geometric(p, size=active.size)
        s = seen[active]
        seen[active] = s + rng.hypergeometric(n - k - s, s, m)
        active = active[seen[active] < needed]
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
    it raises ValueError when target-free batches are too rare for the
    round counts to fit in 2**53.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if mode not in ("plain", "encrypted"):
        raise ValueError("mode must be 'plain' or 'encrypted'")
    _check_counts(n, m, k, min_m=1, k_n=k_n if mode == "plain" else None)
    rng = spawn_rng(seed, 6)
    if mode == "plain":
        if k_n == 0:
            return MonteCarloResult(0.0, 0.0)
        samples = _simulate_plain(n, m, k, k_n, trials, rng)
    else:
        if alpha is None:
            raise ValueError("encrypted mode requires alpha")
        samples = _simulate_encrypted(n, m, k, n - _clear_to(n, k, alpha), trials, rng)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr)
