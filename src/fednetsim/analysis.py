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
simulation.

The plain simulation adds, per trial, the Geometric(r/n) draws each of the
k_n targets takes to arrive. Below r/n = 1/3 its waits come from a
vectorized inversion that reproduces numpy's own ``Generator.geometric``,
draw for draw and in the generator's state afterwards, for the installed
numpy (a property test guards that); from 1/3 on they are numpy's.

The encrypted side also has an exact form for true m-distinct-of-n batches.
A target-free batch, a uniform m-subset of the n - k non-targets, newly
clears Hypergeometric(n-k-s, s, m) of them when s are already cleared. One
table holds that law's CDF for every s short of the goal, and both the
exact mean (``expected_rounds_encrypted_exact``, a backward recursion over
s) and the encrypted simulation read it; the table and its mean are cached
for the last inputs, so a call of each on the same inputs builds them once.
The simulation draws one uniform per active trial per target-free batch
and looks it up in the trial's row; once it has each trial's batch count
L, it draws the L Geometric(p) waits between target-free rounds at once as
L + NegativeBinomial(L, p), with p the exact target-free probability.
Two limits bound the cost up front: a table over ``MAX_TABLE_ENTRIES``
entries is refused before it is built, and a Monte-Carlo run expected to
take over ``MAX_MC_STEPS`` draw steps is refused before its first draw.
"""

import functools
import math
from operator import add, mul
from typing import NamedTuple

import numpy as np

from fednetsim.seeding import TAG_MC_DRAW, spawn_rng

# Validation grid shared by tests and the acceptance suite (24 points).
MC_GRID = tuple(
    (n, m, k, k_n)
    for n in (30, 60, 100)
    for m in (5, 10)
    for k in (5, 15)
    for k_n in (1, k)
)

# Largest encrypted clearing table built, in float64 entries (32 MiB).
MAX_TABLE_ENTRIES = 2**22
# Most terms a harmonic-number difference sums; a longer one comes from the
# asymptotic series. ``analyze`` prints only shorter ones: k_n <= 10**5 past
# the plain work budget, n - ceil(k/alpha) <= 2**21 past the table limit.
MAX_HARMONIC_TERMS = 2**21
# Where the series starts when a difference runs past MAX_HARMONIC_TERMS.
_EXPANSION_FROM = 64
# Largest Monte-Carlo run started, in expected draw steps: k_n geometric draws
# per plain trial, one table lookup per target-free batch of an encrypted
# trial. An encrypted trial's batches run one loop pass each, so this also
# caps the loop at about MAX_MC_STEPS / 100 passes (trials >= 100).
MAX_MC_STEPS = 10**7


def harmonic(i: int) -> float:
    """i-th harmonic number, with H_0 = 0."""
    if i < 0:
        raise ValueError("harmonic index must be >= 0")
    return _harmonic_gap(i, 0)


def _harmonic_tail(x: int) -> float:
    """``H_x - ln x - gamma`` for x >= ``_EXPANSION_FROM``: its asymptotic series to x**-6."""
    inv_sq = 1.0 / x / x
    return 0.5 / x - inv_sq * (1 / 12 - inv_sq * (1 / 120 - inv_sq / 252))


def _harmonic_gap(hi: int, lo: int) -> float:
    """``H_hi - H_lo`` for 0 <= lo <= hi.

    Up to ``MAX_HARMONIC_TERMS`` terms it sums only the hi - lo terms the
    two differ in. Past that, it sums the terms below ``_EXPANSION_FROM`` and
    takes the rest from the asymptotic series, whose first omitted term is
    under 2e-17 from there on.
    """
    if hi - lo <= MAX_HARMONIC_TERMS:
        return math.fsum(1.0 / j for j in range(lo + 1, hi + 1))
    head = _harmonic_gap(_EXPANSION_FROM, lo) if lo < _EXPANSION_FROM else 0.0
    lo = max(lo, _EXPANSION_FROM)
    return head + math.log1p((hi - lo) / lo) + (_harmonic_tail(hi) - _harmonic_tail(lo))


def expected_rounds_plain(n: int, m: int, k: int, k_n: int) -> float:
    """Expected batches until k_n of the k target clients have appeared."""
    _check_counts(n, m, k, min_m=1, k_n=k_n)
    return (n / m) * _harmonic_gap(k, k - k_n)


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
    large inputs cannot overflow. The ratio equals C(n-m, k) / C(n, k), so
    the product runs over min(m, k) factors, and it stops once it underflows
    to 0.
    """
    _check_counts(n, m, k)
    if m > n - k:
        return 0.0
    short, other = min(m, k), max(m, k)
    prob = 1.0
    for i in range(short):
        prob *= (n - other - i) / (n - i)
        if prob == 0.0:
            break
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
    batches = (n / m) * _harmonic_gap(n - k, clear_to - k)
    return batches / p


def expected_rounds_encrypted_exact(n: int, m: int, k: int, alpha: float) -> float:
    """Exact mean rounds to reach precision ``alpha`` with m-distinct batches.

    Each target-free round costs 1/p rounds in expectation, with p the exact
    ``C(n-k, m) / C(n, m)``, so the mean is E[target-free batches] / p. The
    batch count comes from a backward recursion over the cleared count s:
    ``E[s] = (1 + sum_{j>=1} P(j|s) E[s+j]) / (1 - P(0|s))``, with E[s] = 0
    once s reaches ``n - ceil(k/alpha)``. Raises ValueError when no batch can
    avoid the targets or the table would exceed ``MAX_TABLE_ENTRIES``.
    """
    _check_counts(n, m, k, min_m=1)
    needed = n - _clear_to(n, k, alpha)
    if needed == 0:
        return 0.0
    p = prob_nontarget_batch_exact(n, k, m)
    if p == 0.0:
        raise ValueError("no batch can avoid target clients (m > n - k)")
    return _clearing(n - k, m, needed)[1] / p


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


def _check_work(steps: float) -> None:
    if steps > MAX_MC_STEPS:
        raise ValueError(
            f"the Monte-Carlo run is expected to take at least {steps:.3g} draw steps, "
            f"over the budget of {MAX_MC_STEPS:.0e}; use fewer trials"
        )


def _clearing_cdf(free: int, m: int, needed: int) -> np.ndarray:
    """CDF table of the non-targets a target-free batch newly clears.

    From s of the ``free`` non-targets cleared, a batch of m of them clears
    J ~ Hypergeometric(free - s, s, m) new ones. Only whether J reaches
    ``needed - s`` matters, so every count from there on is lumped at
    needed - s: ``cdf[s, j]`` is P(J <= j) for j < needed - s and exactly 1.0
    from there on. Rows cover s < needed, columns j <= min(m, needed).
    """
    width = min(m, needed) + 1
    if needed * width > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"the clearing table would hold {needed} x {width} = {needed * width} entries, "
            f"over the limit of {MAX_TABLE_ENTRIES} (2**22)"
        )
    s = np.arange(needed)[:, None]
    j = np.arange(width)
    if m > needed:
        # J >= m - s > needed - s: every target-free batch clears the rest.
        return (j >= needed - s).astype(np.float64)
    # Here m <= needed, so row s holds J's whole support [max(0, m-s), min(m, free-s)].
    # Log-pmf up to a per-row constant: the cumulative log of the ratio
    # P(j)/P(j-1) = (free-s-j+1)(m-j+1) / (j (s+j-m)), whose factors in t = s+j
    # are one vector read through a sliding window.
    t = np.arange(needed + width - 1, dtype=np.float64)
    col = np.arange(1, width, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        by_t = np.where(t > m, np.log(np.maximum(free + 1 - t, 0.0)) - np.log(t - m), 0.0)
    table = np.zeros((needed, width))
    table[:, 1:] = np.lib.stride_tricks.sliding_window_view(by_t, width)[:, 1:]
    table[:, 1:] += np.log(m + 1 - col) - np.log(col)
    np.cumsum(table, axis=1, out=table)
    table[j < m - s] = -np.inf  # below the support
    table -= table.max(axis=1, keepdims=True)
    np.exp(table, out=table)
    np.cumsum(table, axis=1, out=table)
    table /= table[:, -1:]
    table[j >= needed - s] = 1.0
    return table


@functools.lru_cache(maxsize=1)
def _clearing(free: int, m: int, needed: int) -> tuple[np.ndarray, float]:
    """The read-only clearing table and its mean batch count.

    Cached for the last (free, m, needed), so that ``analyze``'s
    Monte-Carlo and exact mean share one build of a table that can take
    half a second; the table, up to ``MAX_TABLE_ENTRIES`` floats, stays
    held until a call with other inputs.
    """
    cdf = _clearing_cdf(free, m, needed)
    cdf.flags.writeable = False
    return cdf, _expected_batches(cdf)


def _expected_batches(cdf: np.ndarray) -> float:
    """Mean number of target-free batches to clear ``cdf.shape[0]`` non-targets."""
    needed, width = cdf.shape
    pmf = np.diff(cdf, axis=1, prepend=0.0)
    batches = [0.0] * (needed + width)  # E[s] = 0 for s >= needed
    for s in range(needed - 1, -1, -1):
        stay, *moves = pmf[s].tolist()
        # left to right, as sum() adds only before Python 3.12
        moved = functools.reduce(add, map(mul, moves, batches[s + 1 : s + width]), 0.0)
        batches[s] = (1.0 + moved) / (1.0 - stay)
    return batches[0]


def _clear_counts(cdf: np.ndarray, seen: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf[s], u, side="right")`` for each pair (s, u) of ``seen``, ``u``.

    One branchless binary search over every row at once: each step halves
    the span left to search in all rows, so no lookup leaves its own row.
    """
    width = cdf.shape[1]
    flat = cdf.ravel()
    start = seen * width
    pos = start.copy()
    span = width
    while span > 1:
        half = span // 2
        pos += (flat[pos + half] <= u) * half
        span -= half
    pos += flat[pos] <= u
    return pos - start


def _sample_batches(cdf: np.ndarray, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Target-free batches each trial takes to clear ``cdf.shape[0]`` non-targets."""
    needed = cdf.shape[0]
    batches = np.empty(trials, dtype=np.int64)
    ids = np.arange(trials)
    seen = np.zeros(trials, dtype=np.int64)
    count = 0
    while ids.size:
        count += 1
        seen += _clear_counts(cdf, seen, rng.random(ids.size))
        done = seen >= needed
        batches[ids[done]] = count
        ids, seen = ids[~done], seen[~done]
    return batches


# Geometric draws by numpy's rule: inversion below this p, search from it on.
_SEARCH_FROM_P = 1 / 3
# The float64 value of INT64_MAX, numpy's cap on an inverted wait.
_WAIT_CAP = 2.0**63


def _geometric(p: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.geometric(p, size)`` as float64, from the same draws of ``rng``.

    numpy draws one wait at a time in C: below p = 1/3 by inversion,
    ``ceil(-E / log1p(-p))`` of one standard exponential E, capped at
    INT64_MAX; from there on by one uniform and a walk up the partial sums
    of the pmf. The inversion is done here over a whole array, with the
    same arithmetic, so the values and the generator's state after the call
    are equal to numpy's (the float64 of INT64_MAX is 2**63); the search is
    numpy's own.
    """
    if p < _SEARCH_FROM_P:
        waits = rng.standard_exponential(size)
        with np.errstate(over="ignore"):  # p near 0: inf, capped below as numpy caps it
            waits /= -math.log1p(-p)
        np.ceil(waits, out=waits)
        return np.minimum(waits, _WAIT_CAP, out=waits)
    return rng.geometric(p, size).astype(np.float64)


def _simulate_plain(n, m, k, k_n, trials, rng) -> np.ndarray:
    # Draw-level simulation: a new unseen target arrives after Geometric(r/n)
    # uniform draws when r remain, so total draws stack independent
    # geometrics; m draws make one batch (fractional batches kept). The
    # waits are Generator.geometric's, drawn in vectorized form by _geometric,
    # one trials-sized array per r: one (k_n, trials) block costs memory and
    # gains no speed.
    draws = np.zeros(trials)
    for r in range(k, k - k_n, -1):
        draws += _geometric(r / n, trials, rng)
    return draws / m


def _countable_p(n: int, m: int, k: int, clean_rounds: int) -> float:
    """The exact target-free probability p; ValueError if ``clean_rounds`` such rounds overrun 2**53.

    Past 2**53 rounds float64 counts are inexact and one wait can saturate
    int64. Each of p's min(m, k) factors rounds to at most the float of
    (n - max(m, k)) / n, so the computed p exceeds that float's power by
    its product's rounding, under 2x while min(m, k) < 2**52. Twice the
    power is checked first: it refuses only what p would, without p's
    factors, which may never underflow.
    """
    bound = ((n - max(m, k)) / n) ** min(m, k)
    p = None if bound * 2.0**54 < clean_rounds else prob_nontarget_batch_exact(n, k, m)
    if p is None or p * 2.0**53 < clean_rounds:
        at = f"at most p={bound:.3g}" if p is None else f"at p={p:.3g}"
        raise ValueError(
            f"target-free batches are too rare to count rounds: {at} per round, "
            f"the {clean_rounds} needed are expected to take over 2**53 rounds"
        )
    return p


def _simulate_encrypted(n, m, k, needed, trials, rng) -> np.ndarray:
    # At least ceil(needed/m) target-free rounds of mean 1/p rounds each.
    clean_rounds = -(-needed // m)
    _check_work(trials * clean_rounds)  # a lower bound, checked before p's product and the table
    p = _countable_p(n, m, k, clean_rounds)
    cdf, mean_batches = _clearing(n - k, m, needed)
    _check_work(trials * mean_batches)
    batches = _sample_batches(cdf, trials, rng)
    # The Geometric(p) waits of a trial's L target-free rounds sum to L + NB(L, p).
    return batches + rng.negative_binomial(batches, p)


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
    been drawn, from the closed form's independent draws, not from
    ``run_protocol``'s batches of m distinct clients; ``encrypted`` counts
    whole rounds until enough distinct non-targets have appeared in
    target-free batches (requires ``alpha``); it raises ValueError when
    target-free batches are too rare for the round counts to fit in 2**53.
    Either mode raises ValueError, before its first draw, when the run is
    expected to take over ``MAX_MC_STEPS`` draw steps.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if mode not in ("plain", "encrypted"):
        raise ValueError("mode must be 'plain' or 'encrypted'")
    _check_counts(n, m, k, min_m=1, k_n=k_n if mode == "plain" else None)
    rng = spawn_rng(seed, TAG_MC_DRAW)
    if mode == "plain":
        if k_n == 0:
            return MonteCarloResult(0.0, 0.0)
        _check_work(k_n * trials)
        samples = _simulate_plain(n, m, k, k_n, trials, rng)
    else:
        if alpha is None:
            raise ValueError("encrypted mode requires alpha")
        needed = n - _clear_to(n, k, alpha)
        if needed == 0:
            return MonteCarloResult(0.0, 0.0)
        samples = _simulate_encrypted(n, m, k, needed, trials, rng)
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(trials))
    return MonteCarloResult(mean, stderr)
