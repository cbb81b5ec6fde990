"""Closed-form identification cost, batch probabilities, Monte-Carlo checks."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fednetsim import analysis
from fednetsim.analysis import (
    MC_GRID,
    expected_rounds_encrypted,
    expected_rounds_plain,
    expected_rounds_plain_approx,
    harmonic,
    monte_carlo_rounds,
    prob_nontarget_batch,
    prob_nontarget_batch_exact,
)
from fednetsim.seeding import spawn_rng

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Encrypted points of the benchmark's Monte-Carlo grid, then k = 0 and alpha = 1.
ENCRYPTED_POINTS = (
    (60, 10, 15, 0.3),
    (100, 10, 15, 0.3),
    (60, 5, 15, 0.5),
    (100, 5, 15, 0.5),
    (30, 5, 0, 0.5),
    (60, 10, 15, 1.0),
)


def expected_rounds_encrypted_exact(n, m, k, alpha):
    """Exact mean of the encrypted stopping time, by a DP over the seen count.

    From s seen non-targets, a target-free batch of m distinct clients clears
    j new ones with hypergeometric probability; every target-free batch costs
    1/p rounds in expectation, so E[rounds] = E[target-free batches] / p.
    """
    needed = n - math.ceil(k / alpha)
    pool = n - k
    batches = [0.0] * (pool + m + 1)
    for s in range(needed - 1, -1, -1):
        pj = [math.comb(pool - s, j) * math.comb(s, m - j) / math.comb(pool, m) for j in range(m + 1)]
        batches[s] = (1 + sum(pj[j] * batches[s + j] for j in range(1, m + 1))) / (1 - pj[0])
    return batches[0] / prob_nontarget_batch_exact(n, k, m)


def clipped_pmf(free, m, needed, s):
    """P(j new clears | s cleared) by ``math.comb``, counts from needed - s on lumped there."""
    pmf = [math.comb(free - s, j) * math.comb(s, m - j) / math.comb(free, m) for j in range(m + 1)]
    cut = needed - s
    out = [pmf[j] if j < cut else 0.0 for j in range(min(m, needed) + 1)]
    if cut <= min(m, needed):
        out[cut] = sum(pmf[cut:])
    return out


def batches_pmf(cdf, up_to):
    """P(L = t) for t < up_to: the target-free batches that clear every row of ``cdf``."""
    needed = cdf.shape[0]
    pmf = np.diff(cdf, axis=1, prepend=0.0)
    state = np.zeros(needed)
    state[0] = 1.0
    out = [0.0]
    for _ in range(1, up_to):
        nxt = np.zeros(needed + cdf.shape[1])
        for s in range(needed):
            nxt[s : s + cdf.shape[1]] += state[s] * pmf[s]
        out.append(nxt[needed:].sum())
        state = nxt[:needed]
    return np.array(out)


# (free, m, needed): m below, at and above needed; table widths 2, 4, 6, 8, 11 and 13.
TABLE_CASES = ((5, 1, 5), (10, 3, 10), (45, 10, 10), (85, 5, 70), (85, 10, 50), (20, 7, 20), (20, 15, 12))


class TestHarmonic:
    def test_base_cases(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0

    def test_direct_summation(self):
        assert abs(harmonic(15) - 3.3182) < 5e-5
        assert abs(harmonic(4) - (1 + 0.5 + 1 / 3 + 0.25)) < 1e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    @pytest.mark.parametrize("lo", [0, 1000, 10**9])
    def test_series_past_the_cap_agrees_with_the_sum(self, lo):
        hi = lo + analysis.MAX_HARMONIC_TERMS + 1
        exact = math.fsum(1.0 / j for j in range(lo + 1, hi + 1))
        assert analysis._harmonic_gap(hi, lo) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_long_gaps_return_quickly(self):
        # summing 10**12 terms takes hours; a hang kills the child, not the suite
        code = (
            "import time\n"
            "from fednetsim.analysis import expected_rounds_plain, harmonic\n"
            "start = time.perf_counter()\n"
            "values = expected_rounds_plain(10**12, 1, 10**12, 10**12), harmonic(10**12)\n"
            "print(time.perf_counter() - start, *values)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        elapsed, rounds, h = map(float, proc.stdout.split())
        assert elapsed < 1.0
        # H_n = ln n + gamma + 1/(2n) - ..., and the plain wait is (n/m) * H_k here
        assert h == pytest.approx(math.log(10**12) + 0.5772156649015329 + 0.5e-12, rel=1e-15)
        assert rounds == 10**12 * h


class TestExpectedRoundsPlain:
    def test_nothing_to_wait_for(self):
        assert expected_rounds_plain(60, 10, 15, 0) == 0.0
        assert expected_rounds_plain_approx(60, 10, 15, 0) == 0.0

    def test_reference_values(self):
        # full collection of 15 targets at n=60, m=10
        exact = expected_rounds_plain(60, 10, 15, 15)
        assert abs(exact - 6 * harmonic(15)) < 1e-12
        assert abs(exact - 19.91) < 0.5
        assert abs(expected_rounds_plain_approx(60, 10, 15, 15) - 6 * math.log(15)) < 1e-12
        # classic collector: every client is a target
        assert abs(expected_rounds_plain_approx(100, 10, 100, 100) - 46.05) < 1.0

    def test_monotone_in_k_n(self):
        values = [expected_rounds_plain(60, 10, 15, kn) for kn in range(16)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nonincreasing_in_m(self):
        values = [expected_rounds_plain(60, m, 15, 10) for m in (1, 2, 5, 10, 20)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_kn_above_k(self):
        with pytest.raises(ValueError):
            expected_rounds_plain(60, 10, 15, 16)

    def test_sums_only_the_terms_the_harmonics_differ_in(self):
        for k, k_n in [(15, 15), (15, 1), (100, 37), (1000, 999)]:
            gap = harmonic(k) - harmonic(k - k_n)
            assert abs(expected_rounds_plain(1000, 10, k, k_n) - 100 * gap) <= 1e-14 * 100 * gap


class TestProbNontargetBatch:
    def test_no_targets(self):
        assert prob_nontarget_batch(60, 0, 10) == 1.0
        assert prob_nontarget_batch_exact(60, 0, 10) == 1.0

    def test_empty_batch(self):
        assert prob_nontarget_batch(60, 15, 0) == 1.0
        assert prob_nontarget_batch_exact(60, 15, 0) == 1.0

    def test_reference_value(self):
        assert 0.053 <= prob_nontarget_batch(60, 15, 10) <= 0.059

    def test_exact_ratio_matches_comb(self):
        for n, k, m in [(60, 15, 10), (30, 5, 7), (100, 20, 12)]:
            expected = math.comb(n - k, m) / math.comb(n, m)
            assert abs(prob_nontarget_batch_exact(n, k, m) - expected) < 1e-12

    def test_exact_runs_over_the_shorter_product(self):
        # C(n-k, m) / C(n, m) = C(n-m, k) / C(n, k): min(m, k) factors either way
        for n, k, m in [(60, 3, 40), (100, 1, 90), (30, 15, 15)]:
            expected = math.comb(n - k, m) / math.comb(n, m)
            assert abs(prob_nontarget_batch_exact(n, k, m) - expected) <= 1e-14 * expected
        n, k, m = 10**6, 3, 10**5
        expected = math.prod((n - m - i) / (n - i) for i in range(k))
        assert prob_nontarget_batch_exact(n, k, m) == expected

    def test_exact_zero_when_batch_cannot_avoid(self):
        assert prob_nontarget_batch_exact(10, 6, 5) == 0.0

    @settings(deadline=None, max_examples=300)
    @given(
        n=st.integers(1, 10**6),
        short_share=st.floats(0, 1),
        other_share=st.floats(0, 1),
        m_is_short=st.booleans(),
        scale=st.floats(2**-8, 2**8),
    )
    @example(n=200, short_share=0.2, other_share=0.75, m_is_short=False, scale=1.0)
    @example(n=10**6, short_share=0.0, other_share=0.5, m_is_short=False, scale=1.0)
    def test_early_refusal_refuses_only_what_p_refuses(self, n, short_share, other_share, m_is_short, scale):
        # min(m, k) <= 10**4 keeps the exact product cheap; the round count is
        # drawn around the exact refusal's threshold, p * 2**53
        short = round(short_share * min(n, 10**4))
        other = short + round(other_share * (n - short))
        m, k = (short, other) if m_is_short else (other, short)
        assume(m >= 1)
        p = prob_nontarget_batch_exact(n, k, m)
        clean_rounds = max(1, math.ceil(p * 2.0**53 * scale))
        try:
            assert analysis._countable_p(n, m, k, clean_rounds) == p
        except ValueError as exc:
            assert p * 2.0**53 < clean_rounds, str(exc)
            return
        assert p * 2.0**53 >= clean_rounds

    def test_approximation_envelope_small_target_share(self):
        # the independent-draw value tracks the exact subset ratio within 20%
        # when targets are scarce (k <= n/20, m <= n/4); at the experiment
        # regime k/n = 0.25 the gap grows past 30%, so the envelope is only
        # claimed for scarce targets
        for n in (40, 60, 80, 100):
            for k in range(1, n // 20 + 1):
                for m in range(1, n // 4 + 1):
                    approx = prob_nontarget_batch(n, k, m)
                    exact = prob_nontarget_batch_exact(n, k, m)
                    assert abs(approx - exact) / approx <= 0.20, (n, k, m)

    def test_approximation_breaks_at_dense_targets(self):
        approx = prob_nontarget_batch(60, 15, 10)
        exact = prob_nontarget_batch_exact(60, 15, 10)
        assert abs(approx - exact) / approx > 0.20


class TestExpectedRoundsEncrypted:
    def test_alpha_one_clears_all_nontargets(self):
        n, m, k = 60, 10, 15
        expected = (n / m) * harmonic(n - k) / prob_nontarget_batch(n, k, m)
        assert abs(expected_rounds_encrypted(n, m, k, 1.0) - expected) < 1e-12

    def test_reference_value(self):
        assert 24 <= expected_rounds_encrypted(60, 10, 15, 0.3) <= 29

    def test_alpha_too_small_rejected(self):
        with pytest.raises(ValueError):
            expected_rounds_encrypted(60, 10, 15, 0.2)  # k/alpha = 75 > 60

    @pytest.mark.parametrize("n, m, k, alpha", ENCRYPTED_POINTS)
    def test_exact_matches_oracle(self, n, m, k, alpha):
        exact = analysis.expected_rounds_encrypted_exact(n, m, k, alpha)
        oracle = expected_rounds_encrypted_exact(n, m, k, alpha)
        assert abs(exact - oracle) <= 1e-12 * oracle

    def test_exact_edges(self):
        assert analysis.expected_rounds_encrypted_exact(30, 5, 15, 0.5) == 0.0  # nothing to clear
        # clearing 10 of 25 non-targets with batches of 15: one target-free batch does it
        p = prob_nontarget_batch_exact(30, 5, 15)
        assert analysis.expected_rounds_encrypted_exact(30, 15, 5, 0.25) == 1 / p
        with pytest.raises(ValueError, match="no batch can avoid"):
            analysis.expected_rounds_encrypted_exact(10, 5, 6, 1.0)

    def test_exact_refuses_oversized_table(self):
        # 20000 rows x 1001 columns: past the 2**22-entry table limit
        with pytest.raises(ValueError, match="20020000 entries"):
            analysis.expected_rounds_encrypted_exact(20000, 1000, 0, 1.0)

    def test_not_an_upper_bound_when_m_nears_n_minus_k(self):
        # the independent-draw p = 3.2e-6 overstates the exact 3.0e-13, so the
        # estimate is below even the mean wait for one target-free batch
        assert expected_rounds_encrypted(60, 44, 15, 0.5) < 1 / prob_nontarget_batch_exact(60, 15, 44)


class TestMonteCarlo:
    def test_kn_zero(self):
        res = monte_carlo_rounds(60, 10, 15, 0, "plain", 1000, seed=0)
        assert res.mean == 0.0 and res.stderr == 0.0

    def test_plain_matches_closed_form(self):
        res = monte_carlo_rounds(60, 10, 15, 15, "plain", 10000, seed=42)
        expected = expected_rounds_plain(60, 10, 15, 15)
        assert abs(res.mean - expected) <= 3 * res.stderr

    def test_plain_grid(self):
        for n, m, k, k_n in MC_GRID:
            res = monte_carlo_rounds(n, m, k, k_n, "plain", 10000, seed=42)
            expected = expected_rounds_plain(n, m, k, k_n)
            assert abs(res.mean - expected) <= 3 * res.stderr, (n, m, k, k_n)

    def test_encrypted_below_upper_bound(self):
        res = monte_carlo_rounds(60, 10, 15, 0, "encrypted", 10000, seed=42, alpha=0.3)
        assert res.mean <= 1.15 * expected_rounds_encrypted(60, 10, 15, 0.3)

    @pytest.mark.parametrize("n, m, k, alpha", ENCRYPTED_POINTS)
    def test_encrypted_matches_exact_mean(self, n, m, k, alpha):
        res = monte_carlo_rounds(n, m, k, 0, "encrypted", 10000, seed=42, alpha=alpha)
        expected = expected_rounds_encrypted_exact(n, m, k, alpha)
        assert abs(res.mean - expected) <= 4 * res.stderr

    def test_encrypted_nothing_to_clear(self):
        # ceil(k/alpha) = n: every non-target may stay unseen
        res = monte_carlo_rounds(30, 5, 15, 0, "encrypted", 100, seed=0, alpha=0.5)
        assert res == (0.0, 0.0)

    def test_encrypted_rejects_uncountable_rounds(self):
        with pytest.raises(ValueError, match="p="):
            monte_carlo_rounds(200, 150, 40, 0, "encrypted", 100, seed=0, alpha=0.5)
        with pytest.raises(ValueError, match="p=0"):
            monte_carlo_rounds(10, 5, 6, 0, "encrypted", 100, seed=0, alpha=1.0)

    def test_encrypted_requires_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo_rounds(60, 10, 15, 0, "encrypted", 1000, seed=0)

    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_rounds(60, 10, 15, 5, "plain", 99, seed=0)

    def test_deterministic(self):
        a = monte_carlo_rounds(30, 5, 5, 5, "plain", 500, seed=3)
        b = monte_carlo_rounds(30, 5, 5, 5, "plain", 500, seed=3)
        assert a == b

    def test_encrypted_deterministic(self):
        a = monte_carlo_rounds(60, 10, 15, 0, "encrypted", 500, seed=3, alpha=0.3)
        b = monte_carlo_rounds(60, 10, 15, 0, "encrypted", 500, seed=3, alpha=0.3)
        assert a == b

    def test_plain_values_pinned(self):
        # Every MC_GRID point, recorded before plain waits were drawn by _geometric
        # instead of Generator.geometric; n=30, k=15 points take the search branch.
        pinned = {
            (30, 5, 5, 1): (1.22366, 0.011109741809615001),
            (30, 5, 5, 5): (13.8273, 0.07074735888977755),
            (30, 5, 15, 1): (0.39864000000000005, 0.00278808041118579),
            (30, 5, 15, 15): (19.950740000000003, 0.07278633615118314),
            (30, 10, 5, 1): (0.61183, 0.005554870904807501),
            (30, 10, 5, 5): (6.91365, 0.03537367944488878),
            (30, 10, 15, 1): (0.19932000000000002, 0.001394040205592895),
            (30, 10, 15, 15): (9.975370000000002, 0.03639316807559157),
            (60, 5, 5, 1): (2.4488800000000004, 0.023318581650370988),
            (60, 5, 5, 5): (27.653919999999996, 0.14345360489383213),
            (60, 5, 15, 1): (0.8145, 0.007029104909701033),
            (60, 5, 15, 15): (39.929359999999996, 0.14868378420597378),
            (60, 10, 5, 1): (1.2244400000000002, 0.011659290825185494),
            (60, 10, 5, 5): (13.826959999999998, 0.07172680244691607),
            (60, 10, 15, 1): (0.40725, 0.0035145524548505164),
            (60, 10, 15, 15): (19.964679999999998, 0.07434189210298689),
            (100, 5, 5, 1): (4.082839999999999, 0.03955437533700703),
            (100, 5, 5, 5): (46.09812, 0.2403447012191041),
            (100, 5, 15, 1): (1.3595400000000002, 0.012471770257077963),
            (100, 5, 15, 15): (66.55908000000001, 0.2496682173950816),
            (100, 10, 5, 1): (2.0414199999999996, 0.019777187668503515),
            (100, 10, 5, 5): (23.04906, 0.12017235060955204),
            (100, 10, 15, 1): (0.6797700000000001, 0.006235885128538982),
            (100, 10, 15, 15): (33.279540000000004, 0.1248341086975408),
        }
        assert set(pinned) == set(MC_GRID)
        for point, (mean, stderr) in pinned.items():
            res = monte_carlo_rounds(*point, "plain", 10000, seed=42)
            assert res.mean == mean and res.stderr == stderr, point

    def test_work_budget_refuses_before_drawing(self):
        with pytest.raises(ValueError, match="1e\\+09 draw steps"):
            monte_carlo_rounds(200000, 1, 100000, 100000, "plain", 10000, seed=0)
        # 100 trials pass the lower bound of 20000 batches each, not E[L] = 20000 H_20000
        with pytest.raises(ValueError, match="2.1e\\+07 draw steps"):
            monte_carlo_rounds(20000, 1, 0, 0, "encrypted", 100, seed=0, alpha=1.0)
        with pytest.raises(ValueError, match="2e\\+07 draw steps"):
            monte_carlo_rounds(200000, 1, 0, 0, "encrypted", 100, seed=0, alpha=1.0)


# p at the edges of numpy's two geometric branches (inversion below 1/3, search
# from it on), with 10/30 the search-branch p nearest the edge in MC_GRID.
GEOMETRIC_EDGES = (1e-12, float(np.nextafter(1 / 3, 0.0)), 10 / 30, 1.0)


def numpy_geometric(p, draw):
    """One wait of numpy's ``random_geometric`` below p = 1/3, transcribed from its inversion in C."""
    z = math.ceil(-draw / math.log1p(-p))
    return 2**63 - 1 if z >= 9.223372036854776e18 else z


class GivenDraws:
    """Stands in for a Generator whose standard exponentials are ``draws``."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.float64)

    def standard_exponential(self, size):
        assert size == self.draws.size
        return self.draws.copy()


class TestGeometricSampler:
    """``analysis._geometric`` against ``Generator.geometric``, draw for draw.

    The sampler returns float64. Every value numpy returns is the int64 of
    an integral float64, or INT64_MAX, whose float64 is 2**63 and above
    every such float, so comparing as float64 loses nothing.
    """

    @settings(deadline=None, max_examples=150)
    @given(
        p=st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from(GEOMETRIC_EDGES),
        size=st.integers(0, 300) | st.sampled_from((0, 1, 10**5)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=5e-324, size=10, seed=0)  # every wait capped at INT64_MAX
    @example(p=1e-12, size=10**5, seed=1)
    @example(p=float(np.nextafter(1 / 3, 0.0)), size=10**5, seed=2)
    @example(p=10 / 30, size=10**5, seed=3)
    @example(p=1.0, size=10**5, seed=4)
    @example(p=0.5, size=0, seed=5)
    @example(p=0.5, size=1, seed=6)
    def test_matches_generator_geometric(self, p, size, seed):
        reference = np.random.default_rng(seed)
        sampler = np.random.default_rng(seed)
        want = reference.geometric(p, size)
        got = analysis._geometric(p, size, sampler)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert np.array_equal(got, want.astype(np.float64))
        assert sampler.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("p", (1e-12, 0.01, 0.1, 0.3))
    def test_exponential_on_a_whole_wait(self, p):
        # E / -log1p(-p) near an integer: rounded as numpy's division rounds it
        rate = -math.log1p(-p)
        near = np.arange(1, 200) * rate
        draws = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
        got = analysis._geometric(p, draws.size, GivenDraws(draws))
        assert got.tolist() == [numpy_geometric(p, e) for e in draws]


class TestEncryptedSampler:
    @pytest.mark.parametrize("free, m, needed", TABLE_CASES)
    def test_table_rows_are_clipped_cdfs(self, free, m, needed):
        cdf = analysis._clearing_cdf(free, m, needed)
        assert cdf.shape == (needed, min(m, needed) + 1)
        assert np.all(np.diff(cdf, axis=1) >= 0)
        assert np.all(cdf[:, -1] == 1.0)
        for s in range(needed):
            assert np.all(cdf[s, : min(max(0, m - s), needed - s)] == 0.0), s
            pmf = np.diff(cdf[s], prepend=0.0)
            assert np.allclose(pmf, clipped_pmf(free, m, needed, s), rtol=0, atol=1e-12), s

    @pytest.mark.parametrize("free, m, needed", TABLE_CASES)
    def test_lookup_edges_follow_searchsorted_right(self, free, m, needed):
        cdf = analysis._clearing_cdf(free, m, needed)
        seen = np.concatenate([np.arange(needed), np.indices(cdf.shape)[0].ravel()])
        u = np.concatenate([np.zeros(needed), cdf.ravel()])
        u[u == 1.0] = np.nextafter(1.0, 0.0)  # uniforms lie in [0, 1)
        want = [np.searchsorted(cdf[s], x, side="right") for s, x in zip(seen, u)]
        assert analysis._clear_counts(cdf, seen, u).tolist() == want

    def test_batch_count_distribution(self):
        # n=12, m=3, k=2, alpha=1: clear all 10 non-targets, 3 at a time
        cdf = analysis._clearing_cdf(10, 3, 10)
        exact = batches_pmf(cdf, 200)
        assert abs(exact.sum() - 1.0) < 1e-12
        assert abs(exact @ np.arange(200) - analysis._expected_batches(cdf)) < 1e-9
        trials = 20000
        batches = analysis._sample_batches(cdf, trials, np.random.default_rng(7))
        observed = np.bincount(batches, minlength=200)
        # bins with at least 5 expected draws; the tail merged into the last
        expected = exact * trials
        keep = np.flatnonzero(expected >= 5)
        first, last = keep[0], keep[-1]
        obs = np.concatenate([[observed[:first + 1].sum()], observed[first + 1 : last], [observed[last:].sum()]])
        exp = np.concatenate([[expected[:first + 1].sum()], expected[first + 1 : last], [expected[last:].sum()]])
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        df = len(obs) - 1
        assert chi2 < df + 6 * math.sqrt(2 * df), (chi2, df)

    def test_no_targets_gives_whole_rounds(self):
        # k = 0: every batch is target-free (p = 1), so rounds are the batch counts
        cdf = analysis._clearing_cdf(30, 5, 30)
        rounds = analysis._simulate_encrypted(30, 5, 0, 30, 1000, spawn_rng(4, 6))
        batches = analysis._sample_batches(cdf, 1000, spawn_rng(4, 6))
        assert np.array_equal(rounds, batches)
