"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Criteria 6-8 run the checked-in standard scenario (configs/standard.yaml)
at 5 seeds per variant; the scenario battery is computed once per session
and shared. Everything here is deterministic: fixed seeds, fixed configs.
"""

import pathlib
from dataclasses import replace

import numpy as np
import pytest

from fednetsim.analysis import (
    MC_GRID,
    expected_rounds_encrypted,
    expected_rounds_plain,
    expected_rounds_plain_approx,
    monte_carlo_rounds,
    prob_nontarget_batch,
)
from fednetsim.cli import main
from fednetsim.config import AttackConfig, DefenseConfig, PoisonConfig, load_scenario
from fednetsim.datasets import ExampleSet, gen_synthetic
from fednetsim.defense import upsample_probabilities
from fednetsim.harness import identify_bench, run_scenario
from fednetsim.models import ModelSpec, forward_eval, init_model, loss_gradient
from fednetsim.poisoning import craft_poison_update, flip_labels
from fednetsim.protocol import aggregate

from conftest import Update

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SEEDS = 5  # criteria 6-8 are 5-seed means


def report(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def standard_cfg():
    cfg = load_scenario(CONFIGS / "standard.yaml")
    return replace(cfg, trials=SEEDS)


@pytest.fixture(scope="session")
def battery(standard_cfg):
    """Final/half target and non-target accuracies for the scenario variants."""
    base = replace(standard_cfg, attack=None)
    k = standard_cfg.partition.k
    t_n = standard_cfg.attack.t_n
    enc = AttackConfig(kind="targeted", mode="encrypted", t_n=t_n, k_n=k)
    ups = DefenseConfig(t_s=t_n, k_s=k, upsample_factor=2.0, server_mode="plain")
    clip_ups = DefenseConfig(
        t_s=t_n, k_s=k, upsample_factor=2.0, server_mode="plain", clip_norm=1.0
    )
    poison = PoisonConfig(k_p=k // 3, boost=10.0)
    variants = {
        "none": base,
        "perfect": replace(base, attack=AttackConfig(kind="perfect_knowledge", k_n=k)),
        "random": replace(base, attack=AttackConfig(kind="random_drop", k_n=k)),
        "plain": replace(base, attack=AttackConfig(kind="targeted", mode="plain", t_n=t_n, k_n=k)),
        "enc": replace(base, attack=enc),
        "enc+ups": replace(base, attack=enc, defense=ups),
        "enc+poison": replace(base, attack=enc, poison=poison),
        "enc+poison+clip+ups": replace(base, attack=enc, poison=poison, defense=clip_ups),
    }
    out = {}
    for name, cfg in variants.items():
        summary = run_scenario(cfg)
        out[name] = {
            "target_final": summary.mean_at("target_acc", summary.rounds),
            "target_half": summary.mean_at("target_acc", summary.half_round),
            "nontarget_final": summary.mean_at("nontarget_acc", summary.rounds),
        }
    return out


class TestCriterion1AnalyticReproduction:
    def test_plain_full_collector_log_approx(self):
        value = expected_rounds_plain_approx(100, 10, 100, 100)
        report("criterion 1a", abs(value - 46.05) <= 1.0, f"ln-approx rounds {value:.2f} vs 46.05 +/- 1.0")

    def test_plain_experiment_setting(self):
        approx = expected_rounds_plain_approx(60, 10, 15, 15)
        exact = expected_rounds_plain(60, 10, 15, 15)
        report(
            "criterion 1b",
            abs(approx - 16.25) <= 0.5 and abs(exact - 19.91) <= 0.5,
            f"ln-approx {approx:.2f} vs 16.25, harmonic {exact:.2f} vs 19.91 (+/- 0.5)",
        )

    def test_nontarget_batch_probability(self):
        p = prob_nontarget_batch(60, 15, 10)
        report("criterion 1c", 0.053 <= p <= 0.059, f"non-target batch probability {p:.4f} in [0.053, 0.059]")

    def test_encrypted_rounds(self):
        r = expected_rounds_encrypted(60, 10, 15, 0.3)
        report("criterion 1d", 24 <= r <= 29, f"encrypted rounds bound {r:.2f} in [24, 29]")


class TestCriterion2MonteCarloAgreement:
    def test_plain_grid_within_three_stderr(self):
        worst, worst_point = 0.0, None
        for n, m, k, k_n in MC_GRID:
            res = monte_carlo_rounds(n, m, k, k_n, "plain", 10000, seed=42)
            z = abs(res.mean - expected_rounds_plain(n, m, k, k_n)) / res.stderr
            if z > worst:
                worst, worst_point = z, (n, m, k, k_n)
        report(
            "criterion 2",
            worst <= 3.0,
            f"24-point grid, 10k trials: worst |z| = {worst:.2f} at {worst_point} (limit 3)",
        )


class TestCriterion3GradientCorrectness:
    def test_hundred_random_small_models(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        checked = 0
        while checked < 100:
            input_dim = int(rng.integers(2, 6))
            hidden = (int(rng.integers(2, 5)),) if rng.random() < 0.5 else ()
            class_count = int(rng.integers(2, 5))
            activation = "relu" if rng.random() < 0.5 else "tanh"
            spec = ModelSpec(input_dim, hidden, class_count, activation)
            if spec.param_count() > 50:
                continue
            checked += 1
            params = init_model(spec, checked) + 0.3 * rng.standard_normal(spec.param_count())
            size = int(rng.integers(1, 6))
            batch = ExampleSet(
                rng.standard_normal((size, input_dim)),
                rng.integers(0, class_count, size=size),
            )
            analytic = loss_gradient(params, spec, batch)
            h = 1e-5
            for i in range(spec.param_count()):
                plus = params.copy()
                plus[i] += h
                minus = params.copy()
                minus[i] -= h
                fd = (
                    forward_eval(plus, spec, batch).mean_loss
                    - forward_eval(minus, spec, batch).mean_loss
                ) / (2 * h)
                rel = abs(analytic[i] - fd) / max(1e-8, abs(analytic[i]), abs(fd))
                worst = max(worst, rel)
        report("criterion 3", worst < 1e-4, f"100 models: worst relative gradient error {worst:.2e}")


class TestCriterion4AggregationIdentities:
    def test_identities(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(24)
        zero_fix = np.array_equal(
            aggregate(f, [Update(0, np.zeros(24)), Update(1, np.zeros(24))], 0.4), f
        )
        u = rng.standard_normal(24)
        single = np.array_equal(aggregate(f, [Update(3, u)], 1.0), f + u)
        delta = np.zeros(24)
        delta[5] = 2.0
        clip_scale = np.array_equal(
            aggregate(f, [Update(0, delta)], 1.0, clip_norm=1.0), f + delta / 2
        )
        ups = [Update(j, rng.standard_normal(24)) for j in range(8)]
        perm = np.array_equal(
            aggregate(f, ups, 0.3, clip_norm=0.7),
            aggregate(f, list(reversed(ups)), 0.3, clip_norm=0.7),
        )
        lr, clip = 0.25, 1.0
        big = [Update(j, 10 * rng.standard_normal(24)) for j in range(6)]
        bound = (
            np.linalg.norm(aggregate(f, big, lr, clip_norm=clip) - f) <= lr * clip + 1e-12
        )
        report(
            "criterion 4",
            zero_fix and single and clip_scale and perm and bound,
            "zero fixpoint, single-update identity, clip scaling, permutation invariance, "
            "clipped step bound all hold",
        )


class TestCriterion5UpsamplingFormula:
    def test_grid_and_rejection(self):
        worst = 0.0
        cases = 0
        for n in range(2, 101):
            for k_s in range(0, n):
                for factor in (1.0, 1.5, 2.0, 3.0):
                    if k_s * factor >= n:
                        continue
                    p = upsample_probabilities(list(range(k_s)), n, factor)
                    cases += 1
                    worst = max(worst, abs(float(p.sum()) - 1.0))
                    if factor == 1.0:
                        assert np.all(p == 1.0 / n)
        rejected = False
        try:
            upsample_probabilities(list(range(5)), 10, 2.0)
        except ValueError:
            rejected = True
        report(
            "criterion 5",
            worst < 1e-12 and rejected,
            f"{cases} grid points sum to 1 within {worst:.2e}; oversized factor rejected",
        )


class TestCriterion6BaselineShape:
    def test_perfect_vs_random(self, battery):
        none, perfect, random = battery["none"], battery["perfect"], battery["random"]
        checks = {
            "perfect target <= 0.05": perfect["target_final"] <= 0.05,
            "perfect nontarget within 10pts": abs(perfect["nontarget_final"] - none["nontarget_final"]) <= 0.10,
            "random target within 10pts": abs(random["target_final"] - none["target_final"]) <= 0.10,
            "gap >= 30pts": random["target_final"] - perfect["target_final"] >= 0.30,
        }
        detail = (
            f"none={none['target_final']:.3f} perfect={perfect['target_final']:.3f} "
            f"random={random['target_final']:.3f} nontarget none/perfect="
            f"{none['nontarget_final']:.3f}/{perfect['nontarget_final']:.3f}"
        )
        report("criterion 6", all(checks.values()), detail + " | " + ", ".join(k for k in checks))

    def test_no_attack_accuracy_rises(self, battery):
        # Table II no-attack column shape: target accuracy at T exceeds T/2
        none = battery["none"]
        report(
            "criterion 6 (learning)",
            none["target_final"] > none["target_half"],
            f"no-attack target accuracy {none['target_half']:.3f} @ T/2 -> "
            f"{none['target_final']:.3f} @ T",
        )

    def test_dropping_monotonicity_chain(self, battery):
        # perfect <= plain <= encrypted <= random <= none, 3pp tolerance
        chain = [
            battery["perfect"]["target_final"],
            battery["plain"]["target_final"],
            battery["enc"]["target_final"],
            battery["random"]["target_final"],
            battery["none"]["target_final"],
        ]
        ok = all(a <= b + 0.03 for a, b in zip(chain, chain[1:]))
        report(
            "criterion 6 (chain)",
            ok,
            "perfect/plain/encrypted/random/none = " + "/".join(f"{v:.3f}" for v in chain),
        )


class TestCriterion7IdentificationShape:
    def test_recall_over_rounds(self, standard_cfg):
        k = standard_cfg.partition.k
        rounds = (10, 30, 70)
        bench = identify_bench(standard_cfg, rounds)
        recall = {
            mode: [float(np.mean(bench[mode][r])) / k for r in rounds] for mode in bench
        }

        def nondecreasing(seq):
            inversions = [max(0.0, a - b) for a, b in zip(seq, seq[1:])]
            big = [v for v in inversions if v > 1e-12]
            return len(big) <= 1 and all(v <= 0.05 for v in big)

        ok = (
            nondecreasing(recall["plain"])
            and nondecreasing(recall["encrypted"])
            and recall["plain"][1] >= recall["encrypted"][1]
        )
        detail = (
            "plain@10/30/70 = " + "/".join(f"{v:.3f}" for v in recall["plain"]) +
            ", encrypted@10/30/70 = " + "/".join(f"{v:.3f}" for v in recall["encrypted"])
        )
        report("criterion 7", ok, detail)


class TestCriterion8AttackDefenseShape:
    def test_drop_upsample_poison_clip(self, battery):
        none = battery["none"]["target_final"]
        drop = battery["enc"]["target_final"]
        recovered = battery["enc+ups"]["target_final"]
        poisoned = battery["enc+poison"]["target_final"]
        defended = battery["enc+poison+clip+ups"]["target_final"]
        loss = none - drop
        checks = {
            "targeted drop >= 25pts": loss >= 0.25,
            "upsampling recovers >= half": recovered - drop >= loss / 2,
            "boosted poison <= 0.10": poisoned <= 0.10,
            "clip+upsampling within 15pts": none - defended <= 0.15,
        }
        detail = (
            f"none={none:.3f} drop={drop:.3f} ups={recovered:.3f} "
            f"poison={poisoned:.3f} clip+ups={defended:.3f}"
        )
        report("criterion 8", all(checks.values()), detail + " | " + ", ".join(k for k in checks))


class TestCriterion9ClipSaturation:
    def test_boost_invariance_under_clipping(self):
        spec = ModelSpec(6, (8,), 4)
        f = init_model(spec, 3)
        src, _ = gen_synthetic(4, 6, 80, 0, 2.0, seed=5)
        shard = flip_labels(src, 0, 1)
        base = craft_poison_update(f, spec, shard, 2, 0.1, 1.0, seed=9)
        assert np.linalg.norm(10 * base) > 1.0  # clip saturates
        agg10 = aggregate(f, [Update(0, 10 * base)], 1.0, clip_norm=1.0)
        agg1000 = aggregate(f, [Update(0, 1000 * base)], 1.0, clip_norm=1.0)
        diff = float(np.abs(agg10 - agg1000).max())
        report("criterion 9", diff < 1e-9, f"beta=10 vs beta=1000 aggregates differ by {diff:.2e}")


class TestCriterion10DeterminismRegression:
    def test_cli_run_byte_identical(self, tmp_path):
        for sub in ("first", "second"):
            rc = main([
                "run", "--config", str(CONFIGS / "smoke.yaml"), "--out", str(tmp_path / sub)
            ])
            assert rc == 0
        a = (tmp_path / "first" / "metrics.csv").read_bytes()
        b = (tmp_path / "second" / "metrics.csv").read_bytes()
        report("criterion 10", a == b, f"two `run` invocations: {len(a)} bytes, byte-identical={a == b}")
