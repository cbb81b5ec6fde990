"""Command-line interface: subcommands, exit codes, deterministic output."""

import math
import os
import pathlib
import struct
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fednetsim import analysis
from fednetsim.cli import main
from fednetsim.config import load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(*argv, timeout, env=None):
    """``python -m fednetsim.cli`` in a fresh interpreter, killed after ``timeout`` seconds.

    ``env`` holds environment variables to set on top of this process's.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "fednetsim.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def smoke_with(tmp_path, override):
    """Path of ``smoke.yaml`` with ``override``'s sections merged in and top-level values replaced."""
    data = yaml.safe_load((CONFIGS / "smoke.yaml").read_text())
    for key, value in override.items():
        if isinstance(value, dict):
            data[key] = {**(data.get(key) or {}), **value}
        else:
            data[key] = value
    cfg = tmp_path / "override.yaml"
    cfg.write_text(yaml.safe_dump(data))
    return cfg


def run_smoke_with(tmp_path, override, env=None):
    """``run`` on ``smoke_with(tmp_path, override)``."""
    cfg = smoke_with(tmp_path, override)
    return run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"), timeout=60, env=env)


class TestRun:
    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        rc = main(["run", "--config", str(CONFIGS / "smoke.yaml"), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "metrics_summary.json").exists()
        assert "target accuracy" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["run", "--config", str(CONFIGS / "smoke.yaml"), "--out", str(tmp_path / sub)])
            assert rc == 0
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_bytes_independent_of_blas_thread_count(self, tmp_path):
        # At 784 inputs the 200-row target evaluation is large enough for
        # OpenBLAS to split over threads; on two threads round 4's target
        # loss used to differ from one thread's in its last digit.
        wide = {
            "dataset": {"input_dim": 784, "eval_per_class": 200},
            "model": {"hidden_dims": [256]},
            "protocol": {"rounds": 4},
        }
        csv = {}
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            proc = run_smoke_with(tmp_path / threads, wide, env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            csv[threads] = (tmp_path / threads / "out" / "metrics.csv").read_bytes()
        assert csv["1"] == csv["2"]

    @pytest.mark.parametrize("server_mode", ["plain", "aggregate_only"])
    @pytest.mark.parametrize("mode", ["plain", "encrypted", "encrypted_limited"])
    def test_every_observer_pair_runs(self, mode, server_mode, tmp_path, capsys):
        # the fuzz below changes two fields at a time, but its fixed draws never pair these two
        data = yaml.safe_load((CONFIGS / "smoke.yaml").read_text())
        data["attack"].update(mode=mode, visible_size=6, alpha_v=0.5)
        data["defense"] = {"t_s": 3, "k_s": 2, "server_mode": server_mode, "valid_set_size": 30}
        cfg = tmp_path / "pair.yaml"
        cfg.write_text(yaml.safe_dump(data))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        main(["run", "--config", str(CONFIGS / "smoke.yaml"), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(CONFIGS / "smoke.yaml"), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a != b

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("protocol:\n  nope: 3\n")
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_config_that_is_not_utf8_exits_one_naming_the_file(self, tmp_path, capsys):
        # it used to exit 2 with the decoder's message and no path
        bad = tmp_path / "binary.yaml"
        bad.write_bytes(b"\xff\xfe\x00bad")
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"configuration error: {bad}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new, key",
        [("trials: 1\n", "trials: 1\ntrials: 2\n", "trials"), ("  k_n: 3\n", "  k_n: 3\n  k_n: 0\n", "k_n")],
        ids=["top level", "in a section"],
    )
    def test_key_given_twice_exits_one_naming_its_line(self, tmp_path, capsys, old, new, key):
        text = (CONFIGS / "smoke.yaml").read_text()
        assert text.count(old) == 1
        text = text.replace(old, new)
        line = text.splitlines().index(new.splitlines()[1]) + 1
        bad = tmp_path / "twice.yaml"
        bad.write_text(text)
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"configuration error: {bad}: invalid YAML" in err
        assert f"found duplicate key '{key}'" in err
        assert f"line {line}," in err
        assert not (tmp_path / "out").exists()

    def test_merge_key_keeps_its_override_meaning(self, tmp_path):
        text = (CONFIGS / "smoke.yaml").read_text()
        merged = text.replace("protocol:\n  m: 4\n", "protocol:\n  <<: {m: 4, rounds: 99}\n")
        assert merged != text
        cfg = tmp_path / "merged.yaml"
        cfg.write_text(merged)
        loaded = load_scenario(cfg)
        assert loaded.protocol.m == 4 and loaded.protocol.rounds == 10

    @pytest.mark.parametrize(
        "override",
        [
            {"trials": "abc"},
            {"base_seed": None},
            {"protocol": {"m": "x"}},
            {"protocol": {"server_lr": "0.5"}},
            {"attack": {"k_n": [1]}},
            {"protocol": {"rounds": 3.0}},
            {"protocol": {"m": 4.0}},
            {"protocol": {"batch_size": 20.0}},
            {"defense": {"k_s": True}},
            {"model": {"hidden_dims": [True]}},
            # non-finite floats
            {"dataset": {"separation": math.inf}},
            {"protocol": {"local_lr": math.inf}},
            {"partition": {"alpha_d": math.inf}},
            {"attack": {"alpha_v": math.nan}},
            {"defense": {"k_s": 0, "upsample_factor": math.inf}},
            {"dataset": {"separation": 10**400}},
        ],
        ids=lambda o: yaml.safe_dump(o, default_flow_style=True).strip()[:60],
    )
    def test_wrongly_typed_value_exits_one(self, tmp_path, override):
        proc = run_smoke_with(tmp_path, override)
        assert proc.returncode == 1, proc.stderr
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        if "upsample_factor" in override.get("defense", {}):
            assert "defense.upsample_factor:" in proc.stderr

    def test_impossible_allocation_exits_two(self, tmp_path):
        # 10**15 examples per class is 42.6 PiB of features, past any address space
        proc = run_smoke_with(tmp_path, {"dataset": {"per_class": 10**15}})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_diverged_global_model_exits_two_without_output(self, tmp_path):
        # the aggregate is finite (~5e306) but its logits overflow: the run
        # used to exit 0 with a nan loss in the CSV and bare NaN in the JSON
        proc = run_smoke_with(tmp_path, {"protocol": {"rounds": 1, "server_lr": 1.0e308}})
        assert proc.returncode == 2, proc.stderr
        assert "error: round 1: the global model's target loss is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()
        # one line: numpy's overflow warnings from the logits and the
        # log-sum-exp used to come first, with their source lines
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_integer_past_c_long_exits_two(self, tmp_path):
        proc = run_smoke_with(tmp_path, {"dataset": {"per_class": 10**26}})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", [10**9, 10**26])
    def test_population_past_the_synthetic_pool_exits_one(self, tmp_path, n):
        # it used to exit 2 on "class 1 exhausted", or on C long conversion
        proc = run_smoke_with(tmp_path, {"partition": {"n": n}})
        assert proc.returncode == 1, proc.stderr
        assert "configuration error: partition.n:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("override", [{"partition": {"n": 30}}, {"dataset": {"class_count": 2}}])
    def test_non_target_rows_past_the_synthetic_pool_exit_one(self, tmp_path, override):
        # the non-target classes cannot fill the shards; it used to exit 2 on "class 2 exhausted"
        proc = run_smoke_with(tmp_path, override)
        assert proc.returncode == 1, proc.stderr
        assert "configuration error: partition.n:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_class_run_dry_by_the_drawn_fills_exits_one(self, tmp_path):
        # 345 non-target rows cover the 340 that validation counts, but at the
        # smoke seed the Dirichlet fills ask class 2 for more rows than it has;
        # it used to exit 2, from inside the trial
        proc = run_smoke_with(tmp_path, {"dataset": {"per_class": 115}})
        assert proc.returncode == 1, proc.stderr
        assert "configuration error: trial seed 7: class 2 exhausted" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_class_run_dry_in_a_later_trial_exits_one_before_the_first(self, tmp_path, trial_calls, capsys):
        # seed 7's fills fit 128 rows per class, seed 8's do not; the first
        # trial used to run in full before the run exited 2
        cfg = str(smoke_with(tmp_path, {"dataset": {"per_class": 128}}))
        assert main(["run", "--config", cfg, "--trials", "2", "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "configuration error: trial seed 8: class 3 exhausted: 135 examples requested, 128 available" in err
        assert trial_calls == []
        assert not (tmp_path / "out").exists()
        assert main(["run", "--config", cfg, "--trials", "1", "--out", str(tmp_path / "one")]) == 0
        assert trial_calls == [7]

    def test_missing_data_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "idx.yaml"
        cfg.write_text(
            "dataset:\n"
            "  kind: idx\n"
            "  class_count: 3\n"
            "  train_images: /nonexistent/i.idx\n"
            "  train_labels: /nonexistent/l.idx\n"
            "  test_images: /nonexistent/i.idx\n"
            "  test_labels: /nonexistent/l.idx\n"
            "partition:\n  n: 4\n  k: 1\n  local_size: 5\n"
            "protocol:\n  m: 2\n  rounds: 1\n"
            "trials: 1\n"
        )
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_truncated_idx_header_exits_two(self, tmp_path):
        short = tmp_path / "short.idx"
        short.write_bytes(b"\x00\x00\x08")
        cfg = tmp_path / "idx.yaml"
        cfg.write_text(
            "dataset:\n"
            "  kind: idx\n"
            "  class_count: 3\n"
            f"  train_images: {short}\n"
            f"  train_labels: {short}\n"
            f"  test_images: {short}\n"
            f"  test_labels: {short}\n"
            "partition:\n  n: 4\n  k: 1\n  local_size: 5\n"
            "protocol:\n  m: 2\n  rounds: 1\n"
            "trials: 1\n"
        )
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "images, labels",
        [
            (struct.pack(">IIII", 0x00000803, 2**32 - 1, 0xFFFF, 0xFFFF), None),
            (struct.pack(">IIII", 0x00000803, 2**20, 2**10, 2**10), None),
            (struct.pack(">IIII", 0x00000803, 4, 2, 2) + bytes(16), struct.pack(">II", 0x00000801, 2**32 - 1)),
        ],
        ids=["image_dims_overflow", "image_body_2**40", "label_body_2**32"],
    )
    def test_forged_idx_body_size_exits_two_quickly(self, tmp_path, images, labels):
        img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        img_path.write_bytes(images)
        lab_path.write_bytes(labels if labels is not None else struct.pack(">II", 0x00000801, 4) + bytes(4))
        cfg = tmp_path / "idx.yaml"
        cfg.write_text(
            "dataset:\n"
            "  kind: idx\n"
            "  class_count: 3\n"
            f"  train_images: {img_path}\n"
            f"  train_labels: {lab_path}\n"
            f"  test_images: {img_path}\n"
            f"  test_labels: {lab_path}\n"
            "partition:\n  n: 4\n  k: 1\n  local_size: 1\n"
            "protocol:\n  m: 2\n  rounds: 1\n"
            "trials: 1\n"
        )
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"), timeout=5)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "truncated" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_idx_label_out_of_range_exits_two(self, tmp_path):
        img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 2) + bytes(16))
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 4) + bytes([0, 1, 3, 2]))
        cfg = tmp_path / "idx.yaml"
        cfg.write_text(
            "dataset:\n"
            "  kind: idx\n"
            "  class_count: 3\n"
            f"  train_images: {img_path}\n"
            f"  train_labels: {lab_path}\n"
            f"  test_images: {img_path}\n"
            f"  test_labels: {lab_path}\n"
            "partition:\n  n: 4\n  k: 1\n  local_size: 1\n"
            "protocol:\n  m: 2\n  rounds: 1\n"
            "trials: 1\n"
        )
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"), timeout=60)
        assert proc.returncode == 2
        assert "labels must lie in [0, class_count)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out", "somewhere"])
        assert exc.value.code == 1


class TestAnalyze:
    def test_prints_closed_form_and_monte_carlo(self, capsys):
        rc = main([
            "analyze", "--n", "60", "--m", "10", "--k", "15", "--kn", "15",
            "--alpha", "0.3", "--mc-trials", "2000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "harmonic" in out
        assert "monte carlo" in out
        assert "non-target batch probability" in out
        assert "encrypted rounds (independent-draw estimate, alpha=0.3)" in out
        assert "encrypted rounds (exact, m distinct, alpha=0.3): 23.63" in out

    def test_clearing_table_built_once(self, capsys, monkeypatch):
        # the Monte-Carlo and the exact mean share one table and one recursion
        builds = []
        build = analysis._clearing_cdf
        monkeypatch.setattr(analysis, "_clearing_cdf", lambda *a: builds.append(a) or build(*a))
        analysis._clearing.cache_clear()
        rc = main([
            "analyze", "--n", "60", "--m", "10", "--k", "15", "--kn", "15",
            "--alpha", "0.3", "--mc-trials", "100",
        ])
        assert rc == 0
        assert builds == [(45, 10, 10)]
        assert "encrypted rounds (exact, m distinct, alpha=0.3): 23.63" in capsys.readouterr().out

    def test_nothing_to_clear_prints_zero_rounds(self, capsys):
        # alpha = 1 with k = n: ceil(k / alpha) == n, so nothing needs
        # clearing, although no batch avoids the targets
        rc = main(["analyze", "--n", "10", "--m", "3", "--k", "10", "--kn", "2", "--alpha", "1", "--mc-trials", "100"])
        assert rc == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("encrypted rounds")]
        assert len(lines) == 3
        assert all(": 0.00" in line for line in lines)

    def test_invalid_inputs_exit_one(self, capsys):
        rc = main(["analyze", "--n", "60", "--m", "10", "--k", "15", "--kn", "20"])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_rare_target_free_batches_simulate_quickly(self):
        cases = [
            # target-free batches are rare (p ~3e-13 for 44 of 60, ~3e-6 for
            # 90 of 100), but the simulation pays a few draws per such batch
            (60, 44, 15, 100),
            (100, 90, 5, 100),
            (100, 37, 15, 10000),
        ]
        for n, m, k, trials in cases:
            proc = run_cli(
                "analyze", "--n", str(n), "--m", str(m), "--k", str(k), "--kn", str(k),
                "--alpha", "0.5", "--mc-trials", str(trials), timeout=5,
            )
            assert proc.returncode == 0, proc.stderr
            line = next(s for s in proc.stdout.splitlines() if s.startswith("encrypted rounds (monte carlo)"))
            mean = float(line.split(":")[1].split("+/-")[0])
            assert math.isfinite(mean) and mean >= 1

    def test_unaffordable_encrypted_simulation_exits_one_quickly(self):
        # target-free 150-of-200 batches with 40 targets have probability
        # ~5e-33: their round counts do not fit in 2**53
        proc = run_cli(
            "analyze", "--n", "200", "--m", "150", "--k", "40", "--kn", "40",
            "--alpha", "0.5", "--mc-trials", "100", timeout=5,
        )
        assert proc.returncode == 1
        assert "p=" in proc.stderr

    @pytest.mark.parametrize(
        "n, m, k, kn, extra, figure",
        [
            # 100 trials of at least 200000 one-client target-free batches
            (200000, 1, 0, 0, ["--alpha", "1", "--mc-trials", "100"], "2e+07 draw steps"),
            # 10000 trials of 100000 geometric draws
            (200000, 1, 100000, 100000, [], "1e+09 draw steps"),
            # a 20000 x 1001 clearing table
            (20000, 1000, 0, 0, ["--alpha", "1", "--mc-trials", "100"], "20020000 entries"),
        ],
    )
    def test_oversized_runs_exit_one_quickly(self, n, m, k, kn, extra, figure):
        proc = run_cli(
            "analyze", "--n", str(n), "--m", str(m), "--k", str(k), "--kn", str(kn), *extra,
            timeout=5,
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert figure in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_plain_closed_form_of_a_huge_population_is_quick(self):
        # H_k - H_{k-1} is one term, however large k is
        proc = run_cli(
            "analyze", "--n", "1000000000000", "--m", "1", "--k", "1000000000000", "--kn", "1",
            timeout=5,
        )
        assert proc.returncode == 0, proc.stderr
        assert "plain rounds (harmonic):    1.00" in proc.stdout

    @pytest.mark.parametrize(
        "m, k, figure",
        [
            # H_{n-k} alone would take about a day; the Monte-Carlo's table
            # refusal runs before the closed forms
            ("100000000000", "15", "entries"),
            # the target-free probability's 4e11 factors underflow to 0 after
            # about a thousand
            ("500000000000", "400000000000", "p=0 per round"),
        ],
    )
    def test_encrypted_run_on_a_huge_population_is_refused_quickly(self, m, k, figure):
        proc = run_cli(
            "analyze", "--n", "1000000000000", "--m", m, "--k", k, "--kn", "1", "--alpha", "0.5",
            timeout=5,
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert figure in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_target_free_probability_is_bounded_before_its_product(self):
        # 1e8 factors of 1 - 1e-6 never underflow; their bound (1 - 1e-6)**1e8,
        # about 4e-44, refuses before the product runs
        proc = run_cli(
            "analyze", "--n", "100000000000000", "--m", "100000000", "--k", "100000000", "--kn", "1",
            "--alpha", "0.00000100000001", timeout=5,
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert "at most p=" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_work_bound_is_checked_before_the_target_free_probability(self):
        # p's 1e8 factors take seconds to multiply; 10000 trials of at least
        # ceil((1e15 - 1e8) / 1e8) target-free rounds are refused without p
        proc = run_cli(
            "analyze", "--n", "1000000000000000", "--m", "100000000", "--k", "100000000", "--kn", "1",
            "--alpha", "1", timeout=5,
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr
        assert "1e+11 draw steps" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path):
        rc = main([
            "sweep", "--config", str(CONFIGS / "smoke.yaml"),
            "--kn", "0,3", "--kp", "0", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "sweep_matrix.csv").exists()
        assert (tmp_path / "cell_kn3_kp0.csv").exists()

    def test_empty_axis_exits_one_quickly(self, tmp_path):
        proc = run_cli(
            "sweep", "--config", str(CONFIGS / "smoke.yaml"),
            "--kn", "", "--kp", "0", "--out", str(tmp_path / "out"),
            timeout=5,
        )
        assert proc.returncode == 1
        assert "--kn" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_negative_kp_exits_one_before_any_cell(self, tmp_path):
        # it used to run as a second unpoisoned cell, `cell_kn3_kp-1`
        proc = run_cli(
            "sweep", "--config", str(CONFIGS / "smoke.yaml"),
            "--kn", "3", "--kp=-1,0", "--out", str(tmp_path / "out"),
            timeout=10,
        )
        assert proc.returncode == 1, proc.stderr
        assert "configuration error: poison.k_p: must be >= 0" in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_class_run_dry_in_a_later_cell_exits_one_before_any_cell(self, tmp_path, trial_calls, capsys):
        # at 131 rows per class the k_p = 1 cell's fills fit and the k_p = 2 cell's do not
        cfg = str(smoke_with(tmp_path, {"dataset": {"per_class": 131}}))
        argv = ["sweep", "--config", cfg, "--kn", "3", "--out", str(tmp_path / "out")]
        assert main([*argv, "--kp", "1,2"]) == 1
        err = capsys.readouterr().err
        assert "configuration error: trial seed 7: class 2 exhausted: 132 examples requested, 131 available" in err
        assert trial_calls == []
        assert not (tmp_path / "out").exists()
        assert main([*argv, "--kp", "1"]) == 0
        assert trial_calls == [7]

    def test_clip_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--config", str(CONFIGS / "smoke.yaml"),
                "--kn", "0", "--kp", "0", "--clip", "--out", str(tmp_path),
            ])
        assert exc.value.code == 1


class TestIdentifyBenchCommand:
    def test_zero_targets_exits_one_quickly(self, tmp_path):
        data = yaml.safe_load((CONFIGS / "smoke.yaml").read_text())
        data["partition"]["k"] = 0
        data["attack"]["k_n"] = 0
        cfg = tmp_path / "k0.yaml"
        cfg.write_text(yaml.safe_dump(data))
        proc = run_cli(
            "identify-bench", "--config", str(cfg), "--rounds", "3,10", "--out", str(tmp_path / "out"),
            timeout=5,
        )
        assert proc.returncode == 1
        assert "partition.k" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_tiny_bench(self, tmp_path, capsys):
        rc = main([
            "identify-bench", "--config", str(CONFIGS / "smoke.yaml"),
            "--rounds", "3,6", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "identify_bench.csv").exists()
        lines = (tmp_path / "identify_bench.csv").read_text().splitlines()
        assert lines[0] == "mode,round,trial,hits,recall"
        # two modes x two checkpoints x one trial
        assert len(lines) == 1 + 4


# Edge values of the fuzzed `run` scenario, configs/smoke.yaml with a poison
# and a defense section (n=10, k=3, 4 classes of 300 rows, 40-row shards):
# 0, 1, each legal bound and one past it, and 10**12 (10**400, past the float
# range, where a rule multiplies the count by a float). A count that sizes an
# allocation gets 10**15 instead, past any address space, and rounds, epochs
# and trials stay small, so that every run the rules accept ends quickly.
FLOAT_EDGES = [0.0, 1.0, -1.0, 1e12, math.nan, math.inf]
RUN_EDGES = {
    "dataset.kind": ["idx"],
    "dataset.class_count": [0, 1, 2, 10**15],
    "dataset.input_dim": [0, 1, 10**15],
    "dataset.per_class": [0, 1, 99, 100, 10**15],
    "dataset.separation": FLOAT_EDGES,
    "dataset.eval_per_class": [0, 1, 10**15],
    "partition.n": [0, 1, 4, 5, 30, 31, 10**12],
    "partition.k": [-1, 0, 1, 9, 10, 10**12],
    "partition.target_class": [-1, 0, 3, 4],
    "partition.alpha_t": [*FLOAT_EDGES, 1e-300],
    "partition.alpha_d": [*FLOAT_EDGES, 1e-300],
    "partition.local_size": [0, 1, 120, 121, 10**12, 10**400],
    "model.hidden_dims": [[], [0], [1], [10**15]],
    "model.activation": ["tanh", "gelu"],
    "protocol.m": [0, 1, 10, 11],
    "protocol.rounds": [0, 1],
    "protocol.server_lr": [*FLOAT_EDGES, 1e308],
    "protocol.local_epochs": [-1, 0, 1],
    "protocol.local_lr": [*FLOAT_EDGES, 1e308],
    "protocol.batch_size": [None, 0, 1, 40, 41, 10**12],
    "protocol.clip_norm": [*FLOAT_EDGES, 5e-324],
    "protocol.denominator_mode": ["fixed_m", "median"],
    "attack.kind": ["perfect_knowledge", "random_drop", "psychic"],
    "attack.mode": ["plain", "encrypted_limited", "psychic"],
    "attack.t_n": [0, 1, 10, 11, 10**12],
    "attack.k_n": [-1, 0, 1, 10, 11, 10**12],
    "attack.target_set_size": [0, 1, 50, 51, 10**12],
    "attack.visible_size": [0, 1, 10, 11, 10**12],
    "attack.alpha_v": FLOAT_EDGES,
    "poison.k_p": [-1, 0, 1, 7, 8, 10**12],
    "poison.boost": [*FLOAT_EDGES, 1e308],
    "poison.flip_to": [-1, 0, 1, 3, 4],
    "poison.start_round": [-1, 0, 1, 10**12],
    "defense.t_s": [0, 1, 10, 11, 10**12],
    "defense.k_s": [-1, 0, 1, 4, 5, 10**12, 10**400],
    "defense.upsample_factor": [*FLOAT_EDGES, 4.999, 5.0],
    "defense.server_mode": ["aggregate_only", "psychic"],
    "defense.valid_set_size": [0, 1, 10**12],
    "defense.clip_norm": [*FLOAT_EDGES, 5e-324],
    "trials": [-1, 0, 1, 2],
    "base_seed": [-1, 0, 2**64, 10**12],
}
RUN_FLAGS = [(), ("--seed", "-1"), ("--seed", str(2**64)), ("--trials", "0"), ("--trials", "2")]


def _analyze_argv(draw, tmp):
    # every argument at a legal edge, then at most one pushed past its bound
    n = draw(st.sampled_from([1, 60, 10**12]))
    m, k = draw(st.sampled_from([1, n])), draw(st.sampled_from([0, 1, n]))
    args = {
        "n": n, "m": m, "k": k, "kn": draw(st.sampled_from([0, min(1, k), k])),
        "mc-trials": draw(st.sampled_from([100, 10000, 10**12])), "seed": draw(st.sampled_from([0, 10**12])),
        "alpha": draw(st.sampled_from([None, k / n or 1.0, 1.0])),  # precision alpha needs k / alpha <= n
    }
    past = {
        "n": [0], "m": [0, n + 1], "k": [n + 1], "kn": [k + 1], "mc-trials": [99], "seed": [-1],
        "alpha": [0.0, 1.0000000000000002, k / n * (1 - 1e-9), 1e12, math.nan, math.inf],
    }
    key = draw(st.sampled_from([None, *past]))
    if key is not None:
        args[key] = draw(st.sampled_from(past[key]))
    return ["analyze", *(f"--{name}={value}" for name, value in args.items() if value is not None)]


def _run_argv(draw, tmp):
    data = yaml.safe_load((CONFIGS / "smoke.yaml").read_text())
    data["poison"] = {"k_p": 1, "boost": 10.0}
    data["defense"] = {"t_s": 3, "k_s": 2}
    # no rule refuses these for the other modes, and they make an encrypted_limited draw a valid run
    data["attack"] |= {"visible_size": 6, "alpha_v": 0.5}
    # zero to two fields changed: with none or only legal values drawn an example runs the
    # scenario to exit 0, and with two, two sections' fields can meet in one example
    for path in draw(st.lists(st.sampled_from(sorted(RUN_EDGES)), min_size=0, max_size=2, unique=True)):
        *section, key = path.split(".")
        (data[section[0]] if section else data)[key] = draw(st.sampled_from(RUN_EDGES[path]))
    cfg = tmp / "fuzz.yaml"
    cfg.write_text(yaml.safe_dump(data))
    return ["run", "--config", str(cfg), "--out", str(tmp / "out"), *draw(st.sampled_from(RUN_FLAGS))]


def _counts(draw, legal, past):
    # 1-3 legal values with repeats, then half the time one value past its
    # bound appended, or "" for an empty list
    values = draw(st.lists(st.sampled_from(legal), min_size=1, max_size=3))
    if draw(st.booleans()):
        bad = draw(st.sampled_from(past))
        values = [*values, bad] if bad != "" else []
    return ",".join(map(str, values))


def _sweep_argv(draw, tmp):
    # smoke's n=10, k=3 bound k_n by 10 and k_p by 7: at most 3 x 3 ten-round cells
    kn = _counts(draw, [0, 1, 10], [-1, 11, ""])
    kp = _counts(draw, [0, 1, 7], [-1, 8, 10, 11, ""])
    return ["sweep", "--config", str(CONFIGS / "smoke.yaml"), f"--kn={kn}", f"--kp={kp}", "--out", str(tmp / "out")]


def _identify_bench_argv(draw, tmp):
    # the last checkpoint is the bench's round count, so it stays small
    rounds = _counts(draw, [1, 2, 10], [0, -1, ""])
    return ["identify-bench", "--config", str(CONFIGS / "smoke.yaml"), f"--rounds={rounds}", "--out", str(tmp / "out")]


COMMANDS = {"run": _run_argv, "analyze": _analyze_argv, "sweep": _sweep_argv, "identify-bench": _identify_bench_argv}


@settings(derandomize=True, max_examples=32, deadline=None)
@given(st.data())
def test_every_command_ends_in_an_exit_code(tmp_path_factory, data):
    # a bad input ends in exit 1 (configuration) or 2 (runtime), never a
    # traceback or a hang; each example runs one of the four commands
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    argv = COMMANDS[command](data.draw, tmp_path_factory.mktemp("fuzz"))
    proc = run_cli(*argv, timeout=10)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
