"""Command-line interface: subcommands, exit codes, deterministic output."""

import os
import pathlib
import subprocess
import sys

import pytest

from fednetsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def run_cli(*argv, timeout):
    """``python -m fednetsim.cli`` in a fresh interpreter, killed after ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "fednetsim.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


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
        assert "encrypted rounds bound" in out

    def test_invalid_inputs_exit_one(self, capsys):
        rc = main(["analyze", "--n", "60", "--m", "10", "--k", "15", "--kn", "20"])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unaffordable_encrypted_simulation_exits_one_quickly(self):
        # target-free 44-of-60 batches have probability ~1e-12: simulating
        # them would never finish, so the command refuses at once
        proc = run_cli(
            "analyze", "--n", "60", "--m", "44", "--k", "15", "--kn", "15",
            "--alpha", "0.5", "--mc-trials", "100", timeout=5,
        )
        assert proc.returncode == 1
        assert "budget" in proc.stderr


class TestSweepCommand:
    def test_tiny_sweep(self, tmp_path):
        rc = main([
            "sweep", "--config", str(CONFIGS / "smoke.yaml"),
            "--kn", "0,3", "--kp", "0", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "sweep_matrix.csv").exists()
        assert (tmp_path / "cell_kn3_kp0.csv").exists()


class TestIdentifyBenchCommand:
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
