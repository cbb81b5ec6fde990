"""Self-test of the benchmark at toy size: ``python3 -m pytest -q perfbench``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS for t in (0, 1)], ids=str)
def toy_run(request):
    workload, trace = request.param
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result_file = next(line.split(" ", 2)[2] for line in lines if line.startswith("result file "))
    with open(os.path.join(ROOT, result_file), encoding="utf-8") as fh:
        details = json.load(fh)
    return trace, json.loads(lines[-1]), details


def test_every_metric_with_its_unit(toy_run):
    trace, result, _ = toy_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_nothing_failed(toy_run):
    _, result, _ = toy_run
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_self_times_within_traced_wall(toy_run):
    trace, _, details = toy_run
    if not trace:
        pytest.skip("untraced run")
    record = details["provenance"]
    for wall, layers in zip(record["traced_walls_s"], record["layers"]):
        for name, layer in layers.items():
            assert 0 <= layer["self_s"] <= wall, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "standard_enc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
