"""Golden digests: emitted files stay byte-identical across versions of the code.

Each case writes the files of one command and compares their sha256 with a
recorded value. The values hold for one numpy/OpenBLAS build (numpy 2.4.6
with its bundled OpenBLAS, x86-64); floating-point results may differ in
the last bit on another BLAS, so a mismatch there is not by itself a
regression. A change that moves a digest on purpose must re-record it and
say why.
"""

import hashlib
import pathlib
from dataclasses import replace as dc_replace

import pytest

from fednetsim.cli import main
from fednetsim.config import AttackConfig, DefenseConfig, PoisonConfig, load_scenario
from fednetsim.harness import emit_metrics, run_scenario

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SMOKE = str(CONFIGS / "smoke.yaml")

GOLDEN = {
    "smoke_run": {
        "metrics.csv": "19e41dae6e21c6c9e450c37a6f29bb7145ede4185d38801eda9e9842ee70eb3e",
        "metrics_summary.json": "c247621a93208ef20804561db906a049884c54078fec6966707ceb842182e8f8",
    },
    "smoke_identify_bench": {
        "identify_bench.csv": "b7cf98f5db97da66a6d881fbff5dfead03aea6fd9110cf6a6accf2ad2ab0538a",
        "identify_bench_summary.json": "f27e87c6ecbf6905724a73427b5ac9df3e50187f105f3224b86fd51d48669fb5",
    },
    "smoke_sweep": {
        "sweep_matrix.csv": "21a9d3aa7916744cb74cc4476a1d126215b8e15f22611302cf935a4dcfbd58f5",
    },
    "standard_short": {
        "metrics.csv": "e7d7db5525b59eda3534b28302d00e724b3ac0e097ee17addd7898ed2f285bc6",
        "metrics_summary.json": "6e8986daa7e1d343e6e06f3e6a64d26944c8b72a51f543cabd9b58c4491af081",
    },
    "standard_short_defended": {
        "metrics.csv": "60e0ca6e5d56bc13ae9a8af39ad227314deb0103a5f8bbaf75ea1afb8da910ac",
        "metrics_summary.json": "39135673d48c02add4525cde53fb930c2a5e9409d0a292e50296bb81563e3ab2",
    },
}


def _digests(out_dir: pathlib.Path, names) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def _standard_short():
    """``configs/standard.yaml`` cut to 30 rounds x 2 trials."""
    cfg = load_scenario(CONFIGS / "standard.yaml")
    return cfg.replace(trials=2, protocol=dc_replace(cfg.protocol, rounds=30))


def _defended(cfg):
    """Plain dropper, k_p=5 boosted poisoners, clipping plain up-sampling defender."""
    return cfg.replace(
        attack=AttackConfig(kind="targeted", mode="plain", t_n=30, k_n=15, target_set_size=100),
        poison=PoisonConfig(k_p=5, boost=10.0),
        defense=DefenseConfig(
            t_s=30, k_s=15, upsample_factor=2.0, server_mode="plain", valid_set_size=100, clip_norm=1.0
        ),
    )


def _cli(argv):
    assert main(argv) == 0


def _produce(case: str, out: pathlib.Path):
    if case == "smoke_run":
        _cli(["run", "--config", SMOKE, "--out", str(out)])
    elif case == "smoke_identify_bench":
        _cli(["identify-bench", "--config", SMOKE, "--rounds", "3,10", "--out", str(out)])
    elif case == "smoke_sweep":
        _cli(["sweep", "--config", SMOKE, "--kn", "0,3", "--kp", "0,2", "--out", str(out)])
    elif case == "standard_short":
        emit_metrics(run_scenario(_standard_short()), out)
    elif case == "standard_short_defended":
        emit_metrics(run_scenario(_defended(_standard_short())), out)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(case, tmp_path, capsys):
    _produce(case, tmp_path)
    capsys.readouterr()
    assert _digests(tmp_path, GOLDEN[case]) == GOLDEN[case]
