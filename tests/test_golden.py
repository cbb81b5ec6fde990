"""Golden digests: emitted files stay byte-identical across versions of the code.

Each case writes the files of one command and compares their sha256 with a
recorded value. The values hold for numpy 2.4.6 with its bundled OpenBLAS
on x86-64 with AVX-512, where OpenBLAS runs its ``SkylakeX`` kernel and
numpy dispatches its AVX-512 loops. Trials run on one BLAS thread, so the
values depend on neither the core count nor ``OPENBLAS_NUM_THREADS``. On
other kernels the last bit of a loss moves: under
``OPENBLAS_CORETYPE=Haswell`` (the AVX2 kernel) 10 of the 13 cases fail,
and disabling numpy's AVX-512 dispatch alone
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) fails 4. So
a mismatch on a machine without AVX-512 is not by itself a regression, and
a failing case names this host's OpenBLAS core and numpy version. A change
that moves a digest on purpose must re-record it and say why.
"""

import hashlib
import pathlib
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from fednetsim.cli import main
from fednetsim.config import AttackConfig, DefenseConfig, ModelConfig, PoisonConfig, load_scenario
from fednetsim.emit import emit_metrics
from fednetsim.harness import run_scenario
from fednetsim.models import blas_core

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SMOKE = str(CONFIGS / "smoke.yaml")
RECORDED_ON = "OpenBLAS core SkylakeX, numpy 2.4.6"

GOLDEN = {
    "smoke_run": {
        "metrics.csv": "19e41dae6e21c6c9e450c37a6f29bb7145ede4185d38801eda9e9842ee70eb3e",
        "metrics_summary.json": "c247621a93208ef20804561db906a049884c54078fec6966707ceb842182e8f8",
    },
    "smoke_identify_bench": {
        "identify_bench.csv": "b7cf98f5db97da66a6d881fbff5dfead03aea6fd9110cf6a6accf2ad2ab0538a",
        "identify_bench_summary.json": "f27e87c6ecbf6905724a73427b5ac9df3e50187f105f3224b86fd51d48669fb5",
    },
    "smoke_tanh_deep": {
        "metrics.csv": "5c7c02279380cf82752a2a822b05aa0913877379c45b206071edf8949b6d7c3a",
        "metrics_summary.json": "d71f1cae4da0a4a6a6e5668ebd72a203a6bf935dd5a50a6dccbdc6274ce7ffc0",
    },
    "smoke_logistic": {
        "metrics.csv": "a25fde53c25c7618b88cf2721843a9cd5d2a5754d086381b3ac25e6588c15ce9",
        "metrics_summary.json": "e2546870ae3476972fbd79d4f2062799d7fbabf847a9ed617b51b3eb43844648",
    },
    "smoke_partial_batch": {
        "metrics.csv": "e8f5940bcb6966829b8b29ff770c4dcf3c6aa03213b965be86f67b24bd11e293",
        "metrics_summary.json": "bc5e10a034f2b0fb4ebd79078188c38fa90af4c81fb7ff3baeaa3138b15c2b85",
    },
    "smoke_sweep": {
        "sweep_matrix.csv": "21a9d3aa7916744cb74cc4476a1d126215b8e15f22611302cf935a4dcfbd58f5",
    },
    "smoke_perfect_knowledge": {
        "metrics.csv": "b9553863ae4a2d73de79eadde39c670e30e04056e7f751b29dfff51fa4baf9e1",
        "metrics_summary.json": "72b346660703634af2878a1632558bf6370386303c374a81f90d79ec13234905",
    },
    "smoke_random_drop": {
        "metrics.csv": "5e5ee3dacf08417d6492c1b6d4cf38caa43230c6112d9727d92ad8feed8c5397",
        "metrics_summary.json": "301219b19469f15380c7d3ad5ce6a5bfcb464efd249adf9f6def3201dd79eb6d",
    },
    "smoke_encrypted_limited": {
        "metrics.csv": "2420c5c1452434ac5fcf243eb02db53843625fafc88bfe34559b6e4696adc2e7",
        "metrics_summary.json": "b857d7ac84c2b684af93b2b0ac3123cfc9a69e413796cc5d4a068e995700e0b6",
    },
    "smoke_aggregate_only": {
        "metrics.csv": "df3e6a4aa40156254f74c715e6925a38039946ed1378b776d4b4283e6b7ea9b4",
        "metrics_summary.json": "3af36dc43bd5d12569019af5b7a61e621d78ea45e82be01316e008c858367994",
    },
    "smoke_plain_observers_tanh_deep": {
        "metrics.csv": "7075a509566da78e29a0f03a85640b03573d9ca8051a0afa3afcb5951f26ecc1",
        "metrics_summary.json": "7cda5d82120c0221fb1816b69b99797cb5ffa28b2b39cc1916f1d0115374762b",
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
    return dc_replace(cfg, trials=2, protocol=dc_replace(cfg.protocol, rounds=30))


def _smoke_variant(model=None, **protocol):
    """``configs/smoke.yaml`` with another model and protocol settings."""
    cfg = load_scenario(SMOKE)
    return dc_replace(cfg, model=model or cfg.model, protocol=dc_replace(cfg.protocol, **protocol))


def _smoke_attack(**attack):
    """``configs/smoke.yaml`` with other attack settings."""
    cfg = load_scenario(SMOKE)
    return dc_replace(cfg, attack=dc_replace(cfg.attack, **attack))


def _smoke_random_drop_poisoned():
    """Smoke with a random fixed drop set and two boosted poisoners over 3 trials.

    The drop set holds a compromised client in trials 2 and 3, so their
    dropped poisoned updates are never crafted.
    """
    cfg = _smoke_attack(kind="random_drop")
    return dc_replace(cfg, poison=PoisonConfig(k_p=2, boost=10.0, start_round=3), trials=3)


def _smoke_aggregate_only():
    """Smoke with an aggregate-only up-sampling defender beside the encrypted dropper."""
    return dc_replace(
        load_scenario(SMOKE),
        defense=DefenseConfig(t_s=3, k_s=2, upsample_factor=2.0, server_mode="aggregate_only", valid_set_size=30)
    )


def _smoke_plain_observers_tanh_deep():
    """Smoke on a deep tanh model with a plain dropper and a plain up-sampling defender."""
    cfg = _smoke_variant(ModelConfig(hidden_dims=(16, 8), activation="tanh"))
    return dc_replace(
        cfg,
        attack=AttackConfig(kind="targeted", mode="plain", t_n=3, k_n=3, target_set_size=30),
        defense=DefenseConfig(t_s=3, k_s=2, upsample_factor=2.0, server_mode="plain", valid_set_size=30),
    )


def _defended(cfg):
    """Plain dropper, k_p=5 boosted poisoners, clipping plain up-sampling defender."""
    return dc_replace(
        cfg,
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
    elif case == "smoke_tanh_deep":
        emit_metrics(run_scenario(_smoke_variant(ModelConfig(hidden_dims=(16, 8), activation="tanh"))), out)
    elif case == "smoke_logistic":
        emit_metrics(run_scenario(_smoke_variant(ModelConfig(hidden_dims=()))), out)
    elif case == "smoke_partial_batch":
        # local_size is 40, so every epoch ends on a 10-row batch
        emit_metrics(run_scenario(_smoke_variant(batch_size=30)), out)
    elif case == "smoke_perfect_knowledge":
        emit_metrics(run_scenario(_smoke_attack(kind="perfect_knowledge")), out)
    elif case == "smoke_random_drop":
        emit_metrics(run_scenario(_smoke_random_drop_poisoned()), out)
    elif case == "smoke_encrypted_limited":
        emit_metrics(run_scenario(_smoke_attack(mode="encrypted_limited", visible_size=6, alpha_v=0.5)), out)
    elif case == "smoke_aggregate_only":
        emit_metrics(run_scenario(_smoke_aggregate_only()), out)
    elif case == "smoke_plain_observers_tanh_deep":
        emit_metrics(run_scenario(_smoke_plain_observers_tanh_deep()), out)
    elif case == "standard_short":
        emit_metrics(run_scenario(_standard_short()), out)
    elif case == "standard_short_defended":
        emit_metrics(run_scenario(_defended(_standard_short())), out)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digest(case, tmp_path, capsys):
    _produce(case, tmp_path)
    capsys.readouterr()
    here = f"OpenBLAS core {blas_core()}, numpy {np.__version__}"
    assert _digests(tmp_path, GOLDEN[case]) == GOLDEN[case], f"recorded on {RECORDED_ON}; this host: {here}"
