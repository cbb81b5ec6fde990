"""Command-line interface.

Subcommands: ``run`` (one scenario), ``sweep`` (k_n x k_p grid),
``analyze`` (closed-form identification cost vs Monte-Carlo), and
``identify-bench`` (identification quality over observation rounds).
Exit codes: 0 success, 1 configuration error, 2 runtime error.

Each command imports the layers it runs when it runs: ``analyze`` needs
only ``analysis``, so it loads neither PyYAML, the configuration schema nor
the simulator, and the other commands do not load ``analysis``. The file
writers of ``fednetsim.emit`` need none of them either and are bound at
import.
"""

import argparse
import sys

from fednetsim.emit import emit_identify_bench, emit_metrics, emit_sweep
from fednetsim.errors import ConfigError


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fednetsim",
        description="Federated averaging simulator with network-level attacks and defenses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit metrics")
    p_run.add_argument("--config", required=True, help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override base_seed")
    p_run.add_argument("--trials", type=int, default=None, help="override trial count")

    p_sweep = sub.add_parser("sweep", help="sweep dropped/poisoned client counts")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--kn", type=_int_list, required=True, help="comma-separated k_n values")
    p_sweep.add_argument("--kp", type=_int_list, required=True, help="comma-separated k_p values")
    p_sweep.add_argument("--out", required=True)

    p_an = sub.add_parser("analyze", help="closed-form identification cost vs Monte-Carlo")
    p_an.add_argument("--n", type=int, required=True)
    p_an.add_argument("--m", type=int, required=True)
    p_an.add_argument("--k", type=int, required=True)
    p_an.add_argument("--kn", type=int, required=True)
    p_an.add_argument("--alpha", type=float, default=None, help="encrypted-mode precision target")
    p_an.add_argument("--mc-trials", type=int, default=10000)
    p_an.add_argument("--seed", type=int, default=0)

    p_id = sub.add_parser("identify-bench", help="identification quality at checkpoint rounds")
    p_id.add_argument("--config", required=True)
    p_id.add_argument("--rounds", type=_int_list, required=True, help="comma-separated checkpoints")
    p_id.add_argument("--out", required=True)

    return parser


def _cmd_run(args) -> int:
    from dataclasses import replace

    from fednetsim.config import load_scenario
    from fednetsim.harness import run_scenario

    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    summary = run_scenario(cfg)
    csv_path, json_path = emit_metrics(summary, args.out)
    half = summary.half_round
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    print(
        f"target accuracy: {summary.mean_at('target_acc', half):.3f} @ round {half}, "
        f"{summary.mean_at('target_acc', summary.rounds):.3f} @ round {summary.rounds} "
        f"({cfg.trials}-trial mean)"
    )
    return 0


def _cmd_sweep(args) -> int:
    from fednetsim.config import load_scenario
    from fednetsim.harness import sweep_grid

    cfg = load_scenario(args.config)
    results = sweep_grid(cfg, args.kn, args.kp)
    matrix_path = emit_sweep(results, args.out)
    print(f"wrote {matrix_path} and {len(results)} cell files")
    return 0


def _cmd_analyze(args) -> int:
    from fednetsim.analysis import (
        expected_rounds_encrypted,
        expected_rounds_encrypted_exact,
        expected_rounds_plain,
        expected_rounds_plain_approx,
        monte_carlo_rounds,
        prob_nontarget_batch,
    )

    try:
        # Each Monte-Carlo run's work budget refuses, quickly, inputs whose
        # closed forms or exact recursion would be long, so it runs first.
        mc = monte_carlo_rounds(args.n, args.m, args.k, args.kn, "plain", args.mc_trials, args.seed)
        exact = expected_rounds_plain(args.n, args.m, args.k, args.kn)
        approx = expected_rounds_plain_approx(args.n, args.m, args.k, args.kn)
        p = prob_nontarget_batch(args.n, args.k, args.m)
        enc = enc_exact = mc_enc = None
        if args.alpha is not None:
            mc_enc = monte_carlo_rounds(
                args.n, args.m, args.k, args.kn, "encrypted", args.mc_trials, args.seed,
                alpha=args.alpha,
            )
            enc = expected_rounds_encrypted(args.n, args.m, args.k, args.alpha)
            enc_exact = expected_rounds_encrypted_exact(args.n, args.m, args.k, args.alpha)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"plain rounds (harmonic):    {exact:.2f}")
    print(f"plain rounds (ln approx):   {approx:.2f}")
    print(f"plain rounds (monte carlo): {mc.mean:.2f} +/- {mc.stderr:.2f} ({args.mc_trials} trials)")
    print(f"non-target batch probability: {p:.4f}")
    if enc is not None:
        print(f"encrypted rounds (independent-draw estimate, alpha={args.alpha}): {enc:.2f}")
        print(f"encrypted rounds (exact, m distinct, alpha={args.alpha}): {enc_exact:.2f}")
        print(
            f"encrypted rounds (monte carlo): {mc_enc.mean:.2f} +/- {mc_enc.stderr:.2f} "
            f"({args.mc_trials} trials)"
        )
    return 0


def _cmd_identify_bench(args) -> int:
    from fednetsim.config import load_scenario
    from fednetsim.harness import identify_bench

    cfg = load_scenario(args.config)
    results = identify_bench(cfg, args.rounds)
    csv_path, json_path = emit_identify_bench(results, cfg.partition.k, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    for mode in sorted(results):
        row = ", ".join(
            f"r{rnd}={sum(h) / len(h):.2f}" for rnd, h in sorted(results[mode].items())
        )
        print(f"{mode}: mean hits of {cfg.partition.k}: {row}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "identify-bench": _cmd_identify_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
