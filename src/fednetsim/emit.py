"""Metric files: the per-round CSV, the JSON summaries, the sweep matrix.

The writers take the results ``harness`` returns (a ``RunSummary``, a dict
of them per sweep cell, the identification bench's hit counts). They need
only os, json and numpy, not the simulator, so the CLI binds them at import
without loading it. Every file is byte-deterministic: floats are written
with ``repr``, JSON with sorted keys, lines end in ``\\n``.
"""

import json
import os

import numpy as np

CSV_HEADER = "round,trial,target_acc,target_loss,overall_acc,identified_hits,dropped_count"


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_metrics(summary, out_dir, prefix: str = "metrics") -> tuple[str, str]:
    """Write a ``harness.RunSummary``'s per-round CSV and JSON summary; returns their paths.

    The CSV has one row per (round, trial); the JSON echoes the scenario
    configuration verbatim alongside per-trial and mean scalars at rounds
    T/2 and T.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{prefix}.csv")
    json_path = os.path.join(out_dir, f"{prefix}_summary.json")

    lines = [CSV_HEADER]
    for trial_idx, series in enumerate(summary.trials):
        for r in range(summary.rounds):
            lines.append(
                ",".join(
                    [
                        str(r + 1),
                        str(trial_idx),
                        _fmt(series.target_acc[r]),
                        _fmt(series.target_loss[r]),
                        _fmt(series.overall_acc[r]),
                        str(series.identified_hits[r]),
                        str(series.dropped_count[r]),
                    ]
                )
            )
    _write(csv_path, "\n".join(lines) + "\n")
    payload = {"config": summary.config.to_dict(), **summary.scalars()}
    _write(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def emit_sweep(results: dict, out_dir) -> str:
    """Write one CSV per sweep cell ``(k_n, k_p) -> RunSummary`` plus the combined matrix file."""
    os.makedirs(out_dir, exist_ok=True)
    matrix_lines = [
        "k_n,k_p,target_acc_half_mean,target_acc_final_mean,"
        "overall_acc_final_mean,nontarget_acc_final_mean"
    ]
    for (k_n, k_p) in sorted(results):
        summary = results[(k_n, k_p)]
        emit_metrics(summary, out_dir, prefix=f"cell_kn{k_n}_kp{k_p}")
        matrix_lines.append(
            ",".join(
                [
                    str(k_n),
                    str(k_p),
                    _fmt(summary.mean_at("target_acc", summary.half_round)),
                    _fmt(summary.mean_at("target_acc", summary.rounds)),
                    _fmt(summary.mean_at("overall_acc", summary.rounds)),
                    _fmt(summary.mean_at("nontarget_acc", summary.rounds)),
                ]
            )
        )
    matrix_path = os.path.join(out_dir, "sweep_matrix.csv")
    _write(matrix_path, "\n".join(matrix_lines) + "\n")
    return matrix_path


def emit_identify_bench(results: dict, k: int, out_dir) -> tuple[str, str]:
    """Write identification benchmark CSV and JSON summary."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "identify_bench.csv")
    json_path = os.path.join(out_dir, "identify_bench_summary.json")
    lines = ["mode,round,trial,hits,recall"]
    means: dict[str, dict[str, float]] = {}
    for mode in sorted(results):
        for rnd in sorted(results[mode]):
            hits_list = results[mode][rnd]
            for trial_idx, hits in enumerate(hits_list):
                lines.append(
                    ",".join([mode, str(rnd), str(trial_idx), str(hits), _fmt(hits / k)])
                )
            means.setdefault(mode, {})[str(rnd)] = float(sum(hits_list) / len(hits_list))
    _write(csv_path, "\n".join(lines) + "\n")
    _write(json_path, json.dumps({"k": k, "mean_hits": means}, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path
