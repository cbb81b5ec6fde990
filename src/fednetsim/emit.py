"""Metric files: the per-round CSV, the JSON summaries, the sweep matrix.

The emitters turn the results ``harness`` returns (a ``RunSummary``, a dict
of them per sweep cell, the identification bench's hit counts) into rows
and payloads, the JSON summary's layout included, and pass them to the one
CSV writer and the one JSON writer. They need only os, json and numpy, not
the simulator, so the CLI binds them at import without loading it. Every
file is byte-deterministic: floats are written with ``repr``, JSON with
sorted keys, lines end in ``\\n``.
"""

import json
import os

import numpy as np

CSV_HEADER = "round,trial,target_acc,target_loss,overall_acc,identified_hits,dropped_count"
SUMMARY_METRICS = ("target_acc", "target_loss", "overall_acc", "nontarget_acc", "identified_hits")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header: str, rows) -> str:
    """Write ``header`` then one line per row, each field through ``_fmt``; returns ``path``."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_json(path, payload) -> str:
    """Write ``payload`` as indented JSON with sorted keys and a final newline; returns ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def emit_metrics(summary, out_dir, prefix: str = "metrics") -> tuple[str, str]:
    """Write a ``harness.RunSummary``'s per-round CSV and JSON summary; returns their paths.

    The CSV has one row per (round, trial); the JSON echoes the scenario
    configuration verbatim alongside per-trial and mean scalars at rounds
    T/2 and T.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = [
        (r + 1, i, s.target_acc[r], s.target_loss[r], s.overall_acc[r], s.identified_hits[r], s.dropped_count[r])
        for i, s in enumerate(summary.trials)
        for r in range(summary.rounds)
    ]
    points = {"half": summary.half_round, "final": summary.rounds}
    payload = {
        "config": summary.config.to_dict(),
        "per_trial": {m: {p: summary.metric_at(m, r) for p, r in points.items()} for m in SUMMARY_METRICS},
        "means": {m: {p: summary.mean_at(m, r) for p, r in points.items()} for m in SUMMARY_METRICS},
        "half_round": summary.half_round,
        "final_round": summary.rounds,
    }
    return (
        _write_csv(os.path.join(out_dir, f"{prefix}.csv"), CSV_HEADER, rows),
        _write_json(os.path.join(out_dir, f"{prefix}_summary.json"), payload),
    )


def emit_sweep(results: dict, out_dir) -> str:
    """Write one CSV per sweep cell ``(k_n, k_p) -> RunSummary`` plus the combined matrix file."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for (k_n, k_p) in sorted(results):
        summary = results[(k_n, k_p)]
        emit_metrics(summary, out_dir, prefix=f"cell_kn{k_n}_kp{k_p}")
        half, final = summary.half_round, summary.rounds
        means = [("target_acc", half), ("target_acc", final), ("overall_acc", final), ("nontarget_acc", final)]
        rows.append((k_n, k_p, *(summary.mean_at(m, r) for m, r in means)))
    header = "k_n,k_p,target_acc_half_mean,target_acc_final_mean,overall_acc_final_mean,nontarget_acc_final_mean"
    return _write_csv(os.path.join(out_dir, "sweep_matrix.csv"), header, rows)


def emit_identify_bench(results: dict, k: int, out_dir) -> tuple[str, str]:
    """Write identification benchmark CSV and JSON summary."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    means: dict[str, dict[str, float]] = {}
    for mode in sorted(results):
        for rnd in sorted(results[mode]):
            hits_list = results[mode][rnd]
            rows.extend((mode, rnd, trial_idx, hits, hits / k) for trial_idx, hits in enumerate(hits_list))
            means.setdefault(mode, {})[str(rnd)] = float(sum(hits_list) / len(hits_list))
    return (
        _write_csv(os.path.join(out_dir, "identify_bench.csv"), "mode,round,trial,hits,recall", rows),
        _write_json(os.path.join(out_dir, "identify_bench_summary.json"), {"k": k, "mean_hits": means}),
    )
