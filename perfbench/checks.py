"""Output checks that decide which operations count as failed.

Pure Python, so the runner can check emitted files without importing numpy
or the package.
"""

import hashlib
import json
import math
import os

CSV_HEADER = "round,trial,target_acc,target_loss,overall_acc,identified_hits,dropped_count"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Final-round means compared with the reference values.
REFERENCE_METRICS = ("target_acc", "overall_acc", "target_loss")


def mc_point_ok(mode, mean, stderr, expected):
    """Plain: within 3 stderr of the closed form; encrypted: at most 1.15x the bound."""
    if mode == "plain":
        return abs(mean - expected) <= 3 * stderr
    return mean <= 1.15 * expected


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run_files(out_dir, trials):
    """Check one ``fednetsim run`` output directory made with ``--trials trials``.

    Returns ``(problems, final_means, rounds_completed)``; an empty problem
    list means the files passed.
    """
    problems = []
    with open(os.path.join(out_dir, "metrics_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    config = summary["config"]
    rounds, m = config["protocol"]["rounds"], config["protocol"]["m"]
    if config["trials"] != trials:
        problems.append(f"summary echoes trials={config['trials']}, expected {trials}")

    with open(os.path.join(out_dir, "metrics.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return problems + ["metrics.csv header mismatch"], {}, 0
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != rounds * trials:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {rounds} x {trials}")
    final = {name: [] for name in REFERENCE_METRICS}
    for i, row in enumerate(rows):
        if len(row) != 7:
            problems.append(f"row {i + 1} has {len(row)} fields")
            continue
        rnd, trial = int(row[0]), int(row[1])
        target_acc, target_loss, overall_acc = float(row[2]), float(row[3]), float(row[4])
        hits, dropped = int(row[5]), int(row[6])
        if (rnd, trial) != (i % rounds + 1, i // rounds):
            problems.append(f"row {i + 1} is round {rnd} trial {trial}, out of order")
        if not (0.0 <= target_acc <= 1.0 and 0.0 <= overall_acc <= 1.0):
            problems.append(f"row {i + 1}: accuracy outside [0, 1]")
        if not (math.isfinite(target_loss) and target_loss >= 0.0):
            problems.append(f"row {i + 1}: target_loss {target_loss} not finite and >= 0")
        if not (0 <= dropped <= m and hits >= 0):
            problems.append(f"row {i + 1}: dropped_count {dropped} outside [0, m={m}]")
        if rnd == rounds:
            final["target_acc"].append(target_acc)
            final["target_loss"].append(target_loss)
            final["overall_acc"].append(overall_acc)
    means = {name: sum(v) / len(v) for name, v in final.items() if v}
    return problems, means, len(rows)


def check_reference(workload, means):
    """Problems with final-round means against the recorded reference values.

    The reference was recorded for one seed; the tolerances cover the
    spread of these means over seeds, so any seed passes while a broken
    model (chance-level accuracy, diverging loss) does not.
    """
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    problems = []
    for name in REFERENCE_METRICS:
        ref = reference[workload][name]
        tol = reference["tolerance"][workload][name]
        if name not in means or abs(means[name] - ref) > tol:
            problems.append(f"final {name} {means.get(name)} not within {tol} of {ref}")
    return problems
