"""fednetsim benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload standard_enc --seed 1 --seconds 40 --trace 0

Each operation runs in a fresh interpreter (``op.py``), one after another,
until ``--seconds`` have passed (at least ``MIN_OPS``). The runner times
set-up and the operation, samples the memory of the operation's process
tree, checks the outputs and prints a human-readable report followed, as
the last line, by one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and gives the per-layer metrics.
See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from checks import check_reference, check_run_files, sha256
from tracer import PER_LAYER_UNITS, layer_metrics, self_times
from workloads import PROTOCOL, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
OP_TIMEOUT_S = 30
RSS_SAMPLE_S = 0.05
# Fewest operations a run makes, whatever --seconds says: medians need
# three, and a traced run needs two traced and two untraced ones.
MIN_OPS = {0: 3, 1: 4}
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def _proc_parents():
    parents = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="utf-8") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        parents.setdefault(ppid, []).append(int(name))
    return parents


class TreeRss(threading.Thread):
    """Samples the summed RSS of a process and its descendants until stopped.

    The sum, not the largest process, so that memory held by worker pools
    shows. The process list is rescanned every fourth sample.
    """

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_bytes = 0
        self._halt = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")

    def run(self):
        if not os.path.isdir("/proc"):
            return
        pids = [self.pid]
        tick = 0
        while not self._halt.is_set():
            if tick % 4 == 0:
                parents = _proc_parents()
                pids = [self.pid]
                for pid in pids:
                    pids.extend(parents.get(pid, ()))
            total = 0
            for pid in pids:
                try:
                    with open(f"/proc/{pid}/statm", encoding="utf-8") as fh:
                        total += int(fh.read().split()[1]) * self._page
                except (OSError, IndexError, ValueError):
                    pass
            self.peak_bytes = max(self.peak_bytes, total)
            tick += 1
            self._halt.wait(RSS_SAMPLE_S)

    def stop(self):
        self._halt.set()
        self.join()


def run_op(args, op_dir, traced):
    """Spawn one operation; return its raw record, or None if the process failed."""
    cmd = [sys.executable, os.path.join(HERE, "op.py"), "--root", ROOT]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    cmd += ["--trace", str(int(traced)), "--out", op_dir]
    log_path = os.path.join(op_dir, "op.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        rss = TreeRss(proc.pid)
        rss.start()
        try:
            rc = proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = "timeout"
        finally:  # after a timeout or an interrupt, leave no process behind
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            rss.stop()
    record_path = os.path.join(op_dir, "op.json")
    if rc != 0 or not os.path.exists(record_path):
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        print(f"operation failed ({rc}):\n{tail}", file=sys.stderr)
        return None
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["ready"] - spawned
    record["wall_s"] = record["end"] - record["start"]
    record["tree_rss_bytes"] = rss.peak_bytes
    return record


@dataclass
class Op:
    """One operation's record and outcome. ``work`` is federated rounds
    completed (rows of metrics.csv) or Monte-Carlo trials; ``attempted`` is
    1 per scenario run and 1 per Monte-Carlo point."""

    traced: bool
    record: dict | None
    attempted: int
    failed: int = 0
    work: int = 0
    digest: str | None = None
    csv_sha256: str | None = None
    problems: list = field(default_factory=list)


def evaluate_protocol(args, traced, record, op_dir):
    if record is None:
        return Op(traced, None, 1, 1, problems=["operation did not complete"])
    op = Op(traced, record, 1)
    if record["rc"] != 0:
        op.problems.append(f"fednetsim run exited {record['rc']}")
    try:
        found, means, op.work = check_run_files(op_dir, PROTOCOL[args.workload][args.size]["trials"])
        op.problems += found
        if args.size == "full":
            op.problems += check_reference(args.workload, means)
        op.csv_sha256 = sha256(os.path.join(op_dir, "metrics.csv"))
        op.digest = op.csv_sha256 + sha256(os.path.join(op_dir, "metrics_summary.json"))
    except (OSError, ValueError, KeyError) as exc:
        op.problems.append(f"unreadable output: {exc}")
    op.failed = int(bool(op.problems))
    return op


def evaluate_mc(args, traced, record, op_dir):
    if record is None:
        return Op(traced, None, 1, 1, problems=["operation did not complete"])
    rows = record["mc"]
    problems = [f"point {r['point']}: mean {r['mean']} vs {r['expected']}" for r in rows if not r["ok"]]
    digest = json.dumps([[r["mean"], r["stderr"]] for r in rows])
    return Op(traced, record, len(rows), len(problems), len(rows) * record["trials"], digest, problems=problems)


def git_commit(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, machine):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        **machine,
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def require_checkout(args):
    """Exit 2, printing no result, unless the checkout holds what the workload runs."""
    needed = [os.path.join("src", "fednetsim", "__init__.py")]
    if args.workload in PROTOCOL:
        needed.append(PROTOCOL[args.workload][args.size]["config"])
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        sys.exit(f"perfbench: not a fednetsim checkout, missing {', '.join(missing)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fednetsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs configs/smoke.yaml-sized scenarios and a two-point grid")
    return parser.parse_args(argv)


def median_metrics(per_op):
    """Median of each metric over several operations' metric dicts.

    Counts take the lower median, so they stay whole numbers.
    """
    out = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        ints = all(isinstance(v, int) for v in values)
        out[name] = (statistics.median_low if ints else statistics.median)(values)
    return out


def end_to_end(ops):
    plain = [op for op in ops if not op.traced]
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    tree_rss = max(op.record["tree_rss_bytes"] for op in plain)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "setup_s": statistics.median(op.record["setup_s"] for op in plain),
        "work_per_s": statistics.median(op.work / op.record["wall_s"] for op in plain),
        "peak_rss_mb": (self_rss + max(child_rss, tree_rss)) / 2**20,
    }


def per_layer(ops, record):
    traced = [op.record for op in ops if op.traced]
    metrics = median_metrics([layer_metrics(r["spans"], r["import_s"]) for r in traced])
    wall = statistics.median(r["wall_s"] for r in traced)
    untraced = statistics.median(op.record["wall_s"] for op in ops if not op.traced)
    metrics["trace.overhead_frac"] = wall / untraced - 1
    layers = [self_times(r["spans"]) for r in traced]
    record["traced_walls_s"] = [r["wall_s"] for r in traced]
    record["layers"] = [
        {name: {"calls": c, "busy_s": b, "self_s": s} for name, (c, b, s, _) in table.items()}
        for table in layers
    ]
    print(f"traced wall {wall:.3f} s (median of {len(traced)}); first traced operation:")
    for name, (calls, busy, own, _) in sorted(layers[0].items(), key=lambda kv: -kv[1][1]):
        share = busy / traced[0]["wall_s"]
        print(f"  {name:26s} calls {calls:6d}  busy {busy:8.4f} s  self {own:8.4f} s  {share:6.1%}")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    require_checkout(args)
    # Turn SIGTERM into SystemExit so the finally blocks stop the operation's process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    loadavg_start = os.getloadavg()
    evaluate = evaluate_mc if args.workload == "analysis_mc" else evaluate_protocol

    ops = []
    begin = time.perf_counter()
    try:
        while len(ops) < MIN_OPS[args.trace] or time.perf_counter() - begin < args.seconds:
            traced = bool(args.trace) and len(ops) % 2 == 1
            op_dir = os.path.join(work_dir, f"op{len(ops)}")
            os.makedirs(op_dir)
            ops.append(evaluate(args, traced, run_op(args, op_dir, traced), op_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # Repeats of one seed must give identical outputs, traced or not.
    first = next((op.digest for op in ops if op.digest is not None), None)
    for i, op in enumerate(ops):
        if op.digest is not None and op.digest != first:
            op.problems.append("output differs from the first repeat")
            op.failed = op.attempted
        for problem in op.problems:
            print(f"op {i}: {problem}")
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)

    done = [op for op in ops if op.record is not None]
    if not any(not op.traced for op in done) or (args.trace and not any(op.traced for op in done)):
        sys.exit("perfbench: no operation completed; see the errors above")
    for i, op in enumerate(done):
        r = op.record
        print(
            f"op {i}{' traced' if op.traced else ''}: setup {r['setup_s']:.3f} s, "
            f"wall {r['wall_s']:.3f} s, {op.work / r['wall_s']:.1f} work/s, "
            f"tree rss {r['tree_rss_bytes'] / 2**20:.1f} MB"
        )

    record = provenance(args, done[0].record["machine"])
    record["loadavg_start"] = loadavg_start
    record["loadavg_end"] = os.getloadavg()
    record["op_walls_s"] = [op.record["wall_s"] for op in done]
    if done[0].csv_sha256 is not None:
        record["metrics_sha256"] = done[0].csv_sha256
    print("provenance " + json.dumps(record, sort_keys=True))

    if args.trace == 0:
        metrics, units = end_to_end(done), END_TO_END_UNITS
        name = "rounds_per_s" if args.workload in PROTOCOL else "mc_trials_per_s"
        print(f"{name} {metrics['work_per_s']} 1/s (reported as work_per_s)")
    else:
        metrics, units = per_layer(done, record), PER_LAYER_UNITS
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {failed / attempted} ({failed} of {attempted} operations)")

    result_path = os.path.join(OUT_ROOT, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": record, "metrics": metrics, "attempted": attempted, "failed": failed}, fh)
    print(f"result file {os.path.relpath(result_path, ROOT)}")
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
