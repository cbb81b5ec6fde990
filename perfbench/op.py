"""One benchmark operation, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/op.py --root ROOT --workload W --seed S --size
full|toy --trace 0|1 --out DIR``. It imports ``fednetsim`` from
``ROOT/src``, sets the workload up, times the operation and writes
``DIR/op.json``: ``perf_counter`` stamps for the end of set-up and the
start and end of the operation (the runner compares them with its own stamp
taken before the spawn; both are CLOCK_MONOTONIC on Linux), the machine
record, Monte-Carlo results and, when traced, the spans. A protocol
operation is one ``fednetsim run`` call through ``fednetsim.cli.main``,
whose files land in DIR; an ``analysis_mc`` operation is one pass of
``monte_carlo_rounds`` over the workload's points.
"""

import argparse
import ctypes
import json
import os
import sys
import time

from checks import mc_point_ok
from tracer import Tracer
from workloads import PROTOCOL, WORKLOADS, mc_points

# Seed offset of the confirmation re-run of a plain point outside 3 stderr.
CONFIRM_SEED_OFFSET = 1_000_003


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded (or None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record():
    import numpy as np

    info = {"python": sys.version.split()[0], "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    try:
        info["blas_threads"] = _blas_threads()
    except OSError:
        info["blas_threads"] = None
    return info


def run_protocol_op(args, tracer):
    import fednetsim.cli as cli
    from fednetsim.config import load_scenario, validate_scenario

    spec = PROTOCOL[args.workload][args.size]
    config = os.path.join(args.root, spec["config"])
    argv = ["run", "--config", config, "--seed", str(args.seed), "--trials", str(spec["trials"])]
    argv += ["--out", args.out]
    # Set-up is what `fednetsim run` does before it runs the scenario.
    cli.build_parser().parse_args(argv)
    validate_scenario(load_scenario(config))
    ready = time.perf_counter()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(argv)
    end = time.perf_counter()
    return {"ready": ready, "start": start, "end": end, "rc": rc}


def run_mc_op(args, tracer):
    import fednetsim.cli as cli
    from fednetsim.analysis import (
        MC_GRID,
        expected_rounds_encrypted,
        expected_rounds_plain,
        monte_carlo_rounds,
    )

    cli.build_parser()  # set-up matches the protocol workloads': import and CLI parser
    points, trials = mc_points(args.size, MC_GRID)
    ready = time.perf_counter()

    def sim(point, seed):
        mode, n, m, k, k_n, alpha = point
        return monte_carlo_rounds(n, m, k, k_n, mode, trials, seed, alpha=alpha)

    def sim_rounds(a, kw, res):
        return round(trials * res.mean)

    def timed(index, point):
        if tracer is None:
            return sim(point, args.seed)
        tracer.trial = index  # a Monte-Carlo span's trial id is its point's index
        count = sim_rounds if point[0] == "encrypted" else None
        return tracer.call(f"analysis.mc_{point[0]}", sim, point, args.seed, count=count)

    start = time.perf_counter()
    results = [timed(i, p) for i, p in enumerate(points)]
    end = time.perf_counter()

    # Checks, outside the timed region. 24 plain points at 3 stderr would
    # flag a correct simulator in about 6% of passes, so a plain point
    # outside 3 stderr fails only if a re-run on an independent seed is
    # outside 3 stderr too.
    out = []
    for point, res in zip(points, results):
        mode, n, m, k, k_n, alpha = point
        if mode == "plain":
            expected = expected_rounds_plain(n, m, k, k_n)
        else:
            expected = expected_rounds_encrypted(n, m, k, alpha)
        ok = mc_point_ok(mode, res.mean, res.stderr, expected)
        row = {"point": list(point), "mean": res.mean, "stderr": res.stderr, "expected": expected}
        if not ok and mode == "plain":
            again = sim(point, args.seed + CONFIRM_SEED_OFFSET)
            row["confirm_mean"] = again.mean
            ok = mc_point_ok(mode, again.mean, again.stderr, expected)
        row["ok"] = ok
        out.append(row)
    return {"ready": ready, "start": start, "end": end, "trials": trials, "mc": out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    begin = time.perf_counter()
    import fednetsim
    import fednetsim.cli  # noqa: F401  (the whole package, as `fednetsim run` loads it)

    import_s = time.perf_counter() - begin
    if not os.path.abspath(fednetsim.__file__).startswith(src + os.sep):
        sys.exit(f"fednetsim imported from {fednetsim.__file__}, not from {src}")

    tracer = Tracer() if args.trace else None
    run = run_mc_op if args.workload == "analysis_mc" else run_protocol_op
    record = run(args, tracer)
    record["import_s"] = import_s
    record["machine"] = machine_record()
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(os.path.join(args.out, "op.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
