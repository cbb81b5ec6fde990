"""The benchmark's workloads, at full and at toy size.

Paths are relative to the root of the checkout. Why each workload was
chosen is in README.md.
"""

# Encrypted-mode points (n, m, k, alpha) of analysis_mc.
MC_ENCRYPTED_POINTS = ((60, 10, 15, 0.3), (100, 10, 15, 0.3), (60, 5, 15, 0.5), (100, 5, 15, 0.5))

PROTOCOL = {
    "standard_enc": {
        "full": {"config": "configs/standard.yaml", "trials": 2},
        "toy": {"config": "configs/smoke.yaml", "trials": 1},
    },
    "defended_plain": {
        "full": {"config": "perfbench/defended_plain.yaml", "trials": 2},
        "toy": {"config": "perfbench/defended_toy.yaml", "trials": 1},
    },
}

WORKLOADS = (*PROTOCOL, "analysis_mc")


def mc_points(size, grid):
    """Monte-Carlo points ``(mode, n, m, k, k_n, alpha)`` and trials per point.

    ``grid`` is ``fednetsim.analysis.MC_GRID``; the runner passes it in so
    this module does not import the package.
    """
    if size == "toy":
        return [("plain", 30, 5, 5, 5, None), ("encrypted", 30, 5, 5, 0, 0.5)], 1000
    points = [("plain", n, m, k, k_n, None) for n, m, k, k_n in grid]
    points += [("encrypted", n, m, k, 0, alpha) for n, m, k, alpha in MC_ENCRYPTED_POINTS]
    return points, 10_000
