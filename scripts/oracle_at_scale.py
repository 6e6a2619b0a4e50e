"""Check the smooth-sensitivity kernel against the brute-force oracle on every
node of a benchmark-sized graph, and report how much faster the kernel is.

The graph is the ``scale-smooth`` benchmark's: G(n, 0.5) with the benchmark's
weights, threshold 9 and epsilon 2 split evenly, step 1 released as in trial 0.
For each estimator, one ``segment_smooth_sensitivities`` call scores every
node (the best of five timed calls is kept), then the oracle, which takes
the kernel's arguments, scores each node on its own from the segments of its
span.  Every value must agree to rel 1e-12; the script prints the
kernel-to-oracle time ratio and exits 1 on any mismatch.

    PYTHONPATH=src python scripts/oracle_at_scale.py [--nodes 180] [--seed 5]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from lwdp_triangles import enumerate_triangles, generate_synthetic, greedy_assign
from lwdp_triangles.estimators import EstimatorKind
from lwdp_triangles.mechanisms import PrivacyBudget, RandomSource
from lwdp_triangles.protocol import release_step1
from lwdp_triangles.sensitivity import segment_smooth_sensitivities, smooth_sensitivity_bruteforce

# the scale-smooth benchmark's parameters (perfbench/bench.py)
LAM = 9
EPSILON = 2.0
WEIGHT_VALUES = (0, 1, 2, 3, 8)
WEIGHT_PROBS = (0.55, 0.2, 0.12, 0.08, 0.05)
DENSITY = 0.5
REPEATS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=180)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args(argv)

    graph = generate_synthetic(
        args.nodes, DENSITY, seed=args.seed,
        weight_values=WEIGHT_VALUES, weight_probs=WEIGHT_PROBS,
    )
    triangles = enumerate_triangles(graph)
    assignment = greedy_assign(graph, triangles)
    budget = PrivacyBudget.even_split(EPSILON)
    noisy = release_step1(graph, budget.epsilon_1, RandomSource(args.seed).subsource(0, 0))
    segments = assignment.segments
    lengths, incident, sums = segments.gather(
        slice(0, len(assignment.rows)), graph.weight_array, noisy
    )
    n = graph.node_count
    # every node's segments (lengths k, incident weights w, sums c), gathered
    # over its own span, as a one-node call
    nodes = []
    for v in range(n):
        k, w, c = segments.gather(assignment.span(v), graph.weight_array, noisy)
        nodes.append((c, k, LAM - 1 - w, np.zeros_like(k), 1))
    print(f"graph: n={n} p={DENSITY} seed={args.seed}, {len(triangles)} triangles, "
          f"{len(lengths)} segments, longest {int(lengths.max(initial=0))} sums")

    failed = False
    for kind in (EstimatorKind.BIASED, EstimatorKind.UNBIASED):
        kernel_s = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            values = segment_smooth_sensitivities(
                sums, lengths, LAM - 1 - incident, segments.owner, n, kind, budget.beta, budget.p
            )
            kernel_s = min(kernel_s, time.perf_counter() - start)
        start = time.perf_counter()
        oracle = [
            float(smooth_sensitivity_bruteforce(*node, kind, budget.beta, budget.p)[0])
            for node in nodes
        ]
        oracle_s = time.perf_counter() - start
        worst, bad = 0.0, []
        for v, (fast, slow) in enumerate(zip(values.tolist(), oracle)):
            if not math.isclose(fast, slow, rel_tol=1e-12, abs_tol=1e-12):
                bad.append((v, fast, slow))
            elif slow:
                worst = max(worst, abs(fast - slow) / slow)
        print(f"{kind.value}: kernel {kernel_s:.4f} s (best of {REPEATS}), "
              f"oracle {oracle_s:.2f} s over {n} nodes, ratio {oracle_s / kernel_s:.0f}x, "
              f"largest relative difference {worst:.1e}")
        for v, fast, slow in bad:
            print(f"  node {v}: kernel {fast!r}, oracle {slow!r}", file=sys.stderr)
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
