"""Single-process simulation of the two-step counting protocol and the baseline.

Nodes and the server are logical parties: per-node randomness comes from
substreams keyed by (node, round), and message tallies model the three
communication flows (vector uploads, noisy-weight downloads, count uploads).
Every round seeds all its node substreams in one batched pass
(``RandomSource.node_streams``) and builds each node's generator as the
node's turn comes.

Step 1 runs over the graph's CSR adjacency.  Node v's vector is its slice of
the slot weights, in neighbour order, and v's own step-1 substream draws its
DLap(e^{-epsilon_1}) noise, as ``privatize_weight_vector`` would; the budget
is checked and p computed once per release.  Every edge is released by both
endpoints; the server keeps the lower-id endpoint's value, which is one
gather of the lower-endpoint slots into an int64 array indexed by edge id.

Step 2 runs as array passes over the assignment's owner-sorted triangle rows.
``local_step2`` walks consecutive batches of nodes; for every triangle it
gathers the owner's two incident weights and the one noisy weight the owner
received, so node v's count f'_v and sensitivity S_v read only v's own
weights, the noisy weights sent to v and public data (the topology and the
assignment).  f'_v is ``np.bincount`` of the per-triangle estimates, which
adds in triangle order like a per-node loop.  The same batch splits v's
partial sums into one segment per (v, incident edge): their smooth
sensitivity is one ``segment_smooth_sensitivities`` call per batch, and
under Laplace noise GS_v is the estimator step bound times v's longest
segment.

The release pass then turns the S_v into noise.  With the smooth mechanism
every node with S_v > 0 draws one uniform from its own step-2 substream, in
node order, and one batched inverse CDF turns them all into noise; each
release is f'_v + scale * S_v * Z_v, the same as drawing node by node.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .assignment import Assignment, greedy_assign
from .estimators import EstimatorKind, estimate_array, estimator_step_bound
from .graph import WeightedGraph, below_threshold_count, check_threshold, enumerate_triangles
from .mechanisms import (
    PrivacyBudget,
    RandomSource,
    check_dlap_epsilon,
    dlap_sample,
    laplace_sample,
    smooth_noise_sample,
)
from .sensitivity import segment_smooth_sensitivities

STEP1_ROUND = 1
STEP2_ROUND = 2

# Step 2 takes consecutive nodes in batches that close once their partial
# sums (two per assigned triangle) reach this many.  A batch's working memory
# grows with its triangles and with the candidate targets of its smooth
# sensitivity, and the count bounds it on sparse graphs as well as on dense
# ones, where one node may fill a batch alone.
SENSITIVITY_FLUSH_SIZE = 2048


class Mechanism(str, enum.Enum):
    GLOBAL_LAPLACE = "global"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class BudgetEntry:
    query: str
    epsilon: float


@dataclass(frozen=True)
class CommunicationTallies:
    uploads_step1: int
    downloads: int
    uploads_step2: int


@dataclass(frozen=True)
class RunReport:
    estimate: float
    exact_count: int
    lam: int
    per_node_release: dict[int, float]
    tallies: CommunicationTallies
    budget_ledger: dict[int, tuple[BudgetEntry, ...]]
    # indexed by node: S_v under the smooth mechanism, GS_v under Laplace
    # noise; empty for the baseline, which has no step 2
    per_node_sensitivity: np.ndarray

    def spent(self, node: int) -> float:
        return sum(entry.epsilon for entry in self.budget_ledger.get(node, ()))

    def relative_error(self) -> float:
        if self.exact_count == 0:
            raise ZeroDivisionError("relative error undefined for a zero true count")
        return abs(self.exact_count - self.estimate) / self.exact_count


def release_step1(graph: WeightedGraph, epsilon_1: float, rng: RandomSource) -> np.ndarray:
    """Every node privatizes its incident-weight vector; the server symmetrizes.

    The tie-break keeps the release of the lower-id endpoint for every edge.
    Returns the public noisy weights as an int64 array indexed by edge id.
    Every node uploads one value per incident edge, 2m in all.
    """
    check_dlap_epsilon(epsilon_1)
    p = math.exp(-epsilon_1)
    indptr, slot_edges = graph.adjacency
    released = graph.weight_array[slot_edges]
    bounds = indptr.tolist()
    streams = rng.node_streams(np.arange(graph.node_count), STEP1_ROUND)
    for v, stream in enumerate(streams):
        lo, hi = bounds[v], bounds[v + 1]
        released[lo:hi] += dlap_sample(p, stream, size=hi - lo)
    return released[graph.lower_slots]


def _node_batches(owner: np.ndarray, node_count: int):
    """(first node, end node, first row, end row) of consecutive node batches
    that close once their partial sums reach ``SENSITIVITY_FLUSH_SIZE``."""
    starts = np.searchsorted(owner, np.arange(node_count + 1))
    half = SENSITIVITY_FLUSH_SIZE // 2  # two partial sums per triangle
    first = 0
    while first < node_count:
        end = int(np.searchsorted(starts, starts[first] + half))
        end = min(max(end, first + 1), node_count)
        yield first, end, int(starts[first]), int(starts[end])
        first = end


def local_step2(
    graph: WeightedGraph,
    assignment: Assignment,
    weights: np.ndarray,
    noisy: np.ndarray,
    lam: int,
    kind: EstimatorKind,
    mechanism: Mechanism,
    budget: PrivacyBudget,
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's local count f'_v and sensitivity S_v (GS_v under Laplace noise).

    ``weights`` and ``noisy`` are edge-indexed: the true weights, of which
    node v reads only its incident ones, and the step-1 release, of which v
    reads only the edges opposite it in its assigned triangles.
    """
    n = graph.node_count
    counts = np.zeros(n)
    sens = np.zeros(n)
    rows = assignment.rows
    p = budget.p
    step = estimator_step_bound(kind, p)
    for first, end, lo, hi in _node_batches(rows[:, 0], n):
        if lo == hi:
            continue  # f'_v and S_v stay 0 for nodes without triangles
        owner, y, z = rows[lo:hi].T.astype(np.int64)
        w_vy = weights[graph.edge_ids(owner, y)]
        w_vz = weights[graph.edge_ids(owner, z)]
        received = noisy[graph.edge_ids(y, z)]
        local = owner - first
        counts[first:end] = np.bincount(
            local,
            weights=estimate_array(kind, w_vy + w_vz + received, lam, p),
            minlength=end - first,
        )
        # one segment per (owner, neighbour): the edge (v, y) carries the
        # partial sum w(v, z) + w'(y, z) of every triangle, and vice versa
        keys = np.concatenate((local * n + y, local * n + z))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        heads = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        lengths = np.diff(np.append(heads, len(keys)))
        seg_owner = keys[heads] // n
        if mechanism is Mechanism.GLOBAL_LAPLACE:
            longest = np.zeros(end - first, dtype=np.int64)
            np.maximum.at(longest, seg_owner, lengths)
            sens[first:end] = step * longest
        else:
            sums = np.concatenate((w_vz + received, w_vy + received))[order]
            edge_weight = np.concatenate((w_vy, w_vz))[order][heads]
            sens[first:end] = segment_smooth_sensitivities(
                sums, lengths, lam - 1 - edge_weight, seg_owner, end - first,
                kind, budget.beta, p,
            )
    return counts, sens


def run_two_step(
    graph: WeightedGraph,
    lam: int,
    budget: PrivacyBudget,
    kind: EstimatorKind,
    mechanism: Mechanism = Mechanism.SMOOTH,
    rng: RandomSource | None = None,
    *,
    triangles: np.ndarray | None = None,
    assignment: Assignment | None = None,
) -> RunReport:
    """One full protocol execution; deterministic under a fixed master seed.

    ``triangles`` (the (T, 3) array of ``enumerate_triangles``) and
    ``assignment`` may be precomputed (they depend only on the public
    topology) to amortize repeated trials; the exact count reads the
    assignment's rows, which hold every triangle once.
    """
    if not isinstance(budget, PrivacyBudget):
        raise ValueError("budget must be a PrivacyBudget")
    lam = check_threshold(lam)
    if rng is None:
        rng = RandomSource(0)
    if assignment is None:
        assignment = greedy_assign(graph, triangles)

    noisy = release_step1(graph, budget.epsilon_1, rng)
    counts, sens = local_step2(
        graph, assignment, graph.weight_array, noisy, lam, kind, mechanism, budget
    )
    release = counts.copy()
    noisy_nodes = np.flatnonzero(sens > 0.0)
    streams = rng.node_streams(noisy_nodes, STEP2_ROUND)
    # an epsilon_2 too small for the noise scale overflows here; the check
    # below rejects the run
    with np.errstate(over="ignore", invalid="ignore"):
        if mechanism is Mechanism.GLOBAL_LAPLACE:
            query = "laplace"
            for v, stream in zip(noisy_nodes.tolist(), streams):
                release[v] += float(laplace_sample(sens[v] / budget.epsilon_2, stream))
        else:
            query = "smooth"
            scaled = budget.smooth_noise_scale * sens[noisy_nodes]
            release[noisy_nodes] += scaled * smooth_noise_sample(streams)
    overflow = np.flatnonzero(~np.isfinite(release))
    if overflow.size:
        v = int(overflow[0])
        raise ValueError(
            f"epsilon_2 = {budget.epsilon_2} is too small: the step-2 release of "
            f"node {v} is {release[v]}"
        )

    per_node = dict(enumerate(release.tolist()))
    entries = (BudgetEntry("dlap", budget.epsilon_1), BudgetEntry(query, budget.epsilon_2))
    exact = below_threshold_count(graph, graph.weight_array, lam, assignment.rows)
    return RunReport(
        estimate=sum(per_node.values()),
        exact_count=exact,
        lam=lam,
        per_node_release=per_node,
        # one value uploaded per (node, incident edge), one noisy weight
        # downloaded per assigned triangle, one count uploaded per node
        tallies=CommunicationTallies(
            2 * graph.edge_count, len(assignment.rows), graph.node_count
        ),
        budget_ledger=dict.fromkeys(range(graph.node_count), entries),
        per_node_sensitivity=sens,
    )


def run_baseline(
    graph: WeightedGraph,
    lam: int,
    epsilon: float,
    rng: RandomSource | None = None,
    *,
    triangles: np.ndarray | None = None,
) -> RunReport:
    """Non-interactive baseline: privatize all weights once, count on the noisy graph.

    ``triangles`` may be the precomputed (T, 3) array of ``enumerate_triangles``.
    """
    check_dlap_epsilon(epsilon)
    lam = check_threshold(lam)
    if rng is None:
        rng = RandomSource(0)
    if triangles is None:
        triangles = enumerate_triangles(graph)
    noisy = release_step1(graph, epsilon, rng)
    return RunReport(
        estimate=float(below_threshold_count(graph, noisy, lam, triangles)),
        exact_count=below_threshold_count(graph, graph.weight_array, lam, triangles),
        lam=lam,
        per_node_release={},
        tallies=CommunicationTallies(2 * graph.edge_count, 0, 0),
        budget_ledger=dict.fromkeys(range(graph.node_count), (BudgetEntry("dlap", epsilon),)),
        per_node_sensitivity=np.zeros(0),
    )
