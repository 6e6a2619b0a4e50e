"""Single-process simulation of the two-step counting protocol and the baseline.

Nodes and the server are logical parties: per-node randomness comes from
substreams keyed by (node, round), message tallies model the three
communication flows (vector uploads, noisy-weight downloads, count uploads),
and a node's step-2 computation is confined to a ``NodeStep2View`` so the
information-flow contract is enforced structurally.

Step 2 runs in two passes.  The local pass builds every node's view, its
count f'_v and its sensitivity S_v; with the smooth mechanism the S_v of
consecutive nodes are computed together by ``smooth_sensitivities`` (each
from its own instance only) once their partial sums fill a batch, and a
node with S_v > 0 hands over its own step-2 substream.  The release pass
then draws one uniform from each of those streams, in node order, and turns
them all into noise with one batched inverse CDF.  Each release is still
f'_v + scale * S_v * Z_v with Z_v from the node's own substream, so the
result is the same as drawing node by node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import Assignment, greedy_assign
from .estimators import EstimatorKind, estimate
from .graph import (
    Triangle,
    WeightedGraph,
    canonical_edge,
    enumerate_triangles,
    exact_below_threshold_count,
    integral,
)
from .mechanisms import (
    PrivacyBudget,
    RandomSource,
    check_dlap_epsilon,
    laplace_sample,
    privatize_weight_vector,
    smooth_noise_sample,
)
from .sensitivity import (
    SmoothSensInstance,
    global_sensitivity,
    instance_from_parts,
    smooth_sensitivities,
)

Edge = tuple[int, int]

STEP1_ROUND = 1
STEP2_ROUND = 2

# The smooth sensitivities of pending nodes are computed together once their
# partial sums plus two initial targets per edge reach this many.  A batch's
# working memory grows with its candidate targets, which both of these seed,
# and the count bounds it on sparse graphs (about one sum per edge) as well
# as on dense ones (many sums per edge).
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


@dataclass(frozen=True)
class NodeStep2View:
    """Everything a node may read in step 2: its own weights, the public
    assignment restricted to itself, and the noisy weights it was sent."""

    node: int
    incident_weights: dict[Edge, int]
    assigned: tuple[Triangle, ...]
    received_noisy: dict[Edge, int]


def release_step1(
    graph: WeightedGraph, epsilon_1: float, rng: RandomSource
) -> tuple[dict[Edge, int], int]:
    """Every node privatizes its incident-weight vector; the server symmetrizes.

    The tie-break keeps the release of the lower-id endpoint for every edge.
    Returns the public noisy weight map, keyed by canonical edge in sorted
    order, and the number of uploaded values (sum of degrees).
    """
    symmetric: dict[Edge, int] = {}
    uploads = 0
    for v in range(graph.node_count):
        neighbors = graph.neighbors(v)
        noisy = privatize_weight_vector(
            graph.incident_weight_vector(v), epsilon_1, rng.node_stream(v, STEP1_ROUND)
        )
        for u, w in zip(neighbors, noisy):
            if v < u:
                symmetric[(v, u)] = w
        uploads += len(neighbors)
    return symmetric, uploads


def node_step2_count(view: NodeStep2View, lam: int, kind: EstimatorKind, p: float) -> float:
    """The local below-threshold count f'_v, computed from the view alone."""
    total = 0.0
    v = view.node
    for t in view.assigned:
        y, z = (u for u in t.nodes if u != v)
        noisy_sum = (
            view.incident_weights[canonical_edge(v, y)]
            + view.incident_weights[canonical_edge(v, z)]
            + view.received_noisy[canonical_edge(y, z)]
        )
        total += estimate(kind, noisy_sum, lam, p)
    return total


def _make_view(
    graph: WeightedGraph, assignment: Assignment, symmetric: dict[Edge, int], node: int
) -> NodeStep2View:
    assigned = assignment.triangles_of(node)
    received = {}
    for t in assigned:
        edge = t.opposite_edge(node)
        received[edge] = symmetric[edge]
    incident = {
        canonical_edge(node, u): graph.weight(node, u) for u in graph.neighbors(node)
    }
    return NodeStep2View(node, incident, assigned, received)


def run_two_step(
    graph: WeightedGraph,
    lam: int,
    budget: PrivacyBudget,
    kind: EstimatorKind,
    mechanism: Mechanism = Mechanism.SMOOTH,
    rng: RandomSource | None = None,
    *,
    triangles: Sequence[Triangle] | None = None,
    assignment: Assignment | None = None,
) -> RunReport:
    """One full protocol execution; deterministic under a fixed master seed.

    ``triangles``/``assignment`` may be precomputed (they depend only on the
    public topology) to amortize repeated trials.
    """
    if not isinstance(budget, PrivacyBudget):
        raise ValueError("budget must be a PrivacyBudget")
    lam = integral(lam, "threshold lam")
    if rng is None:
        rng = RandomSource(0)
    if triangles is None:
        triangles = enumerate_triangles(graph)
    if assignment is None:
        assignment = greedy_assign(graph, triangles)

    symmetric, uploads1 = release_step1(graph, budget.epsilon_1, rng)
    p = budget.p
    beta = budget.beta
    scale_mult = budget.smooth_noise_scale

    downloads = 0
    uploads2 = 0
    per_node: dict[int, float] = {}
    per_node_sens = np.zeros(graph.node_count)
    ledger: dict[int, tuple[BudgetEntry, ...]] = {}
    # smooth mechanism: instances wait in ``pending`` until they fill a
    # batch; then (node, S_v) and the node's own step-2 stream are kept
    # for each node with S_v > 0, turned into noise by one draw after the loop
    pending: list[SmoothSensInstance] = []
    pending_size = 0
    drawing: list[tuple[int, float]] = []
    streams = []
    last = graph.node_count - 1
    for v in range(graph.node_count):
        view = _make_view(graph, assignment, symmetric, v)
        downloads += len(view.assigned)  # one noisy weight per assigned triangle
        f_v = node_step2_count(view, lam, kind, p)
        if mechanism is Mechanism.GLOBAL_LAPLACE:
            sens = global_sensitivity(v, assignment, kind, p=p)
            per_node_sens[v] = sens
            noise = 0.0
            if sens > 0.0:
                noise = float(
                    laplace_sample(sens / budget.epsilon_2, rng.node_stream(v, STEP2_ROUND))
                )
            query = "laplace"
        else:
            inst = instance_from_parts(
                v,
                view.incident_weights,
                view.assigned,
                view.received_noisy,
                lam,
                beta,
                kind,
                p=p,
            )
            if inst.edges:  # S_v stays 0 for a node without partial sums
                pending.append(inst)
                # two partial sums per triangle, two initial targets per edge
                pending_size += 2 * len(view.assigned) + 2 * len(inst.edges)
            if pending and (pending_size >= SENSITIVITY_FLUSH_SIZE or v == last):
                for inst, sens in zip(pending, smooth_sensitivities(pending).tolist()):
                    per_node_sens[inst.node] = sens
                    if sens > 0.0:
                        drawing.append((inst.node, sens))
                        streams.append(rng.node_stream(inst.node, STEP2_ROUND))
                pending, pending_size = [], 0
            noise = 0.0  # added in the release pass below
            query = "smooth"
        per_node[v] = f_v + noise
        uploads2 += 1
        ledger[v] = (
            BudgetEntry("dlap", budget.epsilon_1),
            BudgetEntry(query, budget.epsilon_2),
        )
    if mechanism is Mechanism.SMOOTH:
        for (v, sens), z in zip(drawing, smooth_noise_sample(streams)):
            per_node[v] += scale_mult * sens * float(z)

    estimate_total = sum(per_node.values())
    exact = exact_below_threshold_count(graph, lam, triangles)
    return RunReport(
        estimate=estimate_total,
        exact_count=exact,
        lam=lam,
        per_node_release=per_node,
        tallies=CommunicationTallies(uploads1, downloads, uploads2),
        budget_ledger=ledger,
        per_node_sensitivity=per_node_sens,
    )


def run_baseline(
    graph: WeightedGraph,
    lam: int,
    epsilon: float,
    rng: RandomSource | None = None,
    *,
    triangles: Sequence[Triangle] | None = None,
) -> RunReport:
    """Non-interactive baseline: privatize all weights once, count on the noisy graph."""
    check_dlap_epsilon(epsilon)
    lam = integral(lam, "threshold lam")
    if rng is None:
        rng = RandomSource(0)
    if triangles is None:
        triangles = enumerate_triangles(graph)
    w_prime, uploads1 = release_step1(graph, epsilon, rng)
    count = 0
    for t in triangles:
        total = sum(w_prime[e] for e in t.edges())
        if total < lam:
            count += 1
    ledger = {
        v: (BudgetEntry("dlap", epsilon),) for v in range(graph.node_count)
    }
    exact = exact_below_threshold_count(graph, lam, triangles)
    return RunReport(
        estimate=float(count),
        exact_count=exact,
        lam=lam,
        per_node_release={},
        tallies=CommunicationTallies(uploads1, 0, 0),
        budget_ledger=ledger,
        per_node_sensitivity=np.zeros(0),
    )
