"""Single-process simulation of the two-step counting protocol and the baseline.

Nodes and the server are logical parties: per-node randomness comes from
substreams keyed by (node, round), message tallies model the three
communication flows (vector uploads, noisy-weight downloads, count uploads),
and a node's step-2 computation is confined to a ``NodeStep2View`` so the
information-flow contract is enforced structurally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .assignment import Assignment, greedy_assign
from .estimators import EstimatorKind, estimate
from .graph import Triangle, WeightedGraph, canonical_edge, enumerate_triangles, exact_below_threshold_count
from .mechanisms import (
    PrivacyBudget,
    RandomSource,
    SmoothNoiseConfig,
    laplace_sample,
    privatize_weight_vector,
    smooth_noise_sample,
)
from .sensitivity import (
    global_sensitivity,
    instance_from_parts,
    smooth_sensitivity_biased,
    smooth_sensitivity_unbiased,
)

Edge = tuple[int, int]

STEP1_ROUND = 1
STEP2_ROUND = 2


class Mechanism(str, enum.Enum):
    GLOBAL_LAPLACE = "global"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class NoisyRelease:
    """Per-node released vectors and the symmetrized public weight map."""

    vectors: dict[int, dict[Edge, int]]
    symmetric: dict[Edge, int]


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


def _integral_threshold(lam) -> int:
    # A fractional threshold silently breaks the estimators' boundary cases.
    try:
        value = int(lam)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != lam:
        raise ValueError(f"lam must be an integer threshold, got {lam!r}")
    return value


def release_step1(
    graph: WeightedGraph,
    epsilon_1: float,
    rng: RandomSource,
    *,
    _zero_noise: bool = False,
) -> tuple[NoisyRelease, int]:
    """Every node privatizes its incident-weight vector; the server symmetrizes.

    The tie-break keeps the release of the lower-id endpoint for every edge.
    Returns the release and the number of uploaded values (sum of degrees).
    """
    vectors: dict[int, dict[Edge, int]] = {}
    uploads = 0
    for v in range(graph.node_count):
        neighbors = graph.neighbors(v)
        noisy = privatize_weight_vector(
            graph.incident_weight_vector(v),
            epsilon_1,
            rng.node_stream(v, STEP1_ROUND),
            _zero_noise=_zero_noise,
        )
        vectors[v] = {canonical_edge(v, u): w for u, w in zip(neighbors, noisy)}
        uploads += len(neighbors)
    symmetric = {edge: vectors[edge[0]][edge] for edge in graph.edges()}
    return NoisyRelease(vectors, symmetric), uploads


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
    graph: WeightedGraph, assignment: Assignment, release: NoisyRelease, node: int
) -> NodeStep2View:
    assigned = assignment.triangles_of(node)
    received = {}
    for t in assigned:
        edge = t.opposite_edge(node)
        received[edge] = release.symmetric[edge]
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
    noise_config: SmoothNoiseConfig = SmoothNoiseConfig(),
    _zero_noise: bool = False,
) -> RunReport:
    """One full protocol execution; deterministic under a fixed master seed.

    ``triangles``/``assignment`` may be precomputed (they depend only on the
    public topology) to amortize repeated trials.  ``_zero_noise`` is the
    debug identity mode: all noise draws become zero and the estimator
    correction degenerates accordingly (p -> 0), so the output equals the
    exact count; it is not exposed by any privacy-facing interface.
    """
    if not isinstance(budget, PrivacyBudget):
        raise ValueError("budget must be a PrivacyBudget")
    lam = _integral_threshold(lam)
    if rng is None:
        rng = RandomSource(0)
    if triangles is None:
        triangles = enumerate_triangles(graph)
    if assignment is None:
        assignment = greedy_assign(graph, triangles)

    release, uploads1 = release_step1(graph, budget.epsilon_1, rng, _zero_noise=_zero_noise)
    p_effective = 0.0 if _zero_noise else budget.p
    beta = noise_config.beta(budget.epsilon_2)
    scale_mult = noise_config.scale_multiplier(budget.epsilon_2)

    downloads = 0
    uploads2 = 0
    per_node: dict[int, float] = {}
    ledger: dict[int, tuple[BudgetEntry, ...]] = {}
    for v in range(graph.node_count):
        view = _make_view(graph, assignment, release, v)
        downloads += len(view.assigned)  # one noisy weight per assigned triangle
        f_v = node_step2_count(view, lam, kind, p_effective)
        if mechanism is Mechanism.GLOBAL_LAPLACE:
            sens = global_sensitivity(v, assignment, graph, kind, p=budget.p)
            noise = 0.0
            if sens > 0.0 and not _zero_noise:
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
                p=p_effective,
            )
            if kind is EstimatorKind.BIASED:
                sens = smooth_sensitivity_biased(inst)
            else:
                sens = smooth_sensitivity_unbiased(inst)
            noise = 0.0
            if sens > 0.0 and not _zero_noise:
                noise = scale_mult * sens * smooth_noise_sample(
                    noise_config, rng.node_stream(v, STEP2_ROUND)
                )
            query = "smooth"
        per_node[v] = f_v + noise
        uploads2 += 1
        ledger[v] = (
            BudgetEntry("dlap", budget.epsilon_1),
            BudgetEntry(query, budget.epsilon_2),
        )

    estimate_total = sum(per_node.values())
    exact = exact_below_threshold_count(graph, lam, triangles)
    return RunReport(
        estimate=estimate_total,
        exact_count=exact,
        lam=lam,
        per_node_release=per_node,
        tallies=CommunicationTallies(uploads1, downloads, uploads2),
        budget_ledger=ledger,
    )


def run_baseline(
    graph: WeightedGraph,
    lam: int,
    epsilon: float,
    rng: RandomSource | None = None,
    *,
    triangles: Sequence[Triangle] | None = None,
    _zero_noise: bool = False,
) -> RunReport:
    """Non-interactive baseline: privatize all weights once, count on the noisy graph."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lam = _integral_threshold(lam)
    if rng is None:
        rng = RandomSource(0)
    if triangles is None:
        triangles = enumerate_triangles(graph)
    release, uploads1 = release_step1(graph, epsilon, rng, _zero_noise=_zero_noise)
    w_prime = release.symmetric
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
    )
