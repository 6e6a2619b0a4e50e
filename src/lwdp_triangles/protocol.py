"""Single-process simulation of the two-step counting protocol and the baseline.

Nodes and the server are logical parties: per-node randomness comes from
substreams keyed by (node, round), each round seeding and drawing from all
its node substreams in batched array passes, and message tallies model the three
communication flows (vector uploads, noisy-weight downloads, count uploads).

The topology is public, and so is all that follows from it: the triangles,
the assignment and the ids of every assigned triangle's three edges.  An
``Assignment`` holds them, computed once per graph, and ``run_methods``
runs a list of methods (``Baseline``, ``TwoStep``) on one trial of it.
Step 1 depends only on the graph, epsilon_1 and the trial's substreams, so
it is released once per distinct epsilon_1 and every method spending that
epsilon_1 reads the same read-only release.

In step 1 every node noises its slice of the CSR slot weights from its own
substream, and the server keeps the lower-id endpoint's value of each edge.
Step 2 is one array pass over all the assignment's owner-sorted rows,
gathering through the assignment's edge ids and its segments (built once per
assignment), so node v's count f'_v and sensitivity S_v read only v's own
weights, the noisy weights sent to v and public data; S_v is the largest
score over v's segments, which the smooth kernel finds without walking the
targets that cannot beat it.  The release pass then turns every S_v > 0 into
noise drawn from v's own step-2 substream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import Assignment, greedy_assign
from .estimators import EstimatorKind, estimate_array, estimator_step_bound
from .graph import WeightedGraph, check_threshold, edge_id_sums, enumerate_triangles
from .mechanisms import (
    PrivacyBudget,
    RandomSource,
    add_dlap_node_noise,
    check_dlap_epsilon,
    laplace_inverse_cdf,
    node_uniforms,
    smooth_noise_inverse_cdf,
)
from .sensitivity import segment_smooth_sensitivities

STEP1_ROUND = 1
STEP2_ROUND = 2

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
    # read-only, indexed by node: the noisy count each node uploads in step 2
    per_node_release: np.ndarray
    tallies: CommunicationTallies
    budget_ledger: dict[int, tuple[BudgetEntry, ...]]
    # indexed by node: S_v under the smooth mechanism, GS_v under Laplace
    # noise; both arrays are empty for the baseline, which has no step 2
    per_node_sensitivity: np.ndarray

    def spent(self, node: int) -> float:
        return sum(entry.epsilon for entry in self.budget_ledger.get(node, ()))


def release_step1(graph: WeightedGraph, epsilon_1: float, rng: RandomSource) -> np.ndarray:
    """Every node privatizes its incident-weight vector; the server symmetrizes.

    The tie-break keeps the release of the lower-id endpoint for every edge.
    Returns the public noisy weights as a read-only int64 array indexed by
    edge id.
    Every node uploads one value per incident edge, 2m in all.
    """
    check_dlap_epsilon(epsilon_1)
    indptr, slot_edges = graph.adjacency
    released = graph.weight_array[slot_edges]
    add_dlap_node_noise(released, indptr, math.exp(-epsilon_1), rng, STEP1_ROUND)
    released = released[graph.lower_slots]
    released.flags.writeable = False  # every method of a trial reads it
    return released


def _edge_array(array, name: str, m: int) -> np.ndarray:
    # an edge-indexed input of step 2 as int64, which its sums of three
    # weights need; a float release would count silently under Laplace noise
    if not (
        isinstance(array, np.ndarray) and array.shape == (m,)
        and array.dtype.kind in "iu" and np.can_cast(array.dtype, np.int64)
    ):
        got = array.dtype if isinstance(array, np.ndarray) else type(array).__name__
        raise ValueError(
            f"{name} must be an integer array of shape ({m},) within int64, "
            f"got {got} of shape {np.shape(array)}"
        )
    return array.astype(np.int64, copy=False)


def local_step2(
    assignment: Assignment,
    weights: np.ndarray,
    noisy: np.ndarray,
    lam: int,
    kind: EstimatorKind,
    mechanism: Mechanism,
    budget: PrivacyBudget,
) -> tuple[np.ndarray, np.ndarray]:
    """Every node's local count f'_v and sensitivity S_v (GS_v under Laplace noise).

    ``weights`` and ``noisy`` are edge-indexed integer arrays of shape (m,)
    within int64, and ``lam`` passes ``check_threshold``, else ValueError.
    They are the true weights, of which node v reads only its incident ones,
    and the step-1 release, of which v reads only the edges opposite it in its
    assigned triangles, both read through the assignment's edge ids.  f'_v is
    ``np.bincount`` of the per-triangle estimates over the owner-sorted rows,
    which adds in triangle order like a per-node loop.  S_v (GS_v) is v's
    largest score over its ``segments``, one per (v, incident edge), and 0 for
    a node without any.  Under smooth noise one
    ``segment_smooth_sensitivities`` call over all the segments, as
    ``segments.gather`` returns them, gives every S_v: each target's cheap
    candidates raise a running best per node, and a target's walk runs only
    where its bound exceeds that best, so S_v reads v's segments only and
    equals walking every target bit for bit.  Under Laplace noise a segment's
    score is the step bound times its length.
    """
    kind, mechanism = EstimatorKind(kind), Mechanism(mechanism)
    n, m = assignment.graph.node_count, assignment.graph.edge_count
    weights, noisy = _edge_array(weights, "weights", m), _edge_array(noisy, "noisy", m)
    lam = check_threshold(lam)
    rows, segments, p = assignment.rows, assignment.segments, budget.p
    vy, vz, yz = assignment.edge_ids.T
    counts = np.bincount(
        rows[:, 0],
        weights=estimate_array(kind, weights[vy] + weights[vz] + noisy[yz], lam, p),
        minlength=n,
    ).astype(float, copy=False)  # without rows it is int64, which cannot take the noise
    if mechanism is Mechanism.GLOBAL_LAPLACE:
        sens = np.zeros(n)
        np.maximum.at(sens, segments.owner, estimator_step_bound(kind, p) * segments.lengths)
    else:
        arguments = segments.gather(slice(0, len(rows)), weights, noisy, lam)
        # lam, both arrays and the budget are checked, so for weights within the
        # graph's bound the kernel can fail only its int64 bound, past which a
        # far lam and a tiny beta go
        try:
            sens = segment_smooth_sensitivities(*arguments, n, kind, budget.beta, p)
        except ValueError as err:
            raise ValueError(
                f"epsilon_2 = {budget.epsilon_2} is too small for lam = {lam}: {err}"
            ) from None
    return counts, sens


def run_methods(
    assignment: Assignment,
    lam: int,
    methods: Sequence[Baseline | TwoStep],
    rng: RandomSource,
) -> list[RunReport]:
    """One report per method of ``methods``, in order, all on one trial.

    Step 1 is released once per distinct epsilon_1: the release depends
    only on the graph, epsilon_1 and the substreams of ``rng``, so sharing
    it equals one release per method bit for bit.  Every two-step method
    draws its step-2 noise from the same (v, 2) substreams too, so the
    reports are paired alternatives, not joint releases: each report's
    ledger holds only when that report alone is published.
    """
    lam = check_threshold(lam)
    releases: dict[float, np.ndarray] = {}
    reports = []
    for method in methods:
        if method.epsilon_1 not in releases:
            releases[method.epsilon_1] = release_step1(assignment.graph, method.epsilon_1, rng)
        reports.append(method.run(assignment, lam, releases[method.epsilon_1], rng))
    return reports


@dataclass(frozen=True)
class Baseline:
    """Non-interactive baseline: every node releases all its weights with
    DLap(e^{-epsilon}), and the server counts on the noisy graph."""

    epsilon: float

    def __post_init__(self):
        check_dlap_epsilon(self.epsilon)

    @property
    def epsilon_1(self) -> float:
        return self.epsilon

    def run(self, assignment: Assignment, lam: int, noisy: np.ndarray, rng) -> RunReport:
        graph = assignment.graph
        estimate = np.count_nonzero(edge_id_sums(noisy, assignment.edge_ids) < lam)
        return RunReport(
            estimate=float(estimate),
            exact_count=assignment.exact_count(lam),
            lam=lam,
            per_node_release=np.zeros(0),
            tallies=CommunicationTallies(2 * graph.edge_count, 0, 0),
            budget_ledger=dict.fromkeys(
                range(graph.node_count), (BudgetEntry("dlap", self.epsilon),)
            ),
            per_node_sensitivity=np.zeros(0),
        )


@dataclass(frozen=True)
class TwoStep:
    """The two-step protocol with one estimator and one step-2 mechanism."""

    budget: PrivacyBudget
    kind: EstimatorKind
    mechanism: Mechanism

    def __post_init__(self):
        if not isinstance(self.budget, PrivacyBudget):
            raise ValueError("budget must be a PrivacyBudget")
        object.__setattr__(self, "kind", EstimatorKind(self.kind))
        object.__setattr__(self, "mechanism", Mechanism(self.mechanism))

    @property
    def epsilon_1(self) -> float:
        return self.budget.epsilon_1

    def run(
        self, assignment: Assignment, lam: int, noisy: np.ndarray, rng: RandomSource
    ) -> RunReport:
        graph, budget, mechanism = assignment.graph, self.budget, self.mechanism
        release, sens = local_step2(
            assignment, graph.weight_array, noisy, lam, self.kind, mechanism, budget
        )
        noisy_nodes = np.flatnonzero(sens > 0.0)
        u = node_uniforms(rng, noisy_nodes, STEP2_ROUND)
        # an epsilon_2 too small for the noise scale overflows here; the
        # check below rejects the run
        with np.errstate(over="ignore", invalid="ignore"):
            if mechanism is Mechanism.GLOBAL_LAPLACE:
                query, inverse_cdf = "laplace", laplace_inverse_cdf
                scales = sens[noisy_nodes] / budget.epsilon_2
            else:
                query, inverse_cdf = "smooth", smooth_noise_inverse_cdf
                scales = budget.smooth_noise_scale * sens[noisy_nodes]
            release[noisy_nodes] += scales * inverse_cdf(u)
        overflow = np.flatnonzero(~np.isfinite(release))
        if overflow.size:
            v = int(overflow[0])
            raise ValueError(
                f"epsilon_2 = {budget.epsilon_2} is too small: the step-2 release of "
                f"node {v} is {release[v]}"
            )

        release.flags.writeable = False
        entries = (BudgetEntry("dlap", budget.epsilon_1), BudgetEntry(query, budget.epsilon_2))
        return RunReport(
            estimate=sum(release.tolist()),
            exact_count=assignment.exact_count(lam),
            lam=lam,
            per_node_release=release,
            # one value uploaded per (node, incident edge), one noisy weight
            # downloaded per assigned triangle, one count uploaded per node
            tallies=CommunicationTallies(
                2 * graph.edge_count, len(assignment.edge_ids), graph.node_count
            ),
            budget_ledger=dict.fromkeys(range(graph.node_count), entries),
            per_node_sensitivity=sens,
        )


def run_two_step(
    graph: WeightedGraph,
    lam: int,
    budget: PrivacyBudget,
    kind: EstimatorKind,
    mechanism: Mechanism,
    rng: RandomSource,
    *,
    triangles: np.ndarray | None = None,
    assignment: Assignment | None = None,
) -> RunReport:
    """One full protocol execution; deterministic under a fixed master seed.

    ``assignment`` may be precomputed on ``graph`` (it depends only on the
    public topology), else it is ``greedy_assign(graph, triangles)``, where
    ``triangles`` may be the precomputed (T, 3) array of
    ``enumerate_triangles``.  To share the assignment and the step-1 release
    across runs, use ``run_methods``.
    """
    method = TwoStep(budget, kind, mechanism)
    lam = check_threshold(lam)
    if assignment is None:
        assignment = greedy_assign(graph, triangles)
    elif assignment.graph != graph:
        raise ValueError("the assignment was built on another graph")
    return run_methods(assignment, lam, [method], rng)[0]


def run_baseline(
    graph: WeightedGraph,
    lam: int,
    epsilon: float,
    rng: RandomSource,
    *,
    triangles: np.ndarray | None = None,
) -> RunReport:
    """``Baseline(epsilon)`` on one trial.  ``triangles`` may be the
    precomputed (T, 3) array of ``enumerate_triangles``.  The baseline reads
    only the triangles' edge ids, so it runs on the assignment that gives
    every row to its first node, and no greedy pass runs."""
    method = Baseline(epsilon)
    lam = check_threshold(lam)
    if triangles is None:
        triangles = enumerate_triangles(graph)
    return run_methods(Assignment(graph, triangles), lam, [method], rng)[0]
