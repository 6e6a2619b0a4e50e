"""Triangle-to-node assignment minimizing shared-noisy-edge covariance pairs.

Each triangle is assigned to one of its nodes; the edge opposite that node
is the "noisy" edge whose privatized weight the node will consume.  Two
assigned triangles sharing their noisy edge form a covariance pair, and the
number of such pairs is sum_e C(l(e), 2) over the edge loads l(e).

Triangles come in as the (T, 3) node arrays of ``enumerate_triangles``.  An
``Assignment`` is bound to its graph and is the public instance of every run
on it: its owner-sorted (owner, y, z) rows and the ids of each row's three
edges, looked up once, are what step 2 and its ``segments`` (built on first
use), the baseline, the exact count, the loads and the per-node views read.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

import numpy as np

from .graph import (
    COUNT_CHUNK,
    WeightedGraph,
    edge_id_sums,
    enumerate_triangles,
    integral,
    triangle_edge_ids,
)


class InstanceTooLargeError(ValueError):
    """Raised when an exhaustive-search helper is asked for an oversized instance."""


class Assignment:
    """Triangles of ``graph``, each with its responsible node.

    ``rows`` is an int32 array with one (owner, y, z) row per triangle: y < z
    are the owner's two neighbours in the triangle, so (y, z) is its noisy
    edge.  Rows are sorted by owner and then by triangle.  The constructor
    takes the rows in any order, with y and z either way round, and stores
    a read-only copy in that form.  ``edge_ids`` holds, read-only int32, the
    ids of the edges (owner, y), (owner, z) and (y, z) of every row, looked
    up once by ``triangle_edge_ids`` on the rows as given, which it checks.
    """

    def __init__(self, graph: WeightedGraph, rows: np.ndarray):
        ids = triangle_edge_ids(graph, rows)
        self._store(graph, np.asarray(rows, dtype=np.int32), ids)

    def _store(self, graph: WeightedGraph, rows: np.ndarray, ids: np.ndarray) -> None:
        # edge ids follow canonical order, so with the owner fixed the order
        # of the ids of (y, z) is the order of the triangles {owner, y, z};
        # rows with equal keys are equal, so the sort need not be stable
        order = np.argsort(rows[:, 0].astype(np.int64) * graph.edge_count + ids[:, 2])
        # the gathers copy, so the caller's rows are never written to
        rows, ids = rows[order], ids[order]
        swapped = rows[:, 1] > rows[:, 2]
        rows[swapped, 1:] = rows[swapped, :0:-1]
        ids[swapped, :2] = ids[swapped, 1::-1]
        rows.flags.writeable = ids.flags.writeable = False
        self.graph, self.rows, self.edge_ids = graph, rows, ids
        self._exact_counts: dict[int, int] = {}

    @functools.cached_property
    def segments(self) -> Segments:
        """The step-2 segments of the rows, built on first use."""
        return Segments(self)

    @functools.cached_property
    def loads(self) -> dict[tuple[int, int], int]:
        """Triangles per noisy edge, for every edge that carries one, in
        canonical order."""
        edges, counts = np.unique(self.rows[:, 1:], axis=0, return_counts=True)
        return dict(zip(map(tuple, edges.tolist()), counts.tolist()))

    def span(self, node: int) -> slice:
        """Where ``node``'s rows lie in ``rows`` and ``edge_ids``; a node id
        that is not an integer or lies outside [0, n) raises ``ValueError``."""
        node = integral(node, "node id")
        if not 0 <= node < self.graph.node_count:
            raise ValueError(f"node {node} is not in [0, {self.graph.node_count})")
        lo, hi = np.searchsorted(self.rows[:, 0], (node, node + 1))
        return slice(lo, hi)

    def triangles_of(self, node: int) -> np.ndarray:
        """``node``'s (node, y, z) rows, in triangle order."""
        return self.rows[self.span(node)]

    def load(self, edge: tuple[int, int]) -> int:
        return self.loads.get(edge, 0)

    def squared_load(self) -> int:
        return sum(l * l for l in self.loads.values())

    def exact_count(self, lam: int) -> int:
        """Number of triangles with true weight strictly below ``lam``,
        counted once per ``lam``; the triangle weights are not kept."""
        if lam not in self._exact_counts:
            weights = edge_id_sums(self.graph.weight_array, self.edge_ids)
            self._exact_counts[lam] = int(np.count_nonzero(weights < lam))
        return self._exact_counts[lam]


class Segments:
    """Step 2's partial sums of an assignment, one segment per (owner, incident edge).

    The owner v of a row (v, y, z) holds w(v, y), w(v, z) and the received
    w'(y, z): the edge (v, y) carries the sum w(v, z) + w'(y, z), and the edge
    (v, z) carries w(v, y) + w'(y, z).  The 2T sums run in (owner, neighbour)
    order, each segment's in row order, so v's are [2 * span.start, 2 * span.stop).
    No weight enters, and every array is read-only: per sum, the int32 edge ids
    ``other`` and ``received`` of its terms; per segment, its ``heads`` (first
    sum), ``owner``, ``lengths`` and ``incident`` edge id.
    """

    def __init__(self, assignment: Assignment):
        rows, n = assignment.rows, assignment.graph.node_count
        key = rows[:, 0].astype(np.int64) * n
        # in row order (owner, then (y, z) with y < z) the rows through z = u precede
        # those through y = u, so a stable sort keeps each segment's sums in row order
        keys = np.concatenate((key + rows[:, 2], key + rows[:, 1]))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        # segments start at the first key (keys[:1] >= 0 is [] without rows) and key changes
        self.heads = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))
        self.owner = keys[self.heads] // n
        self.lengths = np.diff(self.heads, append=len(keys))
        vy, vz, yz = assignment.edge_ids.T
        self.other = np.concatenate((vy, vz))[order]
        self.received = np.concatenate((yz, yz))[order]
        self.incident = np.concatenate((vz, vy))[order[self.heads]]
        for array in vars(self).values():
            array.flags.writeable = False

    def gather(self, rows: slice, weights: np.ndarray, noisy: np.ndarray):
        """(lengths, incident weights, partial sums) of the segments of the rows
        ``rows`` (whole nodes), in segment order, from the edge-indexed int64
        true weights and step-1 release."""
        span = slice(2 * rows.start, 2 * rows.stop)
        a, b = np.searchsorted(self.heads, (span.start, span.stop))
        sums = weights[self.other[span]]
        sums += noisy[self.received[span]]
        return self.lengths[a:b], weights[self.incident[a:b]], sums


def count_c4_instances(assignment: Assignment) -> int:
    """Number of triangle pairs sharing a noisy edge: sum_e l(e)(l(e)-1)/2."""
    return sum(l * (l - 1) // 2 for l in assignment.loads.values())


def greedy_assign(
    graph: WeightedGraph, triangles: np.ndarray | None = None
) -> Assignment:
    """Greedy load balancing, linear in the number of triangles.

    Triangles are processed in row order (canonical sorted order for
    ``enumerate_triangles``); each one picks its currently least-loaded edge
    (ties broken by lowest canonical edge) and is assigned to the node
    opposite that edge.
    """
    if triangles is None:
        triangles = enumerate_triangles(graph)
    ordered = np.sort(triangles, axis=1)
    a, b, c = ordered.T
    ids = triangle_edge_ids(graph, ordered)
    loads = [0] * graph.edge_count
    owner_at = []  # the owner's index in (a, b, c), row by row
    # edge ids follow canonical order, so (a, b) < (a, c) < (b, c) by id too
    # and the first least-loaded edge of a row is its lowest canonical one;
    # the ids become Python ints one chunk of rows at a time, so those of all
    # rows never exist at once
    for i in range(0, len(a), COUNT_CHUNK):
        for ab, ac, bc in zip(*ids[i:i + COUNT_CHUNK].T.tolist()):
            l_ab, l_ac, l_bc = loads[ab], loads[ac], loads[bc]
            if l_ab <= l_ac and l_ab <= l_bc:
                loads[ab] = l_ab + 1
                owner_at.append(2)  # (a, b) is opposite c
            elif l_ac <= l_bc:
                loads[ac] = l_ac + 1
                owner_at.append(1)
            else:
                loads[bc] = l_bc + 1
                owner_at.append(0)
    index = np.array(owner_at, dtype=np.int64)
    # (owner, y, z) is (a, b, c), (b, a, c) or (c, a, b), and the ids of its
    # edges (owner, y), (owner, z), (y, z) are (ab, ac, bc), (ab, bc, ac) or (ac, bc, ab)
    ab, ac, bc = ids.T
    ids = np.column_stack([np.choose(index, e) for e in ((ab, ab, ac), (ac, bc, bc), (bc, ac, ab))])
    rows = np.column_stack([np.choose(index, v) for v in ((a, b, c), (b, a, a), (c, c, b))])
    assignment = Assignment.__new__(Assignment)  # the rows are valid and their ids looked up
    assignment._store(graph, rows.astype(np.int32, copy=False), ids)
    return assignment


def brute_force_optimal_assign(
    graph: WeightedGraph, triangles: np.ndarray | None = None
) -> tuple[Assignment, int]:
    """Globally optimal assignment by exhaustion over all 3^|triangles| choices.

    Each triangle a < b < c takes each of its (owner, y, z) rows (c, a, b),
    (b, a, c) and (a, b, c); the first choice of least squared-l2 load over
    the noisy edges (y, z) is returned with that load.  Minimizing the
    squared load also minimizes the covariance-pair count, since the loads
    always sum to the triangle count.  Capped at 12 triangles.
    """
    if triangles is None:
        triangles = enumerate_triangles(graph)
    if len(triangles) > 12:
        raise InstanceTooLargeError(
            f"exhaustive assignment is capped at 12 triangles, got {len(triangles)}"
        )
    options = [
        ((c, a, b), (b, a, c), (a, b, c)) for a, b, c in np.sort(triangles, axis=1).tolist()
    ]
    best_rows, best_sq = (), None
    for rows in itertools.product(*options):
        sq = sum(l * l for l in Counter(row[1:] for row in rows).values())
        if best_sq is None or sq < best_sq:
            best_rows, best_sq = rows, sq
    return Assignment(graph, np.array(best_rows, dtype=np.int64).reshape(-1, 3)), best_sq
