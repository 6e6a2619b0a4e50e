"""Weighted-graph container, triangle enumeration, and the below-threshold counts.

The graph topology is public and immutable after construction.  Edge weights
are integers of magnitude at most ``MAX_ABS_WEIGHT`` (2^31), so sums of a few
weights and their noise stay far inside int64; negative weights are
first-class.  Node ids are dense integers in [0, n); ingestion-side
relabeling for sparse external ids lives in :mod:`lwdp_triangles.experiments`.

A graph is nothing but arrays.  Every edge has an id, the position of its
key ``u*n + v`` (u < v) among the sorted keys, so a weight assignment to all
edges (the true weights, or a noisy release of them) is one int64 array
indexed by edge id.  The CSR adjacency lists every node's neighbour slots in
neighbour order, with the edge id of each slot, so a node's incident
weights are one gather.  A dense graph, one with n^2 <= 8m, also keeps an
int32 table of the id of every node pair (u, v) at u*n + v, -1 for a
non-edge: it is no larger than the two 2m-slot int64 CSR arrays, and it
turns a pair's id into one gather instead of a search among the sorted keys.

A set of triangles has one format throughout the library: a (T, 3) integer
node array with one triangle per row.  ``enumerate_triangles`` returns every
triangle of the graph in that format (int32, like the assignment's rows).
``triangle_edge_ids`` checks the rows and looks up the ids of each row's
three edges once, as a (T, 3) int32 array; ``edge_id_sums`` sums any
edge-indexed array over those ids, so ``triangle_weights`` gives each row's
summed weight and ``exact_below_threshold_count`` counts the rows whose
weight is below the threshold.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

MAX_ABS_WEIGHT = 2**31

# Thresholds are bounded well inside int64, so that lam - 1 - w and every
# noisy triangle weight (weights plus discrete Laplace noise) stay in int64.
MAX_ABS_THRESHOLD = 2**62

# Triangles per chunk of ``triangle_edge_ids`` and ``edge_id_sums``: their
# temporaries stay small however many triangles the graph has.
COUNT_CHUNK = 4096


class GraphStructureError(ValueError):
    """Raised for self-loops, duplicate edges, non-integral or out-of-range
    weights, or references to missing edges."""


_BOOLS = (bool, np.bool_)


def integral(value, what: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int if it is integral-valued (3.0 gives 3), else ``error``.

    Truncating instead would silently change the data: a weight of 2.7
    would be stored as 2, and a fractional threshold breaks the estimators'
    boundary cases.  A bool (Python's or numpy's) is not an integer here,
    though it compares equal to 0 or 1: True as a seed or a node id is a slip.
    """
    if type(value) is int:  # the common case, and never a bool
        return value
    try:
        result = None if isinstance(value, _BOOLS) else int(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if result is None or result != value:
        raise error(f"expected an integer {what}, got {value!r}")
    return result


def integral_array(values, what: str, error: type[ValueError] = ValueError) -> np.ndarray:
    """``values`` as an integer array: by its dtype alone if that is an
    integer one (a boolean one is not), else once ``integral`` accepts every
    entry, as int64 if each lies inside int64 and as uint64 if each lies
    inside uint64.  Input that is not an array is read entry by entry, so
    numpy's float64 reading of a list such as [2**53 + 1, 1.0] or [2**63, 1]
    rounds no id."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array
    if not isinstance(values, np.ndarray):
        array = np.array(values, dtype=object)
    entries = [integral(v, what, error) for v in array.flat]
    for dtype in (np.int64, np.uint64):
        info = np.iinfo(dtype)
        if all(info.min <= v <= info.max for v in entries):
            return np.array(entries, dtype).reshape(array.shape)
    v = next(v for v in entries if not -(2**63) <= v < 2**63)
    raise error(f"{what} {v} is outside the int64 range")


def check_threshold(lam) -> int:
    """``lam`` as an int if it is integral with |lam| <= ``MAX_ABS_THRESHOLD``,
    else ValueError: the one threshold rule of the protocol and the CLI."""
    lam = integral(lam, "threshold lam")
    if abs(lam) > MAX_ABS_THRESHOLD:
        raise ValueError(
            f"threshold lam = {lam} is outside the int64 range |lam| <= 2^62"
        )
    return lam


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Undirected edge key with endpoints in ascending order."""
    return (u, v) if u < v else (v, u)


class WeightedGraph:
    """Undirected graph with symmetric integer edge weights.

    Construction validates the structural invariants (integer node ids
    inside [0, n), no self-loops, no duplicate edges) and builds, once, the
    arrays that are the graph's only representation: the sorted edge keys
    ``u*n + v`` (u < v), whose positions are the edge ids, the weights by
    edge id, and the CSR adjacency.  Where n^2 <= 8m it adds the n*n id
    table, whose entry u*n + v is the id of the edge (u, v) or -1, from
    which node pairs are looked up; elsewhere they are searched among the
    keys, with the same ids and errors.  Every accessor answers from them.
    Instances are immutable and safe to share across threads.
    """

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int, int]]):
        self._n = n = integral(node_count, "node_count", GraphStructureError)
        if n < 0:
            raise GraphStructureError("node_count must be nonnegative")
        flat: list[int] = []
        for u, v, w in edges:
            u = integral(u, "node id", GraphStructureError)
            v = integral(v, "node id", GraphStructureError)
            if u == v:
                raise GraphStructureError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphStructureError(f"edge ({u},{v}) outside [0,{n})")
            try:
                w = integral(w, "weight", GraphStructureError)
                if abs(w) > MAX_ABS_WEIGHT:
                    raise GraphStructureError(f"weight {w} exceeds the bound |w| <= 2^31")
            except GraphStructureError as error:
                raise GraphStructureError(f"edge {canonical_edge(u, v)}: {error}") from None
            flat += (u, v, w)
        u, v, w = np.array(flat, dtype=np.int64).reshape(-1, 3).T
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(keys)
        keys = keys[order]
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            raise GraphStructureError(f"duplicate edge {divmod(int(keys[repeated[0]]), n)}")
        # slots keyed owner*n + neighbour: every edge's lower end, then its upper end
        lower, upper = np.divmod(keys, n)
        slot_keys = np.concatenate((keys, upper * n + lower))
        slots = np.argsort(slot_keys)
        slot_keys = slot_keys[slots]
        # a key past every pair's, so that the key at any search position can be read
        self._keys_and_sentinel = np.append(keys, np.iinfo(np.int64).max)
        self._edge_keys, self._weight_array = self._keys_and_sentinel[:-1], w[order]
        self._indptr = slot_keys.searchsorted(np.arange(n + 1) * n)
        self._neighbours = slot_keys % n
        self._slot_edges = slots % len(keys)
        self._lower_slots = np.flatnonzero(slots < len(keys))
        # on a dense graph, entry u*n + v holds the id of the edge (u, v), or -1
        self._id_table = None
        if 0 < n and n * n <= 8 * len(keys):
            self._id_table = np.full(n * n, -1, dtype=np.int32)
            self._id_table[slot_keys] = self._slot_edges
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edge_keys)

    @property
    def max_degree(self) -> int:
        return int(np.diff(self._indptr).max(initial=0))

    def _slots(self, v: int) -> slice:
        if not 0 <= v < self._n:
            raise GraphStructureError(f"node {v} outside [0,{self._n})")
        return slice(self._indptr[v], self._indptr[v + 1])

    def degree(self, v: int) -> int:
        return len(self._neighbours[self._slots(v)])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._neighbours[self._slots(v)].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._search(*canonical_edge(u, v))[1])

    def weight(self, u: int, v: int) -> int:
        edge, found = self._search(*canonical_edge(u, v))
        if not found:
            raise GraphStructureError(f"no edge ({u},{v})")
        return int(self._weight_array[edge])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Canonical edges in sorted order (deterministic)."""
        lower, upper = np.divmod(self._edge_keys, self._n)
        return zip(lower.tolist(), upper.tolist())

    def edge_weights(self) -> dict[tuple[int, int], int]:
        """Copy of the weight map, keyed by canonical edge."""
        return dict(zip(self.edges(), self._weight_array.tolist()))

    @property
    def weight_array(self) -> np.ndarray:
        """Read-only int64 weights indexed by edge id (the order of ``edges()``)."""
        return self._weight_array

    @property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR adjacency ``(indptr, slot_edges)``.

        Node v's slots are ``indptr[v]:indptr[v+1]``, one per neighbour in
        the order of ``neighbors(v)``, and ``slot_edges[s]`` is the edge id
        of slot s, so ``weight_array[slot_edges[indptr[v]:indptr[v+1]]]``
        is v's incident-weight vector, its private data.
        """
        return self._indptr, self._slot_edges

    @property
    def lower_slots(self) -> np.ndarray:
        """Read-only slot of every edge at its lower-id endpoint, by edge id."""
        return self._lower_slots

    def _search(self, lower, upper):
        """Edge id of each pair lower <= upper (node ids, or integer arrays of
        them with ``lower`` int64), meaningful only where the pair is an edge,
        and whether it is; a pair with a node id outside [0, n) never is.

        Integer keys ``lower*n + upper`` are one gather from the id table
        where the graph has one; other keys (a float, or a Python int past
        int64) are searched among the sorted edge keys."""
        keys = lower * self._n + upper
        inside = (lower >= 0) & (upper < self._n)
        if self._id_table is not None and np.asarray(keys).dtype.kind in "iu":
            # a pair outside [0, n) reads entry 0, the pair (0, 0), never an edge
            ids = self._id_table[np.where(inside, keys, 0)]
            return ids, inside & (ids >= 0)
        ids = self._edge_keys.searchsorted(keys)
        return ids, inside & (self._keys_and_sentinel[ids] == keys)

    def edge_ids(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Edge id of every pair (u[i], v[i]); raises if a pair is not an edge."""
        ids, found = self._search(np.minimum(u, v).astype(np.int64), np.maximum(u, v))
        if not found.all():
            i = int(np.argmin(found))
            raise GraphStructureError(f"node pair ({u[i]},{v[i]}) is not an edge of the graph")
        return ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        same = self._n == other._n and np.array_equal(self._edge_keys, other._edge_keys)
        return same and np.array_equal(self._weight_array, other._weight_array)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self._n}, m={self.edge_count})"


def enumerate_triangles(graph: WeightedGraph) -> np.ndarray:
    """All triangles exactly once, as a (T, 3) int32 node array.

    Each row lists its nodes in ascending order and the rows come in
    lexicographic order; a graph without triangles gives shape (0, 3).
    Uses the degree-ordered orientation: each undirected edge is directed
    from lower to higher (degree, id) rank and triangles are closed by
    intersecting out-neighborhoods, so the work is O(m^{3/2}).
    """
    n = graph.node_count
    # rank of every node by (degree, id)
    pos = np.argsort(np.argsort(np.diff(graph.adjacency[0]), kind="stable")).tolist()
    out: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges():
        if pos[u] < pos[v]:
            out[u].add(v)
        else:
            out[v].add(u)
    found: list[int] = []
    for u in range(n):
        for v in out[u]:
            for w in out[u].intersection(out[v]):
                found += (u, v, w)
    triangles = np.array(found, dtype=np.int32).reshape(-1, 3)
    triangles.sort(axis=1)
    return triangles[np.lexsort(triangles.T[::-1])]


def triangle_edge_ids(graph: WeightedGraph, rows: np.ndarray) -> np.ndarray:
    """Ids of the edges (a, b), (a, c) and (b, c) of every row (a, b, c) of
    the (T, 3) node array ``rows``, as a (T, 3) int32 array.

    The one check of triangle rows: they must be (T, 3) and integral (an
    integer array by its dtype alone), and each a triangle of ``graph``.
    Rows are looked up ``COUNT_CHUNK`` at a time, so the temporaries stay
    small however many triangles there are.
    """
    rows = integral_array(rows, "node id", GraphStructureError)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise GraphStructureError(f"triangle rows must have shape (T, 3), got {rows.shape}")
    if graph.edge_count >= 2**31:
        raise GraphStructureError("edge ids do not fit in int32")
    ids = np.empty((len(rows), 3), dtype=np.int32)
    for i in range(0, len(rows), COUNT_CHUNK):
        a, b, c = rows[i:i + COUNT_CHUNK].T
        chunk = ids[i:i + COUNT_CHUNK]
        chunk[:, 0] = graph.edge_ids(a, b)
        chunk[:, 1] = graph.edge_ids(a, c)
        chunk[:, 2] = graph.edge_ids(b, c)
    return ids


def edge_id_sums(weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Sum of the edge-indexed ``weights`` over every row of the (T, 3) edge-id
    array ``ids``, as int64, ``COUNT_CHUNK`` rows at a time."""
    total = np.empty(len(ids), dtype=np.int64)
    for i in range(0, len(ids), COUNT_CHUNK):
        a, b, c = ids[i:i + COUNT_CHUNK].T
        total[i:i + COUNT_CHUNK] = weights[a] + weights[b] + weights[c]
    return total


def triangle_weights(
    graph: WeightedGraph, weights: np.ndarray, triangles: np.ndarray
) -> np.ndarray:
    """Summed weight of every row of the (T, 3) node array ``triangles``,
    read from the edge-indexed ``weights``, as int64.

    The nodes of a row may come in any order; a row that is not a triangle
    of ``graph`` raises.
    """
    return edge_id_sums(weights, triangle_edge_ids(graph, triangles))


def exact_below_threshold_count(
    graph: WeightedGraph, lam: int, triangles: np.ndarray | None = None
) -> int:
    """Number of rows of ``triangles`` (by default every triangle of ``graph``)
    with total weight strictly below ``lam``: the ground truth."""
    if triangles is None:
        triangles = enumerate_triangles(graph)
    weights = triangle_weights(graph, graph.weight_array, triangles)
    return int(np.count_nonzero(weights < lam))
