import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lwdp_triangles import (
    Assignment,
    GraphStructureError,
    WeightedGraph,
    enumerate_triangles,
    exact_below_threshold_count,
    greedy_assign,
    triangle_weights,
)
from lwdp_triangles.experiments import generate_synthetic
from lwdp_triangles.graph import COUNT_CHUNK, check_threshold, triangle_edge_ids
from lwdp_triangles.mechanisms import RandomSource, node_uniforms
from lwdp_triangles.protocol import Baseline, run_methods

from conftest import complete_graph, random_graph


def triple_loop_triangles(graph):
    """Independent O(n^3) oracle for triangle enumeration."""
    out = []
    n = graph.node_count
    for a in range(n):
        for b in range(a + 1, n):
            if not graph.has_edge(a, b):
                continue
            for c in range(b + 1, n):
                if graph.has_edge(a, c) and graph.has_edge(b, c):
                    out.append([a, b, c])
    return out


def weight_of(graph, t):
    a, b, c = t
    return graph.weight(a, b) + graph.weight(a, c) + graph.weight(b, c)


def test_k4_has_four_triangles():
    assert len(enumerate_triangles(complete_graph(4))) == 4


def test_path_has_no_triangles():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    tris = enumerate_triangles(g)
    assert tris.shape == (0, 3) and tris.dtype == np.int32


def test_enumeration_is_canonical_and_matches_triple_loop():
    rnd = random.Random(7)
    for _ in range(40):
        g = random_graph(rnd, rnd.randint(2, 30), rnd.uniform(0.05, 0.7), -5, 5)
        tris = enumerate_triangles(g)
        assert tris.shape == (len(tris), 3) and tris.dtype == np.int32
        rows = tris.tolist()
        assert all(a < b < c for a, b, c in rows)
        assert rows == sorted(rows)
        assert len(set(map(tuple, rows))) == len(rows)
        assert rows == triple_loop_triangles(g)


def test_triangle_weight_examples():
    def weights(g):
        return triangle_weights(g, g.weight_array, enumerate_triangles(g)).tolist()

    assert weights(WeightedGraph(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])) == [6]
    assert weights(WeightedGraph(3, [(0, 1, 0), (0, 2, 0), (1, 2, 0)])) == [0]
    assert weights(WeightedGraph(3, [(0, 1, -5), (0, 2, 2), (1, 2, 1)])) == [-2]
    g = WeightedGraph(4, [(0, 1, 2**31), (0, 2, 2**31), (1, 2, 2**31), (1, 3, -1), (2, 3, 5)])
    assert weights(g) == [3 * 2**31, 2**31 + 4]
    assert triangle_weights(g, g.weight_array, np.zeros((0, 3), np.int64)).shape == (0,)


def test_triangle_weight_missing_edge_is_structural_error():
    g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1)])
    not_a_triangle = np.array([[0, 1, 3]])
    with pytest.raises(GraphStructureError):
        triangle_weights(g, g.weight_array, not_a_triangle)


def test_below_threshold_count_on_k4():
    g = complete_graph(4, weight=1)  # every triangle weighs 3
    assert exact_below_threshold_count(g, 4) == 4
    assert exact_below_threshold_count(g, 3) == 0  # strict inequality


def test_below_threshold_count_matches_triple_loop_recount():
    rnd = random.Random(99)
    g = random_graph(rnd, 20, 0.4, -5, 5)
    expected = sum(
        1 for t in triple_loop_triangles(g) if weight_of(g, t) < 0
    )
    assert exact_below_threshold_count(g, 0) == expected


def test_count_monotone_and_saturating():
    rnd = random.Random(3)
    g = random_graph(rnd, 15, 0.5, -4, 4)
    tris = enumerate_triangles(g)
    weights = [weight_of(g, t) for t in tris.tolist()]
    counts = [exact_below_threshold_count(g, lam, tris) for lam in range(-20, 21)]
    assert counts == sorted(counts)
    if len(tris):
        assert exact_below_threshold_count(g, max(weights) + 2, tris) == len(tris)
        assert exact_below_threshold_count(g, min(weights), tris) == 0


def test_structure_validation():
    with pytest.raises(GraphStructureError):
        WeightedGraph(3, [(0, 0, 1)])
    with pytest.raises(GraphStructureError):
        WeightedGraph(3, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(GraphStructureError):
        WeightedGraph(2, [(0, 5, 1)])
    # 2.5 used to construct as WeightedGraph(n=2.5, m=1)
    for n in (2.5, math.nan, "3", None):
        with pytest.raises(GraphStructureError, match="integer node_count"):
            WeightedGraph(n, [(0, 1, 1)])
    assert WeightedGraph(3.0, [(0, 1, 1)]) == WeightedGraph(3, [(0, 1, 1)])


@pytest.mark.parametrize(
    "edge", [(0.5, 1, 1), ("0", 1, 1), (1, None, 1), (0, math.nan, 1), (math.inf, 1, 1)]
)
def test_non_integral_node_id_is_rejected(edge):
    with pytest.raises(GraphStructureError, match="integer node id"):
        WeightedGraph(3, [edge])


@pytest.mark.parametrize("u, v", [(1.0, 2), (np.int64(1), 2.0), (np.int8(1), np.int32(2))])
def test_integral_node_ids_are_the_same_nodes(u, v):
    # the weights' integer rule: 1.0 and numpy integers are the integer 1
    g = WeightedGraph(3, [(u, v, 3.0), (0, 1, 4)])
    assert g == WeightedGraph(3, [(0, 1, 4), (1, 2, 3)])
    assert g.edge_weights() == {(0, 1): 4, (1, 2): 3}


def _flag_entry_points():
    g = complete_graph(4)
    a, rng = greedy_assign(g), RandomSource(1)
    return {
        "WeightedGraph node id": lambda flag: WeightedGraph(3, [(flag, 2, 1)]),
        "WeightedGraph weight": lambda flag: WeightedGraph(3, [(0, 2, flag)]),
        "check_threshold": check_threshold,
        "RandomSource seed": RandomSource,
        "generate_synthetic seed": lambda flag: generate_synthetic(5, 0.5, seed=flag),
        "run_methods threshold": lambda flag: run_methods(a, flag, [Baseline(2.0)], rng),
        "Assignment.span": a.span,
        "node_uniforms ids": lambda flag: node_uniforms(rng, np.array([flag]), 2),
        "triangle_edge_ids rows": lambda flag: triangle_edge_ids(g, np.full((1, 3), flag)),
    }


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
@pytest.mark.parametrize("entry", list(_flag_entry_points()))
def test_booleans_are_not_integers(entry, flag):
    # a bool equals 0 or 1, so it used to pass as that integer: span(True)
    # was node 1's rows and RandomSource(True) the seed 1
    with pytest.raises(ValueError, match="expected an integer"):
        _flag_entry_points()[entry](flag)


def test_non_integral_weight_is_rejected():
    for w in (2.7, -0.5, math.nan, math.inf, "3", None):
        with pytest.raises(GraphStructureError, match="integer weight"):
            WeightedGraph(3, [(0, 1, w), (0, 2, 1), (1, 2, 1)])
    # an integral float or numpy integer is the same weight, stored as an int
    g = WeightedGraph(3, [(0, 1, 3.0), (0, 2, np.int64(-2)), (1, 2, 1)])
    assert g.edge_weights() == {(0, 1): 3, (0, 2): -2, (1, 2): 1}
    assert all(type(w) is int for w in g.edge_weights().values())


def test_weight_beyond_bound_is_rejected():
    # the bound keeps partial sums and the batched sensitivity keys in int64
    for w in (2**31 + 1, -(2**31) - 1, 2**63):
        with pytest.raises(GraphStructureError, match="2\\^31"):
            WeightedGraph(3, [(0, 1, w), (0, 2, 1), (1, 2, 1)])
    g = WeightedGraph(3, [(0, 1, 2**31), (0, 2, -(2**31)), (1, 2, 1)])
    assert g.weight(0, 1) == 2**31 and g.weight(0, 2) == -(2**31)


def test_degree_table_consistent():
    rnd = random.Random(21)
    g = random_graph(rnd, 25, 0.3, -2, 2)
    assert sum(g.degree(v) for v in range(g.node_count)) == 2 * g.edge_count
    indptr, slot_edges = g.adjacency
    assert indptr[-1] == len(slot_edges) == 2 * g.edge_count
    for v in range(g.node_count):
        vec = g.weight_array[slot_edges[indptr[v]:indptr[v + 1]]].tolist()
        assert len(vec) == g.degree(v)
        assert vec == [g.weight(v, u) for u in g.neighbors(v)]


def test_weight_array_and_edge_ids_follow_sorted_edges():
    g = random_graph(random.Random(21), 16, 0.5, -9, 9)
    edges = list(g.edges())
    assert g.weight_array.tolist() == [g.weight(u, v) for u, v in edges]
    u = np.array([e[0] for e in edges])
    v = np.array([e[1] for e in edges])
    ids = np.arange(len(edges))
    assert (g.edge_ids(u, v) == ids).all() and (g.edge_ids(v, u) == ids).all()
    missing = next((a, b) for a in range(16) for b in range(a + 1, 16) if not g.has_edge(a, b))
    with pytest.raises(GraphStructureError):
        g.edge_ids(np.array([missing[0]]), np.array([missing[1]]))
    with pytest.raises(GraphStructureError):
        WeightedGraph(3, []).edge_ids(np.array([0]), np.array([1]))
    with pytest.raises(ValueError):
        g.weight_array[0] = 1  # the graph is immutable


def test_adjacency_lists_every_nodes_slots_and_each_edges_lower_slot():
    # isolated nodes (0 and 6), a degree-1 node (5) and negative weights
    g = WeightedGraph(8, [(1, 2, -3), (1, 3, 4), (2, 3, 0), (3, 4, -7), (4, 5, 2), (2, 7, 1)])
    indptr, slot_edges = g.adjacency
    edges = list(g.edges())
    owner = np.repeat(np.arange(8), np.diff(indptr))
    assert indptr.tolist() == [0, 0, 2, 5, 8, 10, 11, 11, 12]
    assert [edges[e] for e in slot_edges] == [
        tuple(sorted((v, u))) for v in range(8) for u in g.neighbors(v)
    ]
    lower = g.lower_slots
    assert (slot_edges[lower] == np.arange(len(edges))).all()
    assert (owner[lower] == [e[0] for e in edges]).all()
    for array in (indptr, slot_edges, lower):
        with pytest.raises(ValueError):
            array[0] = 1  # the graph is immutable
    empty = WeightedGraph(0, [])
    assert empty.adjacency[0].tolist() == [0] and empty.lower_slots.size == 0


def test_below_threshold_count_reads_rows_in_any_node_order():
    rnd = random.Random(23)
    g = random_graph(rnd, 14, 0.6, -3, 3)
    nodes = enumerate_triangles(g)
    shuffled = np.array([rnd.sample(row, 3) for row in nodes.tolist()], dtype=np.int32)
    for lam in (-2, 0, 3):
        expected = exact_below_threshold_count(g, lam)
        assert exact_below_threshold_count(g, lam, nodes) == expected
        assert exact_below_threshold_count(g, lam, nodes.astype(np.int64)) == expected
        assert exact_below_threshold_count(g, lam, shuffled) == expected
    assert exact_below_threshold_count(g, 0, np.zeros((0, 3), np.int64)) == 0


def test_below_threshold_count_reads_the_given_weights_across_chunks():
    rnd = random.Random(22)
    g = random_graph(rnd, 50, 0.6, -3, 3)
    tris = enumerate_triangles(g)
    assert len(tris) > COUNT_CHUNK
    edges = list(g.edges())
    other = {e: rnd.randint(-9, 9) for e in edges}
    array = np.array([other[e] for e in edges], dtype=np.int64)
    summed = [other[a, b] + other[a, c] + other[b, c] for a, b, c in tris.tolist()]
    assert triangle_weights(g, array, tris).tolist() == summed
    true_weights = [weight_of(g, t) for t in tris.tolist()]
    for lam in (-5, 0, 1, 6):
        expected = sum(1 for w in summed if w < lam)
        assert np.count_nonzero(triangle_weights(g, array, tris) < lam) == expected
        assert exact_below_threshold_count(g, lam, tris) == sum(
            1 for w in true_weights if w < lam
        )


def test_triangle_edge_ids_look_up_every_row_once_across_chunks():
    rnd = random.Random(24)
    g = random_graph(rnd, 50, 0.6, -3, 3)
    tris = enumerate_triangles(g)
    assert len(tris) > COUNT_CHUNK
    ids = triangle_edge_ids(g, tris)
    assert ids.dtype == np.int32 and ids.shape == tris.shape
    edges = list(g.edges())
    for (a, b, c), row in zip(tris.tolist(), ids.tolist()):
        assert [edges[i] for i in row] == [(a, b), (a, c), (b, c)]
    # rows in any node order give the same edge sets
    assert triangle_edge_ids(g, tris[:, ::-1]).tolist() == ids[:, ::-1].tolist()
    assert triangle_edge_ids(g, np.zeros((0, 3), np.int64)).shape == (0, 3)
    with pytest.raises(GraphStructureError):
        triangle_edge_ids(WeightedGraph(3, [(0, 1, 1), (1, 2, 1)]), np.array([[0, 1, 2]]))


def test_edge_ids_reject_node_ids_outside_the_graph():
    g = complete_graph(4)
    # with keys u*4 + v, (0, 7) would alias the edge (1, 3) and (1, 7) the
    # edge (2, 3), so the row (0, 1, 7) would count as a triangle
    aliasing = np.array([[0, 1, 7]])
    with pytest.raises(GraphStructureError, match=r"\(0,7\)"):
        triangle_edge_ids(g, aliasing)
    with pytest.raises(GraphStructureError):
        exact_below_threshold_count(g, 10, aliasing)
    with pytest.raises(GraphStructureError):
        Assignment(g, aliasing)
    # (-1, 5) would alias the edge (0, 1)
    for u, v in ((-1, 5), (5, -1), (-1, 0), (0, 4), (-2, -1)):
        with pytest.raises(GraphStructureError, match=rf"\({u},{v}\)"):
            g.edge_ids(np.array([0, u]), np.array([1, v]))
        assert not g.has_edge(u, v)
        with pytest.raises(GraphStructureError, match="no edge"):
            g.weight(u, v)


@st.composite
def edge_lists(draw):
    """A node count and a list of distinct edges in random order, each
    endpoint pair either way round, with weights anywhere in the bound."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = st.integers(-(2**31), 2**31)
    return n, [
        (*((u, v) if draw(st.booleans()) else (v, u)), draw(weights)) for u, v in chosen
    ]


def test_id_table_and_key_search_give_the_same_ids():
    # a dense graph keeps an n*n id table (n^2 <= 8m); isolated nodes added
    # until n^2 > 8m move it to the key search without changing an edge id
    g = random_graph(random.Random(26), 46, 0.7, -3, 3)
    sparse = WeightedGraph(3 * g.node_count, [(u, v, w) for (u, v), w in g.edge_weights().items()])
    assert g.node_count**2 <= 8 * g.edge_count < sparse.node_count**2
    assert g._id_table is not None and sparse._id_table is None
    assert list(sparse.edges()) == list(g.edges())
    u, v = np.array(list(g.edges())).T
    for a, b in ((u, v), (v, u), (u.astype(np.int32), v.astype(np.uint16))):
        assert g.edge_ids(a, b).tolist() == sparse.edge_ids(a, b).tolist() == list(range(len(u)))
    tris = enumerate_triangles(g)
    assert len(tris) > COUNT_CHUNK and enumerate_triangles(sparse).tolist() == tris.tolist()
    for rows in (tris, tris[:, ::-1], tris.astype(np.uint64)):
        assert triangle_edge_ids(g, rows).tolist() == triangle_edge_ids(sparse, rows).tolist()
    dense_assignment, sparse_assignment = greedy_assign(g, tris), greedy_assign(sparse, tris)
    assert dense_assignment.rows.tolist() == sparse_assignment.rows.tolist()
    assert dense_assignment.edge_ids.tolist() == sparse_assignment.edge_ids.tolist()
    for graph in (g, sparse):
        for row in ([0, 1, 3 * g.node_count], [2**64 - 1, 0, 1]):
            with pytest.raises(GraphStructureError, match="not an edge"):
                triangle_edge_ids(graph, np.array([row], np.uint64))


@given(edge_lists(), st.randoms(use_true_random=False))
@example((0, []), random.Random(0))
@example((1, []), random.Random(0))
@example((5, [(u, v, u - v) for u in range(5) for v in range(u + 1, 5)]), random.Random(0))
@settings(max_examples=150, deadline=None)
def test_graph_answers_like_a_dict_reference(drawn, rnd):
    n, edges = drawn
    g = WeightedGraph(n, edges)
    weights = {(min(u, v), max(u, v)): w for u, v, w in edges}
    adjacent = [set() for _ in range(n)]
    for u, v in weights:
        adjacent[u].add(v)
        adjacent[v].add(u)
    canonical = sorted(weights)
    assert list(g.edges()) == canonical and g.edge_count == len(canonical)
    assert list(g.edge_weights().items()) == [(e, weights[e]) for e in canonical]
    assert g.weight_array.tolist() == [weights[e] for e in canonical]
    # every pair, node ids outside [0, n) included
    for u in range(-2, n + 2):
        for v in range(-2, n + 2):
            key = (min(u, v), max(u, v))
            assert g.has_edge(u, v) == (key in weights)
            if key in weights:
                assert g.weight(u, v) == weights[key]
                assert g.edge_ids(np.array([u]), np.array([v])).tolist() == [
                    canonical.index(key)
                ]
            else:
                with pytest.raises(GraphStructureError):
                    g.weight(u, v)
                with pytest.raises(GraphStructureError):
                    g.edge_ids(np.array([u]), np.array([v]))
    # node ids far outside [0, n), past int64 included, are never an edge
    for u in (-1, n, 2**70, -(2**70)):
        for v in (0, n - 1, 2**70):
            assert not g.has_edge(u, v) and not g.has_edge(v, u)
            with pytest.raises(GraphStructureError, match="no edge"):
                g.weight(u, v)
    assert [g.neighbors(v) for v in range(n)] == [tuple(sorted(a)) for a in adjacent]
    assert [g.degree(v) for v in range(n)] == [len(a) for a in adjacent]
    assert g.max_degree == max(map(len, adjacent), default=0)
    for v in (-1, n):
        with pytest.raises(GraphStructureError, match="outside"):
            g.degree(v)
        with pytest.raises(GraphStructureError, match="outside"):
            g.neighbors(v)
    indptr, slot_edges = g.adjacency
    assert [
        [canonical[e] for e in slot_edges[indptr[v]:indptr[v + 1]]] for v in range(n)
    ] == [[(min(v, u), max(v, u)) for u in sorted(a)] for v, a in enumerate(adjacent)]
    lower = g.lower_slots
    assert slot_edges[lower].tolist() == list(range(len(canonical)))
    assert [int(np.searchsorted(indptr, s, "right")) - 1 for s in lower] == [
        u for u, _ in canonical
    ]
    # equality depends on the edges and weights, not on their order or orientation
    shuffled = [(v, u, w) if rnd.random() < 0.5 else (u, v, w) for u, v, w in edges]
    rnd.shuffle(shuffled)
    assert WeightedGraph(n, shuffled) == g
    assert WeightedGraph(n + 1, edges) != g
    if edges:
        u, v, w = edges[0]
        assert WeightedGraph(n, [(u, v, w + (1 if w < 2**31 else -1))] + edges[1:]) != g
        assert WeightedGraph(n, edges[1:]) != g
