import itertools
import math
import random

import numpy as np
import pytest

from lwdp_triangles import (
    GraphStructureError,
    WeightedGraph,
    count_c4_instances,
    enumerate_triangles,
    exact_below_threshold_count,
    greedy_assign,
)
from lwdp_triangles.assignment import (
    Assignment,
    InstanceTooLargeError,
    brute_force_optimal_assign,
)
from lwdp_triangles.experiments import generate_synthetic
from lwdp_triangles.graph import triangle_edge_ids

from conftest import book_graph, complete_graph, random_graph

RATIO_SQ = 3 + 2 * math.sqrt(2)
RATIO_C4 = 2 + 2 * math.sqrt(2)


def c4_by_pair_enumeration(assignment):
    """Independent oracle: count pairs of assigned triangles sharing their noisy edge."""
    noisy = [(y, z) for _, y, z in assignment.rows.tolist()]
    return sum(1 for a, b in itertools.combinations(noisy, 2) if a == b)


def greedy_reference(triangles):
    """Owner of every triangle under greedy assignment, one triangle at a
    time: in sorted triangle order, each takes the minimum over its three
    (load, canonical edge) pairs, and the owner is the node opposite that edge."""
    loads, owner = {}, {}
    for a, b, c in sorted(map(tuple, triangles.tolist())):
        opposite = {(a, b): c, (a, c): b, (b, c): a}
        _, edge = min((loads.get(e, 0), e) for e in opposite)
        loads[edge] = loads.get(edge, 0) + 1
        owner[a, b, c] = opposite[edge]
    return owner


def owners(assignment):
    return {tuple(sorted(row)): row[0] for row in assignment.rows.tolist()}


EMPTY = np.zeros((0, 3), np.int32)


def test_count_c4_from_loads():
    g = book_graph(3)
    a = Assignment(g, EMPTY)
    assert count_c4_instances(a) == 0
    tris = enumerate_triangles(g)
    forced = Assignment(g, tris[:, [2, 0, 1]])  # all on the spine edge (0, 1)
    assert count_c4_instances(forced) == 3  # C(3, 2)
    spread = greedy_assign(g, tris)
    assert all(l <= 1 for l in spread.loads.values())
    assert count_c4_instances(spread) == 0


def test_c4_identity_matches_pair_enumeration():
    rnd = random.Random(8)
    for _ in range(30):
        g = random_graph(rnd, rnd.randint(4, 12), 0.6, -3, 3)
        tris = enumerate_triangles(g)
        a = greedy_assign(g, tris)
        assert count_c4_instances(a) == c4_by_pair_enumeration(a)


def test_greedy_on_k4_matches_exhaustive_optimum():
    g = complete_graph(4)
    tris = enumerate_triangles(g)
    greedy = greedy_assign(g, tris)
    assert count_c4_instances(greedy) == 0
    opt, opt_sq = brute_force_optimal_assign(g, tris)
    assert opt_sq == 4  # loads 1,1,1,1,0,0
    assert sorted(greedy.loads.values()) == [1, 1, 1, 1]
    # exhaustive check over all 3^4 assignments confirms 0 covariance pairs is optimal
    assert count_c4_instances(opt) == 0


def test_single_triangle():
    g = complete_graph(3)
    (t,) = enumerate_triangles(g).tolist()
    a = greedy_assign(g)
    assert a.rows.shape == (1, 3) and sorted(a.rows[0].tolist()) == t
    assert list(a.loads.values()) == [1]
    _, opt_sq = brute_force_optimal_assign(g)
    assert opt_sq == 1


def test_two_disjoint_triangles():
    g = WeightedGraph(6, [(0, 1, 0), (0, 2, 0), (1, 2, 0), (3, 4, 0), (3, 5, 0), (4, 5, 0)])
    _, opt_sq = brute_force_optimal_assign(g)
    assert opt_sq == 2


def test_book_graph_greedy_is_optimal_for_small_books():
    for k in range(1, 7):
        g = book_graph(k)
        tris = enumerate_triangles(g)
        greedy = greedy_assign(g, tris)
        opt, _ = brute_force_optimal_assign(g, tris)
        assert count_c4_instances(greedy) == 0
        assert count_c4_instances(opt) == 0


def test_assignment_invariants():
    rnd = random.Random(17)
    g = random_graph(rnd, 14, 0.5, -2, 2)
    tris = enumerate_triangles(g)
    a = greedy_assign(g, tris)
    # every triangle exactly once, each under one of its own nodes
    assert sorted(sorted(row) for row in a.rows.tolist()) == tris.tolist()
    assert all(y < z for _, y, z in a.rows.tolist())
    assert sum(a.loads.values()) == len(tris)
    # load table equals direct recount of noisy edges
    recount = {}
    for _, y, z in a.rows.tolist():
        recount[y, z] = recount.get((y, z), 0) + 1
    assert recount == {e: l for e, l in a.loads.items() if l}
    assert all(a.load(e) == l for e, l in recount.items())


def test_greedy_is_deterministic():
    rnd = random.Random(5)
    g = random_graph(rnd, 12, 0.6, -2, 2)
    a = greedy_assign(g)
    b = greedy_assign(g)
    assert np.array_equal(a.rows, b.rows) and a.loads == b.loads


def test_brute_force_size_cap():
    g = complete_graph(8)  # 56 triangles
    with pytest.raises(InstanceTooLargeError):
        brute_force_optimal_assign(g)


def test_greedy_approximation_ratios_on_random_instances():
    rnd = random.Random(20240817)
    checked = 0
    while checked < 60:
        g = random_graph(rnd, rnd.randint(5, 14), rnd.uniform(0.2, 0.7), -5, 5)
        tris = enumerate_triangles(g)
        if not (1 <= len(tris) <= 8):
            continue
        checked += 1
        greedy = greedy_assign(g, tris)
        opt, opt_sq = brute_force_optimal_assign(g, tris)
        assert greedy.squared_load() <= RATIO_SQ * opt_sq + 1e-9
        opt_c4 = count_c4_instances(opt)
        greedy_c4 = count_c4_instances(greedy)
        if opt_c4 == 0:
            assert greedy_c4 == 0
        else:
            assert greedy_c4 <= RATIO_C4 * opt_c4 + 1e-9


def test_rows_list_each_owners_triangles_in_order():
    g = random_graph(random.Random(23), 15, 0.55, -2, 2)
    tris = enumerate_triangles(g)[::-1]  # rows in reverse triangle order
    rows = [((c, a, b), (b, a, c), (a, b, c))[i % 3] for i, (a, b, c) in enumerate(tris.tolist())]
    a = Assignment(g, rows)
    owned = {v: [] for v in range(15)}
    for t, (owner, _, _) in zip(tris.tolist(), rows):
        owned[owner].append(t)
    expected = [(v, *(u for u in t if u != v)) for v in range(15) for t in sorted(owned[v])]
    assert a.rows.dtype.name == "int32"
    assert [tuple(r) for r in a.rows.tolist()] == expected
    for v in range(15):
        assert [tuple(r) for r in a.triangles_of(v).tolist()] == [r for r in expected if r[0] == v]
    with pytest.raises(ValueError):
        a.rows[0, 0] = 1  # read-only
    assert Assignment(g, EMPTY).rows.shape == (0, 3)
    assert Assignment(g, EMPTY).triangles_of(0).shape == (0, 3)


def test_span_takes_integral_node_ids_only():
    # span(2.5) used to return node 3's rows, and so did triangles_of(2.5)
    a = greedy_assign(generate_synthetic(20, 0.5, seed=1))
    for node in (2.5, "2", None):
        with pytest.raises(ValueError, match="integer node id"):
            a.span(node)
        with pytest.raises(ValueError, match="integer node id"):
            a.triangles_of(node)
    assert a.span(2.0) == a.span(np.int64(2)) == a.span(2) != a.span(3)
    assert (a.triangles_of(2.0)[:, 0] == 2).all()


def test_assignment_rows_take_any_order_and_reject_malformed_rows():
    g = complete_graph(4)
    a = Assignment(g, np.array([[3, 2, 1], [0, 2, 1], [3, 1, 0]]))
    assert a.rows.tolist() == [[0, 1, 2], [3, 0, 1], [3, 1, 2]]
    assert a.loads == {(0, 1): 1, (1, 2): 2}
    for bad in (np.array([[0, 0, 1]]), np.array([[0, 1, 1]]), np.zeros((2, 2)), np.zeros(3)):
        with pytest.raises(ValueError):
            Assignment(g, bad)
    with pytest.raises(ValueError):
        Assignment(book_graph(2), np.array([[0, 2, 3]]))  # not a triangle of the graph
    # rows are checked before any cast: 2^32 used to wrap to node 0 in the
    # int32 cast, and 0.5 to be truncated to it, so both read as [0, 1, 2]
    count = lambda g, rows: exact_below_threshold_count(g, 6, rows)
    for entry in (Assignment, greedy_assign, count):
        with pytest.raises(ValueError, match="not an edge"):
            entry(g, np.array([[2**32, 1, 2]]))
        with pytest.raises(ValueError, match="integer node id"):
            entry(g, [[0.5, 1, 2]])
        # past int64 the rows used to raise OverflowError in the int64 cast
        for row in ([2**70, 1, 2], [0, 2**64, 1], [-(2**63) - 1, 1, 2]):
            with pytest.raises(GraphStructureError, match="outside the int64 range"):
                entry(g, [row])
    with pytest.raises(GraphStructureError, match="outside the int64 range"):
        triangle_edge_ids(g, [[2**64, 1, 2]])
    assert Assignment(g, [[0.0, 1.0, 2.0]]).rows.tolist() == [[0, 1, 2]]


def test_greedy_matches_per_triangle_reference_on_tie_heavy_graphs():
    rnd = random.Random(31)
    graphs = [complete_graph(n) for n in range(3, 10)] + [book_graph(k) for k in range(1, 9)]
    graphs += [random_graph(rnd, rnd.randint(6, 22), rnd.uniform(0.5, 0.95), 0, 0)
               for _ in range(12)]
    for g in graphs:
        tris = enumerate_triangles(g)
        assert owners(greedy_assign(g, tris)) == greedy_reference(tris), g
        assert owners(greedy_assign(g)) == greedy_reference(tris), g


def test_assignment_sorts_rows_like_a_three_key_lexsort_and_keeps_their_edge_ids():
    rnd = random.Random(33)
    for _ in range(8):
        g = random_graph(rnd, rnd.randint(6, 30), rnd.uniform(0.3, 0.9), -2, 2)
        tris = enumerate_triangles(g)
        # every row under a random one of its nodes, y and z either way
        # round, in shuffled order
        rows = np.array([rnd.sample(row, 3) for row in tris.tolist()], dtype=np.int64)
        rows = rows[rnd.sample(range(len(rows)), len(rows))].reshape(-1, 3)
        given = rows.copy()
        a = Assignment(g, rows)
        assert np.array_equal(rows, given)  # the caller's rows are untouched
        owner, y, z = rows.T
        y, z = np.minimum(y, z), np.maximum(y, z)
        expected = np.column_stack((owner, y, z))[np.lexsort((z, y, owner))]
        assert a.rows.dtype == np.int32 and a.rows.tolist() == expected.tolist()
        owner, y, z = a.rows.T
        ids = np.column_stack((g.edge_ids(owner, y), g.edge_ids(owner, z), g.edge_ids(y, z)))
        assert a.edge_ids.dtype == np.int32 and a.edge_ids.tolist() == ids.tolist()
        for array in (a.rows, a.edge_ids):
            assert not np.shares_memory(array, rows)
            with pytest.raises(ValueError):
                array[0] = 0


def test_greedy_looks_up_every_triangles_edge_ids_once(monkeypatch):
    from lwdp_triangles import assignment as assignment_mod

    looked_up = []

    def counted(graph, rows):
        looked_up.append(len(rows))
        return lookup(graph, rows)

    lookup = assignment_mod.triangle_edge_ids
    monkeypatch.setattr(assignment_mod, "triangle_edge_ids", counted)
    rnd = random.Random(35)
    # K31 has 4,495 triangles: more than one chunk of the greedy pass
    graphs = [WeightedGraph(5, []), complete_graph(5), complete_graph(31)]
    graphs += [random_graph(rnd, rnd.randint(6, 30), rnd.uniform(0.3, 0.9), -2, 2)
               for _ in range(8)]
    for g in graphs:
        tris = enumerate_triangles(g)
        for given in (None, tris, tris.astype(np.int64)):
            looked_up.clear()
            greedy = greedy_assign(g, given)
            assert sum(looked_up) == len(tris)
            again = Assignment(g, greedy.rows)
            for got, want in ((greedy.rows, again.rows), (greedy.edge_ids, again.edge_ids)):
                assert got.dtype == np.int32 and np.array_equal(got, want)
                with pytest.raises(ValueError):
                    got[...] = 0


def test_exact_count_is_counted_once_per_threshold(monkeypatch):
    from lwdp_triangles import assignment as assignment_mod
    from lwdp_triangles.graph import exact_below_threshold_count

    summed = []

    def counted(weights, ids):
        summed.append(len(ids))
        return sums(weights, ids)

    sums = assignment_mod.edge_id_sums
    monkeypatch.setattr(assignment_mod, "edge_id_sums", counted)
    g = random_graph(random.Random(36), 25, 0.6, -2, 4)
    tris = enumerate_triangles(g)
    for assignment in (greedy_assign(g, tris), Assignment(g, tris)):
        for lam in (-2, 1, 5, 9):
            expected = exact_below_threshold_count(g, lam, tris)
            summed.clear()
            assert assignment.exact_count(lam) == expected
            assert assignment.exact_count(lam) == expected
            assert summed == [len(tris)]  # the second call sums nothing
