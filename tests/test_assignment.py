import itertools
import math
import random

import pytest

from lwdp_triangles import (
    WeightedGraph,
    count_c4_instances,
    enumerate_triangles,
    greedy_assign,
)
from lwdp_triangles.assignment import (
    Assignment,
    InstanceTooLargeError,
    assignment_from_choices,
    brute_force_optimal_assign,
)

from conftest import book_graph, complete_graph, random_graph

RATIO_SQ = 3 + 2 * math.sqrt(2)
RATIO_C4 = 2 + 2 * math.sqrt(2)


def c4_by_pair_enumeration(assignment):
    """Independent oracle: count pairs of assigned triangles sharing their noisy edge."""
    noisy = [assignment.noisy_edge(t) for t in assignment.rho]
    return sum(1 for a, b in itertools.combinations(noisy, 2) if a == b)


def test_count_c4_from_loads():
    a = Assignment({}, {})
    assert count_c4_instances(a) == 0
    g = book_graph(3)
    tris = enumerate_triangles(g)
    forced = assignment_from_choices(tris, [(0, 1)] * 3)  # all on the spine edge
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
    (t,) = enumerate_triangles(g)
    a = greedy_assign(g)
    assert a.rho[t] in t.nodes
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
    assert set(a.rho) == set(tris)
    for t, v in a.rho.items():
        assert v in t.nodes
    assert sum(a.loads.values()) == len(tris)
    # load table equals direct recount of noisy edges
    recount = {}
    for t in tris:
        e = a.noisy_edge(t)
        recount[e] = recount.get(e, 0) + 1
    assert recount == {e: l for e, l in a.loads.items() if l}


def test_greedy_is_deterministic():
    rnd = random.Random(5)
    g = random_graph(rnd, 12, 0.6, -2, 2)
    a = greedy_assign(g)
    b = greedy_assign(g)
    assert a.rho == b.rho and a.loads == b.loads


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
    tris = enumerate_triangles(g)
    # choices in reverse triangle order, so rho is not in sorted order
    a = assignment_from_choices(tris[::-1], [t.edges()[i % 3] for i, t in enumerate(tris[::-1])])
    owned = {v: sorted(t for t, owner in a.rho.items() if owner == v) for v in range(15)}
    expected = [(v, *(u for u in t.nodes if u != v)) for v in range(15) for t in owned[v]]
    assert a.rows.dtype.name == "int32"
    assert [tuple(r) for r in a.rows.tolist()] == expected
    for v in range(15):
        assert a.triangles_of(v) == tuple(owned[v])
    assert Assignment({}, {}).rows.shape == (0, 3)
    assert Assignment({}, {}).triangles_of(0) == ()
