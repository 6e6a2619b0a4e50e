import hashlib
import inspect
import math
import statistics

import numpy as np
import pytest

from lwdp_triangles import (
    EstimatorKind,
    PrivacyBudget,
    RandomSource,
    WeightedGraph,
    enumerate_triangles,
    exact_below_threshold_count,
    generate_synthetic,
    greedy_assign,
    run_baseline,
    run_two_step,
)
from lwdp_triangles.estimators import estimator_step_bound, expected_biased
from lwdp_triangles.experiments import METHODS, method_named, run_sweep
from lwdp_triangles import assignment as assignment_module
from lwdp_triangles.assignment import Assignment
from lwdp_triangles.graph import triangle_edge_ids, triangle_weights
from lwdp_triangles.mechanisms import dlap_sample, smooth_noise_inverse_cdf
from lwdp_triangles import protocol, sensitivity
from lwdp_triangles.protocol import (
    STEP1_ROUND,
    STEP2_ROUND,
    Baseline,
    Mechanism,
    TwoStep,
    local_step2,
    release_step1,
    run_methods,
)
from lwdp_triangles.sensitivity import SENSITIVITY_FLUSH_SIZE

from conftest import (
    complete_graph, random_graph, record_chunks, record_count_paths, reference_step2,
)

import random

# smooth-sensitivity chunk size for the tests that need graphs spanning
# several chunks: small chunks keep those graphs, and the per-node reference, small
SMALL_FLUSH_SIZE = 2048
assert SMALL_FLUSH_SIZE < SENSITIVITY_FLUSH_SIZE


def test_large_budget_identity_all_methods():
    rnd = random.Random(2)
    # weights land exactly on the boundary values too
    g = random_graph(rnd, 18, 0.5, 0, 2)
    tris = enumerate_triangles(g)
    lam = 3
    exact = exact_below_threshold_count(g, lam, tris)
    # epsilon_1 = 700 makes every DLap draw exactly 0; epsilon_2 = 1e300 makes
    # the step-2 noise far smaller than 1e-12
    budget = PrivacyBudget(700.0, 1e300)
    for kind in EstimatorKind:
        for mech in Mechanism:
            rep = run_two_step(g, lam, budget, kind, mech, RandomSource(4))
            assert rep.estimate == pytest.approx(float(exact), abs=1e-12)
    base = run_baseline(g, lam, 700.0, RandomSource(4))
    assert base.estimate == float(exact)


def test_symmetrization_tie_break():
    g = WeightedGraph(2, [(0, 1, 5)])
    told_apart = 0
    for seed in range(11, 31):
        noisy = release_step1(g, 1.0, RandomSource(seed))
        assert noisy.shape == (1,) and noisy.dtype == np.int64
        # the public weight is the release of the lower-id endpoint
        own = 5 + dlap_sample(math.exp(-1.0), RandomSource(seed).stream(0, STEP1_ROUND), size=1)
        other = 5 + dlap_sample(math.exp(-1.0), RandomSource(seed).stream(1, STEP1_ROUND), size=1)
        assert noisy[0] == own[0]
        told_apart += own[0] != other[0]
    assert told_apart  # some seeds give the two endpoints different releases


def test_release_covers_every_edge_and_pairs_across_methods():
    rnd = random.Random(3)
    g = random_graph(rnd, 14, 0.5, -3, 3)
    noisy = release_step1(g, 1.0, RandomSource(6))
    assert noisy.shape == (g.edge_count,) and noisy.dtype == np.int64
    # identical seed and budget give identical step-1 noise, whichever
    # mechanism consumes it afterwards (paired-seed isolation)
    again = release_step1(g, 1.0, RandomSource(6))
    assert noisy.tolist() == again.tolist()


def reference_step1(g, epsilon_1, rng):
    """Step 1 one node at a time: each node noises its own incident weights
    from its own substream; each edge keeps its lower-id endpoint's value."""
    public = {}
    for v in range(g.node_count):
        vector = [g.weight(v, u) for u in g.neighbors(v)]
        stream = rng.stream(v, STEP1_ROUND)
        noisy = np.array(vector, dtype=np.int64) + dlap_sample(
            math.exp(-epsilon_1), stream, size=len(vector)
        )
        for u, w in zip(g.neighbors(v), noisy.tolist()):
            if v < u:
                public[(v, u)] = w
    return [public[e] for e in g.edges()]


def test_release_step1_matches_per_node_reference_edge_by_edge():
    rnd = random.Random(41)
    graphs = [
        # isolated nodes 0 and 6, degree-1 nodes 5 and 7, negative weights
        WeightedGraph(8, [(1, 2, -3), (1, 3, 4), (2, 3, 0), (3, 4, -7), (4, 5, 2), (2, 7, 1)]),
        WeightedGraph(3, []),
        WeightedGraph(2, [(0, 1, -(2**31))]),
    ] + [random_graph(rnd, rnd.randint(5, 40), rnd.uniform(0.05, 0.7), -9, 9) for _ in range(6)]
    for i, g in enumerate(graphs):
        for epsilon_1 in (0.3, 2.0):
            rng = RandomSource(60 + i).subsource(1, 2)
            noisy = release_step1(g, epsilon_1, rng)
            assert noisy.tolist() == reference_step1(g, epsilon_1, rng), (i, epsilon_1)


@pytest.mark.parametrize("epsilon_1", [math.log(1.5), 0.5, 1.0, 5.0, 700.0, 0.3])
def test_release_step1_draws_every_nodes_noise_from_its_own_stream(epsilon_1, monkeypatch):
    # from ln 1.5 up numpy's geometric reads one double per draw and the
    # kernel serves every node; below it every node draws from its generator
    search = 1.0 - math.exp(-epsilon_1) >= 0.333333333333333333333333
    assert search == (epsilon_1 != 0.3)
    if epsilon_1 == math.log(1.5):
        assert 1.0 - math.exp(-epsilon_1) == 0.33333333333333337
    rnd = random.Random(42)
    graphs = [
        # a hub of degree 150, so one node draws 300 doubles, and isolated nodes
        WeightedGraph(160, [(0, v, v % 7 - 3) for v in range(1, 151)] + [(151, 152, 4)]),
        WeightedGraph(3, []),
    ] + [random_graph(rnd, rnd.randint(5, 60), rnd.uniform(0.05, 0.7), -9, 9) for _ in range(4)]

    def refuse(*args):
        raise AssertionError("took the other step-1 path")

    unused = "node_streams" if search else "node_raw"
    for i, g in enumerate(graphs):
        rng = RandomSource(70 + i).subsource(2)
        expected = reference_step1(g, epsilon_1, rng)
        with monkeypatch.context() as patch:
            patch.setattr(RandomSource, unused, refuse)
            assert release_step1(g, epsilon_1, rng).tolist() == expected, i


@pytest.mark.parametrize("epsilon_1", [0.0, -1.0, math.nan, math.inf, 800.0])
def test_release_step1_checks_the_budget_before_any_node(epsilon_1):
    # the budget is checked once per release, so even a graph with no node rejects it
    for g in (WeightedGraph(0, []), complete_graph(4)):
        with pytest.raises(ValueError):
            release_step1(g, epsilon_1, RandomSource(0))


def test_communication_tallies_k4():
    g = complete_graph(4)
    rep = run_two_step(g, 4, PrivacyBudget(1.0, 1.0), EstimatorKind.BIASED,
                       Mechanism.GLOBAL_LAPLACE, RandomSource(0))
    t = rep.tallies
    assert (t.uploads_step1, t.downloads, t.uploads_step2) == (12, 4, 4)


def test_communication_tallies_random_graphs():
    rnd = random.Random(77)
    for _ in range(5):
        g = random_graph(rnd, rnd.randint(5, 25), rnd.uniform(0.2, 0.8), -4, 4)
        tris = enumerate_triangles(g)
        rep = run_two_step(g, 0, PrivacyBudget(0.5, 0.5), EstimatorKind.UNBIASED,
                           Mechanism.GLOBAL_LAPLACE, RandomSource(1), triangles=tris)
        t = rep.tallies
        assert t.uploads_step1 == 2 * g.edge_count
        assert t.downloads == len(tris)
        assert t.uploads_step2 == g.node_count


def test_empty_graph_all_zero_tallies():
    g = WeightedGraph(0, [])
    rep = run_two_step(g, 1, PrivacyBudget(1.0, 1.0), EstimatorKind.BIASED,
                       Mechanism.SMOOTH, RandomSource(0))
    assert rep.estimate == 0.0
    t = rep.tallies
    assert (t.uploads_step1, t.downloads, t.uploads_step2) == (0, 0, 0)


def test_budget_ledger():
    g = complete_graph(5)
    budget = PrivacyBudget(0.7, 1.1)
    rep = run_two_step(g, 3, budget, EstimatorKind.UNBIASED, Mechanism.SMOOTH, RandomSource(2))
    for v in range(g.node_count):
        entries = rep.budget_ledger[v]
        assert [e.query for e in entries] == ["dlap", "smooth"]
        assert [e.epsilon for e in entries] == [0.7, 1.1]
        assert rep.spent(v) == pytest.approx(budget.epsilon_1 + budget.epsilon_2)
    base = run_baseline(g, 3, 2.0, RandomSource(2))
    for v in range(g.node_count):
        assert base.spent(v) == pytest.approx(2.0)


def test_estimate_is_sum_of_releases():
    g = complete_graph(6, weight=2)
    rep = run_two_step(g, 7, PrivacyBudget(1.0, 1.0), EstimatorKind.UNBIASED,
                       Mechanism.SMOOTH, RandomSource(9))
    assert rep.estimate == sum(rep.per_node_release.tolist())
    assert rep.per_node_release.shape == (g.node_count,)
    assert rep.per_node_release.dtype == np.float64
    assert not rep.per_node_release.flags.writeable


def test_same_seed_reproduces_run():
    rnd = random.Random(5)
    g = random_graph(rnd, 15, 0.5, -3, 3)
    a = run_two_step(g, 1, PrivacyBudget(1.0, 1.0), EstimatorKind.UNBIASED,
                     Mechanism.SMOOTH, RandomSource(31))
    b = run_two_step(g, 1, PrivacyBudget(1.0, 1.0), EstimatorKind.UNBIASED,
                     Mechanism.SMOOTH, RandomSource(31))
    c = run_two_step(g, 1, PrivacyBudget(1.0, 1.0), EstimatorKind.UNBIASED,
                     Mechanism.SMOOTH, RandomSource(32))
    assert a.estimate == b.estimate
    assert a.per_node_release.tolist() == b.per_node_release.tolist()
    assert a.estimate != c.estimate


# float.hex of seeded estimates on one fixed graph, recorded before the step-2
# release was batched: any change in RNG use or float order shows up here
_GOLDEN_TWO_STEP = {
    ("biased", "global", 3): "0x1.1e7f67f3e016ep+6",
    ("biased", "global", 4): "0x1.17693b0b3d2a5p+6",
    ("biased", "smooth", 3): "0x1.0a610bde06250p+6",
    ("biased", "smooth", 4): "0x1.134bdd41efed7p+6",
    ("unbiased", "global", 3): "0x1.10aeed02b70dap+6",
    ("unbiased", "global", 4): "0x1.cce735c4d933ap+5",
    ("unbiased", "smooth", 3): "0x1.af09ee763c4f0p+5",
    ("unbiased", "smooth", 4): "0x1.b585404088d9dp+5",
}
_GOLDEN_BASELINE = {
    3: "0x1.1400000000000p+6",
    4: "0x1.1c00000000000p+6",
}


def test_seeded_estimates_match_recorded_hex():
    g = random_graph(random.Random(20), 20, 0.5, -1, 4)
    budget = PrivacyBudget(1.0, 1.5)
    for (kind, mech, seed), expected in _GOLDEN_TWO_STEP.items():
        rep = run_two_step(g, 5, budget, EstimatorKind(kind), Mechanism(mech), RandomSource(seed))
        assert rep.estimate.hex() == expected, (kind, mech, seed)
    for seed, expected in _GOLDEN_BASELINE.items():
        assert run_baseline(g, 5, 2.5, RandomSource(seed)).estimate.hex() == expected, seed


# float.hex of seeded run_methods estimates at total epsilon 0.6: the two-step
# methods spend epsilon_1 = 0.3, below ln 1.5, where numpy's geometric leaves
# its search path, so this pins the per-node step-1 fallback
_GOLDEN_EPS_06 = {
    ("baseline", 3): "0x1.3000000000000p+6",
    ("global-biased", 3): "0x1.f8fa0f86c0e43p+5",
    ("global-unbiased", 3): "-0x1.619bbab555dd0p+7",
    ("smooth-biased", 3): "0x1.28968a3f2835ap+4",
    ("smooth-unbiased", 3): "-0x1.2d31c14db664bp+10",
    ("baseline", 4): "0x1.5800000000000p+6",
    ("global-biased", 4): "0x1.e4389ce0c74e2p+4",
    ("global-unbiased", 4): "-0x1.2bc47e60c7566p+10",
    ("smooth-biased", 4): "-0x1.ebef53c7a54d4p+2",
    ("smooth-unbiased", 4): "-0x1.03420b9545b26p+11",
}


def test_run_methods_below_ln_1_5_match_recorded_hex():
    g = random_graph(random.Random(20), 20, 0.5, -1, 4)
    assignment = greedy_assign(g)
    methods = [method_named(m, 0.6) for m in METHODS]
    for seed in (3, 4):
        reports = run_methods(assignment, 5, methods, RandomSource(seed))
        for name, rep in zip(METHODS, reports):
            assert rep.estimate.hex() == _GOLDEN_EPS_06[(name, seed)], (name, seed)


# sha256 over every per_node_sensitivity hex of both smooth methods at
# lam 3, 9 and 20, total epsilon 0.5, 2 and 6 and master seeds 0 to 2, on
# G(n, p) with the benchmark's weights, recorded before the kernel counted
# targets by histogram.  The dense graph takes that path in most chunks, the
# sparse one, with few sums per segment, never.
_GOLDEN_SMOOTH_SENSITIVITY = {
    (60, 0.8): "1b46810330d61fb1b678273a1717b682e21535a89955edbd73a508ac7fd11e40",
    (400, 0.03): "147a6e18f92b1604f49406a4096b1ef08499122b1696bba56d4c1943665a7016",
}


@pytest.mark.parametrize("graph", sorted(_GOLDEN_SMOOTH_SENSITIVITY))
def test_smooth_sensitivities_match_recorded_digest(monkeypatch, graph):
    paths = record_count_paths(monkeypatch)
    n, density = graph
    g = generate_synthetic(n, density, seed=5, weight_values=(0, 1, 2, 3, 8),
                           weight_probs=(0.55, 0.2, 0.12, 0.08, 0.05))
    assignment = greedy_assign(g)
    digest = hashlib.sha256()
    for lam in (3, 9, 20):
        for epsilon in (0.5, 2.0, 6.0):
            methods = [TwoStep(PrivacyBudget.even_split(epsilon), kind, Mechanism.SMOOTH)
                       for kind in EstimatorKind]
            for seed in range(3):
                for rep in run_methods(assignment, lam, methods, RandomSource(seed)):
                    hexes = " ".join(float(s).hex() for s in rep.per_node_sensitivity)
                    digest.update(hexes.encode())
    assert digest.hexdigest() == _GOLDEN_SMOOTH_SENSITIVITY[graph]
    assert paths.count(True) > paths.count(False) if density > 0.5 else not any(paths)


def test_step2_isolation_from_other_nodes():
    rnd = random.Random(6)
    g = random_graph(rnd, 12, 0.6, -2, 2)
    assignment = greedy_assign(g)
    noisy = release_step1(g, 1.0, RandomSource(8))
    received = {(y, z) for _, y, z in assignment.triangles_of(0).tolist()}
    assert received
    # tamper every true weight node 0 does not hold and every noisy weight
    # it is not sent; node 0's count and sensitivity must not move
    weights = g.weight_array.copy()
    tampered = noisy.copy()
    for i, edge in enumerate(g.edges()):
        if 0 not in edge:
            weights[i] -= 1000
        if edge not in received:
            tampered[i] += 1000
    budget = PrivacyBudget(1.0, 1.0)
    for kind in EstimatorKind:
        for mechanism in Mechanism:
            args = (1, kind, mechanism, budget)
            f, s = local_step2(assignment, g.weight_array, noisy, *args)
            f2, s2 = local_step2(assignment, weights, tampered, *args)
            assert (f2[0].hex(), s2[0].hex()) == (f[0].hex(), s[0].hex()), (kind, mechanism)
            # the tampering itself is observable at some other node
            assert (f2 != f).any() or (s2 != s).any(), (kind, mechanism)


def test_smooth_release_per_node_matches_one_node_at_a_time():
    # the batched step-2 release must equal each node drawing its own noise
    # from its own substream, one node at a time
    rnd = random.Random(6)
    g = random_graph(rnd, 12, 0.6, -2, 2)
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    budget = PrivacyBudget(1.0, 1.0)
    lam = 1
    for kind in EstimatorKind:
        rng = RandomSource(8)
        rep = run_two_step(g, lam, budget, kind, Mechanism.SMOOTH, rng,
                           triangles=tris, assignment=assignment)
        noisy = release_step1(g, budget.epsilon_1, rng)
        counts, sens = reference_step2(g, assignment, noisy, lam, kind, Mechanism.SMOOTH, budget)
        silent = 0
        for v in range(g.node_count):
            if sens[v] == 0.0:
                silent += 1
                assert rep.per_node_release[v].hex() == counts[v].hex()
                continue
            z = smooth_noise_inverse_cdf(np.array([rng.stream(v, STEP2_ROUND).random()]))[0]
            expected = counts[v] + budget.smooth_noise_scale * sens[v] * float(z)
            assert rep.per_node_release[v].hex() == expected.hex(), (kind, v)
        assert 0 < silent < g.node_count


def test_laplace_release_per_node_matches_numpy_laplace_one_node_at_a_time():
    # every node with GS_v > 0 releases f'_v plus numpy's own Laplace draw at
    # scale GS_v / epsilon_2 from its own step-2 substream
    rnd = random.Random(6)
    g = random_graph(rnd, 12, 0.6, -2, 2)
    assignment = greedy_assign(g)
    budget = PrivacyBudget(1.0, 0.7)
    lam = 1
    for kind in EstimatorKind:
        rng = RandomSource(8)
        rep = run_two_step(g, lam, budget, kind, Mechanism.GLOBAL_LAPLACE, rng,
                           assignment=assignment)
        noisy = release_step1(g, budget.epsilon_1, rng)
        counts, sens = reference_step2(
            g, assignment, noisy, lam, kind, Mechanism.GLOBAL_LAPLACE, budget)
        silent = 0
        for v in range(g.node_count):
            expected = counts[v]
            if sens[v] > 0.0:
                expected += rng.stream(v, STEP2_ROUND).laplace(0.0, sens[v] / budget.epsilon_2)
            else:
                silent += 1
            assert rep.per_node_release[v].hex() == expected.hex(), (kind, v)
        assert 0 < silent < g.node_count


def test_global_and_smooth_methods_of_a_trial_read_the_same_uniform_per_node(monkeypatch):
    # run_methods pairs the methods of one trial: a node that adds noise under
    # both mechanisms reads one and the same u_v, its stream's first double
    g = random_graph(random.Random(6), 12, 0.6, -2, 2)
    read = []

    def recording(rng, nodes, round_no):
        u = draw(rng, nodes, round_no)
        read.append(dict(zip(nodes.tolist(), u.tolist())))
        return u

    draw = protocol.node_uniforms
    monkeypatch.setattr(protocol, "node_uniforms", recording)
    budget = PrivacyBudget(1.0, 1.0)
    rng = RandomSource(8)
    methods = [TwoStep(budget, EstimatorKind.BIASED, mechanism) for mechanism in Mechanism]
    run_methods(greedy_assign(g), 1, methods, rng)
    laplace, smooth = read
    both = laplace.keys() & smooth.keys()
    assert both and len(both) < g.node_count
    for v in both:
        assert laplace[v] == smooth[v] == rng.stream(v, STEP2_ROUND).random(), v


def test_per_node_sensitivity_matches_each_node(monkeypatch):
    # large enough that step 2 computes S_v in several chunks
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", SMALL_FLUSH_SIZE)
    rnd = random.Random(9)
    g = random_graph(rnd, 40, 0.6, -2, 4)
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    assert 2 * len(tris) > 2 * SMALL_FLUSH_SIZE
    budget = PrivacyBudget(1.0, 1.0)
    lam = 4
    for kind in EstimatorKind:
        for mechanism in Mechanism:
            rng = RandomSource(10)
            rep = run_two_step(g, lam, budget, kind, mechanism, rng,
                               triangles=tris, assignment=assignment)
            assert rep.per_node_sensitivity.shape == (g.node_count,)
            noisy = release_step1(g, budget.epsilon_1, rng)
            _, expected = reference_step2(g, assignment, noisy, lam, kind, mechanism, budget)
            got = [float(s).hex() for s in rep.per_node_sensitivity]
            assert got == [s.hex() for s in expected], (kind, mechanism)
            if mechanism is Mechanism.GLOBAL_LAPLACE:
                step = estimator_step_bound(kind, budget.p)
                segments = assignment.segments
                longest = np.zeros(g.node_count, dtype=np.int64)
                np.maximum.at(longest, segments.owner, segments.lengths)
                # GS_v / step is v's longest segment up to the quotient's rounding
                assert (np.rint(np.array(expected) / step) == longest).all(), kind
    baseline = run_baseline(g, lam, 1.0, RandomSource(10), triangles=tris)
    assert baseline.per_node_sensitivity.size == 0
    assert baseline.per_node_release.size == 0


def test_local_step2_matches_per_node_reference_bit_for_bit(monkeypatch):
    # negative weights, isolated and triangle-free nodes, thresholds on the
    # estimators' boundary cases, and one graph that spans several chunks
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", SMALL_FLUSH_SIZE)
    rnd = random.Random(31)
    budget = PrivacyBudget(0.8, 1.3)
    graphs = [random_graph(rnd, rnd.randint(6, 22), rnd.uniform(0.1, 0.8), -6, 6)
              for _ in range(6)]
    graphs.append(WeightedGraph(7, [(0, 1, -3), (1, 2, 4), (0, 2, 0), (4, 5, 1)]))
    graphs.append(random_graph(rnd, 46, 0.6, -4, 5))
    assert 2 * len(enumerate_triangles(graphs[-1])) > 2 * SMALL_FLUSH_SIZE
    seen_empty = 0
    for i, g in enumerate(graphs):
        assignment = greedy_assign(g)
        seen_empty += any(not len(assignment.triangles_of(v)) for v in range(g.node_count))
        noisy = release_step1(g, budget.epsilon_1, RandomSource(i))
        lam = rnd.randint(-4, 8)
        for kind in EstimatorKind:
            for mechanism in Mechanism:
                f, s = local_step2(assignment, g.weight_array, noisy, lam, kind, mechanism,
                                   budget)
                ref_f, ref_s = reference_step2(g, assignment, noisy, lam, kind, mechanism, budget)
                assert [float(x).hex() for x in f] == [x.hex() for x in ref_f], (i, kind, mechanism)
                assert [float(x).hex() for x in s] == [x.hex() for x in ref_s], (i, kind, mechanism)
    assert seen_empty > 0


def test_local_step2_is_the_reference_whatever_the_chunk_size(monkeypatch):
    # the smooth sensitivity cuts the segments into chunks of whole segments;
    # a node whose segments fall in several chunks must still get the maximum
    # over all of them, so the chunk size cannot move any value
    chunks = record_chunks(monkeypatch)
    g = random_graph(random.Random(32), 46, 0.6, -4, 5)
    assignment = greedy_assign(g)
    segments = assignment.segments
    budget = PrivacyBudget(0.9, 1.2)
    noisy = release_step1(g, budget.epsilon_1, RandomSource(5))
    lam = 3
    expected = {
        (kind, mechanism): reference_step2(g, assignment, noisy, lam, kind, mechanism, budget)
        for kind in EstimatorKind
        for mechanism in Mechanism
    }
    straddled = set()
    for flush in (1, SMALL_FLUSH_SIZE, SENSITIVITY_FLUSH_SIZE):
        monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", flush)
        for (kind, mechanism), (ref_f, ref_s) in expected.items():
            chunks.clear()
            f, s = local_step2(assignment, g.weight_array, noisy, lam, kind, mechanism, budget)
            assert [float(x).hex() for x in f] == [x.hex() for x in ref_f], (flush, kind, mechanism)
            assert [float(x).hex() for x in s] == [x.hex() for x in ref_s], (flush, kind, mechanism)
            if mechanism is Mechanism.GLOBAL_LAPLACE:
                assert chunks == []
                continue
            # each chunk closes at the first segment that brings its sums to
            # the constant, and the chunks cover every segment once, in order
            assert np.concatenate(chunks).tolist() == segments.lengths.tolist()
            for lengths in chunks[:-1]:
                assert lengths.sum() >= flush > lengths[:-1].sum()
            ends = np.cumsum([len(lengths) for lengths in chunks])[:-1]
            if (segments.owner[ends - 1] == segments.owner[ends]).any():
                straddled.add(flush)
    assert straddled == {1, SMALL_FLUSH_SIZE}


def test_local_step2_splits_segments_whose_keys_overflow_int64(monkeypatch):
    # one received noisy weight 2^58 above the rest widens its two segments
    # to ~2^58, so at most 31 segments fit one int64 key array and step 2's
    # one sensitivity call is cut into several chunks by that alone
    chunks = record_chunks(monkeypatch)
    g = random_graph(random.Random(6), 14, 0.6, -2, 2)
    assignment = greedy_assign(g)
    assert len(assignment.segments.lengths) > 31
    budget = PrivacyBudget(1.0, 1.0)
    noisy = release_step1(g, budget.epsilon_1, RandomSource(6)).copy()
    noisy[assignment.edge_ids[0, 2]] = 2**58
    for kind in EstimatorKind:
        chunks.clear()
        f, s = local_step2(assignment, g.weight_array, noisy, 3, kind, Mechanism.SMOOTH, budget)
        assert len(chunks) > 1
        ref_f, ref_s = reference_step2(g, assignment, noisy, 3, kind, Mechanism.SMOOTH, budget)
        assert [float(x).hex() for x in f] == [x.hex() for x in ref_f], kind
        assert [float(x).hex() for x in s] == [x.hex() for x in ref_s], kind
        assert np.count_nonzero(s) > g.node_count // 2, kind


def test_local_step2_reads_estimator_and_mechanism_by_name():
    # a name used to fail every ``is`` test in step 2: "biased" ran the
    # unbiased estimator and "global" the smooth sensitivity
    g = generate_synthetic(30, 0.5, seed=1)
    assignment = greedy_assign(g)
    budget = PrivacyBudget(1.0, 1.0)
    noisy = release_step1(g, budget.epsilon_1, RandomSource(1))

    def step2(kind, mechanism):
        f, s = local_step2(assignment, g.weight_array, noisy, 9, kind, mechanism, budget)
        return [float(x).hex() for x in f], [float(x).hex() for x in s]

    for kind in EstimatorKind:
        for mechanism in Mechanism:
            assert step2(kind.value, mechanism.value) == step2(kind, mechanism), (kind, mechanism)
    f, s = local_step2(assignment, g.weight_array, noisy, 9, "biased", "global", budget)
    assert (f.sum(), s.max()) == (105.0, 10.0)
    with pytest.raises(ValueError, match="not a valid EstimatorKind"):
        step2("bogus", Mechanism.SMOOTH)
    with pytest.raises(ValueError, match="not a valid Mechanism"):
        step2(EstimatorKind.BIASED, "laplace")


@pytest.mark.parametrize("mechanism", list(Mechanism))
@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_epsilon_2_whose_release_overflows_is_rejected(kind, mechanism):
    # the budget itself is valid, but scale * S_v overflows, so every
    # estimate used to come out NaN
    g = random_graph(random.Random(6), 12, 0.6, -2, 2)
    with pytest.raises(ValueError, match="epsilon_2"):
        run_two_step(g, 1, PrivacyBudget(1.0, 3e-308), kind, mechanism, RandomSource(1))


def test_tiny_epsilon_2_at_a_far_threshold_is_rejected_before_step_2_noise(monkeypatch):
    # below beta ~ 1.5e-19 a smooth-sensitivity walk's first step may span
    # the whole distance to lam = 2^62, past int64; epsilon_2 = 1e-10 runs
    g = generate_synthetic(12, 0.6, seed=1)
    for kind in EstimatorKind:
        rep = run_two_step(g, 2**62, PrivacyBudget(1.0, 1e-10), kind, Mechanism.SMOOTH,
                           RandomSource(1))
        assert math.isfinite(rep.estimate) and rep.exact_count == len(enumerate_triangles(g))
    monkeypatch.setattr(protocol, "node_uniforms", None)  # no step-2 noise may be drawn
    for kind in EstimatorKind:
        with pytest.raises(ValueError, match=r"epsilon_2 = 1e-18 .* lam = 4611686018427387904"):
            run_two_step(g, 2**62, PrivacyBudget(1.0, 1e-18), kind, Mechanism.SMOOTH,
                         RandomSource(1))


def test_threshold_outside_int64_range_is_rejected():
    g = random_graph(random.Random(12), 12, 0.6, 0, 4)
    budget = PrivacyBudget(1.0, 1.0)
    for lam in (10**30, -(10**30), 2**63, -(2**62) - 1):
        for kind in EstimatorKind:
            for mechanism in Mechanism:
                with pytest.raises(ValueError, match="int64"):
                    run_two_step(g, lam, budget, kind, mechanism, RandomSource(1))
        with pytest.raises(ValueError, match="int64"):
            run_baseline(g, lam, 2.0, RandomSource(1))
    # the ends of the range run: every triangle is below 2^62, none below -2^62
    exact = len(enumerate_triangles(g))
    for lam, count in ((2**62, exact), (-(2**62), 0)):
        for kind in EstimatorKind:
            for mechanism in Mechanism:
                rep = run_two_step(g, lam, budget, kind, mechanism, RandomSource(1))
                assert rep.exact_count == count and math.isfinite(rep.estimate)
        assert run_baseline(g, lam, 2.0, RandomSource(1)).estimate == count


def test_baseline_large_budget_identity_and_unreachable_threshold():
    g = complete_graph(4, weight=0)
    for seed in range(5):
        rep = run_baseline(g, 10**9, 2.0, RandomSource(seed))
        assert rep.estimate == 4.0
    exact = run_baseline(g, 1, 700.0, RandomSource(0))
    assert exact.estimate == float(exact.exact_count) == 4.0


def test_invalid_budget_is_configuration_error():
    g = complete_graph(4)
    rng = RandomSource(1)
    with pytest.raises(ValueError):
        run_two_step(g, 1, "not a budget", EstimatorKind.BIASED, Mechanism.SMOOTH, rng)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="strictly positive"):
        run_baseline(g, 1, -1.0, rng)
    for epsilon in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            run_baseline(g, 1, epsilon, rng)
    with pytest.raises(ValueError, match="underflow"):
        run_baseline(g, 1, 800.0, rng)
    with pytest.raises(ValueError, match="round to 1"):
        run_baseline(g, 1, 1e-17, rng)


def test_estimator_and_mechanism_are_checked_where_they_enter():
    # a name is the member it names, and anything else is rejected; a string
    # used to fail every ``is`` test and silently run the other branch
    g = random_graph(random.Random(13), 16, 0.6, -2, 4)
    budget = PrivacyBudget(1.0, 1.0)
    for kind in EstimatorKind:
        for mechanism in Mechanism:
            by_name = run_two_step(g, 5, budget, kind.value, mechanism.value, RandomSource(3))
            by_member = run_two_step(g, 5, budget, kind, mechanism, RandomSource(3))
            assert by_name.estimate.hex() == by_member.estimate.hex(), (kind, mechanism)
    assert TwoStep(budget, "unbiased", "global") == TwoStep(
        budget, EstimatorKind.UNBIASED, Mechanism.GLOBAL_LAPLACE
    )
    with pytest.raises(ValueError, match="not a valid EstimatorKind"):
        TwoStep(budget, "bogus", Mechanism.SMOOTH)
    with pytest.raises(ValueError, match="not a valid Mechanism"):
        TwoStep(budget, EstimatorKind.BIASED, "laplace")
    # no default mechanism: smooth noise is never picked silently
    with pytest.raises(TypeError):
        TwoStep(budget, EstimatorKind.BIASED)


def test_privacy_facing_signatures_have_no_private_parameters():
    # debug-only switches do not belong in privacy-facing signatures
    for fn in (run_two_step, run_baseline, release_step1, run_sweep):
        private = [name for name in inspect.signature(fn).parameters if name.startswith("_")]
        assert private == [], f"{fn.__name__} takes {private}"
    # no default seed, so two runs never share noise by accident
    for fn in (run_methods, run_two_step, run_baseline):
        assert inspect.signature(fn).parameters["rng"].default is inspect.Parameter.empty


def test_fractional_threshold_is_rejected():
    rnd = random.Random(12)
    g = random_graph(rnd, 12, 0.6, 0, 4)
    budget = PrivacyBudget(1.0, 1.0)
    for lam in (7.5, math.nan, math.inf, "7"):
        with pytest.raises(ValueError, match="integer threshold"):
            run_two_step(g, lam, budget, EstimatorKind.UNBIASED, Mechanism.SMOOTH, RandomSource(1))
        with pytest.raises(ValueError, match="integer threshold"):
            run_baseline(g, lam, 2.0, RandomSource(1))
    # an integral float is the same threshold
    as_float = run_two_step(g, 7.0, budget, EstimatorKind.UNBIASED, Mechanism.SMOOTH, RandomSource(1))
    as_int = run_two_step(g, 7, budget, EstimatorKind.UNBIASED, Mechanism.SMOOTH, RandomSource(1))
    assert as_float.estimate == as_int.estimate and as_float.lam == 7


def test_biased_mean_matches_closed_form_expectation():
    g = complete_graph(9, weight=1)  # all triangle weights 3
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    lam = 4
    budget = PrivacyBudget(1.0, 1.0)
    weights = triangle_weights(g, g.weight_array, tris).tolist()
    predicted = sum(expected_biased(w, lam, budget.p) for w in weights)
    estimates = []
    for s in range(200):
        rep = run_two_step(g, lam, budget, EstimatorKind.BIASED, Mechanism.GLOBAL_LAPLACE,
                           RandomSource(3000 + s), triangles=tris, assignment=assignment)
        estimates.append(rep.estimate)
    mean = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(mean - predicted) <= 3 * se


def test_baseline_worse_than_smooth_unbiased_on_dense_graph():
    # paired-seed comparison at eps = 2 on a threshold-heavy dense graph:
    # 200 runs of each method, medians compared
    from lwdp_triangles.experiments import generate_synthetic

    g = generate_synthetic(45, 0.6, seed=12,
                           weight_values=[0, 3, 40], weight_probs=[0.40, 0.57, 0.03])
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    lam = 7
    exact = exact_below_threshold_count(g, lam, tris)
    assert exact > 0
    budget = PrivacyBudget.even_split(2.0)
    smooth_err, base_err = [], []
    for s in range(200):
        rng = RandomSource(100 + s)
        rep = run_two_step(g, lam, budget, EstimatorKind.UNBIASED, Mechanism.SMOOTH, rng,
                           triangles=tris, assignment=assignment)
        base = run_baseline(g, lam, 2.0, rng, triangles=tris)
        smooth_err.append(abs(exact - rep.estimate) / exact)
        base_err.append(abs(exact - base.estimate) / exact)
    assert statistics.median(smooth_err) < statistics.median(base_err)


def _report_fields(rep):
    return (
        rep.estimate.hex(),
        rep.exact_count,
        rep.lam,
        [x.hex() for x in rep.per_node_release.tolist()],
        [float(s).hex() for s in rep.per_node_sensitivity],
        rep.tallies,
        rep.budget_ledger,
    )


def test_run_methods_matches_the_one_method_wrappers():
    # one shared assignment and one step-1 release per epsilon_1 give the
    # same reports as a separate run per method on the same random source
    rnd = random.Random(44)
    for i in range(3):
        g = random_graph(rnd, rnd.randint(10, 30), rnd.uniform(0.3, 0.7), -3, 5)
        assignment = greedy_assign(g)
        methods = [method_named(m, 2.0) for m in METHODS]
        for seed in range(2):
            rng = RandomSource(seed).subsource(i)
            reports = run_methods(assignment, 4, methods, rng)
            assert len(reports) == len(methods)
            for method, rep in zip(methods, reports):
                if isinstance(method, Baseline):
                    alone = run_baseline(g, 4, method.epsilon, rng)
                else:
                    alone = run_two_step(g, 4, method.budget, method.kind, method.mechanism, rng)
                assert _report_fields(rep) == _report_fields(alone), (i, seed, method)


def test_run_methods_reads_every_edge_id_from_the_instance(monkeypatch):
    # ...and builds the step-2 segments once per assignment, read-only
    g = random_graph(random.Random(45), 20, 0.5, -2, 4)
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)

    def refuse(self, u, v):
        raise AssertionError("a run looked up edge ids")

    built = []

    class CountedSegments(assignment_module.Segments):
        def __init__(self, a):
            built.append(a)
            super().__init__(a)

    monkeypatch.setattr(WeightedGraph, "edge_ids", refuse)
    monkeypatch.setattr(assignment_module, "Segments", CountedSegments)
    methods = [method_named(m, 1.0) for m in METHODS]
    reports = run_methods(assignment, 5, methods, RandomSource(3))
    assert [rep.exact_count for rep in reports] == [assignment.exact_count(5)] * len(METHODS)
    segments = assignment.segments
    for method in methods[1:]:
        run_two_step(g, 5, method.budget, method.kind, method.mechanism, RandomSource(3),
                     triangles=tris, assignment=assignment)
    run_methods(assignment, 6, methods, RandomSource(4))
    assert built == [assignment] and assignment.segments is segments
    for array in vars(segments).values():
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = 0


def test_assignment_holds_every_rows_edge_ids_and_counts_true_weights():
    g = random_graph(random.Random(46), 16, 0.5, -3, 3)
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    owner, y, z = assignment.rows.T
    expected = np.column_stack((g.edge_ids(owner, y), g.edge_ids(owner, z), g.edge_ids(y, z)))
    assert assignment.edge_ids.dtype == np.int32
    assert assignment.edge_ids.tolist() == expected.tolist()
    with pytest.raises(ValueError):
        assignment.edge_ids[0] = 0
    # the baseline's assignment gives every row to its first node
    first = Assignment(g, tris)
    assert first.rows.tolist() == tris.tolist()
    assert first.edge_ids.tolist() == triangle_edge_ids(g, tris).tolist()
    for lam in (-2, 1, 5, 9):
        expected = exact_below_threshold_count(g, lam, tris)
        assert assignment.exact_count(lam) == first.exact_count(lam) == expected


def test_run_two_step_rejects_an_assignment_built_on_another_graph():
    g = random_graph(random.Random(47), 14, 0.6, -2, 2)
    # the same edges with other weights
    other = WeightedGraph(g.node_count, [(u, v, w + 1) for (u, v), w in g.edge_weights().items()])
    budget = PrivacyBudget(1.0, 1.0)
    args = (g, 3, budget, EstimatorKind.BIASED, Mechanism.SMOOTH)
    with pytest.raises(ValueError, match="another graph"):
        run_two_step(*args, RandomSource(1), assignment=greedy_assign(other))
    # an equal graph built again is accepted
    same = WeightedGraph(g.node_count, [(u, v, w) for (u, v), w in g.edge_weights().items()])
    rep = run_two_step(*args, RandomSource(1), assignment=greedy_assign(same))
    assert rep.estimate == run_two_step(*args, RandomSource(1)).estimate


def test_release_step1_is_read_only():
    noisy = release_step1(complete_graph(4), 1.0, RandomSource(0))
    with pytest.raises(ValueError):
        noisy[0] = 0
