import math
import random
import re
import time

import numpy as np
import pytest

from lwdp_triangles import WeightedGraph, enumerate_triangles
from lwdp_triangles.assignment import (
    Assignment,
    InstanceTooLargeError,
    greedy_assign,
)
from lwdp_triangles.cli import main
from lwdp_triangles.estimators import EstimatorKind, unbiased_correction
from lwdp_triangles.experiments import generate_synthetic, write_edge_list
from lwdp_triangles.graph import canonical_edge
from lwdp_triangles.mechanisms import PrivacyBudget, RandomSource
from lwdp_triangles.protocol import Mechanism, local_step2, release_step1
from lwdp_triangles import sensitivity
from lwdp_triangles.sensitivity import segment_smooth_sensitivities, smooth_sensitivity_bruteforce

from conftest import (
    complete_graph,
    gathered_arguments,
    instance_from_node_data,
    kernel_value,
    node_arguments,
    oracle_value,
    random_graph,
    random_local_instance,
    record_chunks,
    record_count_paths,
    reference_segment_maxima,
)

PS = (math.exp(-0.5), math.exp(-1.0), math.exp(-2.0))


def star_of_triangles(k):
    """Node 0 with k triangles all through the incident edge (0, 1)."""
    edges = [(0, 1, 0)]
    for leaf in range(2, k + 2):
        edges.append((0, leaf, 0))
        edges.append((1, leaf, 0))
    g = WeightedGraph(k + 2, edges)
    tris = enumerate_triangles(g)
    # the rows (0, y, z) force every triangle onto node 0 (noisy edge (y, z))
    a = Assignment(g, tris)
    return g, a


def single_triangle_instance(kind, lam, w1, w2, w_prime, beta, p=None):
    edges = ((lam - 1 - w1, [w2 + w_prime]), (lam - 1 - w2, [w1 + w_prime]))
    return node_arguments(edges, kind, beta, p)


def segments_of(args):
    """Each segment of one node's ``args`` as (anchor, its sums in order), the
    form ``node_arguments`` takes."""
    ends = np.cumsum(args.lengths).tolist()
    pieces = zip(ends, args.lengths.tolist(), args.anchors.tolist())
    return [(anchor, args.sums[end - k:end].tolist()) for end, k, anchor in pieces]


# -- global sensitivity -------------------------------------------------------


def step2_global_sensitivity(assignment, kind, p):
    """Every node's GS_v as the protocol's step 2 computes it under Laplace noise."""
    g = assignment.graph
    budget = PrivacyBudget(-math.log(p), 1.0)
    mechanism = Mechanism.GLOBAL_LAPLACE
    return local_step2(assignment, g.weight_array, g.weight_array, 0, kind, mechanism, budget)[1]


def test_global_sensitivity_shared_edge():
    _, a = star_of_triangles(5)
    assert step2_global_sensitivity(a, EstimatorKind.BIASED, 0.5)[0] == 5.0
    assert step2_global_sensitivity(a, EstimatorKind.UNBIASED, 0.5)[0] == pytest.approx(25.0)


def test_global_sensitivity_empty():
    _, a = star_of_triangles(3)
    assert step2_global_sensitivity(a, EstimatorKind.BIASED, 0.5)[2] == 0.0


# -- smooth sensitivity: worked examples --------------------------------------


def test_biased_single_triangle_at_boundary():
    inst = single_triangle_instance(EstimatorKind.BIASED, lam=5, w1=1, w2=1, w_prime=2, beta=0.5)
    assert kernel_value(inst) == pytest.approx(1.0)
    assert oracle_value(inst) == pytest.approx(1.0)


def test_biased_single_triangle_above_threshold():
    beta = 0.3
    inst = single_triangle_instance(EstimatorKind.BIASED, lam=5, w1=1, w2=2, w_prime=7, beta=beta)
    assert kernel_value(inst) == pytest.approx(math.exp(-5 * beta), rel=1e-12)
    assert oracle_value(inst) == pytest.approx(math.exp(-5 * beta), rel=1e-12)


def test_biased_two_triangles_meeting_target():
    lam, w0 = 5, 0
    inst = node_arguments([(lam - 1 - w0, [lam - 1 - w0] * 2)], EstimatorKind.BIASED, 0.5)
    assert kernel_value(inst) == pytest.approx(2.0)
    assert oracle_value(inst) == pytest.approx(2.0)


def test_unbiased_single_triangle_on_threshold():
    p = 0.5
    x = unbiased_correction(p)
    inst = single_triangle_instance(
        EstimatorKind.UNBIASED, lam=5, w1=2, w2=1, w_prime=2, beta=0.4, p=p
    )  # effective triangle weight = lam
    assert kernel_value(inst) == pytest.approx(1 + 2 * x)
    assert oracle_value(inst) == pytest.approx(1 + 2 * x)


def test_unbiased_single_triangle_below_threshold():
    p = math.exp(-1.0)
    x = unbiased_correction(p)
    inst = single_triangle_instance(
        EstimatorKind.UNBIASED, lam=5, w1=2, w2=1, w_prime=1, beta=0.4, p=p
    )  # effective triangle weight = lam - 1
    # the +1 step flips h across the threshold: |y| = 1 + 2x at z = 0
    assert kernel_value(inst) == pytest.approx(1 + 2 * x)
    assert oracle_value(inst) == pytest.approx(1 + 2 * x)


def test_empty_instance_is_zero():
    inst = node_arguments((), EstimatorKind.UNBIASED, 0.5, 0.5)
    assert kernel_value(inst) == 0.0
    assert oracle_value(inst) == 0.0


def test_kind_dispatch_guards():
    # the same views give the estimator's own value under each kind
    biased = single_triangle_instance(EstimatorKind.BIASED, 5, 1, 1, 2, 0.5)
    unbiased = biased._replace(kind=EstimatorKind.UNBIASED, p=0.5)
    assert kernel_value(biased) == pytest.approx(1.0)
    assert kernel_value(unbiased) == pytest.approx(oracle_value(unbiased))
    assert kernel_value(unbiased) > kernel_value(biased)


def test_bruteforce_size_cap(monkeypatch):
    # degree is not capped: 13 edges of 13 sums each are scored
    edges = [(-1, list(range(13)))] * 13
    for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, 0.5)):
        inst = node_arguments(edges, kind, 0.5, p)
        work = sensitivity._brute_work(inst.sums, inst.lengths, inst.anchors, kind)
        # per edge, windows of 18 and 17 targets (theta = -1 and 0) times
        # 14 shift counts, or 14^2
        assert work == 13 * 35 * (14 if p is None else 14**2)
        assert oracle_value(inst) == kernel_value(inst)
        # refused exactly past the bound
        monkeypatch.setattr(sensitivity, "_BRUTE_WORK_LIMIT", work - 1)
        with pytest.raises(InstanceTooLargeError, match="target and shift-count pairs"):
            oracle_value(inst)
        monkeypatch.undo()
    # two sums far apart put a single edge past the bound, whatever its degree
    limit = sensitivity._BRUTE_WORK_LIMIT
    inst = node_arguments([(-1, [0, limit])], EstimatorKind.BIASED, 0.5)
    with pytest.raises(InstanceTooLargeError, match="target and shift-count pairs"):
        oracle_value(inst)


def test_oracle_target_window_holds_the_best_target():
    # the oracle scans the targets within 2 of the values and theta; a scan
    # 80 wider finds nothing better, bit for bit, at every beta down to 0.02
    rnd = random.Random(1005)
    betas = (0.02, 0.05, 0.1, 0.5, 1.0, 3.0)
    for i in range(300):
        kind = EstimatorKind.BIASED if i % 2 else EstimatorKind.UNBIASED
        p = None if kind is EstimatorKind.BIASED else PS[i % 3]
        inst = random_local_instance(rnd, kind, p=p, betas=betas)
        x = 0.0 if p is None else unbiased_correction(p)
        for anchor, c in segments_of(inst):
            c = sorted(c)
            for theta in (anchor, anchor + 1):
                if kind is EstimatorKind.BIASED:
                    value = lambda t: sensitivity._brute_biased_value(c, t, theta, inst.beta)
                else:
                    value = lambda t: sensitivity._brute_unbiased_value(c, t, theta, x, inst.beta)
                lo, hi = min(c[0], theta), max(c[-1], theta)
                wide = max(0.0, *map(value, range(lo - 80, hi + 81)))
                assert sensitivity._brute_anchor(c, theta, value) == wide, (inst, theta)


# -- oracle agreement and structural properties --------------------------------


def _assert_matches_oracle(instances):
    for inst in instances:
        fast = kernel_value(inst)
        oracle = oracle_value(inst)
        assert math.isclose(fast, oracle, rel_tol=1e-12, abs_tol=1e-12), inst


def test_fast_matches_oracle_biased_sweep():
    rnd = random.Random(1001)
    _assert_matches_oracle(
        [random_local_instance(rnd, EstimatorKind.BIASED) for _ in range(150)]
    )


def test_fast_matches_oracle_unbiased_sweep():
    rnd = random.Random(1002)
    _assert_matches_oracle(
        [random_local_instance(rnd, EstimatorKind.UNBIASED, p=PS[i % 3]) for i in range(150)]
    )


# the benchmark's weight distribution (perfbench/bench.py)
BENCH_WEIGHTS = {"weight_values": (0, 1, 2, 3, 8), "weight_probs": (0.55, 0.2, 0.12, 0.08, 0.05)}


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_kernel_matches_oracle_on_every_node_of_a_dense_graph(kind):
    # n = 60, p = 0.5 with the benchmark's weights and threshold: node degrees
    # and segment lengths past 12, where ties, walks and the per-call (on, adj)
    # table all meet.  One oracle call over every node's segments, shuffled,
    # equals the kernel's values, which are step 2's bit for bit; an owner
    # without segments (node 60) reads 0 in both.
    g = generate_synthetic(60, 0.5, seed=5, **BENCH_WEIGHTS)
    a = greedy_assign(g)
    budget = PrivacyBudget.even_split(2.0)
    noisy = release_step1(g, budget.epsilon_1, RandomSource(5).subsource(0, 0))
    sens = local_step2(a, g.weight_array, noisy, 9, kind, Mechanism.SMOOTH, budget)[1]
    lengths, incident, sums = a.segments.gather(slice(0, len(a.rows)), g.weight_array, noisy)
    segments = (sums, lengths, 9 - 1 - incident, a.segments.owner)
    order = random.Random(5).sample(range(len(lengths)), len(lengths))
    shuffled = _take(segments, order) + (61, kind, budget.beta, budget.p)
    kernel = segment_smooth_sensitivities(*shuffled)
    oracle = smooth_sensitivity_bruteforce(*shuffled)
    assert _hexes(kernel[:60]) == _hexes(sens)
    for v in range(61):
        assert math.isclose(kernel[v], oracle[v], rel_tol=1e-12, abs_tol=1e-12), v
    assert kernel[60] == oracle[60] == 0.0
    assert lengths.max() > 12 and np.bincount(a.segments.owner).max() > 12


def test_smooth_dominates_local_sensitivity_and_respects_global_cap():
    rnd = random.Random(1003)
    for i in range(120):
        kind = EstimatorKind.BIASED if i % 2 else EstimatorKind.UNBIASED
        p = None if kind is EstimatorKind.BIASED else PS[i % 3]
        inst = random_local_instance(rnd, kind, p=p)
        fast = kernel_value(inst)
        # at beta = 50 every term at distance z >= 1 is below e^{-50}: the
        # local sensitivity
        assert fast >= kernel_value(inst._replace(beta=50.0)) - 1e-12
        step = 1.0 if kind is EstimatorKind.BIASED else 1.0 + 2.0 * unbiased_correction(p)
        cap = step * int(inst.lengths.max(initial=0))
        assert fast <= cap + 1e-9


def test_beta_monotonicity():
    rnd = random.Random(1004)
    for i in range(40):
        kind = EstimatorKind.BIASED if i % 2 else EstimatorKind.UNBIASED
        p = None if kind is EstimatorKind.BIASED else 0.5
        base = random_local_instance(rnd, kind, p=p, betas=(0.1,))
        prev = math.inf
        for beta in (0.1, 0.3, 0.8, 1.5):
            val = kernel_value(base._replace(beta=beta))
            assert val <= prev + 1e-12
            prev = val


def test_local_sensitivity_matches_raw_estimator_differences():
    # ties the c_j / anchor reformulation back to max_{w ~ w'} |f'_v(w) - f'_v(w')|
    # computed directly from the estimator sums on real graphs: the smooth
    # sensitivity dominates it, and at beta = 50 equals it
    from lwdp_triangles.estimators import estimate

    def raw_local_count(graph, assigned, node, weights, noisy, lam, kind, p):
        total = 0.0
        for _, y, z in assigned.tolist():
            s = (
                weights[canonical_edge(node, y)]
                + weights[canonical_edge(node, z)]
                + noisy[canonical_edge(y, z)]
            )
            total += estimate(kind, s, lam, p)
        return total

    rnd = random.Random(42)
    for trial in range(25):
        g = random_graph(rnd, rnd.randint(5, 11), 0.6, -4, 4)
        assignment = greedy_assign(g)
        release = release_step1(g, 1.0, RandomSource(trial))
        noisy = dict(zip(g.edges(), release.tolist()))
        lam = rnd.randint(-3, 6)
        for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, math.exp(-1))):
            for v in range(g.node_count):
                inst = gathered_arguments(assignment, release, v, lam, 0.5, kind, p=p)
                base_w = {
                    canonical_edge(v, u): g.weight(v, u) for u in g.neighbors(v)
                }
                assigned = assignment.triangles_of(v)
                p_eff = 0.0 if p is None else p
                f0 = raw_local_count(g, assigned, v, base_w, noisy, lam, kind, p_eff)
                worst = 0.0
                for edge in base_w:
                    for sign in (1, -1):
                        bumped = dict(base_w)
                        bumped[edge] += sign
                        f1 = raw_local_count(
                            g, assigned, v, bumped, noisy, lam, kind, p_eff
                        )
                        worst = max(worst, abs(f1 - f0))
                assert kernel_value(inst) >= worst - 1e-12
                local = kernel_value(inst._replace(beta=50.0))
                assert local == pytest.approx(worst, abs=1e-9)


def _l1_ball(d, radius):
    # every integer vector of length d with l1 norm <= radius, in order of
    # norm; and for the rows of norm < radius, the rows of their 2d neighbours
    ball = np.zeros((1, 0), dtype=np.int64)
    for _ in range(d):
        room = radius - np.abs(ball).sum(axis=1)
        sizes = 2 * room + 1
        ends = np.cumsum(sizes)
        last = np.arange(ends[-1]) - np.repeat(ends - sizes + room, sizes)
        ball = np.column_stack((np.repeat(ball, sizes, axis=0), last))
    norms = np.abs(ball).sum(axis=1)
    order = np.argsort(norms, kind="stable")
    ball, norms = ball[order], norms[order]
    place = (2 * radius + 3) ** np.arange(d)
    keys = (ball + radius + 1) @ place
    by_key = np.argsort(keys)
    inner = int(np.searchsorted(norms, radius))
    steps = np.concatenate((place, -place))
    neighbours = by_key[np.searchsorted(keys[by_key], keys[:inner, None] + steps)]
    return ball, norms[:inner], neighbours


def test_smooth_sensitivity_meets_its_definition_on_every_small_node():
    """S_v is the beta-smooth sensitivity of Nissim, Raskhodnikova and Smith
    ("Smooth Sensitivity and Sampling in Private Data Analysis", STOC 2007):
    max over k of e^{-beta k} times the largest local sensitivity of f'_v at
    l1 distance at most k from v's incident weights.  Here f'_v is summed from
    ``estimate`` over v's assigned triangles for every incident-weight vector
    within distance K + 1, with no partial sums, targets or shifts.  Every
    local sensitivity is at most GS_v, so the distances past K add at most
    GS_v e^{-beta (K + 1)}, which K keeps below 1e-3."""
    from lwdp_triangles.estimators import estimate, estimator_step_bound

    rnd = random.Random(26)
    betas, tail_cap = (0.4, 0.7, 1.0), 1e-3
    checked = positive = widest = 0
    for trial in range(10):
        g = random_graph(rnd, 9, 0.5, -2, 2)
        assignment = greedy_assign(g)
        release = release_step1(g, 1.0, RandomSource(trial))
        noisy = dict(zip(g.edges(), release.tolist()))
        lam = rnd.randint(-3, 4)
        for kind in EstimatorKind:
            budgets = [PrivacyBudget(1.0, 6.0 * beta) for beta in betas]
            sens = [
                local_step2(assignment, g.weight_array, release, lam, kind, Mechanism.SMOOTH, b)[1]
                for b in budgets
            ]
            p = budgets[0].p
            for v in range(g.node_count):
                if len(g.neighbors(v)) > 4:
                    continue
                rows = assignment.triangles_of(v).tolist()
                # only the incident edges of v's assigned triangles enter f'_v
                axis = {u: i for i, u in enumerate(sorted({u for row in rows for u in row[1:]}))}
                if not rows:
                    assert all(s[v] == 0.0 for s in sens)
                    continue
                longest = max(sum(u in row for row in rows) for u in axis)
                widest = max(widest, len(axis))
                gs = estimator_step_bound(kind, p) * longest
                radius = math.floor(math.log(gs / tail_cap) / min(betas)) + 1  # K + 1
                ball, norms, neighbours = _l1_ball(len(axis), radius)
                f = np.zeros(len(ball))
                for _, y, z in rows:
                    m = g.weight(v, y) + g.weight(v, z) + noisy[canonical_edge(y, z)]
                    table = np.array([
                        estimate(kind, m + shift, lam, p)
                        for shift in range(-2 * radius, 2 * radius + 1)
                    ])
                    f += table[ball[:, axis[y]] + ball[:, axis[z]] + 2 * radius]
                local = np.abs(f[neighbours] - f[:len(neighbours), None]).max(axis=1)
                # A(k): the largest local sensitivity at distance <= k, k = 0..K
                within = np.maximum.accumulate(local)
                at_most = within[np.searchsorted(norms, np.arange(radius), side="right") - 1]
                assert at_most[-1] <= gs + 1e-9
                for beta, s in zip((b.beta for b in budgets), sens):
                    defined = max(math.exp(-beta * k) * a for k, a in enumerate(at_most.tolist()))
                    tail = gs * math.exp(-beta * radius)
                    assert tail < tail_cap
                    assert defined - 1e-9 <= s[v] <= defined + tail + 1e-9, (trial, kind, v, beta)
                    checked += 1
                    positive += s[v] > 0.0
    assert checked > 100 and positive > checked // 2 and widest == 4


def test_fast_matches_oracle_adversarial_parameters():
    # clustered values, extreme smoothing, and extreme correction factors
    rnd = random.Random(5150)
    instances = []
    for i in range(200):
        beta = rnd.choice((0.01, 0.05, 0.5, 2.5, 5.0))
        if i % 2:
            p = rnd.choice((0.05, 0.5, 0.9))
            inst = random_local_instance(
                rnd, EstimatorKind.UNBIASED, p=p, weight_span=rnd.choice((0, 1, 10)),
                betas=(beta,),
            )
        else:
            inst = random_local_instance(
                rnd, EstimatorKind.BIASED, weight_span=rnd.choice((0, 1, 10)),
                betas=(beta,),
            )
        instances.append(inst)
    _assert_matches_oracle(instances)


def _mixed_instances(rnd, count):
    # both estimators, several beta and p
    out = []
    for i in range(count):
        beta = rnd.choice((0.05, 0.5, 2.5))
        if i % 2:
            out.append(random_local_instance(rnd, EstimatorKind.UNBIASED, p=PS[i % 3],
                                             betas=(beta,)))
        else:
            out.append(random_local_instance(rnd, EstimatorKind.BIASED, betas=(beta,)))
    return out


def _hexes(values):
    return [float(v).hex() for v in values]


# the kernel's parameters: both estimators, several beta and p
KERNEL_PARAMETERS = (
    (EstimatorKind.BIASED, 0.05, None),
    (EstimatorKind.BIASED, 0.5, None),
    (EstimatorKind.UNBIASED, 0.5, PS[0]),
    (EstimatorKind.UNBIASED, 2.5, PS[2]),
)


def _random_segments(rnd, owners):
    """Segment arrays (sums, lengths, anchors, owners) as step 2 hands them to
    ``segment_smooth_sensitivities``: up to six segments per owner, some
    owners with none, in owner order."""
    sums, lengths, anchors, owner = [], [], [], []
    for v in range(owners):
        for _ in range(rnd.randint(0, 6)):
            k = rnd.randint(1, 12)
            sums += [rnd.randint(-20, 20) for _ in range(k)]
            lengths.append(k)
            anchors.append(rnd.randint(-15, 15))
            owner.append(v)
    return tuple(np.array(a, dtype=np.int64) for a in (sums, lengths, anchors, owner))


def _take(segments, picked):
    """The segments at indices ``picked``, in that order."""
    sums, lengths, anchors, owner = segments
    picked = np.asarray(picked, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    flat = [sums[starts[i]:starts[i] + lengths[i]] for i in picked]
    flat = np.concatenate(flat) if flat else np.empty(0, dtype=np.int64)
    return flat, lengths[picked], anchors[picked], owner[picked]


def _kernel_hexes(segments, count, kind, beta, p):
    """The kernel's values of ``count`` owners: each owner's largest segment
    score, 0 without segments."""
    values = segment_smooth_sensitivities(*segments, count, kind, beta, p)
    assert values.shape == (count,)
    return _hexes(values)


def test_segment_kernel_scores_each_owner_as_if_alone(monkeypatch):
    # small chunks, so that owners' segments straddle chunk boundaries
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", 24)
    chunks = record_chunks(monkeypatch)
    rnd = random.Random(7001)
    segments = _random_segments(rnd, 60)
    owner = segments[3]
    for kind, beta, p in KERNEL_PARAMETERS:
        chunks.clear()
        values = _kernel_hexes(segments, 60, kind, beta, p)
        ends = np.cumsum([len(lengths) for lengths in chunks])[:-1]
        assert (owner[ends - 1] == owner[ends]).any()
        alone = []
        for v in range(60):
            mine = _take(segments, np.flatnonzero(owner == v))
            alone += _kernel_hexes(mine[:3] + (np.zeros_like(mine[3]),), 1, kind, beta, p)
        assert values == alone, (kind, beta)
        assert alone.count((0.0).hex()) < 60
    empty = (np.empty(0, dtype=np.int64),) * 4
    assert _kernel_hexes(empty, 3, EstimatorKind.BIASED, 0.5, None) == [(0.0).hex()] * 3
    assert segment_smooth_sensitivities(*empty, 0, EstimatorKind.BIASED, 0.5, None).shape == (0,)


def test_segment_kernel_owner_value_ignores_other_owners(monkeypatch):
    # the step-2 information-flow contract at the sensitivity layer: a node's
    # value depends on its own segments only, wherever they sit in the call
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", 24)
    rnd = random.Random(7002)
    segments = _random_segments(rnd, 60)
    owner = segments[3]
    kept = rnd.sample(range(60), 20)
    mine = np.isin(owner, kept)
    others = _random_segments(rnd, 60)
    for kind, beta, p in KERNEL_PARAMETERS:
        base = _kernel_hexes(segments, 60, kind, beta, p)
        order = rnd.sample(range(len(owner)), len(owner))
        assert _kernel_hexes(_take(segments, order), 60, kind, beta, p) == base
        own = _take(segments, np.flatnonzero(mine))
        dropped = _kernel_hexes(own, 60, kind, beta, p)
        assert [dropped[v] for v in kept] == [base[v] for v in kept]
        # every other owner's segments swapped for fresh ones, interleaved
        swapped = _take(others, np.flatnonzero(~np.isin(others[3], kept)))
        joined = tuple(np.concatenate(pair) for pair in zip(own, swapped))
        order = np.argsort(joined[3], kind="stable")
        replaced = _kernel_hexes(_take(joined, order), 60, kind, beta, p)
        assert [replaced[v] for v in kept] == [base[v] for v in kept]


def _wide_segments(rnd, owners, span):
    """Like ``_random_segments``, with sums drawn from a window of ``span``
    integers, so wide spans leave nearly every sum distinct, and each anchor
    next to one of its segment's sums."""
    sums, lengths, anchors, owner = [], [], [], []
    for v in range(owners):
        for _ in range(rnd.randint(0, 6)):
            segment = [rnd.randint(0, span - 1) for _ in range(rnd.randint(1, 35))]
            sums += segment
            lengths.append(len(segment))
            anchors.append(rnd.choice(segment) + rnd.randint(-3, 3))
            owner.append(v)
    return tuple(np.array(a, dtype=np.int64) for a in (sums, lengths, anchors, owner))


# beyond KERNEL_PARAMETERS: a long acceptance table (beta = 0.01) and a
# subnormal beta, whose walks take every value
WIDE_PARAMETERS = KERNEL_PARAMETERS + tuple(
    (kind, beta, p)
    for beta in (0.01, 5e-324)
    for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, PS[1]))
)


@pytest.mark.parametrize("flush", [24, sensitivity.SENSITIVITY_FLUSH_SIZE])
def test_segment_kernel_equals_the_per_value_reference(monkeypatch, flush):
    # every value bit for bit, at spans from 3 to 10^6 and, with small
    # chunks, with owners' segments straddling chunk boundaries
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", flush)
    rnd = random.Random(7005)
    kernel = sensitivity._segment_maxima
    for span in (3, 30, 1000, 10**6):
        segments = _wide_segments(rnd, 25, span)
        for kind, beta, p in WIDE_PARAMETERS:
            values = _kernel_hexes(segments, 25, kind, beta, p)
            monkeypatch.setattr(sensitivity, "_segment_maxima", reference_segment_maxima)
            assert _kernel_hexes(segments, 25, kind, beta, p) == values, (span, kind, beta)
            monkeypatch.setattr(sensitivity, "_segment_maxima", kernel)
            assert values.count((0.0).hex()) < 25


@pytest.mark.parametrize("flush", [24, sensitivity.SENSITIVITY_FLUSH_SIZE])
def test_count_table_and_direct_scores_give_the_same_values(monkeypatch, flush):
    # Where the (on, adj) grid has no more cells than the call has sums, each
    # target gathers its candidate and walk bound from a per-call table; one
    # long segment of an extra owner makes the grid too large, so every target
    # is scored itself.  An owner's value reads its own segments only, so every
    # other owner keeps its value bit for bit, and both equal the reference.
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", flush)
    tabled = []
    init = sensitivity._CountScores.__init__

    def recording(counts, *args):
        init(counts, *args)
        tabled.append(counts.grid is not None)

    monkeypatch.setattr(sensitivity._CountScores, "__init__", recording)
    kernel = sensitivity._segment_maxima
    rnd = random.Random(7007)
    for span in (3, 1000, 10**6):
        segments = _wide_segments(rnd, 30, span)
        sums, lengths, anchors, owner = segments
        long = [rnd.randint(0, span - 1) for _ in range(math.isqrt(len(sums)) + 1)]
        extended = (
            np.append(sums, long), np.append(lengths, len(long)),
            np.append(anchors, long[0]), np.append(owner, 30),
        )
        for kind, beta, p in WIDE_PARAMETERS:
            tabled.clear()
            values = _kernel_hexes(segments, 30, kind, beta, p)
            alongside = _kernel_hexes(extended, 31, kind, beta, p)
            # the biased table has one cell per count on the target
            assert tabled == [True, kind is EstimatorKind.BIASED], (span, kind)
            assert alongside[:30] == values, (span, kind, beta)
            monkeypatch.setattr(sensitivity, "_segment_maxima", reference_segment_maxima)
            assert _kernel_hexes(extended, 31, kind, beta, p) == alongside, (span, kind, beta)
            monkeypatch.setattr(sensitivity, "_segment_maxima", kernel)
            assert values.count((0.0).hex()) < 30


def _path_bound_segment(width):
    """One segment of 5 sums spanning ``width``: the kernel's span is width + 5
    cells, 4 per sum at width 15.  At beta = 0.05 its biased value comes
    from the initial target anchor + 1 = 3, which no key is on or next to;
    other targets tie it only up to the last bit."""
    sums = [0, width, 11, 5, 8]
    return tuple(np.array(a, dtype=np.int64) for a in (sums, [5], [2], [0]))


@pytest.mark.parametrize("flush", [24, sensitivity.SENSITIVITY_FLUSH_SIZE])
def test_histogram_and_sorted_counts_equal_the_per_value_reference(monkeypatch, flush):
    # A chunk with at most 4 cells (segments times span) per partial sum
    # takes its targets and counts from a histogram of its keys, a wider one
    # from its sorted keys.  The inputs pick the path: narrow spans and a
    # segment at the bound take the histogram, wide spans and a segment one
    # cell wider the sorted keys (at span 30 a small chunk of short segments
    # may too).  Every value equals the reference bit for bit.
    monkeypatch.setattr(sensitivity, "SENSITIVITY_FLUSH_SIZE", flush)
    paths = record_count_paths(monkeypatch)
    kernel = sensitivity._segment_maxima
    rnd = random.Random(7008)
    # the paths each input may take, True for the histogram
    by_span = {3: {True}, 30: {True, False}, 1000: {False}, 10**6: {False}}
    cases = [(_wide_segments(rnd, 25, span), 25, by_span[span]) for span in by_span]
    cases += [(_path_bound_segment(15), 1, {True}), (_path_bound_segment(16), 1, {False})]
    for segments, count, expected in cases:
        for kind, beta, p in WIDE_PARAMETERS:
            paths.clear()
            values = _kernel_hexes(segments, count, kind, beta, p)
            assert set(paths) <= expected and (True in paths) == (True in expected), paths
            monkeypatch.setattr(sensitivity, "_segment_maxima", reference_segment_maxima)
            assert _kernel_hexes(segments, count, kind, beta, p) == values, (expected, kind, beta)
            monkeypatch.setattr(sensitivity, "_segment_maxima", kernel)
            assert values.count((0.0).hex()) < count


BETA_GRID = (5e-324, 1e-300, 1e-9, 0.01, 1 / 6, 0.5, 3.0, 50.0, 800.0)


@pytest.mark.parametrize("beta", BETA_GRID)
def test_reach_is_the_last_distance_the_count_ratio_rule_accepts(beta):
    span, longest = 2**40, 300
    reach = sensitivity._reach(beta, longest, span)
    assert len(reach) == longest + 1
    for k, d in enumerate(reach.tolist()):
        assert k / (k + 1) < math.exp(-beta * d)
        # below span every table entry is exact; a tiny beta caps it there
        assert d == span - 1 or not k / (k + 1) < math.exp(-beta * (d + 1)), (k, d)
    # the ratio grows with k, so the table never does, and it stays 0 once
    # no distance of 1 or more passes
    assert (np.diff(reach) <= 0).all()
    if beta <= 1e-300:
        assert (reach == span - 1).all()


@pytest.mark.parametrize("beta", BETA_GRID)
def test_neg_exp_does_not_grow_with_distance(beta):
    # the table's rule d <= reach[k] equals k/(k+1) < math.exp(-beta * d)
    # only while math.exp(-beta * d) is non-increasing in d
    reach = sensitivity._reach(beta, 300, 2**40).tolist()
    near = {d + e for d in reach for e in (-2, -1, 0, 1)}
    for d in sorted(set(range(2000)) | {d for d in near if d >= 0}):
        assert math.exp(-beta * (d + 1)) <= math.exp(-beta * d), d


def test_segment_kernel_takes_estimator_names():
    segments = (
        np.array([3, 5, 4], dtype=np.int64), np.array([2, 1], dtype=np.int64),
        np.array([1, 2], dtype=np.int64), np.array([0, 1], dtype=np.int64),
    )
    biased, unbiased = (_kernel_hexes(segments, 2, kind, 0.25, 0.3) for kind in EstimatorKind)
    assert biased != unbiased
    assert _kernel_hexes(segments, 2, "biased", 0.25, 0.3) == biased
    assert _kernel_hexes(segments, 2, "unbiased", 0.25, 0.3) == unbiased
    with pytest.raises(ValueError, match="nonsense"):
        segment_smooth_sensitivities(*segments, 2, "nonsense", 0.25, 0.3)


def test_segment_kernel_rejects_mismatched_segments():
    sums, lengths, anchors, owners = (
        np.array(a, dtype=np.int64) for a in ([3, 5, 4], [2, 1], [1, 2], [0, 1])
    )
    cases = (
        ((sums, lengths, anchors[:1], owners, 2), "one length, anchor and owner"),
        ((sums, lengths, anchors, owners[:1], 2), "one length, anchor and owner"),
        ((sums, lengths[:1], anchors, owners, 2), "one length, anchor and owner"),
        ((sums, np.array([3, 0]), anchors, owners, 2), "at least one partial sum"),
        ((sums, np.array([4, -1]), anchors, owners, 2), "at least one partial sum"),
        # the third sum used to be dropped without a word
        ((sums, np.array([1, 1]), anchors, owners, 2), "hold 2 partial sums, got 3"),
        ((sums, np.array([2, 2]), anchors, owners, 2), "hold 4 partial sums, got 3"),
        ((sums, lengths, anchors, np.array([0, 2]), 2), r"owner ids must lie in \[0, 2\)"),
        ((sums, lengths, anchors, np.array([-1, 1]), 2), r"owner ids must lie in \[0, 2\)"),
        ((sums, lengths, anchors, owners, 1), r"owner ids must lie in \[0, 1\)"),
    )
    # the oracle takes the same arguments and raises the same errors
    for args, message in cases:
        args += (EstimatorKind.BIASED, 0.5, None)
        raised = _raised_by_both(args)
        assert raised[0] == raised[1] and re.search(message, raised[0]), (message, raised)
    assert _kernel_hexes((sums, lengths, anchors, owners), 3, "biased", 0.5, None)[2] == "0x0.0p+0"


@pytest.mark.parametrize("beta", BETA_GRID)
def test_every_walk_scores_at_most_its_bound(monkeypatch, beta):
    # With the bound at +inf every target walks, and the owners' values stay
    # the same bit for bit; each walk's best score (over the unbiased
    # estimator's two states) is at most the kernel's own bound, up to the
    # relative margin the kernel skips by, and some walks reach it, so a
    # smaller bound or a shorter table would skip them.
    target_scores, outer_walk = sensitivity._CountScores.__call__, sensitivity._outer_walk
    bounds, walks = [], []

    def infinite_bound(*args):
        cand, bound = target_scores(*args)
        bounds.append(bound)
        return cand, np.full(len(bound), np.inf)

    def recorded_walk(*args):
        scores = outer_walk(*args)
        walks.append(np.maximum.reduce(scores))
        return scores

    monkeypatch.setattr(sensitivity, "_outer_walk", recorded_walk)
    rnd = random.Random(7006)
    tight = skipped = 0
    for span in (3, 1000, 10**6):
        segments = _wide_segments(rnd, 25, span)
        for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, PS[1])):
            walks.clear()
            pruned = _kernel_hexes(segments, 25, kind, beta, p)
            walked = sum(map(len, walks))
            monkeypatch.setattr(sensitivity._CountScores, "__call__", infinite_bound)
            bounds.clear(), walks.clear()
            with np.errstate(invalid="ignore"):  # inf times a discount of 0
                assert _kernel_hexes(segments, 25, kind, beta, p) == pruned, (span, kind)
            monkeypatch.setattr(sensitivity._CountScores, "__call__", target_scores)
            assert walked <= sum(map(len, walks)) == sum(map(len, bounds))
            skipped += sum(map(len, walks)) - walked
            for walk, bound in zip(walks, bounds):
                assert (walk <= bound * (1 + sensitivity._BOUND_RELATIVE)).all(), (span, kind)
                tight += np.count_nonzero((walk > 0.95 * bound) & (walk > 0))
    assert tight or beta >= 800.0
    # below beta = 0.01 a walk's scores barely fall, so no bound cuts one
    assert skipped or beta < 0.01 or beta >= 800.0


def _shifted(inst, shift):
    return inst._replace(sums=inst.sums + shift, anchors=inst.anchors + shift)


def test_shifting_sums_and_threshold_keeps_value_bit_identical():
    # the smooth sensitivity depends only on differences c - (lam - w)
    instances = _mixed_instances(random.Random(7003), 80)
    base = [kernel_value(inst).hex() for inst in instances]
    for shift in (2**50, -(2**50)):
        assert [kernel_value(_shifted(inst, shift)).hex() for inst in instances] == base


def test_batch_splits_segments_whose_keys_overflow_int64(monkeypatch):
    # one sum per edge 2^58 above the rest widens every segment to ~2^58, so
    # at most 31 segments fit one int64 key array and the node's segments
    # fall in several chunks; the far sum is out of reach of every walk and
    # discount, so the value equals the unpadded one
    chunks = record_chunks(monkeypatch)
    far = 2**58
    for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, PS[1])):
        inst = _dense_instance(40, 60, seed=7004, kind=kind, p=p)
        padded = node_arguments(
            [(anchor, c + [max(c) + far]) for anchor, c in segments_of(inst)], kind, inst.beta, p
        )
        assert len(padded.lengths) > 31
        chunks.clear()
        value = kernel_value(padded)
        assert len(chunks) > 1
        assert value.hex() == kernel_value(inst).hex() != (0.0).hex()


def test_segment_spread_beyond_int64_is_rejected():
    inst = node_arguments([(-1, [-(2**62), 2**62])], EstimatorKind.BIASED, 0.5)
    with pytest.raises(ValueError, match="int64"):
        kernel_value(inst)


# -- one node's arguments from protocol data -----------------------------------


def test_node_outside_the_graph_is_rejected():
    g = random_graph(random.Random(48), 20, 0.5, -2, 3)
    a = greedy_assign(g)
    release = release_step1(g, 1.0, RandomSource(1))
    for node in (-1, 20, 10**6):
        with pytest.raises(ValueError, match="not in"):
            gathered_arguments(a, release, node, 6, 0.25, EstimatorKind.BIASED)
        with pytest.raises(ValueError, match="not in"):
            a.triangles_of(node)
    # the first and the last node are inside
    for node in (0, 19):
        inst = gathered_arguments(a, release, node, 6, 0.25, EstimatorKind.BIASED)
        assert inst.lengths.sum() == 2 * len(a.triangles_of(node))
        assert (a.triangles_of(node)[:, 0] == node).all()


def test_gathered_partial_sums_of_a_node():
    g = WeightedGraph(4, [(0, 1, 2), (0, 2, 3), (1, 2, 10), (0, 3, 4), (1, 3, 20)])
    tris = enumerate_triangles(g)  # {0,1,2} and {0,1,3}
    a = Assignment(g, tris)  # node 0 owns both
    # the release is indexed by edge id: (0,1) (0,2) (0,3) (1,2) (1,3)
    release = np.array([-50, -50, -50, 11, 19])
    inst = gathered_arguments(a, release, 0, lam=9, beta=0.5, kind=EstimatorKind.BIASED)
    # edge (0,1), weight 2 and anchor 9 - 1 - 2 = 6, is in both triangles:
    # c = w_02 + w'_12 and w_03 + w'_13; edge (0,2) has c = w_01 + w'_12, and
    # edge (0,3) c = w_01 + w'_13
    assert segments_of(inst) == [(6, [3 + 11, 4 + 19]), (5, [2 + 11]), (4, [2 + 19])]
    assert inst.owners.tolist() == [0, 0, 0] and inst[4:] == (1, EstimatorKind.BIASED, 0.5, None)
    assert all(array.dtype == np.int64 for array in inst[:4])


def test_gathered_arguments_equal_the_per_node_reference_on_every_node():
    # nodes with no assigned triangles, negative weights and both estimators:
    # the segments, their order and the order of every segment's sums are exact
    rnd = random.Random(77)
    seen_empty = 0
    for trial in range(24):
        g = random_graph(rnd, rnd.randint(4, 16), rnd.uniform(0.2, 0.8), -5, 5)
        assignment = greedy_assign(g)
        release = release_step1(g, 0.7, RandomSource(trial))
        noisy = dict(zip(g.edges(), release.tolist()))
        lam = rnd.randint(-4, 8)
        for v in range(g.node_count):
            incident = {canonical_edge(v, u): g.weight(v, u) for u in g.neighbors(v)}
            assigned = sorted(tuple(sorted(t)) for t in assignment.triangles_of(v).tolist())
            received = {}
            for t in assigned:
                y, z = (u for u in t if u != v)
                received[(y, z)] = noisy[(y, z)]
            seen_empty += not assigned
            for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, 0.4)):
                got = gathered_arguments(assignment, release, v, lam, 0.3, kind, p=p)
                want = instance_from_node_data(v, incident, assigned, received, lam, 0.3, kind, p)
                assert [a.tolist() for a in got[:4]] == [a.tolist() for a in want[:4]]
                assert got[4:] == want[4:], (trial, v, kind)
    assert seen_empty > 0


# -- argument checks, shared by the kernel and the oracle ----------------------


def _raised_by_both(args):
    """The ValueError messages of the kernel and of the oracle on ``args``."""
    messages = []
    for function in (segment_smooth_sensitivities, smooth_sensitivity_bruteforce):
        with pytest.raises(ValueError) as error:
            function(*args)
        messages.append(str(error.value))
    return messages


def test_instance_validation():
    # the estimator's name is the estimator, for the kernel and the oracle
    # alike: a string used to score as biased
    inst = single_triangle_instance(EstimatorKind.UNBIASED, 5, 1, 1, 2, 0.5, p=0.4)
    for value in (kernel_value, oracle_value):
        with pytest.raises(ValueError, match="not a valid EstimatorKind"):
            value(inst._replace(kind="bogus"))
        assert value(inst._replace(kind="unbiased")) == value(inst)
        assert value(inst) != value(inst._replace(kind=EstimatorKind.BIASED))


@pytest.mark.parametrize("lam", [10**30, -(10**30), 2**63, 2**62 + 1])
def test_instance_rejects_threshold_outside_int64_range(lam, tmp_path, capsys):
    # The smooth-sensitivity functions take anchors lam - 1 - w, not lam: the
    # sensitivity probe checks its threshold before it gathers a node's
    # segments, and the end of the range is accepted.
    path = tmp_path / "k4.txt"
    write_edge_list(complete_graph(4), path)
    probe = ["sensitivity", "--graph", str(path), "--node", "3", "--beta", "0.25",
             "--estimator", "unbiased", "--lambda"]
    with pytest.raises(SystemExit) as exc:
        main(probe + [str(lam)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside the int64 range" in captured.err
    assert main(probe + [str(-(2**62))]) == 0
    assert capsys.readouterr().out.startswith("assigned_triangles: 2\n")


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_instance_rejects_non_finite_beta(beta):
    # a NaN beta used to pass and give a smooth sensitivity of 0, hence no noise
    inst = single_triangle_instance(EstimatorKind.BIASED, 5, 1, 1, 2, beta)
    assert _raised_by_both(inst) == [f"beta must be finite and positive, got {beta}"] * 2


def test_kernel_and_oracle_reject_the_same_bad_arguments():
    # The kernel used to return 163.79 at beta = -1 and NaN at beta = inf, and
    # to fail inside at beta = 0 (ZeroDivisionError), at p = None and on float
    # sums (TypeError).  Kernel and oracle now raise the same ValueError.
    inst = _dense_instance(12, 30, seed=7009, kind=EstimatorKind.UNBIASED, p=0.5)
    cases = [({"beta": beta}, "beta must be finite and positive") for beta in (0.0, -1.0)]
    cases += [({"p": p}, r"needs p in \[0,1\)") for p in (None, 1.0, -0.1)]
    cases += [
        ({"sums": inst.sums.astype(float)}, "sums must be an integer array"),
        ({"anchors": inst.anchors + 0.5}, "anchors must be an integer array"),
        ({"lengths": inst.lengths.astype(np.uint64)}, "lengths must be an integer array"),
        ({"owners": inst.owners.astype(bool)}, "owners must be an integer array"),
        # a fractional count used to raise a different TypeError in each
        ({"count": 2.5}, "expected an integer node count, got 2.5"),
        ({"count": -1}, "the node count must be non-negative, got -1"),
        # the initial target of a -1 step, one above the anchor, used to wrap
        ({"anchors": inst.anchors - inst.anchors.max() + (2**63 - 1)},
         "anchors must lie below 9223372036854775807"),
    ]
    for change, message in cases:
        raised = _raised_by_both(inst._replace(**change))
        assert raised[0] == raised[1] and re.search(message, raised[0]), (change, raised)
    # the biased estimator reads no p, and narrower integer arrays are widened
    biased = inst._replace(kind=EstimatorKind.BIASED, p=math.nan)
    narrow = biased._replace(sums=biased.sums.astype(np.int32), owners=biased.owners.astype("u1"))
    assert kernel_value(narrow) == kernel_value(biased) == pytest.approx(oracle_value(narrow))


# -- runtime envelope -----------------------------------------------------------


def _dense_instance(d, triangles, seed, kind, p):
    rnd = random.Random(seed)
    weights = [rnd.randint(-50, 50) for _ in range(d)]
    sums = {i: [] for i in range(d)}
    for _ in range(triangles):
        i, j = rnd.sample(range(d), 2)
        shared = rnd.randint(-50, 50)
        sums[i].append(weights[j] + shared)
        sums[j].append(weights[i] + shared)
    return node_arguments(((-1 - weights[i], sums[i]) for i in range(d)), kind, 0.25, p)


def _best_time(fn, reps=3):
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_biased_runtime_grows_subquadratically():
    # Both estimators walk the same sorted sums, so both get the same gate.
    for kind, p in ((EstimatorKind.BIASED, None), (EstimatorKind.UNBIASED, math.exp(-1.0))):
        small = _dense_instance(250, 4 * 250, seed=1, kind=kind, p=p)
        large = _dense_instance(500, 4 * 500, seed=2, kind=kind, p=p)
        t_small = _best_time(lambda: kernel_value(small))
        t_large = _best_time(lambda: kernel_value(large))
        assert t_large <= 5.0 * max(t_small, 1e-4), (kind, t_small, t_large)
