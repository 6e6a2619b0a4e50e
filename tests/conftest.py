"""Shared builders for graphs and for one node's smooth-sensitivity
arguments, recorders of the smooth-sensitivity kernel's chunks, a per-value
reference for the kernel, and a per-node reference for the protocol's step 2."""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple

import numpy as np

from lwdp_triangles import WeightedGraph, sensitivity
from lwdp_triangles.estimators import EstimatorKind, estimate, estimator_step_bound
from lwdp_triangles.graph import canonical_edge
from lwdp_triangles.protocol import Mechanism
from lwdp_triangles.sensitivity import segment_smooth_sensitivities, smooth_sensitivity_bruteforce


def complete_graph(n: int, weight: int = 1) -> WeightedGraph:
    return WeightedGraph(n, [(u, v, weight) for u in range(n) for v in range(u + 1, n)])


def book_graph(k: int, weight: int = 0) -> WeightedGraph:
    """k triangles all sharing the spine edge (0, 1)."""
    edges = [(0, 1, weight)]
    for leaf in range(2, k + 2):
        edges.append((0, leaf, weight))
        edges.append((1, leaf, weight))
    return WeightedGraph(k + 2, edges)


def random_graph(rnd: random.Random, n: int, p: float, wlo: int, whi: int) -> WeightedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < p:
                edges.append((u, v, rnd.randint(wlo, whi)))
    return WeightedGraph(n, edges)


class KernelArgs(NamedTuple):
    """The arguments of ``segment_smooth_sensitivities`` and of the oracle, in order."""

    sums: np.ndarray
    lengths: np.ndarray
    anchors: np.ndarray
    owners: np.ndarray
    count: int
    kind: EstimatorKind
    beta: float
    p: float | None


def node_arguments(
    edges: Iterable[tuple[int, list[int]]], kind, beta, p=None
) -> KernelArgs:
    """One node's arguments from its incident edges as (anchor, partial sums)
    pairs, anchor = lam - 1 - the edge's weight: one segment per edge with
    sums, every segment owned by node 0 of a one-node call."""
    edges = [(anchor, sums) for anchor, sums in edges if sums]
    sums = np.array([value for _, c in edges for value in c], dtype=np.int64)
    lengths = np.array([len(c) for _, c in edges], dtype=np.int64)
    anchors = np.array([anchor for anchor, _ in edges], dtype=np.int64)
    return KernelArgs(sums, lengths, anchors, np.zeros_like(lengths), 1, kind, beta, p)


def kernel_value(args: KernelArgs) -> float:
    """The kernel's value of the one node of ``node_arguments``."""
    return float(segment_smooth_sensitivities(*args)[0])


def oracle_value(args: KernelArgs) -> float:
    """The oracle's value of the one node of ``node_arguments``."""
    return float(smooth_sensitivity_bruteforce(*args)[0])


def gathered_arguments(assignment, noisy, node, lam, beta, kind, p=None) -> KernelArgs:
    """``node``'s arguments from exactly the data it holds in step 2, its
    segments gathered over its span of the assignment's rows from the true
    weights and the step-1 release ``noisy`` (indexed by edge id)."""
    lengths, incident, sums = assignment.segments.gather(
        assignment.span(node), assignment.graph.weight_array, noisy
    )
    return KernelArgs(sums, lengths, lam - 1 - incident, np.zeros_like(lengths), 1, kind, beta, p)


def random_local_instance(
    rnd: random.Random,
    kind: EstimatorKind,
    p: float | None = None,
    *,
    max_degree: int = 12,
    weight_span: int = 10,
    lam_span: int = 5,
    betas: tuple[float, ...] = (0.1, 0.5, 1.0),
) -> KernelArgs:
    """A node's local view with a random star of incident edges and triangles.

    Every triangle couples two incident edges through one shared noisy
    non-incident weight, exactly as the protocol would deliver it; an edge
    without triangles has no segment.
    """
    d = rnd.randint(2, max_degree)
    lam = rnd.randint(-lam_span, lam_span)
    beta = rnd.choice(betas)
    weights = [rnd.randint(-weight_span, weight_span) for _ in range(d)]
    pair_count = rnd.randint(0, min(12, d * (d - 1) // 2))
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < pair_count:
        i, j = rnd.sample(range(d), 2)
        chosen.add((min(i, j), max(i, j)))
    sums: dict[int, list[int]] = {i: [] for i in range(d)}
    for i, j in sorted(chosen):
        shared_noisy = rnd.randint(-weight_span, weight_span)
        sums[i].append(weights[j] + shared_noisy)
        sums[j].append(weights[i] + shared_noisy)
    return node_arguments(((lam - 1 - weights[i], sums[i]) for i in range(d)), kind, beta, p)


def instance_from_node_data(node, incident, assigned, received, lam, beta, kind, p):
    """Node ``node``'s smooth-sensitivity arguments from plain dicts: its
    incident weights and the noisy weights it received, by canonical edge,
    and its assigned triangles as ascending node triples; one segment per
    incident edge with triangles, in neighbour order."""
    sums: dict[int, list[int]] = {}
    for t in assigned:
        y, z = (u for u in t if u != node)
        w_prime = received[(y, z)]
        sums.setdefault(y, []).append(incident[canonical_edge(node, z)] + w_prime)
        sums.setdefault(z, []).append(incident[canonical_edge(node, y)] + w_prime)
    edges = ((lam - 1 - incident[canonical_edge(node, u)], c) for u, c in sorted(sums.items()))
    return node_arguments(edges, kind, beta, p)


def record_chunks(monkeypatch):
    """Make the smooth-sensitivity kernel record each chunk it scores, as the
    lengths of the chunk's segments; returns the list they are appended to."""
    chunks = []
    score = sensitivity._segment_maxima

    def recording(keys, bounds, *args):
        chunks.append(np.diff(bounds))
        return score(keys, bounds, *args)

    monkeypatch.setattr(sensitivity, "_segment_maxima", recording)
    return chunks


def record_count_paths(monkeypatch):
    """Make the smooth-sensitivity kernel record, for each chunk it scores,
    whether its targets were counted from a histogram (True) or from its
    sorted keys; returns the list they are appended to."""
    paths = []
    target_counts = sensitivity._target_counts

    def recording(keys, hist, *args):
        paths.append(hist is not None)
        return target_counts(keys, hist, *args)

    monkeypatch.setattr(sensitivity, "_target_counts", recording)
    return paths


def _reference_walk(keys, t, lo, hi, start, end, shift, k, cost, gain, neg_exp):
    # one value per round for every target still walking, nearest first (the
    # left one on a tie), at distance |v - t| - shift, while
    # k/(k+1) < e^{-beta d} holds; returns each target's best gain*k*e^{-beta cost}
    best = np.zeros(len(t))
    live = np.arange(len(t))
    i, j = lo - 1, hi
    last = len(keys) - 1
    while live.size:
        left = i >= start
        right = j < end
        dl = t - keys[np.maximum(i, 0)]
        dr = keys[np.minimum(j, last)] - t
        go_left = left & (~right | (dl <= dr))
        d = np.where(go_left, dl, dr) - shift
        has = left | right
        d[~has] = 0
        keep = np.flatnonzero(has & (k / (k + 1) < neg_exp(d)))
        live, t, start, end, go_left = live[keep], t[keep], start[keep], end[keep], go_left[keep]
        k = k[keep] + 1
        cost = cost[keep] + d[keep]
        best[live] = np.maximum(best[live], gain * k * neg_exp(cost))
        i = i[keep] - go_left
        j = j[keep] + ~go_left
    return best


def _reference_stationary(a, n, slope, inv_beta, neg_exp):
    # best (a + slope*k) e^{-beta k} at k = 0, n and the two integers around
    # the stationary point, each clipped to [0, n]
    stat = inv_beta - a / slope
    candidates = (np.zeros_like(n), n, np.floor(stat), np.ceil(stat))
    ks = [np.clip(k, 0, n).astype(np.int64) for k in candidates]
    return np.maximum.reduce([(a + slope * k) * neg_exp(k) for k in ks])


def reference_segment_maxima(
    keys, bounds, anchors, owners, best, span, kind, x, reach, neg_exp, counts
):
    """A per-value reference for ``sensitivity._segment_maxima``: the chunk's
    keys sorted, searchsorted over every partial sum for the counts at and
    next to each candidate target, a separate walk of every target for each
    of the unbiased estimator's two terms, and the count-ratio rule evaluated
    as k/(k+1) < e^{-beta d} at every step.  ``reach`` and the per-call
    ``counts`` (candidates and walk bounds by count) are ignored, so the
    kernel's acceptance table is checked against the rule itself, its
    candidates against scoring each target, and its pruned walks against
    walking them all."""
    beta = neg_exp.beta
    keys = np.sort(keys)
    if kind is EstimatorKind.BIASED:
        t = np.concatenate((keys, anchors, anchors + 1))
    else:
        t = np.concatenate((keys - 1, keys, keys + 1, anchors, anchors + 1))
    t = np.unique(t)
    seg = t // span
    start, end = bounds[seg], bounds[seg + 1]
    theta = anchors[seg]
    discount = neg_exp(np.minimum(np.abs(t - theta), np.abs(t - theta - 1)))
    if kind is EstimatorKind.BIASED:
        lo = np.searchsorted(keys, t, "left")
        hi = np.searchsorted(keys, t, "right")
        on_target = hi - lo
        walk = _reference_walk(
            keys, t, lo, hi, start, end, 0, on_target, np.zeros_like(t), 1.0, neg_exp
        )
        cand = np.maximum(on_target, walk)
    else:
        l0 = np.searchsorted(keys, t - 1, "left")
        l1 = np.searchsorted(keys, t - 1, "right")
        r0 = np.searchsorted(keys, t + 1, "left")
        r1 = np.searchsorted(keys, t + 1, "right")
        adjacent = (l1 - l0) + (r1 - r0)
        on_target = r0 - l1
        near = r1 - l0
        big = 1.0 + 2.0 * x
        slope = 1.0 + 3.0 * x
        stationary = _reference_stationary
        cand = np.maximum.reduce([
            stationary(adjacent * x - on_target * big, on_target, slope, 1.0 / beta, neg_exp),
            stationary(big * on_target - x * adjacent, adjacent, slope, 1.0 / beta, neg_exp),
            _reference_walk(keys, t, l0, r1, start, end, 1, near, on_target, x, neg_exp),
            _reference_walk(keys, t, l0, r1, start, end, 0, near, adjacent, big, neg_exp),
        ])
    first = np.searchsorted(seg, np.arange(len(anchors)))
    np.maximum.at(best, owners, np.maximum.reduceat(cand * discount, first))


def reference_step2(graph, assignment, noisy, lam, kind, mechanism, budget):
    """Every node's (f'_v, S_v) computed one node at a time, as lists.

    Node v reads its incident weights and the noisy weights of the edges
    opposite it in its assigned triangles (``noisy`` is the step-1 release,
    indexed by edge id); f'_v is a per-triangle ``estimate`` loop and S_v the
    smooth sensitivity of ``instance_from_node_data``.  Under Laplace noise
    it is GS_v: the estimator step bound times its longest segment.
    """
    noisy = dict(zip(graph.edges(), noisy.tolist()))
    owned: dict[int, list[tuple[int, int, int]]] = {}
    for owner, y, z in assignment.rows.tolist():
        owned.setdefault(owner, []).append(tuple(sorted((owner, y, z))))
    counts, sens = [], []
    for v in range(graph.node_count):
        incident = {canonical_edge(v, u): graph.weight(v, u) for u in graph.neighbors(v)}
        assigned = sorted(owned.get(v, []))
        received = {}
        total = 0.0
        for t in assigned:
            y, z = (u for u in t if u != v)
            received[(y, z)] = noisy[(y, z)]
            noisy_sum = (
                incident[canonical_edge(v, y)] + incident[canonical_edge(v, z)] + received[(y, z)]
            )
            total += estimate(kind, noisy_sum, lam, budget.p)
        counts.append(total)
        inst = instance_from_node_data(
            v, incident, assigned, received, lam, budget.beta, kind, p=budget.p
        )
        if mechanism is Mechanism.SMOOTH:
            sens.append(kernel_value(inst))
        else:
            longest = int(inst.lengths.max(initial=0))
            sens.append(estimator_step_bound(kind, budget.p) * longest)
    return counts, sens
