"""Global and beta-smooth sensitivity of a node's below-threshold triangle count.

The smooth computation reformulates sensitivity-at-distance as shifting the
per-triangle partial sums c_j onto a moving integer target t at l1 cost,
discounted by e^{-beta |z|}.  Both estimators sweep t over one edge's sorted
sums c.  Per target, bisects over c give the values at t-1, t and t+1 in
O(log d), and one outward walk shifts the remaining values onto the target,
nearest first, in O(1) per step.  Every walked value is at distance >= 1,
so the count-ratio rule k/(k+1) < e^{-beta * distance} ends the walk within
about 1/beta steps.  For the biased estimator only values on the target
matter; for the unbiased estimator the values adjacent to the target
contribute differently from the values on it.

``smooth_sensitivity_bruteforce`` is an independent oracle: it scans every
integer target in an exact pruning radius and exhausts all shift counts
instead of using the selection rules, so fast-path and oracle share no
algorithmic machinery.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .assignment import Assignment, InstanceTooLargeError
from .estimators import EstimatorKind, estimator_step_bound, unbiased_correction
from .graph import Triangle, WeightedGraph, canonical_edge, integral

Edge = tuple[int, int]


# -- global sensitivity ------------------------------------------------------


def global_sensitivity(
    node: int,
    assignment: Assignment,
    kind: EstimatorKind,
    p: float | None = None,
) -> float:
    """Worst-case change of the local count when one incident weight moves by 1.

    Equals the estimator step bound times the largest number of assigned
    triangles sharing a single incident edge; computable from public data
    in O(d_v^2).
    """
    if kind is EstimatorKind.UNBIASED and p is None:
        raise ValueError("the unbiased estimator needs p = e^{-epsilon_1}")
    counts: dict[int, int] = {}
    for t in assignment.triangles_of(node):
        for u in t.nodes:
            if u != node:
                counts[u] = counts.get(u, 0) + 1
    if not counts:
        return 0.0
    return estimator_step_bound(kind, 0.0 if p is None else p) * max(counts.values())


# -- per-node local view ------------------------------------------------------


@dataclass(frozen=True)
class EdgeLocalView:
    """One incident edge of the responsible node: its true weight and the
    partial sums c_j (other incident weight + noisy non-incident weight)
    of every assigned triangle containing it."""

    weight: int
    partial_sums: tuple[int, ...]


@dataclass(frozen=True)
class SmoothSensInstance:
    node: int
    lam: int
    beta: float
    kind: EstimatorKind
    p: float | None
    edges: tuple[EdgeLocalView, ...]

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        object.__setattr__(self, "lam", integral(self.lam, "threshold lam"))
        if self.kind is EstimatorKind.UNBIASED and not (
            self.p is not None and 0.0 <= self.p < 1.0
        ):
            raise ValueError("the unbiased estimator needs p in [0,1)")


def instance_from_parts(
    node: int,
    incident_weights: Mapping[Edge, int],
    assigned: Sequence[Triangle],
    noisy_edge_weights: Mapping[Edge, int],
    lam: int,
    beta: float,
    kind: EstimatorKind,
    p: float | None = None,
) -> SmoothSensInstance:
    """Build the instance from exactly the data a node holds in step 2."""
    sums: dict[int, list[int]] = {}
    for t in assigned:
        y, z = (u for u in t.nodes if u != node)
        w_prime = noisy_edge_weights[canonical_edge(y, z)]
        sums.setdefault(y, []).append(incident_weights[canonical_edge(node, z)] + w_prime)
        sums.setdefault(z, []).append(incident_weights[canonical_edge(node, y)] + w_prime)
    views = tuple(
        EdgeLocalView(incident_weights[canonical_edge(node, u)], tuple(c))
        for u, c in sorted(sums.items())
    )
    return SmoothSensInstance(node, lam, beta, kind, p, views)


def build_instance(
    graph: WeightedGraph,
    assignment: Assignment,
    noisy_edge_weights: Mapping[Edge, int],
    node: int,
    lam: int,
    beta: float,
    kind: EstimatorKind,
    p: float | None = None,
) -> SmoothSensInstance:
    incident = {
        canonical_edge(node, u): graph.weight(node, u) for u in graph.neighbors(node)
    }
    return instance_from_parts(
        node, incident, assignment.triangles_of(node), noisy_edge_weights, lam, beta, kind, p
    )


def _anchor_targets(view: EdgeLocalView, lam: int) -> tuple[int, int]:
    # Initial target for a +1 step on this edge, and for a -1 step.
    return lam - 1 - view.weight, lam - view.weight


def local_sensitivity(inst: SmoothSensInstance) -> float:
    """Sensitivity at the instance itself (the z = 0 term of the smooth max)."""
    best = 0.0
    x = unbiased_correction(inst.p) if inst.kind is EstimatorKind.UNBIASED else 0.0
    for view in inst.edges:
        c = view.partial_sums
        for theta in _anchor_targets(view, inst.lam):
            on = sum(1 for v in c if v == theta)
            if inst.kind is EstimatorKind.BIASED:
                best = max(best, float(on))
            else:
                adjacent = sum(1 for v in c if abs(v - theta) == 1)
                best = max(best, abs(x * adjacent - (1.0 + 2.0 * x) * on))
    return best


# -- outer extension, shared by both estimators --------------------------------


def _anchor_discount(t: int, thetas: tuple[int, int], beta: float) -> float:
    # e^{-beta |z_i|} for the better of the two step signs at this target
    return math.exp(-beta * min(abs(t - thetas[0]), abs(t - thetas[1])))


def _extend_over_outer(
    c: list[int], lo: int, hi: int, t: int, shift: int, base: int, cost: int,
    gain: float, beta: float,
) -> float:
    # c[lo:hi] is already counted in ``base`` at total distance ``cost``; walk
    # outward over the rest, nearest value first, shifting each onto the
    # target at distance |v - t| - shift, while the count-ratio rule keeps
    # improving: growing k to k+1 helps iff k/(k+1) < e^{-beta d}, the ratio
    # increases and d never decreases, so stop at the first failure.
    best = 0.0
    i, j, n = lo - 1, hi, len(c)
    k = base
    while True:
        if i >= 0 and (j == n or t - c[i] <= c[j] - t):
            d = t - c[i] - shift
            i -= 1
        elif j < n:
            d = c[j] - t - shift
            j += 1
        else:
            break
        if not (k / (k + 1) < math.exp(-beta * d)):
            break
        k += 1
        cost += d
        best = max(best, gain * k * math.exp(-beta * cost))
    return best


# -- smooth sensitivity, biased estimator -------------------------------------


def smooth_sensitivity_biased(inst: SmoothSensInstance) -> float:
    """beta-smooth sensitivity of the biased local count.

    Only values on the target count, and the best shift count at a target is
    anchor-independent, so each edge scores the targets {c_j} plus the two
    initial targets once, both anchors per target.  A target costs two
    O(log d) bisects plus an outward walk of about 1/beta steps at most.
    """
    if inst.kind is not EstimatorKind.BIASED:
        raise ValueError("instance is not for the biased estimator")
    beta = inst.beta
    best = 0.0
    for view in inst.edges:
        if not view.partial_sums:
            continue
        c = sorted(view.partial_sums)
        thetas = _anchor_targets(view, inst.lam)
        for t in sorted(set(c).union(thetas)):
            lo = bisect_left(c, t)
            hi = bisect_right(c, t)
            on_target = hi - lo
            walk = _extend_over_outer(c, lo, hi, t, 0, on_target, 0, 1.0, beta)
            cand = max(float(on_target), walk)
            v = cand * _anchor_discount(t, thetas, beta)
            if v > best:
                best = v
    return best


# -- smooth sensitivity, unbiased estimator ------------------------------------


def smooth_sensitivity_unbiased(inst: SmoothSensInstance) -> float:
    """beta-smooth sensitivity of the unbiased local count.

    Both step signs reduce to the same two target problems (positive and
    negative sum contribution) with the initial target shifted by one; the
    best shift counts at a target are anchor-independent, so each edge
    scores the candidate targets {c_j - 1, c_j, c_j + 1} plus the two
    initial targets once, both anchors per target.  A target costs four
    O(log d) bisects, closed-form stationary points for the values at t-1,
    t and t+1, and two outward walks of about 1/beta steps at most.  Outside
    [t-1, t+1] the distance to the pair {t-1, t+1} is the distance to t
    minus one, so both walks run over the same values.
    """
    if inst.kind is not EstimatorKind.UNBIASED:
        raise ValueError("instance is not for the unbiased estimator")
    x = unbiased_correction(inst.p)
    beta = inst.beta
    big = 1.0 + 2.0 * x
    slope = 1.0 + 3.0 * x
    inv_beta = 1.0 / beta
    exp = math.exp
    best = 0.0
    for view in inst.edges:
        if not view.partial_sums:
            continue
        c = sorted(view.partial_sums)
        thetas = _anchor_targets(view, inst.lam)
        for t in sorted({v + d for v in c for d in (-1, 0, 1)}.union(thetas)):
            l0 = bisect_left(c, t - 1)
            l1 = bisect_right(c, t - 1)
            r0 = bisect_left(c, t + 1)
            r1 = bisect_right(c, t + 1)
            adjacent = (l1 - l0) + (r1 - r0)
            on_target = r0 - l1
            near = r1 - l0
            cand = 0.0
            # positive contribution: adjacent values give +x, on-target -1-2x
            a0 = adjacent * x - on_target * big
            stat = inv_beta - a0 / slope
            for k in (0, on_target, min(max(math.floor(stat), 0), on_target),
                      min(max(math.ceil(stat), 0), on_target)):
                v = (a0 + slope * k) * exp(-beta * k)
                if v > cand:
                    cand = v
            v = _extend_over_outer(c, l0, r1, t, 1, near, on_target, x, beta)
            if v > cand:
                cand = v
            # negative contribution: on-target values give +1+2x, adjacent -x
            a1 = big * on_target - x * adjacent
            stat = inv_beta - a1 / slope
            for k in (0, adjacent, min(max(math.floor(stat), 0), adjacent),
                      min(max(math.ceil(stat), 0), adjacent)):
                v = (a1 + slope * k) * exp(-beta * k)
                if v > cand:
                    cand = v
            v = _extend_over_outer(c, l0, r1, t, 0, near, adjacent, big, beta)
            if v > cand:
                cand = v
            v = cand * _anchor_discount(t, thetas, beta)
            if v > best:
                best = v
    return best


def smooth_sensitivity(inst: SmoothSensInstance) -> float:
    if inst.kind is EstimatorKind.BIASED:
        return smooth_sensitivity_biased(inst)
    return smooth_sensitivity_unbiased(inst)


# -- brute-force oracle --------------------------------------------------------


def _brute_scan_range(c: list[int], theta: int, beta: float, incumbent: float, gain_cap: float, radius: int | None):
    lo = min(c[0], theta)
    hi = max(c[-1], theta)
    if radius is None:
        # Exact pruning: a target at offset r from theta is worth at most
        # gain_cap * e^{-beta r}, so nothing beyond R can beat the incumbent.
        r = (math.log(gain_cap) - math.log(incumbent)) / beta if incumbent > 0 else 0.0
        radius = max(1, int(math.ceil(r)) + 2)
    return range(lo - radius, hi + radius + 1)


def _brute_biased_value(c: list[int], t: int, theta: int, beta: float) -> float:
    dists = sorted(abs(v - t) for v in c)
    dz = abs(t - theta)
    best = 0.0
    acc = 0
    for k, d in enumerate(dists, 1):
        acc += d
        best = max(best, k * math.exp(-beta * (acc + dz)))
    return best


def _brute_biased_anchor(c: list[int], theta: int, beta: float, radius: int | None) -> float:
    incumbent = 0.0
    for t in range(min(c[0], theta) - 2, max(c[-1], theta) + 3):
        incumbent = max(incumbent, _brute_biased_value(c, t, theta, beta))
    best = incumbent
    for t in _brute_scan_range(c, theta, beta, incumbent, float(len(c)), radius):
        best = max(best, _brute_biased_value(c, t, theta, beta))
    return best


def _brute_unbiased_value(c: list[int], t: int, theta: int, x: float, beta: float) -> float:
    # Full grid over (shift count from the near set, shift count from the
    # outer set); no stationary points, no selection rules.
    big = 1.0 + 2.0 * x
    dz = abs(t - theta)
    on = sum(1 for v in c if v == t)
    adj = sum(1 for v in c if abs(v - t) == 1)
    pair_d = sorted(min(abs(v - (t - 1)), abs(v - (t + 1))) for v in c if abs(v - t) > 1)
    center_d = sorted(abs(v - t) for v in c if abs(v - t) > 1)
    best = 0.0
    # positive contribution: adjacent stay at +x, shifted on-target values
    # turn -1-2x into +x at cost 1, outer values join at their pair distance
    pair_pref = [0]
    for d in pair_d:
        pair_pref.append(pair_pref[-1] + d)
    for k_on in range(on + 1):
        for k_out in range(len(pair_d) + 1):
            gain = (adj + k_on + k_out) * x - (on - k_on) * big
            cost = k_on + pair_pref[k_out] + dz
            best = max(best, gain * math.exp(-beta * cost))
    # negative contribution: on-target values stay at +1+2x, shifted adjacent
    # values turn -x into +1+2x at cost 1, outer values come to the target
    center_pref = [0]
    for d in center_d:
        center_pref.append(center_pref[-1] + d)
    for k_adj in range(adj + 1):
        for k_out in range(len(center_d) + 1):
            gain = big * (on + k_adj + k_out) - x * (adj - k_adj)
            cost = k_adj + center_pref[k_out] + dz
            best = max(best, gain * math.exp(-beta * cost))
    return best


def _brute_unbiased_anchor(
    c: list[int], theta: int, x: float, beta: float, radius: int | None
) -> float:
    incumbent = 0.0
    for t in range(min(c[0], theta) - 2, max(c[-1], theta) + 3):
        incumbent = max(incumbent, _brute_unbiased_value(c, t, theta, x, beta))
    best = incumbent
    cap = len(c) * (1.0 + 2.0 * x)
    for t in _brute_scan_range(c, theta, beta, incumbent, cap, radius):
        best = max(best, _brute_unbiased_value(c, t, theta, x, beta))
    return best


def smooth_sensitivity_bruteforce(inst: SmoothSensInstance, radius: int | None = None) -> float:
    """Exact smooth sensitivity on small instances by exhaustive target scan.

    Independent of the fast algorithms: every integer target within an
    exact pruning radius is evaluated, and all shift-count combinations are
    enumerated outright.  ``radius`` overrides the automatic pruning radius
    (callers must then guarantee the residual beyond it is negligible).
    """
    if len(inst.edges) > 12 or any(len(v.partial_sums) > 12 for v in inst.edges):
        raise InstanceTooLargeError("brute-force oracle is capped at degree 12")
    x = unbiased_correction(inst.p) if inst.kind is EstimatorKind.UNBIASED else 0.0
    best = 0.0
    for view in inst.edges:
        if not view.partial_sums:
            continue
        c = sorted(view.partial_sums)
        for theta in _anchor_targets(view, inst.lam):
            if inst.kind is EstimatorKind.BIASED:
                best = max(best, _brute_biased_anchor(c, theta, inst.beta, radius))
            else:
                best = max(best, _brute_unbiased_anchor(c, theta, x, inst.beta, radius))
    return best
