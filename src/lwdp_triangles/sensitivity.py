"""beta-smooth sensitivity of a node's below-threshold triangle count.

The smooth computation reformulates sensitivity-at-distance as shifting the
per-triangle partial sums c_j onto a moving integer target t at l1 cost,
discounted by e^{-beta |z|}.  Both estimators score t over the candidate
targets of one edge's distinct sums c (c itself, for the unbiased estimator
also c-1 and c+1, plus the two initial targets).  At a target, the counts of
values at t-1, t and t+1 fix the best shift counts near t, and an outward
walk shifts the remaining values onto the target, nearest first, while the
count-ratio rule k/(k+1) < e^{-beta * distance} holds.  Every walked value
is at distance >= 1, so a walk ends within about 1/beta steps.  For the
biased estimator only values on the target matter; for the unbiased
estimator the values adjacent to the target contribute differently from the
values on it, and its two walks visit the same values in one traversal.

``segment_smooth_sensitivities`` is the one implementation.  It takes the
partial sums of many nodes as int64 arrays, one segment per (node, incident
edge) with the node that owns it, and returns each node's largest score in
one pass over chunks of whole segments, which bound its memory however many
segments there are.  A chunk becomes one int64 key array, one span of cells
per segment.  Where the chunk has at most 4 cells per key, one histogram of
the keys gives the candidate targets and their counts without a sort, and
the keys are put in order from it only where some target walks; otherwise
the sorted keys' runs of equal keys give them.  A per-call table of the
largest distance the rule accepts at each k decides every walk step.
Every e^{-beta n} is ``math.exp`` of an integer n, so the values are
bit-identical to a per-target scalar evaluation.

Only each node's largest score is wanted, so the kernel is a branch and
bound.  Each target's cheap exact candidates (the count on the target for
the biased estimator, the two stationary-point scores for the unbiased one)
first raise a running best per node, its floor.  The walk, the costly
candidate, runs only where an upper bound on its scores exceeds the floor:
a step from count k needs a nonzero reach[k], so a walk ends at count cap
at most, cap the number of nonzero entries, and each step costs at least 1
(2 in the unbiased estimator's second walk), so one table over the start
count per call, times the target's initial cost and discount, bounds it.  A
skipped walk scores at most a candidate its node already has, and the
largest value is exact, so the values are those of walking every target,
bit for bit.  Before its discount, a target's cheap candidate and walk bound
depend only on its counts: ``on`` values on it and, for the unbiased
estimator, ``adj`` next to it, neither above the call's longest segment.  So
both are scored once per call over every (on, adj) cell, (longest + 1)^2
cells (longest + 1 for the biased estimator), and each target gathers its
cell; where that grid would have more cells than the call has partial sums,
each target is scored itself by the same function, with the same result bit
for bit.  A node's floor and value read its own segments only, so step 2
scores all an ``Assignment``'s ``segments`` in one call, and one node is
scored from the segments of its span alone.

``smooth_sensitivity_bruteforce`` is an independent oracle with the kernel's
arguments and result: it scans every integer target within 2 of a segment's
values and initial targets, past which no score grows, and exhausts all
shift counts instead of using the selection rules, so fast path and oracle
share no algorithmic machinery, only the check of their arguments.  Its cost
is polynomial, so it is capped by work, not degree: a call whose scan would
try more than ``_BRUTE_WORK_LIMIT`` (target, shift count) pairs is refused.
"""

from __future__ import annotations

import math

import numpy as np

from .assignment import InstanceTooLargeError
from .estimators import EstimatorKind, unbiased_correction
from .graph import integral


# -- smooth sensitivity over segments ------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)


def _checked_arguments(sums, lengths, anchors, owners, count, kind, beta, p):
    # The kernel's and the oracle's arguments, checked alike: returns the
    # arrays as int64, ``count`` as an int and ``kind`` as an EstimatorKind.
    kind = EstimatorKind(kind)
    count = integral(count, "node count")
    if count < 0:
        raise ValueError(f"the node count must be non-negative, got {count}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and positive, got {beta}")
    if kind is EstimatorKind.UNBIASED and not (p is not None and 0.0 <= p < 1.0):
        raise ValueError("the unbiased estimator needs p in [0,1)")
    arrays = {"sums": sums, "lengths": lengths, "anchors": anchors, "owners": owners}
    for name, array in arrays.items():
        array = np.asarray(array)
        if array.dtype.kind not in "iu" or not np.can_cast(array.dtype, np.int64):
            raise ValueError(f"{name} must be an integer array within int64, got {array.dtype}")
        arrays[name] = array.astype(np.int64, copy=False)
    sums, lengths, anchors, owners = arrays.values()
    if not len(lengths) == len(anchors) == len(owners):
        raise ValueError(
            f"expected one length, anchor and owner per segment, got "
            f"{len(lengths)}, {len(anchors)} and {len(owners)}"
        )
    if len(lengths) and lengths.min() < 1:
        raise ValueError("every segment needs at least one partial sum")
    if lengths.sum() != len(sums):
        raise ValueError(f"the segments hold {lengths.sum()} partial sums, got {len(sums)}")
    if len(owners) and not (0 <= owners.min() and owners.max() < count):
        raise ValueError(f"owner ids must lie in [0, {count})")
    if len(anchors) and anchors.max() == _INT64_MAX:  # anchors + 1 is a target too
        raise ValueError(f"anchors must lie below {_INT64_MAX}")
    return sums, lengths, anchors, owners, count, kind


# A chunk of segments closes once its partial sums reach this many, or sooner
# if its keys would leave int64; a longer segment is a chunk by itself.  A
# chunk's working memory grows with its sums and with their candidate
# targets, and the count bounds it on sparse graphs as well as on dense ones.
# Smaller chunks pay NumPy's per-call overhead more often: on a 120k-triangle
# graph (2 vCPU) 8,192 ran both smooth methods about a third faster than
# 2,048 at the same peak memory, and 32,768 added 8 MB to it.
SENSITIVITY_FLUSH_SIZE = 8192

# Shift costs below this read e^{-beta n} from a table; larger ones (values
# far from their target) are evaluated one at a time.
_EXP_TABLE_SIZE = 1 << 16


class _NegExp:
    """``math.exp(-beta * n)`` for arrays of non-negative integers n, bit for bit.

    ``np.exp`` may differ from ``math.exp`` in the last bit, so the values
    come from a table of ``math.exp`` results that grows on demand.
    """

    def __init__(self, beta: float):
        self.beta = beta
        self.table = np.ones(1)

    def __call__(self, n: np.ndarray) -> np.ndarray:
        top = int(n.max(initial=0))
        size = len(self.table)
        if size <= top and size < _EXP_TABLE_SIZE:
            size = min(max(top + 1, 2 * size), _EXP_TABLE_SIZE)
            self.table = np.array([math.exp(-self.beta * i) for i in range(size)])
        if top < size:
            return self.table[n]
        out = np.empty(n.shape)
        small = n < size
        out[small] = self.table[n[small]]
        out[~small] = [math.exp(-self.beta * int(i)) for i in n[~small]]
        return out


def _reach(beta, longest, span):
    # reach[k], k in [0, longest]: the largest d < span with k/(k+1) <
    # math.exp(-beta * d), which does not grow with d; it shrinks with k, so
    # each k bisects below the last, and from the first 0 the table stays 0
    reach = np.zeros(longest + 1, dtype=np.int64)
    hi = span
    for k in range(longest + 1):
        lo = 0  # k/(k+1) < 1 = math.exp(0)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if k / (k + 1) < math.exp(-beta * mid) else (lo, mid)
        if not lo:
            break
        reach[k], hi = lo, lo + 1
    return reach


def _outer_walk(keys, t, lo, hi, start, end, shift, k, states, reach, neg_exp):
    # Per target t, keys[lo:hi] is already counted in k; walk outward over the
    # rest of the target's segment, nearest value first (the left one on a
    # tie).  State s = (cost, gain) shifts each value onto the target at
    # distance d = |v - t| - shift + s while the count-ratio rule keeps
    # improving: k -> k+1 helps iff k/(k+1) < e^{-beta d}, iff d <= reach[k];
    # the ratio increases and d never decreases, so a state stops at its first
    # failure, and a later state no later than state 0 (its mask ``on``).
    # One round takes one step of every target still walking.
    best = [np.zeros(len(t)) for _ in states]
    costs = [cost for cost, _ in states]
    on = [None] + [np.ones(len(t), dtype=bool) for _ in states[1:]]
    live = np.arange(len(t))
    i, j = lo - 1, hi
    last = len(keys) - 1
    while live.size:
        # a side with no value left is too far for any rule
        dl = np.where(i >= start, t - keys[np.maximum(i, 0)], _INT64_MAX)
        dr = np.where(j < end, keys[np.minimum(j, last)] - t, _INT64_MAX)
        go_left = dl <= dr
        d = np.minimum(dl, dr) - shift
        slack = reach[k] - d
        keep = np.flatnonzero(slack >= 0)
        live, t, start, end, go_left, d = (a[keep] for a in (live, t, start, end, go_left, d))
        k = k[keep] + 1
        i = i[keep] - go_left
        j = j[keep] + ~go_left
        for s, (_, gain) in enumerate(states):
            costs[s] = cost = costs[s][keep]
            if s:
                on[s] = on[s][keep] & (slack[keep] >= s)
                cost += (d + s) * on[s]
                score = gain * k * neg_exp(cost) * on[s]
            else:
                cost += d
                score = gain * k * neg_exp(cost)
            best[s][live] = np.maximum(best[s][live], score)
    return best


def _stationary_best(a, n, slope, inv_beta, neg_exp):
    # Best (a + slope*k) e^{-beta k} over shift counts k in [0, n]: the ends
    # and the two integers around the stationary point 1/beta - a/slope.
    stat = inv_beta - a / slope
    best = a + 0.0  # k = 0
    for k in (n, np.clip(np.floor(stat), 0, n), np.clip(np.ceil(stat), 0, n)):
        k = k.astype(np.int64, copy=False)
        np.maximum(best, (a + slope * k) * neg_exp(k), out=best)
    return best


def _walk_table(reach, neg_exp, rate):
    # table[k], k in [0, cap] with cap the number of nonzero reach entries:
    # the largest (k + j) e^{-beta rate j} over the step counts j >= 1 of a
    # walk from count k, and 0 at cap.  A step from count k needs reach[k] >= 1,
    # so k + j <= cap, and a step of state s costs at least 1 + s = rate.  It is
    # e^{beta rate k} times the largest m e^{-beta rate m} over m in (k, cap],
    # one suffix maximum; beta rate k < 2 below cap, so no factor underflows.
    cap = int(np.count_nonzero(reach))
    m = np.arange(cap + 1)
    tail = np.maximum.accumulate((m * neg_exp(rate * m))[::-1])[::-1]
    table = np.zeros(cap + 1)
    table[:-1] = tail[1:] / neg_exp(rate * m[:-1])
    return table


class _CountScores:
    """A target's cheap exact candidate and walk bound, before its discount,
    from its counts alone: ``on`` values on it and, for the unbiased
    estimator, ``adj`` next to it, neither above the call's longest segment.

    One per call.  Where the grid of every (on, adj) (every on alone for the
    biased estimator, whose adj is 0) has no more cells than the call has
    partial sums, both are scored once per cell and each target gathers its
    cell; otherwise each target is scored itself.  Both paths run ``score``,
    elementwise, on the same integers, so they agree bit for bit.
    """

    def __init__(self, kind, x, beta, tables, neg_exp, longest, size):
        self.x, self.inv_beta, self.tables, self.neg_exp = x, 1.0 / beta, tables, neg_exp
        self.side = 1 if kind is EstimatorKind.BIASED else longest + 1
        cells = (longest + 1) * self.side
        self.grid = self.score(*np.divmod(np.arange(cells), self.side)) if cells <= size else None

    def score(self, on, adj):
        # The biased candidate is the count on the target; the unbiased ones
        # are the two stationary-point scores, where in the positive
        # contribution adjacent values give +x and on-target ones -1-2x, and in
        # the negative one on-target values give +1+2x and adjacent ones -x.
        # After j steps of a walk from count k = on + adj, state s = (cost,
        # gain) scores at most gain (k + j) e^{-beta (cost + (1 + s) j)} <=
        # gain e^{-beta cost} tables[s][k], 0 from k = cap on; the biased
        # walk's one state costs 0 with gain 1, the unbiased walk's two cost
        # on and adj with gains x and 1+2x.
        tables, neg_exp = self.tables, self.neg_exp
        k = np.minimum(on + adj, len(tables[0]) - 1)
        if len(tables) == 1:
            return on.astype(float), tables[0][k]
        x, big, slope = self.x, 1.0 + 2.0 * self.x, 1.0 + 3.0 * self.x
        cand = np.maximum(
            _stationary_best(adj * x - on * big, on, slope, self.inv_beta, neg_exp),
            _stationary_best(big * on - x * adj, adj, slope, self.inv_beta, neg_exp),
        )
        bound = np.maximum(x * neg_exp(on) * tables[0][k], big * neg_exp(adj) * tables[1][k])
        return cand, bound

    def __call__(self, on, adj):
        # per target: (candidate, walk bound)
        if self.grid is None:
            return self.score(on, adj)
        cell = on * self.side + adj
        return tuple(a[cell] for a in self.grid)


# A walk is skipped only if its bound, raised by these margins, is at most its
# owner's best.  Bound and scores are products of a few rounded factors, each
# within about 1e-13 of exact (math.exp of at least -745), which the relative
# margin covers; below the smallest normal double products lose that
# precision, and the absolute margin walks every target of such an owner.
_BOUND_RELATIVE = 1e-9
_BOUND_ABSOLUTE = float(np.finfo(float).tiny)


def _target_counts(keys, hist, anchors, kind):
    # Every candidate target t of a chunk, ascending and distinct: each key,
    # for the unbiased estimator also the cells next to it, and each segment's
    # initial targets ``anchors`` and ``anchors + 1``.  Returns t with the
    # count of keys on each target (on) and, for the unbiased estimator, next
    # to it (adj; 0 for the biased estimator).  They come from ``hist``, the
    # keys' histogram over the chunk's cells, where there is one, and
    # otherwise from ``keys``, sorted; both give the same arrays.
    unbiased = kind is EstimatorKind.UNBIASED
    if hist is not None:
        occupied = hist > 0
        mark = occupied.copy()
        if unbiased:
            mark[1:] |= occupied[:-1]
            mark[:-1] |= occupied[1:]
        mark[anchors] = mark[anchors + 1] = True
        t = np.flatnonzero(mark)
        return t, hist[t], hist[t - 1] + hist[t + 1] if unbiased else 0
    head = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    u = keys[head]  # the distinct keys; run q is keys[head[q]:head[q + 1]]
    near = (u - 1, u, u + 1) if unbiased else (u,)
    t = np.concatenate((*near, anchors, anchors + 1))
    t.sort()
    t = t[np.concatenate(([True], t[1:] != t[:-1]))]
    # every distinct key is a target, at ``at``; for the unbiased estimator
    # so are its neighbours, which are then the targets just before and after
    at = np.searchsorted(t, u)
    run = np.diff(head, append=len(keys))
    on = np.zeros(len(t), dtype=np.int64)
    on[at] = run
    if not unbiased:
        return t, on, 0
    adj = np.zeros(len(t), dtype=np.int64)
    adj[at - 1] = run
    adj[at + 1] += run
    return t, on, adj


def _segment_maxima(keys, bounds, anchors, owners, best, span, kind, x, reach, neg_exp, counts):
    # ``keys`` holds seg * span + (c - offset of seg) for every partial sum c
    # of segment seg, the segments in order, so that each segment's keys lie
    # in its own span of cells; ``anchors`` is the key of each segment's
    # initial target for a +1 step (the one for a -1 step is one above).
    # Raises best[owners[i]] to the best discounted score of segment i, whose
    # sums are keys[bounds[i]:bounds[i + 1]] once sorted, over its candidate
    # targets: first the cheap exact candidates of every target, then the
    # outward walks of only those targets whose bound can beat their owner's
    # best so far.
    cells = len(anchors) * span
    # With few cells per key, as on dense graphs, one histogram of the keys
    # gives the targets and counts without a sort, and the keys are put in
    # order only for walks.  It costs a pass over the cells where the sorts
    # grow with the keys: on chunks of 8,192 sums in segments of 8 (2 vCPU)
    # the biased call took 1.4 ms by histogram against 1.1 ms sorted at 8
    # cells per key, 3.2 against 2.0 ms at 16, so the bound is half that
    # break-even.  The seed-5 ``scale-smooth`` graph has at most 5.4 cells
    # per key; there 28 of 30 chunks take the histogram, and the call fell
    # from 12.5 to 9.5 ms biased and from 15.9 to 9.4 ms unbiased.
    hist = np.bincount(keys, minlength=cells) if cells <= 4 * len(keys) else None
    if hist is None:
        keys.sort()
    t, on, adj = _target_counts(keys, hist, anchors, kind)
    seg = t // span
    theta = anchors[seg]
    discount = neg_exp(np.minimum(np.abs(t - theta), np.abs(t - theta - 1)))
    # every segment has targets (its initial ones), so its first is where seg steps
    first = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    cand, limit = counts(on, adj)
    cand *= discount
    np.maximum.at(best, owners, np.maximum.reduceat(cand, first))
    if kind is EstimatorKind.BIASED:
        k, shift, states = on, 0, [(np.zeros_like(t), 1.0)]
    else:
        k, shift, states = on + adj, 1, [(on, x), (adj, 1.0 + 2.0 * x)]
    # a target walks unless its bound, with the margins, is at most its
    # owner's best so far
    limit *= discount
    limit *= 1 + _BOUND_RELATIVE
    limit += _BOUND_ABSOLUTE
    walk = np.flatnonzero(~(limit <= best[owners[seg]]))
    if walk.size:
        if hist is not None:  # the walks read the keys in order
            keys = np.repeat(np.arange(cells), hist)
        # rebound to the walked targets, so that the full arrays are freed
        # before the walk allocates its own; keys[lo:lo + k] are the values
        # within the shift of the target
        t, seg, k, discount = (a[walk] for a in (t, seg, k, discount))
        lo = np.searchsorted(keys, t - shift)
        scores = _outer_walk(
            keys, t, lo, lo + k, bounds[seg], bounds[seg + 1], shift, k,
            [(cost[walk], gain) for cost, gain in states], reach, neg_exp,
        )
        np.maximum.at(best, owners[seg], np.maximum.reduce(scores) * discount)


def segment_smooth_sensitivities(
    sums: np.ndarray,
    lengths: np.ndarray,
    anchors: np.ndarray,
    owners: np.ndarray,
    count: int,
    kind: EstimatorKind,
    beta: float,
    p: float | None,
) -> np.ndarray:
    """beta-smooth sensitivity of ``count`` nodes from their segments, in one pass.

    A segment is the partial sums of one (node, incident edge): segment i
    holds the next ``lengths[i]`` (at least one) values of ``sums``, its
    initial target for a +1 step is ``anchors[i]`` (lam - 1 - the edge's
    weight) and it belongs to node ``owners[i]`` in [0, count); the segments
    may come in any order.  ``kind`` is an ``EstimatorKind`` or its name, and
    the unbiased estimator needs ``p`` in [0, 1).  Returns one float per node:
    its largest segment score, 0 without segments.  A node's value reads its
    own segments only and is bit-identical however the segments are ordered
    or grouped with other nodes'.  Arrays that are not integer or do not
    match, a count that is not a non-negative integer, an anchor at the int64
    maximum, a beta that is not finite and positive, and sums too spread for
    int64 keys raise ValueError.  The method is described in the module
    docstring.
    """
    sums, lengths, anchors, owners, count, kind = _checked_arguments(
        sums, lengths, anchors, owners, count, kind, beta, p
    )
    best = np.zeros(count)
    if not len(lengths):
        return best
    x = unbiased_correction(p) if kind is EstimatorKind.UNBIASED else 0.0
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    # Each segment is offset by its own low end, so only the widest
    # segment, not the spread between segments, sets the key span.
    low = np.minimum(np.minimum.reduceat(sums, bounds[:-1]), anchors)
    high = np.maximum(np.maximum.reduceat(sums, bounds[:-1]), anchors + 1)
    width = high - low  # wraps below 0 when a segment spans 2^63 or more
    span = int(width.max()) + 5  # room for the targets c-1 and c+1
    # A walk's first step is at most span long; every later one is shorter
    # than ln(2)/beta, or k/(k+1) >= 1/2 stops it.  So no cost overflows.
    later = math.log(2.0) / beta  # inf for a subnormal beta
    step = span if later >= span else math.floor(later) + 1
    longest = int(lengths.max())
    if width.min() < 0 or (longest + 1) * step + span > _INT64_MAX:
        raise ValueError("partial sums and thresholds spread too wide for int64")
    anchors = anchors - low + 2
    reach = _reach(beta, longest, span)
    neg_exp = _NegExp(beta)
    states = 1 if kind is EstimatorKind.BIASED else 2
    tables = [_walk_table(reach, neg_exp, 1 + s) for s in range(states)]
    counts = _CountScores(kind, x, beta, tables, neg_exp, longest, len(sums))
    per_chunk = _INT64_MAX // span  # segments whose keys fit in int64
    a = 0
    while a < len(lengths):
        full = int(np.searchsorted(bounds, bounds[a] + SENSITIVITY_FLUSH_SIZE))
        b = min(full, a + per_chunk, len(lengths))
        base = np.arange(b - a) * span
        # c - low is in [0, width], so no step leaves int64
        keys = sums[bounds[a]:bounds[b]] - np.repeat(low[a:b], lengths[a:b])
        keys += np.repeat(base + 2, lengths[a:b])
        _segment_maxima(
            keys, bounds[a:b + 1] - bounds[a], base + anchors[a:b], owners[a:b], best, span,
            kind, x, reach, neg_exp, counts,
        )
        a = b
    return best


# -- brute-force oracle --------------------------------------------------------


def _brute_anchor(c: list[int], theta: int, value) -> float:
    # Best value(t) over all integer targets t, from those within 2 of the
    # values and theta: past them (two past for the unbiased estimator, so no
    # value is on t or next to it) a step outward adds 1 to every shift
    # distance and to the discount's exponent and keeps every gain >= 0, so
    # value(t) never grows outward, bit for bit too, as math.exp is monotone.
    lo, hi = min(c[0], theta), max(c[-1], theta)
    return max(0.0, *map(value, range(lo - 2, hi + 3)))


def _brute_biased_value(c: list[int], t: int, theta: int, beta: float) -> float:
    dists = sorted(abs(v - t) for v in c)
    dz = abs(t - theta)
    best = 0.0
    acc = 0
    for k, d in enumerate(dists, 1):
        acc += d
        best = max(best, k * math.exp(-beta * (acc + dz)))
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


# The oracle refuses a call whose scan may try more (target, shift count)
# pairs than this (``_brute_work``).  Every node of a 180-node p = 0.5 graph
# with the benchmark's weights needs at most 9.1M.  The oracle gets through
# about 2M counted pairs a second (biased) and 5M (unbiased) on a 2-vCPU host
# under CPython 3.11, so a call at the limit takes some 6 to 15 s.
_BRUTE_WORK_LIMIT = 3 * 10**7


def _brute_work(sums, lengths, anchors, kind) -> int:
    # An upper bound on the (target, shift count) pairs the oracle tries: per
    # segment of L sums and initial target theta, its window of targets times
    # L + 1 shift counts (biased) or (L + 1)^2, which bounds the unbiased
    # estimator's two grids (on + 1)(P + 1) + (adj + 1)(P + 1), P = L - on - adj.
    if not len(lengths):
        return 0
    heads = np.cumsum(lengths) - lengths
    lows = np.minimum.reduceat(sums, heads).tolist()
    highs = np.maximum.reduceat(sums, heads).tolist()
    work = 0
    for lo, hi, length, anchor in zip(lows, highs, lengths.tolist(), anchors.tolist()):
        grid = length + 1 if kind is EstimatorKind.BIASED else (length + 1) ** 2
        for theta in (anchor, anchor + 1):
            work += (max(hi, theta) - min(lo, theta) + 5) * grid
    return work


def smooth_sensitivity_bruteforce(
    sums: np.ndarray, lengths: np.ndarray, anchors: np.ndarray, owners: np.ndarray,
    count: int, kind: EstimatorKind, beta: float, p: float | None,
) -> np.ndarray:
    """Exact smooth sensitivity by exhaustive target scan, with the arguments
    and result of ``segment_smooth_sensitivities``.

    Independent of the fast algorithms: for each segment, read as its sorted
    sums, every integer target within 2 of the values and the initial targets
    ``anchors[i]`` and ``anchors[i] + 1`` (see ``_brute_anchor``) is
    evaluated, and all shift-count combinations are enumerated outright.  A
    call past ``_BRUTE_WORK_LIMIT`` such pairs over all its segments raises
    ``InstanceTooLargeError``.
    """
    sums, lengths, anchors, owners, count, kind = _checked_arguments(
        sums, lengths, anchors, owners, count, kind, beta, p
    )
    work = _brute_work(sums, lengths, anchors, kind)
    if work > _BRUTE_WORK_LIMIT:
        raise InstanceTooLargeError(
            f"brute-force oracle is capped at {_BRUTE_WORK_LIMIT:,} target and "
            f"shift-count pairs, this instance needs {work:,}"
        )
    x = unbiased_correction(p) if kind is EstimatorKind.UNBIASED else 0.0
    best = [0.0] * count
    ends = np.cumsum(lengths).tolist()
    segments = zip(ends, lengths.tolist(), anchors.tolist(), owners.tolist())
    for end, length, anchor, owner in segments:
        c = sorted(sums[end - length:end].tolist())
        # the initial targets of a +1 step on this edge and of a -1 step
        for theta in (anchor, anchor + 1):
            if kind is EstimatorKind.BIASED:
                value = lambda t: _brute_biased_value(c, t, theta, beta)
            else:
                value = lambda t: _brute_unbiased_value(c, t, theta, x, beta)
            best[owner] = max(best[owner], _brute_anchor(c, theta, value))
    return np.array(best, dtype=float)
