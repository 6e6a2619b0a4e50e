"""Static sorted-array indexes answering k-th-closest-distance queries to a target.

``DoubleTargetIndex`` measures distances to the pair {t-1, t+1}; the
single-target variant measures plain distance to t.  Both partition the
backing array into five regions around t-1, t, t+1 via four indices and
answer k-th distance / sum-of-k-smallest-distances queries with binary
searches over the two outer regions, using prefix sums.  Initialization is
O(n); every query and target update is O(log n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Sequence


class _TargetIndexBase:
    # Subclasses fix the distance semantics through three hooks:
    #   _zero_count / _unit_count: how many points sit at distance 0 / 1,
    #   _left_anchor / _right_anchor: reference points for the outer regions.

    def __init__(self, values: Sequence[int], target: int):
        self._p = sorted(int(v) for v in values)
        self._a = [0] + list(accumulate(self._p))  # a[i] = sum of p[:i]
        self._n = len(self._p)
        self.update_target(target)

    @property
    def size(self) -> int:
        return self._n

    @property
    def target(self) -> int:
        return self._t

    def update_target(self, target: int) -> None:
        """Recompute the region indices around the new target (binary searches)."""
        t = int(target)
        self._t = t
        p = self._p
        self._l0 = bisect_left(p, t - 1)
        self._l1 = bisect_right(p, t - 1)
        self._r0 = bisect_left(p, t + 1)
        self._r1 = bisect_right(p, t + 1)

    def adopt_regions(self, other: "_TargetIndexBase") -> None:
        """Copy target and region indices from a sibling over the same array.

        Valid only when both indexes were built from identical values; the
        region boundaries depend on the array and target alone, not on the
        distance semantics.
        """
        self._t = other._t
        self._l0 = other._l0
        self._l1 = other._l1
        self._r0 = other._r0
        self._r1 = other._r1

    @property
    def min_outer_distance(self) -> int:
        """Smallest distance any outer-region point can have (1 or 2)."""
        left_anchor, right_anchor = self._anchors()
        return min(left_anchor - (self._t - 2), (self._t + 2) - right_anchor)

    # region counts: points equal to t-1 / t / t+1, and the outer regions

    @property
    def on_low(self) -> int:
        return self._l1 - self._l0

    @property
    def on_target(self) -> int:
        return self._r0 - self._l1

    @property
    def on_high(self) -> int:
        return self._r1 - self._r0

    @property
    def near_count(self) -> int:
        """Points at t-1, t or t+1: zero_count + unit_count in both variants."""
        return self._r1 - self._l0

    @property
    def outer_left(self) -> int:
        return self._l0

    @property
    def outer_right(self) -> int:
        return self._n - self._r1

    @property
    def zero_count(self) -> int:
        raise NotImplementedError

    @property
    def unit_count(self) -> int:
        raise NotImplementedError

    def _anchors(self) -> tuple[int, int]:
        raise NotImplementedError

    # outer-region order statistics (distances are >= 1 in both variants)

    def _left_dist(self, j: int) -> int:
        # j-th smallest distance among points below t-1 (j >= 1)
        left_anchor, _ = self._anchors()
        return left_anchor - self._p[self._l0 - j]

    def _right_dist(self, j: int) -> int:
        _, right_anchor = self._anchors()
        return self._p[self._r1 + j - 1] - right_anchor

    def _left_prefix(self, j: int) -> int:
        left_anchor, _ = self._anchors()
        return j * left_anchor - (self._a[self._l0] - self._a[self._l0 - j])

    def _right_prefix(self, j: int) -> int:
        _, right_anchor = self._anchors()
        return (self._a[self._r1 + j] - self._a[self._r1]) - j * right_anchor

    def _check_k(self, k: int) -> None:
        if not (1 <= k <= self._n):
            raise IndexError(f"k = {k} out of range for {self._n} points")

    def kth_distance(self, k: int) -> int:
        """k-th smallest distance over all stored points (1-indexed)."""
        self._check_k(k)
        if k <= self.zero_count:
            return 0
        if k <= self.zero_count + self.unit_count:
            return 1
        kp = k - self.zero_count - self.unit_count
        nl, nr = self.outer_left, self.outer_right
        lo, hi = max(0, kp - nr), min(kp, nl)
        # max(left(l), right(kp-l)) is unimodal: left nondecreasing, right nonincreasing
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            dl = self._left_dist(mid) if mid else 0
            dr = self._right_dist(kp - mid) if kp - mid else 0
            if dl >= dr:
                b = mid
            else:
                a = mid + 1
        best = None
        for l in (a - 1, a):
            if lo <= l <= hi:
                dl = self._left_dist(l) if l else 0
                dr = self._right_dist(kp - l) if kp - l else 0
                cand = max(dl, dr)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        return best

    def sum_k_distances(self, k: int) -> int:
        """Sum of the k smallest distances (prefix sums over the outer regions)."""
        self._check_k(k)
        if k <= self.zero_count:
            return 0
        if k <= self.zero_count + self.unit_count:
            return k - self.zero_count
        kp = k - self.zero_count - self.unit_count
        nl, nr = self.outer_left, self.outer_right
        lo, hi = max(0, kp - nr), min(kp, nl)
        # prefix_l(l) + prefix_r(kp-l) is discretely convex in l
        a, b = lo, hi
        while a < b:
            mid = (a + b) // 2
            step = self._left_dist(mid + 1) - self._right_dist(kp - mid)
            if step >= 0:
                b = mid
            else:
                a = mid + 1
        best = None
        for l in (a - 1, a, a + 1):
            if lo <= l <= hi:
                cand = self._left_prefix(l) + self._right_prefix(kp - l)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        return self.unit_count + best


class DoubleTargetIndex(_TargetIndexBase):
    """Distances d_t(x) = min(|x-(t-1)|, |x-(t+1)|) to the target pair."""

    @property
    def zero_count(self) -> int:
        return self.on_low + self.on_high

    @property
    def unit_count(self) -> int:
        return self.on_target

    def _anchors(self) -> tuple[int, int]:
        return self._t - 1, self._t + 1


class SingleTargetIndex(_TargetIndexBase):
    """Plain distances |x - t| to the target itself."""

    @property
    def zero_count(self) -> int:
        return self.on_target

    @property
    def unit_count(self) -> int:
        return self.on_low + self.on_high

    def _anchors(self) -> tuple[int, int]:
        return self._t, self._t
