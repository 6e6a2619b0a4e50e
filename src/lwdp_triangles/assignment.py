"""Triangle-to-node assignment minimizing shared-noisy-edge covariance pairs.

Each triangle is assigned to one of its nodes; the edge opposite that node
is the "noisy" edge whose privatized weight the node will consume.  Two
assigned triangles sharing their noisy edge form a covariance pair, and the
number of such pairs is sum_e C(l(e), 2) over the edge loads l(e).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .graph import Triangle, WeightedGraph, enumerate_triangles, make_triangle


class InstanceTooLargeError(ValueError):
    """Raised when an exhaustive-search helper is asked for an oversized instance."""


@dataclass(frozen=True)
class Assignment:
    """Mapping from triangles to responsible nodes plus the per-edge load table.

    ``rows`` holds the same triangles as an int32 array of (owner, y, z)
    rows, with y < z the owner's two neighbours in the triangle, sorted by
    owner and then by triangle.
    """

    rho: dict[Triangle, int]
    loads: dict[tuple[int, int], int]
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sum(self.loads.values()) != len(self.rho):
            raise ValueError("edge loads must sum to the number of assigned triangles")
        count = len(self.rho)
        rows = np.fromiter(itertools.chain.from_iterable(self.rho), np.int32, 3 * count)
        rows = rows.reshape(count, 3)
        owner = np.fromiter(self.rho.values(), np.int32, count)
        order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0], owner))
        rows, owner = rows[order], owner[order]
        # (a, b, c) ascending becomes (owner, y, z): y is a unless the owner
        # is a, z is c unless the owner is c
        y = np.where(rows[:, 0] == owner, rows[:, 1], rows[:, 0])
        rows[:, 2] = np.where(rows[:, 2] == owner, rows[:, 1], rows[:, 2])
        rows[:, 1] = y
        rows[:, 0] = owner
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def triangles_of(self, node: int) -> tuple[Triangle, ...]:
        lo, hi = np.searchsorted(self.rows[:, 0], (node, node + 1))
        return tuple(make_triangle(*row) for row in self.rows[lo:hi].tolist())

    def load(self, edge: tuple[int, int]) -> int:
        return self.loads.get(edge, 0)

    def noisy_edge(self, t: Triangle) -> tuple[int, int]:
        return t.opposite_edge(self.rho[t])

    def squared_load(self) -> int:
        return sum(l * l for l in self.loads.values())


def count_c4_instances(assignment: Assignment) -> int:
    """Number of triangle pairs sharing a noisy edge: sum_e l(e)(l(e)-1)/2."""
    return sum(l * (l - 1) // 2 for l in assignment.loads.values())


def greedy_assign(
    graph: WeightedGraph, triangles: Sequence[Triangle] | None = None
) -> Assignment:
    """Greedy load balancing, linear in the number of triangles.

    Triangles are processed in canonical sorted order; each one picks its
    currently least-loaded edge (ties broken by lowest canonical edge) and
    is assigned to the node opposite that edge.
    """
    if triangles is None:
        triangles = enumerate_triangles(graph)
    loads: dict[tuple[int, int], int] = {}
    rho: dict[Triangle, int] = {}
    get = loads.get
    for t in triangles:
        # min() over the three (load, edge) pairs applies the documented tie-break.
        _, edge = min((get(e, 0), e) for e in t.edges())
        rho[t] = t.opposite_node(edge)
        loads[edge] = get(edge, 0) + 1
    return Assignment(rho, loads)


def assignment_from_choices(
    triangles: Sequence[Triangle], choices: Iterable[tuple[int, int]]
) -> Assignment:
    """Build an Assignment from an explicit noisy-edge choice per triangle."""
    loads: dict[tuple[int, int], int] = {}
    rho: dict[Triangle, int] = {}
    for t, edge in zip(triangles, choices):
        rho[t] = t.opposite_node(edge)
        loads[edge] = loads.get(edge, 0) + 1
    return Assignment(rho, loads)


def brute_force_optimal_assign(
    graph: WeightedGraph, triangles: Sequence[Triangle] | None = None
) -> tuple[Assignment, int]:
    """Globally optimal assignment by exhaustion over all 3^|triangles| choices.

    Returns the optimum together with its squared-l2 load.  Minimizing the
    squared load also minimizes the covariance-pair count, since the loads
    always sum to the triangle count.  Capped at 12 triangles.
    """
    if triangles is None:
        triangles = enumerate_triangles(graph)
    if len(triangles) > 12:
        raise InstanceTooLargeError(
            f"exhaustive assignment is capped at 12 triangles, got {len(triangles)}"
        )
    best_choices: tuple[tuple[int, int], ...] | None = None
    best_sq = None
    for choices in itertools.product(*(t.edges() for t in triangles)):
        loads: dict[tuple[int, int], int] = {}
        for edge in choices:
            loads[edge] = loads.get(edge, 0) + 1
        sq = sum(l * l for l in loads.values())
        if best_sq is None or sq < best_sq:
            best_sq = sq
            best_choices = choices
    if best_choices is None:
        return Assignment({}, {}), 0
    return assignment_from_choices(triangles, best_choices), int(best_sq)
