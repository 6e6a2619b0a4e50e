"""Dataset ingestion, synthetic graphs, and the sweep harness behind the error tables.

The sweep pairs seeds across methods (every method sees the same step-1
noise where the budgets coincide) and emits one CSV column of mean relative
error per method, mirroring the figure-data schema: the baseline column is
named ``naive_l2_rel`` and each protocol variant ``<method>_l2_rel`` with
dashes replaced by underscores.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .assignment import greedy_assign
from .graph import (
    MAX_ABS_WEIGHT,
    WeightedGraph,
    canonical_edge,
    check_threshold,
    edge_id_sums,
    integral,
)
from .mechanisms import PrivacyBudget, RandomSource
from .protocol import Baseline, TwoStep, run_methods

METHODS = (
    "baseline",
    "global-biased",
    "global-unbiased",
    "smooth-biased",
    "smooth-unbiased",
)

_SIZE_SAMPLE_TAG = 9001


class EdgeListParseError(ValueError):
    """Malformed or structurally invalid edge-list input, with the offending line."""


def parse_edge_list(path) -> WeightedGraph:
    """Read whitespace-separated ``u v w`` lines into a graph with dense ids.

    Lines starting with ``#`` and blank lines are ignored.  External node
    ids may be sparse; they are relabeled in sorted order.  Self-loops and
    duplicate edges are rejected with their line numbers.
    """
    raw: list[tuple[int, int, int, int]] = []
    ids: set[int] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise EdgeListParseError(f"line {lineno}: expected 'u v w', got {text!r}")
            try:
                u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise EdgeListParseError(f"line {lineno}: non-integer field in {text!r}") from None
            if u == v:
                raise EdgeListParseError(f"line {lineno}: self-loop at node {u}")
            raw.append((lineno, u, v, w))
            ids.add(u)
            ids.add(v)
    relabel = {ext: i for i, ext in enumerate(sorted(ids))}
    seen: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, int]] = []
    for lineno, u, v, w in raw:
        key = canonical_edge(relabel[u], relabel[v])
        if key in seen:
            raise EdgeListParseError(
                f"line {lineno}: duplicate edge ({u},{v}), first seen on line {seen[key]}"
            )
        seen[key] = lineno
        edges.append((key[0], key[1], w))
    return WeightedGraph(len(relabel), edges)


def write_edge_list(graph: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for (u, v), w in zip(graph.edges(), graph.weight_array.tolist()):
            handle.write(f"{u} {v} {w}\n")


def milan_scale_weights(intensities: Sequence[float], total_calls: int) -> list[int]:
    """Integerize interaction intensities to weights w_e = L * I_e / sum(I).

    Largest-remainder rounding keeps the weights integral with an exact sum
    of ``total_calls``.  Intensities must be finite and strictly positive.
    """
    if not all(math.isfinite(i) for i in intensities):
        raise ValueError("intensities must be finite")
    if any(i <= 0 for i in intensities):
        raise ValueError("intensities must be strictly positive")
    total_intensity = float(sum(intensities))
    if total_intensity <= 0:
        raise ValueError("intensity sum must be positive")
    total_calls = integral(total_calls, "total call count")
    if total_calls < 0:
        raise ValueError("total call count must be nonnegative")
    raw = [total_calls * i / total_intensity for i in intensities]
    floors = [math.floor(r) for r in raw]
    leftover = total_calls - sum(floors)
    # ties broken by lowest index for determinism
    order = sorted(range(len(raw)), key=lambda i: (floors[i] - raw[i], i))
    out = list(floors)
    for i in order[:leftover]:
        out[i] += 1
    return out


# most raw words read per chunk of the generator walk: 512 KiB, so a large
# graph never holds its whole stream of 8-byte words at once
_RAW_CHUNK = 1 << 16
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53
_MASK32 = 0xFFFFFFFF


class _RawWalk:
    """Cursor over a PCG64 generator's raw 64-bit words, read in chunks.

    Draws what numpy's ``Generator`` draws from the same words:
    ``next_double`` is ``(word >> 11) * 2^-53``; ``next_uint32`` hands out
    the low half of a fresh word and keeps the high half for its next call
    (a kept half survives any number of doubles in between); ``bounded``
    is ``random_bounded_uint64`` for one value, Lemire's method with
    rejection.  ``next_edge`` reads the pair tests ``next_double <
    density``, which are evaluated for a whole chunk at once.
    """

    def __init__(self, bit_generator, density: float, pairs: int):
        self._bit_generator = bit_generator
        self._density = density
        self._pairs = pairs
        self._tested = 0  # pair tests read
        self._words = np.empty(0, dtype=np.uint64)
        self._base = 0  # stream position of the chunk's first word
        self._pos = 0  # stream position of the next unread word
        self._hits: list[int] = []  # chunk offsets of passing pair tests
        self._hit = 0  # first entry of _hits not yet passed
        self._kept: int | None = None

    def _next_chunk(self) -> None:
        self._base += len(self._words)
        # no more words than pair tests are left, so a chunk never reaches
        # past the last pair's test: every passing double in it is a pair's
        # (or falls inside a weight draw), and a small graph reads no waste
        size = min(_RAW_CHUNK, max(self._pairs - self._tested, 1))
        self._words = self._bit_generator.random_raw(size)
        passing = (self._words >> np.uint64(11)) * _DOUBLE_UNIT < self._density
        self._hits = np.flatnonzero(passing).tolist()
        self._hit = 0

    def next_edge(self) -> int | None:
        """Row-major index of the next pair whose test passes, read along
        with the failed tests before it; None when every pair is tested."""
        while True:
            hits, i, offset = self._hits, self._hit, self._pos - self._base
            while i < len(hits) and hits[i] < offset:
                i += 1  # a passing double inside a weight draw
            if i < len(hits):
                edge = self._tested + hits[i] - offset
                self._tested = edge + 1
                self._pos = self._base + hits[i] + 1
                self._hit = i + 1
                return edge
            self._tested += len(self._words) - offset
            if self._tested >= self._pairs:
                return None
            self._pos = self._base + len(self._words)
            self._next_chunk()

    def next_uint64(self) -> int:
        if self._pos == self._base + len(self._words):
            self._next_chunk()
        word = self._words.item(self._pos - self._base)
        self._pos += 1
        return word

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _DOUBLE_UNIT

    def next_uint32(self) -> int:
        if self._kept is not None:
            half, self._kept = self._kept, None
            return half
        word = self.next_uint64()
        self._kept = word >> 32
        return word & _MASK32

    def bounded(self, span: int) -> int:
        """Uniform on [0, span], as ``Generator.integers(0, span + 1)``."""
        if span == 0:
            return 0
        if span == _MASK32:
            return self.next_uint32()
        next_word, bits = (self.next_uint32, 32) if span < _MASK32 else (self.next_uint64, 64)
        excl = span + 1
        mask = (1 << bits) - 1
        m = next_word() * excl
        if m & mask < excl:
            threshold = ((1 << bits) - excl) % excl
            while m & mask < threshold:
                m = next_word() * excl
        return m >> bits


def _weight_draw(weight_range, weight_values, weight_probs):
    """Validated weight arguments as one edge's draw from a ``_RawWalk``."""
    lo, hi = (integral(end, "weight_range end") for end in weight_range)
    if lo > hi:
        raise ValueError(f"weight_range {weight_range!r} has lo > hi")
    if max(abs(lo), abs(hi)) > MAX_ABS_WEIGHT:
        raise ValueError(f"weight_range {weight_range!r} leaves [-2^31, 2^31]")
    if weight_values is None:
        if weight_probs is not None:
            raise ValueError("weight_probs given without weight_values")
        return lambda walk: lo + walk.bounded(hi - lo)
    values = np.asarray(weight_values)
    if values.ndim != 1 or not values.size:
        raise ValueError("weight_values must be a nonempty 1-d sequence")
    values = [integral(v, "weight value") for v in values]
    if max(abs(v) for v in values) > MAX_ABS_WEIGHT:
        raise ValueError("weight_values must lie in [-2^31, 2^31]")
    if weight_probs is None:
        return lambda walk: values[walk.bounded(len(values) - 1)]
    probs = np.asarray(weight_probs, dtype=np.float64)
    if probs.shape != (len(values),):
        raise ValueError("weight_probs must have one probability per weight value")
    if np.isnan(probs).any() or (probs < 0).any():
        raise ValueError("weight_probs must be nonnegative numbers")
    # Generator.choice's tolerance, and its cdf with the last entry exactly 1
    if abs(math.fsum(probs) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("weight_probs must sum to 1")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    return lambda walk: values[bisect_right(cdf, walk.next_double())]


def generate_synthetic(
    node_count: int,
    density: float,
    weight_range: tuple[int, int] = (0, 8),
    seed: int = 0,
    *,
    weight_values: Sequence[int] | None = None,
    weight_probs: Sequence[float] | None = None,
) -> WeightedGraph:
    """Reproducible G(n, p) graph with integer weights.

    Weights are uniform over ``weight_range`` (ends inclusive, inside
    [-2^31, 2^31]) unless a categorical distribution (``weight_values``,
    optionally with ``weight_probs``) is given, which is how
    threshold-heavy regimes (mass piled just below the threshold) are built.

    The stream contract: ``default_rng(SeedSequence(seed))`` gives one
    double per node pair (u, v), u < v, in row-major order, and the pair is
    an edge when that double is below ``density``; each edge's weight is
    drawn right after its double, as ``rng.integers(lo, hi + 1)`` (values
    without probs: ``rng.choice(values)``) or ``rng.choice(values,
    p=probs)`` would draw it.  The graph is built by one walk over the
    generator's raw words that reproduces numpy's ``next_double``,
    ``next_uint32`` and Lemire sampling, so it is bit-identical to the
    per-pair loop while Python runs once per edge, not once per pair.
    """
    node_count = integral(node_count, "node_count")
    if node_count < 0:
        raise ValueError("node_count must be nonnegative")
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must lie in [0,1]")
    draw = _weight_draw(weight_range, weight_values, weight_probs)
    seed = integral(seed, "seed")
    bit_generator = np.random.default_rng(np.random.SeedSequence(seed)).bit_generator
    walk = _RawWalk(bit_generator, density, node_count * (node_count - 1) // 2)
    keys = array("q")  # row-major pair index of every edge, as int64
    weights: list[int] = []
    while (key := walk.next_edge()) is not None:
        keys.append(key)
        weights.append(draw(walk))
    rows = np.arange(node_count, dtype=np.int64)
    starts = rows * node_count - rows * (rows + 1) // 2  # first pair index of row u
    ks = np.frombuffer(keys, dtype=np.int64)
    us = np.searchsorted(starts, ks, side="right") - 1
    vs = ks - starts[us] + us + 1
    return WeightedGraph(node_count, zip(us.tolist(), vs.tolist(), weights))


def induced_subgraph(graph: WeightedGraph, nodes: Iterable[int]) -> WeightedGraph:
    """Subgraph induced by ``nodes``, relabeled to dense ids (sorted order);
    a fractional id or one outside [0, n) raises ``ValueError``."""
    kept = sorted({integral(v, "node id") for v in nodes})
    outside = [v for v in kept if not 0 <= v < graph.node_count]
    if outside:
        raise ValueError(f"node {outside[0]} is not in [0, {graph.node_count})")
    relabel = {v: i for i, v in enumerate(kept)}
    edges = []
    for (u, v), w in zip(graph.edges(), graph.weight_array.tolist()):
        if u in relabel and v in relabel:
            edges.append((relabel[u], relabel[v], w))
    return WeightedGraph(len(kept), edges)


def sample_induced_subgraph(graph: WeightedGraph, node_count: int, seed: int) -> WeightedGraph:
    """Uniformly sampled vertex subset of fixed size, then the induced subgraph."""
    if not (0 <= node_count <= graph.node_count):
        raise ValueError("subgraph size out of range")
    rng = np.random.default_rng(np.random.SeedSequence(integral(seed, "seed")))
    kept = rng.choice(graph.node_count, size=node_count, replace=False)
    return induced_subgraph(graph, (int(v) for v in kept))


def default_lambda(weights: Sequence[int] | np.ndarray) -> int:
    """Smallest threshold with at least 90% of the triangle ``weights``
    strictly below it."""
    if not len(weights):
        return 1
    ordered = np.sort(np.asarray(weights, dtype=np.int64))
    idx = max(0, math.ceil(0.9 * len(ordered)) - 1)
    return int(ordered[idx]) + 1


@dataclass(frozen=True)
class ExperimentConfig:
    axis: str
    values: tuple
    trials: int = 10
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    epsilon: float = 2.0
    lam: int | None = None

    def __post_init__(self):
        if self.axis not in ("eps", "lambda", "size"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.values:
            raise ValueError("axis values must be nonempty")
        object.__setattr__(self, "trials", integral(self.trials, "trial count"))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "seed", integral(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        for epsilon in self.values if self.axis == "eps" else (self.epsilon,):
            for m in self.methods:
                method_named(m, float(epsilon))
        for lam in self.values if self.axis == "lambda" else ():
            check_threshold(lam)
        if self.axis == "size":
            sizes = tuple(integral(size, "subgraph size") for size in self.values)
            if min(sizes) < 0:
                raise ValueError(f"subgraph size must be non-negative, got {min(sizes)}")
            object.__setattr__(self, "values", sizes)
        if self.lam is not None:
            check_threshold(self.lam)


@dataclass(frozen=True)
class ErrorRow:
    x: float
    mean_errors: dict[str, float]
    flagged: bool = False


@dataclass(frozen=True)
class ErrorReport:
    axis: str
    methods: tuple[str, ...]
    rows: tuple[ErrorRow, ...]

    def to_csv(self) -> str:
        header = "x," + ",".join(method_column(m) for m in self.methods)
        lines = [header]
        for row in self.rows:
            cells = [format(row.x, "g")]
            for m in self.methods:
                err = row.mean_errors[m]
                cells.append("nan" if math.isnan(err) else format(err, ".10g"))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def method_column(method: str) -> str:
    if method == "baseline":
        return "naive_l2_rel"
    return method.replace("-", "_") + "_l2_rel"


def method_named(name: str, epsilon: float) -> Baseline | TwoStep:
    """The method of ``METHODS`` called ``name``, at total budget ``epsilon``:
    the baseline spends it whole, the two-step methods half in each round."""
    if name == "baseline":
        return Baseline(epsilon)
    mechanism, kind = name.split("-")  # a Mechanism's and an EstimatorKind's value
    return TwoStep(PrivacyBudget.even_split(epsilon), kind, mechanism)


def run_sweep(cfg: ExperimentConfig, graph: WeightedGraph) -> ErrorReport:
    """Mean relative error per (axis value, method) over paired-seed trials.

    The public work (triangle enumeration, and the assignment with every
    triangle's edge ids and step-2 segments) is one ``greedy_assign`` for
    the whole sweep, or one per sampled subgraph of a size sweep.
    Each trial runs every method through one ``run_methods`` call on the
    same random source, so methods that spend the same epsilon_1 read one
    shared step-1 release and method differences stay isolated.
    """
    if cfg.axis != "size":
        assignment = greedy_assign(graph)
    elif max(cfg.values) > graph.node_count:
        size, n = max(cfg.values), graph.node_count
        raise ValueError(f"subgraph size {size} exceeds the graph's {n} nodes")
    rows = []
    for axis_idx, value in enumerate(sorted(cfg.values)):
        if cfg.axis == "size":
            g = sample_induced_subgraph(
                graph, int(value), seed=_derived_seed(cfg.seed, _SIZE_SAMPLE_TAG, axis_idx)
            )
            assignment = greedy_assign(g)
        epsilon = float(value) if cfg.axis == "eps" else cfg.epsilon
        if cfg.axis == "lambda":
            lam = int(value)
        elif cfg.lam is not None:
            lam = cfg.lam
        else:
            lam = default_lambda(edge_id_sums(assignment.graph.weight_array, assignment.edge_ids))
        methods = [method_named(m, epsilon) for m in cfg.methods]
        exact = assignment.exact_count(lam)
        sums = {m: 0.0 for m in cfg.methods}
        flagged = exact == 0
        for trial in range(cfg.trials):
            rng = RandomSource(cfg.seed).subsource(axis_idx, trial)
            reports = run_methods(assignment, lam, methods, rng)
            if not flagged:
                for m, report in zip(cfg.methods, reports):
                    sums[m] += abs(exact - report.estimate) / exact
        mean_errors = {
            m: (math.nan if flagged else sums[m] / cfg.trials) for m in cfg.methods
        }
        rows.append(ErrorRow(float(value), mean_errors, flagged))
    return ErrorReport(cfg.axis, tuple(cfg.methods), tuple(rows))


def _derived_seed(seed: int, tag: int, index: int) -> int:
    # stable, collision-free derivation for auxiliary sampling streams
    return (seed * 1_000_003 + tag) * 1_000_003 + index
