"""Dataset ingestion, synthetic graphs, and the sweep harness behind the error tables.

The sweep pairs seeds across methods (every method sees the same step-1
noise where the budgets coincide) and emits one CSV column of mean relative
error per method, mirroring the figure-data schema: the baseline column is
named ``naive_l2_rel`` and each protocol variant ``<method>_l2_rel`` with
dashes replaced by underscores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import WeightedGraph, canonical_edge, check_threshold
from .mechanisms import PrivacyBudget, RandomSource
from .estimators import EstimatorKind
from .protocol import Baseline, Mechanism, TrialInstance, TwoStep, run_methods

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
        for u, v in graph.edges():
            handle.write(f"{u} {v} {graph.weight(u, v)}\n")


def milan_scale_weights(intensities: Sequence[float], total_calls: int) -> list[int]:
    """Integerize interaction intensities to weights w_e = L * I_e / sum(I).

    Largest-remainder rounding keeps the weights integral with an exact sum
    of ``total_calls``.  Intensities must be strictly positive.
    """
    if any(i <= 0 for i in intensities):
        raise ValueError("intensities must be strictly positive")
    total_intensity = float(sum(intensities))
    if total_intensity <= 0:
        raise ValueError("intensity sum must be positive")
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

    Weights are uniform over ``weight_range`` unless a categorical
    distribution (``weight_values``/``weight_probs``) is given, which is how
    threshold-heavy regimes (mass piled just below the threshold) are built.
    """
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must lie in [0,1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    edges = []
    lo, hi = weight_range
    for u in range(node_count):
        for v in range(u + 1, node_count):
            if rng.random() < density:
                if weight_values is not None:
                    w = int(rng.choice(np.asarray(weight_values), p=weight_probs))
                else:
                    w = int(rng.integers(lo, hi + 1))
                edges.append((u, v, w))
    return WeightedGraph(node_count, edges)


def induced_subgraph(graph: WeightedGraph, nodes: Iterable[int]) -> WeightedGraph:
    """Subgraph induced by ``nodes``, relabeled to dense ids (sorted order)."""
    kept = sorted(set(nodes))
    relabel = {v: i for i, v in enumerate(kept)}
    edges = []
    for u, v in graph.edges():
        if u in relabel and v in relabel:
            edges.append((relabel[u], relabel[v], graph.weight(u, v)))
    return WeightedGraph(len(kept), edges)


def sample_induced_subgraph(graph: WeightedGraph, node_count: int, seed: int) -> WeightedGraph:
    """Uniformly sampled vertex subset of fixed size, then the induced subgraph."""
    if not (0 <= node_count <= graph.node_count):
        raise ValueError("subgraph size out of range")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kept = rng.choice(graph.node_count, size=node_count, replace=False)
    return induced_subgraph(graph, (int(v) for v in kept))


def default_lambda(weights: Sequence[int] | np.ndarray, quantile: float = 0.9) -> int:
    """Smallest threshold with at least ``quantile`` of the triangle
    ``weights`` strictly below it."""
    if not len(weights):
        return 1
    ordered = np.sort(np.asarray(weights, dtype=np.int64))
    idx = max(0, math.ceil(quantile * len(ordered)) - 1)
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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        for lam in self.values if self.axis == "lambda" else ():
            check_threshold(lam)
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
    mechanism = Mechanism.GLOBAL_LAPLACE if name.startswith("global") else Mechanism.SMOOTH
    kind = EstimatorKind.UNBIASED if name.endswith("unbiased") else EstimatorKind.BIASED
    return TwoStep(PrivacyBudget.even_split(epsilon), kind, mechanism)


def run_sweep(cfg: ExperimentConfig, graph: WeightedGraph) -> ErrorReport:
    """Mean relative error per (axis value, method) over paired-seed trials.

    The public work (triangle enumeration, assignment, every triangle's
    edge ids and the exact count) is one ``TrialInstance`` per axis point.
    Each trial runs every method through one ``run_methods`` call on the
    same random source, so methods that spend the same epsilon_1 read one
    shared step-1 release and method differences stay isolated.
    """
    rows = []
    for axis_idx, value in enumerate(sorted(cfg.values)):
        if cfg.axis == "size":
            g = sample_induced_subgraph(
                graph, int(value), seed=_derived_seed(cfg.seed, _SIZE_SAMPLE_TAG, axis_idx)
            )
        else:
            g = graph
        epsilon = float(value) if cfg.axis == "eps" else cfg.epsilon
        instance = TrialInstance(g)
        if cfg.axis == "lambda":
            lam = int(value)
        elif cfg.lam is not None:
            lam = cfg.lam
        else:
            lam = default_lambda(instance.weights)
        methods = [method_named(m, epsilon) for m in cfg.methods]
        exact = instance.exact_count(lam)
        sums = {m: 0.0 for m in cfg.methods}
        flagged = exact == 0
        for trial in range(cfg.trials):
            rng = RandomSource(cfg.seed).subsource(axis_idx, trial)
            reports = run_methods(instance, lam, methods, rng)
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
