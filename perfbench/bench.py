"""Workloads, output checks and the measured trial loops of the benchmark.

The library is driven only through its public functions.  A workload seed
fixes the graph (``generate_synthetic(seed=...)``) and every trial's master
seed; a trial runs each method of the workload once with
``RandomSource(seed).subsource(0, trial)``, the pairing ``run_sweep`` uses.
The import of ``lwdp_triangles`` must resolve to the checkout's ``src/``
(``run.py`` and the tests arrange that).
"""

from __future__ import annotations

import itertools
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from lwdp_triangles import assignment as assignment_mod
from lwdp_triangles import experiments, graph as graph_mod, protocol
from lwdp_triangles.estimators import EstimatorKind
from lwdp_triangles.mechanisms import PrivacyBudget, RandomSource

from layertrace import COUNTED, TIMED, Tracer

LAM = 9
EPSILON = 2.0  # split evenly between the two rounds
WEIGHT_VALUES = (0, 1, 2, 3, 8)
WEIGHT_PROBS = (0.55, 0.2, 0.12, 0.08, 0.05)
ALL_METHODS = experiments.METHODS
# setup_s is the fastest of these set-ups: host noise only ever slows one down.
SETUPS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    density: float
    methods: tuple[str, ...]
    # Trials 0..error_trials-1 always run, so rel_error.mean is a fixed
    # function of the seed whatever the machine speed.
    error_trials: int


# Each workload isolates one layer (see README.md for the layer map).
WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-7 graph family: smooth sensitivity is ~80% of a trial.
        Workload("scale-smooth", 180, 0.5, ("smooth-unbiased", "smooth-biased"), 1),
        # Same graphs, no smooth sensitivity: per-triangle dict/tuple loops.
        Workload("scale-global", 180, 0.5, ("global-unbiased", "global-biased", "baseline"), 6),
        # Sparse, many nodes: per-node noise draws and substreams dominate.
        Workload("sparse-many", 3000, 0.006, ALL_METHODS, 3),
    )
}


@dataclass
class Setup:
    graph: graph_mod.WeightedGraph
    triangles: list
    assignment: assignment_mod.Assignment
    exact: int


def build_setup(w: Workload, seed: int) -> Setup:
    # Module-attribute calls, so a Tracer can rebind them.
    g = experiments.generate_synthetic(
        w.nodes, w.density, seed=seed, weight_values=WEIGHT_VALUES, weight_probs=WEIGHT_PROBS
    )
    triangles = graph_mod.enumerate_triangles(g)
    assignment = assignment_mod.greedy_assign(g, triangles)
    exact = graph_mod.exact_below_threshold_count(g, LAM, triangles)
    return Setup(g, triangles, assignment, exact)


# -- independent reference and output checks ----------------------------------


@dataclass(frozen=True)
class Reference:
    """Counts the benchmark derives itself from the edge list."""

    nodes: int
    edges: int
    triangles: int
    below: int


def independent_reference(g: graph_mod.WeightedGraph, lam: int) -> Reference:
    # Edge iterator over neighbour-set intersections; the library uses a
    # degree-ordered orientation instead, so the two share no algorithm.
    adj = [set() for _ in range(g.node_count)]
    weight = {}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
        weight[u, v] = g.weight(u, v)
    triangles = below = 0
    for (u, v), w_uv in weight.items():
        for x in adj[u] & adj[v]:
            if x > v:
                triangles += 1
                if w_uv + weight[u, x] + weight[v, x] < lam:
                    below += 1
    return Reference(g.node_count, len(weight), triangles, below)


def check_report(method: str, report, ref: Reference) -> list[str]:
    """Problems with one method run's report; empty when it passes."""
    problems = []
    if not math.isfinite(report.estimate):
        problems.append(f"{method}: non-finite estimate {report.estimate}")
    if report.exact_count != ref.below:
        problems.append(f"{method}: exact count {report.exact_count} != {ref.below}")
    two_step = method != "baseline"
    expected = (2 * ref.edges, ref.triangles if two_step else 0, ref.nodes if two_step else 0)
    t = report.tallies
    got = (t.uploads_step1, t.downloads, t.uploads_step2)
    if got != expected:
        problems.append(f"{method}: tallies {got} != {expected}")
    overspent = [v for v in range(ref.nodes) if not math.isclose(report.spent(v), EPSILON)]
    if overspent:
        problems.append(f"{method}: node {overspent[0]} spent {report.spent(overspent[0])}")
    return problems


class Outcomes:
    """Method runs attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems)


# -- trials ----------------------------------------------------------------


def run_method(method: str, setup: Setup, rng: RandomSource):
    if method == "baseline":
        return protocol.run_baseline(setup.graph, LAM, EPSILON, rng, triangles=setup.triangles)
    mechanism = (
        protocol.Mechanism.GLOBAL_LAPLACE if method.startswith("global") else protocol.Mechanism.SMOOTH
    )
    kind = EstimatorKind.UNBIASED if method.endswith("unbiased") else EstimatorKind.BIASED
    return protocol.run_two_step(
        setup.graph,
        LAM,
        PrivacyBudget.even_split(EPSILON),
        kind,
        mechanism,
        rng,
        triangles=setup.triangles,
        assignment=setup.assignment,
    )


def run_trial(w: Workload, setup: Setup, seed: int, trial: int):
    """Seconds for one trial, and each method's report or raised exception."""
    rng = RandomSource(seed).subsource(0, trial)
    results = {}
    start = perf_counter()
    for method in w.methods:
        try:
            results[method] = run_method(method, setup, rng)
        except Exception as exc:  # a failed run is counted, the benchmark goes on
            traceback.print_exc(file=sys.stderr)
            results[method] = exc
    return perf_counter() - start, results


class TrialLog:
    """Checks every trial's reports and keeps the first estimates per trial."""

    def __init__(self, w: Workload, ref: Reference):
        self.w = w
        self.ref = ref
        self.outcomes = Outcomes()
        self.estimates: dict[int, dict[str, float]] = {}
        self.tallies = [0, 0, 0]

    def add(self, trial: int, results: dict, label: str = "repeat") -> None:
        first = self.estimates.setdefault(trial, {})
        for method, report in results.items():
            if isinstance(report, Exception):
                self.outcomes.record([f"{method}: raised {report!r}"])
                continue
            problems = check_report(method, report, self.ref)
            if method in first:
                if first[method].hex() != float(report.estimate).hex():
                    problems.append(
                        f"{method}: {label} of trial {trial} gave {report.estimate!r}, "
                        f"first run {first[method]!r}"
                    )
            else:
                first[method] = float(report.estimate)
            t = report.tallies
            self.tallies[0] += t.uploads_step1
            self.tallies[1] += t.downloads
            self.tallies[2] += t.uploads_step2
            self.outcomes.record(problems)

    def rel_error_mean(self) -> float:
        errors = [
            abs(self.ref.below - est) / self.ref.below
            for trial in range(self.w.error_trials)
            for est in self.estimates.get(trial, {}).values()
        ]
        return statistics.fmean(errors) if errors and self.ref.below else math.nan


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    above it; below 21 samples that percentile is not above the median, so
    the maximum (percentile 100) is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(w: Workload, seed: int, setup: Setup) -> dict:
    g = setup.graph
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "graph": {
            "n": g.node_count,
            "m": g.edge_count,
            "triangles": len(setup.triangles),
            "max_degree": g.max_degree,
            "below_threshold": setup.exact,
        },
    }


def _check_setup(setup: Setup, ref: Reference, outcomes: Outcomes) -> None:
    if len(setup.triangles) != ref.triangles or setup.exact != ref.below:
        outcomes.problems.append(
            f"setup: {len(setup.triangles)} triangles / {setup.exact} below threshold, "
            f"independent count {ref.triangles} / {ref.below}"
        )


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    outcomes: Outcomes
    details: dict

    @property
    def correct(self) -> bool:
        return self.outcomes.failed == 0 and not self.outcomes.problems

    def contract_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.outcomes.attempted,
            "failed": self.outcomes.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def measure(w: Workload, seed: int, seconds: float) -> Result:
    """The untraced run: end-to-end metrics."""
    setup_times = []
    for _ in range(SETUPS):
        setup = None  # free the previous set-up first, so peak memory is one set-up
        start = perf_counter()
        setup = build_setup(w, seed)
        setup_times.append(perf_counter() - start)
    ref = independent_reference(setup.graph, LAM)
    log = TrialLog(w, ref)
    _check_setup(setup, ref, log.outcomes)

    # Trial 0 runs twice: the same seed must give bit-identical estimates.
    durations = []
    plan = itertools.chain((0, 0), itertools.count(1))
    mandatory = w.error_trials + 1
    loop_start = perf_counter()
    while len(durations) < mandatory or perf_counter() - loop_start < seconds:
        trial = next(plan)
        elapsed, results = run_trial(w, setup, seed, trial)
        durations.append(elapsed)
        log.add(trial, results)
    loop_s = perf_counter() - loop_start

    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "trial_s.p50": (statistics.median(durations), "s"),
        "trial_s.tail": (tail_s, "s"),
        "trials_per_s": (len(durations) / loop_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = environment(w, seed, setup)
    details.update(
        {
            "trace": 0,
            "trials": len(durations),
            "trial_s.tail_pct": tail_pct,
            "trial_s.samples": durations,
            "setup_s.samples": setup_times,
            "rel_error.mean": log.rel_error_mean(),
            "failed_frac": log.outcomes.failed / log.outcomes.attempted,
            "problems": log.outcomes.problems,
        }
    )
    return Result(metrics, log.outcomes, details)


# -- the traced run ----------------------------------------------------------


class LayerHooks:
    """Results inspected as they leave a wrapped function."""

    def __init__(self):
        self.partial_sums = 0
        self.sensitivities: list[float] = []

    def instance(self, inst) -> None:
        self.partial_sums += sum(len(view.partial_sums) for view in inst.edges)

    def sensitivity(self, value: float) -> None:
        self.sensitivities.append(value)


def bindings(hooks: LayerHooks):
    """(spec, metric name, kind, result hook) for every traced name."""
    return (
        ("experiments:generate_synthetic", "experiments.generate_synthetic", TIMED, None),
        ("graph:enumerate_triangles", "graph.enumerate_triangles", TIMED, None),
        ("assignment:greedy_assign", "assignment.greedy_assign", TIMED, None),
        ("protocol:run_two_step", "protocol.run", TIMED, None),
        ("protocol:run_baseline", "protocol.run", TIMED, None),
        ("protocol:release_step1", "protocol.release_step1", TIMED, None),
        ("protocol:node_step2_count", "protocol.node_step2_count", TIMED, None),
        ("protocol:privatize_weight_vector", "mechanisms.privatize_weight_vector", TIMED, None),
        ("protocol:laplace_sample", "mechanisms.laplace_sample", TIMED, None),
        ("protocol:smooth_noise_sample", "mechanisms.smooth_noise_sample", TIMED, None),
        ("mechanisms:RandomSource.stream", "mechanisms.RandomSource.stream", TIMED, None),
        ("protocol:global_sensitivity", "sensitivity.global_sensitivity", TIMED, None),
        ("protocol:instance_from_parts", "sensitivity.instance_from_parts", TIMED, hooks.instance),
        ("protocol:smooth_sensitivity_unbiased", "sensitivity.smooth_sensitivity_unbiased", TIMED,
         hooks.sensitivity),
        ("protocol:smooth_sensitivity_biased", "sensitivity.smooth_sensitivity_biased", TIMED,
         hooks.sensitivity),
        ("protocol:exact_below_threshold_count", "graph.exact_below_threshold_count", TIMED, None),
        ("sensitivity:DoubleTargetIndex", "target_index.builds", COUNTED, None),
        ("sensitivity:SingleTargetIndex", "target_index.builds", COUNTED, None),
        ("sensitivity:OrderStatTree", "ostree.builds", COUNTED, None),
    )


SETUP_LAYERS = ("experiments.generate_synthetic", "graph.enumerate_triangles", "assignment.greedy_assign")
# protocol.run's self time is reported as protocol.self_s
NOT_PER_TRIAL = SETUP_LAYERS + ("protocol.run",)


def measure_traced(w: Workload, seed: int, seconds: float) -> Result:
    """The traced run: per-layer metrics, per set-up or per trial."""
    tracer = Tracer()
    hooks = LayerHooks()
    table = bindings(hooks)
    with tracer.installed(table):
        setup = build_setup(w, seed)
    setup_seconds = {name: tracer.seconds(name) for name in SETUP_LAYERS}
    tracer.reset()
    ref = independent_reference(setup.graph, LAM)
    log = TrialLog(w, ref)
    _check_setup(setup, ref, log.outcomes)

    # Every trial runs once untraced and once traced, in alternating order so
    # that warm-up and drift cancel in the overhead; the second run of a pair
    # must reproduce the first one's estimates bit for bit.
    durations = {False: [], True: []}
    loop_start = perf_counter()
    trial = 0
    while trial < w.error_trials or perf_counter() - loop_start < seconds:
        for traced_run in (False, True) if trial % 2 == 0 else (True, False):
            with tracer.installed(table if traced_run else ()):
                elapsed, results = run_trial(w, setup, seed, trial)
            durations[traced_run].append(elapsed)
            log.add(trial, results, label="traced/untraced pair")
        trial += 1
    traced = trial

    metrics: dict[str, tuple[float, str]] = {}
    for name in SETUP_LAYERS:
        metrics[f"{name}.s"] = (setup_seconds[name], "s")
    for _, name, kind, _ in table:
        if kind == TIMED and name not in NOT_PER_TRIAL:
            metrics[f"{name}.s"] = (tracer.seconds(name) / traced, "s")
            metrics[f"{name}.calls"] = (tracer.calls(name) / traced, "count")
    metrics["protocol.self_s"] = (tracer.seconds("protocol.run") / traced, "s")
    metrics["target_index.builds"] = (tracer.calls("target_index.builds") / traced, "count")
    metrics["ostree.builds"] = (tracer.calls("ostree.builds") / traced, "count")
    metrics["sensitivity.partial_sums"] = (hooks.partial_sums / traced, "count")
    values = hooks.sensitivities or [0.0]
    metrics["sensitivity.value.p50"] = (statistics.median(values), "value")
    metrics["sensitivity.value.max"] = (max(values), "value")
    loads = setup.assignment.loads.values()
    metrics["graph.triangles"] = (len(setup.triangles), "count")
    metrics["graph.edges"] = (setup.graph.edge_count, "count")
    metrics["graph.max_degree"] = (setup.graph.max_degree, "count")
    metrics["assignment.covariance_pairs"] = (assignment_mod.count_c4_instances(setup.assignment), "count")
    metrics["assignment.max_load"] = (max(loads, default=0), "count")
    metrics["protocol.uploads_step1"] = (log.tallies[0] / (2 * traced), "count")
    metrics["protocol.downloads"] = (log.tallies[1] / (2 * traced), "count")
    metrics["protocol.uploads_step2"] = (log.tallies[2] / (2 * traced), "count")
    overhead = sum(durations[True]) / sum(durations[False]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["rel_error.mean"] = (log.rel_error_mean(), "frac")

    details = environment(w, seed, setup)
    details.update(
        {
            "trace": 1,
            "trials": traced,
            "failed_frac": log.outcomes.failed / log.outcomes.attempted,
            "absent": sorted(tracer.absent),
            "problems": log.outcomes.problems,
        }
    )
    return Result(metrics, log.outcomes, details)
