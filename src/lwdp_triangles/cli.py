"""Command-line interface: assignment stats, sensitivity probes, counting runs, sweeps."""

from __future__ import annotations

import argparse
import os
from collections import Counter

import numpy as np

from .assignment import Assignment, count_c4_instances, greedy_assign
from .estimators import EstimatorKind
from .experiments import (
    ExperimentConfig,
    METHODS,
    parse_edge_list,
    run_sweep,
)
from .graph import check_threshold, enumerate_triangles
from .mechanisms import PrivacyBudget, RandomSource
from .protocol import Baseline, Mechanism, TwoStep, local_step2, release_step1, run_methods
from .sensitivity import segment_smooth_sensitivities, smooth_sensitivity_bruteforce


def _cmd_assign(args) -> int:
    graph = _usage_checked(args, parse_edge_list, args.graph)
    triangles = enumerate_triangles(graph)
    assignment = greedy_assign(graph, triangles)
    print(f"triangles: {len(triangles)}")
    print(f"squared_load: {assignment.squared_load()}")
    print(f"c4_instances: {count_c4_instances(assignment)}")
    if args.stats:
        histogram = Counter(assignment.loads.values())
        print("load_histogram:")
        for load in sorted(histogram):
            print(f"  {load}: {histogram[load]}")
    return 0


def _usage_checked(args, check, *values, **options):
    """``check(*values, **options)``, reporting a ValueError, or an OSError
    from reading a file, as a usage error (exit 2) before the command prints
    anything."""
    try:
        return check(*values, **options)
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))


def _cmd_sensitivity(args) -> int:
    budget = _usage_checked(args, PrivacyBudget, args.eps1, 1.0)
    graph = _usage_checked(args, parse_edge_list, args.graph)
    if not (0 <= args.node < graph.node_count):
        args.parser.error(f"--node {args.node} is not in [0, {graph.node_count})")
    lam = _usage_checked(args, check_threshold, args.lam)
    kind = EstimatorKind(args.estimator)
    assignment = greedy_assign(graph)
    noisy = release_step1(graph, args.eps1, RandomSource(args.seed))
    lengths, incident, sums = assignment.segments.gather(
        assignment.span(args.node), graph.weight_array, noisy
    )
    # the node's segments, each owned by node 0 of a one-node call
    segments = (
        sums, lengths, lam - 1 - incident, np.zeros_like(lengths), 1, kind, args.beta, budget.p
    )
    gs = local_step2(
        assignment, graph.weight_array, noisy, lam, kind, Mechanism.GLOBAL_LAPLACE, budget
    )[1][args.node]
    fast = _usage_checked(args, segment_smooth_sensitivities, *segments)[0]
    if args.oracle:
        oracle = _usage_checked(args, smooth_sensitivity_bruteforce, *segments)[0]
    print(f"assigned_triangles: {len(assignment.triangles_of(args.node))}")
    print(f"global_sensitivity: {gs:.12g}")
    print(f"smooth_sensitivity: {fast:.12g}")
    if args.oracle:
        print(f"oracle: {oracle:.12g}")
    return 0


def _budget_from_args(args) -> PrivacyBudget:
    if args.eps1 is not None or args.eps2 is not None:
        if args.eps1 is None or args.eps2 is None:
            raise ValueError("--eps1 and --eps2 must be given together")
        return PrivacyBudget(args.eps1, args.eps2, args.eps)
    return PrivacyBudget.even_split(args.eps)


def _print_trials(args, assignment, method) -> int:
    """Print the exact count, then ``method``'s estimate for each seeded trial."""
    exact = assignment.exact_count(args.lam)
    print(f"f_exact: {exact}")
    for trial in range(args.trials):
        rng = RandomSource(args.seed).subsource(trial)
        report = run_methods(assignment, args.lam, [method], rng)[0]
        rel = abs(exact - report.estimate) / exact if exact else float("nan")
        print(f"trial {trial}: estimate={report.estimate:.6f} rel_error={rel:.6g}")
    tallies = report.tallies
    print(
        f"communication: uploads1={tallies.uploads_step1} "
        f"downloads={tallies.downloads} uploads2={tallies.uploads_step2}"
    )
    return 0


def _cmd_count(args) -> int:
    budget = _usage_checked(args, _budget_from_args, args)
    _usage_checked(args, check_threshold, args.lam)
    graph = _usage_checked(args, parse_edge_list, args.graph)
    method = TwoStep(budget, args.estimator, args.mechanism)
    return _print_trials(args, greedy_assign(graph), method)


def _cmd_baseline(args) -> int:
    method = _usage_checked(args, Baseline, args.eps)
    _usage_checked(args, check_threshold, args.lam)
    graph = _usage_checked(args, parse_edge_list, args.graph)
    # the baseline reads only edge ids, so any assignment of the triangles serves
    return _print_trials(args, Assignment(graph, enumerate_triangles(graph)), method)


def _experiment_config(args) -> ExperimentConfig:
    number = float if args.sweep == "eps" else int
    values = tuple(number(v) for v in args.values.split(","))
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    return ExperimentConfig(
        axis=args.sweep,
        values=values,
        trials=args.trials,
        methods=methods,
        seed=args.seed,
        epsilon=args.eps,
        lam=args.lam,
    )


def _cmd_experiment(args) -> int:
    cfg = _usage_checked(args, _experiment_config, args)
    graph = _usage_checked(args, parse_edge_list, args.graph)
    # a path that cannot be written fails here, before any trial and leaving no file
    existed = os.path.exists(args.out)
    _usage_checked(args, open, args.out, "a").close()
    if not existed:
        os.remove(args.out)
    report = _usage_checked(args, run_sweep, cfg, graph)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(report.to_csv())
    print(f"wrote {args.out} ({len(report.rows)} rows)")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lwdp-triangles",
        description="Private below-threshold triangle counting under local weight DP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assign", help="greedy triangle assignment statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--stats", action="store_true", help="print the load histogram")
    p.set_defaults(func=_cmd_assign, parser=p)

    p = sub.add_parser("sensitivity", help="smooth sensitivity of one node's count")
    p.add_argument("--graph", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--estimator", choices=[k.value for k in EstimatorKind], required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--eps1", type=float, default=1.0, help="step-1 budget for the noisy release")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force oracle")
    p.set_defaults(func=_cmd_sensitivity, parser=p)

    p = sub.add_parser("count", help="run the two-step protocol")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--eps1", type=float)
    p.add_argument("--eps2", type=float)
    p.add_argument("--estimator", choices=[k.value for k in EstimatorKind], required=True)
    p.add_argument("--mechanism", choices=[m.value for m in Mechanism], required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_count, parser=p)

    p = sub.add_parser("baseline", help="run the non-interactive baseline")
    p.add_argument("--graph", required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_baseline, parser=p)

    p = sub.add_parser("experiment", help="sweep an axis and write a CSV error table")
    p.add_argument("--graph", required=True)
    p.add_argument("--sweep", choices=["eps", "lambda", "size"], required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--eps", type=float, default=2.0)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment, parser=p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
