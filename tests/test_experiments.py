import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lwdp_triangles import (
    EstimatorKind,
    PrivacyBudget,
    RandomSource,
    WeightedGraph,
    enumerate_triangles,
    exact_below_threshold_count,
    run_baseline,
    run_two_step,
    triangle_weights,
)
from lwdp_triangles.experiments import (
    EdgeListParseError,
    ExperimentConfig,
    METHODS,
    default_lambda,
    generate_synthetic,
    induced_subgraph,
    method_column,
    milan_scale_weights,
    parse_edge_list,
    run_sweep,
    sample_induced_subgraph,
    write_edge_list,
)
from lwdp_triangles import assignment as assignment_mod, experiments, protocol
from lwdp_triangles.assignment import greedy_assign
from lwdp_triangles.protocol import Mechanism

from conftest import random_graph


def test_parse_single_edge(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n\n0 1 5\n")
    g = parse_edge_list(path)
    assert g.node_count == 2 and g.edge_count == 1
    assert g.weight(0, 1) == 5


def test_parse_rejects_self_loop_with_line_number(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 2\n0 0 1\n")
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list(path)


def test_parse_rejects_duplicates_and_malformed(tmp_path):
    dup = tmp_path / "dup.txt"
    dup.write_text("0 1 2\n1 0 3\n")
    with pytest.raises(EdgeListParseError, match="duplicate"):
        parse_edge_list(dup)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list(bad)
    nonint = tmp_path / "nonint.txt"
    nonint.write_text("0 1 x\n")
    with pytest.raises(EdgeListParseError, match="non-integer"):
        parse_edge_list(nonint)


def test_parse_relabels_sparse_ids(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("100 7 1\n7 42 2\n")
    g = parse_edge_list(path)
    assert g.node_count == 3
    # sorted external ids 7, 42, 100 -> 0, 1, 2
    assert g.weight(0, 2) == 1 and g.weight(0, 1) == 2


def test_round_trip(tmp_path):
    g = generate_synthetic(12, 0.5, weight_range=(-5, 5), seed=3)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert parse_edge_list(path) == g


def test_milan_scaling_examples():
    assert milan_scale_weights([2.0, 3.0], 10) == [4, 6]
    assert milan_scale_weights([2.0, 3.0], 10.0) == [4, 6]  # an integral float total
    four = milan_scale_weights([1.0, 1.0, 1.0, 1.0], 2)
    assert sum(four) == 2
    assert four == [1, 1, 0, 0]  # largest remainder, ties to the lowest index
    assert milan_scale_weights([0.5, 2.5], 0) == [0, 0]
    with pytest.raises(ValueError):
        milan_scale_weights([1.0, -2.0], 5)


@pytest.mark.parametrize("intensities,total,message", [
    ([1.0, math.nan], 5, "finite"),
    ([math.inf, 1.0], 5, "finite"),
    ([1.0, -math.inf], 5, "finite"),
    ([2.0, 3.0], 10.5, "integer total call count"),
    ([2.0, 3.0], "10", "integer total call count"),
])
def test_milan_scaling_rejects_bad_input_up_front(intensities, total, message):
    with pytest.raises(ValueError, match=message):
        milan_scale_weights(intensities, total)


@given(
    st.lists(st.floats(0.05, 50.0), min_size=1, max_size=12),
    st.integers(0, 500),
)
@settings(max_examples=150)
def test_milan_scaling_sums_exactly(intensities, total):
    weights = milan_scale_weights(intensities, total)
    assert sum(weights) == total
    raw = [total * i / sum(intensities) for i in intensities]
    assert all(abs(w - r) < 1.0 + 1e-9 for w, r in zip(weights, raw))


def test_generate_synthetic_density_one_is_complete():
    g = generate_synthetic(4, 1.0, seed=0)
    assert g.edge_count == 6
    assert len(enumerate_triangles(g)) == 4


def test_generate_synthetic_deterministic():
    a = generate_synthetic(20, 0.4, weight_range=(-3, 3), seed=9)
    b = generate_synthetic(20, 0.4, weight_range=(-3, 3), seed=9)
    c = generate_synthetic(20, 0.4, weight_range=(-3, 3), seed=10)
    assert a == b
    assert a != c


def _reference_generate_synthetic(
    node_count, density, weight_range=(0, 8), seed=0, *, weight_values=None, weight_probs=None
):
    """The per-pair loop the generator replaced: one ``rng.random()`` per
    node pair in row-major order, then one numpy weight draw per edge."""
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


def _assert_same_graph(got, want):
    assert got == want
    # the same weighted edges, inserted in the same order
    assert list(got.edge_weights().items()) == list(want.edge_weights().items())


_BENCH_WEIGHTS = dict(weight_values=(0, 1, 2, 3, 8), weight_probs=(0.55, 0.2, 0.12, 0.08, 0.05))

# every branch of numpy's bounded-integer draw: no draw (5, 5), 32-bit
# Lemire (0, 8) and (-3, 3), Lemire rejecting about half its draws
# (0, 2^31), a bare next_uint32 (-2^31, 2^31 - 1), 32-bit Lemire at its
# widest (-2^31, 2^31 - 2) and 64-bit Lemire (-2^31, 2^31); then
# categorical weights with and without probabilities
_WEIGHT_KINDS = {
    "range-0-8": dict(weight_range=(0, 8)),
    "range-sym": dict(weight_range=(-3, 3)),
    "range-point": dict(weight_range=(5, 5)),
    "range-lemire-reject": dict(weight_range=(0, 2**31)),
    "range-uint32": dict(weight_range=(-(2**31), 2**31 - 1)),
    "range-widest-32": dict(weight_range=(-(2**31), 2**31 - 2)),
    "range-64": dict(weight_range=(-(2**31), 2**31)),
    "categorical": _BENCH_WEIGHTS,
    "categorical-zero-prob": dict(weight_values=[4, 7, 9], weight_probs=[0.5, 0.0, 0.5]),
    "categorical-single": dict(weight_values=[3], weight_probs=[1.0]),
    "uniform-values": dict(weight_values=[0, 3, 40]),
    "uniform-many-values": dict(weight_values=list(range(-7, 500))),
}

_GRID = [
    (n, density, seed)
    for n in (0, 1, 2, 4, 13, 60)
    for density in (0.0, 0.03, 0.4, 0.5, 0.6, 0.97, 1.0)
    for seed in (0, 7)
] + [(300, density, 3) for density in (0.0, 0.03, 0.5)]


@pytest.mark.parametrize("kind", sorted(_WEIGHT_KINDS))
def test_generate_synthetic_matches_per_pair_reference(kind):
    weights = _WEIGHT_KINDS[kind]
    for n, density, seed in _GRID:
        got = generate_synthetic(n, density, seed=seed, **weights)
        _assert_same_graph(got, _reference_generate_synthetic(n, density, seed=seed, **weights))


@pytest.mark.parametrize("weight_range", [(0, 2**31), (-(2**31), 2**31), (-(2**31), 2**31 - 2)])
def test_generate_synthetic_matches_reference_where_lemire_rejects(weight_range):
    # dense graphs, so that many weight draws (and their rejections and
    # kept uint32 halves) fall between the pair tests, across chunk ends
    for seed in range(16):
        n, density = (40, 0.9) if seed % 4 else (300, 0.8)
        got = generate_synthetic(n, density, weight_range=weight_range, seed=seed)
        _assert_same_graph(
            got, _reference_generate_synthetic(n, density, weight_range=weight_range, seed=seed)
        )


def _edge_list_digest(g):
    text = "".join(f"{u} {v} {g.weight(u, v)}\n" for u, v in g.edges())
    return hashlib.sha256(text.encode()).hexdigest()


# recorded with the per-pair loop, before the generator walked the raw stream
@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        ((180, 0.5), dict(seed=5, **_BENCH_WEIGHTS),
         "3f54e34ccecd435a842a65858efdf60e5839951a9c7e03e189b976346f9e0bd9"),
        ((3000, 0.006), dict(seed=5, **_BENCH_WEIGHTS),
         "734a589b309a9795212223fe12df5c8719e9c2183b046f4ddc3e7fea268ee02c"),
        ((60, 0.4), dict(weight_range=(0, 5), seed=1),
         "27fe2d1b8ec6dd4bb6affaa5b792247e5651baa764a851efd47db60bc484eb1a"),
    ],
)
def test_generate_synthetic_matches_recorded_digest(args, kwargs, digest):
    assert _edge_list_digest(generate_synthetic(*args, **kwargs)) == digest


# density 0 draws no weight, so each of these must be caught where it enters
@pytest.mark.parametrize(
    "node_count, kwargs, message",
    [
        (-1, {}, "node_count must be nonnegative"),
        (2.5, {}, "integer node_count"),
        (5, dict(weight_range=(3, 2)), "lo > hi"),
        (5, dict(weight_range=(0, 2.5)), "integer weight_range end"),
        (5, dict(weight_range=(0, 2**31 + 1)), r"leaves \[-2\^31, 2\^31\]"),
        (5, dict(weight_range=(-(2**31) - 1, 0)), r"leaves \[-2\^31, 2\^31\]"),
        (5, dict(weight_probs=[1.0]), "weight_probs given without weight_values"),
        (5, dict(weight_values=[]), "nonempty"),
        (5, dict(weight_values=[1.5, 2]), "integer weight value"),
        (5, dict(weight_values=[1, 2**31 + 1]), r"weight_values must lie in"),
        (5, dict(weight_values=[1, 2], weight_probs=[1.0]), "one probability per weight value"),
        (5, dict(weight_values=[1, 2], weight_probs=[1.5, -0.5]), "nonnegative"),
        (5, dict(weight_values=[1, 2], weight_probs=[float("nan"), 1.0]), "nonnegative"),
        (5, dict(weight_values=[1, 2], weight_probs=[0.5, 0.4]), "sum to 1"),
    ],
)
def test_generate_synthetic_rejects_bad_inputs_up_front(node_count, kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_synthetic(node_count, 0.0, **kwargs)


def test_seeds_must_be_integers():
    # a fractional seed used to fail inside numpy's SeedSequence with a TypeError
    g = generate_synthetic(20, 0.5, seed=1)
    for seed in (1.5, "1", None):
        with pytest.raises(ValueError, match="integer seed"):
            generate_synthetic(20, 0.5, seed=seed)
        with pytest.raises(ValueError, match="integer seed"):
            sample_induced_subgraph(g, 5, seed=seed)
    assert generate_synthetic(20, 0.5, seed=1.0) == generate_synthetic(20, 0.5, seed=np.int64(1)) == g
    assert sample_induced_subgraph(g, 5, seed=2.0) == sample_induced_subgraph(g, 5, seed=2)


def test_generate_synthetic_accepts_probs_within_numpy_tolerance():
    # Generator.choice accepts a sum within sqrt(eps) of 1, and so does the walk
    probs = [0.3, 0.7 + 1e-9]
    got = generate_synthetic(30, 0.5, seed=2, weight_values=[1, 2], weight_probs=probs)
    want = _reference_generate_synthetic(30, 0.5, seed=2, weight_values=[1, 2], weight_probs=probs)
    _assert_same_graph(got, want)


def test_induced_subgraph_keeps_exactly_internal_triangles():
    g = generate_synthetic(25, 0.45, seed=4)
    kept = sorted(range(0, 25, 2))  # explicit node subset
    sub = induced_subgraph(g, kept)
    relabel = {v: i for i, v in enumerate(kept)}
    expected = {
        tuple(sorted(relabel[v] for v in t))
        for t in enumerate_triangles(g).tolist()
        if all(v in relabel for v in t)
    }
    got = set(map(tuple, enumerate_triangles(sub).tolist()))
    assert got == expected
    assert induced_subgraph(g, range(g.node_count)) == g
    sampled = sample_induced_subgraph(g, 14, seed=5)
    assert sampled.node_count == 14
    assert sample_induced_subgraph(g, 14, seed=5) == sampled


@pytest.mark.parametrize("nodes,message", [
    ([-1, 2, 3], r"node -1 is not in \[0, 25\)"),
    ([2, 3, 100], r"node 100 is not in \[0, 25\)"),
    ([25], r"node 25 is not in \[0, 25\)"),
    ([2, 2.5], "integer node id, got 2.5"),
])
def test_induced_subgraph_rejects_nodes_outside_the_graph(nodes, message):
    g = generate_synthetic(25, 0.45, seed=4)
    with pytest.raises(ValueError, match=message):
        induced_subgraph(g, nodes)


def test_default_lambda_is_90th_percentile_rule():
    weights = list(range(100))  # 0..99
    lam = default_lambda(weights)
    below = sum(1 for w in weights if w < lam)
    assert below >= 90
    assert below - 1 < 0.9 * len(weights) or weights[below - 1] == lam - 1
    assert default_lambda([5, 5, 5]) == 6
    assert default_lambda([]) == 1


def test_run_sweep_mean_errors_equal_direct_paired_runs():
    g = generate_synthetic(12, 0.6, seed=1)
    cfg = ExperimentConfig(axis="eps", values=(2.0, 1.0), trials=2, seed=3)
    report = run_sweep(cfg, g)
    tris = enumerate_triangles(g)
    lam = default_lambda(triangle_weights(g, g.weight_array, tris))
    exact = exact_below_threshold_count(g, lam, tris)
    assert exact > 0
    # rows come in sorted axis order, and trial t at row i replays
    # RandomSource(seed).subsource(i, t) for every method
    assert [row.x for row in report.rows] == [1.0, 2.0]
    for axis_idx, row in enumerate(report.rows):
        assert not row.flagged
        for m in METHODS:
            total = 0.0
            for trial in range(cfg.trials):
                rng = RandomSource(cfg.seed).subsource(axis_idx, trial)
                if m == "baseline":
                    est = run_baseline(g, lam, row.x, rng).estimate
                else:
                    mech = Mechanism.GLOBAL_LAPLACE if m.startswith("global") else Mechanism.SMOOTH
                    kind = EstimatorKind.UNBIASED if m.endswith("unbiased") else EstimatorKind.BIASED
                    budget = PrivacyBudget.even_split(row.x)
                    est = run_two_step(g, lam, budget, kind, mech, rng).estimate
                total += abs(exact - est) / exact
            assert row.mean_errors[m] == total / cfg.trials


def test_run_sweep_csv_schema_and_determinism():
    g = generate_synthetic(12, 0.6, seed=1)
    cfg = ExperimentConfig(
        axis="eps", values=(2.0, 1.0), trials=2, seed=3,
        methods=("smooth-unbiased", "baseline"),
    )
    a = run_sweep(cfg, g).to_csv()
    b = run_sweep(cfg, g).to_csv()
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "x,smooth_unbiased_l2_rel,naive_l2_rel"
    assert lines[1].startswith("1,")  # rows sorted by axis value
    assert a.endswith("\n") and "\r" not in a


def test_run_sweep_flags_zero_true_count():
    g = WeightedGraph(3, [(0, 1, 5), (0, 2, 5), (1, 2, 5)])
    cfg = ExperimentConfig(axis="lambda", values=(0,), trials=1, seed=0,
                           methods=("baseline",))
    report = run_sweep(cfg, g)
    assert report.rows[0].flagged
    assert math.isnan(report.rows[0].mean_errors["baseline"])
    assert "nan" in report.to_csv()


def test_method_columns_mirror_figure_schema():
    assert method_column("baseline") == "naive_l2_rel"
    assert method_column("smooth-unbiased") == "smooth_unbiased_l2_rel"
    assert method_column("global-biased") == "global_biased_l2_rel"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(axis="nope", values=(1,))
    with pytest.raises(ValueError):
        ExperimentConfig(axis="eps", values=())
    with pytest.raises(ValueError):
        ExperimentConfig(axis="eps", values=(1.0,), trials=0)
    # a fractional trial count or seed, and a negative seed, fail here, not
    # inside the sweep; integral floats are the integers they equal
    with pytest.raises(ValueError, match="integer trial count"):
        ExperimentConfig(axis="eps", values=(1.0,), trials=2.5)
    with pytest.raises(ValueError, match="integer seed"):
        ExperimentConfig(axis="eps", values=(1.0,), seed=0.5)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ExperimentConfig(axis="eps", values=(1.0,), seed=-1)
    cfg = ExperimentConfig(axis="eps", values=(1.0,), trials=2.0, seed=3.0)
    assert (cfg.trials, cfg.seed) == (2, 3)
    assert type(cfg.trials) is type(cfg.seed) is int
    with pytest.raises(ValueError):
        ExperimentConfig(axis="eps", values=(1.0,), methods=("bogus",))
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentConfig(axis="size", values=(5, -1))
    # every method's budget at every epsilon it will run: the axis values on
    # eps, else ``epsilon``; the baseline spends it whole, the rest half each
    with pytest.raises(ValueError, match="underflow"):
        ExperimentConfig(axis="eps", values=(1.0, 800.0))
    with pytest.raises(ValueError, match="underflow"):
        ExperimentConfig(axis="eps", values=(1600.0,), methods=("smooth-biased",))
    ExperimentConfig(axis="eps", values=(1000.0,), methods=("smooth-biased",))
    with pytest.raises(ValueError, match="strictly positive"):
        ExperimentConfig(axis="lambda", values=(4,), epsilon=-1.0)
    ExperimentConfig(axis="eps", values=(1.0,), epsilon=-1.0)


def test_eps_sweep_error_decreases_for_smooth_unbiased():
    g = generate_synthetic(
        40, 0.5, seed=21, weight_values=[0, 3, 40], weight_probs=[0.63, 0.35, 0.02]
    )
    cfg = ExperimentConfig(
        axis="eps", values=(0.5, 1.0, 2.0, 4.0), trials=6, seed=11,
        methods=("smooth-unbiased",), lam=7,
    )
    report = run_sweep(cfg, g)
    errs = [row.mean_errors["smooth-unbiased"] for row in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:])), errs


def test_size_sweep_unbiased_improves_while_biased_stays_flat():
    g = generate_synthetic(
        130, 0.5, seed=22, weight_values=[0, 3, 40], weight_probs=[0.63, 0.35, 0.02]
    )
    cfg = ExperimentConfig(
        axis="size", values=(50, 80, 120), trials=6, seed=13,
        methods=("smooth-unbiased", "global-biased"), lam=7,
    )
    report = run_sweep(cfg, g)
    unb = [row.mean_errors["smooth-unbiased"] for row in report.rows]
    bia = [row.mean_errors["global-biased"] for row in report.rows]
    assert unb[-1] < unb[0], unb
    # the biased estimator's relative error does not shrink with size
    assert bia[-1] > 0.5 * bia[0], bia


def test_sweep_looks_up_edge_ids_once_and_shares_step_1_per_epsilon_1(monkeypatch):
    g = generate_synthetic(12, 0.6, seed=1)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    ids = counting("ids", assignment_mod.triangle_edge_ids)
    monkeypatch.setattr(assignment_mod, "triangle_edge_ids", ids)
    monkeypatch.setattr(protocol, "release_step1", counting("release", protocol.release_step1))
    trials = 3
    run_sweep(ExperimentConfig(axis="eps", values=(2.0,), trials=trials, seed=3), g)
    # the baseline spends epsilon whole and the four two-step methods half
    # of it in step 1: two releases per trial; per axis point, the greedy
    # pass looks up the ids of its triangles once and hands them to the
    # assignment, and no run looks up any
    assert calls == {"ids": 1, "release": 2 * trials}


def test_sweep_builds_one_assignment_per_graph(monkeypatch):
    # an eps or lambda sweep runs every point on the one graph, a size sweep
    # on one sampled subgraph per point
    g = generate_synthetic(12, 0.6, seed=1)
    built = []

    def counted(graph, *args, **kwargs):
        built.append(graph)
        return greedy_assign(graph, *args, **kwargs)

    monkeypatch.setattr(experiments, "greedy_assign", counted)
    for axis, values in (("eps", (1.0, 2.0, 4.0)), ("lambda", (2, 4, 6))):
        built.clear()
        run_sweep(ExperimentConfig(axis=axis, values=values, trials=1, seed=3), g)
        assert built == [g], axis
    built.clear()
    run_sweep(ExperimentConfig(axis="size", values=(6, 9, 12), trials=1, seed=3), g)
    assert [graph.node_count for graph in built] == [6, 9, 12]


def test_size_sweep_rejects_sizes_above_the_graph_before_any_trial(monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "run_methods", lambda *args: runs.append(args))
    g = generate_synthetic(12, 0.6, seed=1)
    with pytest.raises(ValueError, match="exceeds the graph's 12 nodes"):
        run_sweep(ExperimentConfig(axis="size", values=(10, 13), trials=1), g)
    assert runs == []


def test_size_sweep_takes_integral_sizes_only():
    # 9.0 runs and reports the size 9; 9.7 is refused, not run as 9 nodes
    g = generate_synthetic(12, 0.6, seed=1)
    cfg = ExperimentConfig(axis="size", values=(9.0,), trials=1, seed=3)
    assert cfg.values == (9,) and type(cfg.values[0]) is int
    whole = ExperimentConfig(axis="size", values=(9,), trials=1, seed=3)
    assert run_sweep(cfg, g).to_csv() == run_sweep(whole, g).to_csv()
    with pytest.raises(ValueError, match="integer subgraph size"):
        ExperimentConfig(axis="size", values=(6, 9.7), trials=1)


# recorded before the sweep shared one instance per axis point and one
# step-1 release per epsilon_1 between its methods
_GOLDEN_EPS_SWEEP = (
    "x,naive_l2_rel,global_biased_l2_rel,global_unbiased_l2_rel,"
    "smooth_biased_l2_rel,smooth_unbiased_l2_rel\n"
    "1,0.1142857143,0.3166432884,2.433882649,0.3958131529,3.133379767\n"
    "2,0.03571428571,0.03458403354,0.1767821288,0.06749704226,0.3167310905\n"
)


def test_eps_sweep_csv_matches_recorded_golden():
    g = random_graph(random.Random(20), 20, 0.5, -1, 4)
    cfg = ExperimentConfig(axis="eps", values=(1.0, 2.0), trials=2, seed=3, lam=5)
    assert cfg.methods == METHODS
    assert run_sweep(cfg, g).to_csv() == _GOLDEN_EPS_SWEEP
