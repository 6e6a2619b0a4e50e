import math

import pytest

from lwdp_triangles.assignment import greedy_assign
from lwdp_triangles.cli import main
from lwdp_triangles.experiments import generate_synthetic, parse_edge_list, write_edge_list
from lwdp_triangles.mechanisms import PrivacyBudget, RandomSource
from lwdp_triangles.protocol import Mechanism, local_step2, release_step1


@pytest.fixture()
def graph_file(tmp_path):
    g = generate_synthetic(14, 0.6, weight_range=(0, 4), seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    return str(path)


def test_assign_stats(graph_file, capsys):
    assert main(["assign", "--graph", graph_file, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "triangles:" in out
    assert "c4_instances:" in out
    assert "load_histogram:" in out


def test_count_prints_trials_and_tallies(graph_file, capsys):
    rc = main([
        "count", "--graph", graph_file, "--lambda", "6", "--eps", "2.0",
        "--estimator", "unbiased", "--mechanism", "smooth",
        "--seed", "5", "--trials", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "f_exact:" in out
    assert out.count("trial ") == 2
    assert "communication:" in out
    g = parse_edge_list(graph_file)
    assert f"uploads1={2 * g.edge_count}" in out


def test_baseline_runs(graph_file, capsys):
    rc = main([
        "baseline", "--graph", graph_file, "--lambda", "6", "--eps", "1.0",
        "--seed", "3", "--trials", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trial 0:" in out
    assert "downloads=0" in out


def test_sensitivity_fast_matches_oracle(graph_file, capsys):
    rc = main([
        "sensitivity", "--graph", graph_file, "--node", "0", "--beta", "0.25",
        "--estimator", "biased", "--lambda", "6", "--seed", "1", "--oracle",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().split("\n"):
        key, _, val = line.partition(":")
        values[key.strip()] = val.strip()
    assert math.isclose(float(values["smooth_sensitivity"]), float(values["oracle"]),
                        rel_tol=1e-9, abs_tol=1e-12)
    assert float(values["global_sensitivity"]) >= float(values["smooth_sensitivity"]) - 1e-9



@pytest.fixture()
def ci_graph_file(tmp_path):
    """The graph of the CI cross-process check: node 0 has no assigned
    triangles, node 5 has 4 and node 54 has 14."""
    path = tmp_path / "ci_graph.txt"
    write_edge_list(generate_synthetic(80, 0.15, seed=3), path)
    return str(path)


def _sensitivity(graph_file, node, estimator, *extra):
    return main([
        "sensitivity", "--graph", graph_file, "--node", str(node), "--beta", "0.25",
        "--estimator", estimator, "--lambda", "6", "--seed", "3", *extra,
    ])


# recorded before GS_v and the instance came from one segment builder
_GOLDEN_SENSITIVITY = {
    (0, "biased"): (0, "0", "0"),
    (0, "unbiased"): (0, "0", "0"),
    (5, "biased"): (4, "3", "0.735758882343"),
    (5, "unbiased"): (4, "8.52404156525", "2.0905464317"),
}


@pytest.mark.parametrize("node,estimator", sorted(_GOLDEN_SENSITIVITY))
def test_sensitivity_oracle_output_matches_recorded_golden(ci_graph_file, node, estimator, capsys):
    assert _sensitivity(ci_graph_file, node, estimator, "--oracle") == 0
    triangles, gs, smooth = _GOLDEN_SENSITIVITY[node, estimator]
    assert capsys.readouterr().out == (
        f"assigned_triangles: {triangles}\n"
        f"global_sensitivity: {gs}\n"
        f"smooth_sensitivity: {smooth}\n"
        f"oracle: {smooth}\n"
    )


@pytest.mark.parametrize("node", ["500", "14", "-1"])
def test_sensitivity_of_a_node_outside_the_graph_is_a_usage_error(graph_file, node, capsys):
    # it used to print a bare message and exit 2 without a usage line
    with pytest.raises(SystemExit) as exc:
        main(["sensitivity", "--graph", graph_file, "--node", node, "--beta", "0.25",
              "--estimator", "biased", "--lambda", "6"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lwdp-triangles sensitivity")
    assert f"lwdp-triangles sensitivity: error: --node {node} is not in [0, 14)" in captured.err


@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_sensitivity_oracle_over_its_cap_is_a_usage_error(ci_graph_file, estimator, capsys):
    # node 54 (14 triangles) is within the oracle's work bound, and the
    # oracle agrees with the kernel
    assert _sensitivity(ci_graph_file, 54, estimator, "--oracle") == 0
    out = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert out["assigned_triangles"] == "14"
    assert math.isclose(float(out["oracle"]), float(out["smooth_sensitivity"]), rel_tol=1e-9)
    # a threshold of 10^9 (the last --lambda counts) puts a billion targets
    # between the sums and the initial targets: the command used to print
    # three lines and then fail with a traceback
    far = ("--lambda", str(10**9))
    with pytest.raises(SystemExit) as exc:
        _sensitivity(ci_graph_file, 54, estimator, *far, "--oracle")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lwdp-triangles sensitivity: error:" in captured.err
    assert "target and shift-count pairs" in captured.err
    # without the oracle the node runs
    assert _sensitivity(ci_graph_file, 54, estimator, *far) == 0
    assert "assigned_triangles: 14\n" in capsys.readouterr().out


def test_experiment_writes_csv(graph_file, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main([
        "experiment", "--graph", graph_file, "--sweep", "eps",
        "--values", "1.0,2.0", "--trials", "2",
        "--methods", "baseline,smooth-unbiased",
        "--seed", "7", "--out", str(out_path),
    ])
    assert rc == 0
    text = out_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "x,naive_l2_rel,smooth_unbiased_l2_rel"
    assert len(lines) == 3
    assert "wrote" in capsys.readouterr().out


def test_experiment_to_an_unwritable_path_is_a_usage_error(graph_file, tmp_path, monkeypatch, capsys):
    # the path is checked before the first trial, and it names the path
    from lwdp_triangles import experiments

    runs = []
    monkeypatch.setattr(experiments, "run_methods", lambda *args: runs.append(args))
    for out_path in (tmp_path / "missing" / "sweep.csv", tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "experiment", "--graph", graph_file, "--sweep", "eps", "--values", "1.0",
                "--trials", "1", "--out", str(out_path),
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lwdp-triangles experiment: error:" in captured.err
        assert str(out_path) in captured.err
    assert runs == []
    assert not (tmp_path / "missing").exists()


def test_count_accepts_budget_split(graph_file, capsys):
    rc = main([
        "count", "--graph", graph_file, "--lambda", "6", "--eps", "2.0",
        "--eps1", "0.5", "--eps2", "1.5",
        "--estimator", "biased", "--mechanism", "global", "--trials", "1",
    ])
    assert rc == 0
    assert "trial 0" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["count", "--eps", "2.0", "--estimator", "biased", "--mechanism", "global"],
    ["baseline", "--eps", "1.0"],
])
def test_zero_trials_is_a_usage_error(graph_file, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--graph", graph_file, "--lambda", "6", "--trials", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert "f_exact" not in captured.out


@pytest.mark.parametrize("command", [
    ["count", "--eps", "nan", "--estimator", "unbiased", "--mechanism", "smooth"],
    ["count", "--eps", "2.0", "--eps1", "0.5", "--estimator", "biased", "--mechanism", "global"],
    ["count", "--eps", "2.0", "--eps1", "1.5", "--eps2", "1.5",
     "--estimator", "biased", "--mechanism", "global"],
    ["sensitivity", "--eps1", "nan", "--node", "0", "--beta", "0.25", "--estimator", "biased"],
    ["baseline", "--eps", "800"],
    ["baseline", "--eps", "inf"],
    ["count", "--eps", "2.0", "--eps1", "1e-17", "--eps2", "1.0",
     "--estimator", "unbiased", "--mechanism", "smooth"],
    ["count", "--eps", "2.0", "--eps1", "1.0", "--eps2", "1e-310",
     "--estimator", "biased", "--mechanism", "global"],
    ["baseline", "--eps", "1e-17"],
])
def test_invalid_budget_is_a_usage_error(graph_file, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--graph", graph_file, "--lambda", "6"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"lwdp-triangles {command[0]}: error:" in captured.err


@pytest.mark.parametrize("command", [
    ["experiment", "--sweep", "eps", "--values", "nan"],
    ["experiment", "--sweep", "eps", "--values", "1.0,800"],
    ["experiment", "--sweep", "eps", "--values", "5e-324"],  # the even split underflows to 0
    ["experiment", "--sweep", "lambda", "--values", "4,6", "--eps", "-1"],
    ["experiment", "--sweep", "eps", "--values", "1.0", "--methods", "bogus"],
    ["sensitivity", "--beta", "-1", "--node", "0", "--estimator", "biased", "--lambda", "6"],
    ["sensitivity", "--beta", "nan", "--node", "0", "--estimator", "biased", "--lambda", "6"],
    # a negative seed used to fail inside the seeding, after f_exact was printed
    ["count", "--seed", "-1", "--lambda", "6", "--eps", "2.0", "--estimator", "biased",
     "--mechanism", "global"],
    ["baseline", "--seed", "-1", "--lambda", "6", "--eps", "1.0"],
    ["sensitivity", "--seed", "-1", "--node", "0", "--beta", "0.25", "--estimator", "biased",
     "--lambda", "6"],
    ["experiment", "--seed", "-1", "--sweep", "eps", "--values", "1.0"],
    # a size above the graph's 14 nodes used to fail after the first point's trials
    ["experiment", "--sweep", "size", "--values", "10,100"],
    ["experiment", "--sweep", "size", "--values", "-1"],
    # the kernel refuses walk costs that could leave int64; the refusal used
    # to end the command in a traceback
    ["sensitivity", "--node", "0", "--beta", "1e-300", "--estimator", "biased",
     "--lambda", str(2**62)],
    ["sensitivity", "--node", "0", "--beta", "1e-300", "--estimator", "unbiased",
     "--lambda", str(2**62)],
])
def test_invalid_library_argument_is_a_usage_error(graph_file, tmp_path, command, capsys):
    out_path = tmp_path / "sweep.csv"
    if command[0] == "experiment":
        command = command + ["--trials", "1", "--out", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        main(command + ["--graph", graph_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"lwdp-triangles {command[0]}: error:" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("command", [
    ["count", "--lambda", str(10**30), "--eps", "2.0", "--estimator", "biased",
     "--mechanism", "global"],
    ["count", "--lambda", str(-(10**30)), "--eps", "2.0", "--estimator", "unbiased",
     "--mechanism", "smooth"],
    ["baseline", "--lambda", str(2**63), "--eps", "1.0"],
    ["sensitivity", "--lambda", str(10**30), "--node", "0", "--beta", "0.25",
     "--estimator", "biased"],
    ["experiment", "--sweep", "lambda", "--values", f"4,{2**63}"],
    ["experiment", "--sweep", "eps", "--values", "1.0", "--lambda", str(-(10**30))],
])
def test_threshold_outside_int64_range_is_a_usage_error(graph_file, tmp_path, command, capsys):
    out_path = tmp_path / "sweep.csv"
    if command[0] == "experiment":
        command = command + ["--trials", "1", "--out", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        main(command + ["--graph", graph_file])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"lwdp-triangles {command[0]}: error:" in captured.err
    assert "int64" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("command", [
    ["assign"],
    ["sensitivity", "--node", "0", "--beta", "0.25", "--estimator", "biased", "--lambda", "6"],
    ["count", "--lambda", "6", "--eps", "2.0", "--estimator", "biased", "--mechanism", "global"],
    ["baseline", "--lambda", "6", "--eps", "1.0"],
    ["experiment", "--sweep", "eps", "--values", "1.0", "--trials", "1"],
])
def test_unreadable_or_malformed_graph_is_a_usage_error(tmp_path, command, capsys):
    out_path = tmp_path / "sweep.csv"
    if command[0] == "experiment":
        command = command + ["--out", str(out_path)]
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("0 1 3\n1 2 x\n")
    heavy = tmp_path / "heavy.txt"
    heavy.write_text("10 20 1\n20 30 4294967296\n")
    missing = tmp_path / "missing.txt"
    for path, message in (
        (malformed, "line 2: non-integer field"),
        (heavy, "line 2: weight 4294967296 exceeds the bound |w| <= 2^31"),
        (missing, str(missing)),
    ):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--graph", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"lwdp-triangles {command[0]}: error:" in captured.err
        assert message in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("estimator", ["biased", "unbiased"])
def test_sensitivity_probe_agrees_with_step2(ci_graph_file, estimator, capsys):
    # the probe's GS_v and S_v are step 2's, node by node, at the budget the
    # probe builds from --eps1 and with step 2's beta
    g = parse_edge_list(ci_graph_file)
    budget = PrivacyBudget(1.0, 1.0)
    assignment = greedy_assign(g)
    noisy = release_step1(g, budget.epsilon_1, RandomSource(3))
    gs, smooth = (
        local_step2(assignment, g.weight_array, noisy, 6, estimator, mechanism, budget)[1]
        for mechanism in (Mechanism.GLOBAL_LAPLACE, Mechanism.SMOOTH)
    )
    assert (smooth > 0).any()
    for v in range(g.node_count):
        assert main([
            "sensitivity", "--graph", ci_graph_file, "--node", str(v),
            "--beta", repr(budget.beta), "--estimator", estimator, "--lambda", "6",
            "--seed", "3",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            f"global_sensitivity: {format(gs[v], '.12g')}",
            f"smooth_sensitivity: {format(smooth[v], '.12g')}",
        ], v
