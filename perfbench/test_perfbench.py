"""Fast checks of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import argparse
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from lwdp_triangles import WeightedGraph, protocol  # noqa: E402

TINY = bench.Workload("tiny", 24, 0.5, bench.ALL_METHODS, error_trials=2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TWO_STEP = len(bench.ALL_METHODS) - 1


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result):
    return {name: m["unit"] for name, m in result.contract_line()["metrics"].items()}


def test_untraced_run_emits_every_end_to_end_metric():
    result = bench.measure(TINY, seed=3, seconds=0)
    line = result.contract_line()
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 3 * len(TINY.methods)  # trial 0, its repeat, trial 1
    assert _emitted(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    details = result.details
    assert details["graph"]["n"] == 24 and details["graph"]["triangles"] > 0
    assert {"nproc", "python", "numpy", "seed", "trial_s.tail_pct"} <= details.keys()
    assert len(details["setup_s.samples"]) == bench.SETUPS
    assert line["metrics"]["setup_s"]["value"] == min(details["setup_s.samples"])
    assert details["failed_frac"] == 0.0 and math.isfinite(details["rel_error.mean"])


def test_traced_run_emits_every_per_layer_metric_and_restores_bindings():
    before = protocol.smooth_sensitivity_unbiased
    result = bench.measure_traced(TINY, seed=3, seconds=0)
    assert protocol.smooth_sensitivity_unbiased is before
    line = result.contract_line()
    assert line["correct"], result.details["problems"]
    assert _emitted(result) == _declared("per_layer")
    assert result.details["absent"] == []
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert metrics["sensitivity.smooth_sensitivity_unbiased.calls"] == TINY.nodes
    assert metrics["protocol.downloads"] == TWO_STEP * metrics["graph.triangles"]
    # the traced and untraced runs give the same rel_error.mean
    untraced = bench.measure(TINY, seed=3, seconds=0)
    assert metrics["rel_error.mean"] == untraced.details["rel_error.mean"]


def _patch_two_step(monkeypatch, change):
    real = protocol.run_two_step

    def patched(*args, **kwargs):
        return change(real(*args, **kwargs))

    monkeypatch.setattr(protocol, "run_two_step", patched)


def test_wrong_tally_counts_as_failed(monkeypatch):
    def extra_download(report):
        tallies = dataclasses.replace(report.tallies, downloads=report.tallies.downloads + 1)
        return dataclasses.replace(report, tallies=tallies)

    _patch_two_step(monkeypatch, extra_download)
    result = bench.measure(TINY, seed=3, seconds=0)
    assert result.outcomes.failed == 3 * TWO_STEP  # the baseline runs still pass
    assert not result.correct
    assert "tallies" in result.outcomes.problems[0]


def test_wrong_tally_fails_the_run_exit_status(monkeypatch, capsys):
    args = argparse.Namespace(workload="tiny", seed=3, seconds=0, trace=0)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
    assert run.run_one(bench, args) == 0
    _patch_two_step(monkeypatch, lambda r: dataclasses.replace(r, estimate=math.inf))
    assert run.run_one(bench, args) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_wrong_estimate_counts_as_failed(monkeypatch):
    _patch_two_step(monkeypatch, lambda r: dataclasses.replace(r, estimate=math.nan))
    assert bench.measure(TINY, seed=3, seconds=0).outcomes.failed == 3 * TWO_STEP


def test_overspent_ledger_counts_as_failed(monkeypatch):
    def overspend(report):
        ledger = dict(report.budget_ledger)
        ledger[0] = ledger[0] * 2
        return dataclasses.replace(report, budget_ledger=ledger)

    _patch_two_step(monkeypatch, overspend)
    assert bench.measure(TINY, seed=3, seconds=0).outcomes.failed == 3 * TWO_STEP


def test_irreproducible_estimate_counts_as_failed(monkeypatch):
    calls = iter(range(1000))
    _patch_two_step(monkeypatch, lambda r: dataclasses.replace(r, estimate=r.estimate + next(calls)))
    result = bench.measure(TINY, seed=3, seconds=0)
    # only the repeat of trial 0 can disagree with an earlier run
    assert result.outcomes.failed == TWO_STEP
    assert "repeat of trial 0" in result.outcomes.problems[0]


def test_raising_method_counts_as_failed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(protocol, "run_baseline", boom)
    result = bench.measure(TINY, seed=3, seconds=0)
    assert result.outcomes.failed == 3 and result.outcomes.attempted == 3 * len(TINY.methods)


def test_independent_reference_counts_below_threshold_triangles():
    # K4 with one heavy edge: 4 triangles, the two avoiding (2, 3) are light
    g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 9)])
    assert bench.independent_reference(g, lam=4) == bench.Reference(4, 6, 4, 2)


def test_self_times_partition_nested_spans():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls("inner") == 3 and tracer.calls("outer") == 1
    assert 0.0 < tracer.seconds("outer") < tracer.seconds("inner")


def test_missing_names_are_reported_absent():
    tracer = Tracer()
    table = (
        ("protocol:no_such_function", "gone.fn", "timed", None),
        ("no_such_module:f", "gone.module", "counted", None),
        ("mechanisms:RandomSource.no_such_method", "gone.method", "timed", None),
    )
    with tracer.installed(table):
        pass
    assert tracer.absent == {"gone.fn", "gone.module", "gone.method"}


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert bench.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_run_exits_nonzero_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-many", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
