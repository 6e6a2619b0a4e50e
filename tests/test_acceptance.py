"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import math
import random
import statistics
import time

import numpy as np

from lwdp_triangles import (
    EstimatorKind,
    PrivacyBudget,
    RandomSource,
    WeightedGraph,
    enumerate_triangles,
    exact_below_threshold_count,
    greedy_assign,
    run_baseline,
    run_two_step,
    triangle_weights,
)
from lwdp_triangles.assignment import brute_force_optimal_assign, count_c4_instances
from lwdp_triangles.estimators import closed_form_moments, expectation_by_summation
from lwdp_triangles.experiments import generate_synthetic
from lwdp_triangles.mechanisms import dlap_pmf, dlap_sample, smooth_noise_inverse_cdf
from lwdp_triangles.protocol import Mechanism

from conftest import kernel_value, oracle_value, random_graph, random_local_instance

PS = (math.exp(-0.5), math.exp(-1.0), math.exp(-2.0))


def record(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} {status} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_smooth_sensitivity_oracle_equivalence():
    rnd = random.Random(20250810)
    t0 = time.time()
    worst = 0.0
    matched = 0
    instances = [random_local_instance(rnd, EstimatorKind.BIASED) for _ in range(500)]
    instances += [random_local_instance(rnd, EstimatorKind.UNBIASED, p=PS[i % 3])
                  for i in range(500)]
    for inst in instances:
        fast = kernel_value(inst)
        oracle = oracle_value(inst)
        worst = max(worst, abs(fast - oracle) / max(abs(oracle), 1e-12))
        matched += math.isclose(fast, oracle, rel_tol=1e-12, abs_tol=1e-12)
    elapsed = time.time() - t0
    ok = matched == 1000 and elapsed < 60.0
    record(1, "smooth-sensitivity oracle equivalence", ok,
           f"{matched}/1000 instances matched, worst rel dev {worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_assignment_optimality_gap():
    ratio_sq = 3 + 2 * math.sqrt(2)
    ratio_c4 = 2 + 2 * math.sqrt(2)
    rnd = random.Random(20240817)
    checked = sq_ok = c4_ok = 0
    while checked < 200:
        g = random_graph(rnd, rnd.randint(5, 14), rnd.uniform(0.2, 0.7), -5, 5)
        tris = enumerate_triangles(g)
        if not (1 <= len(tris) <= 8):
            continue
        checked += 1
        greedy = greedy_assign(g, tris)
        opt, opt_sq = brute_force_optimal_assign(g, tris)
        if greedy.squared_load() <= ratio_sq * opt_sq + 1e-9:
            sq_ok += 1
        g_c4, o_c4 = count_c4_instances(greedy), count_c4_instances(opt)
        if (g_c4 == 0 if o_c4 == 0 else g_c4 <= ratio_c4 * o_c4 + 1e-9):
            c4_ok += 1
    ok = sq_ok == 200 and c4_ok == 200
    record(2, "greedy assignment optimality gap", ok,
           f"squared-load bound {sq_ok}/200, covariance-pair bound {c4_ok}/200")


def test_criterion_3_unbiasedness():
    worst = 0.0
    for p in PS:
        for delta in range(-20, 21):
            got = expectation_by_summation(EstimatorKind.UNBIASED, delta, 0, p)
            worst = max(worst, abs(got - (1.0 if delta < 0 else 0.0)))
    series_ok = worst <= 1e-9

    g = generate_synthetic(50, 0.4, seed=11, weight_range=(-3, 6))
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    lam = 5
    exact = exact_below_threshold_count(g, lam, tris)
    budget = PrivacyBudget(1.0, 1.0)
    estimates = []
    for s in range(200):
        rep = run_two_step(g, lam, budget, EstimatorKind.UNBIASED, Mechanism.GLOBAL_LAPLACE,
                           RandomSource(5000 + s), triangles=tris, assignment=assignment)
        estimates.append(rep.estimate)
    mean = float(np.mean(estimates))
    se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    z = abs(mean - exact) / se
    ok = series_ok and z <= 3.0
    record(3, "unbiasedness", ok,
           f"truncated-series worst dev {worst:.2e}, end-to-end z = {z:.2f} over 200 runs")


def test_criterion_4_closed_form_moments_vs_monte_carlo():
    n = 100_000
    lam = 0
    worst_z = 0.0
    for kind in EstimatorKind:
        for p in (math.exp(-0.5), math.exp(-1.0)):
            for w in (lam - 1, lam):
                z_noise = dlap_sample(p, RandomSource(int(1e6 * p) + w).stream(1), size=n)
                if kind is EstimatorKind.BIASED:
                    vals = (w + z_noise < lam).astype(float)
                else:
                    x = p / (1 - p) ** 2
                    m = w + z_noise
                    vals = np.where(m > lam, 0.0,
                                    np.where(m == lam, -x,
                                             np.where(m == lam - 1, 1.0 + x, 1.0)))
                var = float(np.var(vals, ddof=1))
                m4 = float(np.mean((vals - vals.mean()) ** 4))
                se = math.sqrt(max(m4 - var ** 2, 1e-12) / n)
                closed, _ = closed_form_moments(kind, w, w, lam, p)
                worst_z = max(worst_z, abs(var - closed) / se)
    ok = worst_z <= 3.0
    record(4, "closed-form moments vs Monte Carlo", ok,
           f"worst |z| = {worst_z:.2f} over both estimators at boundary weights")


def test_criterion_5_mechanism_correctness():
    ratio_ok = True
    for eps in (0.5, 1.0, 2.0):
        p = math.exp(-eps)
        for i in range(-50, 51):
            ratio = dlap_pmf(i, p) / dlap_pmf(i - 1, p)
            if not (math.exp(-eps) * (1 - 1e-12) <= ratio <= math.exp(eps) * (1 + 1e-12)):
                ratio_ok = False
    draws = smooth_noise_inverse_cdf(RandomSource(31337).stream(0).random(1_000_000))
    var = float(np.var(draws))
    var_ok = abs(var - 1.0) <= 0.05
    ok = ratio_ok and var_ok
    record(5, "mechanism correctness", ok,
           f"pmf ratio bound {'held' if ratio_ok else 'violated'}, "
           f"smooth-noise empirical variance {var:.4f}")


def test_criterion_6_qualitative_figure_reproduction():
    t0 = time.time()
    g = generate_synthetic(150, 0.5, seed=42,
                           weight_values=[0, 3, 40], weight_probs=[0.63, 0.35, 0.02])
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    lam = 7  # calibrated: ~10% of triangles exceed it
    weights = triangle_weights(g, g.weight_array, tris).tolist()
    exceed = sum(1 for w in weights if w >= lam) / len(weights)
    exact = sum(1 for w in weights if w < lam)
    budget = PrivacyBudget.even_split(2.0)
    smooth_e, global_e, base_e = [], [], []
    for s in range(10):
        rng = RandomSource(1000 + s)
        rs = run_two_step(g, lam, budget, EstimatorKind.UNBIASED, Mechanism.SMOOTH, rng,
                          triangles=tris, assignment=assignment)
        rg = run_two_step(g, lam, budget, EstimatorKind.UNBIASED, Mechanism.GLOBAL_LAPLACE, rng,
                          triangles=tris, assignment=assignment)
        rb = run_baseline(g, lam, 2.0, rng, triangles=tris)
        smooth_e.append(abs(exact - rs.estimate) / exact)
        global_e.append(abs(exact - rg.estimate) / exact)
        base_e.append(abs(exact - rb.estimate) / exact)
    wins_base = sum(s < b for s, b in zip(smooth_e, base_e))
    wins_glob = sum(s < gl for s, gl in zip(smooth_e, global_e))
    med_ok = (statistics.median(smooth_e) < statistics.median(base_e)
              and statistics.median(smooth_e) < statistics.median(global_e))
    elapsed = time.time() - t0
    ok = (wins_base >= 8 and wins_glob >= 8 and med_ok
          and 0.05 <= exceed <= 0.15 and elapsed < 300.0)
    record(6, "qualitative figure reproduction", ok,
           f"smooth beat baseline {wins_base}/10 and global {wins_glob}/10 paired seeds "
           f"(medians {statistics.median(smooth_e):.4f} / {statistics.median(global_e):.4f} / "
           f"{statistics.median(base_e):.4f}), exceed fraction {exceed:.3f}, {elapsed:.0f}s")


def test_criterion_7_scale_check():
    g = generate_synthetic(180, 0.5, seed=7,
                           weight_values=[0, 1, 2, 3, 8],
                           weight_probs=[0.55, 0.2, 0.12, 0.08, 0.05])
    t0 = time.time()
    tris = enumerate_triangles(g)
    assignment = greedy_assign(g, tris)
    lam = 9
    rep = run_two_step(g, lam, PrivacyBudget.even_split(2.0), EstimatorKind.UNBIASED,
                       Mechanism.SMOOTH, RandomSource(3), triangles=tris, assignment=assignment)
    elapsed = time.time() - t0
    rel = abs(rep.exact_count - rep.estimate) / rep.exact_count
    ok = len(tris) >= 100_000 and elapsed < 300.0
    record(7, "scale check", ok,
           f"{len(tris)} triangles, end-to-end smooth-unbiased in {elapsed:.1f}s, "
           f"relative error {rel:.4f}")


def test_criterion_8_communication_accounting():
    rnd = random.Random(88)
    graphs = [
        WeightedGraph(0, []),
        WeightedGraph(4, [(u, v, 0) for u in range(4) for v in range(u + 1, 4)]),
        random_graph(rnd, 12, 0.5, -4, 4),
        random_graph(rnd, 20, 0.3, -4, 4),
        WeightedGraph(5, [(0, 1, 1), (2, 3, 1)]),  # triangle-free
    ]
    ok = True
    details = []
    for g in graphs:
        tris = enumerate_triangles(g)
        rep = run_two_step(g, 1, PrivacyBudget(1.0, 1.0), EstimatorKind.BIASED,
                           Mechanism.GLOBAL_LAPLACE, RandomSource(4), triangles=tris)
        good = (rep.tallies.downloads == len(tris)
                and rep.tallies.uploads_step1 == 2 * g.edge_count
                and rep.tallies.uploads_step2 == g.node_count)
        ok = ok and good
        details.append(f"n={g.node_count}: dl={rep.tallies.downloads}=|D|, "
                       f"ul1={rep.tallies.uploads_step1}=2m")
    record(8, "communication accounting", ok, "; ".join(details))
