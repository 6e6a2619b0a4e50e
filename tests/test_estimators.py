import math

import numpy as np
import pytest

from lwdp_triangles.estimators import (
    EstimatorKind,
    closed_form_moments,
    covariance_biased,
    estimate,
    estimate_array,
    expectation_by_summation,
    expected_biased,
    h_value,
    unbiased_correction,
    unbiased_covariance_bound,
    unbiased_variance_cap,
    variance_biased,
    variance_by_summation,
    variance_unbiased,
)
from lwdp_triangles.mechanisms import RandomSource, dlap_cdf, dlap_sample

PS = (math.exp(-0.5), math.exp(-1.0), math.exp(-2.0))


def test_biased_indicator():
    assert estimate(EstimatorKind.BIASED, 1 + 2 + 0, 4, 0.5) == 1.0
    assert estimate(EstimatorKind.BIASED, 1 + 2 + 1, 4, 0.5) == 0.0  # strict at the threshold
    assert estimate(EstimatorKind.BIASED, -3 - 3 - 3, 0, 0.5) == 1.0


def test_h_value_cases():
    lam = 10
    assert h_value(lam + 7, lam, 0.5) == 0.0
    assert h_value(lam, lam, 0.5) == pytest.approx(-2.0)
    assert h_value(lam - 1, lam, 0.5) == pytest.approx(3.0)
    assert h_value(lam - 5, lam, 0.5) == 1.0
    # p = 0 (the epsilon_1 -> infinity limit) collapses h to the exact indicator
    for m in range(lam - 3, lam + 3):
        assert h_value(m, lam, 0.0) == float(m < lam)


def test_expected_biased_known_values():
    lam = 0
    assert expected_biased(lam - 1, lam, 0.5) == pytest.approx(2 / 3)
    assert expected_biased(lam, lam, 0.5) == pytest.approx(1 / 3)
    assert expected_biased(lam - 60, lam, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_expected_biased_equals_dlap_cdf_and_series():
    for p in PS:
        for delta in range(-12, 13):
            w = 5 + delta
            closed = expected_biased(w, 5, p)
            assert closed == pytest.approx(dlap_cdf(5 - w, p), abs=1e-12)
            series = expectation_by_summation(EstimatorKind.BIASED, w, 5, p)
            assert closed == pytest.approx(series, abs=1e-10)


def test_bias_bound_and_exponential_decay():
    for p in PS:
        eps1 = -math.log(p)
        bound = p / (1 + p)
        for delta in range(-25, 26):
            w = delta
            bias = expected_biased(w, 0, p) - (1.0 if w < 0 else 0.0)
            assert abs(bias) <= bound + 1e-12
            assert abs(bias) <= math.exp(-eps1 * abs(0 - w)) + 1e-12
        # equality exactly at the boundary cases
        assert abs(expected_biased(-1, 0, p) - 1.0) == pytest.approx(bound)
        assert abs(expected_biased(0, 0, p) - 0.0) == pytest.approx(bound)


def test_unbiasedness_by_truncated_summation():
    for p in PS:
        for delta in range(-20, 21):
            w = delta
            got = expectation_by_summation(EstimatorKind.UNBIASED, w, 0, p)
            assert got == pytest.approx(1.0 if w < 0 else 0.0, abs=1e-9)


def test_biased_moments_closed_form():
    lam = 0
    for p in PS:
        var_boundary, _ = closed_form_moments(EstimatorKind.BIASED, lam - 1, lam - 1, lam, p)
        expected = (p / (1 + p)) * (1 - p / (1 + p))
        assert var_boundary == pytest.approx(expected, abs=1e-12)
        for delta in range(-8, 9):
            var = variance_biased(lam + delta, lam, p)
            series = variance_by_summation(EstimatorKind.BIASED, lam + delta, lam, p)
            assert var == pytest.approx(series, abs=1e-10)


def test_biased_covariance_exact_and_bounded():
    lam = 0
    for p in PS:
        bound = 2 * p / (1 + p)
        for wa in range(-5, 6):
            for wb in range(-5, 6):
                cov = covariance_biased(wa, wb, lam, p)
                # first-principles: shared noise, indicators fire together below the max
                joint = dlap_cdf(lam - max(wa, wb), p)
                direct = joint - dlap_cdf(lam - wa, p) * dlap_cdf(lam - wb, p)
                assert cov == pytest.approx(direct, abs=1e-12)
                assert cov <= bound + 1e-12
        # the boundary pair attains the largest covariance over the sweep
        peak = max(
            covariance_biased(wa, wb, lam, p) for wa in range(-5, 6) for wb in range(-5, 6)
        )
        assert peak == pytest.approx(covariance_biased(lam - 1, lam - 1, lam, p))


def test_unbiased_variance_exact_vs_series():
    lam = 3
    for p in PS + (0.5, 0.9, 0.05):
        for delta in range(-10, 11):
            closed = variance_unbiased(lam + delta, lam, p)
            series = variance_by_summation(EstimatorKind.UNBIASED, lam + delta, lam, p)
            assert closed == pytest.approx(series, rel=1e-9, abs=1e-12)


def test_unbiased_variance_boundary_symmetry_and_cap():
    lam = 0
    for p in PS + (0.5, 0.8):
        # Var is identical at the two boundary weights
        assert variance_unbiased(lam, lam, p) == pytest.approx(
            variance_unbiased(lam - 1, lam, p), rel=1e-12
        )
        cap = unbiased_variance_cap(p)
        for delta in range(-15, 16):
            assert variance_unbiased(lam + delta, lam, p) <= cap * (1 + 1e-12)
        _, cov_bound = closed_form_moments(EstimatorKind.UNBIASED, lam, lam, lam, p)
        assert cov_bound == pytest.approx(unbiased_covariance_bound(p))


def _mc_variance(kind, w, lam, p, n, seed):
    z = dlap_sample(p, RandomSource(seed).stream(0), size=n)
    if kind is EstimatorKind.BIASED:
        vals = (w + z < lam).astype(float)
    else:
        vals = np.array([h_value(int(w + zi), lam, p) for zi in z])
    var = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - vals.mean()) ** 4))
    se = math.sqrt(max(m4 - var**2, 1e-12) / n)
    return var, se


def test_monte_carlo_variance_matches_closed_forms():
    lam, p, n = 0, math.exp(-1.0), 100_000
    # fixed per-case seeds: string hashing changes from process to process
    seeds = {
        (EstimatorKind.BIASED, -1): 1491,
        (EstimatorKind.BIASED, 0): 1492,
        (EstimatorKind.UNBIASED, -1): 1493,
        (EstimatorKind.UNBIASED, 0): 1494,
    }
    for kind in EstimatorKind:
        for w in (lam - 1, lam):
            var, se = _mc_variance(kind, w, lam, p, n, seed=seeds[kind, w])
            closed, _ = closed_form_moments(kind, w, w, lam, p)
            assert abs(var - closed) <= 3 * se, (kind, w, var, closed, se)


def test_estimate_dispatch():
    assert estimate(EstimatorKind.BIASED, 3, 4, 0.5) == 1.0
    assert estimate(EstimatorKind.UNBIASED, 3, 4, 0.5) == pytest.approx(3.0)


def test_estimate_array_matches_estimate_bit_for_bit():
    weights = np.arange(-8, 9, dtype=np.int64)
    for kind in EstimatorKind:
        for lam in (-(2**62), -3, 0, 1, 5, 2**62):
            for p in (0.0, 0.3, math.exp(-1.0)):
                got = estimate_array(kind, weights, lam, p)
                expected = [estimate(kind, int(m), lam, p) for m in weights]
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]


def test_unbiased_correction_domain():
    assert unbiased_correction(0.0) == 0.0
    with pytest.raises(ValueError):
        unbiased_correction(1.0)
    with pytest.raises(ValueError):
        h_value(0, 0, -0.1)
