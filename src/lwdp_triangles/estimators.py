"""Per-triangle below-threshold estimators and their closed-form moments.

The moments here double as test oracles for the protocol: expectations and
variances are exact (powers of p underflow to zero harmlessly when the
threshold distance is huge), and the truncated-series expectations provide
an independent summation route against the closed forms.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .mechanisms import check_p, dlap_cdf, dlap_pmf


class EstimatorKind(str, enum.Enum):
    BIASED = "biased"
    UNBIASED = "unbiased"


def unbiased_correction(p: float) -> float:
    """The h-function correction x = p/(1-p)^2."""
    check_p(p, allow_zero=True)
    return p / (1.0 - p) ** 2


def h_value(m: int, lam: int, p: float) -> float:
    """Unbiased-estimator response for a noisy triangle weight m.

    Piecewise in m: 0 above lam, -x at lam, 1+x at lam-1, and 1 below,
    with x = p/(1-p)^2.  At p = 0 (the epsilon_1 -> infinity limit) this
    collapses to the exact indicator.
    """
    x = unbiased_correction(p)
    if m > lam:
        return 0.0
    if m == lam:
        return -x
    if m == lam - 1:
        return 1.0 + x
    return 1.0


def estimate(kind: EstimatorKind, noisy_triangle_weight: int, lam: int, p: float) -> float:
    if kind is EstimatorKind.BIASED:
        return float(noisy_triangle_weight < lam)
    return h_value(noisy_triangle_weight, lam, p)


def estimate_array(
    kind: EstimatorKind, noisy_triangle_weights: np.ndarray, lam: int, p: float
) -> np.ndarray:
    """``estimate`` of every entry of an int64 array, bit for bit."""
    m = noisy_triangle_weights
    if kind is EstimatorKind.BIASED:
        return (m < lam).astype(float)
    x = unbiased_correction(p)
    out = np.where(m < lam, 1.0, 0.0)
    out[m == lam] = -x
    out[m + 1 == lam] = 1.0 + x
    return out


def estimator_step_bound(kind: EstimatorKind, p: float) -> float:
    """Largest change of the estimator when one input weight moves by 1."""
    if kind is EstimatorKind.BIASED:
        return 1.0
    return 1.0 + 2.0 * unbiased_correction(p)


# -- closed-form moments ----------------------------------------------------


def expected_biased(w_T: int, lam: int, p: float) -> float:
    """E[B'_T] = Pr[DLap(p) < lam - w_T], in the two-case closed form."""
    check_p(p)
    if w_T < lam:
        return 1.0 - p ** (lam - w_T) / (1.0 + p)
    return p ** (w_T - lam + 1) / (1.0 + p)


def variance_biased(w_T: int, lam: int, p: float) -> float:
    """Var[B'_T] = E(1-E) for the indicator estimator."""
    e = expected_biased(w_T, lam, p)
    return e * (1.0 - e)


def covariance_biased(w_T: int, w_T_prime: int, lam: int, p: float) -> float:
    """Exact covariance of two biased estimators sharing one noisy weight.

    Both indicators fire together exactly when the shared noise is below
    lam - max(w_T, w_T'), so the covariance is a difference of strict CDFs.
    """
    check_p(p)
    joint = dlap_cdf(lam - max(w_T, w_T_prime), p)
    return joint - dlap_cdf(lam - w_T, p) * dlap_cdf(lam - w_T_prime, p)


def variance_unbiased(w_T: int, lam: int, p: float) -> float:
    """Exact Var[U'_T] under DLap(p) noise on the non-incident weight.

    Derived by summing the geometric series over the four pieces of h; the
    boundary values at w_T = lam and w_T = lam - 1 coincide.
    """
    check_p(p)
    x = unbiased_correction(p)
    if w_T >= lam:
        d = w_T - lam
        return p ** d / (1.0 + p) * ((1.0 - p) * (x * x + p * (1.0 + x) ** 2) + p * p)
    d = lam - w_T
    return p ** (d - 1) / (1.0 + p) * ((1.0 - p) * (p * x * x + (1.0 + x) ** 2) - 1.0)


def unbiased_variance_cap(p: float) -> float:
    """Boundary-case cap 4p(p/(1-p)^3 + 1 - p), dominating Var[U'_T] for every w_T."""
    check_p(p)
    return 4.0 * p * (p / (1.0 - p) ** 3 + 1.0 - p)


def unbiased_covariance_bound(p: float) -> float:
    """Upper bound on |Cov[U'_T, U'_T']| for a shared-noise pair (Cauchy-Schwarz route).

    Exposed as a bound only; no exact closed form is available.
    """
    return unbiased_variance_cap(p)


def closed_form_moments(
    kind: EstimatorKind, w_T: int, w_T_prime: int, lam: int, p: float
) -> tuple[float, float]:
    """(per-triangle variance at w_T, covariance of a shared-noise pair).

    Biased: both entries are exact.  Unbiased: the variance is exact and the
    covariance entry is the upper bound, not an exact value.
    """
    if kind is EstimatorKind.BIASED:
        return variance_biased(w_T, lam, p), covariance_biased(w_T, w_T_prime, lam, p)
    return variance_unbiased(w_T, lam, p), unbiased_covariance_bound(p)


# -- independent summation oracles ------------------------------------------


def _truncation_radius(lam: int, w_T: int, p: float, magnitude: float, tol: float) -> int:
    # Two-sided tail mass beyond radius r is 2 p^{r+1}/(1+p); keep its
    # contribution (times the largest summand magnitude) under tol.
    r = abs(lam - w_T) + 2
    bound = tol * (1.0 + p) / (2.0 * max(magnitude, 1.0))
    if bound > 0:
        r = max(r, int(math.ceil(math.log(bound) / math.log(p))) + 1)
    return r


def expectation_by_summation(
    kind: EstimatorKind, w_T: int, lam: int, p: float, tol: float = 1e-12
) -> float:
    """E[g(w_T + Z)] by direct truncated summation over the DLap(p) pmf."""
    check_p(p)
    x = unbiased_correction(p)
    magnitude = 1.0 + 2.0 * x if kind is EstimatorKind.UNBIASED else 1.0
    radius = _truncation_radius(lam, w_T, p, magnitude, tol)
    total = 0.0
    for z in range(-radius, radius + 1):
        total += dlap_pmf(z, p) * estimate(kind, w_T + z, lam, p)
    return total


def variance_by_summation(
    kind: EstimatorKind, w_T: int, lam: int, p: float, tol: float = 1e-12
) -> float:
    """Var[g(w_T + Z)] by truncated summation; oracle for the closed forms."""
    check_p(p)
    x = unbiased_correction(p)
    magnitude = (1.0 + 2.0 * x) ** 2 if kind is EstimatorKind.UNBIASED else 1.0
    radius = _truncation_radius(lam, w_T, p, magnitude, tol)
    mean = sq = 0.0
    for z in range(-radius, radius + 1):
        pr = dlap_pmf(z, p)
        val = estimate(kind, w_T + z, lam, p)
        mean += pr * val
        sq += pr * val * val
    return sq - mean * mean
