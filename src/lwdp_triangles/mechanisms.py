"""Randomized primitives: discrete Laplace, continuous Laplace, smooth-sensitivity noise.

All samplers draw from explicit ``numpy.random.Generator`` streams.  The
protocol derives one independent substream per (node, round) pair from a
single master seed, so runs are bit-identical under a fixed seed and
per-node work never contends on a shared generator.  The smooth-noise
sampler takes one stream per draw: every node's uniform still comes from
its own substream, and one batched inverse CDF serves all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Exponent of the admissible 1/(1+|z|^gamma) smooth-sensitivity noise: 4 is the
# smallest even exponent with a closed-form variance, and there Var[Z] = 1.
SMOOTH_NOISE_GAMMA = 4.0


def check_dlap_epsilon(epsilon: float) -> None:
    """Reject a DLap budget that is not finite, not positive, or whose
    p = e^{-epsilon} underflows to 0 or rounds to 1."""
    if not math.isfinite(epsilon):
        raise ValueError(f"privacy budgets must be finite, got epsilon = {epsilon}")
    if epsilon <= 0:
        raise ValueError(f"privacy budgets must be strictly positive, got epsilon = {epsilon}")
    p = math.exp(-epsilon)
    if p == 0.0:
        raise ValueError(f"epsilon = {epsilon} makes p = e^(-epsilon) underflow to 0")
    if p == 1.0:
        raise ValueError(f"epsilon = {epsilon} makes p = e^(-epsilon) round to 1")


@dataclass(frozen=True)
class PrivacyBudget:
    """Budget split between the two queries of the protocol.

    ``epsilon_1`` pays for the step-1 weight-vector release, ``epsilon_2``
    for the step-2 count release; their sum must not exceed the total.
    """

    epsilon_1: float
    epsilon_2: float
    epsilon_total: float | None = None

    def __post_init__(self):
        total = self.epsilon_total
        if total is None:
            total = self.epsilon_1 + self.epsilon_2
            object.__setattr__(self, "epsilon_total", total)
        check_dlap_epsilon(self.epsilon_1)
        if not (math.isfinite(self.epsilon_2) and math.isfinite(total)):
            raise ValueError("privacy budgets must be finite")
        if self.epsilon_2 <= 0 or total <= 0:
            raise ValueError("privacy budgets must be strictly positive")
        if self.epsilon_1 + self.epsilon_2 > total + 1e-12:
            raise ValueError("epsilon_1 + epsilon_2 exceeds the total budget")
        if not (math.isfinite(self.smooth_noise_scale) and self.beta > 0.0):
            raise ValueError(
                f"epsilon_2 = {self.epsilon_2} is too small: the step-2 noise scale "
                "overflows or the smoothing parameter beta underflows"
            )

    @property
    def p(self) -> float:
        """Geometric-mechanism parameter e^{-epsilon_1}."""
        return math.exp(-self.epsilon_1)

    @property
    def beta(self) -> float:
        """Smoothing parameter epsilon_2 / (2*(gamma-1)) of the step-2 release."""
        return self.epsilon_2 / (2.0 * (SMOOTH_NOISE_GAMMA - 1.0))

    @property
    def smooth_noise_scale(self) -> float:
        """Release noise multiplier 2*(gamma-1)^((gamma-1)/gamma) / epsilon_2."""
        g = SMOOTH_NOISE_GAMMA
        return 2.0 * (g - 1.0) ** ((g - 1.0) / g) / self.epsilon_2

    @classmethod
    def even_split(cls, epsilon_total: float) -> "PrivacyBudget":
        return cls(epsilon_total / 2.0, epsilon_total / 2.0, epsilon_total)


class RandomSource:
    """Master seed plus a deterministic substream per (node, round) pair.

    Distinct spawn keys yield statistically independent numpy streams, and
    identical master seeds reproduce runs bit for bit.  ``subsource`` nests
    another key level (used to pair trials across methods in experiments).
    """

    def __init__(self, seed: int, prefix: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.prefix = tuple(int(k) for k in prefix)

    def stream(self, *key: int) -> np.random.Generator:
        spawn = self.prefix + tuple(int(k) for k in key)
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=spawn))

    def node_stream(self, node: int, round_no: int) -> np.random.Generator:
        return self.stream(node, round_no)

    def subsource(self, *key: int) -> "RandomSource":
        return RandomSource(self.seed, self.prefix + tuple(int(k) for k in key))


# -- discrete Laplace (geometric mechanism) --------------------------------


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0,1), got {p}")


def dlap_pmf(i: int, p: float) -> float:
    """Pr[Z = i] for Z ~ DLap(p): (1-p)/(1+p) * p^|i|."""
    _check_p(p)
    return (1.0 - p) / (1.0 + p) * p ** abs(i)


def dlap_cdf(k: int, p: float) -> float:
    """Pr[Z < k] (strict) for Z ~ DLap(p), via the geometric-series closed form."""
    _check_p(p)
    if k >= 1:
        return 1.0 - p ** k / (1.0 + p)
    return p ** (1 - k) / (1.0 + p)


def dlap_sample(p: float, rng: np.random.Generator, size: int | None = None):
    """Exact DLap(p) draw(s) as the difference of two geometric variates.

    No floating-point rounding of the pmf is involved; the difference of two
    iid geometric(1-p) failure counts has exactly the two-sided pmf.
    """
    _check_p(p)
    g1 = rng.geometric(1.0 - p, size=size)
    g2 = rng.geometric(1.0 - p, size=size)
    if size is None:
        return int(g1) - int(g2)
    return (g1 - g2).astype(np.int64)


def laplace_sample(scale: float, rng: np.random.Generator, size: int | None = None):
    """Continuous Laplace with the given scale (variance 2*scale^2)."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return rng.laplace(0.0, scale, size=size)


# -- smooth-sensitivity noise Z with density sqrt(2)/pi / (1+z^4) ----------


def smooth_noise_pdf(z):
    return _SQRT2 / math.pi / (1.0 + np.asarray(z, dtype=float) ** 4)


def smooth_noise_cdf(z):
    """Exact CDF from the closed-form antiderivative of 1/(1+t^4)."""
    z = np.asarray(z, dtype=float)
    num = z * z + _SQRT2 * z + 1.0
    den = z * z - _SQRT2 * z + 1.0
    anti = (1.0 / (4.0 * _SQRT2)) * np.log(num / den) + (1.0 / (2.0 * _SQRT2)) * (
        np.arctan(_SQRT2 * z + 1.0) + np.arctan(_SQRT2 * z - 1.0)
    )
    return 0.5 + (_SQRT2 / math.pi) * anti


def _smooth_noise_inverse_cdf(u: np.ndarray) -> np.ndarray:
    # Bracketed bisection on the exact CDF.  The tail bound
    # 1 - F(z) <= sqrt(2)/(3 pi z^3) gives a safe upper bracket.
    tail = np.minimum(u, 1.0 - u)
    hi = np.cbrt(_SQRT2 / (3.0 * math.pi * np.maximum(tail, 1e-300))) + 2.0
    lo = -hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = smooth_noise_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def smooth_noise_sample(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One draw of Z from each stream, in order; Var[Z] = 1.

    Each stream gives one uniform in (0, 1), redrawn from the same stream
    on the measure-zero event u == 0.  One inverse-CDF bisection to ~1e-12
    then turns all uniforms into draws, so a caller batching many streams
    pays for about one bisection.  Sequential scalar draws equal
    ``rng.random(n)`` bit for bit, so one stream passed n times gives the
    uniforms of ``rng.random(n)``.
    """
    u = np.empty(len(rngs))
    for i, rng in enumerate(rngs):
        x = rng.random()
        while x == 0.0:  # measure-zero guard for the open interval (0,1)
            x = rng.random()
        u[i] = x
    return _smooth_noise_inverse_cdf(u)


def privatize_weight_vector(weights, epsilon_1: float, rng: np.random.Generator) -> list[int]:
    """Step-1 release: add iid DLap(e^{-epsilon_1}) noise to every entry."""
    check_dlap_epsilon(epsilon_1)
    values = [int(w) for w in weights]
    noise = dlap_sample(math.exp(-epsilon_1), rng, size=len(values))
    return [w + int(z) for w, z in zip(values, noise)]
