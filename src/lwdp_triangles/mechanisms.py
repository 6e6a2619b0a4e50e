"""Randomized primitives: discrete Laplace, continuous Laplace, smooth-sensitivity noise.

All samplers draw from explicit ``numpy.random.Generator`` streams.  The
protocol derives one independent substream per (node, round) pair from a
single master seed, so runs are bit-identical under a fixed seed and
per-node work never contends on a shared generator.

Every substream is the stream ``default_rng(SeedSequence(seed,
spawn_key=key))`` would give, bit for bit, but ``RandomSource`` does not
build a ``SeedSequence`` per key.  It runs numpy's published SeedSequence
hash (``hashmix``/``mix`` over a pool of four 32-bit words, then
``generate_state(4, uint64)``) itself, once for a whole batch of keys: the
words shared by every key are hashed once as Python ints and the per-key
words as uint64 arrays.  Each key's four seed words then seed a fresh
``PCG64``.  ``test_mechanisms::test_seeding_kernel_matches_numpy_seed_sequence``
checks the kernel against numpy's own ``SeedSequence`` on more than 10,000
keys, so a change of numpy's seeding would fail there first.

The smooth-noise sampler takes one stream per draw: every node's uniform
still comes from its own substream, and one batched inverse CDF serves all
of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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


# -- seeding: numpy's SeedSequence hash, batched over keys --------------------

_MASK32 = 0xFFFF_FFFF
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_words(value: int) -> list[int]:
    """The 32-bit words SeedSequence takes from one entropy or spawn-key
    integer, least significant first; 0 gives one word."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(hash_const: int, multiplier: int) -> Iterator[tuple[int, int]]:
    # the (xor, multiply) constants of successive hashmix calls
    while True:
        xor = hash_const
        hash_const = hash_const * multiplier & _MASK32
        yield xor, hash_const


# Masking every product and difference to 32 bits makes the arithmetic
# below give the same words on Python ints and on uint64 arrays.


def _hashmix(value, constants):
    xor, multiplier = next(constants)
    value = (value ^ xor) * multiplier & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _pcg64_seeds(entropy: list) -> np.ndarray:
    """``SeedSequence.generate_state(4, uint64)`` for a batch of keys.

    ``entropy`` is the assembled entropy, at least ``_POOL_SIZE`` words in
    order; each word is a Python int shared by every key or a uint64 array
    with one word per key (all arrays of one length).  Returns one row of
    four uint64 seed words per key.
    """
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], constants) for i in range(8)]
    # little-endian word pairs, as SeedSequence views its uint32 state
    seeds = [np.asarray(state[i] | state[i + 1] << 32, dtype=np.uint64) for i in range(0, 8, 2)]
    return np.stack(np.broadcast_arrays(*seeds), axis=-1).reshape(-1, 4)


class _SeedWords(ISeedSequence):
    """One key's precomputed seed, which ``PCG64`` reads in place of a
    ``SeedSequence``: it asks for exactly these four uint64 words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the type itself, which the identity test settles
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("holds only the 4 uint64 words that seed PCG64")
        return self._words.copy()


def _generator(words: np.ndarray) -> Generator:
    return Generator(PCG64(_SeedWords(words)))


class RandomSource:
    """Master seed plus a deterministic substream per (node, round) pair.

    Distinct spawn keys yield statistically independent numpy streams, and
    identical master seeds reproduce runs bit for bit.  ``subsource`` nests
    another key level (used to pair trials across methods in experiments).
    ``stream(*key)`` equals ``default_rng(SeedSequence(seed,
    spawn_key=prefix + key))`` bit for bit, and rejects what that rejects (a
    negative seed or key entry).  ``node_streams`` gives the streams of many
    nodes from one batched pass of the same seeding kernel.
    """

    def __init__(self, seed: int, prefix: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.prefix = tuple(int(k) for k in prefix)

    def _entropy(self, key: tuple[int, ...]) -> list[int]:
        # SeedSequence pads the seed's words with zeros to the pool size
        # before a spawn key, and hashes an empty key the same way
        words = _seed_words(self.seed)
        words += [0] * (_POOL_SIZE - len(words))
        for k in self.prefix + key:
            words += _seed_words(k)
        return words

    def stream(self, *key: int) -> Generator:
        entropy = self._entropy(tuple(int(k) for k in key))
        return _generator(_pcg64_seeds(entropy)[0])

    def node_streams(self, nodes, round_no: int) -> Iterator[Generator]:
        """``stream(v, round_no)`` for every v of ``nodes``, in order.

        All keys are hashed at once, here; each generator is a fresh one,
        built only when the iterator reaches it.
        """
        ids = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if ids.size and ids.min() < 0:
            raise ValueError("expected non-negative integer")
        head = self._entropy(())
        tail = _seed_words(int(round_no))
        high = (ids >> 32).astype(np.uint64)
        low = (ids & _MASK32).astype(np.uint64)
        seeds = np.empty((ids.size, 4), dtype=np.uint64)
        # a node id of 2^32 or more is two words, which hash in their own batch
        for wide in (False, True):
            rows = np.flatnonzero((high > 0) == wide)
            if rows.size:
                words = [low[rows], high[rows]] if wide else [low[rows]]
                seeds[rows] = _pcg64_seeds(head + words + tail)
        return (_generator(words) for words in seeds)

    def subsource(self, *key: int) -> "RandomSource":
        return RandomSource(self.seed, self.prefix + tuple(int(k) for k in key))


# -- discrete Laplace (geometric mechanism) --------------------------------


def check_p(p: float, allow_zero: bool = False) -> None:
    """Raise unless p lies in (0,1), or in [0,1) with ``allow_zero``."""
    if not ((p >= 0.0 if allow_zero else p > 0.0) and p < 1.0):
        raise ValueError(f"p must lie in {'[0,1)' if allow_zero else '(0,1)'}, got {p}")


def dlap_pmf(i: int, p: float) -> float:
    """Pr[Z = i] for Z ~ DLap(p): (1-p)/(1+p) * p^|i|."""
    check_p(p)
    return (1.0 - p) / (1.0 + p) * p ** abs(i)


def dlap_cdf(k: int, p: float) -> float:
    """Pr[Z < k] (strict) for Z ~ DLap(p), via the geometric-series closed form."""
    check_p(p)
    if k >= 1:
        return 1.0 - p ** k / (1.0 + p)
    return p ** (1 - k) / (1.0 + p)


def dlap_sample(p: float, rng: np.random.Generator, size: int | None = None):
    """Exact DLap(p) draw(s) as the difference of two geometric variates.

    No floating-point rounding of the pmf is involved; the difference of two
    iid geometric(1-p) failure counts has exactly the two-sided pmf.
    """
    check_p(p)
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


def _open_uniform(rng: Generator) -> float:
    x = rng.random()
    while x == 0.0:  # measure-zero guard for the open interval (0,1)
        x = rng.random()
    return x


def smooth_noise_sample(rngs: Iterable[Generator]) -> np.ndarray:
    """One draw of Z from each stream, in order; Var[Z] = 1.

    Each stream gives one uniform in (0, 1), redrawn from the same stream
    on the measure-zero event u == 0, as the iterable reaches it, so a lazy
    iterable of streams never holds more than one.  One inverse-CDF
    bisection to ~1e-12 then turns all uniforms into draws, so a caller
    batching many streams pays for about one bisection.  Sequential scalar
    draws equal ``rng.random(n)`` bit for bit, so one stream passed n times
    gives the uniforms of ``rng.random(n)``.
    """
    return _smooth_noise_inverse_cdf(np.fromiter(map(_open_uniform, rngs), dtype=float))
