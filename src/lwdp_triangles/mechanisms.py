"""Randomized primitives: discrete Laplace, continuous Laplace, smooth-sensitivity noise.

Every draw comes from one substream per (node, round) pair, derived from a
single master seed: the stream ``default_rng(SeedSequence(seed,
spawn_key=key))`` would give, bit for bit.  ``RandomSource`` runs numpy's
SeedSequence hash for a whole batch of keys at once (shared words as Python
ints, per-key words as uint64 arrays), and ``node_raw`` runs numpy's PCG64
on the seeds in blocked uint64 array passes, so the protocol builds no
generator per node.  ``add_dlap_node_noise`` repeats numpy's DLap (its
geometric search, from epsilon = ln 1.5 up; below, each node draws from its
own generator) and ``node_uniforms`` its ``random()`` on those outputs, which
step 2 turns into noise through one unit inverse CDF per mechanism;
``test_mechanisms`` checks the hash and every draw against numpy on 10,000+ keys.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .graph import integral, integral_array

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


# -- numpy's PCG64, batched over streams ---------------------------------------

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# (stream, draw) lanes of one kernel block at most: this bounds its temporary arrays
KERNEL_LANES = 8192


def _mul128(ah, al, bh, bl):
    """(a * b) mod 2^128 of (high, low) uint64 words, by 32-bit halves."""
    a1, a0, b1, b0 = al >> 32, al & _MASK32, bl >> 32, bl & _MASK32
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = (mid & _MASK32) + a0 * b1
    return a1 * b1 + (mid >> 32) + (carry >> 32) + ah * bl + al * bh, al * bl


def _add128(ah, al, bh, bl):
    low = al + bl
    return ah + bh + (low < al), low


@functools.lru_cache(maxsize=None)
def _jumps(steps: int) -> tuple[np.ndarray, ...]:
    # the (high, low) uint64 words of a^k and of a^(k-1) + ... + 1 for k = 1..steps;
    # callers ask for powers of two, so few tables are ever built
    power, total, words = 1, 0, []
    for _ in range(steps):
        power, total = power * _PCG_MULT % (1 << 128), (total * _PCG_MULT + 1) % (1 << 128)
        words.append((*divmod(power, 1 << 64), *divmod(total, 1 << 64)))
    return tuple(np.array(words, dtype=np.uint64).reshape(-1, 4).T)


def _pcg64_raw(seeds: np.ndarray, counts: np.ndarray):
    """Blocks (rows, draws, raw): raw[k, i] is output draws[k] of the PCG64
    seeded by ``seeds[i]``, for the rows i < rows still drawing (rows sorted
    by decreasing count), and padding past counts[i].

    ``pcg64_set_seed`` reads the state from words 0-1 and the sequence from
    2-3, high word first; ``srandom`` sets inc = 2 seq + 1, steps from state
    0, adds the state and steps.  Output k is XSL-RR of s_k = a^k s_0 +
    (a^(k-1) + ... + 1) inc; a block takes J steps for all its rows at once.
    """
    top = int(counts.max(initial=0))
    ah, al, gh, gl = _jumps(1 << (min(top, KERNEL_LANES) - 1).bit_length())
    ch, cl = seeds[:, 2] << 1 | seeds[:, 3] >> 63, seeds[:, 3] << 1 | 1
    sh, sl = _add128(ch, cl, seeds[:, 0], seeds[:, 1])
    sh, sl = _add128(*_mul128(sh, sl, ah[:1], al[:1]), ch, cl)
    # the terms (a^(k-1) + ... + 1) inc of every row, the same in every block
    th = tl = np.empty((0, counts.size), dtype=np.uint64)
    done = 0  # draws made by every row still drawing
    while done < top:
        rows = int(np.searchsorted(-counts, -done))  # the rows with count > done
        j = min(max(KERNEL_LANES // rows, 1), top - done)
        if j > len(th):
            more = _mul128(ch[:rows], cl[:rows], gh[len(th):j, None], gl[len(th):j, None])
            th, tl = (np.concatenate((old[:, :rows], new)) for old, new in zip((th, tl), more))
        high, low = _mul128(sh[:rows], sl[:rows], ah[:j, None], al[:j, None])
        high, low = _add128(high, low, th[:j, :rows], tl[:j, :rows])
        sh, sl, mixed, rot = high[-1], low[-1], high ^ low, high >> 58
        yield rows, np.arange(done, done + j), mixed >> rot | mixed << (64 - rot & 63)
        done += j


class RandomSource:
    """Master seed plus a deterministic substream per (node, round) pair.

    Distinct spawn keys yield statistically independent numpy streams, and
    identical master seeds reproduce runs bit for bit.  ``subsource`` nests
    another key level (used to pair trials across methods in experiments).
    ``stream(*key)`` equals ``default_rng(SeedSequence(seed,
    spawn_key=prefix + key))`` bit for bit, and like that rejects a negative
    or fractional seed or key entry.  ``node_streams`` and ``node_raw`` give
    the streams and the outputs of many nodes from one batched hash.
    """

    def __init__(self, seed: int, prefix: tuple[int, ...] = ()):
        self.seed = integral(seed, "seed")
        self.prefix = tuple(integral(k, "spawn key entry") for k in prefix)

    def _entropy(self, key: tuple[int, ...]) -> list[int]:
        # SeedSequence pads the seed's words with zeros to the pool size
        # before a spawn key, and hashes an empty key the same way
        words = _seed_words(self.seed)
        words += [0] * (_POOL_SIZE - len(words))
        for k in self.prefix + key:
            words += _seed_words(k)
        return words

    def stream(self, *key: int) -> Generator:
        entropy = self._entropy(tuple(integral(k, "spawn key entry") for k in key))
        return _generator(_pcg64_seeds(entropy)[0])

    def node_streams(self, nodes, round_no: int) -> Iterator[Generator]:
        """``stream(v, round_no)`` for every v of ``nodes``, in order.

        All keys are hashed at once, here; each generator is a fresh one,
        built only when the iterator reaches it.
        """
        return (_generator(words) for words in self._seed_rows(nodes, round_no))

    def node_raw(self, nodes, round_no: int, counts):
        """Blocks (positions, draws, raw) that together give every i's
        ``stream(nodes[i], round_no).bit_generator.random_raw(counts[i])``:
        raw[k, r] is output draws[k] of ``nodes[positions[r]]`` (padding past
        its count), from ``_pcg64_raw`` on ``KERNEL_LANES`` streams at a time."""
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        seeds = self._seed_rows(nodes, round_no)
        if counts.shape != seeds[:, 0].shape or (counts < 0).any():
            raise ValueError("expected one non-negative draw count per node")
        for chunk in np.split(np.argsort(-counts), range(KERNEL_LANES, counts.size, KERNEL_LANES)):
            for rows, draws, raw in _pcg64_raw(seeds[chunk], counts[chunk]):
                yield chunk[:rows], draws, raw

    def _seed_rows(self, nodes, round_no: int) -> np.ndarray:
        # the PCG64 seed words of stream(v, round_no) for every v, as rows
        # ids that numpy reads as uint64 (such as [2**63]) are taken as they
        # are; other input past int64 fails in integral_array
        ids = integral_array(nodes, "node id").reshape(-1)
        if ids.dtype.kind == "i" and ids.size and ids.min() < 0:
            raise ValueError("expected non-negative integer")
        ids = ids.astype(np.uint64)
        head = self._entropy(())
        tail = _seed_words(integral(round_no, "round number"))
        high, low = ids >> 32, ids & _MASK32
        seeds = np.empty((ids.size, 4), dtype=np.uint64)
        # a node id of 2^32 or more is two words, which hash in their own batch
        for wide in (False, True):
            rows = np.flatnonzero((high > 0) == wide)
            if rows.size:
                words = [low[rows], high[rows]] if wide else [low[rows]]
                seeds[rows] = _pcg64_seeds(head + words + tail)
        return seeds

    def subsource(self, *key: int) -> "RandomSource":
        return RandomSource(self.seed, self.prefix + key)


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


# numpy's geometric(q) searches cumulative sums for q at least this, and
# inverts a ziggurat exponential below it (random_geometric in distributions.c)
_GEOMETRIC_SEARCH_MIN = 0.333333333333333333333333
# a uniform's bucket of width 2^-_BUCKET_BITS is its output's top bits
_BUCKET_BITS = 10


def _geometric_search(q: float):
    """numpy's geometric(q) search as a function of raw outputs: one plus
    the number of sums q, q + q(1-q), ... (numpy's float recurrence) below u,
    read per bucket of u or, where a sum splits the bucket, searched.  The
    sums end at one of at least 1 - 2^-53, the largest u, or where they stop
    growing: for some q (about 1.2% of epsilon in [ln 1.5, 50]) below it,
    and numpy's loop never ends for a u above the last sum; the search gives
    len(sums) + 1 there."""
    sums, total, prod = [q], q, q
    while total < 1.0 - 2.0**-53 and total + prod * (1.0 - q) != total:
        prod *= 1.0 - q
        total += prod
        sums.append(total)
    sums = np.array(sums)
    edges = sums.searchsorted(np.arange((1 << _BUCKET_BITS) + 1) / (1 << _BUCKET_BITS))
    below = np.where(edges[1:] == edges[:-1], edges[:-1], -1)

    def draws(raw: np.ndarray) -> np.ndarray:
        counts = below[raw >> 64 - _BUCKET_BITS]
        search = np.flatnonzero(counts < 0)
        counts[search] = sums.searchsorted((raw[search] >> 11) * 2.0**-53)
        return counts + 1

    return draws


def add_dlap_node_noise(out, indptr, p: float, rng: RandomSource, round_no: int) -> None:
    """Add ``dlap_sample(p, rng.stream(v, round_no), size=k)`` to every node
    v's k slots ``out[indptr[v]:indptr[v+1]]``, bit for bit: g1 from the
    stream's first k draws, g2 from the next k.  For 1 - p >= 1/3 (epsilon
    >= ln 1.5) each draw searches one of the kernel's outputs, and every
    block adds its noise to its slots; below, each node calls ``dlap_sample``.
    """
    check_p(p)
    nodes, sizes = np.arange(len(indptr) - 1), np.diff(indptr)
    if 1.0 - p < _GEOMETRIC_SEARCH_MIN:
        bounds = indptr.tolist()
        for v, stream in enumerate(rng.node_streams(nodes, round_no)):
            out[bounds[v]:bounds[v + 1]] += dlap_sample(p, stream, size=int(sizes[v]))
        return
    geometric = _geometric_search(1.0 - p)
    for v, draws, raw in rng.node_raw(nodes, round_no, 2 * sizes):
        size, draws = sizes[v], draws[:, None]
        keep, second = draws < 2 * size, draws >= size
        g = geometric(raw[keep])
        np.add.at(out, (indptr[v] + draws - size * second)[keep], np.where(second[keep], -g, g))


def node_uniforms(rng: RandomSource, nodes, round_no: int) -> np.ndarray:
    """The first nonzero double of ``rng.stream(v, round_no)`` for every v of
    ``nodes``, in order, as ``Generator.random`` reads it; one kernel pass."""
    u = np.empty(len(nodes))
    for i, _, raw in rng.node_raw(nodes, round_no, np.ones(len(nodes), dtype=np.int64)):
        u[i] = (raw[0] >> 11) * 2.0**-53  # numpy's next_double
    for i in np.flatnonzero(u == 0.0):  # measure zero: the stream itself redraws
        stream = rng.stream(int(nodes[i]), round_no)
        while u[i] == 0.0:
            u[i] = stream.random()
    return u


def laplace_inverse_cdf(u: np.ndarray) -> np.ndarray:
    """Unit Laplace draws from uniforms in (0, 1): numpy's ``random_laplace``
    at scale 1, with the libm ``log`` numpy calls (``np.log`` rounds some
    inputs differently).  s times the draw from a stream's first nonzero
    double is that stream's ``laplace(0.0, s)`` bit for bit, sign of zero
    included: s * (0.0 - L) = 0.0 - s * L."""
    return np.array([
        0.0 - math.log(2.0 - x - x) if x >= 0.5 else 0.0 + math.log(x + x)
        for x in u.tolist()
    ])


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


def smooth_noise_inverse_cdf(u: np.ndarray) -> np.ndarray:
    """Draws of Z (Var[Z] = 1) from uniforms in (0, 1), element by element:
    bisection on the exact CDF, whose tail bound 1 - F(z) <= sqrt(2)/(3 pi z^3)
    gives a safe upper bracket.  The bisection stops early once it cannot
    change the result."""
    tail = np.minimum(u, 1.0 - u)
    hi = np.cbrt(_SQRT2 / (3.0 * math.pi * np.maximum(tail, 1e-300))) + 2.0
    lo = -hi
    for i in range(80):
        mid = 0.5 * (lo + hi)
        # Where mid is lo or hi, a round leaves (lo, hi) as it is or makes it
        # (mid, mid), whichever way the comparison goes, and 0.5 * (mid + mid)
        # is mid; so from a round where that holds for every element, every
        # later round keeps it and the result is this mid, bit for bit.
        # Node-sized batches get there at round 60 to 76; checking every
        # fourth round from 40 costs little.
        if i >= 40 and i % 4 == 0 and ((mid == lo) | (mid == hi)).all():
            return mid
        below = smooth_noise_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
