import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from lwdp_triangles import mechanisms
from lwdp_triangles.mechanisms import (
    _geometric_search,
    PrivacyBudget,
    RandomSource,
    check_dlap_epsilon,
    dlap_cdf,
    dlap_pmf,
    dlap_sample,
    laplace_inverse_cdf,
    node_uniforms,
    smooth_noise_cdf,
    smooth_noise_inverse_cdf,
    smooth_noise_pdf,
)


def test_dlap_pmf_known_values():
    assert dlap_pmf(0, 0.5) == pytest.approx(1 / 3, abs=1e-15)
    assert dlap_pmf(1, 0.5) == pytest.approx(1 / 6, abs=1e-15)


@given(st.integers(-40, 40), st.floats(0.01, 0.99))
def test_dlap_pmf_symmetry(i, p):
    assert dlap_pmf(i, p) == pytest.approx(dlap_pmf(-i, p), rel=1e-12)


def test_dlap_pmf_normalizes():
    for p in (0.1, 0.5, 0.9):
        total = sum(dlap_pmf(i, p) for i in range(-2000, 2001))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_dlap_cdf_known_values():
    assert dlap_cdf(1, 0.5) == pytest.approx(2 / 3, abs=1e-15)
    assert dlap_cdf(0, 0.5) == pytest.approx(1 / 3, abs=1e-15)


@given(st.integers(-60, 60), st.floats(0.05, 0.95))
@settings(max_examples=200)
def test_dlap_cdf_matches_pmf_partial_sums(k, p):
    partial = sum(dlap_pmf(i, p) for i in range(-800, k))
    assert dlap_cdf(k, p) == pytest.approx(partial, abs=1e-12)


@given(st.integers(-50, 50), st.floats(0.05, 0.95))
def test_dlap_cdf_complement(k, p):
    above = 1.0 - dlap_cdf(k, p)
    assert dlap_cdf(k, p) + above == pytest.approx(1.0, abs=1e-15)


def test_dlap_ratio_bound_is_pure_dp():
    # pmf(i)/pmf(i-1) must stay inside [e^-eps, e^eps] for the geometric query
    for eps in (0.5, 1.0, 2.0):
        p = math.exp(-eps)
        for i in range(-50, 51):
            ratio = dlap_pmf(i, p) / dlap_pmf(i - 1, p)
            assert ratio <= math.exp(eps) * (1 + 1e-12)
            assert ratio >= math.exp(-eps) * (1 - 1e-12)


def test_dlap_domain_errors():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            dlap_pmf(0, bad)
        with pytest.raises(ValueError):
            dlap_cdf(0, bad)
        with pytest.raises(ValueError):
            dlap_sample(bad, np.random.default_rng(0))


def test_dlap_sample_moments_and_determinism():
    p = 0.5
    rng = RandomSource(123).stream(0)
    draws = dlap_sample(p, rng, size=1_000_000)
    sigma = math.sqrt(2 * p / (1 - p) ** 2)
    assert abs(float(draws.mean())) <= 0.01 * sigma
    # pmf at zero within 3 binomial standard errors
    p0 = dlap_pmf(0, p)
    phat = float(np.mean(draws == 0))
    se = math.sqrt(p0 * (1 - p0) / draws.size)
    assert abs(phat - p0) <= 3 * se
    again = dlap_sample(p, RandomSource(123).stream(0), size=1_000_000)
    assert np.array_equal(draws, again)
    other = dlap_sample(p, RandomSource(124).stream(0), size=1000)
    assert not np.array_equal(draws[:1000], other)


def test_laplace_sample_variance_and_median():
    # one stream's uniforms, in order, are its numpy Laplace draws at scale 1
    b = 1.7
    draws = b * laplace_inverse_cdf(RandomSource(5).stream(1).random(1_000_000))
    numpy_draws = RandomSource(5).stream(1).laplace(0.0, b, size=1000)
    assert [x.hex() for x in draws[:1000].tolist()] == [x.hex() for x in numpy_draws.tolist()]
    assert float(np.var(draws)) == pytest.approx(2 * b * b, rel=0.05)
    assert abs(float(np.median(draws))) < 0.01
    # numpy's 0.0 - b * log(1.0) at u = 1/2 is +0.0, and so is b * (0.0 - 0.0)
    assert math.copysign(1.0, b * laplace_inverse_cdf(np.array([0.5]))[0]) == 1.0


def test_smooth_noise_density_normalizes_by_quadrature():
    total, err = integrate.quad(lambda z: smooth_noise_pdf(z), -np.inf, np.inf)
    assert abs(total - 1.0) < 1e-6


def test_smooth_noise_cdf_matches_quadrature():
    for z in (-3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 2.5, 10.0):
        num, _ = integrate.quad(lambda t: smooth_noise_pdf(t), -np.inf, z)
        assert smooth_noise_cdf(z) == pytest.approx(num, abs=1e-9)


def test_smooth_noise_sample_moments():
    draws = smooth_noise_inverse_cdf(RandomSource(777).stream(2).random(1_000_000))
    assert float(np.var(draws)) == pytest.approx(1.0, rel=0.05)
    assert abs(float(np.mean(draws))) < 0.01
    # Pr[|Z| <= 1] against the quadrature oracle, within 3 standard errors
    target, _ = integrate.quad(lambda t: smooth_noise_pdf(t), -1.0, 1.0)
    phat = float(np.mean(np.abs(draws) <= 1.0))
    se = math.sqrt(target * (1 - target) / draws.size)
    assert abs(phat - target) <= 3 * se


def test_smooth_noise_batched_quantile_equals_one_at_a_time():
    u = np.array([1e-300, 1e-12, 0.5, 1.0 - 2.0 ** -53, 2.0 ** -53, 0.25, 0.999])
    batched = smooth_noise_inverse_cdf(u)
    for x, z in zip(u, batched):
        assert float(z).hex() == float(smooth_noise_inverse_cdf(np.array([x]))[0]).hex()


def _bisect_80_rounds(u):
    # the inverse CDF's bisection without its early stop
    tail = np.minimum(u, 1.0 - u)
    hi = np.cbrt(math.sqrt(2.0) / (3.0 * math.pi * np.maximum(tail, 1e-300))) + 2.0
    lo = -hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = smooth_noise_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_smooth_noise_bisection_stops_early_with_the_same_bits(monkeypatch):
    # uniforms at and next to 0.5 need all 80 rounds (their bracket halves
    # towards 0), as does 1e-300, below the node uniforms' 2^-53
    edges = [2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53, 1e-300]
    drawn = RandomSource(778).stream(2).random(100_000)
    u = np.concatenate((edges, drawn))
    assert smooth_noise_inverse_cdf(u).tobytes() == _bisect_80_rounds(u).tobytes()
    for x in edges:
        once = smooth_noise_inverse_cdf(np.array([x]))[0]
        assert once.hex() == _bisect_80_rounds(np.array([x]))[0].hex(), x
    rounds = []
    cdf = mechanisms.smooth_noise_cdf

    def counted(z):
        rounds.append(len(z))
        return cdf(z)

    monkeypatch.setattr(mechanisms, "smooth_noise_cdf", counted)
    assert smooth_noise_inverse_cdf(drawn).tobytes() == _bisect_80_rounds(drawn).tobytes()
    assert len(rounds) < 80


def test_smooth_noise_sample_draws_one_uniform_per_stream_in_order():
    # each node's uniform is its own stream's first double, in the order of
    # the nodes, whichever other nodes share the call
    source = RandomSource(5)
    nodes = [7, 2, 8, 0, 5, 1, 6, 4, 3]
    batched = node_uniforms(source, nodes, 2)
    assert [x.hex() for x in batched.tolist()] == [
        source.stream(v, 2).random().hex() for v in nodes]
    for i, v in enumerate(nodes):
        assert node_uniforms(source, [v], 2)[0].hex() == batched[i].hex()
    assert node_uniforms(source, [], 2).shape == (0,)


def test_smooth_noise_config_derived_quantities():
    assert PrivacyBudget(1.0, 1.0).smooth_noise_scale == pytest.approx(2 * 3 ** 0.75)
    assert PrivacyBudget(1.0, 1.0).beta == pytest.approx(1 / 6)
    assert PrivacyBudget(1.0, 2.0).beta == pytest.approx(1 / 3)


def test_dlap_sample_noises_a_weight_vector():
    # step 1 adds one dlap_sample(e^{-epsilon_1}, stream, size=d) to each
    # node's d incident weights
    rng = RandomSource(9).stream(0, 1)
    w = [3, -1, 0, 12]
    noise = dlap_sample(math.exp(-1.0), rng, size=len(w))
    assert noise.shape == (len(w),) and noise.dtype == np.int64
    # e^{-700} > 0 but 1 - e^{-700} == 1.0, so every DLap draw is exactly 0
    assert dlap_sample(math.exp(-700.0), rng, size=len(w)).tolist() == [0] * len(w)
    # a read-only slice is noised into a new array, not written to
    view = np.array(w, dtype=np.int64)
    view.flags.writeable = False
    noisy = view[1:] + dlap_sample(math.exp(-700.0), rng, size=len(view[1:]))
    assert noisy.tolist() == w[1:] and view.tolist() == w
    # per-entry empirical mean recovers the true weight
    acc = np.zeros(len(w))
    trials = 4000
    for s in range(trials):
        acc += w + dlap_sample(math.exp(-1.0), RandomSource(50 + s).stream(0, 1), size=len(w))
    sigma = math.sqrt(2 * math.exp(-1) / (1 - math.exp(-1)) ** 2)
    se = sigma / math.sqrt(trials)
    assert np.all(np.abs(acc / trials - np.asarray(w)) <= 4 * se)


def test_budget_validation():
    b = PrivacyBudget(1.0, 1.0)
    assert b.epsilon_total == pytest.approx(2.0)
    assert b.p == pytest.approx(math.exp(-1))
    assert PrivacyBudget.even_split(3.0).epsilon_1 == pytest.approx(1.5)
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 1.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.5, 1.0, 2.0)


@pytest.mark.parametrize(
    "args",
    [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (1.0, 1.0, math.nan),
     (1.0, 1.0, math.inf)],
)
def test_budget_rejects_non_finite_epsilon(args):
    with pytest.raises(ValueError, match="finite"):
        PrivacyBudget(*args)


def test_budget_rejects_epsilon_1_whose_p_underflows():
    assert PrivacyBudget(700.0, 1.0).p > 0.0
    with pytest.raises(ValueError, match="underflow"):
        PrivacyBudget(800.0, 1.0)


def test_epsilon_whose_p_rounds_to_one_is_rejected():
    # p = e^{-1e-17} is exactly 1.0, which dlap_sample used to reject deep inside
    with pytest.raises(ValueError, match="round to 1"):
        check_dlap_epsilon(1e-17)
    with pytest.raises(ValueError, match="round to 1"):
        PrivacyBudget(1e-17, 1.0)
    assert PrivacyBudget(1e-15, 1.0).p < 1.0


@pytest.mark.parametrize("epsilon_2", [1e-310, 5e-324])
def test_budget_rejects_epsilon_2_whose_noise_scale_overflows(epsilon_2):
    # 1e-310 gave a NaN estimate; 5e-324 also makes beta underflow to 0
    with pytest.raises(ValueError, match="too small"):
        PrivacyBudget(1.0, epsilon_2)
    budget = PrivacyBudget(1.0, 1e-300)
    assert math.isfinite(budget.smooth_noise_scale) and budget.beta > 0.0


def test_random_source_streams_are_keyed():
    rs = RandomSource(42)
    a = rs.stream(1, 1).random(4)
    b = rs.stream(1, 1).random(4)
    c = rs.stream(2, 1).random(4)
    d = rs.stream(1, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    sub = rs.subsource(3)
    assert np.array_equal(sub.stream(1, 1).random(4), rs.stream(3, 1, 1).random(4))


# -- the seeding kernel against numpy's own SeedSequence ----------------------

ORACLE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 3, 2**130)
ORACLE_PREFIXES = ((), (0, 0), (3, 2**33))


def numpy_stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def assert_same_stream(ours, theirs):
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.integers(0, 2**63, size=3).tolist() == theirs.integers(0, 2**63, size=3).tolist()
    assert ours.random().hex() == theirs.random().hex()


def test_seeding_kernel_matches_numpy_seed_sequence():
    rnd = random.Random(2026)
    n = 3000  # node ids of a 3000-node graph: 0 and the largest, n - 1, always
    checked = 0
    for seed in ORACLE_SEEDS:
        for prefix in ORACLE_PREFIXES:
            source = RandomSource(seed, prefix)
            for round_no in (1, 2):
                nodes = [0, n - 1] + rnd.sample(range(1, n - 1), 330)
                for v, ours in zip(nodes, source.node_streams(nodes, round_no), strict=True):
                    assert_same_stream(ours, numpy_stream(seed, prefix + (v, round_no)))
                    checked += 1
                v = rnd.choice(nodes)
                assert_same_stream(
                    source.stream(v, round_no), numpy_stream(seed, prefix + (v, round_no))
                )
    # stream(*key) with keys of 0 to 4 entries, small and multi-word
    for _ in range(600):
        seed = rnd.choice(ORACLE_SEEDS + (rnd.getrandbits(rnd.randint(1, 160)),))
        prefix = rnd.choice(ORACLE_PREFIXES)
        key = tuple(
            rnd.choice((0, rnd.randrange(3000), rnd.getrandbits(rnd.randint(1, 96))))
            for _ in range(rnd.randint(0, 4))
        )
        ours = RandomSource(seed, prefix).stream(*key)
        theirs = np.random.SeedSequence(seed, spawn_key=prefix + key)
        assert (
            ours.bit_generator.seed_seq.generate_state(4, np.uint64).tolist()
            == theirs.generate_state(4, np.uint64).tolist()
        )
        assert_same_stream(ours, np.random.default_rng(theirs))
        checked += 1
    assert checked >= 10_000


def test_node_streams_hash_one_and_two_word_node_ids_in_order():
    source = RandomSource(11, (2,))
    nodes = [5, 2**32, 0, 2**63 - 1, 2**32 - 1, 7, 2**40 + 3]
    for v, ours in zip(nodes, source.node_streams(nodes, 1), strict=True):
        assert_same_stream(ours, numpy_stream(11, (2, v, 1)))
    assert list(source.node_streams([], 1)) == []
    assert_same_stream(next(source.node_streams(np.array([9], dtype=np.int32), 2)),
                       numpy_stream(11, (2, 9, 2)))


def test_node_streams_are_fresh_generators_that_keep_their_own_state():
    # drawing from the generators in reverse order must still give every
    # node its own stream: no generator shares state with another
    source = RandomSource(7, (1, 2))
    nodes = [4, 0, 9, 2, 4, 2999]
    streams = list(source.node_streams(nodes, 1))
    draws = [stream.random(3).tolist() for stream in reversed(streams)][::-1]
    for v, got in zip(nodes, draws):
        assert got == source.stream(v, 1).random(3).tolist()
    assert len({id(stream) for stream in streams}) == len(nodes)


def test_negative_seed_or_key_is_rejected_as_by_numpy():
    for seed, key in ((-1, ()), (-1, (0, 1)), (1, (-1,)), (1, (2, -3)), (2**64, (0, -(2**40)))):
        with pytest.raises(ValueError, match="non-negative") as theirs:
            np.random.SeedSequence(seed, spawn_key=key)
        with pytest.raises(ValueError, match=str(theirs.value)):
            RandomSource(seed).stream(*key)
    with pytest.raises(ValueError, match="non-negative"):
        RandomSource(1, (-2,)).stream(0, 1)
    # node_streams checks every key when called, before any generator is built
    for source, nodes, round_no in (
        (RandomSource(1), [3, -1], 1),
        (RandomSource(-1), [3], 1),
        (RandomSource(1, (0, -1)), [3], 1),
        (RandomSource(1), [3], -2),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            source.node_streams(nodes, round_no)
    # a fractional seed or key entry used to be truncated: RandomSource(2.7)
    # drew what RandomSource(2) draws, stream(1.9) was stream(1), and
    # subsource(0.5) had the prefix (0,)
    with pytest.raises(TypeError):
        np.random.SeedSequence(2.7)
    for make in (
        lambda: RandomSource(2.7),
        lambda: RandomSource(1, (0.5,)),
        lambda: RandomSource(1).stream(1.9),
        lambda: RandomSource(1).stream(3, math.nan),
        lambda: RandomSource(1).subsource(0.5),
        lambda: RandomSource(1).node_streams([3, 1.5], 1),
        lambda: RandomSource(1).node_streams(np.array([3.5]), 1),
        lambda: RandomSource(1).node_streams([3], 1.5),
    ):
        with pytest.raises(ValueError, match="expected an integer"):
            make()
    # integral values of other types are the same integers
    draw = RandomSource(2).stream(1, 3).random()
    assert RandomSource(2.0).stream(np.int32(1), 3.0).random() == draw
    assert RandomSource(np.uint64(2), (1.0,)).stream(3).random() == draw
    streams = RandomSource(2).node_streams(np.array([1.0, 4.0]), np.int64(3))
    assert [s.random() for s in streams] == [draw, RandomSource(2).stream(4, 3).random()]
    # numpy makes [2^63] a uint64 array: ids below 2^64 hash as stream's do,
    # and an id past them is a ValueError, not an OverflowError
    for node in (2**63, 2**64 - 1):
        want = RandomSource(2).stream(node, 3).random()
        for nodes in ([node], np.array([node, 1], np.uint64), [node, 1]):
            assert next(RandomSource(2).node_streams(nodes, 3)).random() == want
    for nodes in ([2**64], [2**70], [1, 2**70], [-(2**70)], [2**63, -1]):
        with pytest.raises(ValueError, match="outside the int64 range"):
            RandomSource(2).node_streams(nodes, 3)


def test_node_stream_lists_are_read_entry_by_entry():
    # numpy reads [2^53 + 1, 1.0] and [2^63, 1] as float64, which rounds
    # 2^53 + 1 to 2^53 and puts 2^63 past int64; a list's ids are read as
    # they are, so each draws stream(v, round) of its own v
    source = RandomSource(1)
    for nodes in ([2**53 + 1, 1.0], [2**63, 1], [1.0, 2**64 - 1, 0], ((2**53 + 1, 4.0),)):
        want = [source.stream(int(v), 1).random() for v in np.array(nodes, object).flat]
        assert [s.random() for s in source.node_streams(nodes, 1)] == want, nodes
    rounded = source.stream(2**53, 1).random()
    assert next(source.node_streams([2**53 + 1, 1.0], 1)).random() != rounded


def test_precomputed_seed_serves_only_the_pcg64_request():
    seed_seq = RandomSource(3).stream(1).bit_generator.seed_seq
    words = seed_seq.generate_state(4, np.uint64)
    assert words.tolist() == np.random.SeedSequence(3, spawn_key=(1,)).generate_state(
        4, np.uint64).tolist()
    words[0] = 0  # a copy: the stored seed is untouched
    assert seed_seq.generate_state(4, "uint64").tolist() != words.tolist()
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="PCG64"):
            seed_seq.generate_state(n_words, dtype)


# -- the PCG64 kernel and the samplers built on it ------------------------------


def kernel_outputs(source, nodes, round_no, counts):
    """The kernel's raw outputs of every node, concatenated in node order;
    every (node, draw) lane below the node's count must come exactly once."""
    counts = np.asarray(counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat, seen = np.zeros(offsets[-1], dtype=np.uint64), np.zeros(offsets[-1], dtype=int)
    for pos, draws, raw in source.node_raw(nodes, round_no, counts):
        assert raw.shape == (len(draws), len(pos)) and raw.dtype == np.uint64
        keep = draws[:, None] < counts[pos]
        lanes = (offsets[pos] + draws[:, None])[keep]
        flat[lanes] = raw[keep]
        np.add.at(seen, lanes, 1)
    assert (seen == 1).all()
    return flat


def next_double(raw):
    return (raw >> 11) * 2.0**-53


def test_kernel_outputs_match_numpy_streams():
    rnd = np.random.default_rng(20)
    # more nodes than one kernel chunk, one- and two-word node ids
    nodes = np.concatenate((
        rnd.permutation(9000)[:8500],
        2**32 + rnd.integers(0, 2**40, 1800),
        [0, 2**32 - 1, 2**32, 2**63 - 1],
    ))
    counts = rnd.integers(0, 201, len(nodes))
    counts[:40] = 0
    counts[40:50] = 200
    assert len(nodes) > 10_000
    for source, round_no in ((RandomSource(5).subsource(0, 3), 1), (RandomSource(2**70), 2)):
        got = kernel_outputs(source, nodes, round_no, counts)
        streams = list(zip(source.node_streams(nodes, round_no), counts.tolist()))
        raw = np.concatenate([stream.bit_generator.random_raw(k) for stream, k in streams])
        assert got.tobytes() == raw.tobytes()
        doubles = [source.stream(v, round_no).random(k) for v, k in zip(nodes[::7], counts[::7])]
        mine = np.split(next_double(got), np.cumsum(counts)[:-1])[::7]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(mine, doubles))
    # one stream with one long run of draws, and no stream at all
    assert kernel_outputs(RandomSource(1), [7], 1, [10_000]).tobytes() == (
        RandomSource(1).stream(7, 1).bit_generator.random_raw(10_000).tobytes())
    assert list(RandomSource(1).node_raw([], 1, [])) == []
    with pytest.raises(ValueError, match="draw count"):
        list(RandomSource(1).node_raw([1, 2], 1, [3]))
    with pytest.raises(ValueError, match="draw count"):
        list(RandomSource(1).node_raw([1, 2], 1, [3, -1]))


def raw_of(u, low_bits=0):
    # raw outputs whose next_double is u, a multiple of 2^-53 in [0, 1)
    return (np.asarray(u) * 2.0**53).astype(np.uint64) << 11 | np.uint64(low_bits)


CAP = 100_000


def numpy_geometric_search(q, u):
    # random_geometric_search of numpy's distributions.c, capped at CAP steps
    x, total, prod = 1, q, q
    while u > total and x < CAP:
        prod *= 1.0 - q
        total += prod
        x += 1
    return x


def stalled_sums(q):
    # numpy's sums for q, if they stop growing below the largest uniform
    total, prod, count = q, q, 1
    while total < 1.0 - 2.0**-53:
        prod *= 1.0 - q
        if total + prod == total:
            return total, count
        total += prod
        count += 1
    return None


def test_geometric_search_matches_numpys_loop_at_every_sum_and_bucket_edge():
    low_bits = np.random.default_rng(7).integers(0, 2**11, 20_000, dtype=np.uint64)
    for epsilon in (math.log(1.5), 0.5, 1.0, 2.0, 5.0, 40.0, 700.0):
        q = 1.0 - math.exp(-epsilon)
        draw = _geometric_search(q)
        sums = np.unique(np.cumsum([q * (1.0 - q) ** k for k in range(200)]))
        probes = np.concatenate((
            sums, np.arange(1025) / 1024, np.random.default_rng(1).random(2000), [0.0, 1.0],
        ))
        # the uniforms on both sides of every probe
        steps = np.floor(probes * 2.0**53)
        u = np.unique(np.concatenate((steps - 1, steps, steps + 1)).clip(0, 2**53 - 1)) * 2.0**-53
        expected = [numpy_geometric_search(q, x) for x in u.tolist()]
        if CAP in expected:  # numpy never ends: the draw is one past the last sum
            expected = [stalled_sums(q)[1] + 1 if x == CAP else x for x in expected]
        assert draw(raw_of(u, low_bits[:len(u)])).tolist() == expected, epsilon


def test_geometric_search_ends_where_the_sums_stop_growing():
    # for about 1.2% of epsilon in [ln 1.5, 50] the float recurrence stops
    # growing below the largest uniform 1 - 2^-53, and numpy's loop never
    # ends for a uniform above the last sum
    top = 1.0 - 2.0**-53
    stalled = [
        (q, stalled_sums(q)) for q in (1.0 - np.exp(-np.linspace(0.4057, 0.41, 400))).tolist()
        if stalled_sums(q)
    ]
    assert stalled
    for q, (last, count) in stalled[:5]:
        assert numpy_geometric_search(q, top) == CAP
        probes = raw_of([top, np.nextafter(last, 1.0), last, 0.0], 2**11 - 1)
        assert _geometric_search(q)(probes).tolist() == [count + 1, count + 1, count, 1]


def test_laplace_node_noise_matches_numpy_laplace_per_stream():
    # scale times the unit inverse CDF of each node's uniform is its stream's
    # numpy Laplace draw at that scale
    rnd = np.random.default_rng(21)
    nodes = np.concatenate((np.arange(10_000), 2**32 + rnd.integers(0, 2**40, 500)))
    scales = 10.0 ** rnd.uniform(-3, 3, len(nodes))
    source = RandomSource(9).subsource(4)
    got = scales * laplace_inverse_cdf(node_uniforms(source, nodes, 2))
    expected = [
        stream.laplace(0.0, s) for stream, s in zip(source.node_streams(nodes, 2), scales.tolist())
    ]
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]
    assert [source.stream(v, 2).laplace(0.0, s).hex()
            for v, s in zip(nodes[:50].tolist(), scales[:50].tolist())] == [
        x.hex() for x in got[:50].tolist()]


def test_smooth_node_noise_matches_the_per_stream_sampler():
    # each node's uniform is its stream's numpy random(), and its smooth noise
    # inverts the closed-form CDF there
    nodes = np.concatenate((np.arange(0, 6000, 3), [2**32, 2**50]))
    source = RandomSource(12).subsource(1)
    u = node_uniforms(source, nodes, 2)
    expected = np.array([stream.random() for stream in source.node_streams(nodes, 2)])
    assert u.tobytes() == expected.tobytes()
    z = smooth_noise_inverse_cdf(u)
    assert np.abs(smooth_noise_cdf(z) - u).max() < 1e-15
    empty = node_uniforms(source, np.array([], dtype=np.int64), 2)
    assert smooth_noise_inverse_cdf(empty).shape == (0,)


def test_a_zero_uniform_is_redrawn_from_the_nodes_own_stream(monkeypatch):
    # u == 0 (probability 2^-53) is redrawn from the stream, as numpy does
    nodes, source = np.array([3, 8, 11]), RandomSource(4)
    u = node_uniforms(source, nodes, 2)
    kernel = RandomSource.node_raw

    def zero_first(self, *args):
        for pos, draws, raw in kernel(self, *args):
            yield pos, draws, np.where(pos == 1, raw & 2047, raw)  # a double of 0

    monkeypatch.setattr(RandomSource, "node_raw", zero_first)
    # the kernel now reads 0 for node 8; its stream's own first double is not 0
    assert node_uniforms(source, nodes, 2).tobytes() == u.tobytes()
    # where the stream's own first double is 0 as well, its next one is read
    stream = RandomSource.stream
    monkeypatch.setattr(RandomSource, "stream", lambda self, *key: SimpleNamespace(
        random=iter([0.0, *stream(self, *key).random(2)[1:]]).__next__))
    assert node_uniforms(source, nodes, 2)[1] == stream(source, 8, 2).random(2)[1] != u[1]
