"""Distribution samplers: concentration, determinism, and lazy/eager agreement."""

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.binom_stats import hit_prob
from junta_lab.boolfn import NO_STYLE, YES_STYLE, BitString, StructuredFn, TruthTable, to_table
from junta_lab.errors import (
    DimensionMismatch,
    EpsilonOutOfRange,
    InvalidInput,
    TooLarge,
    WeightOutOfRange,
)
from junta_lab.hardgen import (
    _pool_masks,
    addressing_orders,
    sample_block,
    sample_block_at,
    sample_block_tables,
    sample_d1,
    sample_d1_block_at,
    sample_d2,
    sample_no,
    sample_yes,
)
from junta_lab.params import DESK_SCALE, derive_params
from junta_lab.rng import RandomStream, Seed
from references import (
    ScalarStream,
    complement_sample,
    fiberwise_table,
    instance_answers,
    per_point_table,
    reference_fiber,
    reference_value,
    sample_d1_at,
    stream_with_words,
)


def desk(n, epsilon=0.1):
    return derive_params(n, 0.75, epsilon, DESK_SCALE)


def test_same_seed_same_instance():
    params = desk(8)
    f = sample_yes(params, Seed(99))
    g = sample_yes(params, Seed(99))
    assert f.M == g.M and f.A == g.A
    assert to_table(f) == to_table(g)
    h = sample_yes(params, Seed(100))
    assert (f.M, f.A) != (h.M, h.A) or to_table(f) != to_table(h)


def pool_sizes(params, kind, seed, trials):
    """|A| of the instances at ``Seed(seed).mix(0..trials - 1)``, drawn in one block."""
    return [len(f.A) for f in sample_block(params, kind, Seed(seed).mixes(range(trials)))]


def test_pool_size_concentration_yes():
    params = desk(8)
    trials = 500
    sizes = pool_sizes(params, YES_STYLE, 0, trials)
    mean = float(np.mean(sizes))
    expected = params.p * params.m
    sigma = math.sqrt(params.p * (1 - params.p) * params.m / trials)
    assert abs(mean - expected) <= 3 * sigma


def test_pool_size_concentration_no_and_gap():
    params = desk(8)
    trials = 500
    yes_sizes = pool_sizes(params, YES_STYLE, 1, trials)
    no_sizes = pool_sizes(params, NO_STYLE, 2, trials)
    expected_no = params.q * params.m
    sigma_no = math.sqrt(params.q * (1 - params.q) * params.m / trials)
    assert abs(float(np.mean(no_sizes)) - expected_no) <= 3 * sigma_no

    gap = float(np.mean(no_sizes)) - float(np.mean(yes_sizes))
    expected_gap = (params.q - params.p) * params.m
    pooled = math.sqrt(
        params.q * (1 - params.q) * params.m / trials
        + params.p * (1 - params.p) * params.m / trials
    )
    assert abs(gap - expected_gap) <= 3 * pooled


SEED_VALUES = st.integers(0, 2**64 - 1)


@st.composite
def seed_blocks(draw):
    """One seed, or a block of 30 to 42 seeds in any order with 0 and 2^64 - 1 among them."""
    if draw(st.booleans()):
        return [Seed(draw(SEED_VALUES))]
    trials = Seed(draw(SEED_VALUES)).mixes(range(draw(st.integers(28, 40))))
    return draw(st.permutations([Seed(0), Seed(2**64 - 1), *trials]))


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 20), st.sampled_from([0.1, 1.0]), seed_blocks())
def test_block_sampler_equals_the_complement_form(n, epsilon, seeds):
    # a block's vectorized Fisher-Yates and array of coins draw, seed by
    # seed, the instances of one reference stream pair per seed
    params = desk(n, epsilon)
    for kind in (YES_STYLE, NO_STYLE):
        block = list(sample_block(params, kind, seeds))
        assert block == [complement_sample(params, kind, seed) for seed in seeds]


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 20), st.sampled_from([0.1, 1.0]), SEED_VALUES)
def test_samplers_equal_the_complement_form(n, epsilon, seed_value):
    # the one-seed samplers draw the instances of IndexSet.of, M.complement()
    # and the reference streams
    params = desk(n, epsilon)
    seed = Seed(seed_value)
    assert sample_yes(params, seed) == complement_sample(params, YES_STYLE, seed)
    assert sample_no(params, seed) == complement_sample(params, NO_STYLE, seed)


@pytest.mark.parametrize("epsilon", [0.1, 1.0])
@pytest.mark.parametrize("n", [6, 10, 12])
def test_block_sampler_equals_the_per_seed_samplers(n, epsilon):
    # a seed draws the same instance in a block of 32 as in a block of its own
    params = desk(n, epsilon)
    seeds = [Seed(0), Seed(2**64 - 1), *Seed(n).mixes(range(30))]
    for kind, sampler in ((YES_STYLE, sample_yes), (NO_STYLE, sample_no)):
        block = list(sample_block(params, kind, seeds))
        assert len(block) == len(seeds)
        for seed, f in zip(seeds, block):
            one = sampler(params, seed)
            assert (f.M, f.A, f.kind, f.seed) == (one.M, one.A, one.kind, one.seed)
            assert to_table(f) == to_table(one)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 16), st.sampled_from([0.1, 1.0]), seed_blocks(), st.data())
def test_block_answers_equal_eval_many(n, epsilon, seeds, data):
    # the block kernel answers each seed's instance without building it;
    # queries repeat, and a run of them shares one fiber
    params = desk(n, epsilon)
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    codes += codes[:3] + [0, (1 << n) - 1] * 2
    xs = [BitString(n, code) for code in codes]
    for kind in (YES_STYLE, NO_STYLE):
        answers = sample_block_at(params, kind, seeds, xs)
        assert answers.shape == (len(seeds), len(xs)) and answers.dtype == np.uint8
        mask = sum(1 << (n - i) for i in complement_sample(params, kind, seeds[0]).M.members)
        one_fiber = [BitString(n, code & ~mask) for code in codes]
        assert sample_block_at(params, kind, seeds[:1], one_fiber).tolist()[0] == list(
            complement_sample(params, kind, seeds[0]).eval_many(one_fiber))
        assert answers.tolist() == instance_answers(params, kind, seeds, xs).tolist()


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 16), st.sampled_from([0.1, 1.0]), seed_blocks())
def test_block_tables_equal_the_instances(n, epsilon, seeds):
    # each table is its sample_block instance's, with that instance's M ∪ A
    # as the pool mask: up to n = 10 evaluated at every point (eval_many of
    # all 2^n points, and per_point_table for the block's first instance,
    # which takes about 40 ms at n = 10); past it, filled by the fiberwise
    # reference and tabulated by its seed alone, which checks that a table
    # depends on its seed and not on its block
    params = desk(n, epsilon)
    points = [BitString(n, code) for code in range(1 << n)]
    for kind in (YES_STYLE, NO_STYLE):
        blocked = sample_block_tables(params, kind, seeds)
        for index, (seed, f, (table, pool)) in enumerate(
                zip(seeds, sample_block(params, kind, seeds), blocked, strict=True)):
            assert table.dtype == np.uint8 and table.shape == (1 << n,)
            assert pool == [i in f.M.members or i in f.A.members for i in range(1, n + 1)]
            if n <= 10:
                assert table.tolist() == list(f.eval_many(points))
                if index == 0:
                    assert TruthTable(n, table) == per_point_table(f)
            else:
                assert TruthTable(n, table) == fiberwise_table(f)
                ((alone, alone_pool),) = sample_block_tables(params, kind, [seed])
                assert np.array_equal(alone, table) and alone_pool == pool


@pytest.mark.parametrize("kind", [YES_STYLE, NO_STYLE])
def test_block_tables_hold_one_table_at_a_time(kind):
    # a 256-seed block at n = 16 tabulated and dropped table by table: the
    # tracemalloc peak stays within the block's pool draw (its own peak) plus
    # two 2^16-byte tables, where all 256 tables at once would be 16 MiB
    params = desk(16)
    seeds = Seed(16).mixes(range(256))
    peaks = []
    for run in (lambda: _pool_masks(params, kind, seeds),
                lambda: sum(1 for _ in sample_block_tables(params, kind, seeds))):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    draw, tables = peaks
    assert tables <= draw + 2 * (1 << 16)


@pytest.mark.parametrize("t", [8, 9, 40, 62, 63, 64, 432])
def test_block_answers_at_long_addresses_and_their_domain(t):
    # addresses up to 2^t are one uint64 chunk up to t = 64, where 2^t is
    # all zeros, and seven at t = 432, strict n = 1024's; empty blocks and
    # plans answer nothing
    n = t + 6
    params = replace(desk(n), m=6, t=t)
    seeds = Seed(t).mixes(range(3))
    draw = random.Random(t)
    xs = [BitString(n, draw.getrandbits(n)) for _ in range(5)]
    xs += [BitString(n, (1 << n) - 1), BitString(n, 0), xs[0]]
    rows = sample_block_at(params, NO_STYLE, seeds, xs).tolist()
    assert rows == instance_answers(params, NO_STYLE, seeds, xs).tolist()
    assert sample_block_at(params, YES_STYLE, seeds, []).shape == (3, 0)
    assert sample_block_at(params, YES_STYLE, [], xs).shape == (0, len(xs))
    with pytest.raises(DimensionMismatch, match=f"^universe {n} does not match string length 5$"):
        sample_block_at(params, YES_STYLE, seeds, [*xs, BitString(5, 1)])


# tracemalloc's peak for one 256-trial block of the strings game job (desk
# n = 12, 16 queries) drawn as instances evaluated one at a time by
# eval_many; the block kernel answers it in less
INSTANCE_BLOCK_PEAK = 103_144


def test_block_answers_memory_stays_below_the_instance_path():
    params = desk(12)
    draw = random.Random(1)
    xs = [BitString(12, draw.getrandbits(12)) for _ in range(16)]
    seeds = Seed(3).mixes(range(256))
    for kind in (YES_STYLE, NO_STYLE):
        sample_block_at(params, kind, seeds, xs)
        tracemalloc.start()
        try:
            sample_block_at(params, kind, seeds, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= INSTANCE_BLOCK_PEAK


def test_addressing_orders_equal_the_per_seed_addressing_sets():
    params = desk(12)
    seeds = [Seed(0), Seed(2**64 - 1), *Seed(3).mixes(range(40))]
    orders = addressing_orders(params, seeds)
    assert orders.shape == (len(seeds), params.n)
    for seed, order in zip(seeds, orders.tolist()):
        M = complement_sample(params, YES_STYLE, seed).M
        assert tuple(sorted(order[:params.t])) == M.members
        assert sorted(order[params.t:]) == list(M.complement().members)


def test_kind_flag_does_not_change_semantics():
    params = desk(8)
    f = sample_yes(params, Seed(5))
    twin = StructuredFn(params=params, M=f.M, A=f.A, seed=f.seed, kind="no_style")
    assert to_table(f) == to_table(twin)


def eager_table(f: StructuredFn) -> TruthTable:
    """Eager oracle: materialize every per-address subset and value table
    from the scalar reference (``reference_fiber``, ``reference_value``,
    each word afresh), then evaluate without any laziness."""
    n = f.params.n
    t = len(f.M)
    fibers = {address: reference_fiber(f, address) for address in range(1, (1 << t) + 1)}
    values = {}
    out = np.zeros(1 << n, dtype=np.uint8)
    for code in range(1 << n):
        x = BitString(n, code)
        addr = 0
        for i in f.M.members:
            addr = (addr << 1) | x.bit(i)
        addr += 1
        coords, h_key = fibers[addr]
        key = (addr, tuple(x.bit(a) for a in coords))
        if key not in values:
            y = int("".join(map(str, key[1])) or "0", 2)
            values[key] = reference_value(h_key, y, len(coords))
        out[code] = values[key]
    return TruthTable(n, out)


def test_lazy_matches_eager_materialization():
    for n, seed in ((6, 17), (8, 18), (8, 19)):
        f = sample_yes(desk(n), Seed(seed))
        assert to_table(f) == eager_table(f)
        g = sample_no(desk(n), Seed(seed + 100))
        assert to_table(g) == eager_table(g)


def test_d1_frequency_at_eps_one_fifth():
    stream = RandomStream([Seed(3)], "d1")
    table = sample_d1(16, 0.2, stream)
    ones = int(table.table.sum())
    total = 1 << 16
    sigma = math.sqrt(total * 0.6 * 0.4)
    assert abs(ones - 0.6 * total) <= 5 * sigma


def test_d1_all_zero_rate_in_sparse_limit():
    # with epsilon = 2^-(n+4), P(all zero) = (1 - 3 eps)^(2^n) ~ e^(-3/16)
    n = 6
    epsilon = 2.0 ** -(n + 4)
    target = (1.0 - 3.0 * epsilon) ** (1 << n)
    assert abs(target - math.exp(-3.0 / 16.0)) < 5e-3
    draws = 1000
    zero = sum(
        1 for j in range(draws)
        if int(sample_d1(n, epsilon, RandomStream([Seed(4)], f"d1-sparse/{j}")).table.sum()) == 0
    )
    sigma = math.sqrt(draws * target * (1 - target))
    assert abs(zero - draws * target) <= 5 * sigma


def test_d1_determinism_and_domain():
    a = sample_d1(8, 0.05, RandomStream([Seed(5)], "x"))
    b = sample_d1(8, 0.05, RandomStream([Seed(5)], "x"))
    assert a == b
    with pytest.raises(EpsilonOutOfRange):
        sample_d1(8, 0.25, RandomStream([Seed(5)], "x"))
    with pytest.raises(EpsilonOutOfRange):
        sample_d1(8, 0.0, RandomStream([Seed(5)], "x"))
    with pytest.raises(TooLarge):
        sample_d1(25, 0.05, RandomStream([Seed(5)], "x"))
    with pytest.raises(InvalidInput):
        sample_d1(-1, 0.05, RandomStream([Seed(5)], "x"))


# Both ends of [0, 1], the least double, 2^-53 and its neighbours, the
# largest double below 1, D1's largest rate and element-game hit rates.
EDGE_RATES = [0.0, 1.0, 2.0**-1074, 2.0**-1022, math.nextafter(2.0**-53, 0.0), 2.0**-53,
              math.nextafter(2.0**-53, 1.0), 1.0 - 2.0**-53, 0.6,
              *(hit_prob(c, epsilon, n) for c in (1, 3, 64) for epsilon, n in ((0.1, 10), (0.75, 1024)))]


def limit_words(rate):
    """The words at and around the limit L * 2^11, L = ceil(rate * 2^53), that fit in 64 bits.

    (L << 11) - 1 is the last word whose double (w >> 11) * 2^-53 is below
    the rate and L << 11 the first that is not.
    """
    limit = math.ceil(rate * 2.0**53)
    edges = [(limit << 11) - 1, limit << 11, (limit - 1) << 11, ((limit + 1) << 11) - 1]
    return [w for w in edges if 0 <= w < 2**64]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 1.0) | st.sampled_from(EDGE_RATES),
    st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4),
)
def test_d1_raw_word_comparison_equals_the_double_comparison(rate, words):
    # a coin fires when w >> 11 is below ceil(rate 2^53): exactly when the
    # double (w >> 11) 2^-53 is below the rate, for every rate in [0, 1]
    words = words + limit_words(rate)
    expected = [(w >> 11) * 2.0**-53 < rate for w in words]
    assert stream_with_words(words).below(1, rate)[:, 0].tolist() == expected
    assert stream_with_words(words, 9).below_at([9], [rate]).tolist() == [[e] for e in expected]
    # the D1 coin at rate 3 epsilon, in the full table and in a point read
    epsilon = min(rate, 0.6) / 3.0
    if epsilon > 0.0:
        words = words[:4] + limit_words(3.0 * epsilon)
        expected = [int((w >> 11) * 2.0**-53 < 3.0 * epsilon) for w in words]
        tables = [sample_d1(1, epsilon, stream_with_words([w])).table for w in words]
        assert [int(table[0]) for table in tables] == expected
        points = sample_d1_block_at(4, epsilon, stream_with_words(words, 9), [9])
        assert points[:, 0].tolist() == expected


def test_d1_raw_words_equal_the_stream_doubles():
    for seed, epsilon in ((1, 0.2), (2, 0.05), (3, 2.0**-30)):
        table = sample_d1(12, epsilon, RandomStream([Seed(seed)], "d1")).table
        doubles = ScalarStream(Seed(seed), "d1").random(1 << 12)[0]
        assert table.tolist() == (doubles < 3.0 * epsilon).astype(np.uint8).tolist()


def test_d1_table_is_its_peak_memory():
    # the 2^20 coins are the one 1 MiB allocation: the words behind them are
    # read and compared a chunk at a time and never held
    sample_d1(20, 0.05, RandomStream([Seed(0)], "d1"))
    stream = RandomStream([Seed(1)], "d1")
    tracemalloc.start()
    try:
        table = sample_d1(20, 0.05, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.table.nbytes == 1 << 20
    assert peak <= (1 << 20) + (1 << 18)


@st.composite
def d1_reads(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    top = (1 << n) - 1
    codes = draw(st.lists(st.integers(min_value=0, max_value=top), max_size=8))
    # both ends of the table, shuffled in among repeats
    codes = draw(st.permutations(codes + [0, top] + codes[:2]))
    epsilon = draw(st.sampled_from([0.2, 0.1, 0.01, 2.0**-20]) | st.floats(1e-6, 0.2))
    return n, epsilon, codes


@settings(max_examples=60, deadline=None)
@given(read=d1_reads(), seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_d1_point_reads_equal_the_full_table(read, seed):
    n, epsilon, codes = read
    seeds = [Seed(seed), Seed(seed ^ 1)]
    points = sample_d1_block_at(n, epsilon, RandomStream(seeds, "d1"), codes)
    assert points.shape == (len(seeds), len(codes))
    for s, row in zip(seeds, points.tolist()):
        table = sample_d1(n, epsilon, RandomStream([s], "d1")).table
        assert row == [int(b) for b in table[codes]]
        assert tuple(row) == sample_d1_at(n, epsilon, s, "d1", codes)


def test_d1_point_reads_compare_strictly():
    # An entry whose uniform equals 3 * epsilon exactly is 0 in both forms.
    n = 6
    full = ScalarStream(Seed(9), "d1").random(1 << n)[0].tolist()
    for code, u in enumerate(full):
        third = u / 3.0
        exact = [e for e in (third, math.nextafter(third, 0.0), math.nextafter(third, 1.0))
                 if 3.0 * e == u and 0.0 < e <= 0.2]
        if exact:
            break
    epsilon = exact[0]
    assert sample_d1(n, epsilon, RandomStream([Seed(9)], "d1")).table[code] == 0
    assert sample_d1_block_at(n, epsilon, RandomStream([Seed(9)], "d1"), [code]).tolist() == [[0]]


def test_d1_point_reads_domain():
    block = RandomStream([Seed(5), Seed(6)], "x")
    assert sample_d1_block_at(8, 0.05, block, []).shape == (2, 0)
    with pytest.raises(EpsilonOutOfRange):
        sample_d1_block_at(8, 0.25, block, [1])
    with pytest.raises(EpsilonOutOfRange):
        sample_d1_block_at(8, 0.0, block, [1])
    with pytest.raises(TooLarge):
        sample_d1_block_at(25, 0.05, block, [1])
    for n, codes in ((0, [0]), (8, [256]), (8, [3, -1])):
        with pytest.raises(InvalidInput):
            sample_d1_block_at(n, 0.05, block, codes)


def test_d2_exact_weight():
    for eps in (0.5, 0.25, 3 / 1024):
        table = sample_d2(10, eps, RandomStream([Seed(6)], f"d2-{eps}"))
        assert int(table.table.sum()) == round(1024 * eps)


def test_d2_single_one_uniformity():
    n = 10
    epsilon = 2.0**-10
    draws = 10_000
    counts = np.zeros(1 << n)
    for j in range(draws):
        table = sample_d2(n, epsilon, RandomStream([Seed(7)], f"d2-uniform/{j}"))
        assert int(table.table.sum()) == 1
        counts[int(np.argmax(table.table))] += 1
    expected = draws / (1 << n)
    sigma = math.sqrt(draws * (1 / (1 << n)) * (1 - 1 / (1 << n)))
    assert np.all(np.abs(counts - expected) <= 5 * sigma)


def test_d2_subset_frequencies_at_n_3():
    # each of the C(8, 3) = 56 weight-3 subsets of the 8 positions comes up
    # about draws / 56 times, every count within 4 sigma
    n, weight, draws = 3, 3, 20_000
    counts = Counter()
    for seed in Seed(31).mixes(range(draws)):
        table = sample_d2(n, weight / 8, RandomStream([seed], "d2")).table
        assert int(table.sum()) == weight
        counts[tuple(np.flatnonzero(table).tolist())] += 1
    subsets = math.comb(1 << n, weight)
    assert len(counts) == subsets
    sigma = math.sqrt(draws * (1 / subsets) * (1 - 1 / subsets))
    assert all(abs(count - draws / subsets) <= 4 * sigma for count in counts.values())


class TiedFirstRead:
    """A one-row stream whose first ``raw`` read is ``first``; later reads come from ``stream``.

    A counter-mode stream cannot be made to read 2^n chosen words in a row,
    so this stub stands in for one; ``sample_d2`` reads only ``raw``.
    """

    def __init__(self, first, stream):
        self.first, self.stream = first, stream

    def raw(self, count):
        if self.first is None:
            return self.stream.raw(count)
        words, self.first = np.array([self.first], dtype=np.uint64), None
        assert words.shape == (1, count)
        return words


def test_d2_draws_again_on_a_tie_at_the_weight():
    # weight 3 of 8: the 3rd and 4th smallest of the first 8 words tie, so
    # only 2 words lie below the 4th smallest; the table comes from the next 8
    first = [1, 9, 4, 2, 9, 4, 9, 9]
    tied = sample_d2(3, 3 / 8, TiedFirstRead(first, RandomStream([Seed(4)], "d2")))
    assert int(tied.table.sum()) == 3
    assert tied == sample_d2(3, 3 / 8, RandomStream([Seed(4)], "d2"))


def test_d2_weight_out_of_range():
    with pytest.raises(WeightOutOfRange):
        sample_d2(10, 2.0**-12, RandomStream([Seed(8)], "d2"))  # rounds to 0
    with pytest.raises(WeightOutOfRange):
        sample_d2(4, 1.5, RandomStream([Seed(8)], "d2"))  # rounds above 2^n


def test_d2_domain():
    # the same n check as sample_d1, and a package error for a non-finite epsilon
    stream = RandomStream([Seed(8)], "d2")
    for n in (-1, 0):
        with pytest.raises(InvalidInput):
            sample_d2(n, 0.1, stream)
    for eps in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput):
            sample_d2(4, eps, stream)
