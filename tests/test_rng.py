"""Determinism and statistical sanity of the seeded randomness layer."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.errors import InvalidInput
from junta_lab.harness import always_yes, random_string_plan
from junta_lab.rng import (
    _CHUNK,
    KeyedDigest,
    RandomStream,
    Seed,
    byte_limit,
    derive_u64,
    pack_each,
    pack_ints,
    word_limit,
)
from references import (
    ScalarStream,
    general_encoding,
    reference_bit,
    reference_bounded,
    reference_digest,
    reference_double,
    reference_key,
    reference_random_at,
    reference_stream,
    reference_string_plan,
)


def test_seed_validation():
    Seed(0)
    Seed(2**64 - 1)
    with pytest.raises(InvalidInput):
        Seed(-1)
    with pytest.raises(InvalidInput):
        Seed(2**64)


def digest_coin(seed, role, payload, threshold):
    """The digest coin a fiber reads: a fresh keyed state, an empty head and ``byte_limit``."""
    return KeyedDigest.of(seed, role).below_after(b"", [payload], byte_limit(threshold))[0]


def test_degenerate_thresholds():
    seed = Seed(1)
    for j in range(200):
        payload = pack_ints(j)
        assert digest_coin(seed, "t", payload, 0.0) is False
        assert digest_coin(seed, "t", payload, 1.0) is True


class FixedState:
    """A hash state whose digest is a fixed 64-bit value, whatever it is fed."""

    def __init__(self, value):
        self.value = value

    def copy(self):
        return self

    def update(self, data):
        pass

    def digest(self):
        return self.value.to_bytes(8, "big")


def fires(digest_value, threshold):
    return KeyedDigest(FixedState(digest_value)).below_after(b"", [b""], byte_limit(threshold))[0]


def test_threshold_one_fires_on_the_largest_digest():
    # 2^64 - 1 divided by 2^64 rounds to 1.0, so a float comparison misses it
    assert fires(2**64 - 1, 1.0)


def test_threshold_comparison_is_strict_at_the_boundary():
    assert not fires(2**63, 0.5)
    assert fires(2**63 - 1, 0.5)


@pytest.mark.parametrize(
    "threshold, limit",
    [(0.0, 0), (2.0**-64, 1), (0.5, 2**63), (1.0 - 2.0**-53, 2**64 - 2**11), (1.0, 2**64)],
)
def test_byte_limit_fires_below_the_ceiling_of_threshold_times_2_64(threshold, limit):
    """Digests at limit - 1 fire and at limit do not, where limit = ceil(threshold * 2^64)."""
    if limit > 0:
        assert fires(limit - 1, threshold)
        assert limit - 1 < threshold * 2**64
    if limit < 2**64:
        assert not fires(limit, threshold)
        assert not limit < threshold * 2**64
    assert not fires(0, threshold) if limit == 0 else fires(0, threshold)


def test_byte_limit_rejects_thresholds_outside_the_unit_interval():
    for threshold in (-2.0**-64, 1.0 + 2.0**-52, math.nan):
        with pytest.raises(InvalidInput):
            byte_limit(threshold)
        with pytest.raises(InvalidInput):
            digest_coin(Seed(1), "t", b"", threshold)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from(["t", "S-membership", "h-value", "a-role-label-well-past-sixteen-bytes"]),
    st.binary(max_size=40),
    st.binary(max_size=40),
    st.floats(0.0, 1.0) | st.sampled_from([0.0, 2.0**-64, 0.5, 1.0 - 2.0**-53, 1.0]),
)
def test_keyed_digest_equals_the_fresh_blake2b_reference(seed_value, role, prefix, payload, threshold):
    seed = Seed(seed_value)
    whole = prefix + payload
    expected = int.from_bytes(reference_digest(seed, role, whole), "big")
    assert derive_u64(seed, role, whole) == expected
    bit = reference_bit(seed, role, whole, threshold)
    assert digest_coin(seed, role, whole, threshold) == bool(bit)
    keyed = KeyedDigest.of(seed, role)
    assert keyed.u64(whole) == expected
    assert keyed.below_after(b"", [whole, whole], byte_limit(threshold)) == [
        bool(reference_bit(seed, role, whole, threshold))
    ] * 2
    # the prefix split anywhere between the head and the payloads
    for cut in (0, len(prefix) // 2, len(prefix)):
        head, rest = prefix[:cut], prefix[cut:]
        assert keyed.below_after(head, [rest + payload, rest, rest + payload],
                                 byte_limit(threshold)) == [
            bool(reference_bit(seed, role, whole, threshold)),
            bool(reference_bit(seed, role, prefix, threshold)),
            bool(reference_bit(seed, role, whole, threshold)),
        ]


def test_fair_coin_frequency():
    seed = Seed(7)
    trials = 100_000
    ones = sum(digest_coin(seed, "coin", pack_ints(j), 0.5) for j in range(trials))
    # 5 sigma around the binomial mean
    sigma = math.sqrt(trials * 0.25)
    assert abs(ones - trials / 2) <= 5 * sigma
    assert 0.49 <= ones / trials <= 0.51


def test_determinism_and_role_separation():
    seed = Seed(123)
    a = [derive_u64(seed, "alpha", pack_ints(j)) for j in range(50)]
    b = [derive_u64(seed, "alpha", pack_ints(j)) for j in range(50)]
    c = [derive_u64(seed, "beta", pack_ints(j)) for j in range(50)]
    assert a == b
    assert a != c
    assert derive_u64(Seed(124), "alpha", pack_ints(0)) != a[0]


def test_pack_ints_is_injective_on_tricky_cases():
    cases = [
        ((1, 2), (12,)),
        ((256,), (1, 0)),
        ((0,), ()),
        ((1,), (1, 0)),
        ((2**100,), (2**100 + 1,)),
    ]
    for left, right in cases:
        assert b"".join(pack_each(left)) != b"".join(pack_each(right))


def test_pack_ints_rejects_negative():
    with pytest.raises(InvalidInput):
        pack_ints(-1)
    with pytest.raises(InvalidInput):
        pack_each([5, -1])


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.integers(min_value=0, max_value=255)
    | st.sampled_from([0, 255, 256, 65535, 65536, 2**64, 2**100])
    | st.integers(min_value=0, max_value=2**80),
    max_size=12,
))
def test_pack_ints_equals_general_encoding(values):
    assert b"".join(pack_each(values)) == general_encoding(*values)
    assert [pack_ints(v) for v in values] == [general_encoding(v) for v in values]


def test_pack_ints_boundaries():
    assert b"".join(pack_each([])) == b""
    assert pack_ints(255) == b"\x00\x00\x00\x01\xff"
    assert pack_ints(256) == b"\x00\x00\x00\x02\x01\x00"
    assert pack_ints(65535) == b"\x00\x00\x00\x02\xff\xff"
    assert pack_ints(65536) == b"\x00\x00\x00\x03\x01\x00\x00"
    assert b"".join(pack_each([0, 255, 256])) == general_encoding(0, 255, 256)
    assert (b"".join(pack_each([2**64, 3]))
            == b"\x00\x00\x00\x09\x01" + bytes(8) + b"\x00\x00\x00\x01\x03")
    # one block per fast path: single bytes, up to two bytes, and past them
    for values in ([0, 255], [0, 255, 256, 65535], [255, 256, 65535, 65536], [65536, 0]):
        assert pack_each(values) == tuple(general_encoding(v) for v in values)


def test_long_role_labels_are_supported():
    seed = Seed(5)
    long_role = "a-role-label-well-past-sixteen-bytes"
    assert derive_u64(seed, long_role, b"") == derive_u64(seed, long_role, b"")
    assert derive_u64(seed, long_role, b"") != derive_u64(seed, long_role + "x", b"")


def test_stream_determinism():
    s1 = RandomStream([Seed(9)], "demo")
    s2 = RandomStream([Seed(9)], "demo")
    assert s1.raw(10).tolist() == s2.raw(10).tolist()
    assert s1.below(8, 0.5).tolist() == s2.below(8, 0.5).tolist()
    other = RandomStream([Seed(9)], "demo2")
    assert s1.raw(1).tolist() != other.raw(1).tolist()


def take(words, count):
    return [next(words) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), role=st.text(max_size=40))
def test_stream_equals_the_reference_stream(seed, role):
    stream = RandomStream([Seed(seed)], role)
    assert stream.raw(9).tolist() == [take(reference_stream(Seed(seed), role), 9)]


def test_key_zero_is_splitmix64_from_zero():
    # seed ^ blake2b(role) = 0 gives key mix64(0) = 0, and SplitMix64 seeded
    # with 0 starts with these three words
    role = "known-answer"
    seed = Seed(int.from_bytes(hashlib.blake2b(role.encode(), digest_size=8).digest(), "big"))
    assert reference_key(seed, role) == 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert RandomStream([seed], role).raw(3).tolist() == [expected]
    assert take(reference_stream(seed, role), 3) == expected


@pytest.mark.parametrize(
    "entropy",
    [
        bytes(16),
        bytes(4) + bytes(range(1, 13)),
        bytes(8) + bytes(range(1, 9)),
        bytes(12) + bytes(range(1, 5)),
        bytes(12) + b"\x00\x00\x00\x01",
        b"\x00\x00\x00\x01" + bytes(12),
        b"\xff" * 4 + bytes(12),
        b"\xff" * 16,
    ],
    ids=["zero", "one-zero-word", "two-zero-words", "three-zero-words", "one", "top-word-one",
         "low-words-zero", "all-ones"],
)
def test_generator_seeding_agrees_on_zero_words(entropy):
    # the two seeds of each 16 bytes have zero (or all-ones) 32-bit words
    seeds = [Seed(int.from_bytes(entropy[:8], "big")), Seed(int.from_bytes(entropy[8:], "big"))]
    for role in ("", "r"):
        stream = RandomStream(seeds, role)
        assert stream._state.tolist() == [reference_key(seed, role) for seed in seeds]
        assert stream.raw(4).tolist() == [take(reference_stream(seed, role), 4) for seed in seeds]


LONG_ROLE = "a-role-label-well-past-sixteen-bytes"
MANY_SEEDS = [Seed(0), Seed(2**64 - 1), *Seed(3).mixes(range(250))]
SEED_VALUES = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(SEED_VALUES, max_size=12), st.sampled_from(["M", "A", "", LONG_ROLE]))
def test_stream_keys_equal_the_reference_keys(values, role):
    seeds = [Seed(v) for v in values]
    assert RandomStream(seeds, role)._state.tolist() == [reference_key(s, role) for s in seeds]


# One rate per coin of ``first_draws``: fair coins and the edges of [0, 1].
FIRST_RATES = [0.5, 0.5, 0.5, 0.0, 1.0, 2.0**-53, 1.0 - 2.0**-53, 0.3]


def first_draws(stream):
    """A coin, a bounded draw and 8 coins from each row of ``stream``, as one tuple per row."""
    first = stream.below(1, 0.3)[:, 0].tolist()
    bounded = stream.bounded([1000])[:, 0].tolist()
    coins = stream.below(8, FIRST_RATES).tolist()
    return list(zip(first, bounded, coins))


def reference_first_draws(seed, role):
    """``first_draws`` of the one stream of (seed, role), from ``reference_stream``."""
    words = reference_stream(seed, role)
    first = reference_double(words) < 0.3
    bounded = reference_bounded(words, 1000)
    return first, bounded, [reference_double(words) < rate for rate in FIRST_RATES]


@pytest.mark.parametrize("role", ["M", "d1", LONG_ROLE, ""])
def test_many_streams_equal_the_per_seed_streams(role):
    # a row of a block is the one-row stream of its seed, draw for draw
    assert len(MANY_SEEDS) >= 200
    block = RandomStream(MANY_SEEDS, role)
    assert len(block) == len(MANY_SEEDS)
    assert block._state.tolist() == [reference_key(seed, role) for seed in MANY_SEEDS]
    per_seed = [row for seed in MANY_SEEDS for row in first_draws(RandomStream([seed], role))]
    assert first_draws(block) == per_seed
    assert per_seed[:20] == [reference_first_draws(seed, role) for seed in MANY_SEEDS[:20]]


def test_many_streams_of_a_split_block_are_the_same_streams():
    whole = first_draws(RandomStream(MANY_SEEDS, "A"))
    split = [row for start in range(0, len(MANY_SEEDS), 7)
             for row in first_draws(RandomStream(MANY_SEEDS[start:start + 7], "A"))]
    assert split == whole
    empty = RandomStream([], "A")
    assert len(empty) == 0
    assert empty.below(3, 0.5).shape == (0, 3)
    assert empty.below_at([2, 5], 0.5).shape == (0, 2)
    assert empty.bounded([5, 1]).shape == (0, 2)


RATES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 0.5, 2.0**-1074, 2.0**-53, 1.0 - 2.0**-53])


def coin_draws(positions):
    """(positions, rate) for ``below`` or ``below_at``: one rate, or one per position."""
    count = positions if isinstance(positions, int) else len(positions)
    return st.tuples(st.just(positions), RATES | st.lists(RATES, min_size=count, max_size=count))


DRAWS = st.one_of(
    st.tuples(st.just("below"), st.integers(0, 5).flatmap(coin_draws)),
    st.tuples(st.just("raw"), st.tuples(st.integers(0, 5))),
    st.tuples(st.just("below_at"),
              st.sets(st.integers(0, 300), max_size=4).map(sorted).flatmap(coin_draws)),
    st.tuples(st.just("bounded"), st.tuples(st.lists(
        st.one_of(st.integers(1, 40), st.integers(1, 2**32), st.sampled_from([2**31 + 1, 2**32])),
        max_size=6))),
)


def stream_draws(words, draws):
    """The values ``draws`` gives on one stream's ``words``, draw after draw.

    A coin at rate r is the double comparison: the word's double below r.
    """
    out = []
    for kind, args in draws:
        if kind == "below":
            count, rate = args
            rates = rate if isinstance(rate, list) else [rate] * count
            out.append([reference_double(words) < r for r in rates])
        elif kind == "raw":
            out.append(take(words, *args))
        elif kind == "below_at":
            positions, rate = args
            rates = rate if isinstance(rate, list) else [rate] * len(positions)
            full = [reference_double(words) for _ in range(positions[-1] + 1)] if positions else []
            out.append([full[p] < r for p, r in zip(positions, rates)])
        else:
            out.append([reference_bounded(words, r) for r in args[0]])
    return out


def block_draws(stream, draws):
    """Each row's values for ``draws`` on ``stream``, draw after draw."""
    rows = [[] for _ in range(len(stream))]
    for kind, args in draws:
        for row, values in zip(rows, getattr(stream, kind)(*args).tolist()):
            row.append(values)
    return rows


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       draws=st.lists(DRAWS, max_size=6))
def test_block_draws_equal_the_per_seed_streams(seeds, draws):
    # below, raw, below_at and bounded, interleaved in any order: each row
    # moves past exactly the words its draws read, rejected words included
    seeds = [Seed(v) for v in seeds]
    rows = block_draws(RandomStream(seeds, "r"), draws)
    assert rows == [stream_draws(reference_stream(seed, "r"), draws) for seed in seeds]
    assert rows == [block_draws(RandomStream([seed], "r"), draws)[0] for seed in seeds]


@pytest.mark.parametrize("r", [2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_bounded_draw_rejects_as_the_reference_does(r):
    # 2^32 mod r words of 2^32 are rejected: about a half, a quarter and
    # none of them for these ranges, which desk ranges never approach
    seeds = Seed(7).mixes(range(64))
    block = RandomStream(seeds, "M")
    drawn = np.hstack([block.bounded([r] * 25), block.bounded([5, r, 1, 2**32] * 5)])
    for seed, row in zip(seeds, drawn.tolist()):
        words = reference_stream(seed, "M")
        assert row == [reference_bounded(words, high) for high in [r] * 25 + [5, r, 1, 2**32] * 5]


def test_bounded_draw_frequencies_of_7():
    # 21 000 draws over 7 values: each count within 4 sigma of 3000
    draws = 21_000
    counts = np.bincount(RandomStream([Seed(12)], "M").bounded([7] * draws)[0], minlength=7)
    assert counts.sum() == draws and len(counts) == 7
    sigma = math.sqrt(draws * (1 / 7) * (6 / 7))
    assert np.all(np.abs(counts - draws / 7) <= 4 * sigma)


LONG_READS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]
EDGE_SEEDS = [[Seed(0)], [Seed(2**64 - 1)], [Seed(0), Seed(2**64 - 1), Seed(5)]]


@pytest.mark.parametrize("count", LONG_READS)
@pytest.mark.parametrize("seeds", EDGE_SEEDS, ids=["0", "2^64-1", "three"])
def test_long_reads_equal_the_per_seed_streams(seeds, count):
    # a read runs in chunks of _CHUNK positions; every chunk boundary must join up,
    # for the words, the coins and the per-position rates of the coins
    rates = np.linspace(0.0, 1.0, count)
    coins, words = RandomStream(seeds, "r").below(count, rates), RandomStream(seeds, "r").raw(count)
    assert coins.shape == words.shape == (len(seeds), count) and words.dtype == np.uint64
    assert coins.dtype == bool
    for seed, row, raw_row in zip(seeds, coins.tolist(), words.tolist()):
        assert row == RandomStream([seed], "r").below(count, rates)[0].tolist()
        assert raw_row == take(reference_stream(seed, "r"), count)
        assert row == [(w >> 11) * 2.0**-53 < r for w, r in zip(raw_row, rates.tolist())]


@pytest.mark.parametrize("seeds", EDGE_SEEDS, ids=["0", "2^64-1", "three"])
def test_successive_long_reads_continue_one_stream(seeds):
    # each read starts where the last one stopped, mid-chunk or on a boundary,
    # and bounded draws between long reads move each row by the words they read
    reads = [("bounded", ([7],)), ("below", (_CHUNK + 1, 0.5)), ("raw", (_CHUNK - 1,)),
             ("bounded", ([5, 2**32],)), ("below", (2 * _CHUNK, [0.25, 0.75] * _CHUNK)),
             ("bounded", ([9],)), ("raw", (3,)), ("below", (3 * _CHUNK + 5, 0.1)),
             ("bounded", ([2**31 + 1, 3],))]
    rows = block_draws(RandomStream(seeds, "r"), reads)
    assert rows == [stream_draws(reference_stream(seed, "r"), reads) for seed in seeds]


@pytest.mark.parametrize("n", [1, 12, 31, 32, 33, 48, 62])
def test_string_plans_keep_the_top_bits_of_one_word(n):
    for seed in (Seed(0), Seed(7), Seed(2**64 - 1)):
        for q in (1, 2, 3, 20):
            plan = random_string_plan(n, q, seed, "goodM-plan", always_yes)
            assert plan == reference_string_plan(n, q, seed, "goodM-plan", always_yes)
            words = take(reference_stream(seed, "goodM-plan"), q)
            assert [x.code for x in plan.queries] == [word >> (64 - n) for word in words]


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_wide_string_plans_read_whole_outputs_most_significant_first(n):
    per_query = -(-n // 64)
    words = take(reference_stream(Seed(3), "p"), 3 * per_query)
    expected = []
    for start in range(0, len(words), per_query):
        value = 0
        for word in words[start:start + per_query]:
            value = value << 64 | word
        expected.append(value >> (64 * per_query - n))
    plan = random_string_plan(n, 3, Seed(3), "p", always_yes)
    assert [x.code for x in plan.queries] == expected


def test_bounded_draw_ranges_lie_in_1_to_2_32():
    block = RandomStream([Seed(1)], "M")
    for r in (0, -3, 2**32 + 1):
        with pytest.raises(InvalidInput):
            block.bounded([4, r])


def test_seed_mixes_equal_seed_mix():
    for base in (Seed(0), Seed(42), Seed(2**64 - 1)):
        indices = [0, 1, 255, 256, 2**40]
        assert base.mixes(indices) == [base.mix(i) for i in indices]
        assert base.mixes(range(300, 310)) == [base.mix(i) for i in range(300, 310)]
    assert Seed(1).mixes([]) == []


def test_stream_children_are_independent_and_reproducible():
    # a child stream is one with a role scoped under its parent's
    a1 = RandomStream([Seed(11)], "root/a").raw(4).tolist()
    a2 = RandomStream([Seed(11)], "root/a").raw(4).tolist()
    b = RandomStream([Seed(11)], "root/b").raw(4).tolist()
    assert a1 == a2
    assert a1 != b


def test_seed_mix_is_deterministic():
    base = Seed(42)
    assert base.mix(3) == base.mix(3)
    assert base.mix(3) != base.mix(4)


@pytest.mark.parametrize("index", [0, 255, 256, 2**40])
def test_seed_mix_is_the_mix_digest_of_the_packed_index(index):
    for base in (Seed(0), Seed(42), Seed(2**64 - 1)):
        assert base.mix(index).value == derive_u64(base, "mix", pack_ints(index))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    positions=st.sets(st.integers(min_value=0, max_value=4095), max_size=12),
    rate=RATES,
)
def test_below_at_equals_the_full_draw(seed, positions, rate):
    seeds = [Seed(seed), Seed(seed ^ 1)]
    ordered = sorted(positions)
    # one rate for every position, and one per position
    per_position = [(rate + j / 7) % 1.0 for j in range(len(ordered))]
    for rates in (rate, per_position):
        got = RandomStream(seeds, "r").below_at(ordered, rates).tolist()
        at = np.broadcast_to(rates, (len(ordered),)).tolist()
        for s, row in zip(seeds, got):
            full = RandomStream([s], "r").below(4096, rate)[0]
            expected = [u < r for u, r in zip(reference_random_at(s, "r", ordered), at)]
            assert row == expected
            if rates is rate:
                assert row == [full[p] for p in ordered]


def test_below_at_leaves_the_stream_past_the_last_position():
    words = RandomStream([Seed(2)], "r").raw(10)[0].tolist()
    coins = [(w >> 11) * 2.0**-53 < 0.5 for w in words]
    block = RandomStream([Seed(2)], "r")
    assert block.below_at([0, 3], 0.5).tolist() == [[coins[0], coins[3]]]
    assert block.below(2, 0.5).tolist() == [coins[4:6]]
    assert block.below_at([1], 0.5).tolist() == [[coins[7]]]
    assert block.raw(1).tolist() == [words[8:9]]
    assert RandomStream([Seed(2)], "r").below_at([], 0.5).shape == (1, 0)


def test_below_at_rejects_unsorted_or_negative_positions():
    for positions in ([3, 1], [2, 2], [-1]):
        with pytest.raises(InvalidInput):
            RandomStream([Seed(2)], "r").below_at(positions, 0.5)
    with pytest.raises(InvalidInput):
        RandomStream([Seed(2)], "r").below(-1, 0.5)
    with pytest.raises(InvalidInput):
        RandomStream([Seed(2)], "r").raw(-1)


@pytest.mark.parametrize(
    "rate, limit",
    [(0.0, 0), (2.0**-1074, 1), (math.nextafter(2.0**-53, 0.0), 1), (2.0**-53, 1),
     (math.nextafter(2.0**-53, 1.0), 2), (0.5, 2**52), (1.0 - 2.0**-53, 2**53 - 1), (1.0, 2**53)],
)
def test_word_limit_is_the_ceiling_of_rate_times_2_53(rate, limit):
    """Words whose top 53 bits are limit - 1 fire and limit do not; rate 1 fires on every word."""
    assert word_limit(rate) == limit and word_limit([rate, rate]).tolist() == [limit] * 2
    tops = [top for top in (limit - 1, limit) if 0 <= top < 2**53]
    for top in tops:
        assert (top < limit) == (top * 2.0**-53 < rate)


def test_coin_rates_lie_in_the_unit_interval_one_or_one_per_position():
    block = RandomStream([Seed(2)], "r")
    for rate in (-2.0**-1074, 1.0 + 2.0**-52, math.nan, [0.5, 2.0]):
        with pytest.raises(InvalidInput):
            word_limit(rate)
        with pytest.raises(InvalidInput):
            block.below(2, rate)
        with pytest.raises(InvalidInput):
            block.below_at([0, 1], rate)
    for rates in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
        with pytest.raises(InvalidInput):
            block.below(2, rates)
        with pytest.raises(InvalidInput):
            block.below_at([3, 4], rates)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rates=st.lists(RATES, max_size=40))
def test_coins_equal_the_scalar_double_comparison(seed, rates):
    # per-position rates and one rate, against the scalar stream's doubles
    stream = RandomStream([Seed(seed)], "coins")
    scalar = ScalarStream(Seed(seed), "coins")
    assert stream.below(len(rates), rates).tolist() == scalar.below(len(rates), rates).tolist()
    for rate in rates[:3]:
        assert stream.below(5, rate).tolist() == (scalar.random(5) < rate).tolist()
