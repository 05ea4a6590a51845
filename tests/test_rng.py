"""Determinism and statistical sanity of the seeded randomness layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.errors import InvalidInput
from junta_lab.harness import always_yes, random_string_plan
from junta_lab.rng import (
    RAW_CHUNK,
    KeyedDigest,
    RandomStream,
    Seed,
    StreamBlock,
    _generator,
    _pcg64_states,
    byte_limit,
    derive_bit,
    derive_u64,
    pack_ints,
)
from references import (
    general_encoding,
    integer_seeded_generator,
    integer_string_plan,
    integers,
    integers_array,
    random_at,
    raw_outputs,
    reference_bit,
    reference_digest,
    reference_stream_entropy,
)


def test_seed_validation():
    Seed(0)
    Seed(2**64 - 1)
    with pytest.raises(InvalidInput):
        Seed(-1)
    with pytest.raises(InvalidInput):
        Seed(2**64)


def test_degenerate_thresholds():
    seed = Seed(1)
    for j in range(200):
        payload = pack_ints(j)
        assert derive_bit(seed, "t", payload, 0.0) == 0
        assert derive_bit(seed, "t", payload, 1.0) == 1


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
    return KeyedDigest(FixedState(digest_value)).below([b""], byte_limit(threshold))[0]


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
            derive_bit(Seed(1), "t", b"", threshold)


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
    assert derive_bit(seed, role, whole, threshold) == reference_bit(seed, role, whole, threshold)
    keyed = KeyedDigest.of(seed, role).extend(prefix)
    assert keyed.u64(payload) == expected
    assert keyed.below([payload, payload], byte_limit(threshold)) == [
        bool(reference_bit(seed, role, whole, threshold))
    ] * 2


def test_fair_coin_frequency():
    seed = Seed(7)
    trials = 100_000
    ones = sum(derive_bit(seed, "coin", pack_ints(j), 0.5) for j in range(trials))
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
        assert pack_ints(*left) != pack_ints(*right)


def test_pack_ints_rejects_negative():
    with pytest.raises(InvalidInput):
        pack_ints(-1)
    with pytest.raises(InvalidInput):
        pack_ints(5, -1)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.integers(min_value=0, max_value=255)
    | st.sampled_from([0, 255, 256, 65535, 65536, 2**64, 2**100])
    | st.integers(min_value=0, max_value=2**80),
    max_size=12,
))
def test_pack_ints_equals_general_encoding(values):
    assert pack_ints(*values) == general_encoding(*values)


def test_pack_ints_boundaries():
    assert pack_ints() == b""
    assert pack_ints(255) == b"\x00\x00\x00\x01\xff"
    assert pack_ints(256) == b"\x00\x00\x00\x02\x01\x00"
    assert pack_ints(0, 255, 256) == general_encoding(0, 255, 256)
    assert pack_ints(2**64, 3) == b"\x00\x00\x00\x09\x01" + bytes(8) + b"\x00\x00\x00\x01\x03"


def test_long_role_labels_are_supported():
    seed = Seed(5)
    long_role = "a-role-label-well-past-sixteen-bytes"
    assert derive_u64(seed, long_role, b"") == derive_u64(seed, long_role, b"")
    assert derive_u64(seed, long_role, b"") != derive_u64(seed, long_role + "x", b"")


def test_stream_determinism():
    s1 = RandomStream(Seed(9), "demo")
    s2 = RandomStream(Seed(9), "demo")
    assert [s1.u64() for _ in range(10)] == [s2.u64() for _ in range(10)]
    assert s1.random() == s2.random()
    other = RandomStream(Seed(9), "demo2")
    assert s1.u64() != other.u64()


def same_generator(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random(4).tolist() == b.random(4).tolist()
    assert a.integers(0, 2**63, size=4).tolist() == b.integers(0, 2**63, size=4).tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), role=st.text(max_size=40))
def test_stream_generator_is_the_integer_seeded_pcg64(seed, role):
    stream = RandomStream(Seed(seed), role)
    same_generator(stream._gen, integer_seeded_generator(reference_stream_entropy(Seed(seed), role)))


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
    # an integer seed drops its zero high words; the word array keeps them
    same_generator(_generator(entropy), integer_seeded_generator(entropy))


LONG_ROLE = "a-role-label-well-past-sixteen-bytes"
MANY_SEEDS = [Seed(0), Seed(2**64 - 1), *Seed(3).mixes(range(250))]


def first_draws(stream):
    return (stream.random(), integers(stream, 0, 1000), stream.bernoulli_mask(8, 0.5).tolist())


def first_block_draws(block):
    """``first_draws`` of each stream of a block, drawn as the block's arrays."""
    first = block.random(1)[:, 0].tolist()
    bounded = block.bounded([1000])[:, 0].tolist()
    coins = (block.random(8) < 0.5).tolist()
    return list(zip(first, bounded, coins))


def block_states(block):
    """Each stream's PCG64 (state, increment) as integers."""
    (state_hi, state_lo), (inc_hi, inc_lo) = block._state, block._inc
    return [(int(a) << 64 | int(b), int(c) << 64 | int(d))
            for a, b, c, d in zip(state_hi, state_lo, inc_hi, inc_lo)]


def numpy_state(generator):
    state = generator.bit_generator.state["state"]
    return state["state"], state["inc"]


WORD = st.one_of(st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 0xFFFFFFFF))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(WORD, min_size=4, max_size=4), min_size=1, max_size=12))
def test_pcg64_states_equal_seed_sequence(entropies):
    # all-zero and all-ones words are drawn often, so whole rows of them occur
    entropy = np.array(entropies + [[0] * 4, [0xFFFFFFFF] * 4], dtype=np.uint32)
    expected = [np.random.SeedSequence(row).generate_state(4, np.uint64).tolist()
                for row in entropy]
    assert _pcg64_states(entropy).tolist() == expected


@pytest.mark.parametrize("role", ["M", "d1", LONG_ROLE, ""])
def test_many_streams_equal_the_per_seed_streams(role):
    # the block's SeedSequence pass and 128-bit seeding reproduce numpy's
    # per-object seeding
    assert len(MANY_SEEDS) >= 200
    block = StreamBlock(MANY_SEEDS, role)
    assert len(block) == len(MANY_SEEDS)
    for seed, state in zip(MANY_SEEDS, block_states(block)):
        one = RandomStream(seed, role)
        reference = integer_seeded_generator(reference_stream_entropy(seed, role))
        assert state == numpy_state(one._gen) == numpy_state(reference)
    per_seed = [first_draws(RandomStream(seed, role)) for seed in MANY_SEEDS]
    assert first_block_draws(block) == per_seed


def test_many_streams_of_a_split_block_are_the_same_streams():
    whole = first_block_draws(StreamBlock(MANY_SEEDS, "A"))
    split = [row for start in range(0, len(MANY_SEEDS), 7)
             for row in first_block_draws(StreamBlock(MANY_SEEDS[start:start + 7], "A"))]
    assert split == whole
    empty = StreamBlock([], "A")
    assert len(empty) == 0
    assert empty.random(3).shape == (0, 3)
    assert empty.random_at([2, 5]).shape == (0, 2)
    assert empty.bounded([5, 1]).shape == (0, 2)


DRAWS = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 5)),
    st.tuples(st.just("raw"), st.integers(0, 5)),
    st.tuples(st.just("random_at"), st.sets(st.integers(0, 300), max_size=4).map(sorted)),
    st.tuples(st.just("bounded"), st.lists(
        st.one_of(st.integers(1, 40), st.integers(1, 2**32), st.sampled_from([2**31 + 1, 2**32])),
        max_size=6)),
)


def stream_draws(stream, draws):
    """The values ``draws`` gives on one ``RandomStream``, draw after draw."""
    out = []
    for kind, arg in draws:
        if kind == "random":
            out.append(stream.random(arg).tolist())
        elif kind == "raw":
            out.append(raw_outputs(stream, arg))
        elif kind == "random_at":
            # random(size), not the reference random_at: numpy's advance
            # drops the buffered 32-bit word that random(size) keeps
            full = stream.random(arg[-1] + 1) if arg else []
            out.append([full[p] for p in arg])
        else:
            out.append([integers(stream, 0, r) for r in arg])
    return out


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       draws=st.lists(DRAWS, max_size=6))
def test_block_draws_equal_the_per_seed_streams(seeds, draws):
    # random, raw, random_at and bounded, interleaved in any order: a bounded
    # draw's buffered high half must survive the doubles drawn after it
    seeds = [Seed(v) for v in seeds]
    block = StreamBlock(seeds, "r")
    rows = [[] for _ in seeds]
    for kind, arg in draws:
        for row, values in zip(rows, getattr(block, kind)(arg).tolist()):
            row.append(values)
    assert rows == [stream_draws(RandomStream(seed, "r"), draws) for seed in seeds]


@pytest.mark.parametrize("r", [2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_bounded_draw_rejects_as_numpy_does(r):
    # 2^32 mod r words of 2^32 are rejected: about a half, a quarter and
    # none of them for these ranges, which desk ranges never approach
    seeds = Seed(7).mixes(range(64))
    block = StreamBlock(seeds, "M")
    drawn = np.hstack([block.bounded([r] * 25), block.bounded([5, r, 1, 2**32] * 5)])
    for seed, row in zip(seeds, drawn.tolist()):
        stream = RandomStream(seed, "M")
        expected = integers_array(stream, 0, r, 25).tolist()
        expected += [integers(stream, 0, high) for high in [5, r, 1, 2**32] * 5]
        assert row == expected


LONG_READS = [RAW_CHUNK - 1, RAW_CHUNK, RAW_CHUNK + 1, 3 * RAW_CHUNK + 5]
EDGE_SEEDS = [[Seed(0)], [Seed(2**64 - 1)], [Seed(0), Seed(2**64 - 1), Seed(5)]]


@pytest.mark.parametrize("count", LONG_READS)
@pytest.mark.parametrize("seeds", EDGE_SEEDS, ids=["0", "2^64-1", "three"])
def test_long_reads_equal_the_per_seed_streams(seeds, count):
    # a read runs in chunks of RAW_CHUNK positions; every chunk boundary must join up
    doubles, words = StreamBlock(seeds, "r").random(count), StreamBlock(seeds, "r").raw(count)
    assert doubles.shape == words.shape == (len(seeds), count) and words.dtype == np.uint64
    for seed, row, raw_row in zip(seeds, doubles.tolist(), words.tolist()):
        assert row == RandomStream(seed, "r").random(count).tolist()
        assert raw_row == raw_outputs(RandomStream(seed, "r"), count)


@pytest.mark.parametrize("seeds", EDGE_SEEDS, ids=["0", "2^64-1", "three"])
def test_successive_long_reads_continue_one_stream(seeds):
    # each read starts where the last one stopped, mid-chunk or on a boundary,
    # and a bounded draw's buffered high half survives the long reads after it
    block = StreamBlock(seeds, "r")
    rows = [[] for _ in seeds]
    reads = [("bounded", [7]), ("random", RAW_CHUNK + 1), ("raw", RAW_CHUNK - 1),
             ("bounded", [5, 2**32]), ("random", 2 * RAW_CHUNK), ("bounded", [9]),
             ("raw", 3), ("random", 3 * RAW_CHUNK + 5), ("bounded", [2**31 + 1, 3])]
    for kind, arg in reads:
        for row, values in zip(rows, getattr(block, kind)(arg).tolist()):
            row.append(values)
    assert rows == [stream_draws(RandomStream(seed, "r"), reads) for seed in seeds]


@pytest.mark.parametrize("n", [1, 12, 31, 32, 33, 48, 62])
def test_string_plans_equal_numpy_integer_draws(n):
    # top bits of 32-bit halves up to n = 32, of whole outputs above
    for seed in (Seed(0), Seed(7), Seed(2**64 - 1)):
        for q in (1, 2, 3, 20):
            plan = random_string_plan(n, q, seed, "goodM-plan", always_yes)
            assert plan == integer_string_plan(n, q, seed, "goodM-plan", always_yes)


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
def test_wide_string_plans_read_whole_outputs_most_significant_first(n):
    per_query = -(-n // 64)
    words = raw_outputs(RandomStream(Seed(3), "p"), 3 * per_query)
    expected = []
    for start in range(0, len(words), per_query):
        value = 0
        for word in words[start:start + per_query]:
            value = value << 64 | word
        expected.append(value >> (64 * per_query - n))
    plan = random_string_plan(n, 3, Seed(3), "p", always_yes)
    assert [x.code for x in plan.queries] == expected


def test_bounded_draw_ranges_lie_in_1_to_2_32():
    block = StreamBlock([Seed(1)], "M")
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
    base = RandomStream(Seed(11), "root")
    a1 = base.child("a").u64()
    a2 = RandomStream(Seed(11), "root").child("a").u64()
    b = base.child("b").u64()
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


def test_sample_without_replacement():
    stream = RandomStream(Seed(2), "swr")
    picked = stream.sample_without_replacement(10, 4)
    assert len(set(int(v) for v in picked)) == 4
    assert all(0 <= v < 10 for v in picked)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    positions=st.sets(st.integers(min_value=0, max_value=4095), max_size=12),
)
def test_random_at_equals_the_full_draw(seed, positions):
    seeds = [Seed(seed), Seed(seed ^ 1)]
    ordered = sorted(positions)
    got = StreamBlock(seeds, "r").random_at(ordered).tolist()
    for s, row in zip(seeds, got):
        full = RandomStream(s, "r").random(4096)
        assert row == [full[p] for p in ordered] == random_at(RandomStream(s, "r"), ordered)


def test_random_at_leaves_the_stream_past_the_last_position():
    full = RandomStream(Seed(2), "r").random(10)
    block = StreamBlock([Seed(2)], "r")
    assert block.random_at([0, 3]).tolist() == [[full[0], full[3]]]
    assert block.random(2).tolist() == [full[4:6].tolist()]
    assert StreamBlock([Seed(2)], "r").random_at([]).shape == (1, 0)


def test_random_at_rejects_unsorted_or_negative_positions():
    for positions in ([3, 1], [2, 2], [-1]):
        with pytest.raises(InvalidInput):
            StreamBlock([Seed(2)], "r").random_at(positions)
    with pytest.raises(InvalidInput):
        StreamBlock([Seed(2)], "r").random(-1)
    with pytest.raises(InvalidInput):
        StreamBlock([Seed(2)], "r").raw(-1)
