"""Determinism and statistical sanity of the seeded randomness layer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.errors import InvalidInput
from junta_lab.rng import (
    KeyedDigest,
    RandomStream,
    Seed,
    byte_limit,
    derive_bit,
    derive_u64,
    pack_ints,
)
from references import general_encoding, reference_bit, reference_digest


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
    full = RandomStream(Seed(seed), "r").random(4096)
    ordered = sorted(positions)
    assert RandomStream(Seed(seed), "r").random_at(ordered) == [full[p] for p in ordered]


def test_random_at_leaves_the_stream_past_the_last_position():
    full = RandomStream(Seed(2), "r").random(10)
    stream = RandomStream(Seed(2), "r")
    assert stream.random_at([0, 3]) == [full[0], full[3]]
    assert stream.random(2).tolist() == full[4:6].tolist()
    assert RandomStream(Seed(2), "r").random_at([]) == []


def test_random_at_rejects_unsorted_or_negative_positions():
    for positions in ([3, 1], [2, 2], [-1]):
        with pytest.raises(InvalidInput):
            RandomStream(Seed(2), "r").random_at(positions)
