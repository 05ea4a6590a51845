"""Determinism and statistical sanity of the seeded randomness layer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab import rng
from junta_lab.errors import InvalidInput
from junta_lab.rng import RandomStream, Seed, derive_bit, derive_u64, pack_ints


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


def test_threshold_one_fires_on_the_largest_digest(monkeypatch):
    # 2^64 - 1 divided by 2^64 rounds to 1.0, so a float comparison misses it
    monkeypatch.setattr(rng, "derive_u64", lambda seed, role, payload: 2**64 - 1)
    assert derive_bit(Seed(1), "t", b"", 1.0) == 1


def test_threshold_comparison_is_strict_at_the_boundary(monkeypatch):
    monkeypatch.setattr(rng, "derive_u64", lambda seed, role, payload: 2**63)
    assert derive_bit(Seed(1), "t", b"", 0.5) == 0


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


def general_encoding(*values: int) -> bytes:
    """pack_ints by its definition: per value, a 4-byte length then the big-endian bytes."""
    out = b""
    for v in values:
        body = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
        out += len(body).to_bytes(4, "big") + body
    return out


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
