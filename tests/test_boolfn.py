"""Bit strings, truth tables, the addressing map, and structured instances."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junta_lab.boolfn import (
    BitString,
    IndexSet,
    StructuredFn,
    TruthTable,
    address_index,
    bichromatic_edge_counts,
    flip,
    hamming,
    relevant_variables,
    to_table,
)
from junta_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    TooLarge,
)
from junta_lab.hardgen import sample_no, sample_yes
from junta_lab.params import DESK_SCALE, derive_params
from junta_lab.rng import Seed
from references import (
    per_direction_edge_counts,
    per_point_table,
    reference_eval,
    reference_fiber_coords,
    reference_table,
)


def bitstrings(max_n=12):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(BitString, st.just(n), st.integers(0, (1 << n) - 1))
    )


def test_flip_examples():
    assert flip(BitString.from_text("0000"), 1).to_text() == "1000"
    assert flip(BitString.from_text("1111"), 4).to_text() == "1110"
    with pytest.raises(IndexOutOfRange):
        flip(BitString.from_text("0000"), 5)
    with pytest.raises(IndexOutOfRange):
        flip(BitString.from_text("0000"), 0)


@given(bitstrings())
def test_flip_is_an_involution(x):
    for i in range(1, x.length + 1):
        assert flip(flip(x, i), i) == x
        assert hamming(flip(x, i), x) == 1


def test_hamming_examples():
    x = BitString.from_text("0000")
    y = BitString.from_text("1111")
    assert hamming(x, x) == 0
    assert hamming(x, y) == 4
    with pytest.raises(DimensionMismatch):
        hamming(x, BitString.from_text("000"))


@given(bitstrings(), st.randoms())
def test_hamming_symmetry(x, rand):
    y = BitString(x.length, rand.randrange(1 << x.length))
    assert hamming(x, y) == hamming(y, x)


def test_bitstring_round_trips():
    for text in ("0", "1", "0110", "111000111"):
        assert BitString.from_text(text).to_text() == text
        assert BitString.from_bits([int(c) for c in text]).to_text() == text
    with pytest.raises(InvalidInput):
        BitString.from_text("012")
    with pytest.raises(InvalidInput):
        BitString.from_text("")


def test_address_examples():
    M = IndexSet.of(4, [1, 2])
    assert address_index(M, BitString.from_text("0000")) == 1
    assert address_index(M, BitString.from_text("0011")) == 1
    assert address_index(M, BitString.from_text("1100")) == 4
    assert address_index(M, BitString.from_text("0100")) == 2
    with pytest.raises(InvalidInput):
        address_index(IndexSet.of(4, []), BitString.from_text("0000"))
    with pytest.raises(DimensionMismatch):
        address_index(IndexSet.of(3, [1]), BitString.from_text("0000"))


def test_address_is_balanced():
    # every value hit exactly 2^(n - |M|) times
    n = 5
    M = IndexSet.of(n, [2, 4])
    counts = {}
    for code in range(1 << n):
        v = address_index(M, BitString(n, code))
        counts[v] = counts.get(v, 0) + 1
    assert set(counts) == set(range(1, 5))
    assert all(c == 1 << (n - 2) for c in counts.values())


def test_indexset_validation():
    with pytest.raises(InvalidInput):
        IndexSet(3, (0,))
    with pytest.raises(InvalidInput):
        IndexSet(3, (4,))
    with pytest.raises(InvalidInput):
        IndexSet(3, (2, 1))
    assert IndexSet.of(5, [3, 1, 3]).members == (1, 3)
    assert IndexSet.of(5, [1, 3]).complement().members == (2, 4, 5)


def test_truth_table_basics():
    zero = TruthTable.constant(3, 0)
    for code in range(8):
        assert zero.eval(BitString(3, code)) == 0
    with pytest.raises(DimensionMismatch):
        zero.eval(BitString(4, 0))
    with pytest.raises(InvalidInput):
        TruthTable(2, np.array([0, 1, 2, 0], dtype=np.uint8))
    with pytest.raises(TooLarge):
        TruthTable(25, np.zeros(2, dtype=np.uint8))


def test_truth_table_serialization_round_trip():
    rng = np.random.default_rng(0)
    table = TruthTable(4, rng.integers(0, 2, size=16, dtype=np.uint8))
    text = table.serialize()
    assert text.startswith("n=4\n") and text.endswith("\n")
    assert TruthTable.deserialize(text) == table
    with pytest.raises(InvalidInput):
        TruthTable.deserialize("n=2\n011\n")
    with pytest.raises(InvalidInput):
        TruthTable.deserialize("m=2\n0110\n")


def test_serialize_equals_the_per_entry_join():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for table in (TruthTable.constant(n, 0), TruthTable.constant(n, 1),
                      TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))):
            text = table.serialize()
            per_entry = "".join("1" if b else "0" for b in table.table)
            assert text == f"n={n}\n{per_entry}\n"
            assert TruthTable.deserialize(text) == table


def test_relevant_variables_examples():
    assert relevant_variables(TruthTable.constant(4, 0)).members == ()
    # XOR of coordinates 1, 2 on n = 3
    xor = TruthTable(
        3, np.array([(code >> 2 ^ code >> 1) & 1 for code in range(8)], dtype=np.uint8)
    )
    assert relevant_variables(xor).members == (1, 2)
    # dictator on coordinate 3 within n = 4
    dictator = TruthTable(4, np.array([(code >> 1) & 1 for code in range(16)], dtype=np.uint8))
    assert relevant_variables(dictator).members == (3,)


def test_relevant_variables_against_definition():
    # brute-force oracle straight from the definition
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        expected = set()
        for i in range(1, n + 1):
            for code in range(1 << n):
                other = code ^ (1 << (n - i))
                if f.table[code] != f.table[other]:
                    expected.add(i)
                    break
        assert set(relevant_variables(f).members) == expected


def parity_table(n, coords):
    """The XOR of the given coordinates, as an n-variable table."""
    codes = np.arange(1 << n)
    table = np.zeros(1 << n, dtype=np.uint8)
    for i in coords:
        table ^= ((codes >> (n - i)) & 1).astype(np.uint8)
    return TruthTable(n, table)


@st.composite
def edge_count_tables(draw):
    """Random-density, constant and parity tables at n = 1..12."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("random", "constant", "parity")))
    if kind == "constant":
        return TruthTable.constant(n, draw(st.integers(0, 1)))
    if kind == "parity":
        return parity_table(n, draw(st.sets(st.integers(1, n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TruthTable(n, (rng.random(1 << n) < draw(st.floats(0.0, 1.0))).astype(np.uint8))


@settings(max_examples=100, deadline=None)
@given(edge_count_tables())
@example(TruthTable.constant(1, 1))
@example(parity_table(12, range(1, 13)))
@example(TruthTable(9, (np.arange(1 << 10) >> 3 & 1).astype(np.uint8)[::2]))
def test_edge_counts_equal_the_per_direction_reference(f):
    counts = bichromatic_edge_counts(f)
    assert counts == per_direction_edge_counts(f)
    assert relevant_variables(f).members == tuple(i for i, c in enumerate(counts, 1) if c)


def test_edge_counts_of_a_parity_table():
    # along a coordinate of the parity every edge is bichromatic, along any other none
    coords = {2, 3, 7}
    expected = tuple((1 << 8) if i in coords else 0 for i in range(1, 10))
    assert bichromatic_edge_counts(parity_table(9, coords)) == expected


def desk(n, epsilon=0.1):
    return derive_params(n, 0.75, epsilon, DESK_SCALE)


def test_structured_fn_determinism():
    f = sample_yes(desk(8), Seed(3))
    x = BitString.from_text("10110100")
    assert f.eval(x) == f.eval(x)
    twice = [f.eval(BitString(8, code)) for code in range(256)]
    again = [f.eval(BitString(8, code)) for code in range(256)]
    assert twice == again


def test_structured_fn_empty_pool_depends_only_on_m():
    # with A empty every per-address subset is empty, so each address is a
    # constant bit: flipping any coordinate outside M never changes f.
    params = desk(8)
    M = IndexSet.of(8, sorted(range(1, params.t + 1)))
    f = StructuredFn(params=params, M=M, A=IndexSet.of(8, []), seed=Seed(11), kind="yes_style")
    table = to_table(f)
    outside = [i for i in range(1, 9) if i not in set(M.members)]
    for code in range(256):
        x = BitString(8, code)
        for i in outside:
            assert table.eval(x) == table.eval(flip(x, i))
    assert set(relevant_variables(table).members) <= set(M.members)


def test_structured_fn_depends_only_on_m_and_a():
    # same address and same restriction to A implies the same value
    params = desk(8)
    f = sample_yes(params, Seed(21))
    table = to_table(f)
    seen = {}
    for code in range(256):
        x = BitString(8, code)
        key = (address_index(f.M, x), x.restrict(f.A.members))
        bit = table.eval(x)
        assert seen.setdefault(key, bit) == bit


def test_to_table_matches_eval():
    f = sample_yes(desk(10), Seed(4))
    table = to_table(f)
    rng = np.random.default_rng(1)
    for code in rng.integers(0, 1 << 10, size=1000):
        x = BitString(10, int(code))
        assert table.eval(x) == f.eval(x)


# epsilon = 1 raises the per-fiber coin to epsilon/sqrt(n) >= 1/4, so the
# fibers' coordinate subsets S are non-empty as well as empty
@settings(max_examples=20, deadline=None)
@given(
    st.integers(4, 12),
    st.sampled_from([sample_yes, sample_no]),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 2**64 - 1),
)
def test_to_table_equals_per_point_eval(n, sampler, epsilon, seed_value):
    f = sampler(desk(n, epsilon), Seed(seed_value))
    assert to_table(f) == per_point_table(f)


@pytest.mark.parametrize(
    "n, sampler, epsilon", [(14, sample_yes, 0.1), (14, sample_no, 1.0), (16, sample_no, 1.0)]
)
def test_to_table_equals_per_point_eval_at_larger_n(n, sampler, epsilon):
    f = sampler(desk(n, epsilon), Seed(n))
    assert to_table(f) == per_point_table(f)


def test_eval_many_matches_eval():
    f = sample_no(desk(10, 1.0), Seed(8))
    rng = np.random.default_rng(2)
    xs = [BitString(10, int(c)) for c in rng.integers(0, 1 << 10, size=40)]
    xs += xs[:5]
    # every query in one fiber: the M coordinates held at zero
    mask = sum(1 << (10 - i) for i in f.M.members)
    xs += [BitString(10, c & ~mask) for c in range(0, 1 << 10, 37)]
    expected = tuple(f.eval(x) for x in xs)
    assert f.eval_many(xs) == expected
    assert to_table(f).eval_many(xs) == expected
    assert f.eval_many([]) == ()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 14),
    st.sampled_from([sample_yes, sample_no]),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_keyed_paths_equal_the_fresh_blake2b_reference(n, sampler, epsilon, seed_value, data):
    """fiber_coords, eval_many and to_table against one fresh keyed blake2b per digest."""
    # derive_params starts at n = 4; below it one address bit and the rest pool
    params = desk(n, epsilon) if n >= 4 else replace(desk(4, epsilon), n=n, m=n - 1, t=1)
    f = sampler(params, Seed(seed_value))
    for address in range(1, (1 << len(f.M)) + 1):
        assert f.fiber_coords(address) == reference_fiber_coords(f, address)
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    codes += codes[::-1]
    mask = sum(1 << (n - i) for i in f.M.members)
    one_fiber = [c & ~mask for c in codes]
    for batch in (codes, one_fiber):
        xs = [BitString(n, c) for c in batch]
        assert f.eval_many(xs) == tuple(reference_eval(f, x) for x in xs)
    if n <= 10 or data.draw(st.booleans()):
        assert to_table(f) == reference_table(f)


def test_eval_many_length_mismatch():
    f = sample_yes(desk(8), Seed(3))
    xs = [BitString(8, 5), BitString(7, 5)]
    with pytest.raises(DimensionMismatch, match="^universe 8 does not match string length 7$"):
        f.eval_many(xs)
    with pytest.raises(DimensionMismatch):
        to_table(f).eval_many(xs)


def test_to_table_cap():
    params = derive_params(25, 0.75, 0.1, DESK_SCALE)
    M = IndexSet.of(25, sorted(range(1, params.t + 1)))
    f = StructuredFn(params=params, M=M, A=IndexSet.of(25, []), seed=Seed(0), kind="yes_style")
    with pytest.raises(TooLarge):
        to_table(f)


def test_structured_fn_validation():
    params = desk(8)
    M = IndexSet.of(8, sorted(range(1, params.t + 1)))
    with pytest.raises(InvalidInput):
        StructuredFn(params=params, M=M, A=IndexSet.of(8, [M.members[0]]), seed=Seed(0), kind="yes_style")
    with pytest.raises(InvalidInput):
        StructuredFn(params=params, M=IndexSet.of(8, [1]), A=IndexSet.of(8, []), seed=Seed(0), kind="yes_style") \
            if params.t != 1 else None
    with pytest.raises(InvalidInput):
        StructuredFn(params=params, M=M, A=IndexSet.of(8, []), seed=Seed(0), kind="odd")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_sampled_instances_stay_inside_their_pool(seed_value):
    params = desk(6)
    f = sample_yes(params, Seed(seed_value))
    rel = relevant_variables(to_table(f))
    assert set(rel.members) <= set(f.M.members) | set(f.A.members)


def test_structured_fn_pickles_to_an_equal_instance():
    f = sample_no(desk(8, 1.0), Seed(5))
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    assert to_table(g) == to_table(f)
