"""Bit strings, truth tables, the addressing map, and structured instances."""

import math
import pickle
import random
import tracemalloc
from dataclasses import replace
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junta_lab import boolfn, rng
from junta_lab.boolfn import (
    BitString,
    IndexSet,
    StructuredFn,
    TruthTable,
    NO_STYLE,
    YES_STYLE,
    bichromatic_edge_counts,
    flip,
    relevant_variables,
    to_table,
)
from junta_lab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    TooLarge,
)
from junta_lab.hardgen import sample_block, sample_no, sample_yes
from junta_lab.harness import always_yes
from junta_lab.params import DESK_SCALE, STRICT, derive_params
from junta_lab.rng import RandomStream, Seed, word_limit
from junta_lab.tasks import StringQueryPlan, build_set_queries
from references import (
    GAMMA,
    address_index,
    fiberwise_eval_many,
    fiberwise_table,
    hamming,
    per_direction_edge_counts,
    per_point_table,
    reference_chunks,
    reference_eval,
    reference_fiber,
    reference_fold,
    reference_table,
    set_checked_deserialize,
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
    codes = [0b0000, 0b0011, 0b1100, 0b0100]
    assert boolfn._addresses(boolfn._code_bits(4, codes), [M.members]).tolist() == [[[1, 1, 4, 2]]]
    # the set-query reduction addresses its queries by the same gather
    # tau = n + 1: no pair is that far apart, so every M separates
    plan = StringQueryPlan(tuple(BitString(4, code) for code in codes), always_yes)
    assert build_set_queries(plan, M, 5).class_of == (0, 0, 1, 2)
    with pytest.raises(InvalidInput, match="^the addressing set must be non-empty$"):
        build_set_queries(plan, IndexSet.of(4, []), 5)
    with pytest.raises(DimensionMismatch):
        build_set_queries(plan, IndexSet.of(3, [1]), 5)


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


def assert_gather_equals_the_reference(n, t, rows, codes):
    """``_addresses`` is each address's uint64 chunks, the reference's mod 2^(64 ceil(t / 64))."""
    got = boolfn._addresses(boolfn._code_bits(n, codes),
                            np.array(rows, dtype=np.intp).reshape(len(rows), t))
    assert got.dtype == np.uint64
    assert got.shape == (-(-t // 64), len(rows), len(codes))
    assert got.transpose(1, 0, 2).tolist() == [
        reference_chunks([address_index(IndexSet(n, tuple(row)), BitString(n, code))
                          for code in codes], t) for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 63, 64, 65, 128, 129, 192]) | st.integers(1, 200), st.data())
def test_address_gather_equals_the_reference(t, data):
    # rows of M of one size t, up to four chunks; the all-ones code's
    # address 2^t carries through every chunk, and out of the top one
    # when 64 divides t
    n = data.draw(st.integers(t, t + 8))
    rows = data.draw(st.lists(st.lists(st.integers(1, n), min_size=t, max_size=t, unique=True)
                              .map(sorted), max_size=4))
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    # the first row's low 64 and 128 address bits all ones: a carry into chunk 1 and 2
    codes += [sum(1 << (n - i) for i in rows[0][-low:]) for low in (64, 128) if rows and low <= t]
    assert_gather_equals_the_reference(n, t, rows, codes + [(1 << n) - 1])


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("n, t", [(1024, 432), (4096, 1856)])
def test_address_gather_equals_the_reference_at_the_papers_t(n, t, rows):
    # t = 432 and 1856 are strict n = 1024's and 4096's: 7 and 29 chunks
    draw = random.Random(t + rows)
    members = [sorted(draw.sample(range(1, n + 1), t)) for _ in range(rows)]
    codes = [draw.getrandbits(n) for _ in range(4)] + [0, (1 << n) - 1]
    assert_gather_equals_the_reference(n, t, members, codes)


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
    assert TruthTable.deserialize(text.replace("\n", "\r\n")) == table
    with pytest.raises(InvalidInput):
        TruthTable.deserialize("n=2\n011\n")
    with pytest.raises(InvalidInput):
        TruthTable.deserialize("m=2\n0110\n")


TABLE_LINE_ERROR = r"^table line must be exactly 2\^n characters of 0/1$"
BAD_TABLE_LINES = ["0120", "01\u00e9", "0\u00e9", "0110 ", "011", "01100", ""]


@pytest.mark.parametrize("line", BAD_TABLE_LINES)
def test_deserialize_rejects_a_bad_table_line(line):
    # "01\u00e9" is 3 characters and 4 UTF-8 bytes: neither length may pass
    with pytest.raises(InvalidInput, match=TABLE_LINE_ERROR):
        TruthTable.deserialize(f"n=2\n{line}\n")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.text(alphabet="01 \r\n\t\x00/2\u00e9\ud800", max_size=10))
@example(2, "01\u00e9")
@example(2, "0110\r\n")
def test_deserialize_accepts_and_rejects_as_the_set_check(n, line):
    text = f"n={n}\n{line}"
    outcomes = []
    for parse in (TruthTable.deserialize, set_checked_deserialize):
        try:
            outcomes.append(parse(text))
        except InvalidInput as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


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
        key = (address_index(f.M, x), tuple(x.bit(i) for i in f.A.members))
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


# the paper's scale: t = 96 address bits at desk n = 256, t = 432 and 1856 at
# strict n = 1024 and 4096
@pytest.mark.parametrize("n, mode", [(256, DESK_SCALE), (1024, STRICT), (4096, STRICT)])
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**64 - 1), st.data())
def test_eval_many_equals_the_reference_at_long_addresses(n, mode, seed_value, data):
    params = derive_params(n, 0.75, 0.1, mode)
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    xs = [BitString(n, code) for code in codes]
    for sampler in (sample_yes, sample_no):
        f = sampler(params, Seed(seed_value))
        assert f.eval_many(xs) == tuple(reference_eval(f, x) for x in xs)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 16),
    st.sampled_from([sample_yes, sample_no]),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_fiber_paths_equal_the_scalar_reference(n, sampler, epsilon, seed_value, data):
    """The fiber kernel, eval_many and to_table against the scalar reference, n up to 16."""
    # derive_params starts at n = 4; below it one address bit and the rest pool
    params = desk(n, epsilon) if n >= 4 else replace(desk(4, epsilon), n=n, m=n - 1, t=1)
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    assert_fiber_paths_equal_the_reference(sampler(params, Seed(seed_value)), codes, n <= 10)


@pytest.mark.parametrize("n, sampler, epsilon", [
    (11, sample_yes, 0.1), (12, sample_no, 1.0), (13, sample_yes, 1.0), (14, sample_no, 0.1),
])
def test_tables_equal_the_scalar_reference_past_n_10(n, sampler, epsilon):
    """The same checks, with the 2^n-point reference table, on one fixed instance and query list per n."""
    codes = np.random.default_rng(n).integers(0, 1 << n, size=24).tolist()
    assert_fiber_paths_equal_the_reference(sampler(desk(n, epsilon), Seed(n)), codes, True)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 12),
    st.sampled_from([sample_yes, sample_no]),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_eval_many_equals_the_reference_on_repeats_and_shared_fibers(n, sampler, epsilon,
                                                                     seed_value, data):
    """eval_many against per-point ``reference_eval`` on batches that share fibers.

    The batches: the codes and their reverse (every query repeated), every
    code moved into one drawn fiber, and every code moved into the fiber
    with the widest S.
    """
    f = sampler(desk(n, epsilon), Seed(seed_value))
    t = len(f.M)
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    mask = sum(1 << (n - i) for i in f.M.members)
    fiber = data.draw(st.integers(0, (1 << n) - 1)) & mask
    widest = max(range(1, (1 << t) + 1), key=lambda a: len(reference_fiber(f, a)[0]))
    widest_bits = sum(((widest - 1) >> (t - 1 - j) & 1) << (n - i)
                      for j, i in enumerate(f.M.members))
    for batch in (codes + codes[::-1], [fiber | (c & ~mask) for c in codes],
                  [widest_bits | (c & ~mask) for c in codes]):
        xs = [BitString(n, c) for c in batch]
        assert f.eval_many(xs) == tuple(reference_eval(f, x) for x in xs)


def fiber_kernel(f):
    """Every fiber of ``f`` from ``boolfn._fibers``, in address order: (h keys, S per fiber)."""
    t = len(f.M)
    pool = np.array([f.A.members], dtype=np.intp).reshape(1, len(f.A))
    addresses = np.arange(1, (1 << t) + 1, dtype=np.uint64)[None, None]
    h, coins = boolfn._fibers(f._keys, addresses, t, pool, np.ones(pool.shape, dtype=bool),
                              word_limit(f.params.coin_prob))
    return h[0].tolist(), [tuple(compress(f.A.members, row)) for row in coins[0].tolist()]


def assert_fiber_paths_equal_the_reference(f, codes, per_point):
    """Every fiber, ``eval_many`` at three batches of ``codes`` and ``to_table``.

    The batches: the codes and their reverse (repeats), every code moved
    into one fiber, and every code moved into the fiber with the widest S.
    The table must equal ``fiberwise_table`` and, if ``per_point``,
    ``reference_table``.
    """
    n, t = f.n, len(f.M)
    fibers = [reference_fiber(f, address) for address in range(1, (1 << t) + 1)]
    h, coords = fiber_kernel(f)
    assert list(zip(coords, h)) == fibers
    mask = sum(1 << (n - i) for i in f.M.members)
    widest = max(range(1 << t), key=lambda code: len(fibers[code][0]))
    widest_bits = sum((widest >> (t - 1 - j) & 1) << (n - i) for j, i in enumerate(f.M.members))
    for batch in (codes + codes[::-1], [c & ~mask for c in codes],
                  [widest_bits | (c & ~mask) for c in codes]):
        xs = [BitString(n, c) for c in batch]
        assert f.eval_many(xs) == tuple(reference_eval(f, x) for x in xs)
    assert to_table(f) == fiberwise_table(f)
    if per_point:
        assert to_table(f) == reference_table(f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from([1, 63, 64, 65, 128, 129]) | st.integers(1, 300),
       st.data())
def test_fold_equals_the_reference_at_chunk_boundaries(key, width, data):
    # a fold reads max(1, ceil(width / 64)) chunks, however many it is given:
    # one up to width 64, then one more per 64 bits
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4)
                       | st.just([(1 << width) - 1, 0, 1 << (width - 1)]))
    chunks = np.array(reference_chunks(values, width), dtype=np.uint64)
    assert chunks.shape == (-(-width // 64), len(values))
    expected = [reference_fold(key, v, width) for v in values]
    assert boolfn._fold(np.array(key, dtype=np.uint64), chunks, width).tolist() == expected
    # one more chunk than the width needs, with a width per value, as eval_many folds y
    wider = np.array(reference_chunks(values, width + 64), dtype=np.uint64)
    widths = np.full(len(values), width, dtype=np.uint64)
    assert boolfn._fold(np.array(key, dtype=np.uint64), wider, widths).tolist() == expected


def wide_instance(t, seed_value):
    """An instance with t address bits and 150 pool members at theta = 0.9: |S| is 120-150."""
    n = t + 150
    params = replace(desk(max(n, 4)), n=n, m=150, t=t, epsilon=0.9 * math.sqrt(n))
    return StructuredFn(params=params, M=IndexSet.of(n, range(1, t + 1)),
                        A=IndexSet.of(n, range(t + 1, n + 1)), seed=Seed(seed_value), kind=YES_STYLE)


@pytest.mark.parametrize("t", [8, 62, 63, 64, 65, 128, 432])
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**64 - 1), st.data())
def test_eval_many_equals_the_reference_at_wide_addresses_and_fibers(t, seed_value, data):
    # addresses of one to seven chunks, and fibers with |S| of two or three chunks
    f = wide_instance(t, seed_value)
    n = f.n
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    xs = [BitString(n, code) for code in codes + [0, (1 << n) - 1]]
    assert f.eval_many(xs) == tuple(reference_eval(f, x) for x in xs)
    assert min(len(reference_fiber(f, address_index(f.M, x))[0]) for x in xs) > 64


@pytest.mark.parametrize("role", ["S-membership", "h-value"])
@pytest.mark.parametrize("t", [1, 6, 63, 64])
def test_fiber_keys_up_to_64_address_bits_are_words_of_the_role_stream(t, role):
    # fold(K, a, t) is word a of the stream whose key is K when a fits one chunk
    f = wide_instance(t, 7 + t)
    addresses = sorted({1, 2, (1 << t) - 1, 1 << t})
    expected = []
    for address in addresses:
        at = RandomStream([f.seed], role)
        at._state += address % 2**64 * GAMMA % 2**64
        expected.append(at.raw(1)[0, 0].tolist())
    if t <= 6:
        words = RandomStream([f.seed], role).raw((1 << t) + 1)[0]
        assert expected == [words[a] for a in addresses]
    # 2^64 at t = 64 is one all-zeros chunk
    chunks = np.array(reference_chunks(addresses, t), dtype=np.uint64)[:, None]
    pool = np.array([f.A.members], dtype=np.intp)
    h, coins = boolfn._fibers(f._keys, chunks, t, pool, np.ones(pool.shape, dtype=bool),
                              word_limit(f.params.coin_prob))
    if role == "h-value":
        assert h[0].tolist() == expected
    else:
        limit = word_limit(f.params.coin_prob)
        words = rng.words(np.array(expected, dtype=np.uint64)[:, None], pool)
        assert coins[0].tolist() == ((words >> 11) < limit).tolist()


def test_fiber_frequencies_within_4_sigma():
    # at desk n = 12, epsilon = 1, on 100 yes and 100 no instances: a member
    # of A joins a fiber's S at rate theta, each coin on its own word; a
    # coordinate of A has influence theta / 2 (it lies in S with chance
    # theta, and then each pair of values differs with chance 1/2); one of M
    # has influence 1/2 (its flip moves x to another fiber)
    n = 12
    params = desk(n, 1.0)
    theta = params.coin_prob
    seeds = Seed(12).mixes(range(200))
    fs = [*sample_block(params, YES_STYLE, seeds[:100]), *sample_block(params, NO_STYLE, seeds[100:])]
    joined = coins = 0
    influences = {"A": [], "M": []}
    for f in fs:
        _, fibers = fiber_kernel(f)
        joined += sum(map(len, fibers))
        coins += len(fibers) * len(f.A)
        influence = np.array(bichromatic_edge_counts(to_table(f))) / 2 ** (n - 1)
        for name, members in (("A", f.A.members), ("M", f.M.members)):
            if members:
                influences[name].append(influence[np.array(members) - 1].mean())
    assert abs(joined / coins - theta) <= 4 * math.sqrt(theta * (1 - theta) / coins)
    for name, expected in (("A", theta / 2), ("M", 0.5)):
        values = np.array(influences[name])
        assert abs(values.mean() - expected) <= 4 * values.std(ddof=1) / math.sqrt(len(values))


def edge_instance(n, M, epsilon, seed_value, full_pool):
    """An instance with the given M; A is every coordinate outside M, or every second one."""
    params = replace(desk(max(n, 4), epsilon), n=n, m=n - len(M), t=len(M))
    rest = [i for i in range(1, n + 1) if i not in M]
    pool = rest if full_pool else rest[::2]
    return StructuredFn(params=params, M=IndexSet.of(n, M), A=IndexSet.of(n, pool),
                        seed=Seed(seed_value), kind=YES_STYLE)


EDGE_SHAPES = [
    # t = 1 at n = 4..6, the address bit first, last or inside
    *[(n, M) for n in (4, 5, 6) for M in ([1], [n], [2])],
    # M holds both ends of the string
    (6, [1, 6]), (8, [1, 8]), (8, [1, 4, 8]),
    # M is everything but one coordinate
    (5, [1, 2, 3, 4]),
]


@pytest.mark.parametrize("full_pool", [True, False], ids=["full-pool", "half-pool"])
@pytest.mark.parametrize("epsilon", [0.1, 1.0])
@pytest.mark.parametrize("n, M", EDGE_SHAPES)
def test_fiber_paths_equal_the_reference_on_edge_shapes(n, M, epsilon, full_pool):
    # epsilon = 1 raises the coin to 1/sqrt(n) > 1/3, so fibers draw several coordinates
    f = edge_instance(n, M, epsilon, 1000 + n, full_pool)
    twin = pickle.loads(pickle.dumps(f))
    xs = [BitString(n, c) for c in range(1 << n)]
    xs += xs[::-3]
    expected_table = reference_table(f)
    expected = tuple(reference_eval(f, x) for x in xs)
    for g in (f, twin):
        assert to_table(g) == expected_table == fiberwise_table(g)
        assert g.eval_many(xs) == expected == fiberwise_eval_many(g, xs)


def test_to_table_of_an_instance_with_large_fibers_equals_the_reference():
    f = edge_instance(9, [1, 9], 1.0, 7, full_pool=True)
    assert max(len(reference_fiber(f, a)[0]) for a in range(1, 5)) >= 3
    assert to_table(f) == reference_table(f)


@pytest.mark.parametrize("epsilon", [0.1, 1.0])
def test_to_table_makes_no_table_sized_temporary(epsilon):
    # the output is the one 2^16-byte allocation; a 2^n temporary would add at least 2^16 more
    f = sample_no(desk(16, epsilon), Seed(16))
    to_table(f)
    tracemalloc.start()
    try:
        table = to_table(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.table.nbytes == 1 << 16
    assert peak <= (1 << 16) + (1 << 14)


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
