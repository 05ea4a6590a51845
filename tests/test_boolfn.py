"""Bit strings, truth tables, the addressing map, and structured instances."""

import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junta_lab import boolfn
from junta_lab.boolfn import (
    BitString,
    IndexSet,
    StructuredFn,
    TruthTable,
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
from junta_lab.hardgen import sample_no, sample_yes
from junta_lab.harness import always_yes
from junta_lab.params import DESK_SCALE, STRICT, derive_params
from junta_lab.rng import Seed
from junta_lab.tasks import StringQueryPlan, build_set_queries
from references import (
    address_index,
    counted_digests,
    eval_many_digest_counts,
    fiberwise_eval_many,
    fiberwise_table,
    hamming,
    keyed_fiber,
    per_direction_edge_counts,
    per_point_table,
    reference_eval,
    reference_fiber_coords,
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
    assert boolfn._addresses(4, [M.members], codes).tolist() == [[1, 1, 4, 2]]
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 140), st.data())
def test_address_gather_equals_the_reference(n, data):
    # rows of M of one size t, up to t = 139: int64 addresses below t = 63, Python ints from it
    t = data.draw(st.integers(1, n))
    rows = data.draw(st.lists(st.lists(st.integers(1, n), min_size=t, max_size=t, unique=True)
                              .map(sorted), max_size=4))
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    got = boolfn._addresses(n, np.array(rows, dtype=np.intp).reshape(len(rows), t), codes)
    assert got.shape == (len(rows), len(codes))
    assert got.dtype == (np.int64 if t < 63 else object)
    assert got.tolist() == [[address_index(IndexSet(n, tuple(row)), BitString(n, code))
                             for code in codes] for row in rows]
    assert all(type(address) is int for row in got.tolist() for address in row)


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
    st.integers(2, 14),
    st.sampled_from([sample_yes, sample_no]),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_keyed_paths_equal_the_fresh_blake2b_reference(n, sampler, epsilon, seed_value, data):
    """The fiber kernel, eval_many and, up to n = 10, to_table against fresh blake2b digests."""
    # derive_params starts at n = 4; below it one address bit and the rest pool
    params = desk(n, epsilon) if n >= 4 else replace(desk(4, epsilon), n=n, m=n - 1, t=1)
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    assert_keyed_paths_equal_the_reference(sampler(params, Seed(seed_value)), codes, n <= 10)


@pytest.mark.parametrize("n, sampler, epsilon", [
    (11, sample_yes, 0.1), (12, sample_no, 1.0), (13, sample_yes, 1.0), (14, sample_no, 0.1),
])
def test_keyed_tables_equal_the_fresh_blake2b_reference_past_n_10(n, sampler, epsilon):
    """The same checks, with the 2^n-point table, on one fixed instance and query list per n."""
    codes = np.random.default_rng(n).integers(0, 1 << n, size=24).tolist()
    assert_keyed_paths_equal_the_reference(sampler(desk(n, epsilon), Seed(n)), codes, True)


def assert_keyed_paths_equal_the_reference(f, codes, table):
    """Every fiber, ``eval_many`` at ``codes`` (reversed, and in one fiber) and, if ``table``, ``to_table``."""
    n = f.n
    for address in range(1, (1 << len(f.M)) + 1):
        coords, _ = boolfn._fiber(f._s_state, f.A.members, f._pool_codes, f._coin_limit, address)
        assert coords == reference_fiber_coords(f, address)
    codes = codes + codes[::-1]
    mask = sum(1 << (n - i) for i in f.M.members)
    one_fiber = [c & ~mask for c in codes]
    for batch in (codes, one_fiber):
        xs = [BitString(n, c) for c in batch]
        assert f.eval_many(xs) == tuple(reference_eval(f, x) for x in xs)
    if table:
        assert to_table(f) == reference_table(f)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 12),
    st.sampled_from([sample_yes, sample_no]),
    st.sampled_from([0.1, 1.0]),
    st.integers(0, 2**64 - 1),
    st.data(),
)
def test_eval_many_derives_one_digest_per_distinct_value(n, sampler, epsilon, seed_value, data):
    """eval_many against per-point ``reference_eval``, and its digests in closed form.

    Each distinct address costs |A| membership digests and each distinct
    (address, x on S) one value of h, so a repeated query and a second
    query in a fiber with empty S add none.
    """
    f = sampler(desk(n, epsilon), Seed(seed_value))
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    mask = sum(1 << (n - i) for i in f.M.members)
    fiber = data.draw(st.integers(0, (1 << n) - 1)) & mask
    # repeats; every query in one fiber; the fiber with the widest S
    widest = max(range(1, (1 << len(f.M)) + 1), key=lambda a: len(keyed_fiber(f, a)[0]))
    widest_bits = sum(((widest - 1) >> (len(f.M) - 1 - j) & 1) << (n - i)
                      for j, i in enumerate(f.M.members))
    batches = [codes + codes[::-1], [fiber | (c & ~mask) for c in codes],
               [widest_bits | (c & ~mask) for c in codes]]
    for batch in batches:
        xs = [BitString(n, c) for c in batch]
        with counted_digests() as count:
            got = f.eval_many(xs)
        assert got == tuple(reference_eval(f, x) for x in xs)
        assert count[0] == eval_many_digest_counts(f, xs)[1]


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
    assert max(len(keyed_fiber(f, a)[0]) for a in range(1, 5)) >= 3
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
