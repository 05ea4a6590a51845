"""Exact distance oracles against brute-force enumeration."""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junta_lab import junta_distance
from junta_lab.boolfn import IndexSet, TruthTable, bichromatic_edge_counts
from junta_lab.errors import InvalidInput, TooLarge
from junta_lab.hardgen import sample_d2
from junta_lab.junta_distance import (
    dist_to_junta_on,
    dist_to_k_junta,
    max_disjoint_bichromatic_matching,
)
from junta_lab.rng import RandomStream, Seed
from references import count_adds, distance_and_witness, first_minimum_over_subsets


def table_from_fn(n, fn):
    return TruthTable(n, np.array([fn(code) for code in range(1 << n)], dtype=np.uint8))


def bit_of(code, n, i):
    return (code >> (n - i)) & 1


XOR2 = table_from_fn(2, lambda c: (c ^ (c >> 1)) & 1)


def brute_force_junta_distance(f: TruthTable, J) -> Fraction:
    """Minimum disagreement over every function of the coordinates in J."""
    n = f.n
    J = tuple(J)
    size = 1 << len(J)
    best = None
    for assignment in product((0, 1), repeat=size):
        disagrees = 0
        for code in range(1 << n):
            fiber = 0
            for j in J:
                fiber = (fiber << 1) | bit_of(code, n, j)
            if assignment[fiber] != f.table[code]:
                disagrees += 1
        if best is None or disagrees < best:
            best = disagrees
    return Fraction(best, 1 << n)


def test_dist_on_examples():
    assert dist_to_junta_on(TruthTable.constant(3, 0), [1, 3]) == 0
    assert dist_to_junta_on(XOR2, [1]) == Fraction(1, 2)
    dictator3 = table_from_fn(3, lambda c: bit_of(c, 3, 3))
    assert dist_to_junta_on(dictator3, [3]) == 0
    assert dist_to_junta_on(dictator3, []) == Fraction(1, 2)


def test_dist_on_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        size = int(rng.integers(0, min(n, 3) + 1))
        J = sorted(int(i) for i in rng.choice(n, size=size, replace=False) + 1)
        assert dist_to_junta_on(f, J) == brute_force_junta_distance(f, J)


def test_dist_k_examples():
    rng = np.random.default_rng(3)
    f = TruthTable(4, rng.integers(0, 2, size=16, dtype=np.uint8))
    assert dist_to_k_junta(f, 4).distance == 0

    xor4 = table_from_fn(4, lambda c: bin(c).count("1") & 1)
    report = dist_to_k_junta(xor4, 3)
    assert report.distance == Fraction(1, 2)

    majority = table_from_fn(
        5, lambda c: int(bit_of(c, 5, 1) + bit_of(c, 5, 2) + bit_of(c, 5, 3) >= 2)
    )
    report = dist_to_k_junta(majority, 3)
    assert report.distance == 0
    assert report.witness.members == (1, 2, 3)


def test_dist_k_farness_flag_is_exact():
    report = dist_to_k_junta(XOR2, 1, epsilon=0.5)
    assert report.distance == Fraction(1, 2)
    assert report.far is True
    assert dist_to_k_junta(XOR2, 1, epsilon=0.5000001).far is False
    assert dist_to_k_junta(XOR2, 1).far is None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 1 << (n - 1)))),
    st.floats(min_value=5e-324, max_value=1.0),
)
@example((4, 4), 0.25)
@example((4, 3), 0.25)
@example((10, 256), 0.25)
@example((3, 4), 1.0)
@example((1, 1), 1.0)
@example((5, 0), 5e-324)
@example((5, 1), 5e-324)
@example((12, 2048), 0.5)
@example((12, 2047), 0.5)
def test_far_is_the_exact_rational_comparison(shape, epsilon):
    """``far`` is ``Fraction(distance) >= Fraction(epsilon)``, decided in integers."""
    # w ones of 2^n at k = 0: the nearest constant is 0, w disagreements
    n, ones = shape
    table = np.zeros(1 << n, dtype=np.uint8)
    table[:ones] = 1
    report = dist_to_k_junta(TruthTable(n, table), 0, epsilon)
    assert report.distance == Fraction(ones, 1 << n)
    assert report.far is (Fraction(ones, 1 << n) >= Fraction(epsilon))


def test_dist_k_witness_is_lex_smallest():
    # constant function: every witness ties, so the first in lex order wins
    report = dist_to_k_junta(TruthTable.constant(4, 1), 2)
    assert report.witness.members == (1, 2)


def junta_table(n, J, rng):
    """A random function of the coordinates in J, as an n-variable table."""
    values = rng.integers(0, 2, size=1 << len(J), dtype=np.uint8)
    fiber = np.zeros(1 << n, dtype=np.int64)
    for j in J:
        fiber = (fiber << 1) | ((np.arange(1 << n) >> (n - j)) & 1)
    return values[fiber]


@st.composite
def tables_and_k(draw):
    """Random-density tables, exact juntas on at most k coordinates, and near-juntas.

    A near-junta is a junta with a few points flipped: it fails the junta
    test, yet its distance is tiny and many subsets tie.
    """
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "junta", "near-junta")))
    if kind == "random":
        density = draw(st.floats(0.0, 1.0))
        return TruthTable(n, (rng.random(1 << n) < density).astype(np.uint8)), k
    J = sorted(rng.choice(n, size=draw(st.integers(0, k)), replace=False) + 1)
    table = junta_table(n, J, rng)
    if kind == "near-junta":
        flips = min(draw(st.integers(1, 3)), 1 << n)
        table[rng.choice(1 << n, size=flips, replace=False)] ^= 1
    return TruthTable(n, table), k


@settings(max_examples=60, deadline=None)
@given(tables_and_k())
def test_dist_k_is_first_minimum_over_subsets(case):
    f, k = case
    report = dist_to_k_junta(f, k)
    distance, witness = first_minimum_over_subsets(f, k)
    assert report.distance == distance
    assert report.witness.members == witness
    # the edge counts a caller already holds give the same report
    counts = bichromatic_edge_counts(f)
    for epsilon in (None, 0.1):
        assert dist_to_k_junta(f, k, epsilon, counts) == dist_to_k_junta(f, k, epsilon)


D2_N14 = sample_d2(14, 0.1, RandomStream([Seed(1)], "d2"))


@contextmanager
def blocks_counted():
    """Count the ``_block_least`` calls made inside: 0 means the walk never ran."""
    block_least = junta_distance._block_least
    count = [0]

    def counting(*args):
        count[0] += 1
        return block_least(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(junta_distance, "_block_least", counting)
        yield count


def test_dist_k_fixed_d2_case_at_n14():
    f = D2_N14
    with blocks_counted() as blocks:
        report = dist_to_k_junta(f, 10, epsilon=0.1)
    assert blocks[0] > 0
    assert report.distance == Fraction(1636, 1 << 14)
    assert report.witness.members == (1, 2, 3, 4, 5, 7, 8, 9, 10, 11)
    assert report.far is False
    assert (report.distance, report.witness.members) == first_minimum_over_subsets(f, 10)
    tail = dist_to_k_junta(f, 13)
    assert (tail.distance, tail.witness.members) == first_minimum_over_subsets(f, 13)
    assert tail.distance * 2**14 == min(bichromatic_edge_counts(f))


@settings(max_examples=60, deadline=None)
@given(tables_and_k().filter(lambda case: case[1] <= case[0].n - 2))
@example((D2_N14, 10))
def test_dist_block_size_changes_nothing(case):
    # 1 makes every block a single leaf; 2^13 holds 8 leaves of 2^10 counts
    f, k = case
    reports = []
    for cells in (1, 1 << 6, 1 << 13, junta_distance.DIST_BLOCK_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(junta_distance, "DIST_BLOCK_CELLS", cells)
            reports.append(dist_to_k_junta(f, k, epsilon=0.1))
    assert all(report == reports[-1] for report in reports)


def swapped(codes, n, i, j):
    """The codes with coordinates i and j exchanged."""
    differ = ((codes >> (n - i)) ^ (codes >> (n - j))) & 1
    return codes ^ (differ << (n - i)) ^ (differ << (n - j))


@st.composite
def tail_tables(draw):
    """Tables at n = 1..10 for k = n - 1: random, parity, constant, near-junta, tie-rich.

    Tie-rich tables make several directions share the least edge count:
    a table symmetric under exchanging two coordinates ties those two, and
    a function of the Hamming weight ties all n.
    """
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.arange(1 << n)
    kind = draw(st.sampled_from(("random", "parity", "constant", "near-junta", "swap", "weight")))
    if kind == "random":
        table = (rng.random(1 << n) < draw(st.floats(0.0, 1.0))).astype(np.uint8)
    elif kind == "parity":
        J = rng.choice(n, size=draw(st.integers(1, n)), replace=False) + 1
        table = np.zeros(1 << n, dtype=np.uint8)
        for j in J:
            table ^= ((codes >> (n - j)) & 1).astype(np.uint8)
    elif kind == "constant":
        table = np.full(1 << n, draw(st.integers(0, 1)), dtype=np.uint8)
    elif kind == "near-junta":
        J = sorted(rng.choice(n, size=draw(st.integers(0, n - 1)), replace=False) + 1)
        table = junta_table(n, J, rng)
        table[rng.choice(1 << n, size=min(draw(st.integers(1, 3)), 1 << n), replace=False)] ^= 1
    elif kind == "swap" and n >= 2:
        i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
        table = rng.integers(0, 2, size=1 << n, dtype=np.uint8)
        partner = swapped(codes, n, i, j)
        table = np.where(codes <= partner, table, table[partner]).astype(np.uint8)
    else:
        weights = np.array([bin(c).count("1") for c in codes])
        table = rng.integers(0, 2, size=n + 1, dtype=np.uint8)[weights]
    return TruthTable(n, table)


@settings(max_examples=100, deadline=None)
@given(tail_tables())
def test_dist_at_n_minus_1_is_the_least_direction_count(f):
    # dropping coordinate i leaves one edge {x, flip(x, i)} per fiber, and
    # the majority vote errs once on each bichromatic edge
    n = f.n
    report = dist_to_k_junta(f, n - 1)
    assert (report.distance, report.witness.members) == first_minimum_over_subsets(f, n - 1)
    assert report.distance * 2**n == min(bichromatic_edge_counts(f))


def test_dist_k_on_a_strided_table():
    # TruthTable keeps a view of the caller's array, so its table may be strided
    rng = np.random.default_rng(7)
    f = TruthTable(8, rng.integers(0, 2, size=1 << 9, dtype=np.uint8)[::2])
    assert not f.table.flags.c_contiguous
    for k in (3, 5, 7):
        report = dist_to_k_junta(f, k)
        assert (report.distance, report.witness.members) == first_minimum_over_subsets(f, k)
    assert report.distance * 2**8 == min(bichromatic_edge_counts(f))


@pytest.mark.parametrize(
    "n, k, dtype, strided",
    [
        (12, 10, np.uint8, False),
        (12, 5, np.uint8, True),
        (12, 4, np.uint16, False),
        (13, 3, np.uint16, True),
        (17, 1, np.uint32, False),
    ],
)
def test_dist_k_in_every_count_dtype(n, k, dtype, strided):
    # counts are held in the smallest type that holds the fiber size 2^(n-k),
    # and runs of them are added a word at a time
    assert np.min_scalar_type(1 << (n - k)) == dtype
    rng = np.random.default_rng(n * 100 + k)
    bits = (rng.random(2 << n) < 0.3).astype(np.uint8)
    f = TruthTable(n, bits[::2] if strided else bits[: 1 << n])
    assert f.table.flags.c_contiguous != strided
    with blocks_counted() as blocks:
        report = dist_to_k_junta(f, k)
    assert blocks[0] > 0
    assert (report.distance, report.witness.members) == first_minimum_over_subsets(f, k)


def test_junta_test_witnesses():
    # a constant table depends on no coordinate
    for n in (1, 4):
        zero = TruthTable.constant(n, 0)
        assert dist_to_k_junta(zero, 0).witness.members == ()
        assert dist_to_k_junta(zero, n).witness.members == tuple(range(1, n + 1))
    # x2 ^ x5 depends on exactly two coordinates, x5 ^ x6 on the last two
    middle = table_from_fn(6, lambda c: bit_of(c, 6, 2) ^ bit_of(c, 6, 5))
    last = table_from_fn(6, lambda c: bit_of(c, 6, 5) ^ bit_of(c, 6, 6))
    report = dist_to_k_junta(middle, 2, epsilon=0.5)
    assert (report.distance, report.witness.members, report.far) == (0, (2, 5), False)
    assert dist_to_k_junta(middle, 4).witness.members == (1, 2, 3, 5)
    assert dist_to_k_junta(last, 2).witness.members == (5, 6)
    assert dist_to_k_junta(last, 4).witness.members == (1, 2, 5, 6)
    assert dist_to_k_junta(last, 1).distance == Fraction(1, 2)
    for f, k in ((middle, 2), (middle, 4), (last, 4), (last, 1)):
        report = dist_to_k_junta(f, k)
        assert (report.distance, report.witness.members) == first_minimum_over_subsets(f, k)


def test_count_adds_equals_word_adds():
    # adding a block's runs one count at a time changes no answer, in the
    # uint8 counts of k = 10 and 6 and the uint16 counts of k = 3
    words = junta_distance._words
    g = sample_d2(12, 2.0**-7, RandomStream([Seed(2)], "d2"))
    cases = [(g, 10), (g, 6), (g, 3)]
    assert count_adds(cases) == [distance_and_witness(f, k) for f, k in cases]
    assert junta_distance._words is words


def brute_force_matching(f: TruthTable, V) -> int:
    """Exhaustive maximum matching by branching over the edge list."""
    n = f.n
    edges = []
    for j in V:
        mask = 1 << (n - j)
        for x in range(1 << n):
            y = x ^ mask
            if x < y and f.table[x] != f.table[y]:
                edges.append((x, y))

    def best(idx, used):
        if idx == len(edges):
            return 0
        skip = best(idx + 1, used)
        x, y = edges[idx]
        if x not in used and y not in used:
            take = 1 + best(idx + 1, used | {x, y})
            return max(take, skip)
        return skip

    return best(0, frozenset())


def test_matching_examples():
    assert max_disjoint_bichromatic_matching(TruthTable.constant(3, 0), [1]).size == 0
    assert max_disjoint_bichromatic_matching(XOR2, [1]).size == 2
    dictator3 = table_from_fn(3, lambda c: bit_of(c, 3, 1))
    assert max_disjoint_bichromatic_matching(dictator3, [1]).size == 4


def validate_certificate(cert, f):
    """Raise unless every edge is bichromatic, in-direction, and disjoint."""
    assert cert.size == len(cert.edges), "certificate size disagrees with its edge list"
    seen = set()
    n = f.n
    for x, direction in cert.edges:
        assert direction in cert.V.members, f"direction {direction} not in V"
        y = x.code ^ (1 << (n - direction))
        assert f.table[x.code] != f.table[y], f"edge at {x} direction {direction} is monochromatic"
        assert x.code not in seen and y not in seen, "certificate edges share a vertex"
        seen.update((x.code, y))


def test_matching_certificates_validate():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        V = sorted(int(i) + 1 for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        cert = max_disjoint_bichromatic_matching(f, V)
        validate_certificate(cert, f)


def test_matching_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        V = sorted(int(i) + 1 for i in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        assert max_disjoint_bichromatic_matching(f, V).size == brute_force_matching(f, V)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_bichromatic_counts_equal_single_direction_matchings(n, seed):
    rng = np.random.default_rng(seed)
    f = TruthTable(n, (rng.random(1 << n) < rng.random()).astype(np.uint8))
    counts = bichromatic_edge_counts(f)
    assert len(counts) == n
    for i in range(1, n + 1):
        assert counts[i - 1] == max_disjoint_bichromatic_matching(f, [i]).size


def test_farness_from_matching():
    # a certificate holding eps * 2^n edges makes f eps-far from every junta
    # that ignores V; an empty one certifies nothing
    constant = TruthTable.constant(2, 0)
    assert max_disjoint_bichromatic_matching(constant, [1]).size == 0
    assert dist_to_junta_on(constant, [2]) == 0

    cert = max_disjoint_bichromatic_matching(XOR2, [1])
    assert Fraction(cert.size, 1 << 2) >= Fraction(1, 4)
    assert dist_to_junta_on(XOR2, [2]) >= Fraction(1, 4)
    assert dist_to_junta_on(XOR2, [2]) >= Fraction(cert.size, 1 << 2)


def test_certificate_soundness_against_exact_distance():
    # any junta on coordinates disjoint from V disagrees at least cert.size
    # times: every certificate edge flips a V-direction the junta ignores
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 6))
        f = TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
        V = sorted(int(i) + 1 for i in rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        cert = max_disjoint_bichromatic_matching(f, V)
        outside = [i for i in range(1, n + 1) if i not in set(V)]
        for size in range(len(outside) + 1):
            for J in combinations(outside, size):
                assert dist_to_junta_on(f, J) >= Fraction(cert.size, 1 << n)
                checked += 1


def test_matching_mass_when_v_meets_the_addressing_set():
    # structured desk instances at n = 10 with V touching an addressing
    # coordinate: along that direction the two sides of every edge get
    # independent unbiased values, so the disjoint bichromatic mass is a
    # constant fraction of the cube.  Dashboard prints the mean; the hard
    # assertion sits at the weaker 0.1 to absorb small-n fluctuation.
    import math

    from junta_lab.boolfn import to_table
    from junta_lab.hardgen import sample_no, sample_yes
    from junta_lab.params import DESK_SCALE, derive_params
    from junta_lab.rng import Seed

    params = derive_params(10, 0.75, 0.1, DESK_SCALE)
    n = params.n
    v_size = min(9 * math.ceil(math.sqrt(n)), n - 1)
    ratios = []
    base = Seed(4242)
    for j in range(100):
        sampler = sample_yes if j % 2 == 0 else sample_no
        f = sampler(params, base.mix(j))
        members = list(f.M.members)
        for c in range(1, n + 1):
            if len(members) >= v_size:
                break
            if c not in set(f.M.members):
                members.append(c)
        V = IndexSet.of(n, sorted(members[:v_size]))
        cert = max_disjoint_bichromatic_matching(to_table(f), V)
        ratios.append(cert.size / (1 << n))
    mean = sum(ratios) / len(ratios)
    print(f"mean disjoint bichromatic mass with V meeting M: {mean:.4f}")
    assert mean >= 0.1


def test_caps_and_validation():
    f21 = TruthTable.constant(21, 0)
    with pytest.raises(TooLarge):
        dist_to_junta_on(f21, [1])
    with pytest.raises(TooLarge):
        dist_to_k_junta(f21, 1)
    with pytest.raises(TooLarge):
        max_disjoint_bichromatic_matching(f21, [1])
    with pytest.raises(InvalidInput):
        max_disjoint_bichromatic_matching(XOR2, [])
    with pytest.raises(InvalidInput):
        dist_to_k_junta(XOR2, 3)
    for counts in ((), (2,), (2, 2, 2)):
        with pytest.raises(InvalidInput):
            dist_to_k_junta(XOR2, 1, counts=counts)


def test_farness_threshold_outside_the_parameter_domain_is_rejected():
    # A threshold of 0 or below made every table "far", one above 1 none.
    for epsilon in (-1.0, 0.0, 1e-400, 1.5, float("nan"), float("inf")):
        with pytest.raises(InvalidInput):
            dist_to_k_junta(XOR2, 1, epsilon=epsilon)
    assert dist_to_k_junta(XOR2, 0, epsilon=1.0).far is False
    assert dist_to_k_junta(TruthTable.constant(2, 1), 0, epsilon=5e-324).far is False
