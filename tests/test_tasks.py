"""Oracle games, reductions, and exact response laws against brute force."""

import math
import tracemalloc
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.boolfn import NO_STYLE, YES_STYLE, BitString, IndexSet, flip
from junta_lab.errors import (
    BadM,
    DimensionMismatch,
    InconsistentInput,
    InvalidInput,
    TooLarge,
)
from junta_lab import harness, tasks
from junta_lab.harness import Z_95, desk_params, run_hidden_set_game
from junta_lab.params import DESK_SCALE, derive_params
from junta_lab.rng import RandomStream, Seed
from junta_lab.tasks import (
    NO,
    YES,
    ElementQueryPlan,
    SetQueryPlan,
    StringQueryPlan,
    batch_bayes_decider,
    bayes_decide,
    build_set_queries,
    exact_optimal_advantage,
    exact_response_distribution,
    far_pair_codes,
    is_separating,
    lift_equivalence_gap,
    lifted_response_distribution,
    respond,
    response_layout,
    separates,
    sample_hidden,
    set_plan_to_element_counts,
    simulate_distinguisher,
    sseq_respond,
    sssq_respond,
)
from junta_lab.binom_stats import BinomialSpec, exact_dtv, hit_prob, tv_distance
from references import (
    CoinTape,
    coin_law,
    complement_sample,
    dict_lifted_law,
    dict_response_law,
    lift_response,
    per_element_slots,
    per_element_sseq_respond,
    per_query_sssq_respond,
    per_trial_game,
    reference_is_separating,
    reference_stream,
    row_coin_law,
)


def desk(n=64, epsilon=0.1):
    return derive_params(n, 0.75, epsilon, DESK_SCALE)


PARAMS = desk()
THETA = PARAMS.coin_prob


def flat_index(response, plan):
    """The index of a response tuple in its plan's flat law (see ``tasks._product_law``)."""
    if isinstance(plan, ElementQueryPlan):
        assert not any(b for b, c in zip(response, plan.counts) if c == 0)
        bits = [b for b, c in zip(response, plan.counts) if c > 0]
    else:
        by_element = {}
        for T, row in zip(plan.queries, response):
            for j, bit in zip(T.members, row):
                by_element.setdefault(j, []).append(bit)
        bits = [bit for j in sorted(by_element) for bit in by_element[j]]
    return int("".join(map(str, bits)) or "0", 2)


# ---------------------------------------------------------------- sampling


def test_sample_hidden_degenerate():
    stream = RandomStream([Seed(1)], "h")
    assert sample_hidden(5, 0.0, stream).members == ()
    assert sample_hidden(5, 1.0, stream).members == (1, 2, 3, 4, 5)


def test_sample_hidden_mean():
    m, trials = 200, 1000
    stream = RandomStream([Seed(2)], "hm")
    sizes = [len(sample_hidden(m, 0.5, stream)) for _ in range(trials)]
    sigma = math.sqrt(0.25 * m / trials)
    assert abs(float(np.mean(sizes)) - 100.0) <= 5 * sigma


def test_sample_hidden_determinism():
    a = sample_hidden(30, 0.5, RandomStream([Seed(3)], "d"))
    b = sample_hidden(30, 0.5, RandomStream([Seed(3)], "d"))
    assert a == b


# ---------------------------------------------------------------- responses


def test_sssq_zero_cases():
    plan = SetQueryPlan.of(4, [[1, 2], [3]])
    stream = RandomStream([Seed(4)], "s")
    assert sssq_respond(IndexSet.of(4, []), plan, 0.1, 64, stream) == ((0, 0), (0,))
    assert sssq_respond(IndexSet.of(4, [1, 2, 3, 4]), plan, 0.0, 64, stream) == ((0, 0), (0,))


def test_sssq_on_set_frequency():
    m = 10_000
    plan = SetQueryPlan.of(m, [range(1, m + 1)])
    # epsilon / sqrt(n) = 0.3
    resp = sssq_respond(
        IndexSet.of(m, range(1, m + 1)), plan, 0.3, 1, RandomStream([Seed(5)], "f")
    )
    ones = sum(resp[0])
    sigma = math.sqrt(m * 0.3 * 0.7)
    assert abs(ones - 0.3 * m) <= 5 * sigma


def test_sssq_dimension_mismatch():
    plan = SetQueryPlan.of(5, [[1, 5]])
    with pytest.raises(DimensionMismatch):
        sssq_respond(IndexSet.of(4, []), plan, 0.1, 64, RandomStream([Seed(6)], "x"))


def test_sseq_zero_and_off_set():
    plan = ElementQueryPlan.of([0, 0, 0])
    stream = RandomStream([Seed(7)], "e")
    assert sseq_respond(IndexSet.of(3, [1, 2, 3]), plan, 0.9, 4, stream) == (0, 0, 0)
    big = ElementQueryPlan.of([50, 50, 50])
    for j in range(20):
        resp = sseq_respond(IndexSet.of(3, [2]), big, 0.9, 4, RandomStream([Seed(j)], "e2"))
        assert resp[0] == 0 and resp[2] == 0


def test_sseq_frequency():
    m = 10_000
    plan = ElementQueryPlan.uniform(m, 1)
    resp = sseq_respond(
        IndexSet.of(m, range(1, m + 1)), plan, 0.25, 1, RandomStream([Seed(8)], "e3")
    )
    ones = sum(resp)
    sigma = math.sqrt(m * 0.25 * 0.75)
    assert abs(ones - 0.25 * m) <= 5 * sigma


def test_response_layout_gives_each_bit_its_element_and_rate():
    epsilon, n = 0.5, 4  # theta = 0.25
    elements, rates = response_layout(ElementQueryPlan.of([0, 2, 1]), epsilon, n)
    assert elements.tolist() == [0, 1, 2]
    assert rates.tolist() == [0.0, hit_prob(2, epsilon, n), 0.25]
    # query after query, one bit per slot of each query's sorted members
    elements, rates = response_layout(SetQueryPlan.of(4, [[3, 2], [], [3], [1, 3, 4]]), epsilon, n)
    assert elements.tolist() == [1, 2, 2, 0, 2, 3]
    assert rates.tolist() == [0.25] * 6
    for plan in (ElementQueryPlan.of([]), SetQueryPlan.of(3, [[], []])):
        elements, rates = response_layout(plan, epsilon, n)
        assert (len(elements), len(rates)) == (0, 0)
        assert (elements.dtype, rates.dtype) == (np.intp, np.float64)
    # theta is checked even when no slot reads it
    with pytest.raises(InvalidInput):
        response_layout(SetQueryPlan.of(3, [[]]), 3.0, 4)


def test_both_oracle_names_are_the_one_round():
    assert sseq_respond is respond and sssq_respond is respond


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_respond_equals_the_per_query_and_per_element_rounds(data):
    """One ``below`` per round answers as the per-query and per-element reads did, and moves as far."""
    m = data.draw(st.integers(1, 6))
    A = IndexSet.of(m, data.draw(st.sets(st.integers(1, m))))
    if data.draw(st.booleans()):
        counts = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        if data.draw(st.booleans()):
            counts[data.draw(st.integers(0, m - 1))] = 0
        plan, reference = ElementQueryPlan.of(counts), per_element_sseq_respond
    else:
        queries = data.draw(st.lists(st.sets(st.integers(1, m)), min_size=1, max_size=5))
        extra = data.draw(st.sampled_from(["none", "empty", "repeat"]))
        queries += {"none": [], "empty": [set()], "repeat": [queries[0]]}[extra]
        plan, reference = SetQueryPlan.of(m, queries), per_query_sssq_respond
    epsilon, n = data.draw(st.sampled_from([(0.0, 4), (0.5, 4), (1.2, 4), (2.0, 4), (0.1, 64)]))
    seed = Seed(data.draw(st.integers(0, 2**64 - 1)))
    one_read, reference_reads = RandomStream([seed], "round"), RandomStream([seed], "round")
    for _ in range(3):
        assert (respond(A, plan, epsilon, n, one_read)
                == reference(A, plan, epsilon, n, reference_reads))
        assert one_read.raw(1).tolist() == reference_reads.raw(1).tolist()


# ---------------------------------------------------------------- counting


def test_element_counts_example():
    plan = SetQueryPlan.of(3, [[1, 2], [2, 3]])
    assert set_plan_to_element_counts(plan).counts == (1, 2, 1)
    full = SetQueryPlan.of(4, [range(1, 5)])
    assert set_plan_to_element_counts(full).counts == (1, 1, 1, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_element_counts_preserve_cost(data):
    m = data.draw(st.integers(1, 8))
    sets = data.draw(
        st.lists(st.sets(st.integers(1, m), max_size=m), min_size=1, max_size=6)
    )
    plan = SetQueryPlan.of(m, sets)
    assert set_plan_to_element_counts(plan).cost == plan.cost


# ---------------------------------------------------------------- lifting


def test_lift_zero_response():
    plan = SetQueryPlan.of(3, [[1, 2], [2, 3]])
    out = lift_response((0, 0, 0), plan, 0.1, 64, reference_stream(Seed(9), "l"))
    assert out == ((0, 0), (0, 0))


def test_lift_single_slot_forced():
    plan = SetQueryPlan.of(2, [[1]])
    out = lift_response((1, 0), plan, 0.0001, 64, reference_stream(Seed(10), "l2"))
    assert out == ((1,),)


def test_lift_inconsistent_input():
    plan = SetQueryPlan.of(3, [[1, 2]])
    with pytest.raises(InconsistentInput):
        lift_response((0, 0, 1), plan, 0.1, 64, reference_stream(Seed(11), "l3"))


def test_lift_conditional_pattern_frequencies():
    # one element with multiplicity 2 at theta = 1/2: patterns 01, 10, 11
    # each carry conditional mass 1/3
    plan = SetQueryPlan.of(1, [[1], [1]])
    words = reference_stream(Seed(12), "l4")
    counts = {(0, 1): 0, (1, 0): 0, (1, 1): 0}
    trials = 100_000
    for _ in range(trials):
        out = lift_response((1,), plan, 1.0, 4, words)
        counts[(out[0][0], out[1][0])] += 1
    sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
    for pattern, count in counts.items():
        assert abs(count - trials / 3) <= 5 * sigma, pattern


# ------------------------------------------------- exact response laws


def test_exact_distribution_empty_set():
    plan = ElementQueryPlan.of([2, 3])
    law = exact_response_distribution(IndexSet.of(2, []), plan, 0.3, 4)
    assert law == [1.0, 0.0, 0.0, 0.0]
    assert law[flat_index((0, 0), plan)] == 1.0


def test_exact_distribution_single_coin():
    plan = ElementQueryPlan.of([1])
    law = exact_response_distribution(IndexSet.of(1, [1]), plan, 0.3, 4)
    theta = 0.3 / 2
    assert len(law) == 2
    assert law[flat_index((1,), plan)] == pytest.approx(theta, rel=1e-15)
    assert law[flat_index((0,), plan)] == pytest.approx(1 - theta, rel=1e-15)


def test_exact_distribution_two_fair_coins():
    plan = SetQueryPlan.of(1, [[1], [1]])
    law = exact_response_distribution(IndexSet.of(1, [1]), plan, 1.0, 4)
    assert len(law) == 4
    for prob in law:
        assert prob == pytest.approx(0.25, rel=1e-15)


def test_flat_law_order_is_element_then_query():
    # element 1 holds slots (q0, q2), element 2 holds slot q1; element 1's
    # first slot is the most significant bit
    plan = SetQueryPlan.of(2, [[1], [2], [1]])
    assert flat_index(((1,), (0,), (0,)), plan) == 0b100
    assert flat_index(((0,), (1,), (0,)), plan) == 0b001
    assert flat_index(((0,), (0,), (1,)), plan) == 0b010
    law = exact_response_distribution(IndexSet.of(2, [1]), plan, 1.2, 4)  # theta = 0.6
    assert law[0b100] == pytest.approx(0.6 * 0.4, rel=1e-15)
    assert law[0b001] == 0.0
    assert law[0b110] == pytest.approx(0.36, rel=1e-15)


def test_exact_distribution_sums_to_one():
    rng = np.random.default_rng(51)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            plan = ElementQueryPlan.of([int(c) for c in rng.integers(0, 4, size=m)])
        else:
            sets = [
                sorted(set(int(v) + 1 for v in rng.integers(0, m, size=rng.integers(1, m + 1))))
                for _ in range(int(rng.integers(1, 4)))
            ]
            plan = SetQueryPlan.of(m, sets)
        members = [i + 1 for i in range(m) if rng.random() < 0.5]
        law = exact_response_distribution(IndexSet.of(m, members), plan, 0.4, 9)
        assert abs(math.fsum(law) - 1.0) <= 1e-12


def test_respond_law_by_coin_enumeration_equals_the_exact_law():
    """``respond``'s law, enumerated on a ``CoinTape``, is ``exact_response_distribution``.

    On every claim53 plan with A = [m] and every element plan of counts
    0..2 over m <= 3 elements, at theta = 0.6 and at ``LAW_EDGES``.  A tape
    coin fires with chance ceil(rate * 2^53) / 2^53, within 2^-53 of its
    rate, and each law is a product of at most 3 * w + 1 factors in [0, 1]
    for w coins, each rounded once; so an entry may differ by at most
    8 * w * 2^-53.
    """
    plans = [(plan, A) for m, plan, A in harness.claim53_pairs() if len(A) == m]
    plans += [(ElementQueryPlan.of(counts), IndexSet.of(m, range(1, m + 1)))
              for m in (1, 2, 3) for counts in product(range(3), repeat=m)]
    for epsilon, n in [(1.2, 4), *LAW_EDGES]:
        for plan, A in plans:
            width = len(response_layout(plan, epsilon, n)[0])
            law = coin_law(partial(respond, A, plan, epsilon, n), width)
            by_index = {flat_index(outcome, plan): prob for outcome, prob in law.items()}
            exact = exact_response_distribution(A, plan, epsilon, n)
            assert len(by_index) == len(law) and max(by_index) < len(exact)
            for index, want in enumerate(exact):
                assert abs(by_index.get(index, 0.0) - want) <= 8 * width * 2.0**-53, (plan, index)


def test_lifted_law_matches_lift_sampler():
    plan = SetQueryPlan.of(2, [[1, 2], [2]])
    A = IndexSet.of(2, [2])
    law = lifted_response_distribution(A, plan, 1.2, 4)
    ell = set_plan_to_element_counts(plan)
    trials = 40_000
    stream, words = RandomStream([Seed(14)], "mc2/b"), reference_stream(Seed(14), "mc2/l")
    counts = [0] * len(law)
    for _ in range(trials):
        b = sseq_respond(A, ell, 1.2, 4, stream)
        out = lift_response(b, plan, 1.2, 4, words)
        counts[flat_index(out, plan)] += 1
    assert abs(math.fsum(law) - 1.0) <= 1e-12
    for observed, prob in zip(counts, law):
        sigma = math.sqrt(trials * prob * (1 - prob)) + 1e-9
        assert abs(observed - trials * prob) <= 5 * sigma


def test_lift_equivalence_sweep_small():
    # the claim53 pairs at n = 64, away from the desk point the experiment runs at
    for _, plan, A in harness.claim53_pairs():
        assert lift_equivalence_gap(A, plan, PARAMS.epsilon, PARAMS.n) <= 1e-9


def test_lift_equivalence_degenerate():
    plan = SetQueryPlan.of(2, [[1, 2]])
    assert lift_equivalence_gap(IndexSet.of(2, []), plan, 0.5, 4) == 0.0
    assert lift_equivalence_gap(IndexSet.of(2, [1, 2]), plan, 0.0, 4) == 0.0


def assert_flat_equals_dict(law, reference, plan):
    """Entry for entry, with ``==``: the reference omits outcomes of probability zero."""
    by_index = {flat_index(outcome, plan): prob for outcome, prob in reference.items()}
    assert len(by_index) == len(reference)
    assert all(index < len(law) for index in by_index)
    for index, prob in enumerate(law):
        assert prob == by_index.get(index, 0.0), (plan, index)


# (epsilon, n): the claim53 desk point, theta = 0 and theta = 1
LAW_EDGES = [(0.1, 10), (0.0, 10), (2.0, 4)]


@pytest.mark.parametrize("epsilon, n", LAW_EDGES)
def test_flat_laws_equal_dict_references_on_set_plans(epsilon, n):
    pairs = 0
    for _, plan, A in harness.claim53_pairs():
        assert_flat_equals_dict(
            exact_response_distribution(A, plan, epsilon, n),
            dict_response_law(A, plan, epsilon, n),
            plan,
        )
        assert_flat_equals_dict(
            lifted_response_distribution(A, plan, epsilon, n),
            dict_lifted_law(A, plan, epsilon, n),
            plan,
        )
        pairs += 1
    assert pairs == 668


def test_flat_laws_equal_dict_references_on_random_plans():
    # up to 4 elements in up to 3 queries, so an element holds up to 3 slots
    rng = np.random.default_rng(53)
    for _ in range(400):
        m = int(rng.integers(1, 5))
        epsilon, n = [(0.1, 10), (0.4, 9), (1.2, 4), (0.3, 64), (0.0, 4), (2.0, 4)][
            int(rng.integers(0, 6))
        ]
        sets = [[j for j in range(1, m + 1) if rng.random() < 0.5]
                for _ in range(int(rng.integers(1, 4)))]
        plan = SetQueryPlan.of(m, sets)
        A = IndexSet.of(m, (i + 1 for i in range(m) if rng.random() < 0.5))
        assert_flat_equals_dict(
            exact_response_distribution(A, plan, epsilon, n),
            dict_response_law(A, plan, epsilon, n),
            plan,
        )
        assert_flat_equals_dict(
            lifted_response_distribution(A, plan, epsilon, n),
            dict_lifted_law(A, plan, epsilon, n),
            plan,
        )


@pytest.mark.parametrize("epsilon, n", LAW_EDGES)
def test_flat_law_equals_dict_reference_on_element_plans(epsilon, n):
    # counts 0 take no slot in the flat law, and pin the response bit to 0
    for m in (1, 2, 3):
        for counts in product(range(3), repeat=m):
            plan = ElementQueryPlan.of(counts)
            for amask in range(1 << m):
                A = IndexSet.of(m, (i + 1 for i in range(m) if (amask >> i) & 1))
                law = exact_response_distribution(A, plan, epsilon, n)
                assert len(law) == 1 << sum(1 for c in counts if c > 0)
                assert_flat_equals_dict(law, dict_response_law(A, plan, epsilon, n), plan)


def test_lifted_law_rejects_element_plans():
    with pytest.raises(InvalidInput):
        lifted_response_distribution(IndexSet.of(2, [1]), ElementQueryPlan.of([1, 2]), 0.1, 4)


def test_outcome_cap_on_set_plans_raises_before_building():
    # cost 21: one element in 21 queries
    plan = SetQueryPlan.of(1, [[1]] * 21)
    A = IndexSet.of(1, [1])
    tracemalloc.start()
    try:
        for law in (exact_response_distribution, lifted_response_distribution, lift_equivalence_gap):
            with pytest.raises(TooLarge):
                law(A, plan, 1.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, f"{peak} bytes allocated before the cap"


def test_outcome_cap_counts_only_positive_counts_on_element_plans():
    with pytest.raises(TooLarge):
        exact_response_distribution(IndexSet.of(21, [1]), ElementQueryPlan.of([1] * 21), 0.1, 4)
    # m = 25 with 3 positive counts: width 3, far under the cap
    plan = ElementQueryPlan.of([0] * 22 + [1, 2, 3])
    law = exact_response_distribution(IndexSet.of(25, [23, 25]), plan, 0.1, 4)
    assert len(law) == 1 << 3
    assert abs(math.fsum(law) - 1.0) <= 1e-12


# ---------------------------------------------------------------- separation


def test_is_separating_vacuous_when_all_close():
    n = 6
    M = IndexSet.of(n, [1])
    x = BitString.from_text("000000")
    X = StringQueryPlan(queries=(x, flip(x, 2)), decider=lambda bits: YES)
    assert is_separating(M, X, tau=3)


def test_is_separating_far_pair_split():
    n = 6
    M = IndexSet.of(n, [2, 4])
    X = StringQueryPlan(
        queries=(BitString.from_text("000000"), BitString.from_text("111111")),
        decider=lambda bits: YES,
    )
    assert is_separating(M, X, tau=6)


def test_is_separating_detects_hidden_far_pair():
    n = 6
    M = IndexSet.of(n, [1, 2])
    # differs exactly on the complement of M, distance 4
    y = BitString.from_text("001111")
    X = StringQueryPlan(queries=(BitString.from_text("000000"), y), decider=lambda b: YES)
    assert not is_separating(M, X, tau=4)
    assert is_separating(M, X, tau=5)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_separating_equals_pairwise_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    codes = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    members = data.draw(st.sets(st.integers(1, n), min_size=1))
    tau = data.draw(st.integers(min_value=1, max_value=n + 1))
    X = StringQueryPlan(queries=tuple(BitString(n, c) for c in codes), decider=lambda b: YES)
    M = IndexSet.of(n, members)
    want = reference_is_separating(M, X, tau)
    assert is_separating(M, X, tau) == want
    assert separates(M, far_pair_codes(X, tau)) == want


def test_is_separating_input_errors():
    X = StringQueryPlan(queries=(BitString.from_text("0000"),), decider=lambda b: YES)
    with pytest.raises(InvalidInput):
        is_separating(IndexSet.of(4, [1]), X, tau=0)
    with pytest.raises(InvalidInput):
        is_separating(IndexSet.of(4, []), X, tau=1)
    with pytest.raises(DimensionMismatch):
        is_separating(IndexSet.of(5, [1]), X, tau=1)


# ---------------------------------------------------------------- reduction


def one_class_plan(n=8, coords=(3, 5)):
    x = BitString.zeros(n)
    queries = [x]
    for c in coords:
        queries.append(flip(x, c))
    return StringQueryPlan(queries=tuple(queries), decider=lambda bits: YES)


def test_build_set_queries_single_flip():
    n = 8
    M = IndexSet.of(n, [1, 2])
    x = BitString.zeros(n)
    X = StringQueryPlan(queries=(x, flip(x, 3)), decider=lambda bits: YES)
    plan = build_set_queries(X, M, tau=20)
    assert plan.class_of == (0, 0)
    # coordinate 3 is the first label of the complement (3, 4, ..., 8)
    assert plan.set_plan.queries[0].members == (1,)
    assert plan.label_coords[0] == 3


def test_build_set_queries_identical_and_singletons():
    n = 6
    M = IndexSet.of(n, [1])
    x = BitString.zeros(n)
    same = StringQueryPlan(queries=(x, x, x), decider=lambda bits: YES)
    plan = build_set_queries(same, M, tau=10)
    assert plan.class_of == (0, 0, 0)
    assert plan.set_plan.queries[0].members == ()

    singles = StringQueryPlan(
        queries=(x, flip(x, 1)), decider=lambda bits: YES
    )
    plan = build_set_queries(singles, M, tau=10)
    assert plan.class_of == (0, 1)
    assert plan.set_plan.cost == 0


def test_build_set_queries_rejects_bad_m():
    n = 6
    M = IndexSet.of(n, [1, 2])
    y = BitString.from_text("001111")
    X = StringQueryPlan(queries=(BitString.from_text("000000"), y), decider=lambda b: YES)
    with pytest.raises(BadM):
        build_set_queries(X, M, tau=4)
    # at tau = n + 1 no pair is far, so the same M separates
    lenient = build_set_queries(X, M, tau=n + 1)
    assert lenient.set_plan.queries[0].members == (1, 2, 3, 4)


def test_build_set_queries_cost_bound():
    rng = np.random.default_rng(61)
    params = desk(12)
    n = params.n
    for trial in range(50):
        q = int(rng.integers(2, 21))
        X = StringQueryPlan(
            queries=tuple(BitString(n, int(v)) for v in rng.integers(0, 1 << n, size=q)),
            decider=lambda bits: YES,
        )
        members = sorted(int(i) + 1 for i in rng.choice(n, size=params.t, replace=False))
        M = IndexSet.of(n, members)
        plan = build_set_queries(X, M, params.tau)
        assert plan.set_plan.cost <= params.tau * q
        counts = set_plan_to_element_counts(plan.set_plan)
        assert counts.cost == plan.set_plan.cost


def test_simulate_distinguisher_constant_decider():
    params = desk(8)
    M = IndexSet.of(8, sorted(range(1, params.t + 1)))
    x = BitString.zeros(8)
    X = StringQueryPlan(queries=(x, flip(x, 8)), decider=lambda bits: YES)
    A = sample_hidden(params.m, params.p, RandomStream([Seed(16)], "h"))
    oracle = partial(
        sssq_respond, A, epsilon=params.epsilon, n=params.n, stream=RandomStream([Seed(16)], "o")
    )
    out = simulate_distinguisher(X, M, params, oracle, RandomStream([Seed(16)], "g"))
    assert out == YES


def test_simulate_distinguisher_warns_on_oversized_plans():
    # (n / epsilon)^2 = 36 at these settings, so 40 queries trip the warning
    params = derive_params(6, 0.75, 1.0, DESK_SCALE)
    M = IndexSet.of(6, [1])
    x = BitString.zeros(6)
    X = StringQueryPlan(queries=(x,) * 40, decider=lambda bits: YES)
    A = sample_hidden(params.m, params.p, RandomStream([Seed(30)], "h"))
    oracle = partial(
        sssq_respond, A, epsilon=params.epsilon, n=params.n, stream=RandomStream([Seed(30)], "o")
    )
    with pytest.warns(UserWarning, match="beyond"):
        simulate_distinguisher(X, M, params, oracle, RandomStream([Seed(30)], "g"))


def test_simulate_distinguisher_empty_live_sets_give_equal_bits():
    # epsilon 0 forces every selected set empty: one coin per class
    params = derive_params(8, 0.75, 1e-9, DESK_SCALE)
    M = IndexSet.of(8, sorted(range(1, params.t + 1)))
    x = BitString.zeros(8)
    seen = []

    def capture(bits):
        seen.append(bits)
        return YES

    outside = [i for i in range(1, 9) if i > params.t]
    X = StringQueryPlan(
        queries=(x, flip(x, outside[0]), flip(x, outside[1])), decider=capture
    )
    for j in range(20):
        A = sample_hidden(params.m, params.p, RandomStream([Seed(j)], "h"))
        oracle = partial(
            sssq_respond, A, epsilon=params.epsilon, n=params.n, stream=RandomStream([Seed(j)], "o")
        )
        simulate_distinguisher(X, M, params, oracle, RandomStream([Seed(j)], "g"))
    for bits in seen:
        assert len(set(bits)) == 1


def test_simulate_distinguisher_reads_one_coin_per_distinct_key():
    """Equal keys share a coin; distinct keys take successive coins in one read."""
    params = desk(8)
    M = IndexSet.of(8, [1, 2])
    x = BitString.zeros(8)
    seen = []

    def capture(bits):
        seen.append(bits)
        return YES

    # class 0 (M bits 00) holds the first four queries, class 1 the last
    X = StringQueryPlan(queries=(x, flip(x, 3), x, flip(x, 5), flip(x, 1)), decider=capture)

    def oracle(set_plan):
        # labels 1..6 are coordinates 3..8; of class 0's labels 1 and 3 only 1 answers
        assert [T.members for T in set_plan.queries] == [(1, 3), ()]
        return ((1, 0), ())

    # keys (class, bit of x at coordinate 3): (0, 0), (0, 1), (0, 0), (0, 0), then (1,)
    for pattern, bits in (([1, 0, 1], (1, 0, 1, 1, 1)), ([0, 1, 1], (0, 1, 0, 0, 1))):
        tape = CoinTape(pattern)
        assert simulate_distinguisher(X, M, params, oracle, tape) == YES
        assert seen.pop() == bits
        assert (tape.reads, tape.rates) == (1, [0.5] * 3)


# ---------------------------------------------------------------- advantage


def brute_force_advantage_sseq(plan, params, p, q):
    """Independent oracle: loop over every hidden set and every outcome."""
    m = plan.m
    theta = params.epsilon / math.sqrt(params.n)
    dists = []
    for inclusion in (p, q):
        law = [0.0] * (1 << m)
        for amask in range(1 << m):
            weight = 1.0
            for i in range(m):
                weight *= inclusion if (amask >> i) & 1 else 1.0 - inclusion
            for index, outcome in enumerate(product((0, 1), repeat=m)):
                prob = weight
                for i in range(m):
                    lam = 1.0 - (1.0 - theta) ** plan.counts[i]
                    if (amask >> i) & 1:
                        prob *= lam if outcome[i] else 1.0 - lam
                    elif outcome[i]:
                        prob = 0.0
                        break
                law[index] += prob
        dists.append(law)
    return tv_distance(dists[0], dists[1])


def kronecker_advantage(plan, params, p, q):
    """Reference: TV distance of the full response laws as 2^r-point Kronecker products.

    Each element is in the hidden set independently, so the response law is
    the product of per-element laws with membership averaged out: one bit
    per element with a positive count, or one bit per query slot of a set
    plan (2^r patterns for an element in r queries).
    """
    theta = params.coin_prob

    def local_laws(inclusion):
        laws = []
        if isinstance(plan, ElementQueryPlan):
            for c in plan.counts:
                if c == 0:
                    continue
                lam = hit_prob(c, params.epsilon, params.n)
                present = np.array([1.0 - lam, lam])
                absent = np.array([1.0, 0.0])
                laws.append(inclusion * present + (1.0 - inclusion) * absent)
            return laws
        for r in set_plan_to_element_counts(plan).counts:
            if r == 0:
                continue
            present = np.empty(1 << r)
            for idx in range(1 << r):
                k = bin(idx).count("1")
                present[idx] = theta**k * (1.0 - theta) ** (r - k)
            absent = np.zeros(1 << r)
            absent[0] = 1.0
            laws.append(inclusion * present + (1.0 - inclusion) * absent)
        return laws

    joint_yes = np.array([1.0])
    for law in local_laws(p):
        joint_yes = np.kron(joint_yes, law)
    joint_no = np.array([1.0])
    for law in local_laws(q):
        joint_no = np.kron(joint_no, law)
    return 0.5 * float(np.abs(joint_yes - joint_no).sum())


rates = st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=12), rates, rates)
def test_exact_advantage_matches_kronecker_on_element_plans(counts, p, q):
    plan = ElementQueryPlan.of(counts)
    expected = kronecker_advantage(plan, PARAMS, p, q)
    assert exact_optimal_advantage(plan, replace(PARAMS, p=p, q=q)) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.data(), rates, rates)
def test_exact_advantage_matches_kronecker_on_set_plans(data, p, q):
    m = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, 4))
    sets = data.draw(
        st.lists(st.sets(st.integers(1, m), max_size=min(m, 14 // k)), min_size=k, max_size=k)
    )
    plan = SetQueryPlan.of(m, sets)
    assert plan.cost <= 14
    counts = set_plan_to_element_counts(plan)
    expected = kronecker_advantage(plan, PARAMS, p, q)
    # the reduction itself: per-query coin patterns carry nothing beyond the counts
    assert kronecker_advantage(counts, PARAMS, p, q) == pytest.approx(expected, abs=1e-12)
    rated = replace(PARAMS, p=p, q=q)
    advantage = exact_optimal_advantage(plan, rated)
    assert advantage == pytest.approx(expected, abs=1e-12)
    assert advantage == exact_optimal_advantage(counts, rated)


def test_exact_advantage_degenerate():
    assert exact_optimal_advantage(ElementQueryPlan.of([0, 0, 0]), PARAMS) == 0.0
    assert exact_optimal_advantage(ElementQueryPlan.of([2, 1, 0]), replace(PARAMS, p=0.4, q=0.4)) == 0.0


def test_exact_advantage_single_element_closed_form():
    adv = exact_optimal_advantage(ElementQueryPlan.of([1]), PARAMS)
    lam = hit_prob(1, PARAMS.epsilon, PARAMS.n)
    assert adv == pytest.approx(lam * (PARAMS.q - PARAMS.p), rel=1e-12)


def test_exact_advantage_matches_brute_force():
    rng = np.random.default_rng(71)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        plan = ElementQueryPlan.of([int(c) for c in rng.integers(0, 4, size=m)])
        expected = brute_force_advantage_sseq(plan, PARAMS, PARAMS.p, PARAMS.q)
        assert exact_optimal_advantage(plan, PARAMS) == pytest.approx(expected, abs=1e-12)


def test_exact_advantage_sssq_plan():
    plan = SetQueryPlan.of(3, [[1, 2], [2, 3]])
    adv_set = exact_optimal_advantage(plan, PARAMS)
    # collapsing to element queries cannot lose information here
    counts = set_plan_to_element_counts(plan)
    adv_counts = exact_optimal_advantage(counts, PARAMS)
    assert adv_set == pytest.approx(adv_counts, abs=1e-12)


def test_exact_advantage_monotone_on_lattice():
    lattice = {}
    for ell in product(range(3), repeat=3):
        lattice[ell] = exact_optimal_advantage(ElementQueryPlan.of(ell), PARAMS)
    for ell, value in lattice.items():
        for d in range(3):
            bumped = list(ell)
            bumped[d] += 1
            key = tuple(bumped)
            if key in lattice:
                assert lattice[key] >= value - 1e-12


def test_exact_advantage_caps():
    # a uniform plan is one binomial pair, so a large universe stays exact
    lam = hit_prob(3, PARAMS.epsilon, PARAMS.n)
    expected = exact_dtv(BinomialSpec(64, PARAMS.p * lam), BinomialSpec(64, PARAMS.q * lam))
    adv = exact_optimal_advantage(ElementQueryPlan.uniform(64, 3), PARAMS)
    assert adv == pytest.approx(expected, rel=1e-12)
    # 21 distinct counts: joint support 2^21 exceeds JOINT_SUPPORT_CAP
    with pytest.raises(TooLarge):
        exact_optimal_advantage(ElementQueryPlan.of(range(1, 22)), PARAMS)


def test_log_likelihood_matches_law():
    plan = ElementQueryPlan.of([2, 0, 1])
    for inclusion in (PARAMS.p, PARAMS.q):
        law = [0.0] * 4
        for amask in range(1 << 3):
            weight = 1.0
            for i in range(3):
                weight *= inclusion if (amask >> i) & 1 else 1.0 - inclusion
            A = IndexSet.of(3, (i + 1 for i in range(3) if (amask >> i) & 1))
            per_set = exact_response_distribution(A, plan, PARAMS.epsilon, PARAMS.n)
            for index, prob in enumerate(per_set):
                law[index] += weight * prob
        # element 2 has count 0, so it answers 0
        for outcome in product((0, 1), (0,), (0, 1)):
            prob = law[flat_index(outcome, plan)]
            ll = summed_table_terms(outcome, plan, inclusion, PARAMS)
            assert math.exp(ll) == pytest.approx(prob, rel=1e-9)


@st.composite
def layout_plans(draw):
    """An element plan of counts 0..5, or a set plan of 1 to 8 queries, empty ones included."""
    m = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return ElementQueryPlan.of(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    queries = draw(st.lists(st.sets(st.integers(1, m)), min_size=1, max_size=8))
    return SetQueryPlan.of(m, [sorted(T) for T in queries])


@settings(max_examples=100, deadline=None)
@given(layout_plans(), st.sampled_from([(0.1, 10), (1.2, 4)]))
def test_slots_by_element_equal_the_per_element_grouping(plan, edge):
    epsilon, n = edge
    got = tasks._slots_by_element(plan, epsilon, n)
    want = per_element_slots(plan, epsilon, n)
    assert len(got) == len(want)
    for (cols, rate), (want_cols, want_rate) in zip(got, want):
        assert cols.dtype == want_cols.dtype and cols.tolist() == want_cols.tolist()
        assert rate == want_rate


def summed_table_terms(response, plan, inclusion, params):
    """The ``_log_likelihood_rows`` terms of a response's per-element ones counts, summed in row order."""
    groups = tasks._slots_by_element(plan, params.epsilon, params.n)
    rows = tasks._log_likelihood_rows(groups, inclusion, params.epsilon, params.n)
    if isinstance(plan, ElementQueryPlan):
        ones = response
    else:
        counts = {}
        for T, bits in zip(plan.queries, response):
            for j, bit in zip(T.members, bits):
                counts[j] = counts.get(j, 0) + bit
        ones = [counts[j] for j in sorted(counts)]
    assert len(ones) == len(rows)
    total = 0.0
    for row, k in zip(rows, ones):
        total += row[k]
    return total


def reference_log_likelihood(response, plan, inclusion, epsilon, n):
    """The log-likelihood summed element by element, each term computed in place.

    A term of zero mass makes the whole sum -inf, including a zero count
    where the element's hit rate is 1.
    """
    theta = epsilon / math.sqrt(n)
    total = 0.0
    if isinstance(plan, ElementQueryPlan):
        for i, c in enumerate(plan.counts):
            hit = inclusion * hit_prob(c, epsilon, n)
            bit = response[i]
            if hit == (0.0 if bit else 1.0):
                return -math.inf
            total += math.log(hit) if bit else math.log1p(-hit)
        return total
    slots = {}
    for i, T in enumerate(plan.queries):
        for pos, j in enumerate(T.members):
            slots.setdefault(j, []).append((i, pos))
    for j, positions in sorted(slots.items()):
        r = len(positions)
        k = sum(response[i][pos] for i, pos in positions)
        if k == 0:
            hit = inclusion * hit_prob(r, epsilon, n)
            if hit == 1.0:
                return -math.inf
            total += math.log1p(-hit)
        else:
            mass = inclusion * theta**k * (1.0 - theta) ** (r - k)
            if mass == 0.0:
                return -math.inf
            total += math.log(mass)
    return total


def reference_decide(response, plan, params):
    ll_yes = reference_log_likelihood(response, plan, params.p, params.epsilon, params.n)
    ll_no = reference_log_likelihood(response, plan, params.q, params.epsilon, params.n)
    return YES if ll_yes >= ll_no else NO


def all_responses(plan):
    if isinstance(plan, ElementQueryPlan):
        return list(product((0, 1), repeat=plan.m))
    sizes = [len(T) for T in plan.queries]
    flat = product((0, 1), repeat=sum(sizes))
    out = []
    for bits in flat:
        rows, at = [], 0
        for size in sizes:
            rows.append(tuple(bits[at:at + size]))
            at += size
        out.append(tuple(rows))
    return out


# theta = 2 / sqrt(4) = 1 and q = 1: hit rates of exactly 1, so -inf terms
# on the no side, and -inf on both sides for a set element with k < r ones.
CERTAIN_HITS = replace(desk(4), epsilon=2.0, q=1.0)


@pytest.mark.parametrize(
    "plan",
    [
        ElementQueryPlan.of([2, 0, 1, 5]),
        SetQueryPlan.of(4, [[1, 2], [], [2, 3], [2]]),
        SetQueryPlan.of(3, [[1, 2, 3], [1, 2, 3], [3]]),
    ],
)
def test_log_likelihood_equals_per_element_reference(plan):
    """The summed table terms equal the in-place reference float for float, -inf included."""
    for params in (PARAMS, CERTAIN_HITS):
        for response in all_responses(plan):
            for inclusion in (params.p, params.q, 0.0, 1.0):
                got = summed_table_terms(response, plan, inclusion, params)
                want = reference_log_likelihood(response, plan, inclusion, params.epsilon, params.n)
                assert got == want


def flat_bits(responses, plan):
    """Responses as the boolean rows ``batch_bayes_decider`` takes."""
    if isinstance(plan, SetQueryPlan):
        responses = [tuple(bit for row in response for bit in row) for response in responses]
    return np.array(responses, dtype=bool).reshape(len(responses), -1)


@pytest.mark.parametrize("params", [PARAMS, CERTAIN_HITS], ids=["desk", "certain-hits"])
@pytest.mark.parametrize(
    "plan",
    [
        ElementQueryPlan.of([2, 0, 1, 5]),
        ElementQueryPlan.of([0, 0, 0]),
        SetQueryPlan.of(4, [[1, 2], [], [2, 3], [2]]),
        SetQueryPlan.of(3, [[1, 2, 3], [1, 2, 3], [3]]),
        SetQueryPlan.of(2, [[]]),
    ],
    ids=["sseq", "sseq-all-zero", "sssq-empty-query", "sssq-repeated", "sssq-no-slots"],
)
def test_batch_decider_equals_bayes_decider(plan, params):
    """Every response of a small plan gets the reference's answer in a batch and one row at a time.

    Ties and -inf terms included.
    """
    responses = all_responses(plan)
    want = [reference_decide(response, plan, params) for response in responses]
    got = batch_bayes_decider(plan, params)(flat_bits(responses, plan))
    assert [YES if yes else NO for yes in got.tolist()] == want
    assert [bayes_decide(response, plan, params) for response in responses] == want


GAME_PARAMS = desk_params(10)
GAME_PLANS = [
    ElementQueryPlan.of([4] * GAME_PARAMS.m),
    ElementQueryPlan.of([0, 3, 0, 1, 7, 0]),
    SetQueryPlan.of(GAME_PARAMS.m, [range(1, GAME_PARAMS.m + 1)] * 4),
    SetQueryPlan.of(6, [[1, 2, 3], [], [2, 4], [2], [2, 3]]),
]
GAME_IDS = ["sseq-desk", "sseq-zero-counts", "sssq-desk", "sssq-empty-query"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("plan", GAME_PLANS, ids=GAME_IDS)
def test_hidden_set_game_equals_per_trial_loop(plan, seed):
    """run_hidden_set_game plays the sample -> respond -> decide loop on each side's stream."""
    params, trials = GAME_PARAMS, 300

    def checked_decide(response):
        decision = reference_decide(response, plan, params)
        assert bayes_decide(response, plan, params) == decision
        return decision

    result = run_hidden_set_game(plan, params, trials, seed)
    assert (result.trials_yes, result.trials_no) == (trials // 2, trials - trials // 2)
    assert result.advantage == per_trial_game(plan, params, trials, seed, checked_decide)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("plan", GAME_PLANS, ids=GAME_IDS)
def test_hidden_set_game_matches_exact_advantage(plan, seed):
    """The likelihood-threshold decider attains the exact optimum, so the estimate lies within 3 sigma."""
    result = run_hidden_set_game(plan, GAME_PARAMS, 2000, seed)
    sigma = (result.ci_high - result.ci_low) / (2 * Z_95)
    exact = exact_optimal_advantage(plan, GAME_PARAMS)
    assert abs(result.advantage - exact) <= 3 * sigma


# The GAME_PLANS whose trial reads at most 20 coins (m hidden, then the
# layout's width): sseq-desk 8 + 8, sseq-zero-counts 6 + 6 and
# sssq-empty-query 6 + 8; sssq-desk reads 8 + 32.
ENUMERABLE_GAMES = ["sseq-desk", "sseq-zero-counts", "sssq-empty-query"]

# Each side's P(yes) is a sum over coin patterns of products of w <= 20
# exact factors (l/2^53 and 1 - l/2^53 are doubles), so it carries w - 1
# roundings per product and one for the math.fsum; and word_limit moves
# each coin's rate by less than 2^-53, which moves a multilinear law by
# less than w * 2^-53.  That is under 4 * 20 * 2^-53 = 8.9e-15 for the
# two sides together.  exact_optimal_advantage adds its own rounding over
# a few hundred binomial mass products; 1e-13 covers both ten times over
# (measured errors are below 1e-15).
GAME_LAW_TOLERANCE = 1e-13


@pytest.mark.parametrize("plan", [GAME_PLANS[GAME_IDS.index(i)] for i in ENUMERABLE_GAMES],
                         ids=ENUMERABLE_GAMES)
def test_hidden_set_game_law_equals_the_exact_advantage(plan):
    """One trial's exact law per side, every coin pattern enumerated: the decider attains the optimum.

    A trial reads ``sample_hidden``'s m coins at the side's inclusion rate,
    then ``respond``'s coins at ``response_layout``'s rates, and
    ``batch_bayes_decider`` decides the response, as ``run_hidden_set_game``
    reads and decides each row of a block.
    """
    params = GAME_PARAMS
    element_of, responses = response_layout(plan, params.epsilon, params.n)
    width = plan.m + len(element_of)
    assert width <= 20
    decide = batch_bayes_decider(plan, params)

    def yes_rate(inclusion):
        def trial(rows):
            hidden = rows.below(plan.m, inclusion)
            return decide(hidden[:, element_of] & rows.below(len(element_of), responses))

        return row_coin_law(trial, width).get(True, 0.0)

    advantage = yes_rate(params.p) - yes_rate(params.q)
    assert abs(advantage - exact_optimal_advantage(plan, params)) <= GAME_LAW_TOLERANCE


@pytest.mark.parametrize("plan", GAME_PLANS, ids=GAME_IDS)
def test_hidden_set_game_block_size_changes_nothing(plan, monkeypatch):
    """Blocks of a few rows read the side streams in the same order as one block."""
    whole = run_hidden_set_game(plan, GAME_PARAMS, 301, 7)
    monkeypatch.setattr(harness, "GAME_BLOCK_CELLS", 3 * (plan.m + plan.cost) + 1)
    blocked = run_hidden_set_game(plan, GAME_PARAMS, 301, 7)
    assert blocked == whole


def test_hidden_set_game_rejects_degenerate_input():
    with pytest.raises(InvalidInput):
        run_hidden_set_game(ElementQueryPlan.of([]), GAME_PARAMS, 10, 0)
    for trials in (1, 0, -3):
        with pytest.raises(InvalidInput):
            run_hidden_set_game(GAME_PLANS[0], GAME_PARAMS, trials, 0)


def test_bayes_decide_runs():
    plan = ElementQueryPlan.of([3, 3])
    resp = (1, 1)
    assert bayes_decide(resp, plan, PARAMS) in (YES, NO)
    # an all-one response is likelier under the larger inclusion rate
    assert bayes_decide((1, 1), plan, PARAMS) == NO
    assert bayes_decide((0, 0), plan, PARAMS) == YES
    # the flattened response must cover every slot of the plan
    with pytest.raises(DimensionMismatch):
        bayes_decide((1, 1, 0), plan, PARAMS)
    set_plan = SetQueryPlan.of(3, [[1, 2], [], [3]])
    assert bayes_decide(((0, 1), (), (0,)), set_plan, PARAMS) in (YES, NO)
    with pytest.raises(DimensionMismatch):
        bayes_decide(((0, 1), ()), set_plan, PARAMS)
    # which element answered matters: a hit on the once-queried element 1
    # is outweighed by element 2's five silent slots, a hit on element 2 is not
    params = replace(desk(4), epsilon=1.0)
    plan = SetQueryPlan.of(2, [[1, 2], [2], [2], [2], [2]])
    assert bayes_decide(((1, 0), (0,), (0,), (0,), (0,)), plan, params) == YES
    assert bayes_decide(((0, 0), (0,), (0,), (0,), (1,)), plan, params) == NO


def test_reduction_preserves_the_advantage():
    # full two-sided comparison: the advantage of the simulated pipeline
    # equals the advantage of direct structured-instance play within 3 sigma
    params = desk(6)
    n = params.n
    M = IndexSet.of(n, [2])
    x0 = BitString.zeros(n)
    X = StringQueryPlan(
        queries=(x0, flip(x0, 4), flip(x0, 6), flip(flip(x0, 4), 6)),
        decider=lambda bits: YES if len(set(bits)) == 1 else NO,
    )
    trials = 4000

    def pipeline_rate(inclusion, label):
        hidden, oracle_stream, fn_stream = (RandomStream([Seed(808)], f"{label}/{part}")
                                            for part in ("h", "s", "g"))
        hits = 0
        for _ in range(trials):
            A = sample_hidden(params.m, inclusion, hidden)
            oracle = partial(
                sssq_respond, A, epsilon=params.epsilon, n=params.n, stream=oracle_stream
            )
            if simulate_distinguisher(X, M, params, oracle, fn_stream) == YES:
                hits += 1
        return hits / trials

    def direct_rate(kind, offset):
        base = Seed(909)
        hits = 0
        for j in range(trials):
            f = complement_sample(params, kind, base.mix(offset + j), M)
            if X.decider(f.eval_many(X.queries)) == YES:
                hits += 1
        return hits / trials

    adv_pipeline = pipeline_rate(params.p, "yes") - pipeline_rate(params.q, "no")
    adv_direct = direct_rate(YES_STYLE, 0) - direct_rate(NO_STYLE, trials)
    # conservative sigma: four proportions, each at most 0.5 variance
    sigma = math.sqrt(4 * 0.25 / trials)
    assert abs(adv_pipeline - adv_direct) <= 3 * sigma
