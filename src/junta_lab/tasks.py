"""Oracle games over a hidden subset and the reductions between them.

Three query models against a hidden set A inside [m]:

* set queries: a list of subsets; each queried element of A answers 1
  independently with rate epsilon/sqrt(n), elements outside A answer 0.
* element queries: a count vector; element i of A answers 1 with the
  compounded rate of ell_i coins.
* string queries: a non-adaptive list of n-bit strings plus a decider,
  played against a Boolean function instead of a set.

The two reductions implemented here: string plans collapse to set plans
through the addressing-set equivalence classes (with the per-class
selected-coordinate simulation, whose random functions are fair coins
of the caller's stream), and set plans collapse to element plans
through per-element multiplicity counting (with the exact law of
lifting the single response bit back to per-query bits).  The
likelihood-threshold decider between the two inclusion rates,
``batch_bayes_decider`` (and ``bayes_decide`` on one response), is the
only reader of the per-element log-likelihood tables.

One oracle round, ``respond`` (also bound as ``sseq_respond`` and
``sssq_respond``), reads the coins of ``response_layout``, the one place
that gives each response bit its element and coin rate; the block game
``harness.run_hidden_set_game`` reads the same layout, and the decider
builds its tables from the layout's columns and rates grouped by element.

Outcome conventions: a set-query response is a tuple of per-query bit
tuples aligned with the sorted members of each query; an element-query
response is a length-m bit tuple.  An exact response law is a flat list
of 2^width probabilities, one slot bit per outcome bit: a set plan's
slots go element by element in increasing order, and within an element
query by query; an element plan has one slot per element of positive
count.  The first slot is the most significant bit of the index.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .binom_stats import BinomialSpec, hit_prob, product_dtv, tv_distance
from .boolfn import BitString, IndexSet, _addresses
from .errors import (
    BadM,
    DimensionMismatch,
    InconsistentInput,
    InvalidInput,
    TooLarge,
)
from .params import Params, coin_rate
from .rng import RandomStream

YES = "yes"
NO = "no"

OUTCOME_SPACE_CAP = 1 << 20

SssqResponse = tuple[tuple[int, ...], ...]
SseqResponse = tuple[int, ...]
Decider = Callable[[tuple[int, ...]], str]


@dataclass(frozen=True)
class SetQueryPlan:
    """A non-adaptive list of set queries over [m]; cost is the total size."""

    m: int
    queries: tuple[IndexSet, ...]

    def __post_init__(self) -> None:
        if len(self.queries) < 1:
            raise InvalidInput("a set-query plan needs at least one query")
        for T in self.queries:
            if T.universe_size != self.m:
                raise DimensionMismatch(f"query universe {T.universe_size} != m = {self.m}")

    @classmethod
    def of(cls, m: int, sets: Iterable[Iterable[int]]) -> "SetQueryPlan":
        return cls(m, tuple(IndexSet.of(m, T) for T in sets))

    @property
    def cost(self) -> int:
        return sum(len(T) for T in self.queries)


@dataclass(frozen=True)
class ElementQueryPlan:
    """Per-element repeat counts; cost is their sum."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise InvalidInput("counts must be non-negative")

    @classmethod
    def of(cls, counts: Iterable[int]) -> "ElementQueryPlan":
        return cls(tuple(int(c) for c in counts))

    @classmethod
    def uniform(cls, m: int, per_element: int) -> "ElementQueryPlan":
        return cls((per_element,) * m)

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def cost(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class StringQueryPlan:
    """Non-adaptive n-bit string queries with a total decider over the replies."""

    queries: tuple[BitString, ...]
    decider: Decider

    def __post_init__(self) -> None:
        if len(self.queries) < 1:
            raise InvalidInput("a string-query plan needs at least one query")
        lengths = {x.length for x in self.queries}
        if len(lengths) != 1:
            raise DimensionMismatch(f"queries have mixed lengths {sorted(lengths)}")

    @property
    def q(self) -> int:
        return len(self.queries)

    @property
    def n(self) -> int:
        return self.queries[0].length


def sample_hidden(m: int, prob: float, stream: RandomStream) -> IndexSet:
    """The hidden set: each element of [m] joins independently with the given probability.

    Element i joins when the i-th of the one-row stream's next m coins at
    rate ``prob`` fires.
    """
    if m < 1:
        raise InvalidInput(f"m must be positive, got {m}")
    return IndexSet.of(m, (i for i, coin in enumerate(stream.below(m, prob)[0], 1) if coin))


def response_layout(plan: AnyPlan, epsilon: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The element (0-based) and the coin rate of each bit of a flattened response.

    A response flattens to its bits in order: an element response as it
    is, one bit per element at ``hit_prob`` of its count, and a set
    response query after query, one bit per slot at theta = epsilon /
    sqrt(n).  This is the one place that makes response-coin rates.
    """
    if isinstance(plan, ElementQueryPlan):
        return np.arange(plan.m), np.array([hit_prob(c, epsilon, n) for c in plan.counts])
    theta = coin_rate(epsilon, n)
    elements = np.array([j - 1 for T in plan.queries for j in T.members], dtype=np.intp)
    return elements, np.full(len(elements), theta)


def respond(
    A: IndexSet,
    plan: AnyPlan,
    epsilon: float,
    n: int,
    stream: RandomStream,
) -> Union[SssqResponse, SseqResponse]:
    """One oracle round: each bit of ``response_layout`` is 0 off A and its coin on A.

    The round reads its coins, one per bit at the layout's rates, with one
    ``below`` on the one-row stream.  An element plan answers a length-m
    bit tuple; a set plan answers one bit tuple per query, aligned with
    the query's sorted members.  ``sseq_respond`` and ``sssq_respond`` are
    this function.
    """
    if plan.m != A.universe_size:
        raise DimensionMismatch(f"plan universe {plan.m} != hidden universe {A.universe_size}")
    elements, rates = response_layout(plan, epsilon, n)
    members = set(A.members)
    coins = stream.below(len(rates), rates)[0].tolist()
    bits = iter([int(e + 1 in members and coin) for e, coin in zip(elements.tolist(), coins)])
    if isinstance(plan, ElementQueryPlan):
        return tuple(bits)
    return tuple(tuple(islice(bits, len(T))) for T in plan.queries)


sseq_respond = sssq_respond = respond


def set_plan_to_element_counts(plan: SetQueryPlan) -> ElementQueryPlan:
    """Per-element multiplicities across all set queries; cost is preserved."""
    counts = [0] * plan.m
    for T in plan.queries:
        for j in T.members:
            counts[j - 1] += 1
    return ElementQueryPlan.of(counts)


AnyPlan = Union[SetQueryPlan, ElementQueryPlan]


def _product_law(
    A: IndexSet, plan: AnyPlan, local: Callable[[bool, int], list[float]]
) -> list[float]:
    """The response law of a plan as a flat list, the product of per-element laws.

    The queried elements are taken in increasing order, each with its
    count r from ``set_plan_to_element_counts``.  ``local(member, r)`` is
    the element's law over its 2^s slot patterns: s = r slots for a set
    plan, one per query holding the element in query order, and s = 1 for
    an element plan, whose elements of count 0 take no slot.  Entry i of
    the result is the outcome whose slot bits, element after element and
    first slot most significant, spell i in binary.
    """
    element_plan = isinstance(plan, ElementQueryPlan)
    counts = plan.counts if element_plan else set_plan_to_element_counts(plan).counts
    width = sum(1 for c in counts if c > 0) if element_plan else sum(counts)
    if 1 << width > OUTCOME_SPACE_CAP:
        raise TooLarge(f"outcome space 2^{width} exceeds {OUTCOME_SPACE_CAP}")
    if A.universe_size != plan.m:
        raise DimensionMismatch(f"universe {A.universe_size} != plan universe {plan.m}")
    members = set(A.members)
    law = [1.0]
    for j, r in enumerate(counts, start=1):
        if r > 0:
            vec = local(j in members, r)
            law = [a * b for a in law for b in vec]
    return law


def _coin_patterns(r: int, theta: float) -> list[float]:
    """theta^k (1 - theta)^(r - k) for every r-slot pattern with k ones."""
    terms = [theta**k * (1.0 - theta) ** (r - k) for k in range(r + 1)]
    return [terms[i.bit_count()] for i in range(1 << r)]


def exact_response_distribution(
    A: IndexSet,
    plan: AnyPlan,
    epsilon: float,
    n: int,
) -> list[float]:
    """Exact law of the oracle response for a fixed hidden set.

    A flat list of probabilities summing to 1 (up to 1e-12), in
    ``_product_law``'s outcome order.  A member answers each of its slots
    with a rate-theta coin; any other element answers 0.
    """
    theta = coin_rate(epsilon, n)

    def local(member: bool, r: int) -> list[float]:
        if isinstance(plan, ElementQueryPlan):
            lam = hit_prob(r, epsilon, n) if member else 0.0
            return [1.0 - lam, lam]
        if member:
            return _coin_patterns(r, theta)
        return [1.0] + [0.0] * ((1 << r) - 1)

    return _product_law(A, plan, local)


def lifted_response_distribution(
    A: IndexSet,
    plan: SetQueryPlan,
    epsilon: float,
    n: int,
) -> list[float]:
    """Exact law of the lifted element-query oracle round, in ``_product_law``'s order.

    The element-query oracle answers one bit per element, 1 for a member
    with probability lambda = hit_prob(r); the lift keeps a 0 as r zero
    slots and turns a 1 into r rate-theta coins conditioned on not all
    being zero.  The one-branch is skipped when lambda = 0, where the
    conditioning mass is 0 too.
    """
    if not isinstance(plan, SetQueryPlan):
        raise InvalidInput("the lifted law is defined for set-query plans")
    theta = coin_rate(epsilon, n)

    def local(member: bool, r: int) -> list[float]:
        lam = hit_prob(r, epsilon, n) if member else 0.0
        vec = [1.0 - lam] + [0.0] * ((1 << r) - 1)
        if lam > 0.0:
            norm = -math.expm1(r * math.log1p(-theta)) if theta < 1.0 else 1.0
            patterns = _coin_patterns(r, theta)
            vec[1:] = [lam * (p / norm) for p in patterns[1:]]
        return vec

    return _product_law(A, plan, local)


def lift_equivalence_gap(A: IndexSet, plan: SetQueryPlan, epsilon: float, n: int) -> float:
    """TV distance between the direct set-query law and the lifted element-query law.

    The two are equal in distribution, so this should vanish up to float
    rounding for every hidden set.
    """
    direct = exact_response_distribution(A, plan, epsilon, n)
    lifted = lifted_response_distribution(A, plan, epsilon, n)
    return tv_distance(direct, lifted)


def far_pair_codes(X: StringQueryPlan, tau: int) -> tuple[int, ...]:
    """XOR codes of the query pairs of X at Hamming distance >= tau.

    A pair has equal projections on an addressing set M exactly when its
    code is zero on M's coordinates, so these codes are all that
    ``separates`` needs to test any M against X.
    """
    if tau < 1:
        raise InvalidInput(f"tau must be positive, got {tau}")
    codes = [x.code for x in X.queries]
    return tuple(
        a ^ b
        for i, a in enumerate(codes)
        for b in codes[i + 1:]
        if (a ^ b).bit_count() >= tau
    )


def separates(M: IndexSet, codes: Sequence[int]) -> bool:
    """True iff no code in ``codes`` is zero on M's coordinates.

    Codes are n-bit with coordinate 1 in the most significant bit, as in
    ``BitString``, where n is M's universe size.
    """
    if not M.members:
        raise InvalidInput("the addressing set must be non-empty")
    n = M.universe_size
    mask = 0
    for i in M.members:
        mask |= 1 << (n - i)
    return all(code & mask for code in codes)


def is_separating(M: IndexSet, X: StringQueryPlan, tau: int) -> bool:
    """True iff every query pair at Hamming distance >= tau splits on M.

    That is ``separates(M, far_pair_codes(X, tau))``; a caller testing many
    M against one X lists the far-pair codes once.
    """
    codes = far_pair_codes(X, tau)
    if M.universe_size != X.n:
        raise DimensionMismatch(
            f"universe {M.universe_size} does not match string length {X.n}"
        )
    return separates(M, codes)


@dataclass(frozen=True)
class ReductionPlan:
    """A string plan regrouped into set queries over the non-addressing coordinates.

    Labels 1..m of the set-query universe correspond, in sorted order, to
    the coordinates outside M (``label_coords[label - 1]`` is the original
    coordinate).  String query ``idx`` falls in class ``class_of[idx]``: the
    queries with one projection on M form a class, numbered by the first
    query to show it, and class c's set query is ``set_plan.queries[c]``.
    """

    label_coords: tuple[int, ...]
    class_of: tuple[int, ...]
    set_plan: SetQueryPlan


def build_set_queries(X: StringQueryPlan, M: IndexSet, tau: int) -> ReductionPlan:
    """Group queries by their projection on M and collect differing coordinates.

    Raises BadM when some far pair shares a projection.  With a separating
    M the total set-query cost is at most tau times the number of string
    queries.
    """
    if M.universe_size != X.n:
        raise DimensionMismatch(f"M universe {M.universe_size} != query length {X.n}")
    if not is_separating(M, X, tau):
        raise BadM("some query pair at distance >= tau has equal projections on M")

    label_coords = M.complement().members
    m = len(label_coords)
    if m == 0:
        raise InvalidInput("M leaves no coordinates for set queries")

    # Per class, its first query's code and the coordinates where any of
    # its queries differs from that one.
    class_index: dict[int, int] = {}
    bases: list[int] = []
    diff_masks: list[int] = []
    class_of = []
    codes = [x.code for x in X.queries]
    for code, addr in zip(codes, _addresses(X.n, [M.members], codes)[0].tolist()):
        if addr not in class_index:
            class_index[addr] = len(bases)
            bases.append(code)
            diff_masks.append(0)
        c = class_index[addr]
        diff_masks[c] |= bases[c] ^ code
        class_of.append(c)

    n = X.n
    set_plan = SetQueryPlan(m, tuple(
        IndexSet.of(m, [
            label for label, coord in enumerate(label_coords, start=1)
            if (diff_mask >> (n - coord)) & 1
        ])
        for diff_mask in diff_masks
    ))

    if set_plan.cost > tau * X.q:
        raise InconsistentInput(
            f"cost {set_plan.cost} exceeds tau * q = {tau * X.q} despite a separating M"
        )
    return ReductionPlan(
        label_coords=tuple(label_coords),
        class_of=tuple(class_of),
        set_plan=set_plan,
    )


def simulate_distinguisher(
    X: StringQueryPlan,
    M: IndexSet,
    params: Params,
    oracle: Callable[[SetQueryPlan], SssqResponse],
    stream: RandomStream,
) -> str:
    """Play the string-query decider against a set-query oracle.

    One call of ``oracle`` answers one set plan, as
    ``functools.partial(respond, A, epsilon=..., n=..., stream=...)`` does
    for a hidden set A.  The reduction calls it once, with the reduced
    set plan: that call is the oracle's one round.  A class's live
    coordinates are those whose slots answered 1, and a query's key is its
    class and its bits there.  The decider gets one fair coin per distinct
    key, read with one ``below`` on the one-row ``stream`` in order of first
    use, and equal keys share it: one independent uniform random function
    per class, applied to each query's restriction to the live coordinates.
    Plans larger than (n/epsilon)^2 queries get a warning: nothing breaks
    mechanically, but the separation guarantees behind the reduction
    assume fewer queries.
    """
    if X.q > (params.n / params.epsilon) ** 2:
        warnings.warn(
            f"string plan has {X.q} queries, beyond (n/epsilon)^2; "
            "the reduction still runs but its cost guarantees weaken",
            stacklevel=2,
        )
    plan = build_set_queries(X, M, params.tau)
    response = oracle(plan.set_plan)
    live = [[plan.label_coords[label - 1] for label, bit in zip(T.members, row) if bit]
            for T, row in zip(plan.set_plan.queries, response)]
    keys = [(c, *(x.bit(i) for i in live[c])) for c, x in zip(plan.class_of, X.queries)]
    distinct = list(dict.fromkeys(keys))
    coin = dict(zip(distinct, stream.below(len(distinct), 0.5)[0].tolist()))
    return X.decider(tuple(int(coin[key]) for key in keys))


def exact_optimal_advantage(plan: AnyPlan, params: Params) -> float:
    """Best achievable advantage of any decider for this plan.

    That is the total variation distance between the response laws under
    the yes-side and no-side inclusion rates, which a likelihood-threshold
    decider attains.  A set plan has the advantage of its per-element
    counts: on a hit the likelihood ratio is p/q whatever the coin pattern.
    Elements with the same count c are exchangeable, so the number of hits
    among them, Bin(mult_c, inclusion * hit_prob(c)), is a sufficient
    statistic, and the advantage is the TV distance of the product of those
    binomials (support prod(mult_c + 1), capped at JOINT_SUPPORT_CAP).
    """
    if isinstance(plan, SetQueryPlan):
        plan = set_plan_to_element_counts(plan)
    multiplicity = Counter(c for c in plan.counts if c > 0)
    if not multiplicity:
        return 0.0
    pairs = []
    for c, mult in sorted(multiplicity.items()):
        lam = hit_prob(c, params.epsilon, params.n)
        pairs.append((BinomialSpec(mult, params.p * lam), BinomialSpec(mult, params.q * lam)))
    return product_dtv(pairs)


def _slots_by_element(plan: AnyPlan, epsilon: float, n: int) -> list[tuple[np.ndarray, float]]:
    """``response_layout``'s columns grouped by element, in increasing order, with its coin rate.

    Every element of an element plan has one column, at ``hit_prob`` of
    its count; every queried element of a set plan has one column per
    query holding it, each at theta.  One stable sort of the elements
    lines each element's columns up in increasing order, and a split where
    the sorted element changes makes the groups, in one pass however many
    elements there are.
    """
    elements, rates = response_layout(plan, epsilon, n)
    order = np.argsort(elements, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(elements[order])) + 1) if len(order) else []
    return [(cols, float(rates[cols[0]])) for cols in groups]


def _log_likelihood_rows(
    groups: list[tuple[np.ndarray, float]], inclusion: float, epsilon: float, n: int
) -> list[tuple[float, ...]]:
    """Per-element log-likelihood terms of a response under an inclusion rate.

    ``groups`` is ``_slots_by_element`` of the plan, and there is one row
    per group.  Entry k of an element's row is its term when k of its r
    slots, each a coin of rate rho, answered 1: log(1 - inclusion * h) for
    k = 0, where h is rho for one slot and ``hit_prob(r)`` otherwise, and
    log(inclusion * rho^k * (1 - rho)^(r - k)) for k = 1..r.  A term of
    zero mass is -inf.
    """

    def log_mass(mass: float) -> float:
        return math.log(mass) if mass > 0.0 else -math.inf

    rows = []
    for cols, rate in groups:
        r = len(cols)
        hit = inclusion * (rate if r == 1 else hit_prob(r, epsilon, n))
        row = [math.log1p(-hit) if hit < 1.0 else -math.inf]
        row += [log_mass(inclusion * rate**k * (1.0 - rate) ** (r - k)) for k in range(1, r + 1)]
        rows.append(tuple(row))
    return rows


def batch_bayes_decider(plan: AnyPlan, params: Params) -> Callable[[np.ndarray], np.ndarray]:
    """The likelihood-threshold decider between the two inclusion rates, over a batch.

    The returned function takes a boolean array whose rows are responses
    flattened as in ``response_layout`` and returns a boolean array, True
    where the decider answers yes: where the response's log-likelihood
    under p is at least its log-likelihood under q.  Each element's count
    of ones in its ``_slots_by_element`` columns picks its term from the
    ``_log_likelihood_rows`` tables, and the terms are added in element
    order, one array add per element starting from 0.0, so a row's answer
    does not depend on the rest of its batch.  Ties, two -inf sums
    included, answer yes.  The tables are built once, when the decider is
    made.
    """
    groups = _slots_by_element(plan, params.epsilon, params.n)
    tables = [
        [np.array(row) for row in _log_likelihood_rows(groups, inclusion, params.epsilon, params.n)]
        for inclusion in (params.p, params.q)
    ]

    def decide(bits: np.ndarray) -> np.ndarray:
        ll_yes, ll_no = np.zeros(len(bits)), np.zeros(len(bits))
        for row_yes, row_no, (cols, _) in zip(*tables, groups):
            ones = np.count_nonzero(bits[:, cols], axis=1)
            ll_yes += row_yes[ones]
            ll_no += row_no[ones]
        return ll_yes >= ll_no

    return decide


def bayes_decide(
    response: Union[SssqResponse, SseqResponse],
    plan: AnyPlan,
    params: Params,
    decide: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> str:
    """The likelihood-threshold decider on one response: a one-row ``batch_bayes_decider``.

    The response flattens as in ``response_layout`` and must have its
    width: m bits for an element plan, ``plan.cost`` for a set plan.  A
    caller deciding many responses of one plan passes ``decide``, that
    plan's ``batch_bayes_decider(plan, params)``, so the tables are built
    once.
    """
    width = plan.m
    if isinstance(plan, SetQueryPlan):
        response = [bit for row in response for bit in row]
        width = plan.cost
    if len(response) != width:
        raise DimensionMismatch(f"response has {len(response)} bits, plan {width} slots")
    bits = np.array(response, dtype=bool).reshape(1, width)
    if decide is None:
        decide = batch_bayes_decider(plan, params)
    return YES if decide(bits)[0] else NO
