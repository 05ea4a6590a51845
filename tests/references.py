"""Slow references that define what the fast paths compute.

This is the one home of the references: the tests compare the library
against them, and ``scripts/bench.py`` times the library against them and
defines none of its own.  A reference either writes a quantity down by
its definition (``first_minimum_over_subsets``, ``pmf``, ``per_term_dtv``,
``reference_is_separating``, the scalar structured instance) or is a fast path
as it was before a change replaced it (``generator_walk``,
``fiberwise_table``, ``count_adds``, ...), so a speedup is always timed
against the form it replaced.

``pmf`` and ``log_pmf`` are the binomial masses one entry at a time, in
the two regimes of ``binom_stats.pmf_vector``; every entry of a mass
vector must equal ``pmf`` exactly.  ``bound_sweep_cells`` is
``dtv_sweep``'s bound sweep cell by cell, every distance exact from the
rounded rows of ``pascal_rows``, as the sweep ran before
``binom_stats.shift_bound_sweep`` certified it.

``reference_digest`` builds one fresh keyed ``hashlib.blake2b`` per
digest and shares no code with ``junta_lab.rng``; its layout (seed key,
role personalization, payload) defines ``rng.derive_u64`` and the trial
seeds of ``Seed.mix``, whose payload is ``general_encoding`` of the
trial index.

``hamming`` is the Hamming distance and ``address_index`` the
addressing map x -> x|_M, one bit of x at a time; ``boolfn._addresses``,
the one gather every address in the package comes from, must agree with
it, chunk for chunk (``reference_chunks``).

``reference_fiber``, ``reference_value`` and ``reference_eval`` define a
structured instance on Python ints, every word afresh from
``reference_key`` and ``reference_word``: the fiber at address a has
the keys fold(K, a, t) (``reference_fold``) of the seed's
"S-membership" and "h-value" keys, member i of A joins its S when word i
of the S key is a coin at epsilon/sqrt(n), and f(x) is the fair coin of
fold(h key, x's bits on S, max(|S|, 1)).  ``fiberwise_table`` and
``fiberwise_eval_many`` are ``to_table`` and ``StructuredFn.eval_many``
one fiber and one query at a time on that reference, as they ran before
the array kernels.

``per_query_sssq_respond`` and ``per_element_sseq_respond`` are the two
oracle rounds as they were written before ``tasks.respond`` read every
round's coins with one ``below`` from ``tasks.response_layout``: one
``below`` per set query, and one per-element read of ``hit_prob`` rates.
``coin_law`` is the exact law of a one-row sampler such as ``respond``:
it runs the sampler on a ``CoinTape`` once per coin pattern and weighs
each pattern by the stream's own coin probabilities.  ``row_coin_law``
is the same law for a block reader such as the hidden-set game, whose
rows are then every pattern at once (``CoinRows``).  ``per_element_slots``
is ``tasks._slots_by_element`` as it grouped the layout before one
stable sort did, one pass per element.

``dict_response_law`` and ``dict_lifted_law`` are the exact response laws
as dicts keyed by response tuples, built outcome by outcome; the flat
laws of ``tasks`` must equal them entry for entry.  ``lift_response`` is
the lifting as a sampler, whose law ``dict_lifted_law`` writes down.

``reference_stream`` defines the random streams: the words of the
stream of (seed, role), one Python int at a time, SplitMix64's output
sequence from the key mix64(seed ^ blake2b(role)).  It shares no code
with ``junta_lab.rng``.  ``reference_double`` and ``reference_random_at``
are the doubles (word >> 11) * 2^-53 of those words, against which a
stream coin at rate r is the double comparison u < r, and
``reference_bounded`` is ``RandomStream.bounded``'s draw.  ``ScalarStream``
is a one-row ``RandomStream`` built on them for the one-trial ``tasks``
functions, and ``reference_string_plan`` is ``harness.random_string_plan``
word by word.  ``unmix64`` inverts the finalizer, so ``stream_with_words``
builds a stream that reads chosen words.

``instance_verify_yes`` and ``instance_verify_no`` are ``verify_yes`` and
``verify_no`` as one loop over instances, each built by ``sample_block``,
tabulated by ``to_table`` and checked by ``relevant_variables`` or
``dist_to_k_junta``: the loop the block tables replaced.

``per_trial_string_game`` is ``harness.run_game`` as one loop over the
trials, each instance sampled from its own seed, and ``instance_answers``
a block answerer that builds and evaluates each trial's instance; the budget-game
references play ``budget_game`` through it, on ``reference_string_plan``,
each no-side trial on its own stream, drawing its whole D1 table or
reading it at the queries (``sample_d1_at`` over
``reference_random_at``).

One reference patches a module attribute for the length of one call
(``count_adds``) and restores it on the way out.
"""

import hashlib
import io
import math
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import numpy as np

from junta_lab import boolfn, cli, hardgen, harness, junta_distance, tasks
from junta_lab.boolfn import (
    TABLE_CAP,
    YES_STYLE,
    BitString,
    IndexSet,
    StructuredFn,
    TruthTable,
)
from junta_lab.binom_stats import (
    _DIRECT_CAP,
    hit_prob,
    masses,
    rate_powers,
    tv_distance,
    tv_shift_bound,
)
from junta_lab.errors import (
    DimensionMismatch,
    InconsistentInput,
    IndexOutOfRange,
    InvalidInput,
    TooLarge,
)
from junta_lab.hardgen import sample_d1
from junta_lab.junta_distance import dist_to_k_junta, max_disjoint_bichromatic_matching
from junta_lab.params import coin_rate
from junta_lab.rng import RandomStream, Seed, word_limit
from junta_lab.tasks import ElementQueryPlan


def hamming(x: BitString, y: BitString) -> int:
    if x.length != y.length:
        raise DimensionMismatch(f"lengths differ: {x.length} vs {y.length}")
    return (x.code ^ y.code).bit_count()


def address_index(M: IndexSet, x: BitString) -> int:
    """The integer in [1, 2^|M|] encoded by x's projection on M, plus one.

    The smallest member of M contributes the most significant bit.
    """
    if M.universe_size != x.length:
        raise DimensionMismatch(
            f"universe {M.universe_size} does not match string length {x.length}"
        )
    if not M.members:
        raise InvalidInput("the addressing set must be non-empty")
    value = 0
    for i in M.members:
        value = (value << 1) | x.bit(i)
    return value + 1


def per_point_table(f) -> TruthTable:
    """The truth table of ``f``, one ``f.eval`` per point."""
    n = f.n
    return TruthTable(n, np.array([f.eval(BitString(n, c)) for c in range(1 << n)]))


def fiberwise_table(f) -> TruthTable:
    """``to_table`` one fiber at a time through the (2,)*n cube, from the scalar reference.

    Each fiber's S and its 2^|S| values come from ``reference_fiber`` and
    ``reference_value``; the fiber indexes the cube with an n-long tuple
    (an address bit on the axes of M, a full slice elsewhere) and reshapes
    its values with one axis per free coordinate.
    """
    n, t = f.n, len(f.M)
    if n > TABLE_CAP:
        raise TooLarge(f"n = {n} exceeds the truth-table cap {TABLE_CAP}")
    out = np.empty(1 << n, dtype=np.uint8)
    cube = out.reshape((2,) * n)
    free = [i for i in range(1, n + 1) if i not in f.M]
    for code in range(1 << t):
        coords, key = reference_fiber(f, code + 1)
        values = np.array([reference_value(key, y, len(coords)) for y in range(1 << len(coords))],
                          dtype=np.uint8)
        address_bits = dict(zip(f.M.members, ((code >> (t - 1 - j)) & 1 for j in range(t))))
        fiber = tuple(address_bits.get(i, slice(None)) for i in range(1, n + 1))
        cube[fiber] = values.reshape([2 if i in coords else 1 for i in free])
    return TruthTable(n, out)


def fiberwise_eval_many(f, xs) -> tuple[int, ...]:
    """``f.eval_many(xs)`` one query at a time, each fiber derived at its first query."""
    n = f.n
    address_shifts = [n - i for i in f.M.members]
    fibers = {}
    out = []
    for x in xs:
        if x.length != n:
            raise DimensionMismatch(f"universe {n} does not match string length {x.length}")
        code = x.code
        address = 0
        for shift in address_shifts:
            address = (address << 1) | ((code >> shift) & 1)
        address += 1
        if address not in fibers:
            fibers[address] = reference_fiber(f, address)
        coords, key = fibers[address]
        y = 0
        for a in coords:
            y = y << 1 | (code >> (n - a)) & 1
        out.append(reference_value(key, y, len(coords)))
    return tuple(out)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): its Weyl increment and
# finalizer, on Python ints.
GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64's finalizer of a 64-bit word."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def reference_key(seed, role: str) -> int:
    """mix64(seed ^ the big-endian 8-byte blake2b of the role's UTF-8 bytes)."""
    role_hash = hashlib.blake2b(role.encode("utf-8"), digest_size=8)
    return mix64(seed.value ^ int.from_bytes(role_hash.digest(), "big"))


def reference_word(key: int, position: int) -> int:
    """Output ``position`` of the stream with this key: mix64(key + (position + 1) * GAMMA)."""
    return mix64((key + (position + 1) * GAMMA) & MASK64)


def reference_stream(seed, role: str):
    """The 64-bit words of the stream of (seed, role), in order, one Python int each.

    SplitMix64 started from the key: the state adds GAMMA and the output
    is mix64 of the state, so the stream with key 0 is SplitMix64 from 0.
    """
    state = reference_key(seed, role)
    while True:
        state = (state + GAMMA) & MASK64
        yield mix64(state)


def reference_double(words) -> float:
    """The next word's top 53 bits times 2^-53."""
    return (next(words) >> 11) * 2.0**-53


def reference_bounded(words, r: int) -> int:
    """A uniform integer in [0, r) by Lemire's method on the next words' low 32 bits.

    The low 32 bits times r split into a high half, the draw, and a low
    half; the word is rejected, and the next one read, when the low half
    is below 2^32 mod r.
    """
    while True:
        scaled = (next(words) & 0xFFFFFFFF) * r
        if scaled & 0xFFFFFFFF >= (1 << 32) % r:
            return scaled >> 32


def reference_random_at(seed, role: str, positions) -> list[float]:
    """The doubles at the given positions of the stream of (seed, role), each read directly."""
    key = reference_key(seed, role)
    return [(reference_word(key, pos) >> 11) * 2.0**-53 for pos in positions]


class ScalarStream:
    """A one-row stream of (seed, role) whose coins are double comparisons, one word at a time.

    ``random`` reads the next doubles; ``below`` reads the next coins, coin
    j firing when its double is below its rate (one rate, or one per
    position), as ``RandomStream([seed], role).below`` must.  The one-trial
    ``tasks`` functions take it as their stream.
    """

    def __init__(self, seed, role: str):
        self.words = reference_stream(seed, role)

    def random(self, count: int) -> np.ndarray:
        return np.array([[reference_double(self.words) for _ in range(count)]])

    def below(self, count: int, rate) -> np.ndarray:
        rates = np.broadcast_to(rate, (count,)).tolist()
        return np.array([[reference_double(self.words) < r for r in rates]], dtype=bool)


def _unshift(z: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == z."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def unmix64(z: int) -> int:
    """The word whose ``mix64`` is z: each multiply and xorshift undone in reverse order."""
    z = _unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = _unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return _unshift(z, 30)


def stream_with_words(words, position: int = 0) -> RandomStream:
    """A ``RandomStream`` whose row i reads ``words[i]`` at ``position``.

    Each row's cursor is set so that mix64(cursor + (position + 1) * GAMMA)
    is the row's word.
    """
    stream = RandomStream([Seed(0)] * len(words), "chosen-words")
    stream._state = np.array([(unmix64(w) - (position + 1) * GAMMA) & MASK64 for w in words],
                             dtype=np.uint64)
    return stream


def reference_string_plan(n: int, q: int, seed, role: str, decider) -> tasks.StringQueryPlan:
    """``harness.random_string_plan``: each query the top n bits of ceil(n / 64) words."""
    words = reference_stream(seed, role)
    per_query = -(-n // 64)
    codes = []
    for _ in range(q):
        value = 0
        for _ in range(per_query):
            value = value << 64 | next(words)
        codes.append(value >> (64 * per_query - n))
    return tasks.StringQueryPlan(tuple(BitString(n, v) for v in codes), decider)


def complement_sample(params, kind: str, seed, M: IndexSet | None = None) -> StructuredFn:
    """The instance ``sample_block(params, kind, [seed])`` draws, one seed on its own streams.

    This defines D_yes (kind ``YES_STYLE``, inclusion rate p) and D_no
    (``NO_STYLE``, rate q).  M is the first t places of a partial
    Fisher-Yates shuffle of 1..n, one bounded draw of the stream
    ``(seed, "M")`` per place; A takes each coordinate of
    ``M.complement()``, in increasing order, when its coin on the stream
    ``(seed, "A")`` falls below the rate.  Both go through ``IndexSet.of``,
    and both streams are ``reference_stream``.  A given ``M`` is held
    fixed and the ``"M"`` stream is not read: the instance conditioned on
    its addressing set.
    """
    n, t = params.n, params.t
    if M is None:
        words = reference_stream(seed, "M")
        arr = list(range(1, n + 1))
        for pos in range(t):
            j = pos + reference_bounded(words, n - pos)
            arr[pos], arr[j] = arr[j], arr[pos]
        M = IndexSet.of(n, arr[:t])
    rest = M.complement().members
    inclusion = params.p if kind == YES_STYLE else params.q
    words = reference_stream(seed, "A")
    A = IndexSet.of(n, [c for c in rest if reference_double(words) < inclusion])
    return StructuredFn(params=params, M=M, A=A, seed=seed, kind=kind)


def per_direction_edge_counts(f: TruthTable) -> tuple[int, ...]:
    """Bichromatic edges per direction i: the table's two halves along i, compared entry by entry."""
    counts = []
    for i in range(f.n):
        halves = f.table.reshape(1 << i, 2, -1)
        counts.append(int(np.count_nonzero(halves[:, 0] != halves[:, 1])))
    return tuple(counts)


def hopcroft_karp_per_direction(f: TruthTable) -> tuple[int, ...]:
    return tuple(max_disjoint_bichromatic_matching(f, [i]).size for i in range(1, f.n + 1))


def first_minimum_over_subsets(f: TruthTable, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """The per-subset definition: the lexicographically first size-k J of least distance.

    For each J in ``combinations`` order it reads every code's projection
    onto J as a fiber id, counts the ones per fiber with ``bincount``, and
    takes the minority count of each fiber as its disagreements; the walk
    stops at distance 0.  This is how ``dist_to_k_junta`` found distance
    and witness before the lattice walk.
    """
    n = f.n
    best, witness = None, ()
    for J in combinations(range(1, n + 1), k):
        codes = np.arange(1 << n, dtype=np.int64)
        fibers = np.zeros(1 << n, dtype=np.int64)
        for pos, j in enumerate(J):
            fibers |= ((codes >> (n - j)) & 1) << (k - 1 - pos)
        ones = np.bincount(fibers, weights=f.table, minlength=1 << k).astype(np.int64)
        d = Fraction(int(np.minimum(ones, (1 << (n - k)) - ones).sum()), 1 << n)
        if best is None or d < best:
            best, witness = d, J
            if best == 0:
                break
    return best, witness


def distance_and_witness(f: TruthTable, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """``dist_to_k_junta``'s answer in the form the distance references return."""
    report = dist_to_k_junta(f, k)
    return report.distance, report.witness.members


def generator_walk(f: TruthTable, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """Distance and witness as ``dist_to_k_junta`` found them before the blocked kernel.

    A generator walks the subset lattice depth first over coordinates
    1..n, keeping each coordinate before dropping it, so it yields every
    size-k J in ``combinations`` order with its fiber counts; a child's
    counts are its parent's summed over one axis.  The first J of least
    distance wins, and the walk stops at the first exact k-junta.
    """
    n = f.n
    dtype = np.min_scalar_type(1 << (n - k))

    def walk(counts, kept, i):
        # counts has one axis per kept coordinate, then one per coordinate i..n
        if n - i + 1 == k - len(kept):
            yield kept + tuple(range(i, n + 1)), counts
        elif len(kept) == k:
            yield kept, counts.reshape(1 << k, -1).sum(axis=1, dtype=dtype)
        else:
            yield from walk(counts, kept + (i,), i + 1)
            halves = counts.reshape(1 << len(kept), 2, -1)
            yield from walk(halves[:, 0] + halves[:, 1], kept, i + 1)

    fiber_size = 1 << (n - k)
    best, witness = None, ()
    for J, ones in walk(f.table.astype(dtype, copy=False), (), 1):
        d = int(np.minimum(ones, fiber_size - ones).sum())
        if best is None or d < best:
            best, witness = d, J
            if best == 0:
                break
    return Fraction(best, 1 << n), witness


def least_key_walk(f: TruthTable) -> tuple[Fraction, tuple[int, ...]]:
    """Distance and witness at k = n - 1 from ``_least_key``, the blocked walk over every size-k set."""
    n = f.n
    key = junta_distance._least_key(f, n - 1)
    return Fraction(key >> n, 1 << n), tuple(i for i in range(1, n + 1) if not key >> (n - i) & 1)


def set_checked_deserialize(text: str) -> TruthTable:
    """``TruthTable.deserialize`` with its table line checked as a set of characters."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("n="):
        raise InvalidInput("expected 'n=<int>' then a 0/1 line")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise InvalidInput(f"malformed dimension line {lines[0]!r}") from exc
    if n < 1 or n > TABLE_CAP:
        raise TooLarge(f"n = {n} outside [1, {TABLE_CAP}]")
    bits = lines[1]
    if len(bits) != 1 << n or set(bits) - {"0", "1"}:
        raise InvalidInput("table line must be exactly 2^n characters of 0/1")
    return TruthTable(n, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0"))


def log_pmf(spec, k: int) -> float:
    """log P[Bin(c, r) = k] from the exact coefficient's log; -inf off a degenerate rate's point."""
    if not 0 <= k <= spec.c:
        raise IndexOutOfRange(f"k = {k} outside [0, {spec.c}]")
    c, r = spec.c, spec.r
    if r == 0.0:
        return 0.0 if k == 0 else -math.inf
    if r == 1.0:
        return 0.0 if k == c else -math.inf
    return math.log(math.comb(c, k)) + k * math.log(r) + (c - k) * math.log1p(-r)


def _pmf_direct(c: int, r: float, k: int) -> float:
    return float(math.comb(c, k)) * r**k * (1.0 - r) ** (c - k)


def pmf(spec, k: int) -> float:
    """P[Bin(c, r) = k] one entry at a time: directly up to c = 1000, through ``log_pmf`` above."""
    if not 0 <= k <= spec.c:
        raise IndexOutOfRange(f"k = {k} outside [0, {spec.c}]")
    c, r = spec.c, spec.r
    if r == 0.0:
        return 1.0 if k == 0 else 0.0
    if r == 1.0:
        return 1.0 if k == c else 0.0
    if c <= _DIRECT_CAP:
        return _pmf_direct(c, r, k)
    return math.exp(log_pmf(spec, k))


def per_term_dtv(a, b) -> float:
    """exact_dtv for c <= 1000 by its definition: half the fsum of one scalar gap per k."""
    c = a.c
    ra, sa, rb, sb = a.r, 1.0 - a.r, b.r, 1.0 - b.r
    gaps = []
    for k in range(c + 1):
        whole = float(math.comb(c, k))
        gaps.append(abs(whole * ra**k * sa ** (c - k) - whole * rb**k * sb ** (c - k)))
    return 0.5 * math.fsum(gaps)


def pascal_rows(top: int):
    """Yield ``(c, float(C(c, 0..c)))`` for c = 0..top, one row at a time.

    Each row comes from the previous one by exact integer additions and
    is rounded to float64 once; only the current row is held.
    """
    row = [1]
    for c in range(top + 1):
        yield c, np.array([float(v) for v in row])
        row = [1, *[x + y for x, y in zip(row, row[1:])], 1]


def bound_sweep_cells(params):
    """Each applicable cell of ``dtv_sweep``'s bound sweep as (c, r, r', bound, exact), exactly.

    The per-cell oracle of ``binom_stats.shift_bound_sweep``: c walks the
    Pascal rows 1..``_BOUND_SWEEP_TOP`` in the outer loop and the hit rate
    lam ``_BOUND_SWEEP_RATES`` in the inner one; r = p * lam and r' =
    min(r + (q - p) * lam, 1).  A cell applies when 0 < r < 1 and
    ``tv_shift_bound`` gives a bound.  Each grid rate's power tables are
    computed once, and a cell's exact distance is ``tv_distance`` of the
    two ``masses`` rows, the same floats as ``exact_dtv`` of Bin(c, r) and
    Bin(c, r').
    """
    p, q = params.p, params.q
    top = harness._BOUND_SWEEP_TOP
    powers = {}
    rows = pascal_rows(top)
    next(rows)  # c = 0 is not swept
    for c, whole in rows:
        for lam in harness._BOUND_SWEEP_RATES:
            r = p * lam
            x = (q - p) * lam
            if not 0.0 < r < 1.0:
                continue
            bound = tv_shift_bound(x, c, r)
            if bound is None:
                continue
            shifted = min(r + x, 1.0)
            if lam not in powers:
                powers[lam] = (rate_powers(r, top), rate_powers(shifted, top))
            powers_r, powers_shifted = powers[lam]
            exact = tv_distance(masses(whole, powers_r), masses(whole, powers_shifted))
            yield c, r, shifted, bound, exact


def reference_is_separating(M, X, tau: int) -> bool:
    """No two queries at Hamming distance >= tau share an address, checked pair by pair."""
    queries = X.queries
    addresses = [address_index(M, x) for x in queries]
    return not any(
        hamming(queries[i], queries[j]) >= tau and addresses[i] == addresses[j]
        for i in range(len(queries))
        for j in range(i + 1, len(queries))
    )


def per_query_sssq_respond(A, plan, epsilon: float, n: int, stream):
    """A set-query oracle round, one ``below`` per query at theta.

    Each queried element answers 0 off A and its rate-theta coin on A.
    This is ``tasks.sssq_respond`` as it was before ``tasks.respond`` read
    a round's coins with one ``below``.
    """
    if plan.m != A.universe_size:
        raise DimensionMismatch(f"plan universe {plan.m} != hidden universe {A.universe_size}")
    theta = coin_rate(epsilon, n)
    members = set(A.members)
    return tuple(tuple(int(j in members and coin)
                       for j, coin in zip(T.members, stream.below(len(T), theta)[0]))
                 for T in plan.queries)


def per_element_sseq_respond(A, plan, epsilon: float, n: int, stream):
    """An element-query oracle round: element i of A answers 1 at ``hit_prob`` of its count.

    Element i reads the i-th of the stream's next m coins.  This is
    ``tasks.sseq_respond`` as it was before ``tasks.respond`` replaced it.
    """
    if plan.m != A.universe_size:
        raise DimensionMismatch(f"plan length {plan.m} != hidden universe {A.universe_size}")
    members = set(A.members)
    coins = stream.below(plan.m, [hit_prob(c, epsilon, n) for c in plan.counts])[0]
    return tuple(int(i in members and coin) for i, coin in enumerate(coins, 1))


class CoinTape:
    """A one-row stream whose coins are a chosen pattern; it records the rate of each coin.

    ``below(count, rate)`` answers the pattern's next ``count`` bits, as a
    (1, count) array, appends one rate per coin to ``rates`` and counts
    itself in ``reads``.
    """

    def __init__(self, pattern):
        self.pattern, self.rates, self.reads = list(pattern), [], 0

    def below(self, count: int, rate) -> np.ndarray:
        self.reads += 1
        start = len(self.rates)
        self.rates += np.broadcast_to(np.asarray(rate, dtype=np.float64), (count,)).tolist()
        return np.array([self.pattern[start:start + count]], dtype=bool)


def coin_law(run, width: int) -> dict:
    """The exact law of ``run(stream)`` on a one-row stream: a dict of outcome probabilities.

    ``run`` is called once per pattern of ``width`` coins on a ``CoinTape``
    and must read exactly ``width`` coins.  A pattern weighs the product,
    over its coins, of l/2^53 for a 1 and 1 - l/2^53 for a 0, with l the
    ``word_limit`` of the coin's rate: a stream coin fires when a uniform
    word's top 53 bits are below l.  Outcomes of probability zero are
    omitted.
    """
    law: dict = {}
    for pattern in product((0, 1), repeat=width):
        tape = CoinTape(pattern)
        outcome = run(tape)
        if len(tape.rates) != width:
            raise InconsistentInput(f"the run read {len(tape.rates)} coins, not {width}")
        fire = (word_limit(tape.rates) / 2.0**53).tolist()
        weight = math.prod(f if bit else 1.0 - f for f, bit in zip(fire, pattern))
        if weight > 0.0:
            law[outcome] = law.get(outcome, 0.0) + weight
    return law


class CoinRows:
    """A block stream whose rows are every pattern of ``width`` coins; it records each coin's rate.

    Coin j of row r is bit ``width - 1 - j`` of r.  ``below(count, rate)``
    answers every row's next ``count`` coins, shape (2^width, count), and
    appends one rate per coin to ``rates``.
    """

    def __init__(self, width: int):
        self.patterns = ((np.arange(1 << width)[:, None] >> np.arange(width)[::-1]) & 1).astype(bool)
        self.rates = []

    def below(self, count: int, rate) -> np.ndarray:
        start = len(self.rates)
        self.rates += np.broadcast_to(np.asarray(rate, dtype=np.float64), (count,)).tolist()
        return self.patterns[:, start:start + count]


def row_coin_law(run, width: int) -> dict:
    """``coin_law`` with all 2^width patterns at once, as the rows of one ``CoinRows`` block.

    ``run`` reads exactly ``width`` coins from the block and returns one
    outcome per row.  A row weighs the product of its coins' l/2^53 or
    1 - l/2^53 (``coin_law``'s weights), and each outcome's mass is the
    ``math.fsum`` of its rows' weights, so the sum adds no rounding.
    """
    rows = CoinRows(width)
    outcomes = np.asarray(run(rows)).tolist()
    if len(rows.rates) != width:
        raise InconsistentInput(f"the run read {len(rows.rates)} coins, not {width}")
    fire = word_limit(rows.rates) / 2.0**53
    weights = np.where(rows.patterns, fire, 1.0 - fire).prod(axis=1).tolist()
    by_outcome: dict = {}
    for outcome, weight in zip(outcomes, weights):
        by_outcome.setdefault(outcome, []).append(weight)
    law = {outcome: math.fsum(ws) for outcome, ws in by_outcome.items()}
    return {outcome: mass for outcome, mass in law.items() if mass > 0.0}


def per_trial_game(plan, params, trials: int, seed: int, decide=None) -> float:
    """The hidden-set game's advantage, one trial at a time on each side's ``ScalarStream``.

    Each trial calls ``sample_hidden``, answers with ``tasks.respond`` on
    the side stream and decides the response with ``decide(response)``:
    by default ``tasks.bayes_decide`` given the plan's
    ``batch_bayes_decider``, built once.  This is the scalar loop whose
    draws and answers ``run_hidden_set_game`` reproduces in blocks.
    """
    mode = "sseq" if isinstance(plan, tasks.ElementQueryPlan) else "sssq"
    if decide is None:
        batch = tasks.batch_bayes_decider(plan, params)
        decide = partial(tasks.bayes_decide, plan=plan, params=params, decide=batch)
    rates = {}
    for side, inclusion, count in ((tasks.YES, params.p, trials // 2),
                                   (tasks.NO, params.q, trials - trials // 2)):
        stream, hits = ScalarStream(Seed(seed), f"game-{mode}/{side}"), 0
        for _ in range(count):
            A = tasks.sample_hidden(plan.m, inclusion, stream)
            hits += decide(tasks.respond(A, plan, params.epsilon, params.n, stream)) == tasks.YES
        rates[side] = hits / count
    return rates[tasks.YES] - rates[tasks.NO]


def instance_verify_yes(config, sample_block=hardgen.sample_block):
    """``verify_yes``'s report as the per-instance loop computed it before the block tables.

    Trial j's instance is ``sample_block``'s at ``Seed(config.seed).mix(j)``,
    in the blocks of ``harness._seed_blocks``; it is contained when
    ``relevant_variables(to_table(f))`` lies in M ∪ A, and a junta when
    |M| + |A| <= k.
    """
    params = config.params
    contained = junta = 0
    for seeds in harness._seed_blocks(config.seed, 0, config.trials):
        for f in sample_block(params, YES_STYLE, seeds):
            rel = boolfn.relevant_variables(boolfn.to_table(f))
            contained += set(rel.members) <= set(f.M.members) | set(f.A.members)
            junta += len(f.M) + len(f.A) <= params.k
    slack = params.k - params.t - params.p * params.m
    floor = 1.0 - math.exp(-2.0 * slack * slack / params.m) if slack > 0 else 0.0
    row = {"experiment": "verify_yes", "n": params.n, "k": params.k, "trials": config.trials,
           "containment_fraction": contained / config.trials,
           "junta_fraction": junta / config.trials, "junta_floor_hoeffding": floor}
    check = harness.CheckResult("relevant_variables_subset_of_pool", contained == config.trials,
                                f"{contained}/{config.trials} samples contained")
    return harness.ExperimentReport("verify_yes", rows=[row], checks=[check])


def instance_verify_no(config, sample_block=hardgen.sample_block):
    """``verify_no``'s report as the per-instance loop computed it before the block tables.

    The yes side's trial j is ``sample_block``'s yes-style instance at
    ``Seed(config.seed).mix(j)`` and the no side's its no-style instance
    at ``mix(trials + j)``; each is tabulated by ``to_table`` and measured
    by ``dist_to_k_junta``, and its pool size is |M| + |A|.
    """
    params, trials = config.params, config.trials

    def side(kind, offset):
        far, pools = 0, []
        for seeds in harness._seed_blocks(config.seed, offset, trials):
            for f in sample_block(params, kind, seeds):
                far += bool(dist_to_k_junta(boolfn.to_table(f), params.k, params.epsilon).far)
                pools.append(len(f.M) + len(f.A))
        return far, pools

    far_yes, pools_yes = side(YES_STYLE, 0)
    far_no, pools_no = side(boolfn.NO_STYLE, trials)
    gap = float(np.mean(pools_no) - np.mean(pools_yes))
    expected_gap = (params.q - params.p) * params.m
    sigma = math.sqrt(params.q * (1.0 - params.q) * params.m / trials
                      + params.p * (1.0 - params.p) * params.m / trials)
    big_pool_gap = params.delta * math.sqrt(params.n) * math.log2(params.n)
    row = {"experiment": "verify_no", "n": params.n, "k": params.k, "epsilon": params.epsilon,
           "trials_per_side": trials, "far_fraction_no": far_no / trials,
           "far_fraction_yes": far_yes / trials, "pool_gap": gap,
           "expected_pool_gap": expected_gap, "pool_gap_sigma": sigma,
           "oversize_pool_freq_no": float(np.mean([s >= params.k + big_pool_gap
                                                   for s in pools_no]))}
    checks = [
        harness.CheckResult("far_fraction_order", far_no >= far_yes,
                            f"far(no) = {far_no}/{trials}, far(yes) = {far_yes}/{trials}"),
        harness.CheckResult("pool_gap_within_3_sigma", abs(gap - expected_gap) <= 3.0 * sigma,
                            f"gap {gap:.6g} vs expected {expected_gap:.6g} (sigma {sigma:.6g})"),
    ]
    return harness.ExperimentReport("verify_no", rows=[row], checks=checks)


def instance_answers(params, kind: str, seeds, xs) -> np.ndarray:
    """``hardgen.sample_block_at`` as the strings game answered before it: one instance per seed.

    Each instance of ``sample_block`` is built and evaluated by its own
    ``eval_many``, then dropped.
    """
    rows = [f.eval_many(xs) for f in hardgen.sample_block(params, kind, seeds)]
    return np.array(rows, dtype=np.uint8).reshape(len(seeds), len(xs))


def per_trial_string_game(yes, no, plan, trials: int, seed: int):
    """``run_game``'s GameResult, one trial at a time: the loop the block game replaced.

    ``yes`` and ``no`` map one seed to one instance.  Trial ``i`` draws
    its instance from ``Seed(seed).mix(i)``, the first half of the trials
    (rounded down) on the yes side, and the decider reads the instance's
    answers at the plan's queries.
    """
    base = Seed(seed)
    samplers = {tasks.YES: yes, tasks.NO: no}

    def count_yes(side, first, count):
        return sum(plan.decider(samplers[side](base.mix(trial)).eval_many(plan.queries)) == tasks.YES
                   for trial in range(first, first + count))

    return harness._tally(trials, plan.q, count_yes)


def _per_trial_budget_game(config, d1) -> str:
    """``budget_game``'s CSV one trial at a time; ``d1(n, epsilon, seed)`` is a no-side instance."""
    params = config.params
    n, epsilon = params.n, params.epsilon
    budget = math.floor(1.0 / (30.0 * epsilon))
    plan = reference_string_plan(n, budget, Seed(config.seed), "budget-game-plan",
                                 harness.all_zero_yes)
    zero = TruthTable.constant(n, 0)
    result = per_trial_string_game(lambda seed: zero, lambda seed: d1(n, epsilon, seed),
                                   plan, config.trials, config.seed)
    row = {"experiment": "game", "n": n, "epsilon": epsilon, "budget": budget,
           **result.as_json_dict()}
    return harness.ExperimentReport("game", rows=[row]).csv_text()


def full_table_budget_game(config) -> str:
    """``budget_game``'s CSV, one trial at a time, each no-side trial drawing its whole D1 table."""
    return _per_trial_budget_game(
        config, lambda n, epsilon, seed: sample_d1(n, epsilon, RandomStream([seed], "d1")))


def sample_d1_at(n: int, epsilon: float, seed, role: str, codes) -> tuple[int, ...]:
    """``sample_d1(n, epsilon, RandomStream([seed], role)).table[codes]``, a word per distinct code.

    The one-stream point read that ``hardgen.sample_d1_block_at`` reads in blocks.
    """
    distinct = sorted(set(codes))
    doubles = reference_random_at(seed, role, distinct)
    bit = {code: int(u < 3.0 * epsilon) for code, u in zip(distinct, doubles)}
    return tuple(bit[code] for code in codes)


class D1Points:
    """One no-side trial's D1 table, read only at the points queried, through ``sample_d1_at``."""

    def __init__(self, n: int, epsilon: float, seed):
        self.n, self.epsilon, self.seed = n, epsilon, seed

    def eval_many(self, xs) -> tuple[int, ...]:
        return sample_d1_at(self.n, self.epsilon, self.seed, "d1", [x.code for x in xs])


def point_read_budget_game(config) -> str:
    """``budget_game``'s CSV, one trial at a time, each no-side trial reading D1 at the queries only."""
    return _per_trial_budget_game(config, D1Points)


def cli_calls(argv, calls: int, fresh_parser: bool) -> list[tuple[int, str]]:
    """(exit code, stdout) of ``calls`` in-process ``cli.main(argv)`` calls.

    With ``fresh_parser`` the parser is rebuilt for every call, as before
    one parser served the whole process.
    """
    out = []
    for _ in range(calls):
        if fresh_parser:
            cli.build_parser.cache_clear()
        text = io.StringIO()
        with redirect_stdout(text):
            code = cli.main(argv)
        out.append((code, text.getvalue()))
    return out


def count_words(dtype, run: int):
    """``junta_distance._words`` without the word views: each run is added one count at a time."""
    return dtype, run


def count_adds(tables) -> list:
    """``distance_and_witness`` of each (table, k), its block runs added one count at a time."""
    words = junta_distance._words
    junta_distance._words = count_words
    try:
        return [distance_and_witness(f, k) for f, k in tables]
    finally:
        junta_distance._words = words


def general_encoding(*values: int) -> bytes:
    """pack_ints by its definition: per value, a 4-byte length then the big-endian bytes."""
    out = b""
    for v in values:
        body = v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")
        out += len(body).to_bytes(4, "big") + body
    return out


def reference_digest(seed, role: str, payload: bytes) -> bytes:
    """The 8-byte digest of (seed, role, payload) from a fresh keyed blake2b.

    The seed's 8 little-endian bytes are the key and the role is the
    personalization, hashed to 16 bytes when it is longer.
    """
    person = role.encode("utf-8")
    if len(person) > hashlib.blake2b.PERSON_SIZE:
        person = hashlib.blake2b(person, digest_size=hashlib.blake2b.PERSON_SIZE).digest()
    key = seed.value.to_bytes(8, "little")
    return hashlib.blake2b(payload, digest_size=8, key=key, person=person).digest()


def reference_chunks(values, width: int) -> list[list[int]]:
    """The max(1, ceil(width / 64)) 64-bit chunks of each value, least significant first.

    Indexed [chunk][value]; bits from 64 * chunks up are dropped, so a
    value is read modulo 2^(64 * chunks).
    """
    return [[value >> shift & MASK64 for value in values] for shift in range(0, max(width, 1), 64)]


def reference_fold(key: int, value: int, width: int) -> int:
    """fold(key, v, w): key <- ``reference_word(key, c)`` for each 64-bit chunk c of v over ceil(w / 64).

    The chunks go least significant first, so for w <= 64 the fold is
    ``reference_word(key, v)``.
    """
    for shift in range(0, width, 64):
        key = reference_word(key, value >> shift & MASK64)
    return key


def reference_fiber(f, address: int) -> tuple[tuple[int, ...], int]:
    """(S, h key) of the fiber at ``address`` (1-based, t = |M| bits wide).

    The fiber's keys are fold(K, address, t) for K the keys of the streams
    (seed, "S-membership") and (seed, "h-value").  Member i of A joins S
    when word i of the S key, shifted right by 11, is below
    ceil(theta * 2^53), theta = epsilon / sqrt(n).
    """
    t = len(f.M)
    limit = math.ceil(f.params.epsilon / math.sqrt(f.n) * 2**53)
    s_key = reference_fold(reference_key(f.seed, "S-membership"), address, t)
    coords = tuple(a for a in f.A.members if reference_word(s_key, a) >> 11 < limit)
    return coords, reference_fold(reference_key(f.seed, "h-value"), address, t)


def reference_value(key: int, y: int, width: int) -> int:
    """h's value at y for a fiber with h key ``key`` and |S| = width: the fair coin of the fold."""
    return int(reference_fold(key, y, max(width, 1)) >> 11 < 2**52)


def reference_eval(f, x: BitString) -> int:
    """f(x) = h_address(x on S), y = x's bits on S with the smallest coordinate first; every word afresh."""
    bits = {i: (x.code >> (f.n - i)) & 1 for i in range(1, f.n + 1)}
    address = 1 + sum(bits[i] << (len(f.M.members) - 1 - j) for j, i in enumerate(f.M.members))
    coords, key = reference_fiber(f, address)
    y = 0
    for a in coords:
        y = y << 1 | bits[a]
    return reference_value(key, y, len(coords))


def reference_table(f) -> TruthTable:
    """The truth table of ``f``, one ``reference_eval`` per point."""
    n = f.n
    return TruthTable(n, np.array([reference_eval(f, BitString(n, c)) for c in range(1 << n)]))


def slots_by_element(plan) -> dict[int, list[tuple[int, int]]]:
    """element -> list of (query index, position within that query's tuple)."""
    slots: dict[int, list[tuple[int, int]]] = {}
    for i, T in enumerate(plan.queries):
        for pos, j in enumerate(T.members):
            slots.setdefault(j, []).append((i, pos))
    return slots


def per_element_slots(plan, epsilon: float, n: int) -> list:
    """``tasks._slots_by_element`` as it grouped before: one pass over the layout per element."""
    elements, rates = tasks.response_layout(plan, epsilon, n)
    groups = [np.flatnonzero(elements == e) for e in sorted(set(elements.tolist()))]
    return [(cols, float(rates[cols[0]])) for cols in groups]


def truncated_ones_count(r: int, theta: float, words) -> int:
    """Number of ones among r rate-theta coins, conditioned on at least one.

    Inverse-CDF over k in [1, r]; exact for every theta, including theta
    so small that rejection sampling would stall (the theta -> 0 limit is
    a single one).  The uniform is ``reference_double`` of ``words``.
    """
    weights = []
    for k in range(1, r + 1):
        weights.append(math.comb(r, k) * theta**k * (1.0 - theta) ** (r - k))
    total = math.fsum(weights)
    if total <= 0.0:
        return 1
    u = reference_double(words) * total
    acc = 0.0
    for k, w in enumerate(weights, start=1):
        acc += w
        if u < acc:
            return k
    return r


def lift_response(b, plan, epsilon: float, n: int, words):
    """Expand an element-query response into per-query bits.

    Elements that answered 0 stay 0 everywhere; an element that answered 1
    with multiplicity r gets r coins of rate epsilon/sqrt(n) conditioned
    on not being all zero, sampled exactly (truncated count, then uniform
    placement by a partial Fisher-Yates shuffle), from the stream ``words``.
    """
    if len(b) != plan.m:
        raise DimensionMismatch(f"response length {len(b)} != plan universe {plan.m}")
    theta = coin_rate(epsilon, n)
    slots = slots_by_element(plan)
    out = [[0] * len(T) for T in plan.queries]
    for j in range(1, plan.m + 1):
        if not b[j - 1]:
            continue
        positions = slots.get(j, [])
        r = len(positions)
        if r == 0:
            raise InconsistentInput(f"element {j} answered 1 but appears in no query")
        ones = truncated_ones_count(r, theta, words)
        order = list(range(r))
        for k in range(ones):
            swap = k + reference_bounded(words, r - k)
            order[k], order[swap] = order[swap], order[k]
        for idx in order[:ones]:
            i, pos = positions[idx]
            out[i][pos] = 1
    return tuple(tuple(row) for row in out)


def _slot_patterns_to_law(plan, elements, slots, locals_) -> dict:
    """Combine per-element (pattern, probability) options into a law over response tuples."""
    dist: dict = {}
    for combo in product(*locals_):
        prob = math.prod(p for _, p in combo)
        if prob <= 0.0:
            continue
        out = [[0] * len(T) for T in plan.queries]
        for j, (pattern, _) in zip(elements, combo):
            for (i, pos), bit in zip(slots[j], pattern):
                out[i][pos] = bit
        key = tuple(tuple(row) for row in out)
        dist[key] = dist.get(key, 0.0) + prob
    return dist


def dict_response_law(A, plan, epsilon: float, n: int) -> dict:
    """``exact_response_distribution`` as a dict from response tuples to probabilities.

    Outcomes of probability zero are omitted.
    """
    theta = coin_rate(epsilon, n)
    members = set(A.members)
    if A.universe_size != plan.m:
        raise DimensionMismatch(f"universe {A.universe_size} != plan universe {plan.m}")
    if isinstance(plan, ElementQueryPlan):
        locals_: list[list[tuple[int, float]]] = []
        for i in range(1, plan.m + 1):
            lam = hit_prob(plan.counts[i - 1], epsilon, n)
            if i in members and lam > 0.0:
                locals_.append([(0, 1.0 - lam), (1, lam)])
            else:
                locals_.append([(0, 1.0)])
        dist: dict = {}
        for combo in product(*locals_):
            prob = math.prod(p for _, p in combo)
            if prob > 0.0:
                dist[tuple(bit for bit, _ in combo)] = prob
        return dist
    slots = slots_by_element(plan)
    elements = sorted(slots)
    locals_sssq: list[list[tuple[tuple[int, ...], float]]] = []
    for j in elements:
        r = len(slots[j])
        if j in members and theta > 0.0:
            options = []
            for pattern in product((0, 1), repeat=r):
                k = sum(pattern)
                options.append((pattern, theta**k * (1.0 - theta) ** (r - k)))
            locals_sssq.append(options)
        else:
            locals_sssq.append([((0,) * r, 1.0)])
    return _slot_patterns_to_law(plan, elements, slots, locals_sssq)


def dict_lifted_law(A, plan, epsilon: float, n: int) -> dict:
    """The law of ``lift_response`` applied to an element-query oracle round, as a dict.

    Marginalizes the intermediate bit of every element explicitly: the
    zero branch pins that element's slots to zero, the one branch carries
    the truncated coin pattern.
    """
    if A.universe_size != plan.m:
        raise DimensionMismatch(f"universe {A.universe_size} != plan universe {plan.m}")
    theta = coin_rate(epsilon, n)
    members = set(A.members)
    slots = slots_by_element(plan)
    elements = sorted(slots)
    locals_: list[list[tuple[tuple[int, ...], float]]] = []
    for j in elements:
        r = len(slots[j])
        lam = hit_prob(r, epsilon, n)
        options: dict[tuple[int, ...], float] = {}
        for b_j, b_prob in ((0, (1.0 - lam) if j in members else 1.0),
                            (1, lam if j in members else 0.0)):
            if b_prob <= 0.0:
                continue
            if b_j == 0:
                zero = (0,) * r
                options[zero] = options.get(zero, 0.0) + b_prob
                continue
            norm = -math.expm1(r * math.log1p(-theta)) if theta < 1.0 else 1.0
            for pattern in product((0, 1), repeat=r):
                k = sum(pattern)
                if k == 0:
                    continue
                cond = theta**k * (1.0 - theta) ** (r - k) / norm
                options[pattern] = options.get(pattern, 0.0) + b_prob * cond
        locals_.append(sorted(options.items()))
    return _slot_patterns_to_law(plan, elements, slots, locals_)
