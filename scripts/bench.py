#!/usr/bin/env python3
"""Time the fast table and oracle paths against their references on fixed seeds.

``to_table``: for yes and no desk instances at n in {10, 12, 14, 16} it times
``to_table`` and the per-point reference ``[f.eval(x) for every x]``, which
is how tables were built before ``to_table`` went fiber by fiber; at n = 20
and 24 (the truth-table cap) it times ``to_table`` alone.  Each case records
the median and quartiles of its repeats and the number of blake2b digests
each path derives.

Exact oracles: on fixed-seed D2 tables at n in {10, 12, 14, 16} it times
``dist_to_k_junta`` against the per-subset reference, one fiber-id pass
and one ``bincount`` over 2^n for each of the C(n,k) subsets, at k = n - 1
(the tail experiments' k) and k = n - 4.  It also times
``bichromatic_edge_counts`` against n single-direction Hopcroft-Karp
matchings, one per coordinate.

Distance kernel: it times ``dist_to_k_junta`` (a junta test, the
k = n - 1 closed form, or every size-k set a block at a time) against the
generator walk that yields the subsets one at a time in ``combinations``
order.  The cases are the inputs the benchmark jobs pass it (ten desk
n = 10, k = 7 yes and ten no instances, as ``verify_no`` draws them; ten
D1 and ten D2 tables at n = 12, k = 11, as ``verify_d1``/``verify_d2``
draw them, which take the closed form; the D2 n = 14, k = 10 table of the
CLI ``dist`` job) and three at the exact-distance frontier: D_no at
n = 18, k = 13 and D_yes at n = 20, k = 15, both at epsilon = 1, and D2
at n = 18, k = 14.

Games: it times the paths the ``games`` workload spends its time in
against the per-call forms they replace.  ``exact_dtv`` over the 956 cells
of the ``dtv_sweep`` bound sweep (desk n = 10) against the half-L1 sum of
per-k ``pmf`` calls; the sseq and sssq games of the desk n = 10 plans
(2000 trials), which draw each side's trials as arrays and decide a
block of trials at a time, against the scalar loop that samples, responds
and decides one trial at a time on the same side streams;
the goodM separation test (desk n = 12, 20 queries, 2000 draws of M)
against pairwise Hamming distances and ``address_index`` equality; and
``pack_ints`` on fiber payloads of single-byte values against the general
per-value encoding.

The script checks that every fast path agrees with its reference (tables,
distances, witnesses, per-direction counts, TV distances, game advantages,
separation verdicts, payload bytes) and that the digest counts match their
closed forms, and exits 1 if not.  The counts take every digest a keyed
digest state derives.

Two more game cases time the paths that compute only what they read: the
budget game (desk n = 14, epsilon = 0.01, 2000 trials), whose no side reads
each trial's D1 table at the plan's queries, against the same game drawing
every no-side trial's full 2^14 table with ``sample_d1``; and the bound
sweep's 956 cells from shared Pascal rows and rate power tables
(``binom_stats.dtv_from_tables``) against one ``exact_dtv`` call per cell.

Seed derivation: the strings game's trial loop (desk n = 12, 16 queries,
500 trials, the ``games`` workload's strings job) and ``to_table`` on yes
and no desk instances at n in {10, 14}, with the package's keyed digest
states against ``FreshDigest``, which builds one fresh keyed blake2b per
digest as every digest was derived before the states were kept.

Explicit tables: the fixed costs of the ``tables`` workload's path, each
against the form it replaced.  ``bichromatic_edge_counts``, one packed
pass for all n directions, against one compare-and-count pass over the
table per direction (the ten ``verify_d2`` tables at n = 12 and the D2
table at n = 16); ``dist_to_k_junta`` with its block adds made a machine
word at a time against the same kernel adding one count at a time (the
ten ``verify_d2`` tables at n = 12, k = 10 and the D2 table at n = 14,
k = 10); and the per-call overhead of ``cli.main`` on a ``dtv`` call at
c = 1, which does almost no work, with the parser built once per process
against a parser built for every call.

Distance at k = n - 1: ``dist_to_k_junta`` reads the disagreements off
one ``bichromatic_edge_counts`` pass (the least count; the witness drops
the largest coordinate attaining it) instead of walking every size-k set.
It is timed against ``junta_distance._least_key``, the blocked walk it
bypasses (the walk alone: the before numbers leave out the relevance
pass that ran ahead of it), on the ten ``verify_d1`` and ten
``verify_d2`` draws at n = 12 and on D1 and D2 tables at n = 16, 18 and
20 (the same epsilons), and the two must give the same distance and
witness.  One more row times
``TruthTable.deserialize`` on the D2 n = 14 table of the CLI ``dist`` job,
its table line checked with numpy on the encoded bytes, against the same
parse checking the line as a set of characters.

Structured instances: at desk n = 10, 12 and 14 (epsilon = 0.1) and at
n = 12 (epsilon = 1), on ten yes and ten no instances, it times
per-instance sampling (``sample_yes``/``sample_no`` against
``complement_sample``: ``IndexSet.of``, ``M.complement()`` and PCG64
seeded from one integer), ``to_table`` (one fiber kernel and a
transposed-view fill against ``fiberwise_table``) and a 16-query
``eval_many`` (fibers batched per address against
``fiberwise_eval_many``).  The two sides must give equal instances,
tables and answers and derive the same number of digests.  The before
sides share today's ``pack_ints``, so they run a little faster than the
code they stand for.

The references live in ``tests/references.py``, which the tests compare
the library against too.

Writes BENCH_15.json at the root of the checkout (BENCH_2, BENCH_3,
BENCH_5, BENCH_6, BENCH_7, BENCH_10, BENCH_11, BENCH_12 and BENCH_14.json
are earlier runs).

Usage: python scripts/bench.py
"""

import io
import json
import math
import os
import platform
import random
import sys
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from junta_lab import boolfn, cli, harness, junta_distance, rng, tasks
from junta_lab.binom_stats import (
    BinomialSpec,
    dtv_from_tables,
    exact_dtv,
    pascal_rows,
    pmf,
    rate_powers,
    tv_shift_bound,
)
from junta_lab.boolfn import (
    BitString,
    TruthTable,
    address_index,
    bichromatic_edge_counts,
    hamming,
    to_table,
)
from junta_lab.hardgen import sample_addressing_set, sample_d1, sample_d2, sample_no, sample_yes
from junta_lab.harness import (
    ExperimentConfig,
    always_yes,
    budget_game,
    desk_params,
    random_string_plan,
    run_hidden_set_game,
)
from junta_lab.junta_distance import dist_to_k_junta, max_disjoint_bichromatic_matching
from junta_lab.rng import KeyedDigest, RandomStream, Seed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from references import (  # noqa: E402
    FreshDigest,
    complement_sample,
    count_words,
    fiberwise_eval_many,
    fiberwise_table,
    general_encoding,
    per_direction_edge_counts,
    per_point_table,
    set_checked_deserialize,
)

OUTPUT = ROOT / "BENCH_15.json"
SEED = 1
COMPARED = (10, 12, 14, 16)
FAST_ONLY = (20, 24)
REPEATS = {"per_point": 3, "to_table": 7, "per_subset": 3, "dist_to_k_junta": 7,
           "hopcroft_karp": 3, "edge_counts": 7, "games": 5, "kernel": 7, "frontier": 3,
           "seed_derivation": 7, "explicit_tables": 21, "tail": 7, "structured": 21}
GAME_TRIALS = 2000
GOOD_M_DRAWS = 2000
SAMPLERS = {"yes": sample_yes, "no": sample_no}
ORACLE_N = (10, 12, 14, 16)
D2_EPSILON = 0.1
STRINGS_N, STRINGS_QUERIES, STRINGS_TRIALS = 12, 16, 500
DIGEST_TABLE_N = (10, 14)
CLI_CALLS = 100
DTV_ARGV = ["dtv", "--c", "1", "--p", "0.5", "--q", "0.75", "--lambda", "1.0"]
TAIL_SAMPLERS = {"verify_d1": ("D1", sample_d1, 0.05), "verify_d2": ("D2", sample_d2, 2.0**-7)}
TAIL_N = (16, 18, 20)
STRUCTURED_CASES = ((10, 0.1), (12, 0.1), (14, 0.1), (12, 1.0))
STRUCTURED_PER_KIND, STRUCTURED_QUERIES = 10, 16


def per_subset_dist_to_k_junta(f: TruthTable, k: int) -> tuple[Fraction, tuple[int, ...]]:
    """Distance and witness as ``dist_to_k_junta`` found them before the lattice walk.

    For each size-k J in lexicographic order: read every code's projection
    onto J as a fiber id, count the ones per fiber with ``bincount``, and
    keep the first J of least distance, stopping at distance 0.
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


def hopcroft_karp_per_direction(f: TruthTable) -> tuple[int, ...]:
    return tuple(max_disjoint_bichromatic_matching(f, [i]).size for i in range(1, f.n + 1))


@contextmanager
def counted_digests():
    """Count the digests ``rng.KeyedDigest`` derives, which every digest-derived bit goes through."""
    u64, below = KeyedDigest.u64, KeyedDigest.below
    count = [0]

    def counting_u64(self, payload):
        count[0] += 1
        return u64(self, payload)

    def counting_below(self, payloads, limit):
        count[0] += len(payloads)
        return below(self, payloads, limit)

    KeyedDigest.u64, KeyedDigest.below = counting_u64, counting_below
    try:
        yield count
    finally:
        KeyedDigest.u64, KeyedDigest.below = u64, below


@contextmanager
def fresh_digests():
    """Structured instances built inside derive every digest from a fresh keyed blake2b."""
    keyed = boolfn.KeyedDigest
    boolfn.KeyedDigest = FreshDigest
    try:
        yield
    finally:
        boolfn.KeyedDigest = keyed


def timed(build, f, repeats: int, *args) -> dict:
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        build(f, *args)
        seconds.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": median, "q1_s": q1, "q3_s": q3,
            "spread": (q3 - q1) / median, "repeats": repeats}


def bench_case(n: int, kind: str) -> tuple[dict, list[str]]:
    f = SAMPLERS[kind](desk_params(n), Seed(SEED))
    fibers = [f.fiber_coords(a) for a in range(1, (1 << len(f.M)) + 1)]
    expected = {
        "to_table": (1 << len(f.M)) * len(f.A) + sum(1 << len(S) for S in fibers),
        "per_point": (1 << n) * (len(f.A) + 1),
    }
    paths = {"to_table": to_table}
    if n in COMPARED:
        paths["per_point"] = per_point_table
    case = {"n": n, "kind": kind, "seed": SEED, "t": len(f.M), "pool_A": len(f.A),
            "fiber_sizes": sorted(len(S) for S in fibers)}
    problems = []
    tables = {}
    for name, build in paths.items():
        with counted_digests() as count:
            tables[name] = build(f)
        if count[0] != expected[name]:
            problems.append(f"n={n} {kind} {name}: {count[0]} digests, expected {expected[name]}")
        case[name] = {"digests": count[0], **timed(build, f, REPEATS[name])}
    if "per_point" in tables:
        if tables["per_point"] != tables["to_table"]:
            problems.append(f"n={n} {kind}: to_table differs from per-point evaluation")
        case["speedup"] = case["per_point"]["median_s"] / case["to_table"]["median_s"]
    return case, problems


def oracle_cases(n: int) -> tuple[list[dict], dict, list[str]]:
    g = sample_d2(n, D2_EPSILON, RandomStream(Seed(SEED), "d2"))
    problems = []
    distance = []
    for k in (n - 1, n - 4):
        case = {"n": n, "k": k, "seed": SEED, "epsilon": D2_EPSILON}
        results = {}
        for name, path in (("per_subset", per_subset_dist_to_k_junta),
                           ("dist_to_k_junta", distance_and_witness)):
            results[name] = path(g, k)
            case[name] = timed(path, g, REPEATS[name], k)
        if results["per_subset"] != results["dist_to_k_junta"]:
            problems.append(f"n={n} k={k}: dist_to_k_junta {results['dist_to_k_junta']} "
                            f"!= per-subset {results['per_subset']}")
        d, witness = results["dist_to_k_junta"]
        case["distance"] = [d.numerator, d.denominator]
        case["witness"] = list(witness)
        case["speedup"] = case["per_subset"]["median_s"] / case["dist_to_k_junta"]["median_s"]
        distance.append(case)
    matching = {"n": n, "seed": SEED, "epsilon": D2_EPSILON}
    counts = {}
    for name, path in (("hopcroft_karp", hopcroft_karp_per_direction),
                       ("edge_counts", bichromatic_edge_counts)):
        counts[name] = path(g)
        matching[name] = timed(path, g, REPEATS[name])
    if counts["hopcroft_karp"] != counts["edge_counts"]:
        problems.append(f"n={n}: per-direction counts differ from Hopcroft-Karp")
    matching["per_direction"] = list(counts["edge_counts"])
    matching["speedup"] = matching["hopcroft_karp"]["median_s"] / matching["edge_counts"]["median_s"]
    return distance, matching, problems


def tail_draws(which: str) -> list[TruthTable]:
    """The ten n = 12 tables ``verify_d1`` or ``verify_d2`` draws at the benchmark's epsilon."""
    _, sampler, epsilon = TAIL_SAMPLERS[which]
    stream = RandomStream(Seed(SEED), which)
    return [sampler(12, epsilon, stream.child(str(j))) for j in range(10)]


def kernel_inputs() -> list[tuple[str, list[tuple[TruthTable, int]], str]]:
    """(name, [(table, k), ...], repeats key) for each distance kernel case."""
    p10 = desk_params(10)
    base = Seed(SEED)
    # verify_no: the yes side reads base.mix(j), the no side base.mix(trials + j)
    yes10 = [(to_table(sample_yes(p10, base.mix(j))), p10.k) for j in range(10)]
    no10 = [(to_table(sample_no(p10, base.mix(10 + j))), p10.k) for j in range(10)]
    tails = {which: [(g, 11) for g in tail_draws(which)] for which in TAIL_SAMPLERS}
    p18, p20 = desk_params(18, epsilon=1.0), desk_params(20, epsilon=1.0)
    return [
        (f"desk n = 10, k = {p10.k}: 10 yes instances", yes10, "kernel"),
        (f"desk n = 10, k = {p10.k}: 10 no instances", no10, "kernel"),
        ("D1 n = 12, k = 11, epsilon = 0.05: 10 tables", tails["verify_d1"], "kernel"),
        ("D2 n = 12, k = 11, epsilon = 2^-7: 10 tables", tails["verify_d2"], "kernel"),
        ("D2 n = 14, k = 10, epsilon = 0.1",
         [(sample_d2(14, D2_EPSILON, RandomStream(Seed(SEED), "d2")), 10)], "kernel"),
        (f"D_no n = 18, k = {p18.k}, epsilon = 1",
         [(to_table(sample_no(p18, base)), p18.k)], "frontier"),
        (f"D_yes n = 20, k = {p20.k}, epsilon = 1",
         [(to_table(sample_yes(p20, base)), p20.k)], "frontier"),
        ("D2 n = 18, k = 14, epsilon = 0.1",
         [(sample_d2(18, D2_EPSILON, RandomStream(Seed(SEED), "d2")), 14)], "frontier"),
    ]


def kernel_cases() -> tuple[list[dict], list[str]]:
    """``dist_to_k_junta`` against the generator walk, on every table of each case."""
    cases, problems = [], []
    for name, tables, repeats in kernel_inputs():
        case = {"name": name, "seed": SEED}
        results = {}
        for label, path in (("generator_walk", generator_walk), ("dist_to_k_junta", distance_and_witness)):
            run = lambda _, path=path: [path(f, k) for f, k in tables]
            results[label] = run(None)
            case[label] = timed(run, None, REPEATS[repeats])
        fast = results["dist_to_k_junta"]
        if results["generator_walk"] != fast:
            problems.append(f"{name}: dist_to_k_junta differs from the generator walk")
        case["equal"] = results["generator_walk"] == fast
        case["distances"] = [[d.numerator, d.denominator] for d, _ in fast]
        case["witnesses"] = [list(w) for _, w in fast]
        case["speedup"] = case["generator_walk"]["median_s"] / case["dist_to_k_junta"]["median_s"]
        cases.append(case)
    return cases, problems


def per_k_dtv(a: BinomialSpec, b: BinomialSpec) -> float:
    """exact_dtv as it was computed before: one pmf() call, with a fresh comb, per k."""
    return 0.5 * math.fsum(abs(pmf(a, k) - pmf(b, k)) for k in range(a.c + 1))


def sweep_cells() -> list[tuple[BinomialSpec, BinomialSpec]]:
    """The applicable cells of harness.dtv_sweep's bound sweep at desk n = 10."""
    params = desk_params(10)
    p, q = params.p, params.q
    cells = []
    for c in range(1, 257):
        for lam in (0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0):
            r, x = p * lam, (q - p) * lam
            if 0.0 < r < 1.0 and tv_shift_bound(x, c, r) is not None:
                cells.append((BinomialSpec(c, r), BinomialSpec(c, min(r + x, 1.0))))
    return cells


def shared_table_sweep(cells) -> list[float]:
    """The cells' distances as dtv_sweep computes them: c outer, one table set per rate pair."""
    top = max(a.c for a, _ in cells)
    powers = {}
    by_count: dict[int, list] = {}
    for a, b in cells:
        by_count.setdefault(a.c, []).append((a.r, b.r))
    out = []
    for c, whole in pascal_rows(top):
        for pair in by_count.get(c, ()):
            if pair not in powers:
                powers[pair] = (rate_powers(pair[0], top), rate_powers(pair[1], top))
            out.append(dtv_from_tables(whole, *powers[pair]))
    return out


def full_table_budget_game(config) -> str:
    """``budget_game`` with every no-side trial drawing its whole D1 table, as before point reads."""
    point_reads = harness._D1Points
    harness._D1Points = lambda n, epsilon, seed: sample_d1(n, epsilon, RandomStream(seed, "d1"))
    try:
        return budget_game(config).csv_text()
    finally:
        harness._D1Points = point_reads


def per_trial_game(plan, params, trials: int, seed: int) -> float:
    """The hidden-set game one trial at a time on each side's stream.

    Each trial calls ``sample_hidden`` and then the oracle's respond
    function on the side stream and decides its response with
    ``tasks.bayes_decide``, passing the game's ``batch_bayes_decider``,
    built once: the scalar loop whose draws and answers the batched game
    reproduces.
    """
    if isinstance(plan, tasks.ElementQueryPlan):
        mode, respond = "sseq", tasks.sseq_respond
    else:
        mode, respond = "sssq", tasks.sssq_respond
    decide = tasks.batch_bayes_decider(plan, params)
    base = RandomStream(Seed(seed), f"game-{mode}")
    rates = {}
    for side, inclusion, count in ((tasks.YES, params.p, trials // 2),
                                   (tasks.NO, params.q, trials - trials // 2)):
        stream, hits = base.child(side), 0
        for _ in range(count):
            hidden = tasks.sample_hidden(plan.m, inclusion, stream, origin=side)
            response = respond(hidden, plan, params.epsilon, params.n, stream)
            hits += tasks.bayes_decide(response, plan, params, decide) == tasks.YES
        rates[side] = hits / count
    return rates[tasks.YES] - rates[tasks.NO]


def pairwise_separation(Ms, X, tau: int) -> list[bool]:
    queries = X.queries
    verdicts = []
    for M in Ms:
        addresses = [address_index(M, x) for x in queries]
        verdicts.append(not any(
            hamming(queries[i], queries[j]) >= tau and addresses[i] == addresses[j]
            for i in range(len(queries)) for j in range(i + 1, len(queries))
        ))
    return verdicts


def mask_separation(Ms, X, tau: int) -> list[bool]:
    codes = tasks.far_pair_codes(X, tau)
    return [tasks.separates(M, codes) for M in Ms]


def table_encoding(payloads) -> list[bytes]:
    return [rng.pack_ints(*values) for values in payloads]


def game_cases() -> tuple[list[dict], list[str]]:
    """Each games-workload fast path against its per-call reference."""
    p10, p12 = desk_params(10), desk_params(12)
    m = p10.m
    plans = {
        "sseq": tasks.ElementQueryPlan.uniform(m, 4),
        "sssq": tasks.SetQueryPlan.of(m, [range(1, m + 1)] * 4),
    }
    X = random_string_plan(p12.n, 20, RandomStream(Seed(SEED), "goodM-plan"), always_yes)
    Ms = [sample_addressing_set(p12, Seed(SEED).mix(j)) for j in range(GOOD_M_DRAWS)]
    draw = random.Random(SEED)
    # to_table's payloads: address, |S|, the members of S, then their bits.
    payloads = []
    for _ in range(20000):
        size = draw.randint(0, 6)
        coords = sorted(draw.sample(range(1, 17), size))
        payloads.append((draw.randint(1, 16), size, *coords,
                         *(draw.randint(0, 1) for _ in coords)))
    cells = sweep_cells()
    budget = ExperimentConfig(desk_params(14, epsilon=0.01), "game", GAME_TRIALS, SEED)
    pairs = [
        ("exact_dtv", f"{len(cells)} dtv_sweep cells, desk n = 10",
         lambda: [per_k_dtv(a, b) for a, b in cells],
         lambda: [exact_dtv(a, b) for a, b in cells]),
        ("dtv_sweep_tables", f"{len(cells)} dtv_sweep cells, desk n = 10, shared tables "
         "against one exact_dtv per cell",
         lambda: [exact_dtv(a, b) for a, b in cells],
         lambda: shared_table_sweep(cells)),
        ("budget_game", f"desk n = 14, epsilon = 0.01, {GAME_TRIALS} trials, seed {SEED}, "
         "D1 point reads against full sample_d1 tables",
         lambda: full_table_budget_game(budget),
         lambda: budget_game(budget).csv_text()),
        ("game_sseq", f"ell = [4] * {m}, desk n = 10, {GAME_TRIALS} trials, seed {SEED}",
         lambda: per_trial_game(plans["sseq"], p10, GAME_TRIALS, SEED),
         lambda: run_hidden_set_game(plans["sseq"], p10, GAME_TRIALS, SEED).advantage),
        ("game_sssq", f"4 copies of [1..{m}], desk n = 10, {GAME_TRIALS} trials, seed {SEED}",
         lambda: per_trial_game(plans["sssq"], p10, GAME_TRIALS, SEED),
         lambda: run_hidden_set_game(plans["sssq"], p10, GAME_TRIALS, SEED).advantage),
        ("good_m", f"desk n = 12, 20 queries, tau = {p12.tau}, {GOOD_M_DRAWS} draws of M",
         lambda: pairwise_separation(Ms, X, p12.tau),
         lambda: mask_separation(Ms, X, p12.tau)),
        ("pack_ints", f"{len(payloads)} fiber payloads of single-byte values",
         lambda: [general_encoding(*values) for values in payloads],
         lambda: table_encoding(payloads)),
    ]
    return compared(pairs, REPEATS["games"])


def compared(pairs, repeats: int) -> tuple[list[dict], list[str]]:
    """Time and check each (name, inputs, reference, fast) pair of calls."""
    cases, problems = [], []
    for name, inputs, reference, fast in pairs:
        case = {"name": name, "inputs": inputs}
        results = {}
        for label, path in (("reference", reference), ("fast", fast)):
            results[label] = path()
            case[label] = timed(lambda _: path(), None, repeats)
        if results["reference"] != results["fast"]:
            problems.append(f"{name}: fast path differs from its reference")
        case["equal"] = results["reference"] == results["fast"]
        case["speedup"] = case["reference"]["median_s"] / case["fast"]["median_s"]
        cases.append(case)
    return cases, problems


def strings_game(plan, params) -> dict:
    return harness.run_game(
        lambda seed: sample_yes(params, seed), lambda seed: sample_no(params, seed),
        plan, STRINGS_TRIALS, SEED,
    ).as_json_dict()


def fresh_strings_game(plan, params) -> dict:
    with fresh_digests():
        return strings_game(plan, params)


def seed_derivation_cases() -> tuple[list[dict], list[str]]:
    """Keyed digest states against one fresh keyed blake2b per digest."""
    params = desk_params(STRINGS_N)
    draw = random.Random(SEED)
    plan = tasks.StringQueryPlan(
        tuple(BitString(STRINGS_N, draw.getrandbits(STRINGS_N)) for _ in range(STRINGS_QUERIES)),
        harness.DECIDERS["parity_yes"],
    )
    pairs = [("strings_game", f"desk n = {STRINGS_N}, {STRINGS_QUERIES} queries, parity_yes, "
              f"{STRINGS_TRIALS} trials, seed {SEED}",
              lambda: fresh_strings_game(plan, params), lambda: strings_game(plan, params))]
    # epsilon = 0.1 is the structured workload's instances, whose fibers are
    # mostly empty; at epsilon = 1 every fiber draws several coordinates
    for n in DIGEST_TABLE_N:
        for epsilon in (0.1, 1.0):
            for kind, sampler in SAMPLERS.items():
                p = desk_params(n, epsilon=epsilon)
                with fresh_digests():
                    fresh = sampler(p, Seed(SEED))
                keyed = sampler(p, Seed(SEED))
                pairs.append((f"to_table n = {n}, epsilon = {epsilon}, {kind}",
                              f"desk {kind} instance, seed {SEED}",
                              lambda fresh=fresh: to_table(fresh),
                              lambda keyed=keyed: to_table(keyed)))
    return compared(pairs, REPEATS["seed_derivation"])


def count_adds(tables) -> list:
    """``distance_and_witness`` of each (table, k), its block runs added one count at a time."""
    words = junta_distance._words
    junta_distance._words = count_words
    try:
        return [distance_and_witness(f, k) for f, k in tables]
    finally:
        junta_distance._words = words


def cli_calls(fresh_parser: bool) -> list[tuple[int, str]]:
    """(exit code, stdout) of CLI_CALLS in-process ``dtv`` calls, optionally rebuilding the parser each time."""
    out = []
    for _ in range(CLI_CALLS):
        if fresh_parser:
            cli.build_parser.cache_clear()
        text = io.StringIO()
        with redirect_stdout(text):
            code = cli.main(DTV_ARGV)
        out.append((code, text.getvalue()))
    return out


def explicit_table_cases() -> tuple[list[dict], list[str]]:
    """The tables workload's fixed costs, each against the form it replaced."""
    stream = RandomStream(Seed(SEED), "verify_d2")
    d2_12 = [sample_d2(12, 2.0**-7, stream.child(str(j))) for j in range(10)]
    d2_14 = sample_d2(14, D2_EPSILON, RandomStream(Seed(SEED), "d2"))
    d2_16 = sample_d2(16, D2_EPSILON, RandomStream(Seed(SEED), "d2"))
    kernel_12 = [(g, 10) for g in d2_12]
    pairs = [
        ("edge_counts n = 12", "10 verify_d2 tables, n = 12, epsilon = 2^-7, packed pass "
         "against one pass per direction",
         lambda: [per_direction_edge_counts(g) for g in d2_12],
         lambda: [bichromatic_edge_counts(g) for g in d2_12]),
        ("edge_counts n = 16", f"D2 table, n = 16, epsilon = {D2_EPSILON}",
         lambda: per_direction_edge_counts(d2_16),
         lambda: bichromatic_edge_counts(d2_16)),
        ("dist_to_k_junta (12, 10)", "10 verify_d2 tables, n = 12, k = 10, word adds "
         "against count adds",
         lambda: count_adds(kernel_12),
         lambda: [distance_and_witness(f, k) for f, k in kernel_12]),
        ("dist_to_k_junta (14, 10)", f"D2 table, n = 14, k = 10, epsilon = {D2_EPSILON}",
         lambda: count_adds([(d2_14, 10)]),
         lambda: [distance_and_witness(d2_14, 10)]),
        ("cli.main overhead", f"{CLI_CALLS} in-process calls of {' '.join(DTV_ARGV)}, "
         "one parser per process against one per call",
         lambda: cli_calls(fresh_parser=True),
         lambda: cli_calls(fresh_parser=False)),
    ]
    return compared(pairs, REPEATS["explicit_tables"])


def least_key_walk(f: TruthTable) -> tuple[Fraction, tuple[int, ...]]:
    """Distance and witness at k = n - 1 from ``_least_key``, the blocked walk over every size-k set."""
    n = f.n
    key = junta_distance._least_key(f, n - 1)
    return Fraction(key >> n, 1 << n), tuple(i for i in range(1, n + 1) if not key >> (n - i) & 1)


def tail_cases() -> tuple[list[dict], list[str]]:
    """Distance at k = n - 1, closed form against the walk; the table parse, numpy against a set check."""
    pairs = []
    for which, (name, sampler, epsilon) in TAIL_SAMPLERS.items():
        inputs = [tail_draws(which)]
        labels = [f"10 {which} tables, n = 12, epsilon = {epsilon}"]
        for n in TAIL_N:
            inputs.append([sampler(n, epsilon, RandomStream(Seed(SEED), name.lower()))])
            labels.append(f"{name} table, n = {n}, epsilon = {epsilon}")
        for tables, label in zip(inputs, labels):
            pairs.append((f"k = n - 1, {label}", f"{label}, closed form against the walk",
                          lambda tables=tables: [least_key_walk(g) for g in tables],
                          lambda tables=tables: [distance_and_witness(g, g.n - 1) for g in tables]))
    text = sample_d2(14, D2_EPSILON, RandomStream(Seed(SEED), "d2")).serialize()
    pairs.append(("deserialize n = 14", f"D2 table, n = 14, epsilon = {D2_EPSILON}, numpy "
                  "check on the encoded bytes against a set of characters",
                  lambda: set_checked_deserialize(text), lambda: TruthTable.deserialize(text)))
    return compared(pairs, REPEATS["tail"])


def structured_inputs(n: int, epsilon: float):
    """(params, [(seed, sampler, inclusion, kind)], instances, queries) for one structured case."""
    p = desk_params(n, epsilon=epsilon)
    draws = []
    for offset, (sampler, inclusion, kind) in enumerate(
        ((sample_yes, p.p, boolfn.YES_STYLE), (sample_no, p.q, boolfn.NO_STYLE))
    ):
        for j in range(STRUCTURED_PER_KIND):
            draws.append((Seed(SEED).mix(offset * STRUCTURED_PER_KIND + j), sampler, inclusion, kind))
    instances = [sampler(p, seed) for seed, sampler, _, _ in draws]
    draw = random.Random(SEED)
    queries = [BitString(n, draw.getrandbits(n)) for _ in range(STRUCTURED_QUERIES)]
    return p, draws, instances, queries


def structured_cases() -> tuple[list[dict], list[str]]:
    """Per-instance sampling, ``to_table`` and ``eval_many``, each against the form it replaced."""
    pairs = []
    for n, epsilon in STRUCTURED_CASES:
        p, draws, instances, queries = structured_inputs(n, epsilon)
        label = (f"desk n = {n}, epsilon = {epsilon}, {STRUCTURED_PER_KIND} yes and "
                 f"{STRUCTURED_PER_KIND} no instances, seed {SEED}")
        pairs += [
            (f"sampling n = {n}, epsilon = {epsilon}", f"{label}, lean against complement form",
             lambda draws=draws, p=p: [complement_sample(p, seed, inclusion, kind)
                                       for seed, _, inclusion, kind in draws],
             lambda draws=draws, p=p: [sampler(p, seed) for seed, sampler, _, _ in draws]),
            (f"to_table n = {n}, epsilon = {epsilon}", f"{label}, view fill against fiberwise",
             lambda fs=instances: [fiberwise_table(f) for f in fs],
             lambda fs=instances: [to_table(f) for f in fs]),
            (f"eval_many n = {n}, epsilon = {epsilon}",
             f"{label}, {STRUCTURED_QUERIES} random queries, batched against fiberwise",
             lambda fs=instances, xs=queries: [fiberwise_eval_many(f, xs) for f in fs],
             lambda fs=instances, xs=queries: [f.eval_many(xs) for f in fs]),
        ]
    cases, problems = compared(pairs, REPEATS["structured"])
    for case, (name, _, reference, fast) in zip(cases, pairs):
        counts = []
        for path in (reference, fast):
            with counted_digests() as count:
                path()
            counts.append(count[0])
        case["digests"] = {"reference": counts[0], "fast": counts[1]}
        if counts[0] != counts[1]:
            problems.append(f"{name}: {counts[1]} digests, the before form derives {counts[0]}")
    return cases, problems


def main() -> int:
    cases, problems = [], []
    for n in COMPARED + FAST_ONLY:
        for kind in SAMPLERS:
            case, found = bench_case(n, kind)
            cases.append(case)
            problems += found
            line = f"n={n:2d} {kind:3s} to_table {case['to_table']['median_s']:.4f} s"
            if "speedup" in case:
                line += f", per-point {case['per_point']['median_s']:.3f} s, {case['speedup']:.0f}x"
            print(line, flush=True)
    distance, matching = [], []
    for n in ORACLE_N:
        dist_cases, match_case, found = oracle_cases(n)
        distance += dist_cases
        matching.append(match_case)
        problems += found
        for case in dist_cases:
            print(f"n={n:2d} k={case['k']:2d} dist_to_k_junta {case['dist_to_k_junta']['median_s']:.4f} s, "
                  f"per-subset {case['per_subset']['median_s']:.3f} s, {case['speedup']:.0f}x", flush=True)
        print(f"n={n:2d} edge counts {match_case['edge_counts']['median_s']:.5f} s, "
              f"Hopcroft-Karp {match_case['hopcroft_karp']['median_s']:.3f} s, "
              f"{match_case['speedup']:.0f}x", flush=True)
    kernel, found = kernel_cases()
    problems += found
    for case in kernel:
        print(f"{case['name']}: dist_to_k_junta {case['dist_to_k_junta']['median_s']:.4f} s, generator walk "
              f"{case['generator_walk']['median_s']:.4f} s, {case['speedup']:.1f}x", flush=True)
    games, found = game_cases()
    problems += found
    for case in games:
        print(f"{case['name']:9s} {case['fast']['median_s']:.4f} s, reference "
              f"{case['reference']['median_s']:.4f} s, {case['speedup']:.1f}x", flush=True)
    seed_derivation, found = seed_derivation_cases()
    problems += found
    for case in seed_derivation:
        print(f"{case['name']}: keyed states {case['fast']['median_s']:.5f} s, fresh "
              f"blake2b {case['reference']['median_s']:.5f} s, {case['speedup']:.1f}x",
              flush=True)
    explicit_tables, found = explicit_table_cases()
    problems += found
    for case in explicit_tables:
        print(f"{case['name']}: {case['fast']['median_s']:.5f} s, before "
              f"{case['reference']['median_s']:.5f} s, {case['speedup']:.1f}x", flush=True)
    tail, found = tail_cases()
    problems += found
    for case in tail:
        print(f"{case['name']}: {case['fast']['median_s']:.5f} s, before "
              f"{case['reference']['median_s']:.5f} s, {case['speedup']:.1f}x", flush=True)
    structured, found = structured_cases()
    problems += found
    for case in structured:
        print(f"{case['name']}: {case['fast']['median_s'] * 1e3:.3f} ms, before "
              f"{case['reference']['median_s'] * 1e3:.3f} ms, {case['speedup']:.2f}x", flush=True)
    result = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "params": "desk_params(n): alpha 0.75, epsilon 0.1; D2 tables: sample_d2(n, 0.1, "
                  "RandomStream(Seed(1), 'd2'))",
        "cases": cases,
        "distance": distance,
        "kernel": kernel,
        "matching": matching,
        "games": games,
        "seed_derivation": seed_derivation,
        "explicit_tables": explicit_tables,
        "tail": tail,
        "structured": structured,
        "problems": problems,
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"wrote {OUTPUT}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
