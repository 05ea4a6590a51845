#!/usr/bin/env python3
"""Time each fast path against its reference on fixed seeds, and check that they agree.

Every comparison is a ``Pair``: a name, a line describing its inputs, the
reference call and the fast call.  The references and the "before" forms
are imported from ``tests/references.py``, which the tests use as oracles
too; this script defines none.  ``compared`` is the one loop: it runs both
calls once, checks that the results are equal, and then times each call
``REPEATS[section]`` times.  Every case record has the same keys:
section, name, inputs, reference and fast (median and quartiles), equal
and speedup.

Sections, in order:

- ``to_table``: ``to_table`` against per-point evaluation on yes and no
  desk instances at n in ``COMPARED``, and alone at n in ``FAST_ONLY`` (24
  is the truth-table cap).
- ``distance``: ``dist_to_k_junta`` against ``first_minimum_over_subsets``
  (one ``bincount`` per size-k set) on D2 tables at n in ``ORACLE_N``, at
  k = n - 1 and k = n - 4.
- ``matching``: ``bichromatic_edge_counts`` against n single-direction
  Hopcroft-Karp matchings on the same tables.
- ``kernel``: ``dist_to_k_junta`` against ``generator_walk`` on the inputs
  the benchmark jobs pass it: ``DRAWS`` desk yes and no instances as
  ``verify_no`` draws them, the ``verify_d1``/``verify_d2`` draws at
  k = n - 1, and the CLI ``dist`` job's D2 table (``DIST_JOB``).
- ``frontier``: the same at the exact-distance frontier: D_no and D_yes at
  epsilon = 1 (``FRONTIER``) and a D2 table (``FRONTIER_D2``).
- ``games``: ``exact_dtv`` over ``dtv_sweep``'s bound-sweep cells against
  ``per_term_dtv``; the per-cell oracle's shared tables
  (``bound_sweep_cells``) against one ``exact_dtv`` per cell; the
  certified sweep (``shift_bound_sweep``) against the per-cell exact
  sweep, both reduced to (cells, violations, worst margin); the batched
  sseq and sssq games against ``per_trial_game``; the goodM mask test
  against ``reference_is_separating``.
- ``strings_game``: the string-query game answered a block at a time
  (``run_game`` with ``sample_block_at``) against
  ``per_trial_string_game`` drawing each trial's instance by
  ``complement_sample``, and against the same game building and
  evaluating one instance per trial (``instance_answers``), on the
  strings job's plan shape with ``parity_yes`` and ``all_zero_yes``.
- ``stream_seeding``: the draws each block user makes (the M stream's
  bounded draws and the A stream's coins as ``sample_block`` makes them
  at desk n = ``STRINGS_N``, the D1 stream's point coins at three codes
  as the budget game makes them) on ``STREAMS`` streams, one block of
  ``STREAMS`` rows against ``STREAMS`` one-row ``RandomStream``s; one
  side's block of a hidden-set game (``HIDDEN_BLOCK`` coins) as a
  one-row read against the scalar ``ScalarStream``; and goodM's plan
  at each n in ``PLAN_N`` by ``random_string_plan`` against
  ``reference_string_plan``.
- ``budget_game``: ``budget_game`` against ``full_table_budget_game``
  (one full ``sample_d1`` table per no-side trial) and against
  ``point_read_budget_game`` (D1 point reads, one stream per trial).
- ``seed_derivation``: ``Seed.mixes`` (one keyed blake2b state, copied
  per trial) against one fresh keyed blake2b per trial
  (``reference_digest``), for ``MIX_INDICES`` trial seeds.
- ``explicit_tables``: the packed edge counts against one pass per
  direction; ``dist_to_k_junta``'s word adds against ``count_adds``; the
  per-call cost of ``cli.main`` on a ``dtv`` call at c = 1, one parser per
  process against one per call.
- ``tail``: the k = n - 1 closed form against ``least_key_walk`` on the
  ``verify_d1``/``verify_d2`` draws and on D1 and D2 tables at n in
  ``TAIL_N``; ``TruthTable.deserialize`` against ``set_checked_deserialize``.
- ``structured``: at ``STRUCTURED_CASES``, on yes and no instances,
  sampling (``sample_block``, one block per kind) against one
  ``complement_sample`` call per seed, ``to_table`` against
  ``fiberwise_table`` and ``eval_many`` against ``fiberwise_eval_many``,
  both fiberwise forms computing every word on Python ints.  Then lazy
  instances at desk n in ``LAZY_N``, where t runs to the hundreds: a yes
  instance's ``eval_many`` at 1 and at 64 random queries against
  ``fiberwise_eval_many``, and ``sample_block_at`` on 3 no-style seeds and
  16 queries against ``instance_answers``; and one strict D_no (alpha
  0.75, epsilon 0.1) at n in ``STRICT_LAZY_N``, a single ``eval`` and a
  64-query ``eval_many``, against ``fiberwise_eval_many``, and the address
  gather ``boolfn._addresses`` under its M (t = 432 at n = 1024, 1856 at
  n = 4096) at 1 and 64 of those queries, against per-query
  ``address_index`` cut into 64-bit chunks (``reference_chunks``).
- ``verify_sampling``: the instances ``verify_yes`` and ``verify_no``
  draw, yes and no at desk n = ``DESK_N`` on ``VERIFY_SEEDS`` seeds:
  ``sample_block`` on the whole block against one ``complement_sample``
  call per seed.

The sizes each section runs at are the module constants below, so a test
can run every section small.  The script exits 1 if any comparison
fails, and writes BENCH_53.json at the root of the checkout (BENCH_51.json,
BENCH_41.json, BENCH_34.json, BENCH_30.json, BENCH_25.json, BENCH_23.json,
BENCH_22.json, BENCH_21.json, BENCH_18.json and BENCH_17.json are earlier
runs; BENCH_2, BENCH_3, BENCH_5, BENCH_6, BENCH_7, BENCH_10, BENCH_11,
BENCH_12, BENCH_14 and BENCH_15.json are earlier runs, in the earlier
per-section layout).

Usage: python scripts/bench.py
"""

import json
import math
import os
import platform
import random
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from junta_lab import boolfn, harness, tasks
from junta_lab.binom_stats import BinomialSpec, exact_dtv, shift_bound_sweep
from junta_lab.boolfn import (
    NO_STYLE,
    YES_STYLE,
    BitString,
    TruthTable,
    bichromatic_edge_counts,
    to_table,
)
from junta_lab.hardgen import (
    sample_block,
    sample_block_at,
    sample_d1,
    sample_d2,
    sample_no,
    sample_yes,
)
from junta_lab.harness import (
    _BOUND_SWEEP_RATES,
    _BOUND_SWEEP_TOP,
    ExperimentConfig,
    always_yes,
    budget_game,
    desk_params,
    random_string_plan,
    run_hidden_set_game,
)
from junta_lab.params import derive_params
from junta_lab.rng import RandomStream, Seed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from references import (  # noqa: E402
    ScalarStream,
    address_index,
    bound_sweep_cells,
    cli_calls,
    complement_sample,
    count_adds,
    distance_and_witness,
    fiberwise_eval_many,
    fiberwise_table,
    first_minimum_over_subsets,
    full_table_budget_game,
    general_encoding,
    generator_walk,
    hopcroft_karp_per_direction,
    instance_answers,
    least_key_walk,
    per_direction_edge_counts,
    per_point_table,
    per_term_dtv,
    per_trial_game,
    per_trial_string_game,
    point_read_budget_game,
    reference_chunks,
    reference_digest,
    reference_is_separating,
    reference_string_plan,
    set_checked_deserialize,
)

OUTPUT = ROOT / "BENCH_53.json"
SEED = 1
REPEATS = {"to_table": 3, "distance": 3, "matching": 3, "kernel": 7, "frontier": 3, "games": 5,
           "strings_game": 11, "stream_seeding": 21, "budget_game": 11, "seed_derivation": 7,
           "explicit_tables": 21, "tail": 7, "structured": 21, "verify_sampling": 21}
SAMPLERS = {"yes": sample_yes, "no": sample_no}
D2_EPSILON = 0.1
COMPARED, FAST_ONLY = (10, 12, 14, 16), (20, 24)
ORACLE_N = (10, 12, 14, 16)
DESK_N = 10
DRAWS = 10
TAIL_DRAW_N = 12
TAIL_SAMPLERS = {"verify_d1": ("D1", sample_d1, 0.05), "verify_d2": ("D2", sample_d2, 2.0**-7)}
DIST_JOB = (14, 10)
FRONTIER = (("no", 18), ("yes", 20))
FRONTIER_D2 = (18, 14)
GAME_TRIALS = 2000
BUDGET_N = 14
GOOD_M_N, GOOD_M_QUERIES, GOOD_M_DRAWS = 12, 20, 2000
STRINGS_N, STRINGS_QUERIES, STRINGS_TRIALS = 12, 16, 500
STREAMS = 1000
HIDDEN_BLOCK = harness.GAME_BLOCK_CELLS
PLAN_N = (12, 48)
MIX_INDICES = 2000
EDGE_COUNTS_N = 16
CLI_CALLS = 100
DTV_ARGV = ["dtv", "--c", "1", "--p", "0.5", "--q", "0.75", "--lambda", "1.0"]
TAIL_N = (16, 18, 20)
STRUCTURED_CASES = ((10, 0.1), (12, 0.1), (14, 0.1), (12, 1.0))
STRUCTURED_PER_KIND, STRUCTURED_QUERIES = 10, 16
LAZY_N = (256, 1024, 4096)
STRICT_LAZY_N = (1024, 4096)
VERIFY_SEEDS = (10, 20, 256)


class Pair(NamedTuple):
    """One comparison; ``reference`` is None for a fast path timed alone."""

    name: str
    inputs: str
    reference: Optional[Callable[[], object]]
    fast: Callable[[], object]


def timed(call, repeats: int) -> dict:
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_s": median, "q1_s": q1, "q3_s": q3,
            "spread": (q3 - q1) / median, "repeats": repeats}


def compared(section: str, pairs) -> tuple[list[dict], list[str]]:
    """Check and time each pair of one section: (case records, problems)."""
    cases, problems = [], []
    for pair in pairs:
        case = {"section": section, "name": pair.name, "inputs": pair.inputs}
        results = {}
        for label, call in (("reference", pair.reference), ("fast", pair.fast)):
            case[label] = results[label] = None
            if call is not None:
                results[label] = call()
                case[label] = timed(call, REPEATS[section])
        timed_alone = pair.reference is None
        case["equal"] = None if timed_alone else results["reference"] == results["fast"]
        case["speedup"] = None if timed_alone else case["reference"]["median_s"] / case["fast"]["median_s"]
        if case["equal"] is False:
            problems.append(f"{section}: {pair.name}: fast path differs from its reference")
        cases.append(case)
    return cases, problems


def d2(n: int) -> TruthTable:
    return sample_d2(n, D2_EPSILON, RandomStream([Seed(SEED)], "d2"))


def tail_draws(which: str) -> list[TruthTable]:
    """The ``DRAWS`` tables ``verify_d1`` or ``verify_d2`` draws at the benchmark's epsilon."""
    _, sampler, epsilon = TAIL_SAMPLERS[which]
    return [sampler(TAIL_DRAW_N, epsilon, RandomStream([seed], which))
            for seed in Seed(SEED).mixes(range(DRAWS))]


def to_table_pairs() -> list[Pair]:
    pairs = []
    for n in COMPARED + FAST_ONLY:
        for kind, sampler in SAMPLERS.items():
            f = sampler(desk_params(n), Seed(SEED))
            pairs.append(Pair(f"n = {n}, {kind}",
                              f"desk {kind} instance, seed {SEED}, t = {len(f.M)}, |A| = {len(f.A)}",
                              partial(per_point_table, f) if n in COMPARED else None,
                              partial(to_table, f)))
    return pairs


def distance_pairs() -> list[Pair]:
    return [Pair(f"n = {n}, k = {k}", f"D2 table, epsilon = {D2_EPSILON}, seed {SEED}, "
                 "per-subset bincount against dist_to_k_junta",
                 partial(first_minimum_over_subsets, g, k), partial(distance_and_witness, g, k))
            for n in ORACLE_N for g in [d2(n)] for k in (n - 1, n - 4)]


def matching_pairs() -> list[Pair]:
    return [Pair(f"n = {n}", f"D2 table, epsilon = {D2_EPSILON}, seed {SEED}, "
                 "one Hopcroft-Karp matching per direction against the packed edge counts",
                 partial(hopcroft_karp_per_direction, g), partial(bichromatic_edge_counts, g))
            for n in ORACLE_N for g in [d2(n)]]


def walk_pairs(cases) -> list[Pair]:
    """``dist_to_k_junta`` against the generator walk on every (table, k) of each named case."""
    return [Pair(name, "generator walk against the blocked kernel",
                 lambda tables=tables: [generator_walk(f, k) for f, k in tables],
                 lambda tables=tables: [distance_and_witness(f, k) for f, k in tables])
            for name, tables in cases]


def kernel_pairs() -> list[Pair]:
    p = desk_params(DESK_N)
    base = Seed(SEED)
    # verify_no: the yes side reads base.mix(j), the no side base.mix(trials + j)
    cases = [(f"desk n = {DESK_N}, k = {p.k}: {DRAWS} {kind} instances",
              [(to_table(sampler(p, base.mix(offset + j))), p.k) for j in range(DRAWS)])
             for offset, (kind, sampler) in zip((0, DRAWS), SAMPLERS.items())]
    k = TAIL_DRAW_N - 1
    for which, (name, _, epsilon) in TAIL_SAMPLERS.items():
        cases.append((f"{name} n = {TAIL_DRAW_N}, k = {k}, epsilon = {epsilon}: {DRAWS} tables",
                      [(g, k) for g in tail_draws(which)]))
    n, k = DIST_JOB
    cases.append((f"D2 n = {n}, k = {k}, epsilon = {D2_EPSILON}", [(d2(n), k)]))
    return walk_pairs(cases)


def frontier_pairs() -> list[Pair]:
    cases = []
    for kind, n in FRONTIER:
        p = desk_params(n, epsilon=1.0)
        cases.append((f"D_{kind} n = {n}, k = {p.k}, epsilon = 1",
                      [(to_table(SAMPLERS[kind](p, Seed(SEED))), p.k)]))
    n, k = FRONTIER_D2
    cases.append((f"D2 n = {n}, k = {k}, epsilon = {D2_EPSILON}", [(d2(n), k)]))
    return walk_pairs(cases)


def game_pairs() -> list[Pair]:
    p = desk_params(DESK_N)
    m = p.m
    plans = {
        "sseq": (tasks.ElementQueryPlan.uniform(m, 4), f"ell = [4] * {m}"),
        "sssq": (tasks.SetQueryPlan.of(m, [range(1, m + 1)] * 4), f"4 copies of [1..{m}]"),
    }
    good = desk_params(GOOD_M_N)
    X = random_string_plan(GOOD_M_N, GOOD_M_QUERIES, Seed(SEED), "goodM-plan", always_yes)
    Ms = [f.M for f in sample_block(good, YES_STYLE, Seed(SEED).mixes(range(GOOD_M_DRAWS)))]
    cells = [(BinomialSpec(c, r), BinomialSpec(c, shifted))
             for c, r, shifted, _, _ in bound_sweep_cells(p)]
    pairs = [
        Pair("exact_dtv", f"{len(cells)} dtv_sweep cells, desk n = {DESK_N}",
             lambda: [per_term_dtv(a, b) for a, b in cells],
             lambda: [exact_dtv(a, b) for a, b in cells]),
        Pair("dtv_sweep_tables", f"{len(cells)} dtv_sweep cells, desk n = {DESK_N}, shared tables "
             "against one exact_dtv per cell",
             lambda: [exact_dtv(a, b) for a, b in cells],
             lambda: [cell[-1] for cell in bound_sweep_cells(p)]),
        Pair("dtv_sweep_certified", f"{len(cells)} dtv_sweep cells, desk n = {DESK_N}, certified "
             "sweep against the per-cell exact sweep",
             lambda: per_cell_sweep(p),
             lambda: shift_bound_sweep(
                 [(p.p * lam, (p.q - p.p) * lam) for lam in _BOUND_SWEEP_RATES], _BOUND_SWEEP_TOP)),
    ]
    for mode, (plan, label) in plans.items():
        pairs.append(Pair(f"game_{mode}", f"{label}, desk n = {DESK_N}, {GAME_TRIALS} trials, seed {SEED}",
                          partial(per_trial_game, plan, p, GAME_TRIALS, SEED),
                          lambda plan=plan: run_hidden_set_game(plan, p, GAME_TRIALS, SEED).advantage))
    pairs += [
        Pair("good_m", f"desk n = {GOOD_M_N}, {GOOD_M_QUERIES} queries, tau = {good.tau}, "
             f"{GOOD_M_DRAWS} draws of M",
             lambda: [reference_is_separating(M, X, good.tau) for M in Ms],
             lambda: [tasks.separates(M, codes)
                      for codes in [tasks.far_pair_codes(X, good.tau)] for M in Ms]),
    ]
    return pairs


def per_cell_sweep(params) -> tuple:
    """(cells, violations, worst margin) of ``bound_sweep_cells``, every cell exact."""
    cells, violations, worst = 0, 0, math.inf
    for *_, bound, exact in bound_sweep_cells(params):
        cells += 1
        violations += exact > bound
        worst = min(worst, bound - exact)
    return cells, violations, worst


def strings_plan(decider: str) -> tasks.StringQueryPlan:
    """The strings job's plan shape: ``STRINGS_QUERIES`` random ``STRINGS_N``-bit queries."""
    draw = random.Random(SEED)
    return tasks.StringQueryPlan(
        tuple(BitString(STRINGS_N, draw.getrandbits(STRINGS_N)) for _ in range(STRINGS_QUERIES)),
        harness.DECIDERS[decider],
    )


def strings_game_pairs() -> list[Pair]:
    params = desk_params(STRINGS_N)
    per_seed = [partial(complement_sample, params, kind) for kind in (YES_STYLE, NO_STYLE)]
    instances = [partial(instance_answers, params, kind) for kind in (YES_STYLE, NO_STYLE)]
    blocks = [partial(sample_block_at, params, kind) for kind in (YES_STYLE, NO_STYLE)]
    pairs = []
    for decider in ("parity_yes", "all_zero_yes"):
        plan = strings_plan(decider)
        inputs = f"desk n = {STRINGS_N}, {STRINGS_QUERIES} queries, {STRINGS_TRIALS} trials, seed {SEED}"
        pairs.append(Pair(f"strings_game {decider}",
                          f"{inputs}, block answers against one trial at a time",
                          lambda plan=plan: per_trial_string_game(
                              *per_seed, plan, STRINGS_TRIALS, SEED).as_json_dict(),
                          lambda plan=plan: harness.run_game(
                              *blocks, plan, STRINGS_TRIALS, SEED).as_json_dict()))
        pairs.append(Pair(f"strings_game {decider}, instances",
                          f"{inputs}, block answers against one instance per trial",
                          lambda plan=plan: harness.run_game(
                              *instances, plan, STRINGS_TRIALS, SEED).as_json_dict(),
                          lambda plan=plan: harness.run_game(
                              *blocks, plan, STRINGS_TRIALS, SEED).as_json_dict()))
    return pairs


def stream_seeding_pairs() -> list[Pair]:
    """Each block user's draws: M's bounded draws, A's coins and D1's point coins."""
    seeds = Seed(SEED).mixes(range(STREAMS))
    params = desk_params(STRINGS_N)
    ranges = list(range(params.n, params.n - params.t, -1))
    count = params.n - params.t
    codes = sorted(random.Random(SEED).sample(range(1 << BUDGET_N), 3))
    cases = {
        "M": (f"bounded draws over {ranges}", lambda stream: stream.bounded(ranges).tolist()),
        "A": (f"below({count}, {params.q})", lambda stream: stream.below(count, params.q).tolist()),
        "d1": (f"below_at({codes}, 0.3)", lambda stream: stream.below_at(codes, 0.3).tolist()),
    }
    pairs = [Pair(f"{STREAMS} streams, role {role!r}",
                  f"{label}: one block against one one-row stream per seed",
                  lambda role=role, draw=draw: [row for seed in seeds
                                                for row in draw(RandomStream([seed], role))],
                  lambda role=role, draw=draw: draw(RandomStream(seeds, role)))
             for role, (label, draw) in cases.items()]
    side = "game-sseq/yes"
    rate = params.p
    pairs.append(Pair(f"one stream, {HIDDEN_BLOCK} coins",
                      f"one hidden-set game block at rate {rate}, seed {SEED}, role {side!r}: a "
                      "one-row read against the scalar reference stream",
                      lambda: ScalarStream(Seed(SEED), side).below(HIDDEN_BLOCK, rate)[0].tolist(),
                      lambda: RandomStream([Seed(SEED)], side).below(HIDDEN_BLOCK, rate)[0].tolist()))
    for n in PLAN_N:
        args = (n, GOOD_M_QUERIES, Seed(SEED), "goodM-plan", always_yes)
        pairs.append(Pair(f"goodM plan, n = {n}",
                          f"{GOOD_M_QUERIES} queries, seed {SEED}: random_string_plan against "
                          "the reference stream's words",
                          lambda args=args: reference_string_plan(*args),
                          lambda args=args: random_string_plan(*args)))
    return pairs


def budget_game_pairs() -> list[Pair]:
    budget = ExperimentConfig(desk_params(BUDGET_N, epsilon=0.01), "game", GAME_TRIALS, SEED)
    inputs = f"desk n = {BUDGET_N}, epsilon = 0.01, {GAME_TRIALS} trials, seed {SEED}"
    return [
        Pair("full tables", f"{inputs}, block game against one full sample_d1 table per trial",
             partial(full_table_budget_game, budget), lambda: budget_game(budget).csv_text()),
        Pair("point reads", f"{inputs}, block game against one trial at a time",
             partial(point_read_budget_game, budget), lambda: budget_game(budget).csv_text()),
    ]


def seed_derivation_pairs() -> list[Pair]:
    base = Seed(SEED)
    return [Pair("Seed.mixes", f"{MIX_INDICES} trial seeds of Seed({SEED}), one keyed state copied "
                 "per trial against one fresh keyed blake2b per trial",
                 lambda: [int.from_bytes(reference_digest(base, "mix", general_encoding(i)), "big")
                          for i in range(MIX_INDICES)],
                 lambda: [seed.value for seed in base.mixes(range(MIX_INDICES))])]


def explicit_table_pairs() -> list[Pair]:
    n, k = TAIL_DRAW_N, TAIL_DRAW_N - 2
    draws = tail_draws("verify_d2")
    kernel = [(g, k) for g in draws]
    job_n, job_k = DIST_JOB
    job, edges = d2(job_n), d2(EDGE_COUNTS_N)
    return [
        Pair(f"edge_counts n = {n}", f"{DRAWS} verify_d2 tables, n = {n}, epsilon = 2^-7, packed pass "
             "against one pass per direction",
             lambda: [per_direction_edge_counts(g) for g in draws],
             lambda: [bichromatic_edge_counts(g) for g in draws]),
        Pair(f"edge_counts n = {EDGE_COUNTS_N}", f"D2 table, n = {EDGE_COUNTS_N}, epsilon = {D2_EPSILON}",
             partial(per_direction_edge_counts, edges), partial(bichromatic_edge_counts, edges)),
        Pair(f"dist_to_k_junta ({n}, {k})", f"{DRAWS} verify_d2 tables, n = {n}, k = {k}, word adds "
             "against count adds",
             partial(count_adds, kernel), lambda: [distance_and_witness(f, k) for f, k in kernel]),
        Pair(f"dist_to_k_junta ({job_n}, {job_k})", f"D2 table, n = {job_n}, k = {job_k}, "
             f"epsilon = {D2_EPSILON}",
             partial(count_adds, [(job, job_k)]), lambda: [distance_and_witness(job, job_k)]),
        Pair("cli.main overhead", f"{CLI_CALLS} in-process calls of {' '.join(DTV_ARGV)}, "
             "one parser per process against one per call",
             partial(cli_calls, DTV_ARGV, CLI_CALLS, fresh_parser=True),
             partial(cli_calls, DTV_ARGV, CLI_CALLS, fresh_parser=False)),
    ]


def tail_pairs() -> list[Pair]:
    pairs = []
    for which, (name, sampler, epsilon) in TAIL_SAMPLERS.items():
        inputs = [(f"{DRAWS} {which} tables, n = {TAIL_DRAW_N}, epsilon = {epsilon}", tail_draws(which))]
        inputs += [(f"{name} table, n = {n}, epsilon = {epsilon}",
                    [sampler(n, epsilon, RandomStream([Seed(SEED)], name.lower()))]) for n in TAIL_N]
        pairs += [Pair(f"k = n - 1, {label}", f"{label}, closed form against the walk",
                       lambda tables=tables: [least_key_walk(g) for g in tables],
                       lambda tables=tables: [distance_and_witness(g, g.n - 1) for g in tables])
                  for label, tables in inputs]
    n = DIST_JOB[0]
    text = d2(n).serialize()
    pairs.append(Pair(f"deserialize n = {n}", f"D2 table, n = {n}, epsilon = {D2_EPSILON}, numpy "
                      "check on the encoded bytes against a set of characters",
                      partial(set_checked_deserialize, text), partial(TruthTable.deserialize, text)))
    return pairs


def structured_pairs() -> list[Pair]:
    pairs = []
    for n, epsilon in STRUCTURED_CASES:
        p = desk_params(n, epsilon=epsilon)
        seeds = Seed(SEED).mixes(range(2 * STRUCTURED_PER_KIND))
        draws = [(YES_STYLE, seeds[:STRUCTURED_PER_KIND]), (NO_STYLE, seeds[STRUCTURED_PER_KIND:])]
        fs = [f for kind, block in draws for f in sample_block(p, kind, block)]
        draw = random.Random(SEED)
        xs = [BitString(n, draw.getrandbits(n)) for _ in range(STRUCTURED_QUERIES)]
        label = (f"desk n = {n}, epsilon = {epsilon}, {STRUCTURED_PER_KIND} yes and "
                 f"{STRUCTURED_PER_KIND} no instances, seed {SEED}")
        pairs += [
            Pair(f"sampling n = {n}, epsilon = {epsilon}",
                 f"{label}, one block per kind against complement form per seed",
                 lambda draws=draws, p=p: [complement_sample(p, kind, seed)
                                           for kind, block in draws for seed in block],
                 lambda draws=draws, p=p: [f for kind, block in draws
                                           for f in sample_block(p, kind, block)]),
            Pair(f"to_table n = {n}, epsilon = {epsilon}", f"{label}, view fill against fiberwise",
                 lambda fs=fs: [fiberwise_table(f) for f in fs],
                 lambda fs=fs: [to_table(f) for f in fs]),
            Pair(f"eval_many n = {n}, epsilon = {epsilon}",
                 f"{label}, {STRUCTURED_QUERIES} random queries, batched against fiberwise",
                 lambda fs=fs, xs=xs: [fiberwise_eval_many(f, xs) for f in fs],
                 lambda fs=fs, xs=xs: [f.eval_many(xs) for f in fs]),
        ]
    for n in LAZY_N:
        p = desk_params(n)
        seeds = Seed(SEED).mixes(range(3))
        f = sample_yes(p, seeds[0])
        draw = random.Random(SEED)
        xs = [BitString(n, draw.getrandbits(n)) for _ in range(64)]
        label = f"desk n = {n}, t = {p.t}, |A| = {len(f.A)}, yes instance of Seed({SEED}).mix(0)"
        for count in (1, 64):
            pairs.append(Pair(f"lazy eval_many n = {n}, {count} queries",
                              f"{label}, {count} random queries, gather against fiberwise",
                              lambda xs=xs[:count], f=f: fiberwise_eval_many(f, xs),
                              lambda xs=xs[:count], f=f: f.eval_many(xs)))
        pairs.append(Pair(f"lazy sample_block_at n = {n}",
                          f"desk n = {n}, t = {p.t}, no-style seeds Seed({SEED}).mix(0..2), "
                          "16 random queries, block against one instance per seed",
                          lambda p=p, seeds=seeds, xs=xs[:16]:
                              instance_answers(p, NO_STYLE, seeds, xs).tolist(),
                          lambda p=p, seeds=seeds, xs=xs[:16]:
                              sample_block_at(p, NO_STYLE, seeds, xs).tolist()))
    for n in STRICT_LAZY_N:
        f = sample_no(derive_params(n, 0.75, 0.1), Seed(SEED))
        draw = random.Random(SEED)
        xs = [BitString(n, draw.getrandbits(n)) for _ in range(64)]
        label = f"strict D_no, n = {n}, t = {len(f.M)}, |A| = {len(f.A)}, seed {SEED}"
        pairs += [
            Pair(f"strict eval n = {n}, 1 query", f"{label}, one eval call against fiberwise",
                 lambda xs=xs, f=f: fiberwise_eval_many(f, xs[:1]),
                 lambda xs=xs, f=f: (f.eval(xs[0]),)),
            Pair(f"strict eval_many n = {n}, 64 queries",
                 f"{label}, 64 random queries, gather against fiberwise",
                 lambda xs=xs, f=f: fiberwise_eval_many(f, xs),
                 lambda xs=xs, f=f: f.eval_many(xs)),
        ]
        for count in (1, 64):
            bits = boolfn._code_bits(n, [x.code for x in xs[:count]])
            pairs.append(Pair(
                f"address gather n = {n}, t = {len(f.M)}, {count} queries",
                f"{label}, {count} random queries' bit matrix, one gather under M "
                "against address_index per query",
                lambda xs=xs[:count], M=f.M: [[chunk] for chunk in reference_chunks(
                    [address_index(M, x) for x in xs], len(M))],
                lambda bits=bits, M=f.M: boolfn._addresses(bits, [M.members]).tolist()))
    return pairs


def verify_sampling_pairs() -> list[Pair]:
    p = desk_params(DESK_N)
    pairs = []
    for count in VERIFY_SEEDS:
        seeds = Seed(SEED).mixes(range(count))
        for kind, style in (("yes", YES_STYLE), ("no", NO_STYLE)):
            pairs.append(Pair(
                f"{kind}, {count} seeds",
                f"desk n = {DESK_N}, seeds Seed({SEED}).mix(0..{count - 1}), one block "
                "against one complement_sample call per seed",
                lambda seeds=seeds, style=style: [complement_sample(p, style, seed) for seed in seeds],
                lambda seeds=seeds, style=style: list(sample_block(p, style, seeds))))
    return pairs


SECTIONS = {
    "to_table": to_table_pairs,
    "distance": distance_pairs,
    "matching": matching_pairs,
    "kernel": kernel_pairs,
    "frontier": frontier_pairs,
    "games": game_pairs,
    "strings_game": strings_game_pairs,
    "stream_seeding": stream_seeding_pairs,
    "budget_game": budget_game_pairs,
    "seed_derivation": seed_derivation_pairs,
    "explicit_tables": explicit_table_pairs,
    "tail": tail_pairs,
    "structured": structured_pairs,
    "verify_sampling": verify_sampling_pairs,
}


def main() -> int:
    cases, problems = [], []
    for section, pairs in SECTIONS.items():
        found, failed = compared(section, pairs())
        cases += found
        problems += failed
        for case in found:
            line = f"{section}: {case['name']}: {case['fast']['median_s']:.6f} s"
            if case["reference"] is not None:
                line += f", reference {case['reference']['median_s']:.6f} s, {case['speedup']:.1f}x"
            print(line, flush=True)
    result = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "seed": SEED,
        "params": "desk_params(n): alpha 0.75, epsilon 0.1; D2 tables: sample_d2(n, 0.1, "
                  "RandomStream([Seed(1)], 'd2'))",
        "cases": cases,
        "problems": problems,
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"wrote {OUTPUT}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
