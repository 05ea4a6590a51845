"""Experiment orchestration: verification suites, games, sweeps, and reporting.

Hard pass/fail checks are reserved for probability-1 structural facts and
exact-oracle equalities; every asymptotic claim is reported as a measured
fraction or curve.  Reports hold plain-dict rows so identical configs and
seeds always serialize to byte-identical CSV.

``trials`` means: sample count for verify_yes, per-side sample count for
verify_no, total game trials for game, and the number of addressing-set
draws for goodM; sseq_curve, dtv_sweep and claim53 are exact and ignore it.

A string-query game (``run_game``) hands each side the seeds of a block
of trials and the plan's queries, and gets one row of answers per trial
back: ``hardgen.sample_block_at`` for the structured instances, the D1
point reads for the budget game.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import binom_stats, tasks
from .boolfn import (
    NO_STYLE,
    YES_STYLE,
    BitString,
    IndexSet,
    TruthTable,
    bichromatic_edge_counts,
)
from .errors import InvalidInput
from .hardgen import (
    addressing_orders,
    check_d1,
    sample_block_tables,
    sample_d1,
    sample_d1_block_at,
    sample_d2,
)
from .junta_distance import dist_to_k_junta
from .params import DESK_SCALE, Params, derive_params
from .rng import RandomStream, Seed, coin, word_limit
from .tasks import (
    NO,
    YES,
    AnyPlan,
    ElementQueryPlan,
    SetQueryPlan,
    StringQueryPlan,
    exact_optimal_advantage,
    lift_equivalence_gap,
)

# The set-game success threshold, exposed for experiments rather than
# hard-coded at use sites.
SET_GAME_ADVANTAGE = 2.0 / 3.0

Z_95 = 1.959963984540054

DESK_ALPHA = 0.75
DESK_EPSILON = 0.1


def desk_params(n: int, alpha: float = DESK_ALPHA, epsilon: float = DESK_EPSILON) -> Params:
    """The canonical small-n parameter record used across experiments."""
    return derive_params(n, alpha, epsilon, DESK_SCALE)


def always_yes(bits: tuple[int, ...]) -> str:
    return YES


def always_no(bits: tuple[int, ...]) -> str:
    return NO


def all_zero_yes(bits: tuple[int, ...]) -> str:
    return YES if not any(bits) else NO


def all_equal_yes(bits: tuple[int, ...]) -> str:
    return YES if len(set(bits)) <= 1 else NO


def parity_yes(bits: tuple[int, ...]) -> str:
    return YES if sum(bits) % 2 == 0 else NO


DECIDERS: dict[str, tasks.Decider] = {
    "always_yes": always_yes,
    "always_no": always_no,
    "all_zero_yes": all_zero_yes,
    "all_equal_yes": all_equal_yes,
    "parity_yes": parity_yes,
}


def random_string_plan(
    n: int, q: int, seed: Seed, role: str, decider: tasks.Decider
) -> StringQueryPlan:
    """q uniformly random n-bit queries from the stream ``(seed, role)``, with the given decider.

    A query reads ceil(n / 64) raw words of the stream as one big-endian
    number, the first most significant, and keeps its top n bits: for
    n <= 64 the top n bits of one word.
    """
    per_query = -(-n // 64)
    data = RandomStream([seed], role).raw(q * per_query)[0].astype(">u8").tobytes()
    size = 8 * per_query
    values = [int.from_bytes(data[at:at + size], "big") >> (64 * per_query - n)
              for at in range(0, len(data), size)]
    return StringQueryPlan(queries=tuple(BitString(n, v) for v in values), decider=decider)


@dataclass(frozen=True)
class GameResult:
    advantage: float
    ci_low: float
    ci_high: float
    trials_yes: int
    trials_no: int
    cost: int

    def as_json_dict(self) -> dict:
        return {
            "advantage": self.advantage,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials": self.trials_yes + self.trials_no,
            "cost": self.cost,
        }


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentReport:
    experiment: str
    rows: list[dict] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def csv_text(self) -> str:
        if not self.rows:
            return "\n"
        header = list(self.rows[0].keys())
        lines = [",".join(header)]
        for row in self.rows:
            lines.append(",".join(_format_cell(row.get(k)) for k in header))
        return "\n".join(lines) + "\n"

    def failure_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "failed_checks": [
                {"name": c.name, "detail": c.detail} for c in self.checks if not c.passed
            ],
        }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    params: Params
    experiment: str
    trials: int
    seed: int
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidInput(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise InvalidInput(f"trials must be >= 1, got {self.trials}")
        Seed(self.seed)  # a seed outside [0, 2^64) raises InvalidInput


# A block answerer maps the seeds of a block of trials and a plan's queries
# to an array with one row of answers per seed.
BlockAnswerer = Callable[[Sequence[Seed], Sequence[BitString]], np.ndarray]

# Cells per block of a hidden-set game's coins: 2^15 cells keep the
# block's uint64 words at 256 KiB however many trials a game plays.
# Seeded trials (a string-query game, verify_yes, verify_no, goodM) come in
# blocks of GAME_BLOCK_CELLS // 128 = 256 trials (``_seed_blocks``): a
# block holds each trial's seed, the state words of its streams and the
# arrays drawn from them, about 80 KiB at its peak (``tracemalloc``) for a
# strings-game block at desk n = 12.
GAME_BLOCK_CELLS = 1 << 15


def _seed_blocks(seed: int, first: int, count: int) -> Iterator[list[Seed]]:
    """The seeds ``Seed(seed).mix(j)`` of trials ``first`` to ``first + count - 1``, in blocks.

    Each block holds at most ``GAME_BLOCK_CELLS // 128`` consecutive
    trials, so memory does not grow with ``count``; the block size
    changes no seed.
    """
    base = Seed(seed)
    block = max(1, GAME_BLOCK_CELLS // 128)
    for start in range(first, first + count, block):
        yield base.mixes(range(start, min(start + block, first + count)))


def _tally(trials: int, cost: int, count_yes: Callable[[str, int, int], int]) -> GameResult:
    """Play a game's trials and summarize them as a GameResult.

    The first half (rounded down) of the trials go to the yes side, the
    rest to the no side, and each side needs at least one.
    ``count_yes(side, first, count)`` plays the side's ``count`` trials,
    which are trials ``first`` to ``first + count - 1`` of the whole game,
    and returns how many of them the decider answered yes.  The 95%
    interval uses the normal approximation with pooled variance.
    """
    trials_yes = trials // 2
    trials_no = trials - trials_yes
    if trials_yes < 1 or trials_no < 1:
        raise InvalidInput(f"need at least 2 trials, got {trials}")
    yes_hits = count_yes(YES, 0, trials_yes)
    no_hits = count_yes(NO, trials_yes, trials_no)
    advantage = yes_hits / trials_yes - no_hits / trials_no
    pooled = (yes_hits + no_hits) / (trials_yes + trials_no)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / trials_yes + 1.0 / trials_no))
    return GameResult(
        advantage=advantage,
        ci_low=advantage - Z_95 * se,
        ci_high=advantage + Z_95 * se,
        trials_yes=trials_yes,
        trials_no=trials_no,
        cost=cost,
    )


def run_game(
    yes: BlockAnswerer | object,
    no: BlockAnswerer | object,
    algorithm: StringQueryPlan,
    trials: int,
    seed: int,
) -> GameResult:
    """Empirical advantage of a string plan at distinguishing two sides.

    A side is a block answerer or one fixed instance.  Trial number ``i``
    of the game draws its instance from seed ``Seed(seed).mix(i)``: each
    side hands the seeds of its trials, in the blocks of ``_seed_blocks``,
    and the plan's queries to its answerer, and the decider reads each
    row of answers as a tuple.  The answerers
    (``hardgen.sample_block_at``, the budget game's D1 reads) draw a
    block's streams as one ``RandomStream`` and build no instance.  A
    fixed instance gives every trial the same answers, so its side is
    decided once and derives no seed.
    """
    queries, decider = algorithm.queries, algorithm.decider
    sides = {YES: yes, NO: no}

    def count_yes(side: str, first: int, count: int) -> int:
        answerer = sides[side]
        if not callable(answerer):
            return count * (decider(answerer.eval_many(queries)) == YES)
        return sum(decider(tuple(row)) == YES for seeds in _seed_blocks(seed, first, count)
                   for row in answerer(seeds, queries).tolist())

    return _tally(trials, algorithm.q, count_yes)


def run_hidden_set_game(plan: AnyPlan, params: Params, trials: int, seed: int) -> GameResult:
    """Empirical advantage of the likelihood-threshold decider for a set or element plan.

    Element plans play the sseq game and set plans the sssq game.  Each
    side of a game has one stream, ``RandomStream([Seed(seed)],
    f"game-{mode}/{side}")``.  Every trial of the side reads the next
    ``m + width`` coins from it: first the m coins of ``sample_hidden``
    at the side's inclusion rate (p or q), then the ``width`` response
    coins of ``tasks.response_layout`` (width m for an element plan,
    ``plan.cost`` for a set plan), at the layout's rates.  That is the
    sequence a loop of ``sample_hidden(m, inclusion, stream)`` then
    ``tasks.respond(hidden, plan, epsilon, n, stream)`` consumes.

    The side draws its trials as C-order blocks of shape (rows, m + width),
    each at most ``GAME_BLOCK_CELLS`` cells (at least one row) of
    ``RandomStream.raw`` words that ``rng.coin`` compares with the side's
    one ``word_limit`` row, so memory does not grow with ``trials``; blocks
    read the stream in order, so the block size changes no output.
    ``tasks.batch_bayes_decider`` decides a block's trials at once,
    exactly as ``tasks.bayes_decide`` would.
    """
    m = plan.m
    if m < 1:
        raise InvalidInput(f"m must be positive, got {m}")
    element_of, responses = tasks.response_layout(plan, params.epsilon, params.n)
    width = len(element_of)
    mode = "sseq" if isinstance(plan, ElementQueryPlan) else "sssq"
    rows_per_block = max(1, GAME_BLOCK_CELLS // (m + width))
    game_seed = Seed(seed)
    inclusions = {YES: params.p, NO: params.q}
    decide = tasks.batch_bayes_decider(plan, params)

    def count_yes(side: str, first: int, count: int) -> int:
        stream = RandomStream([game_seed], f"game-{mode}/{side}")
        limits = word_limit(np.concatenate((np.full(m, inclusions[side]), responses)))
        yes = 0
        for done in range(0, count, rows_per_block):
            rows = min(rows_per_block, count - done)
            coins = coin(stream.raw(rows * (m + width)).reshape(rows, m + width), limits)
            bits = coins[:, element_of] & coins[:, m:]
            yes += int(np.count_nonzero(decide(bits)))
        return yes

    return _tally(trials, plan.cost, count_yes)


def verify_yes(config: ExperimentConfig) -> ExperimentReport:
    """Relevant-variable containment (exact, must be total) and junta frequency.

    Sample j is ``sample_yes`` at ``Seed(config.seed).mix(j)``, tabulated
    with its pool mask in blocks by ``sample_block_tables``, one table at
    a time; no instance is built.  Its relevant variables lie in M ∪ A
    when every coordinate outside has no bichromatic edge, and it is a
    k-junta by construction when |M ∪ A| <= k.
    Runs at any n that ``to_table`` accepts (n <= TABLE_CAP).
    """
    params = config.params
    contained = 0
    junta = 0
    for seeds in _seed_blocks(config.seed, 0, config.trials):
        for table, pool in sample_block_tables(params, YES_STYLE, seeds):
            counts = bichromatic_edge_counts(TruthTable(params.n, table))
            contained += not any(count for count, inside in zip(counts, pool) if not inside)
            junta += sum(pool) <= params.k
    slack = params.k - params.t - params.p * params.m
    floor = 1.0 - math.exp(-2.0 * slack * slack / params.m) if slack > 0 else 0.0
    report = ExperimentReport("verify_yes")
    report.rows.append(
        {
            "experiment": "verify_yes",
            "n": params.n,
            "k": params.k,
            "trials": config.trials,
            "containment_fraction": contained / config.trials,
            "junta_fraction": junta / config.trials,
            "junta_floor_hoeffding": floor,
        }
    )
    report.checks.append(
        CheckResult(
            "relevant_variables_subset_of_pool",
            contained == config.trials,
            f"{contained}/{config.trials} samples contained",
        )
    )
    return report


def verify_no(config: ExperimentConfig) -> ExperimentReport:
    """Exact far-fractions under both samplers and the pool-size gap.

    The yes side's sample j is ``sample_yes`` at ``Seed(config.seed).mix(j)``
    and the no side's is ``sample_no`` at ``mix(trials + j)``, tabulated
    with their pool masks in blocks by ``sample_block_tables``, one table
    at a time; no instance is built, and the pool sizes are the masks'.
    Runs at any n that ``dist_to_k_junta`` accepts (n <= DIST_CAP).
    """
    params = config.params
    trials = config.trials

    def side(kind: str, offset: int) -> tuple[int, list[int]]:
        far = 0
        pool_sizes = []
        for seeds in _seed_blocks(config.seed, offset, trials):
            for table, pool in sample_block_tables(params, kind, seeds):
                rep = dist_to_k_junta(TruthTable(params.n, table), params.k, params.epsilon)
                far += int(bool(rep.far))
                pool_sizes.append(sum(pool))
        return far, pool_sizes

    far_yes, pools_yes = side(YES_STYLE, 0)
    far_no, pools_no = side(NO_STYLE, trials)

    gap = float(np.mean(pools_no) - np.mean(pools_yes))
    expected_gap = (params.q - params.p) * params.m
    sigma = math.sqrt(
        params.q * (1.0 - params.q) * params.m / trials
        + params.p * (1.0 - params.p) * params.m / trials
    )
    big_pool_gap = params.delta * math.sqrt(params.n) * math.log2(params.n)
    big_pool_freq = float(np.mean([s >= params.k + big_pool_gap for s in pools_no]))

    report = ExperimentReport("verify_no")
    report.rows.append(
        {
            "experiment": "verify_no",
            "n": params.n,
            "k": params.k,
            "epsilon": params.epsilon,
            "trials_per_side": trials,
            "far_fraction_no": far_no / trials,
            "far_fraction_yes": far_yes / trials,
            "pool_gap": gap,
            "expected_pool_gap": expected_gap,
            "pool_gap_sigma": sigma,
            "oversize_pool_freq_no": big_pool_freq,
        }
    )
    report.checks.append(
        CheckResult(
            "far_fraction_order",
            far_no >= far_yes,
            f"far(no) = {far_no}/{trials}, far(yes) = {far_yes}/{trials}",
        )
    )
    report.checks.append(
        CheckResult(
            "pool_gap_within_3_sigma",
            abs(gap - expected_gap) <= 3.0 * sigma,
            f"gap {gap:.6g} vs expected {expected_gap:.6g} (sigma {sigma:.6g})",
        )
    )
    return report


def _tail_experiment(config: ExperimentConfig, which: str) -> ExperimentReport:
    """Shared body of verify_d1 / verify_d2: certificates then exact distance.

    A sample is certified when every single direction has at least
    epsilon * 2^n bichromatic edges; edges of one direction share no
    vertex, so that count is the direction's maximum disjoint matching.
    At k = n - 1 the exact distance is the same count: ``dist_to_k_junta``
    returns the least direction count over 2^n, so a certified sample is
    far by construction and ``certificate_soundness`` cannot fail.  The
    distance reuses the certificate's counts, so each sample takes one
    edge-count pass.  Sample j is drawn from the one-row stream
    ``RandomStream([Seed(config.seed).mix(j)], which)``, its seed from
    ``_seed_blocks``.  Runs at any n that ``dist_to_k_junta`` accepts (n <= DIST_CAP).
    """
    params = config.params
    n, epsilon = params.n, params.epsilon
    sampler = sample_d1 if which == "verify_d1" else sample_d2
    threshold = epsilon * (1 << n)
    certified = 0
    far = 0
    sound = True
    for seed in chain.from_iterable(_seed_blocks(config.seed, 0, config.trials)):
        g = sampler(n, epsilon, RandomStream([seed], which))
        counts = bichromatic_edge_counts(g)
        is_certified = min(counts) >= threshold
        rep = dist_to_k_junta(g, n - 1, epsilon, counts)
        certified += int(is_certified)
        far += int(bool(rep.far))
        if is_certified and not rep.far:
            sound = False
    report = ExperimentReport(which)
    report.rows.append(
        {
            "experiment": which,
            "n": n,
            "epsilon": epsilon,
            "trials": config.trials,
            "certified_fraction": certified / config.trials,
            "far_fraction": far / config.trials,
        }
    )
    report.checks.append(
        CheckResult(
            "certificate_soundness",
            sound,
            "every certified sample is exactly far" if sound else "a certified sample was near",
        )
    )
    return report


def verify_d1(config: ExperimentConfig) -> ExperimentReport:
    return _tail_experiment(config, "verify_d1")


def verify_d2(config: ExperimentConfig) -> ExperimentReport:
    return _tail_experiment(config, "verify_d2")


def budget_game(config: ExperimentConfig) -> ExperimentReport:
    """All-zero function versus the Bernoulli tail sampler at budget floor(1/(30 eps)).

    The plan queries uniformly random strings and answers yes on an
    all-zero reply; with this few queries the reply is almost always all
    zero on both sides, so the advantage must sit below the set-game
    threshold.  The plan comes from ``random_string_plan`` on the stream
    ``(seed, "budget-game-plan")``, drawn only once n and epsilon pass
    ``check_d1``, so an n above the table cap fails as ``TooLarge``
    however large.  No-side trial ``i`` reads the D1 table of
    ``RandomStream([Seed(seed).mix(i)], "d1")`` at the plan's queries
    only: each block of trials is one ``RandomStream`` read at the plan's
    distinct codes (``sample_d1_block_at``), so the result equals that of
    full ``sample_d1`` tables.
    """
    params = config.params
    n, epsilon = params.n, params.epsilon
    budget = math.floor(1.0 / (30.0 * epsilon))
    if budget < 1:
        raise InvalidInput(f"budget floor(1/(30*{epsilon})) vanishes; lower epsilon")
    check_d1(n, epsilon)  # no plan for a table too large to read
    algorithm = random_string_plan(n, budget, Seed(config.seed), "budget-game-plan", all_zero_yes)

    def no_side(seeds: Sequence[Seed], queries: Sequence[BitString]) -> np.ndarray:
        return sample_d1_block_at(n, epsilon, RandomStream(seeds, "d1"), [x.code for x in queries])

    result = run_game(
        yes=TruthTable.constant(n, 0),
        no=no_side,
        algorithm=algorithm,
        trials=config.trials,
        seed=config.seed,
    )
    report = ExperimentReport("game")
    row = {"experiment": "game", "n": n, "epsilon": epsilon, "budget": budget}
    row.update(result.as_json_dict())
    report.rows.append(row)
    report.checks.append(
        CheckResult(
            "advantage_below_set_game_threshold",
            result.ci_high < SET_GAME_ADVANTAGE,
            f"ci_high = {result.ci_high:.6g} vs threshold {SET_GAME_ADVANTAGE:.6g}",
        )
    )
    return report


def sseq_curve(config: ExperimentConfig) -> ExperimentReport:
    """Exact optimal advantage of uniform element plans over a budget grid.

    Step s queries each of the m elements s times, for s = 0..16.  The
    advantage comes from per-count binomial laws, so every m is exact.
    """
    params = config.params
    m = params.m
    report = ExperimentReport("sseq_curve")
    advantages = []
    for per_element in range(17):
        advantage = exact_optimal_advantage(ElementQueryPlan.uniform(m, per_element), params)
        advantages.append(advantage)
        report.rows.append(
            {
                "experiment": "sseq_curve",
                "m": m,
                "budget": per_element * m,
                "advantage": advantage,
            }
        )
    report.checks.append(
        CheckResult(
            "zero_budget_zero_advantage",
            advantages[0] == 0.0,
            f"advantage at budget 0 is {advantages[0]!r}",
        )
    )
    monotone = all(b >= a - 1e-12 for a, b in zip(advantages, advantages[1:]))
    report.checks.append(
        CheckResult(
            "curve_non_decreasing",
            monotone,
            "advantage grid is non-decreasing" if monotone else f"grid: {advantages}",
        )
    )
    return report


# The hit rates and the largest trial count of ``dtv_sweep``'s bound sweep.
_BOUND_SWEEP_RATES = (0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0)
_BOUND_SWEEP_TOP = 256


def dtv_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Shift-bound sweep plus the budget-scaled distance curve across scales.

    Sweep: every trial count c = 1..256 against a grid of hit rates lam,
    at r = p * lam and r' = min(r + (q - p) * lam, 1), must respect the
    shift bound wherever it applies (``binom_stats.shift_bound_sweep``).
    Curve: per-bin counts are fixed to the largest family valid at every
    grid scale, then the L-scaled exact distance must fall as n grows.
    """
    params = config.params
    report = ExperimentReport("dtv_sweep")
    p, q = params.p, params.q
    applicable, violations, worst_margin = binom_stats.shift_bound_sweep(
        [(p * lam, (q - p) * lam) for lam in _BOUND_SWEEP_RATES], _BOUND_SWEEP_TOP)
    report.rows.append(
        {
            "experiment": "dtv_sweep",
            "section": "bound_sweep",
            "p": p,
            "q": q,
            "cells": applicable,
            "violations": violations,
            "worst_margin": worst_margin,
            "n": 0,
            "scaled_dtv": 0.0,
        }
    )
    report.checks.append(
        CheckResult(
            "bound_holds_everywhere",
            violations == 0,
            f"{violations} violations over {applicable} applicable cells",
        )
    )

    grid = [1 << 10, 1 << 12, 1 << 14]
    records = [derive_params(n, params.alpha, min(params.epsilon, 1 / 6)) for n in grid]
    budget = 2.0 * min(rec.s for rec in records)
    family = []
    j = 0
    while (count := math.floor(budget / (1 << j))) >= 1:
        family.append((j, count))
        j += 1
    curve = []
    for rec in records:
        scaled = 0.0
        for j, count in family:
            lam = binom_stats.bin_hit_prob(j, rec.epsilon, rec.n)
            d = binom_stats.exact_dtv(
                binom_stats.BinomialSpec(count, rec.p * lam),
                binom_stats.BinomialSpec(count, rec.q * lam),
            )
            scaled = max(scaled, d * rec.L)
        curve.append(scaled)
        report.rows.append(
            {
                "experiment": "dtv_sweep",
                "section": "scale_curve",
                "p": rec.p,
                "q": rec.q,
                "cells": len(family),
                "violations": 0,
                "worst_margin": 0.0,
                "n": rec.n,
                "scaled_dtv": scaled,
            }
        )
    decreasing = all(b < a for a, b in zip(curve, curve[1:]))
    report.checks.append(
        CheckResult(
            "scaled_dtv_decreasing_in_n",
            decreasing,
            f"curve over {grid}: {[f'{v:.6g}' for v in curve]}",
        )
    )
    return report


def claim53_pairs():
    """Every (m, plan, hidden set) of the claim53 sweep, 668 in all.

    For m = 1, 2, 3: every plan of one or two set queries over [m] (each
    query any subset, the empty one included), against every hidden set A.
    Each m's subsets are built once, as ``IndexSet``s that serve as both
    queries and hidden sets, and each plan once, so the sweep's 668 pairs
    share 98 plans and 14 sets.
    """
    for m in (1, 2, 3):
        subsets = [IndexSet(m, tuple(i + 1 for i in range(m) if (mask >> i) & 1))
                   for mask in range(1 << m)]
        for queries in [(T,) for T in subsets] + [(a, b) for a in subsets for b in subsets]:
            plan = SetQueryPlan(m, queries)
            for A in subsets:
                yield m, plan, A


def lift_equivalence_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Exhaustive equivalence of direct and lifted response laws on ``claim53_pairs``.

    Both laws are products over the queried elements, in element order,
    of a local law fixed by whether the element is in A and by its count
    r, so the gap depends only on that sequence of (member, r) pairs; each
    distinct sequence (85 among the 668 pairs) is computed once.  The
    pairs come plan by plan, so each plan's counts are computed once.
    """
    params = config.params
    report = ExperimentReport("claim53")
    worst: dict[int, float] = {}
    gaps: dict[tuple, float] = {}
    combos = 0
    counted_plan = None
    for m, plan, A in claim53_pairs():
        if plan is not counted_plan:
            counted_plan, counts = plan, tasks.set_plan_to_element_counts(plan).counts
        members = set(A.members)
        key = tuple((j in members, r) for j, r in enumerate(counts, 1) if r > 0)
        if key not in gaps:
            gaps[key] = lift_equivalence_gap(A, plan, params.epsilon, params.n)
        worst[m] = max(worst.get(m, 0.0), gaps[key])
        combos += 1
    for m, local_max in worst.items():
        report.rows.append({"experiment": "claim53", "m": m, "max_tv_gap": local_max})
    overall_max = max(worst.values())
    report.checks.append(
        CheckResult(
            "lift_equivalence_exact",
            overall_max <= 1e-9,
            f"max TV gap {overall_max:.3g} over {combos} (plan, hidden set) combos",
        )
    )
    return report


def good_m(config: ExperimentConfig) -> ExperimentReport:
    """Monte-Carlo separation failure rate against the pairwise union bound.

    The plan X is ``random_string_plan`` on the stream ``(seed,
    "goodM-plan")``, at any n.  It is fixed, so its far pairs
    (``tasks.far_pair_codes``) are listed once; each draw of M is then one
    mask test per far pair, the same verdict as ``tasks.is_separating``.
    Draw j's M is the addressing set of ``sample_yes`` at
    ``Seed(config.seed).mix(j)``, drawn in the blocks of ``_seed_blocks``
    by ``hardgen.addressing_orders``.  When X has no far pair (at desk
    scale tau exceeds n) every M separates, so no M is drawn and the bad
    fraction is exactly 0.
    """
    params = config.params
    q_queries = 20
    X = random_string_plan(params.n, q_queries, Seed(config.seed), "goodM-plan", always_yes)
    far_codes = tasks.far_pair_codes(X, params.tau)
    bad = 0
    for seeds in _seed_blocks(config.seed, 0, config.trials if far_codes else 0):
        for drawn in addressing_orders(params, seeds).tolist():
            M = IndexSet(params.n, tuple(sorted(drawn[:params.t])))
            bad += not tasks.separates(M, far_codes)
    frac = bad / config.trials
    bound = q_queries**2 * (1.5 - params.alpha) ** params.tau
    sigma = math.sqrt(frac * (1.0 - frac) / config.trials)
    report = ExperimentReport("goodM")
    report.rows.append(
        {
            "experiment": "goodM",
            "n": params.n,
            "q": q_queries,
            "tau": params.tau,
            "draws": config.trials,
            "bad_fraction": frac,
            "union_bound": bound,
            "sigma": sigma,
        }
    )
    report.checks.append(
        CheckResult(
            "bad_fraction_within_union_bound",
            frac <= bound + 3.0 * sigma,
            f"bad fraction {frac:.6g} vs bound {bound:.6g} + 3 sigma",
        )
    )
    return report


_DISPATCH: dict[str, Callable[[ExperimentConfig], ExperimentReport]] = {
    "verify_yes": verify_yes,
    "verify_no": verify_no,
    "verify_d1": verify_d1,
    "verify_d2": verify_d2,
    "game": budget_game,
    "sseq_curve": sseq_curve,
    "dtv_sweep": dtv_sweep,
    "claim53": lift_equivalence_sweep,
    "goodM": good_m,
}

EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    return _DISPATCH[config.experiment](config)


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def run_all(config: ExperimentConfig) -> tuple[int, ExperimentReport]:
    """Run the configured experiment; write its CSV; exit code 0 or 1."""
    report = run_experiment(config)
    if config.output_path:
        write_atomic(config.output_path, report.csv_text())
    return (0 if report.passed else 1), report
