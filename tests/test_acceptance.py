"""Acceptance gate: one test per criterion, each printing its own verdict.

Tolerances and runtime budgets are frozen here.  Hard assertions cover
probability-1 facts and exact-oracle equalities; sampled comparisons use
the stated sigma windows under fixed seeds, so the whole module is
deterministic.
"""

import math
import time
from contextlib import contextmanager
from functools import partial
from itertools import product

import numpy as np

from junta_lab.binom_stats import (
    BinomialSpec,
    exact_dtv,
    pmf_vector,
    product_dtv,
    tv_shift_bound,
)
from junta_lab.boolfn import (
    NO_STYLE,
    YES_STYLE,
    BitString,
    IndexSet,
    flip,
    relevant_variables,
    to_table,
)
from junta_lab.hardgen import sample_block
from junta_lab.harness import (
    SET_GAME_ADVANTAGE,
    ExperimentConfig,
    all_equal_yes,
    claim53_pairs,
    desk_params,
    run_experiment,
)
from junta_lab.junta_distance import dist_to_k_junta
from junta_lab.rng import RandomStream, Seed
from junta_lab.tasks import (
    YES,
    ElementQueryPlan,
    StringQueryPlan,
    build_set_queries,
    exact_optimal_advantage,
    is_separating,
    lift_equivalence_gap,
    sample_hidden,
    set_plan_to_element_counts,
    simulate_distinguisher,
    sssq_respond,
)
from references import complement_sample


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def test_lift_equivalence_exact_sweep():
    # all set-query plans with m <= 3, d <= 2, |T_i| <= 3, every hidden set
    with criterion("lift_equivalence_sweep", 10.0):
        params = desk_params(10)
        gaps = [
            lift_equivalence_gap(A, plan, params.epsilon, params.n)
            for _, plan, A in claim53_pairs()
        ]
        assert len(gaps) == 668
        assert max(gaps) <= 1e-9, f"max TV gap {max(gaps)}"


def test_advantage_monotone_in_query_counts():
    with criterion("advantage_monotonicity", 10.0):
        params = desk_params(64)
        lattice = {
            ell: exact_optimal_advantage(ElementQueryPlan.of(ell), params)
            for ell in product(range(3), repeat=3)
        }
        violations = 0
        for ell, value in lattice.items():
            for d in range(3):
                bumped = list(ell)
                bumped[d] += 1
                key = tuple(bumped)
                if key in lattice and lattice[key] < value - 1e-12:
                    violations += 1
        assert violations == 0


def test_yes_instances_stay_inside_their_pool():
    # every relevant variable of a yes-instance lies inside M union A
    with criterion("pool_containment", 60.0):
        params = desk_params(10)
        base = Seed(20260810)
        for j, f in enumerate(sample_block(params, YES_STYLE, base.mixes(range(500)))):
            rel = relevant_variables(to_table(f))
            pool = set(f.M.members) | set(f.A.members)
            assert set(rel.members) <= pool, f"sample {j} escaped its pool"


def test_no_side_is_farther_and_pool_gap_matches():
    with criterion("far_direction_and_pool_gap", 300.0):
        params = desk_params(10)
        trials = 200
        base = Seed(77001)
        far = {"yes": 0, "no": 0}
        pools = {"yes": [], "no": []}
        for side, kind, offset in (("yes", YES_STYLE, 0), ("no", NO_STYLE, trials)):
            for f in sample_block(params, kind, base.mixes(range(offset, offset + trials))):
                report = dist_to_k_junta(to_table(f), params.k, params.epsilon)
                far[side] += int(bool(report.far))
                pools[side].append(len(f.M) + len(f.A))
        assert far["no"] >= far["yes"]
        gap = float(np.mean(pools["no"])) - float(np.mean(pools["yes"]))
        expected = (params.q - params.p) * params.m
        sigma = math.sqrt(
            params.q * (1 - params.q) * params.m / trials
            + params.p * (1 - params.p) * params.m / trials
        )
        assert abs(gap - expected) <= 3 * sigma


def test_binomial_engine():
    with criterion("binomial_engine", 30.0):
        assert exact_dtv(BinomialSpec(1, 0.5), BinomialSpec(1, 0.75)) == 0.25

        for c in (1, 7, 64, 512, 1000, 4096, 10_000):
            for r in (0.001, 0.3, 0.5, 0.97):
                total = math.fsum(pmf_vector(BinomialSpec(c, r)).tolist())
                assert abs(total - 1.0) <= 1e-12, (c, r)

        params = desk_params(10)
        p, q = params.p, params.q
        checked = 0
        for c in range(1, 257):
            for lam in (0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0):
                r = p * lam
                x = (q - p) * lam
                bound = tv_shift_bound(x, c, r) if 0.0 < r < 1.0 else None
                if bound is None:
                    continue
                checked += 1
                actual = exact_dtv(BinomialSpec(c, r), BinomialSpec(c, min(q * lam, 1.0)))
                assert actual <= bound, (c, lam, actual, bound)
        assert checked > 500


def test_subadditivity_of_product_tv():
    with criterion("subadditivity", 10.0):
        rng = np.random.default_rng(424242)
        for trial in range(100):
            width = int(rng.integers(1, 4))
            pairs = []
            for _ in range(width):
                c = int(rng.integers(1, 7))
                pairs.append(
                    (BinomialSpec(c, float(rng.random())), BinomialSpec(c, float(rng.random())))
                )
            joint = product_dtv(pairs)
            assert joint <= sum(exact_dtv(a, b) for a, b in pairs) + 1e-12, trial


def test_reduction_cost_accounting():
    with criterion("reduction_cost_accounting", 10.0):
        params = desk_params(12)
        n = params.n
        rng = np.random.default_rng(9911)
        checked = 0
        for trial in range(100):
            q = int(rng.integers(2, 21))
            X = StringQueryPlan(
                queries=tuple(BitString(n, int(v)) for v in rng.integers(0, 1 << n, size=q)),
                decider=lambda bits: YES,
            )
            members = sorted(int(i) + 1 for i in rng.choice(n, size=params.t, replace=False))
            M = IndexSet.of(n, members)
            assert is_separating(M, X, params.tau)
            plan = build_set_queries(X, M, params.tau)
            assert plan.set_plan.cost <= params.tau * q

            counts = set_plan_to_element_counts(plan.set_plan)
            assert counts.cost == plan.set_plan.cost
            checked += 1
        assert checked == 100


def test_good_m_union_bound():
    with criterion("good_m_union_bound", 60.0):
        config = ExperimentConfig(
            params=desk_params(12), experiment="goodM", trials=10_000, seed=31337
        )
        report = run_experiment(config)
        row = report.rows[0]
        assert row["q"] == 20 and row["draws"] == 10_000
        assert row["bad_fraction"] <= row["union_bound"] + 3 * row["sigma"]


def test_pipeline_matches_direct_simulation():
    # the set-query simulation of a string plan answers yes exactly as often
    # as querying a conditioned structured instance directly
    with criterion("pipeline_equivalence", 120.0):
        params = desk_params(6)
        n = params.n
        M = IndexSet.of(n, [3])
        assert params.t == 1
        outside = [i for i in range(1, n + 1) if i != 3]
        x0 = BitString.zeros(n)
        a, b = outside[0], outside[3]
        X = StringQueryPlan(
            queries=(x0, flip(x0, a), flip(x0, b), flip(flip(x0, a), b)),
            decider=all_equal_yes,
        )

        trials = 10_000
        hidden, oracle_stream, fn_stream = (RandomStream([Seed(5150)], f"pipeline/{part}")
                                            for part in ("h", "s", "g"))
        pipe_hits = 0
        for _ in range(trials):
            A = sample_hidden(params.m, params.p, hidden)
            oracle = partial(
                sssq_respond, A, epsilon=params.epsilon, n=params.n, stream=oracle_stream
            )
            if simulate_distinguisher(X, M, params, oracle, fn_stream) == YES:
                pipe_hits += 1

        base = Seed(6060)
        direct_hits = 0
        for j in range(trials):
            f = complement_sample(params, YES_STYLE, base.mix(j), M)
            bits = tuple(f.eval(xq) for xq in X.queries)
            if X.decider(bits) == YES:
                direct_hits += 1

        p_pipe = pipe_hits / trials
        p_direct = direct_hits / trials
        sigma = math.sqrt(
            p_pipe * (1 - p_pipe) / trials + p_direct * (1 - p_direct) / trials
        )
        assert abs(p_pipe - p_direct) <= 3 * max(sigma, 1e-9), (p_pipe, p_direct)


def test_sseq_budget_curve():
    with criterion("sseq_budget_curve", 60.0):
        params = desk_params(10)
        assert params.m == 8
        config = ExperimentConfig(
            params=params, experiment="sseq_curve", trials=1, seed=1
        )
        report = run_experiment(config)
        advantages = [row["advantage"] for row in report.rows]
        assert advantages[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(advantages, advantages[1:]))


def test_tiny_budget_game_stays_below_threshold():
    # all-zero versus the Bernoulli tail at budget floor(1/(30 eps)) = 3
    with criterion("tiny_budget_game", 60.0):
        config = ExperimentConfig(
            params=desk_params(14, epsilon=0.01),
            experiment="game",
            trials=10_000,
            seed=90210,
        )
        report = run_experiment(config)
        row = report.rows[0]
        assert row["budget"] == 3
        assert row["trials"] == 10_000
        assert row["ci_high"] < SET_GAME_ADVANTAGE
