"""Experiment runners: games, verification suites, sweeps, and reporting."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from junta_lab import harness, params as params_mod, tasks
from junta_lab.boolfn import NO_STYLE, YES_STYLE, BitString, TruthTable
from junta_lab.errors import InvalidInput, TooLarge
from junta_lab.hardgen import sample_block_at
from junta_lab.harness import (
    DECIDERS,
    EXPERIMENTS,
    SET_GAME_ADVANTAGE,
    CheckResult,
    ExperimentConfig,
    ExperimentReport,
    GameResult,
    all_equal_yes,
    all_zero_yes,
    always_yes,
    desk_params,
    parity_yes,
    random_string_plan,
    run_all,
    run_experiment,
    run_game,
    write_atomic,
)
from junta_lab.rng import Seed
from junta_lab.tasks import NO, YES, StringQueryPlan
from references import (
    complement_sample,
    full_table_budget_game,
    instance_verify_no,
    instance_verify_yes,
    per_trial_string_game,
    point_read_budget_game,
)


def test_decider_registry():
    assert set(DECIDERS) == {
        "always_yes",
        "always_no",
        "all_zero_yes",
        "all_equal_yes",
        "parity_yes",
    }
    assert all_zero_yes((0, 0)) == YES and all_zero_yes((0, 1)) == NO
    assert all_equal_yes((1, 1, 1)) == YES and all_equal_yes((1, 0)) == NO


def test_run_game_constant_decider():
    plan = random_string_plan(4, 3, Seed(1), "p", always_yes)
    result = run_game(TruthTable.constant(4, 0), TruthTable.constant(4, 1), plan, 400, 7)
    assert result.advantage == 0.0
    assert result.ci_low <= 0.0 <= result.ci_high
    assert result.trials_yes + result.trials_no == 400
    assert result.cost == 3


def test_run_game_fixed_instances_derive_no_seed(monkeypatch):
    # each fixed side is decided once: no trial seed, one evaluation per side
    def no_seeds(self, indices):
        raise AssertionError("a fixed side derived trial seeds")

    monkeypatch.setattr(Seed, "mixes", no_seeds)
    evaluations = []

    class Counted(TruthTable):
        def eval_many(self, xs):
            evaluations.append(self)
            return super().eval_many(xs)

    zero, one = Counted(4, np.zeros(16)), Counted(4, np.ones(16))
    plan = random_string_plan(4, 3, Seed(1), "p", all_zero_yes)
    result = run_game(zero, one, plan, 401, 7)
    assert (result.trials_yes, result.trials_no, result.advantage) == (200, 201, 1.0)
    assert evaluations == [zero, one]


def test_run_game_identical_samplers():
    # with one sampler on both sides each game's 95% interval covers 0 with
    # chance 0.95, so at most 7 of 40 games miss it but with chance 7e-4
    params = desk_params(6)
    plan = random_string_plan(6, 2, Seed(2), "p", all_equal_yes)
    gen = partial(sample_block_at, params, YES_STYLE)
    results = [run_game(gen, gen, plan, 2000, seed) for seed in range(40)]
    assert sum(not r.ci_low <= 0.0 <= r.ci_high for r in results) <= 7


def test_run_game_single_query_bit_decider():
    # a single query returns an unbiased bit under both samplers, so the
    # exact advantage (by enumerating address and pool conditioning) is 0
    params = desk_params(6)
    x = BitString.from_text("010101")
    plan = StringQueryPlan(queries=(x,), decider=lambda bits: YES if bits[0] else NO)
    result = run_game(
        partial(sample_block_at, params, YES_STYLE),
        partial(sample_block_at, params, NO_STYLE),
        plan,
        4000,
        13,
    )
    assert result.ci_low <= 0.0 <= result.ci_high


STRINGS_PARAMS = desk_params(8, epsilon=1.0)


def strings_plan(seed, decider):
    return random_string_plan(8, 12, Seed(seed), "plan", decider)


@pytest.mark.parametrize("decider", [parity_yes, all_zero_yes])
@pytest.mark.parametrize("trials, seed", [(2, 0), (3, 1), (301, 7)])
def test_run_game_equals_the_per_trial_loop(decider, trials, seed):
    plan = strings_plan(seed, decider)
    blocked = run_game(partial(sample_block_at, STRINGS_PARAMS, YES_STYLE),
                       partial(sample_block_at, STRINGS_PARAMS, NO_STYLE), plan, trials, seed)
    loop = per_trial_string_game(partial(complement_sample, STRINGS_PARAMS, YES_STYLE),
                                 partial(complement_sample, STRINGS_PARAMS, NO_STYLE),
                                 plan, trials, seed)
    assert blocked == loop


def test_run_game_block_size_changes_nothing(monkeypatch):
    """Blocks of 3 trials hand the answerers the seeds of one block of 256 in the same order."""
    plan = strings_plan(5, parity_yes)
    blocks = []

    def answerer(kind):
        def answer(seeds, queries):
            assert queries == plan.queries
            blocks.append(len(seeds))
            return sample_block_at(STRINGS_PARAMS, kind, seeds, queries)
        return answer

    whole = run_game(answerer(YES_STYLE), answerer(NO_STYLE), plan, 301, 7)
    assert blocks == [150, 151]
    blocks.clear()
    monkeypatch.setattr(harness, "GAME_BLOCK_CELLS", 128 * 3 + 127)
    blocked = run_game(answerer(YES_STYLE), answerer(NO_STYLE), plan, 301, 7)
    assert blocks == [3] * 50 + [3] * 50 + [1]
    assert blocked == whole


def test_run_game_holds_one_block_of_answers_at_a_time(monkeypatch):
    alive, most = [0], [0]

    def released():
        alive[0] -= 1

    def answerer(kind):
        def answer(seeds, queries):
            rows = sample_block_at(STRINGS_PARAMS, kind, seeds, queries)
            alive[0] += 1
            most[0] = max(most[0], alive[0])
            weakref.finalize(rows, released)
            return rows
        return answer

    monkeypatch.setattr(harness, "GAME_BLOCK_CELLS", 128 * 16)
    run_game(answerer(YES_STYLE), answerer(NO_STYLE), strings_plan(3, parity_yes), 400, 3)
    # 26 blocks of at most 16 trials; each is dropped before the next is drawn
    assert alive[0] == 0 and most[0] == 1


def test_block_games_build_no_bit_generator(monkeypatch):
    # block streams are arrays: neither the strings game nor the budget game,
    # plan included, builds a PCG64, however many trials it plays
    plan = strings_plan(4, parity_yes)
    built = []
    numpy_pcg64 = np.random.PCG64

    def counted(*args):
        built.append(args)
        return numpy_pcg64(*args)

    monkeypatch.setattr(np.random, "PCG64", counted)
    run_game(partial(sample_block_at, STRINGS_PARAMS, YES_STYLE),
             partial(sample_block_at, STRINGS_PARAMS, NO_STYLE), plan, 600, 2)
    assert built == []
    run_experiment(budget_config(1, trials=600))
    assert built == []


VERIFY_CONFIGS = [
    ExperimentConfig(params=desk_params(10), experiment="verify_yes", trials=20, seed=1),
    ExperimentConfig(params=desk_params(10), experiment="verify_no", trials=10, seed=1),
    ExperimentConfig(params=dataclasses.replace(desk_params(12), tau=8), experiment="goodM",
                     trials=40, seed=2),
]


def test_verify_experiments_build_no_bit_generator(monkeypatch):
    # the structured samples, goodM's M's and goodM's plan all come from block streams
    built = []
    numpy_pcg64 = np.random.PCG64

    def counted(*args):
        built.append(args)
        return numpy_pcg64(*args)

    monkeypatch.setattr(np.random, "PCG64", counted)
    for config in VERIFY_CONFIGS:
        assert run_experiment(config).passed
    assert built == []


def loads_numpy_random(code: str) -> bool:
    """Whether a fresh interpreter that runs ``code`` has ``numpy.random`` loaded at its end."""
    code += "\nimport sys\nprint('numpy.random' in sys.modules)\n"
    paths = [str(Path(harness.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the commands print their results first; the last line is the answer
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def test_verify_experiments_leave_numpy_random_unloaded(tmp_path):
    # the structured samples and the D1/D2 tables, in the experiments and
    # in gen, all come from counter streams; dist reads a gen table
    params_file, table_file = tmp_path / "desk10.cfg", tmp_path / "d2.table"
    params_mod.save(desk_params(10), str(params_file))
    assert not loads_numpy_random(
        "from junta_lab import cli, harness\n"
        "for experiment, trials in (('verify_yes', 20), ('verify_no', 10), ('verify_d1', 5),\n"
        "                           ('verify_d2', 5)):\n"
        "    config = harness.ExperimentConfig(harness.desk_params(10), experiment, trials, 1)\n"
        "    assert harness.run_experiment(config).passed\n"
        "for dist in ('yes', 'no', 'd1', 'd2'):\n"
        f"    assert cli.main(['gen', '--dist', dist, '--params', {str(params_file)!r},\n"
        f"                     '--emit-table', {str(table_file)!r}]) == 0\n"
        f"assert cli.main(['dist', '--table', {str(table_file)!r}, '--k', '8', '--eps', '0.1']) == 0\n"
    )


def test_games_leave_numpy_random_unloaded(tmp_path):
    # the hidden-set games read one-stream blocks, and the string plans raw block words
    params10, params12 = tmp_path / "desk10.cfg", tmp_path / "desk12.cfg"
    params_mod.save(desk_params(10), str(params10))
    params_mod.save(desk_params(12), str(params12))
    m = desk_params(10).m
    plans = {"sseq": {"ell": [4] * m}, "sssq": {"m": m, "T": [list(range(1, m + 1))] * 4},
             "strings": {"X": ["010011001110", "111000111000"], "decider": "parity_yes"}}
    games = []
    for mode, plan in plans.items():
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        params = params12 if mode == "strings" else params10
        games.append(["game", "--mode", mode, "--plan", str(path), "--params", str(params),
                      "--trials", "300", "--seed", "21"])
    assert not loads_numpy_random(
        "import dataclasses\n"
        "from junta_lab import cli, harness\n"
        f"for argv in {games!r}:\n"
        "    assert cli.main(argv) == 0\n"
        "configs = [harness.ExperimentConfig(harness.desk_params(14, epsilon=0.01), 'game', 300, 21),\n"
        "           harness.ExperimentConfig(dataclasses.replace(harness.desk_params(12), tau=8),\n"
        "                                    'goodM', 300, 21)]\n"
        "configs += [harness.ExperimentConfig(harness.desk_params(10), name, 1, 21)\n"
        "            for name in ('sseq_curve', 'dtv_sweep', 'claim53')]\n"
        "for config in configs:\n"
        "    assert harness.run_experiment(config).passed, config.experiment\n"
    )


@pytest.mark.parametrize("config", VERIFY_CONFIGS, ids=lambda c: c.experiment)
def test_verify_block_size_changes_nothing(config, monkeypatch):
    whole = run_experiment(config).csv_text()
    # blocks of 3 seeds: every block boundary, and verify_no's offset, fall mid-run
    monkeypatch.setattr(harness, "GAME_BLOCK_CELLS", 3 * 128)
    assert run_experiment(config).csv_text() == whole


INSTANCE_LOOPS = {"verify_yes": instance_verify_yes, "verify_no": instance_verify_no}


@pytest.mark.parametrize("config", VERIFY_CONFIGS[:2], ids=lambda c: c.experiment)
def test_verify_experiments_equal_the_per_seed_samplers(config):
    # the per-instance loop, each trial's instance drawn alone from its own reference streams
    def per_seed(params, kind, seeds):
        return (complement_sample(params, kind, seed) for seed in seeds)

    reference = INSTANCE_LOOPS[config.experiment](config, per_seed)
    assert run_experiment(config).csv_text() == reference.csv_text()


@pytest.mark.parametrize("epsilon", [0.1, 1.0])
@pytest.mark.parametrize("n", [6, 10, 12])
def test_verify_experiments_equal_the_instance_loops(n, epsilon):
    # the block tables against sample_block -> to_table -> relevant_variables /
    # dist_to_k_junta; at epsilon = 1 fibers draw coordinates and some D_no
    # instances are not juntas, so the exact distance runs its blocked walk
    for seed in range(6):
        for experiment, trials in (("verify_yes", 20), ("verify_no", 10)):
            config = ExperimentConfig(desk_params(n, epsilon=epsilon), experiment, trials, seed)
            report = run_experiment(config)
            reference = INSTANCE_LOOPS[experiment](config)
            assert report == reference
            assert report.csv_text() == reference.csv_text()


@pytest.mark.parametrize("seed", range(4))
def test_good_m_equals_the_per_seed_addressing_sets(seed):
    # desk tau exceeds n, so no M would be drawn; at tau = 8 X has far pairs
    params = dataclasses.replace(desk_params(12), tau=8)
    trials = 300
    report = run_experiment(ExperimentConfig(params=params, experiment="goodM", trials=trials,
                                             seed=seed))
    X = random_string_plan(12, 20, Seed(seed), "goodM-plan", always_yes)
    far = tasks.far_pair_codes(X, params.tau)
    assert far
    bad = sum(not tasks.separates(complement_sample(params, YES_STYLE, Seed(seed).mix(j)).M, far)
              for j in range(trials))
    assert 0 < bad < trials
    assert report.rows[0]["bad_fraction"] == bad / trials


def test_claim53_shares_its_plans_and_sets():
    pairs = list(harness.claim53_pairs())
    assert len(pairs) == 668
    assert len({id(plan) for _, plan, _ in pairs}) == 98
    assert len({id(A) for _, _, A in pairs}) == 14
    assert len({(plan, A) for _, plan, A in pairs}) == 668


def test_game_result_json_shape():
    result = GameResult(0.1, 0.0, 0.2, 10, 10, 3)
    assert result.as_json_dict() == {
        "advantage": 0.1,
        "ci_low": 0.0,
        "ci_high": 0.2,
        "trials": 20,
        "cost": 3,
    }


def test_experiment_config_validation():
    params = desk_params(10)
    with pytest.raises(InvalidInput):
        ExperimentConfig(params=params, experiment="bogus", trials=10, seed=0)
    with pytest.raises(InvalidInput):
        ExperimentConfig(params=params, experiment="claim53", trials=0, seed=0)
    assert set(EXPERIMENTS) >= {"verify_yes", "verify_no", "game", "claim53", "goodM"}


def test_verify_yes_small():
    cfg = ExperimentConfig(params=desk_params(8), experiment="verify_yes", trials=60, seed=5)
    report = run_experiment(cfg)
    assert report.passed
    row = report.rows[0]
    assert row["containment_fraction"] == 1.0
    assert 0.0 <= row["junta_fraction"] <= 1.0


def test_verify_yes_cap():
    cfg = ExperimentConfig(params=desk_params(25), experiment="verify_yes", trials=5, seed=5)
    with pytest.raises(TooLarge):
        run_experiment(cfg)


def test_verify_yes_at_n12():
    cfg = ExperimentConfig(params=desk_params(12), experiment="verify_yes", trials=10, seed=5)
    report = run_experiment(cfg)
    assert report.passed
    assert report.rows[0]["containment_fraction"] == 1.0


def test_verify_no_small():
    cfg = ExperimentConfig(params=desk_params(10), experiment="verify_no", trials=40, seed=5)
    report = run_experiment(cfg)
    assert report.passed
    row = report.rows[0]
    assert row["far_fraction_no"] >= row["far_fraction_yes"]
    assert row["expected_pool_gap"] == pytest.approx(
        (cfg.params.q - cfg.params.p) * cfg.params.m
    )


def pool_gap_check(monkeypatch, no_sizes):
    """``verify_no``'s pool-gap check when every yes-side pool has size t and the no side's are given.

    ``sample_block_tables`` is replaced by a stub that yields zero tables
    with pools of the chosen sizes, so only the pool sizes decide the gap.
    """
    params = desk_params(10)
    sizes = {YES_STYLE: iter([params.t] * len(no_sizes)), NO_STYLE: iter(no_sizes)}

    def stub_tables(p, kind, seeds):
        for _ in seeds:
            size = next(sizes[kind])
            yield np.zeros(1 << p.n, dtype=np.uint8), [True] * size + [False] * (p.n - size)

    monkeypatch.setattr(harness, "sample_block_tables", stub_tables)
    config = ExperimentConfig(params=params, experiment="verify_no", trials=len(no_sizes), seed=3)
    report = harness.verify_no(config)
    (check,) = [c for c in report.checks if c.name == "pool_gap_within_3_sigma"]
    row = report.rows[0]
    return check.passed, (row["pool_gap"] - row["expected_pool_gap"]) / row["pool_gap_sigma"]


@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_verify_no_pool_gap_window_is_3_sigma(monkeypatch, side):
    # the no side's mean pool size k / trials places the gap a quarter to
    # three quarters of a step inside and outside expected +- 3 sigma: the
    # check passes just inside and fails just outside, where a wider window
    # would pass too
    params, trials = desk_params(10), 100
    sigma = math.sqrt((params.q * (1 - params.q) + params.p * (1 - params.p)) * params.m / trials)
    edge = (params.t + (params.q - params.p) * params.m + side * 3 * sigma) * trials
    assert 0.25 < edge % 1 < 0.75
    inside, outside = (math.floor(edge), math.ceil(edge))[::side]
    for k, passes in ((inside, True), (outside, False)):
        no_sizes = [k // trials + 1] * (k % trials) + [k // trials] * (trials - k % trials)
        passed, z = pool_gap_check(monkeypatch, no_sizes)
        assert passed is passes and 2.95 < side * z < 3.05


@pytest.mark.parametrize(
    "experiment, epsilon", [("verify_no", 0.1), ("verify_d2", 2.0**-10)]
)
def test_distance_experiments_at_n14(experiment, epsilon):
    params = desk_params(14, epsilon=epsilon)
    report = run_experiment(ExperimentConfig(params=params, experiment=experiment, trials=2, seed=5))
    assert report.passed
    assert report.rows[0]["n"] == 14


@pytest.mark.parametrize(
    "experiment, epsilon", [("verify_no", 0.1), ("verify_d2", 2.0**-10)]
)
def test_distance_experiments_cap_at_n21(experiment, epsilon):
    params = desk_params(21, epsilon=epsilon)
    with pytest.raises(TooLarge):
        run_experiment(ExperimentConfig(params=params, experiment=experiment, trials=2, seed=5))


def test_verify_d1_small():
    cfg = ExperimentConfig(
        params=desk_params(10, epsilon=0.05), experiment="verify_d1", trials=25, seed=5
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.rows[0]["certified_fraction"] > 0.9
    assert report.rows[0]["far_fraction"] >= report.rows[0]["certified_fraction"]


def test_verify_d2_small():
    # weight 2^n * eps = 8: sparse enough that ones rarely collide
    cfg = ExperimentConfig(
        params=desk_params(10, epsilon=2.0**-7), experiment="verify_d2", trials=25, seed=5
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.rows[0]["certified_fraction"] > 0.5


@pytest.mark.parametrize("experiment, epsilon", [("verify_d1", 0.1), ("verify_d2", 2.0**-4)])
def test_tail_experiment_memory_does_not_grow_with_trials(experiment, epsilon, monkeypatch):
    # the trial seeds come in the blocks of _seed_blocks, here 16 trials each,
    # so ten times the trials hold no more seeds at once; the seeds stay the same
    params = desk_params(6, epsilon=epsilon)
    full = {trials: run_experiment(ExperimentConfig(params, experiment, trials, 5)).rows
            for trials in (64, 640)}
    monkeypatch.setattr(harness, "GAME_BLOCK_CELLS", 128 * 16)
    peaks = {}
    for trials in (64, 640):
        config = ExperimentConfig(params, experiment, trials, 5)
        tracemalloc.start()
        try:
            rows = run_experiment(config).rows
            _, peaks[trials] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == full[trials]
    assert peaks[640] <= peaks[64] + 8 * 1024


def test_budget_game_small():
    cfg = ExperimentConfig(
        params=desk_params(14, epsilon=0.01), experiment="game", trials=1000, seed=5
    )
    report = run_experiment(cfg)
    assert report.passed
    row = report.rows[0]
    assert row["budget"] == 3
    assert row["ci_high"] < SET_GAME_ADVANTAGE


def budget_config(seed, trials=2000):
    return ExperimentConfig(
        params=desk_params(14, epsilon=0.01), experiment="game", trials=trials, seed=seed
    )


def test_budget_game_equals_full_table_game():
    # The no side reads D1 at the plan's queries only, its streams seeded a
    # block at a time; the references play one trial at a time, drawing each
    # trial's whole 2^14 table with sample_d1 or reading it at the queries.
    for seed in range(4):
        config = budget_config(seed)
        csv = run_experiment(config).csv_text()
        assert csv == full_table_budget_game(config) == point_read_budget_game(config)


def test_budget_game_matches_exact_advantage():
    # The zero function always answers all zeros, and a D1 table answers
    # d distinct queries all zero with probability (1 - 3 eps)^d, so the
    # all-zero decider's exact advantage is 1 - (1 - 3 eps)^d.
    epsilon, trials = 0.01, 2000
    for seed in range(6):
        plan = random_string_plan(14, 3, Seed(seed), "budget-game-plan", all_zero_yes)
        distinct = len({x.code for x in plan.queries})
        all_zero = (1.0 - 3.0 * epsilon) ** distinct
        exact = 1.0 - all_zero
        sigma = math.sqrt(all_zero * exact / (trials - trials // 2))
        advantage = run_experiment(budget_config(seed, trials)).rows[0]["advantage"]
        assert abs(advantage - exact) <= 3.0 * sigma, (seed, advantage, exact)


def test_sseq_curve_small():
    cfg = ExperimentConfig(params=desk_params(10), experiment="sseq_curve", trials=10, seed=5)
    report = run_experiment(cfg)
    assert report.passed
    advantages = [row["advantage"] for row in report.rows]
    assert advantages[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(advantages, advantages[1:]))


def test_sseq_curve_exact_at_n20():
    params = desk_params(20)
    assert params.m == 15
    cfg = ExperimentConfig(params=params, experiment="sseq_curve", trials=200, seed=5)
    report = run_experiment(cfg)
    assert [c.name for c in report.checks] == [
        "zero_budget_zero_advantage", "curve_non_decreasing"]
    assert report.passed
    assert len(report.rows) == 17
    # exact: neither the seed nor the trial count moves the curve
    other = ExperimentConfig(params=params, experiment="sseq_curve", trials=1, seed=6)
    assert run_experiment(other).csv_text() == report.csv_text()


def test_dtv_sweep_passes():
    cfg = ExperimentConfig(params=desk_params(10), experiment="dtv_sweep", trials=1, seed=5)
    report = run_experiment(cfg)
    assert report.passed
    curve = [row["scaled_dtv"] for row in report.rows if row["section"] == "scale_curve"]
    assert len(curve) == 3
    assert curve[0] > curve[1] > curve[2]


def test_claim53_passes():
    cfg = ExperimentConfig(params=desk_params(10), experiment="claim53", trials=1, seed=5)
    report = run_experiment(cfg)
    assert report.passed


def test_good_m_passes():
    cfg = ExperimentConfig(params=desk_params(12), experiment="goodM", trials=500, seed=5)
    report = run_experiment(cfg)
    assert report.passed
    row = report.rows[0]
    assert row["bad_fraction"] <= row["union_bound"] + 3 * row["sigma"]


def test_reports_serialize_to_stable_csv(tmp_path):
    out = tmp_path / "report.csv"
    cfg = ExperimentConfig(
        params=desk_params(8), experiment="verify_yes", trials=25, seed=9,
        output_path=str(out),
    )
    code1, _ = run_all(cfg)
    first = out.read_bytes()
    code2, _ = run_all(cfg)
    assert code1 == code2 == 0
    assert out.read_bytes() == first
    text = first.decode()
    header = text.splitlines()[0].split(",")
    assert header[0] == "experiment"


def test_csv_float_formatting():
    report = ExperimentReport("demo")
    report.rows.append({"a": 1 / 3, "b": True, "c": 7})
    text = report.csv_text()
    assert text.splitlines()[0] == "a,b,c"
    assert text.splitlines()[1] == "0.333333333333,true,7"


def test_failure_reporting(tmp_path):
    report = ExperimentReport("demo")
    report.checks.append(CheckResult("ok", True, ""))
    report.checks.append(CheckResult("broken", False, "numbers disagree"))
    assert not report.passed
    failure = report.failure_dict()
    assert failure["failed_checks"] == [{"name": "broken", "detail": "numbers disagree"}]


def test_write_atomic(tmp_path):
    target = tmp_path / "x.txt"
    write_atomic(str(target), "payload")
    assert target.read_text() == "payload"
    assert not (tmp_path / "x.txt.tmp").exists()
