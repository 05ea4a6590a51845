"""The scripts under scripts/ run end to end, and their references match the library."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from junta_lab import junta_distance
from junta_lab.boolfn import to_table
from junta_lab.hardgen import sample_d2, sample_no
from junta_lab.harness import desk_params, run_hidden_set_game
from junta_lab.rng import RandomStream, Seed
from junta_lab.tasks import ElementQueryPlan, SetQueryPlan

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_advantage_vs_budget_at_m16():
    proc = run_script("advantage_vs_budget.py", "--m", "16", "--steps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0] == "budget,advantage,per_element_tv_sum"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "16", "32"]


def test_desk_suite_writes_every_csv(tmp_path):
    proc = run_script("run_desk_suite.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 9


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "plan",
    [ElementQueryPlan.of([0, 3, 0, 1, 7, 0]), SetQueryPlan.of(6, [[1, 2, 3], [], [2, 4], [2], [2, 3]])],
    ids=["sseq", "sssq"],
)
def test_bench_per_trial_game_equals_the_batched_game(plan):
    bench = load_script("bench.py")
    params = desk_params(10)
    batched = run_hidden_set_game(plan, params, 200, 3).advantage
    assert bench.per_trial_game(plan, params, 200, 3) == batched


def test_bench_counts_every_keyed_digest_and_fresh_digests_agree():
    bench = load_script("bench.py")
    params = desk_params(10, epsilon=1.0)
    keyed = sample_no(params, Seed(4))
    with bench.fresh_digests():
        fresh = sample_no(params, Seed(4))
    fibers = [keyed.fiber_coords(a) for a in range(1, (1 << params.t) + 1)]
    with bench.counted_digests() as count:
        table = to_table(keyed)
    assert count[0] == (1 << params.t) * len(keyed.A) + sum(1 << len(S) for S in fibers)
    with bench.counted_digests() as count:
        assert to_table(fresh) == table
    assert count[0] == 0


def test_bench_before_forms_of_the_table_path_agree(monkeypatch):
    bench = load_script("bench.py")
    words = junta_distance._words
    g = sample_d2(12, 2.0**-7, RandomStream(Seed(2), "d2"))
    cases = [(g, 11), (g, 6), (g, 3)]
    assert bench.count_adds(cases) == [bench.distance_and_witness(f, k) for f, k in cases]
    assert junta_distance._words is words
    monkeypatch.setattr(bench, "CLI_CALLS", 3)
    calls = bench.cli_calls(fresh_parser=True)
    assert calls == bench.cli_calls(fresh_parser=False)
    assert [code for code, _ in calls] == [0, 0, 0]
