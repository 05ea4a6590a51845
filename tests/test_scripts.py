"""The scripts under scripts/ run end to end, and every bench section agrees with its references."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from junta_lab.harness import desk_params, run_hidden_set_game
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


# The battery's CSVs at seed 1, byte for byte.  A change that alters an
# output on purpose rewrites these files and says so in CHANGES.md.
GOLDEN_DESK = ROOT / "tests" / "golden" / "desk_seed1"


def test_desk_suite_writes_every_csv(tmp_path):
    proc = run_script("run_desk_suite.py", "--out-dir", str(tmp_path), "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert len(written) == 9
    assert written == sorted(path.name for path in GOLDEN_DESK.glob("*.csv"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DESK / name).read_bytes(), name


def test_ab_runs_a_tree_against_itself(tmp_path):
    # A/A at a tiny size: two workers on one checkout agree on every output
    proc = run_script("ab.py", str(ROOT), str(ROOT), "--workload", "structured", "--cycles", "2",
                      "--setup-probes", "1", "--label", "aa", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads((tmp_path / "AB_aa.json").read_text(encoding="utf-8"))
    assert record["outputs_equal"] and record["failed_jobs"] == {"parent": 0, "change": 0}
    assert (record["workload"], record["cycles"]) == ("structured", 2)
    sides = record["src_sha256"]
    assert sides["parent"] == sides["change"] and len(sides["parent"]) == 64
    assert set(record["jobs"]) == {"verify_yes", "verify_no"}
    for summary in (record["cycle"], record["setup"], *record["jobs"].values()):
        assert summary["wins"] + summary["losses"] + summary["ties"] == len(summary["parent_s"])
        assert summary["ratio_q1"] <= summary["ratio_median"] <= summary["ratio_q3"]
        assert 0.0 < summary["sign_p"] <= 1.0
    assert len(record["cycle"]["change_s"]) == 2 and len(record["setup"]["parent_s"]) == 1


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = load_script("bench.py")


@pytest.mark.parametrize(
    "plan",
    [ElementQueryPlan.of([0, 3, 0, 1, 7, 0]), SetQueryPlan.of(6, [[1, 2, 3], [], [2, 4], [2], [2, 3]])],
    ids=["sseq", "sssq"],
)
def test_bench_per_trial_game_equals_the_batched_game(plan):
    params = desk_params(10)
    batched = run_hidden_set_game(plan, params, 200, 3).advantage
    assert BENCH.per_trial_game(plan, params, 200, 3) == batched

# Every size constant of scripts/bench.py, shrunk so each section runs in well under a second.
SMALL_BENCH = {
    "COMPARED": (8,), "FAST_ONLY": (9,), "ORACLE_N": (8,), "DESK_N": 8, "DRAWS": 2,
    "TAIL_DRAW_N": 8, "DIST_JOB": (8, 5), "FRONTIER": (("no", 8), ("yes", 9)),
    "FRONTIER_D2": (8, 5), "GAME_TRIALS": 40, "BUDGET_N": 8, "GOOD_M_N": 8,
    "GOOD_M_QUERIES": 6, "GOOD_M_DRAWS": 20, "MIX_INDICES": 50, "STRINGS_N": 8,
    "STRINGS_QUERIES": 4, "STRINGS_TRIALS": 20, "STREAMS": 30, "HIDDEN_BLOCK": 9000,
    "PLAN_N": (8, 40),
    "EDGE_COUNTS_N": 8, "CLI_CALLS": 3, "TAIL_N": (8,), "STRUCTURED_CASES": ((8, 0.1), (8, 1.0)),
    "STRUCTURED_PER_KIND": 3, "STRUCTURED_QUERIES": 4, "VERIFY_SEEDS": (3,), "LAZY_N": (16,),
    "STRICT_LAZY_N": (512,),
}


@pytest.mark.parametrize("section", list(BENCH.SECTIONS))
def test_bench_section_runs_and_agrees(section, monkeypatch):
    for name, value in SMALL_BENCH.items():
        monkeypatch.setattr(BENCH, name, value)
    monkeypatch.setattr(BENCH, "REPEATS", dict.fromkeys(BENCH.REPEATS, 1))
    cases, problems = BENCH.compared(section, BENCH.SECTIONS[section]())
    assert problems == []
    assert cases
    assert all(case["equal"] or case["reference"] is None for case in cases)
