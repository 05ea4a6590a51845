"""The benchmark's own test: closed-form trace counts, metric names, determinism.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

Traced runs are ``perfbench/run.py --trace 1`` in a subprocess, which runs
TRACE_CYCLES cycles untraced and then traced.  Untraced runs call the same
functions in-process for TRACE_CYCLES cycles, so they stay short.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEED = 7

END_TO_END = {
    "items_per_s": "items/s",
    "cycle_s.p50": "s",
    "cycle_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
}

PER_LAYER = {
    **{f"{key}.calls": "count" for key in (
        "rng.derive_u64", "rng.RandomStream", "boolfn.to_table", "boolfn.eval",
        "hardgen.sample", "junta_distance.dist_to_k_junta", "junta_distance.matching",
        "tasks.exact_optimal_advantage", "tasks.respond", "tasks.bayes_decide",
        "tasks.sample_hidden", "binom_stats.exact_dtv", "binom_stats.hit_prob",
        "harness.run_game", "cli.main")},
    **{f"{key}.s": "s" for key in (
        "boolfn.to_table", "boolfn.relevant_variables", "boolfn.table_io", "hardgen.sample",
        "junta_distance.dist_to_k_junta", "junta_distance.matching",
        "tasks.exact_optimal_advantage", "tasks.respond", "tasks.bayes_decide",
        "tasks.sample_hidden", "tasks.is_separating", "tasks.lift_equivalence_gap",
        "binom_stats.exact_dtv", "harness.run_experiment", "harness.run_game", "cli.main",
        "params")},
    "junta_distance.subsets_scanned": "count",
    "boolfn.digests_per_point": "digests/point",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# (workload, metric, value after one cycle)
CLOSED_FORM = [
    ("structured", "boolfn.to_table.calls", 40),
    ("structured", "boolfn.eval.calls", 40 * 1024),
    ("structured", "junta_distance.dist_to_k_junta.calls", 20),
    ("tables", "junta_distance.matching.calls", 240),
    ("games", "harness.run_game.calls", 2),
]

METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)$")


sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402

workloads = bench.import_workloads()


def parse(stdout: str) -> dict:
    lines = stdout.splitlines()
    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match[1]] = (float(match[2]), match[3])
    digest = next(line.split()[1] for line in lines if line.startswith("output_digest "))
    return {"printed": printed, "digest": digest, "result": json.loads(lines[-1])}


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return parse(proc.stdout)


def untraced(workload: str) -> dict:
    """TRACE_CYCLES untraced cycles in-process, reported as ``--trace 0`` reports them."""
    args = bench.parse_args(["--workload", workload, "--seed", str(SEED), "--seconds", "1"])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            jobs = workloads.build(workload, SEED, Path())
            cycles = bench.run_cycles(jobs, SEED, bench.TRACE_CYCLES)
        finally:
            os.chdir(cwd)
    metrics, tail_info, samples = bench.end_to_end(jobs, cycles, setup=[0.3])
    out = io.StringIO()
    with redirect_stdout(out):
        bench.report(args, cycles, metrics, bench.listed("end_to_end"),
                     bench.problems(cycles), tail_info, samples)
    return {**parse(out.getvalue()), "cycles": cycles}


@pytest.fixture(scope="module")
def runs():
    cache: dict = {}

    def get(workload: str, trace: int) -> dict:
        if (workload, trace) not in cache:
            cache[workload, trace] = traced(workload) if trace else untraced(workload)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload, metric, expected", CLOSED_FORM)
def test_traced_counts_match_closed_form(runs, workload, metric, expected):
    assert runs(workload, 1)["printed"][metric] == (expected, "count")


@pytest.mark.parametrize("workload", ["structured", "tables", "games"])
def test_every_metric_printed_with_its_unit(runs, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, expected, listed in ((0, END_TO_END, spec["end_to_end"]),
                                    (1, PER_LAYER, spec["per_layer"])):
        out = runs(workload, trace)
        assert {k: unit for k, (_, unit) in out["printed"].items()} == expected
        result = out["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}


@pytest.mark.parametrize("workload", ["structured", "tables", "games"])
def test_traced_and_untraced_runs_agree(runs, workload):
    assert runs(workload, 0)["digest"] == runs(workload, 1)["digest"]


def test_same_seed_repeats_digest_and_counts(runs):
    first, second = runs("tables", 1), traced("tables")
    assert first["digest"] == second["digest"]
    calls = {k: v for k, v in first["printed"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second["printed"].items() if k.endswith(".calls")}


def test_failures_are_counted_not_hidden(runs):
    for workload in ("structured", "tables"):
        assert runs(workload, 0)["result"]["failed"] == 0
    games = runs("games", 0)
    # Known defect: Monte-Carlo noise breaks curve_non_decreasing in the n = 20
    # curve; it is the only job allowed to fail, and it is counted when it does.
    failed = [r.name for c in games["cycles"] for r in c.results if r.failure is not None]
    assert set(failed) <= {"sseq_curve_n20"}
    assert games["result"]["failed"] == len(failed)
    assert games["result"]["attempted"] == 9 * bench.TRACE_CYCLES
    assert games["printed"]["fail_ratio"][0] == len(failed) / (9 * bench.TRACE_CYCLES)


def test_tracer_restores_every_binding():
    import junta_lab.cli  # noqa: F401  (imports every layer module)
    from layer_trace import Tracer

    modules = {n: m for n, m in sys.modules.items() if n.startswith("junta_lab")}
    before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    classes = {v: dict(vars(v)) for v in before.values() if isinstance(v, type)}
    with Tracer():
        import junta_lab.junta_distance as jd
        import junta_lab.harness as harness

        assert harness.dist_to_k_junta is jd.dist_to_k_junta
        assert jd.dist_to_k_junta is not before["junta_lab.junta_distance", "dist_to_k_junta"]
    after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert all(dict(vars(cls)) == attrs for cls, attrs in classes.items())
