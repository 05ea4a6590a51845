#!/usr/bin/env python3
"""junta-lab benchmark: a closed loop of cycles of public entry-point calls.

One process and one thread run cycles back to back, with no pause between
them.  A cycle runs every job of the workload once (see workloads.py), on a
seed derived from the workload seed and the cycle index.  The jobs' outputs
are checked, folded into ``output_digest``, and the metrics are printed by
name with their unit.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": <jobs>, "failed": <jobs>, "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload structured --seed 1 --seconds 30 --trace 0

``--trace 0`` runs a fixed number of cycles, sized so that they take about
``--seconds`` on a 2-core x86-64 machine (see NOMINAL_CYCLE_S; at least 11,
so a tail percentile with 10 cycles beyond it exists), and reports the
end-to-end metrics.  The count depends only on the workload and
``--seconds``, never on how fast the cycles ran, so runs with the same seed
attempt the same jobs and fail the same ones.  ``--trace 1`` runs TRACE_CYCLES cycles untraced, then the same
cycles again under the layer tracer, and reports per-layer metrics per
cycle; it does not read ``--seconds``.  ``output_digest`` covers the first
TRACE_CYCLES cycles, which every run has, so runs with the same seed print
the same digest whatever their length.  A full result with provenance is
written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

MIN_CYCLES = 11
# Median cycle wall time per workload on a shared 2-core x86-64 VM
# (Python 3.11, numpy 2.4).  Only the cycle count is derived from it.
NOMINAL_CYCLE_S = {"structured": 1.5, "tables": 0.9, "games": 2.4}
TAIL_BEYOND = 10
TRACE_CYCLES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

UNITS = {
    "items_per_s": "items/s",
    "cycle_s.p50": "s",
    "cycle_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
}

# The result line carries the metrics BENCHMARK.json lists; every other
# metric is printed above it and kept in the result file.
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclass
class Cycle:
    index: int
    seconds: float
    results: list
    digest: str


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="junta-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="how long an untraced run measures; required with --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace == 0 and args.seconds is None:
        parser.error("--seconds is required with --trace 0")
    return args


def import_workloads():
    """Import junta_lab from this checkout's src/ and the workload module."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import junta_lab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import junta_lab from {src}: {exc}")
    if not Path(junta_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: junta_lab was imported from {junta_lab.__file__}, not {src}")
    import workloads

    return workloads


def cycle_seed(seed: int, index: int) -> int:
    """A 63-bit job seed for one cycle, fixed by the workload seed and index."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def run_cycle(jobs, seed: int, index: int) -> Cycle:
    job_seed = cycle_seed(seed, index)
    results = []
    start = time.perf_counter()
    for job in jobs:
        job_start = time.perf_counter()
        result = job.run(job_seed)
        result.seconds = time.perf_counter() - job_start
        results.append(result)
    seconds = time.perf_counter() - start
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.name}\0{len(r.output)}\0".encode())
        h.update(r.output)
    return Cycle(index, seconds, results, h.hexdigest())


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles an untraced run of ``seconds`` makes: fixed, not timed."""
    return max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))


def run_cycles(jobs, seed: int, count: int) -> list[Cycle]:
    return [run_cycle(jobs, seed, index) for index in range(count)]


def output_digest(cycles: list[Cycle]) -> str:
    """SHA-256 over the first TRACE_CYCLES cycle digests, a prefix every run has.

    A traced run has TRACE_CYCLES cycles and an untraced one more; the
    digest of every cycle is kept in the result file.
    """
    h = hashlib.sha256()
    for c in cycles[:TRACE_CYCLES]:
        h.update(c.digest.encode())
    return h.hexdigest()


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, cycles beyond) at the highest percentile with TAIL_BEYOND beyond it.

    With too few cycles no such percentile exists; the maximum is reported
    with the percentile 100 and no cycle beyond it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from launching a fresh benchmark process to its first cycle's start.

    Each probe imports junta_lab and writes the workload's params and plan
    files exactly as this process did, prints ``ready`` and exits.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - start)
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited {code} with {line.strip()!r}")
    return samples


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git checkout or without git."""
    if not (ROOT / ".git").exists():  # do not report the commit of an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args: argparse.Namespace, cycles: list[Cycle]) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": len(cycles),
    }


def failures(cycles: list[Cycle]) -> tuple[int, int, dict[str, str]]:
    """(jobs attempted, jobs failed, first failure detail per failing job)."""
    attempted = failed = 0
    detail: dict[str, str] = {}
    for c in cycles:
        for r in c.results:
            attempted += 1
            if r.failure is not None:
                failed += 1
                detail.setdefault(r.name, r.failure)
    return attempted, failed, detail


def problems(cycles: list[Cycle]) -> list[str]:
    return [f"cycle {c.index} {r.name}: {p}"
            for c in cycles for r in c.results for p in r.problems]


def end_to_end(jobs, cycles: list[Cycle], setup: list[float]) -> tuple[dict, dict, dict]:
    """(metrics, tail provenance, raw samples) of an untraced run."""
    times = [c.seconds for c in cycles]
    items = sum(
        job.items for c in cycles for job, r in zip(jobs, c.results) if r.output
    )
    tail_value, tail_pct, beyond = tail(times)
    attempted, failed, _ = failures(cycles)
    values = {
        "items_per_s": items / sum(times),
        "cycle_s.p50": statistics.median(times),
        "cycle_s.tail": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / attempted,
    }
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    tail_info = {"tail_percentile": tail_pct, "tail_cycles_beyond": beyond}
    samples = {
        "items_per_cycle": sum(job.items for job in jobs),
        "cycle_seconds": times,
        "job_seconds_p50": job_medians(cycles),
        "setup_samples_s": setup,
    }
    return metrics, tail_info, samples


def job_medians(cycles: list[Cycle]) -> dict[str, float]:
    return {r.name: statistics.median(c.results[i].seconds for c in cycles)
            for i, r in enumerate(cycles[0].results)}


def layer_metrics(tracer, traced: list[Cycle], untraced: list[Cycle]) -> dict:
    """Per-cycle per-layer metrics from a tracer that saw one set-up and ``traced``."""
    n = len(traced)
    calls, seconds, own = tracer.calls, tracer.seconds, tracer.self_seconds

    def per(value: float) -> float:
        return value / n

    out: dict[str, tuple[float, str]] = {}
    for key in ("rng.derive_u64", "rng.RandomStream", "boolfn.to_table", "boolfn.eval",
                "hardgen.sample", "junta_distance.dist_to_k_junta", "junta_distance.matching",
                "tasks.exact_optimal_advantage", "tasks.respond", "tasks.bayes_decide",
                "tasks.sample_hidden", "binom_stats.exact_dtv", "binom_stats.hit_prob",
                "harness.run_game", "cli.main"):
        out[f"{key}.calls"] = (per(calls[key]), "count")
    out["junta_distance.subsets_scanned"] = (per(calls["junta_distance.subsets_scanned"]), "count")
    out["boolfn.digests_per_point"] = (
        tracer.digests / tracer.points if tracer.points else 0.0, "digests/point")
    for key in ("boolfn.to_table", "boolfn.relevant_variables", "boolfn.table_io",
                "hardgen.sample", "junta_distance.dist_to_k_junta", "junta_distance.matching",
                "tasks.exact_optimal_advantage", "tasks.respond", "tasks.bayes_decide",
                "tasks.sample_hidden", "tasks.is_separating", "tasks.lift_equivalence_gap",
                "binom_stats.exact_dtv", "harness.run_experiment", "harness.run_game",
                "cli.main", "params"):
        out[f"{key}.s"] = (per(seconds[key]), "s")
    out["harness.self_s"] = (per(own["harness"]), "s")
    out["cli.self_s"] = (per(own["cli"]), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(c.seconds for c in traced)
        / statistics.median(c.seconds for c in untraced),
        "ratio",
    )
    return out


def listed(kind: str) -> list[str]:
    """Names of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return [m["name"] for m in json.loads(SPEC_PATH.read_text(encoding="utf-8"))[kind]]


def write_result(args: argparse.Namespace, result: dict) -> Path:
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def report(args, cycles, metrics: dict[str, tuple[float, str]], result_metrics: list[str],
           issues: list[str], tail_info: dict, samples: dict) -> None:
    """Print every metric, write the result file, and print the result line last."""
    attempted, failed, detail = failures(cycles)
    digest = output_digest(cycles)
    correct = not issues
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} cycles {len(cycles)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"jobs attempted {attempted} failed {failed}")
    for name, why in detail.items():
        print(f"failed job {name}: {why}")
    for issue in issues[:20]:
        print(f"output check: {issue}")
    print(f"output_digest {digest}")
    path = write_result(args, {
        "provenance": {**provenance(args, cycles), **tail_info},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": detail,
        "output_check_issues": issues,
        "output_digest": digest,
        "cycle_digests": [c.digest for c in cycles],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **samples,
    })
    print(f"result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in result_metrics},
    }))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    result_metrics = listed("per_layer" if args.trace else "end_to_end")
    (STATE_DIR / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR / "work"))
    # Jobs name their files relative to the work directory, so that outputs
    # echoing a path (gen's "table") are the same in every run.
    os.chdir(work)
    try:
        jobs = workloads.build(args.workload, args.seed, Path())
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace == 0:
            setup = measure_setup(args)
            cycles = run_cycles(jobs, args.seed, cycle_count(args.workload, args.seconds))
            metrics, tail_info, samples = end_to_end(jobs, cycles, setup)
            report(args, cycles, metrics, result_metrics, problems(cycles), tail_info, samples)
            return 0

        from layer_trace import Tracer

        untraced = run_cycles(jobs, args.seed, TRACE_CYCLES)
        with Tracer() as tracer:
            traced_jobs = workloads.build(args.workload, args.seed, Path())
            traced = run_cycles(traced_jobs, args.seed, TRACE_CYCLES)
        issues = problems(untraced) + problems(traced)
        issues += [f"cycle {a.index}: traced output differs from untraced"
                   for a, b in zip(untraced, traced) if a.digest != b.digest]
        samples = {"untraced_cycle_seconds": [c.seconds for c in untraced],
                   "traced_cycle_seconds": [c.seconds for c in traced],
                   "job_seconds_p50": job_medians(untraced)}
        report(args, traced, layer_metrics(tracer, traced, untraced), result_metrics,
               issues, {}, samples)
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
