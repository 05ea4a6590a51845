#!/usr/bin/env python3
"""Interleaved A/B timing of two checkouts on one benchmark workload.

    python3 scripts/ab.py PARENT CHANGE --workload structured --cycles 200

PARENT and CHANGE are the roots of two checkouts.  One worker process per
checkout imports junta_lab from that checkout's ``src/`` and builds the
workload's jobs with that checkout's ``perfbench/workloads.py``.  After
one untimed warm-up cycle each, the driver sends the two workers single
cycles in turn, on the same cycle seeds, flipping which runs first every
cycle, so both see the same machine state.  Only one worker runs at a
time.

It reports, per cycle and per job: each side's median seconds, the ratio
parent time / change time (above 1 means the change is faster) with its
median and quartiles, the change's wins, losses and ties, and the
two-sided sign-test p-value.  Every job's output bytes (a SHA-256 digest)
and failure state must be equal between the checkouts, cycle by cycle.
Then it launches ``perfbench/run.py --setup-probe`` ``--setup-probes``
times per checkout, alternating which goes first, and reports set-up
seconds the same way.  Everything goes to ``AB_<label>.json`` in
``--out-dir``.  Exit code 0, or 1 when an output or failure differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def cycle_seed(seed: int, index: int) -> int:
    """A 63-bit job seed for one cycle, as ``perfbench/run.py`` derives it."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def worker(tree: Path, workload: str, seed: int) -> int:
    """Serve cycles of ``tree``'s workload: one job seed in per line, one JSON line out."""
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr  # jobs may print; only replies go to the pipe
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str(tree / "perfbench")]
    import junta_lab
    import workloads

    if not Path(junta_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: junta_lab was imported from {junta_lab.__file__}, not {src}")
    jobs = workloads.build(workload, seed, Path())
    items = sum(job.items for job in jobs)
    for line in sys.stdin:
        job_seed = int(line)
        results = []
        start = time.perf_counter()
        for job in jobs:
            job_start = time.perf_counter()
            result = job.run(job_seed)
            results.append({"name": result.name, "s": time.perf_counter() - job_start,
                            "sha256": hashlib.sha256(result.output).hexdigest(),
                            "failure": result.failure})
        seconds = time.perf_counter() - start
        reply.write(json.dumps({"s": seconds, "items": items, "jobs": results}) + "\n")
        reply.flush()
    return 0


class Worker:
    """A worker process on one checkout, in its own working directory."""

    def __init__(self, tree: Path, workload: str, seed: int):
        self.work = tempfile.TemporaryDirectory(prefix="ab-")
        argv = [sys.executable, str(Path(__file__).resolve()), str(tree), str(tree),
                "--workload", workload, "--seed", str(seed), "--worker"]
        self.proc = subprocess.Popen(argv, cwd=self.work.name, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def cycle(self, job_seed: int) -> dict:
        self.proc.stdin.write(f"{job_seed}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            self.proc.kill()
            self.work.cleanup()


def setup_probe(tree: Path, workload: str, seed: int) -> float:
    """Seconds from launching ``tree``'s ``perfbench/run.py --setup-probe`` to its ``ready`` line."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe in {tree} exited {code} with {line.strip()!r}")
    return seconds


def git_commit(tree: Path) -> str | None:
    """The checkout's commit, or None outside a git checkout."""
    if not (tree / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value of ``wins`` against ``losses``; ties are dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float]) -> dict:
    """Paired seconds of the two sides: medians, the parent/change ratio, wins and the sign test."""
    ratios = [p / c if c else math.inf for p, c in zip(parent, change)]
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    q1, median, q3 = quartiles(ratios)
    return {
        "parent_median_s": statistics.median(parent),
        "change_median_s": statistics.median(change),
        "parent_quartiles_s": quartiles(parent)[::2],
        "change_quartiles_s": quartiles(change)[::2],
        "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
        "wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
        "sign_p": sign_test(wins, losses),
        "parent_s": parent, "change_s": change,
    }


def describe(name: str, summary: dict) -> str:
    return (f"{name:>12}: parent {1e3 * summary['parent_median_s']:.3f} ms, change "
            f"{1e3 * summary['change_median_s']:.3f} ms, ratio {summary['ratio_median']:.3f} "
            f"[{summary['ratio_q1']:.3f}, {summary['ratio_q3']:.3f}], wins "
            f"{summary['wins']}/{len(summary['parent_s'])}, sign p {summary['sign_p']:.2g}")


def run(trees: dict[str, Path], workload: str, cycles: int, seed: int,
        probes: int) -> tuple[dict, list[str]]:
    """The A/B record of ``cycles`` alternated cycles and ``probes`` set-up launches per side."""
    workers = {side: Worker(trees[side], workload, seed) for side in SIDES}
    try:
        for side in SIDES:
            workers[side].cycle(cycle_seed(seed, -1))
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for index in range(cycles):
            job_seed = cycle_seed(seed, index)
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                runs[side].append(workers[side].cycle(job_seed))
    finally:
        for w in workers.values():
            w.close()
    setup: dict[str, list[float]] = {side: [] for side in SIDES}
    for index in range(probes):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            setup[side].append(setup_probe(trees[side], workload, seed))

    mismatches = []
    for index, (a, b) in enumerate(zip(runs["parent"], runs["change"])):
        for ja, jb in zip(a["jobs"], b["jobs"]):
            if (ja["sha256"], ja["failure"]) != (jb["sha256"], jb["failure"]):
                mismatches.append(f"cycle {index} job {ja['name']}: parent {ja['sha256'][:12]} "
                                  f"{ja['failure']}, change {jb['sha256'][:12]} {jb['failure']}")
    names = [job["name"] for job in runs["parent"][0]["jobs"]]
    record = {
        "workload": workload, "cycles": cycles, "seed": seed, "nproc": os.cpu_count(),
        "commits": {side: git_commit(trees[side]) for side in SIDES},
        "items_per_cycle": {side: runs[side][0]["items"] for side in SIDES},
        "cycle": compare(*([r["s"] for r in runs[side]] for side in SIDES)),
        "jobs": {name: compare(*([r["jobs"][i]["s"] for r in runs[side]] for side in SIDES))
                 for i, name in enumerate(names)},
        "failed_jobs": {side: sum(job["failure"] is not None for r in runs[side]
                                  for job in r["jobs"]) for side in SIDES},
        "outputs_equal": not mismatches,
    }
    if probes:
        record["setup"] = compare(setup["parent"], setup["change"])
    return record, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("structured", "tables", "games"))
    parser.add_argument("--cycles", type=int, help="alternated cycles per side (required)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--setup-probes", type=int, default=24)
    parser.add_argument("--label", help="names the result file (default: the workload)")
    parser.add_argument("--out-dir", type=Path, default=Path())
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.parent, args.workload, args.seed)
    if args.cycles is None or args.cycles < 1 or args.setup_probes < 0:
        parser.error("--cycles must be positive and --setup-probes not negative")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "junta_lab").is_dir() or not (tree / "perfbench").is_dir():
            parser.error(f"{side} {tree} is not a junta-lab checkout")
    record, mismatches = run(trees, args.workload, args.cycles, args.seed, args.setup_probes)
    path = args.out_dir / f"AB_{args.label or args.workload}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload}, {args.cycles} cycles from seed {args.seed}, "
          f"ratio = parent s / change s")
    print(describe("cycle", record["cycle"]))
    for name, summary in record["jobs"].items():
        print(describe(name, summary))
    if "setup" in record:
        print(describe("setup", record["setup"]))
    print(f"failed jobs: parent {record['failed_jobs']['parent']}, "
          f"change {record['failed_jobs']['change']}")
    for line in mismatches[:20]:
        print(f"output differs: {line}")
    print(f"outputs equal: {record['outputs_equal']}; wrote {path}")
    return 0 if record["outputs_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
