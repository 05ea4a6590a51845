#!/usr/bin/env python3
"""Time fiber-wise ``to_table`` against per-point evaluation on fixed seeds.

For yes and no desk instances at n in {10, 12, 14, 16} it times
``to_table`` and the per-point reference ``[f.eval(x) for every x]``, which
is how tables were built before ``to_table`` went fiber by fiber; at n = 20
and 24 (the truth-table cap) it times ``to_table`` alone.  Each case records
the median and quartiles of its repeats and the number of blake2b digests
each path derives.  The script checks that both paths give the same table
and that the digest counts match their closed forms, and exits 1 if not.

Writes BENCH_2.json at the root of the checkout.

Usage: python scripts/bench.py
"""

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from junta_lab import rng
from junta_lab.boolfn import BitString, TruthTable, to_table
from junta_lab.hardgen import Seed, sample_no, sample_yes
from junta_lab.harness import desk_params

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_2.json"
SEED = 1
COMPARED = (10, 12, 14, 16)
FAST_ONLY = (20, 24)
REPEATS = {"per_point": 3, "to_table": 7}
SAMPLERS = {"yes": sample_yes, "no": sample_no}


def per_point_table(f) -> TruthTable:
    n = f.n
    return TruthTable(n, np.array([f.eval(BitString(n, c)) for c in range(1 << n)]))


@contextmanager
def counted_digests():
    """Count ``rng.derive_u64`` calls, which every digest-derived bit goes through."""
    original = rng.derive_u64
    count = [0]

    def counting(*args):
        count[0] += 1
        return original(*args)

    rng.derive_u64 = counting
    try:
        yield count
    finally:
        rng.derive_u64 = original


def timed(build, f, repeats: int) -> dict:
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        build(f)
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
    result = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "params": "desk_params(n): alpha 0.75, epsilon 0.1",
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
