"""The benchmark's workloads: the jobs one cycle runs and how each job's output is checked.

A job is one call to a public entry point of junta_lab: ``harness.run_all``
with an ``ExperimentConfig``, or ``cli.main(argv)`` run in-process with its
stdout captured.  ``build`` writes every params and plan file a workload
needs under ``work`` and returns its jobs; the jobs then only take a
per-cycle seed.  A relative ``work`` keeps outputs that echo a path (gen's
"table") the same in every run.

Each job reports two kinds of trouble, kept apart on purpose:

* ``failure``: the correctness gate.  The job raised, exited non-zero or
  reported a failed check.  Counted in ``fail_ratio``.
* ``problems``: the benchmark's own checks of the output (row counts,
  fields, exact facts such as "a D2 table has round(2^n * eps) ones").  Any
  problem makes the run's ``correct`` false.
"""

from __future__ import annotations

import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from junta_lab import cli, harness, params as params_mod
from junta_lab.harness import desk_params

WORKLOADS = ("structured", "tables", "games")


@dataclass
class JobResult:
    name: str
    output: bytes
    failure: Optional[str] = None
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0


@dataclass(frozen=True)
class HarnessJob:
    """``harness.run_all`` on one experiment; the CSV it writes is the output."""

    work: Path
    name: str
    experiment: str
    params: params_mod.Params
    trials: int
    items: int
    rows: int

    def run(self, seed: int) -> JobResult:
        out = self.work / f"{self.name}.csv"
        out.unlink(missing_ok=True)
        config = harness.ExperimentConfig(
            params=self.params,
            experiment=self.experiment,
            trials=self.trials,
            seed=seed,
            output_path=str(out),
        )
        try:
            code, report = harness.run_all(config)
        except Exception:
            return JobResult(self.name, b"", failure=_last_line(traceback.format_exc()))
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        result = JobResult(self.name, text.encode("utf-8"))
        if code != 0 or not report.passed:
            failed = [c.name for c in report.checks if not c.passed]
            result.failure = f"exit {code}, failed checks {failed}"
        if text != report.csv_text():
            result.problems.append("CSV file differs from the report")
        data_rows = len(text.splitlines()) - 1
        if data_rows != self.rows:
            result.problems.append(f"{data_rows} CSV rows, expected {self.rows}")
        return result


@dataclass(frozen=True)
class CliJob:
    """``cli.main(argv)`` in-process; stdout and any ``files`` are the output.

    ``{seed}`` in ``argv`` is replaced by the cycle seed.  ``check`` gets the
    parsed JSON of stdout's last line and returns problems found in it.
    """

    name: str
    argv: tuple[str, ...]
    items: int
    check: Callable[[dict], list[str]]
    files: tuple[Path, ...] = ()

    def run(self, seed: int) -> JobResult:
        for path in self.files:
            path.unlink(missing_ok=True)
        argv = [a.format(seed=seed) for a in self.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            return JobResult(self.name, b"", failure=_last_line(traceback.format_exc()))
        text = stdout.getvalue()
        output = text.encode("utf-8")
        for path in self.files:
            output += path.read_bytes() if path.exists() else b""
        result = JobResult(self.name, output)
        if code != 0:
            result.failure = f"exit {code}: {_last_line(stderr.getvalue() or text)}"
            return result
        try:
            payload = json.loads(text.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result.problems.append(f"stdout is not a JSON line: {text[:80]!r}")
            return result
        result.problems.extend(self.check(payload))
        return result


Job = HarnessJob | CliJob


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "no output"


def _game_check(trials: int, cost: int) -> Callable[[dict], list[str]]:
    def check(out: dict) -> list[str]:
        problems = []
        if out.get("trials") != trials:
            problems.append(f"trials {out.get('trials')} != {trials}")
        if out.get("cost") != cost:
            problems.append(f"cost {out.get('cost')} != {cost}")
        adv, low, high = out.get("advantage"), out.get("ci_low"), out.get("ci_high")
        if not all(isinstance(v, float) for v in (adv, low, high)):
            problems.append("advantage or interval missing")
        elif not (-1.0 <= adv <= 1.0 and low <= adv <= high):
            problems.append(f"advantage {adv} outside [-1, 1] or its interval")
        return problems

    return check


def _gen_check(ones: int) -> Callable[[dict], list[str]]:
    def check(out: dict) -> list[str]:
        return [] if out.get("ones") == ones else [f"ones {out.get('ones')} != {ones}"]

    return check


def _dist_check(n: int, k: int, ones: int) -> Callable[[dict], list[str]]:
    # The constant-0 function is a k-junta, so the distance is at most ones / 2^n.
    def check(out: dict) -> list[str]:
        problems = []
        if out.get("denominator") != 1 << n:
            problems.append(f"denominator {out.get('denominator')} != 2^{n}")
        if not 0 <= out.get("numerator", -1) <= ones:
            problems.append(f"numerator {out.get('numerator')} outside [0, {ones}]")
        if len(out.get("witness", ())) != k:
            problems.append(f"witness {out.get('witness')} is not of size {k}")
        return problems

    return check


def _save_params(work: Path, name: str, params: params_mod.Params) -> str:
    path = work / name
    params_mod.save(params, str(path))
    return str(path)


def _write_json(work: Path, name: str, payload: dict) -> str:
    path = work / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's params and plan files under ``work``; return its jobs."""
    if workload == "structured":
        # Both jobs take the same seed, as the desk battery does, so the yes
        # side of verify_no re-samples the first 10 instances of verify_yes.
        p10 = desk_params(10)
        return [
            HarnessJob(work, "verify_yes", "verify_yes", p10, trials=20, items=20, rows=1),
            HarnessJob(work, "verify_no", "verify_no", p10, trials=10, items=20, rows=1),
        ]

    if workload == "tables":
        p14 = desk_params(14)
        params14 = _save_params(work, "desk14.params", p14)
        table = work / "d2_n14.table"
        ones = round((1 << 14) * p14.epsilon)
        return [
            HarnessJob(work, "verify_d1", "verify_d1", desk_params(12, epsilon=0.05),
                       trials=10, items=10, rows=1),
            HarnessJob(work, "verify_d2", "verify_d2", desk_params(12, epsilon=2.0**-7),
                       trials=10, items=10, rows=1),
            CliJob(
                "gen_d2_n14",
                ("gen", "--dist", "d2", "--params", params14, "--seed", "{seed}",
                 "--emit-table", str(table)),
                items=1,
                check=_gen_check(ones),
                files=(table,),
            ),
            CliJob(
                "dist_n14_k10",
                ("dist", "--table", str(table), "--k", "10", "--eps", "0.1"),
                items=0,
                check=_dist_check(14, 10, ones),
            ),
        ]

    if workload == "games":
        p10, p12 = desk_params(10), desk_params(12)
        params10 = _save_params(work, "desk10.params", p10)
        params12 = _save_params(work, "desk12.params", p12)
        m = p10.m
        sseq_plan = _write_json(work, "sseq.json", {"ell": [4] * m})
        sssq_plan = _write_json(work, "sssq.json", {"m": m, "T": [list(range(1, m + 1))] * 4})
        rand = random.Random(seed)
        queries = [format(rand.getrandbits(12), "012b") for _ in range(16)]
        strings_plan = _write_json(work, "strings.json", {"X": queries, "decider": "parity_yes"})

        def game(mode: str, plan: str, params: str, trials: int, cost: int) -> CliJob:
            return CliJob(
                f"game_{mode}",
                ("game", "--mode", mode, "--plan", plan, "--params", params,
                 "--trials", str(trials), "--seed", "{seed}"),
                items=trials,
                check=_game_check(trials, cost),
            )

        p20 = desk_params(20)
        return [
            game("sseq", sseq_plan, params10, 2000, 4 * m),
            game("sssq", sssq_plan, params10, 2000, 4 * m),
            game("strings", strings_plan, params12, 500, 16),
            HarnessJob(work, "budget_game_n14", "game", desk_params(14, epsilon=0.01),
                       trials=2000, items=2000, rows=1),
            HarnessJob(work, "goodM_n12", "goodM", p12, 2000, 2000, 1),
            HarnessJob(work, "sseq_curve_n10", "sseq_curve", p10, 1, 0, 17),
            # m = 15 takes the Monte-Carlo branch: 200 rounds per side per budget.
            HarnessJob(work, "sseq_curve_n20", "sseq_curve", p20, 200, 200 * 2 * 17, 17),
            HarnessJob(work, "dtv_sweep", "dtv_sweep", p10, 1, 0, 4),
            HarnessJob(work, "claim53", "claim53", p10, 1, 0, 3),
        ]

    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
