"""Command-line front end.

Subcommands: gen, dist, game, dtv, verify, curve.  Exit codes: 0 on
success, 1 on a failed assertion, 2 on usage errors.  All randomized
subcommands take an explicit 64-bit seed so reruns are byte-identical.

Plan files for ``game`` are JSON objects with exactly one of:
  "T":   list of index lists (set queries; universe from "m" or the max index)
  "ell": list of per-element counts
  "X":   list of 0/1 strings, plus an optional "decider" name
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import binom_stats, harness, params as params_mod, tasks
from .boolfn import NO_STYLE, YES_STYLE, BitString, TruthTable, to_table
from .errors import DimensionMismatch, InvalidInput, JuntaLabError
from .hardgen import sample_block_at, sample_d1, sample_d2, sample_yes, sample_no
from .junta_distance import dist_to_k_junta
from .rng import RandomStream, Seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", required=True, help="parameter config file")
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--out", help="output path (CSV or table)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Parsing reads it and never changes it, so every ``main`` call shares it.
    A single ``junta-lab`` command builds it once either way; only repeated
    in-process ``main`` calls (the tests, ``perfbench``) save the 1-2 ms.
    """
    parser = argparse.ArgumentParser(
        prog="junta-lab",
        description="hard-instance generators, oracle games, and exact distance oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample an instance from one distribution")
    gen.add_argument("--dist", required=True, choices=["yes", "no", "d1", "d2"])
    gen.add_argument("--params", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--emit-table", help="write the truth table here (n <= 24)")

    dist = sub.add_parser("dist", help="exact distance of a truth table to k-juntas")
    dist.add_argument("--table", required=True, help="truth table file")
    dist.add_argument("--k", type=int, required=True)
    dist.add_argument("--eps", type=float, help="farness threshold in (0, 1]")

    game = sub.add_parser("game", help="play a distinguishing game from a plan file")
    game.add_argument("--mode", required=True, choices=["sseq", "sssq", "strings"])
    game.add_argument("--plan", required=True, help="JSON plan file")
    game.add_argument("--params", required=True)
    game.add_argument("--trials", type=int, default=1000)
    game.add_argument("--seed", type=int, default=0)

    dtv = sub.add_parser("dtv", help="exact binomial TV distance and the shift bound")
    dtv.add_argument("--c", type=int, required=True)
    dtv.add_argument("--p", type=float, required=True)
    dtv.add_argument("--q", type=float, required=True)
    dtv.add_argument("--lambda", dest="lam", type=float, required=True)

    verify = sub.add_parser("verify", help="run one verification experiment")
    verify.add_argument("--experiment", required=True, choices=list(harness.EXPERIMENTS))
    _add_common(verify)

    curve = sub.add_parser("curve", help="budget-vs-advantage curve (alias of sseq_curve)")
    _add_common(curve)
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    p = params_mod.load(args.params)
    seed = Seed(args.seed)
    if args.dist in ("yes", "no"):
        sampler = sample_yes if args.dist == "yes" else sample_no
        f = sampler(p, seed)
        info = {
            "dist": args.dist,
            "n": p.n,
            "seed": args.seed,
            "M": list(f.M.members),
            "A": list(f.A.members),
            "kind": f.kind,
        }
        if args.emit_table:
            harness.write_atomic(args.emit_table, to_table(f).serialize())
            info["table"] = args.emit_table
    else:
        sampler2 = sample_d1 if args.dist == "d1" else sample_d2
        table = sampler2(p.n, p.epsilon, RandomStream([seed], args.dist))
        info = {"dist": args.dist, "n": p.n, "seed": args.seed, "ones": int(table.table.sum())}
        if args.emit_table:
            harness.write_atomic(args.emit_table, table.serialize())
            info["table"] = args.emit_table
    print(json.dumps(info))
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    table = TruthTable.deserialize(params_mod.read_text(args.table))
    report = dist_to_k_junta(table, args.k, args.eps)
    print(json.dumps(report.as_json_dict()))
    return 0


def _plan_from_file(path: str, mode: str):
    text = params_mod.read_text(path)
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise InvalidInput(f"plan file {path} is not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInput("a plan file must hold a JSON object")
    try:
        return _plan_from_json(raw, mode)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed plan in {path}: {exc}") from exc


def _int_list(value, what: str) -> list:
    """``value`` if it is a JSON list of integers; anything else is a usage error."""
    if not isinstance(value, list):
        raise InvalidInput(f"{what} must be a list of integers, got {value!r}")
    for v in value:
        if type(v) is not int:
            raise InvalidInput(f"{what} must hold only integers, got {v!r}")
    return value


def _plan_from_json(raw: dict, mode: str):
    kinds = [key for key in ("T", "ell", "X") if key in raw]
    if len(kinds) > 1:
        raise InvalidInput(f"a plan file holds exactly one of 'T', 'ell' and 'X', got {kinds}")
    if mode == "sseq":
        if "ell" not in raw:
            raise JuntaLabError("sseq mode expects an 'ell' list in the plan file")
        return tasks.ElementQueryPlan.of(_int_list(raw["ell"], "'ell'"))
    if mode == "sssq":
        if "T" not in raw:
            raise JuntaLabError("sssq mode expects a 'T' list of index lists")
        if not isinstance(raw["T"], list):
            raise InvalidInput(f"'T' must be a list of index lists, got {raw['T']!r}")
        sets = [_int_list(T, "each query in 'T'") for T in raw["T"]]
        if "m" not in raw:
            m = max((max(T) for T in sets if T), default=1)
        elif type(raw["m"]) is int and raw["m"] >= 1:
            m = raw["m"]
        else:
            raise InvalidInput(f"'m' must be a positive integer, got {raw['m']!r}")
        return tasks.SetQueryPlan.of(m, sets)
    if "X" not in raw:
        raise JuntaLabError("strings mode expects an 'X' list of 0/1 strings")
    decider_name = raw.get("decider", "all_zero_yes")
    if decider_name not in harness.DECIDERS:
        raise JuntaLabError(
            f"unknown decider {decider_name!r}; options: {sorted(harness.DECIDERS)}"
        )
    X = raw["X"]
    if not isinstance(X, list) or not all(isinstance(s, str) for s in X):
        raise InvalidInput(f"'X' must be a list of 0/1 strings, got {X!r}")
    queries = tuple(BitString.from_text(s) for s in X)
    return tasks.StringQueryPlan(queries=queries, decider=harness.DECIDERS[decider_name])


def cmd_game(args: argparse.Namespace) -> int:
    p = params_mod.load(args.params)
    plan = _plan_from_file(args.plan, args.mode)
    if args.mode == "strings":
        if plan.n != p.n:
            raise DimensionMismatch(
                f"plan strings have length {plan.n}, but the params have n = {p.n}"
            )
        result = harness.run_game(
            yes=functools.partial(sample_block_at, p, YES_STYLE),
            no=functools.partial(sample_block_at, p, NO_STYLE),
            algorithm=plan,
            trials=args.trials,
            seed=args.seed,
        )
    else:
        result = harness.run_hidden_set_game(plan, p, args.trials, args.seed)
    print(json.dumps(result.as_json_dict()))
    return 0


def cmd_dtv(args: argparse.Namespace) -> int:
    r = args.p * args.lam
    x = (args.q - args.p) * args.lam
    exact = binom_stats.exact_dtv(
        binom_stats.BinomialSpec(args.c, r),
        binom_stats.BinomialSpec(args.c, min(r + x, 1.0)),
    )
    shift = binom_stats.tv_shift_param(x, args.c, r)
    bound = binom_stats.tv_shift_bound(x, args.c, r)
    print(json.dumps({"dtv": exact, "tau": shift, "bound": bound}))
    return 0


def _run_configured(args: argparse.Namespace, experiment: str) -> int:
    p = params_mod.load(args.params)
    config = harness.ExperimentConfig(
        params=p,
        experiment=experiment,
        trials=args.trials,
        seed=args.seed,
        output_path=args.out,
    )
    code, report = harness.run_all(config)
    if code == 0:
        for check in report.checks:
            print(f"PASS {check.name}: {check.detail}")
    else:
        print(json.dumps(report.failure_dict()))
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    return _run_configured(args, args.experiment)


def cmd_curve(args: argparse.Namespace) -> int:
    return _run_configured(args, "sseq_curve")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "dist": cmd_dist,
        "game": cmd_game,
        "dtv": cmd_dtv,
        "verify": cmd_verify,
        "curve": cmd_curve,
    }
    try:
        return handlers[args.command](args)
    except (JuntaLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
