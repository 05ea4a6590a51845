"""The command-line surface: every subcommand plus exit-code conventions."""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab import params as params_mod
from junta_lab.boolfn import NO_STYLE, TABLE_CAP, YES_STYLE, BitString, TruthTable
from junta_lab.cli import build_parser, main
from junta_lab.harness import DECIDERS, EXPERIMENTS, desk_params
from junta_lab.params import derive_params
from junta_lab.tasks import StringQueryPlan
from references import complement_sample, per_trial_string_game


@pytest.fixture()
def desk10_file(tmp_path):
    path = tmp_path / "desk10.cfg"
    params_mod.save(desk_params(10), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_usage_error(capsys, argv):
    """Exit code 2, nothing on stdout and exactly one ``error:`` line on stderr."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_gen_yes_and_dist(tmp_path, capsys, desk10_file):
    table_path = tmp_path / "f.tbl"
    code, out = run_cli(
        capsys,
        "gen", "--dist", "yes", "--params", desk10_file,
        "--seed", "11", "--emit-table", str(table_path),
    )
    assert code == 0
    info = json.loads(out)
    assert info["dist"] == "yes" and info["n"] == 10
    assert set(info["A"]).isdisjoint(info["M"])

    table = TruthTable.deserialize(table_path.read_text())
    assert table.n == 10

    code, out = run_cli(
        capsys, "dist", "--table", str(table_path), "--k", "7", "--eps", "0.1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["denominator"] == 1024
    assert isinstance(report["far"], bool)
    assert len(report["witness"]) == 7


def test_gen_d2_deterministic(tmp_path, capsys, desk10_file):
    outputs = []
    for _ in range(2):
        code, out = run_cli(
            capsys, "gen", "--dist", "d2", "--params", desk10_file, "--seed", "3"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["ones"] == round(1024 * 0.1)


def test_game_sseq_mode(tmp_path, capsys, desk10_file):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"ell": [4] * 8}))
    code, out = run_cli(
        capsys,
        "game", "--mode", "sseq", "--plan", str(plan),
        "--params", desk10_file, "--trials", "200", "--seed", "5",
    )
    assert code == 0
    result = json.loads(out)
    assert set(result) == {"advantage", "ci_low", "ci_high", "trials", "cost"}
    assert result["cost"] == 32
    assert result["ci_low"] <= result["advantage"] <= result["ci_high"]


def test_game_sssq_mode(tmp_path, capsys, desk10_file):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"m": 5, "T": [[1, 2, 3], [2, 4]]}))
    code, out = run_cli(
        capsys,
        "game", "--mode", "sssq", "--plan", str(plan),
        "--params", desk10_file, "--trials", "100", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out)["cost"] == 5


def test_game_strings_mode(tmp_path, capsys, desk10_file):
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps({"X": ["0000000000", "1000000000"], "decider": "all_equal_yes"})
    )
    code, out = run_cli(
        capsys,
        "game", "--mode", "strings", "--plan", str(plan),
        "--params", desk10_file, "--trials", "100", "--seed", "5",
    )
    assert code == 0
    assert json.loads(out)["cost"] == 2


@pytest.mark.parametrize("decider", ["parity_yes", "all_zero_yes"])
@pytest.mark.parametrize("seed, trials", [(0, 2), (5, 101), (2**64 - 1, 300)])
def test_game_strings_mode_equals_the_per_trial_loop(tmp_path, capsys, decider, seed, trials):
    params = desk_params(10, epsilon=1.0)
    path = tmp_path / "p.cfg"
    params_mod.save(params, str(path))
    X = [format(code, "010b") for code in (0, 1, 517, 517, 1023, 300, 64, 2)]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"X": X, "decider": decider}))
    code, out = run_cli(
        capsys,
        "game", "--mode", "strings", "--plan", str(plan),
        "--params", str(path), "--trials", str(trials), "--seed", str(seed),
    )
    assert code == 0
    loop = per_trial_string_game(
        partial(complement_sample, params, YES_STYLE), partial(complement_sample, params, NO_STYLE),
        StringQueryPlan(tuple(BitString.from_text(x) for x in X), DECIDERS[decider]), trials, seed,
    )
    assert out == json.dumps(loop.as_json_dict()) + "\n"


def test_game_rejects_unknown_decider(tmp_path, capsys, desk10_file):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"X": ["00"], "decider": "nope"}))
    code, _ = run_cli(
        capsys,
        "game", "--mode", "strings", "--plan", str(plan),
        "--params", desk10_file, "--trials", "10", "--seed", "5",
    )
    assert code == 2


@pytest.mark.parametrize(
    "mode, text",
    [
        ("sseq", "{not json"),
        ("sseq", json.dumps({"ell": [1, "x"]})),
        ("sssq", json.dumps({"m": 0, "T": [[1, 2]]})),
        ("sseq", json.dumps({"ell": [1.7, 2]})),
        ("sseq", json.dumps({"ell": ["3", 2]})),
        ("sseq", json.dumps({"ell": [True, 2]})),
        ("sseq", '{"ell": [1e400]}'),
        ("sssq", json.dumps({"T": [[1.5, 2]]})),
        ("strings", json.dumps({"X": "0101010101"})),
        ("strings", json.dumps({"X": {"0101010101": 1}})),
        ("strings", json.dumps({"X": ["0101", "0110"]})),
        # a plan file holds exactly one plan kind, even where its mode's key is valid
        ("sseq", json.dumps({"ell": [4] * 8, "X": ["01"]})),
        ("sssq", json.dumps({"m": 8, "T": [[1, 2]], "ell": [1]})),
        ("strings", json.dumps({"X": ["0" * 10], "T": [[1]], "ell": [1]})),
    ],
    ids=["not-json", "non-integer-count", "zero-m", "float-count", "string-count",
         "bool-count", "overflowing-count", "float-member", "string-X", "object-X",
         "short-queries", "ell-and-X", "T-and-ell", "all-three-kinds"],
)
def test_game_rejects_malformed_plan(tmp_path, capsys, desk10_file, mode, text):
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    assert_usage_error(capsys, [
        "game", "--mode", mode, "--plan", str(plan),
        "--params", desk10_file, "--trials", "10", "--seed", "5",
    ])


@pytest.mark.parametrize(
    "X, message",
    [("0101010101", "'X' must be a list of 0/1 strings"),
     (["0101", "0110"], "plan strings have length 4, but the params have n = 10")],
)
def test_strings_plan_errors_name_the_plan(tmp_path, capsys, desk10_file, X, message):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"X": X}))
    capsys.readouterr()
    assert main(["game", "--mode", "strings", "--plan", str(plan), "--params", desk10_file]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


# JSON values a plan file may hold.  Integers stay small: a huge "m" or
# count is a resource limit, not a malformed input.  json.dumps writes the
# non-finite floats as the Infinity and NaN tokens that json.loads reads.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=12)
    | st.sampled_from([0.5, 1.7, 2.0, math.inf, -math.inf, math.nan])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "0", "x", "3", "0000000000", "1000000000", "0101", "parity_yes"])
)
_JSON_VALUES = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
# Each mode's required key, then its optional keys.
_PLAN_KEYS = {"sseq": ("ell", ["T"]), "sssq": ("T", ["m"]), "strings": ("X", ["decider"])}


@pytest.mark.parametrize("mode", sorted(_PLAN_KEYS))
def test_game_plan_fuzz(tmp_path_factory, mode):
    """Any plan file either plays (exit 0) or is one clean usage error (exit 2)."""
    work = tmp_path_factory.mktemp(f"fuzz-{mode}")
    params_path = work / "desk10.cfg"
    params_mod.save(desk_params(10), str(params_path))
    plan_path = work / "plan.json"

    required, optional = _PLAN_KEYS[mode]

    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries(
        {required: _JSON_VALUES}, optional={key: _JSON_VALUES for key in optional}
    ))
    def play(plan):
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([
                "game", "--mode", mode, "--plan", str(plan_path),
                "--params", str(params_path), "--trials", "2", "--seed", "1",
            ])
        if code == 0:
            assert set(json.loads(out.getvalue())) >= {"advantage", "trials"}
        else:
            lines = err.getvalue().splitlines()
            assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines

    play()


def assert_clean_exit(code, out, err):
    """Exit 0 with JSON or PASS lines on stdout, or one ``error:`` line and exit 2."""
    if code == 0:
        assert out.strip(), "a successful run prints its result"
    else:
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (code, lines)


# Values a parameter-file field may be replaced with: malformed numbers,
# non-finite and extreme floats, huge integers, the other fields' words.
_CONFIG_TOKENS = (
    st.sampled_from([
        "", "x", "nan", "inf", "-inf", "1e400", "5e-324", "1" + "0" * 40, "9" * 5000,
        "true", "false", "True", "strict", "desk_scale", "0.75", "= 3", "1_0", "0x10", "\u0663",
    ])
    | st.integers(min_value=-5, max_value=30).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(max_size=6)
)
# One edit of the line list: replace a value, drop, duplicate, rename or insert a line.
_CONFIG_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["value", "drop", "duplicate", "key", "insert"]),
        st.integers(min_value=0, max_value=16),
        _CONFIG_TOKENS,
    ),
    max_size=3,
)


def edited_config(text, edits):
    lines = text.splitlines()
    for op, at, token in edits:
        at %= len(lines) + 1 if op == "insert" else max(len(lines), 1)
        if op == "insert":
            lines.insert(at, token)
        elif not lines:
            continue
        elif op == "value":
            lines[at] = lines[at].partition("=")[0] + "= " + token
        elif op == "drop":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        else:
            lines[at] = token + " =" + lines[at].partition("=")[2]
    return "\n".join(lines) + "\n"


# One edit of any input file: drop, duplicate or replace a line or a
# character, at a position taken modulo the current number of them.
_TEXT_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["drop", "duplicate", "replace"]),
        st.sampled_from(["line", "char"]),
        st.integers(min_value=0, max_value=1 << 12),
        _CONFIG_TOKENS,
    ),
    max_size=3,
)


def mutated(text, edits):
    for op, unit, at, token in edits:
        parts = text.splitlines(keepends=True) if unit == "line" else list(text)
        if not parts:
            continue
        at %= len(parts)
        if op == "drop":
            del parts[at]
        elif op == "duplicate":
            parts.insert(at, parts[at])
        else:
            parts[at] = token + "\n" if unit == "line" else token
        text = "".join(parts)
    return text


@pytest.mark.parametrize("command", ["gen", "verify"])
def test_params_file_fuzz(tmp_path_factory, command):
    """Any parameter file either runs (exit 0) or is one clean usage error (exit 2).

    The files are the valid desk file with fields edited and then lines or
    characters dropped, repeated or replaced.
    """
    work = tmp_path_factory.mktemp(f"fuzz-params-{command}")
    params_path = work / "fuzz.cfg"
    valid = params_mod.to_config_text(desk_params(10))

    @settings(max_examples=80, deadline=None)
    @given(
        _CONFIG_EDITS,
        _TEXT_EDITS,
        st.sampled_from(["yes", "no", "d1", "d2"]),
        st.sampled_from(["claim53", "verify_yes", "sseq_curve"]),
    )
    def run(edits, text_edits, dist, experiment):
        text = mutated(edited_config(valid, edits), text_edits)
        params_path.write_text(text, encoding="utf-8")
        if command == "gen":
            argv = ["gen", "--dist", dist, "--params", str(params_path), "--seed", "3"]
        else:
            argv = ["verify", "--experiment", experiment, "--params", str(params_path),
                    "--trials", "2", "--seed", "3"]
        assert_clean_exit(*run_captured(argv))

    run()


# Table files: a dimension line, then a line of bits, each drawn from
# well-formed and malformed forms.
_TABLE_HEADERS = (
    st.integers(min_value=-2, max_value=26).map(lambda n: f"n={n}")
    | st.sampled_from(["n=", "n=x", "n= 2", "m=2", "n=2.0", "n=1e3", "n=\u0663", "n=" + "9" * 5000, ""])
)
_TABLE_BITS = (
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.text(alphabet="01", min_size=1 << n, max_size=1 << n)
    )
    | st.text(alphabet="01x 2\t", max_size=20)
)
_VALID_TABLE = TruthTable(4, np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1], dtype=np.uint8)).serialize()


def test_table_file_fuzz(tmp_path_factory):
    """Any table file either gives a distance (exit 0) or is one clean usage error (exit 2).

    The files are generated, arbitrary text, or a valid table with lines or
    characters dropped, repeated or replaced.
    """
    table_path = tmp_path_factory.mktemp("fuzz-table") / "fuzz.tbl"

    @settings(max_examples=120, deadline=None)
    @given(
        st.tuples(_TABLE_HEADERS, _TABLE_BITS).map(lambda hb: f"{hb[0]}\n{hb[1]}\n")
        | st.text(max_size=24)
        | _TEXT_EDITS.map(lambda edits: mutated(_VALID_TABLE, edits)),
        st.integers(min_value=-1, max_value=5),
        st.none() | st.sampled_from(["0.1", "0", "-1", "2", "nan", "inf", "-inf", "1e-400"]),
    )
    def run(text, k, eps):
        table_path.write_text(text, encoding="utf-8")
        argv = ["dist", "--table", str(table_path), f"--k={k}"]
        if eps is not None:
            argv.append(f"--eps={eps}")
        assert_clean_exit(*run_captured(argv))

    run()


@pytest.mark.parametrize("trials", [1, 0, -3])
@pytest.mark.parametrize(
    "mode, plan_json",
    [
        ("sseq", {"ell": [4] * 8}),
        ("sssq", {"m": 8, "T": [[1, 2, 3], [2, 4]]}),
        ("strings", {"X": ["0000000000", "1000000000"]}),
    ],
)
def test_game_rejects_degenerate_trials(tmp_path, capsys, desk10_file, mode, plan_json, trials):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_json))
    assert_usage_error(capsys, [
        "game", "--mode", mode, "--plan", str(plan),
        "--params", desk10_file, "--trials", str(trials), "--seed", "5",
    ])


def test_dtv_subcommand(capsys):
    code, out = run_cli(
        capsys, "dtv", "--c", "1", "--p", "0.5", "--q", "0.75", "--lambda", "1.0"
    )
    assert code == 0
    result = json.loads(out)
    assert result["dtv"] == 0.25
    assert result["tau"] == pytest.approx(0.25 * (3 / (2 * 0.25)) ** 0.5)
    assert result["bound"] is None or result["bound"] > 0


def test_verify_subcommand_writes_csv(tmp_path, capsys, desk10_file):
    out_path = tmp_path / "claim53.csv"
    code, out = run_cli(
        capsys,
        "verify", "--experiment", "claim53", "--params", desk10_file,
        "--trials", "1", "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    assert "PASS" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "experiment,m,max_tv_gap"
    assert len(lines) == 4


def test_curve_subcommand(tmp_path, capsys, desk10_file):
    out_path = tmp_path / "curve.csv"
    code, out = run_cli(
        capsys,
        "curve", "--params", desk10_file, "--trials", "10",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == 0
    body = out_path.read_text()
    assert body.splitlines()[0] == "experiment,m,budget,advantage"


def test_usage_errors_exit_2(tmp_path, capsys, desk10_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--experiment", "unknown", "--params", desk10_file])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # missing file is a clean error, not a traceback
    code = main(["dist", "--table", str(tmp_path / "missing.tbl"), "--k", "1"])
    assert code == 2
    # so are input files that are not UTF-8 text, and directories
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    assert_usage_error(capsys, ["dist", "--table", str(binary), "--k", "1"])
    error = assert_usage_error(capsys, ["gen", "--dist", "yes", "--params", str(binary)])
    assert error == (
        f"error: {binary} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte"
    )
    assert_usage_error(capsys, ["dist", "--table", str(tmp_path), "--k", "1"])
    # and so is a farness threshold outside (0, 1]
    table = tmp_path / "f.tbl"
    table.write_text("n=2\n0110\n")
    for eps in ("nan", "inf", "-inf", "-1", "0", "1e-400", "1.5"):
        assert_usage_error(capsys, ["dist", "--table", str(table), "--k", "1", f"--eps={eps}"])
    # a table line that is not exactly 2^n characters of 0/1, while CRLF lines load
    for line in ("0120", "01\u00e9", "0110 ", "011", ""):
        table.write_text(f"n=2\n{line}\n", encoding="utf-8")
        error = assert_usage_error(capsys, ["dist", "--table", str(table), "--k", "1"])
        assert error.endswith("table line must be exactly 2^n characters of 0/1")
    table.write_bytes(b"n=2\r\n0110\r\n")
    code, out = run_cli(capsys, "dist", "--table", str(table), "--k", "1")
    assert code == 0 and json.loads(out)["numerator"] == 2
    # the shift bound needs q >= p: a negative shift has no bound to print
    assert_usage_error(capsys, ["dtv", "--c", "10", "--p", "0.6", "--q", "0.5", "--lambda", "0.5"])
    # a trial count above the cap is refused before its mass vectors start
    assert_usage_error(
        capsys, ["dtv", "--c", "100000000", "--p", "0.5", "--q", "0.6", "--lambda", "0.5"]
    )


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", [["verify", "--experiment", name] for name in EXPERIMENTS]
                         + [["curve"]], ids=" ".join)
def test_every_experiment_rejects_a_seed_outside_64_bits(capsys, desk10_file, command, seed):
    # the seedless experiments (sseq_curve, dtv_sweep, claim53) refuse one too
    error = assert_usage_error(capsys, [*command, "--params", desk10_file, "--trials", "2",
                                        "--seed", str(seed)])
    assert error == f"error: seed must be a 64-bit unsigned integer, got {seed}"


@pytest.mark.parametrize("n", [30, 63, 64, 70])
def test_budget_game_past_the_table_cap_is_a_usage_error(tmp_path, capsys, n):
    # the cap is checked before the plan is drawn, so every n past it fails alike
    path = tmp_path / "desk.cfg"
    params_mod.save(desk_params(n, epsilon=0.01), str(path))
    error = assert_usage_error(capsys, ["verify", "--experiment", "game", "--params", str(path),
                                        "--trials", "50"])
    assert error == f"error: n = {n} exceeds the truth-table cap {TABLE_CAP}"


@pytest.mark.parametrize("n", [33, 48, 62, 63, 64, 70])
def test_good_m_draws_its_plan_at_any_n(tmp_path, capsys, n):
    # plans past 32 bits read whole outputs, and past 64 bits several per query
    path = tmp_path / "desk.cfg"
    params_mod.save(desk_params(n), str(path))
    code, out = run_cli(capsys, "verify", "--experiment", "goodM", "--params", str(path),
                        "--trials", "50", "--seed", "3")
    assert code == 0
    assert out.startswith("PASS bad_fraction_within_union_bound: ")


def run_captured(argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call(tmp_path, desk10_file):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"ell": [4] * 8}))
    table = str(tmp_path / "d2.tbl")
    calls = [
        ["gen", "--dist", "d2", "--params", desk10_file, "--seed", "5", "--emit-table", table],
        ["gen", "--dist", "d3", "--params", desk10_file],
        ["dist", "--table", table, "--k", "7", "--eps", "0.1"],
        ["game", "--mode", "sseq", "--plan", str(plan), "--params", desk10_file,
         "--trials", "100", "--seed", "5"],
        ["--help"],
        ["dist", "--help"],
    ]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_captured(argv))
    shared = [run_captured(argv) for argv in calls]
    assert build_parser() is build_parser()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0]
    assert "invalid choice: 'd3'" in shared[1][2]
    assert shared[4][1] == build_parser().format_help()
    assert shared[4][1].startswith("usage: junta-lab [-h]")
    assert shared[5][1].startswith("usage: junta-lab dist [-h]")


def test_cli_reproducibility(tmp_path, capsys, desk10_file):
    args = [
        "verify", "--experiment", "verify_yes", "--params", desk10_file,
        "--trials", "20", "--seed", "17", "--out", str(tmp_path / "a.csv"),
    ]
    assert main(args) == 0
    first = (tmp_path / "a.csv").read_bytes()
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == 0
    assert (tmp_path / "b.csv").read_bytes() == first
    capsys.readouterr()


def test_strict_params_file_round_trip(tmp_path, capsys):
    path = tmp_path / "strict.cfg"
    params_mod.save(derive_params(4096, 0.75, 0.1), str(path))
    loaded = params_mod.load(str(path))
    assert loaded.q == 0.6875


# Every case's argv and stdout, recorded at a fixed source tree together with
# the params, plan and table files its argv names (paths relative to the
# directory).  A change that alters one on purpose rewrites the case and says
# so in CHANGES.md.
GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"


def test_cli_outputs_match_the_goldens(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_CLI)
    cases = json.loads((GOLDEN_CLI / "cases.json").read_text(encoding="utf-8"))
    assert len(cases) == 26
    for case in cases:
        code, out = run_cli(capsys, *case["argv"])
        assert (code, out) == (0, case["stdout"]), case["argv"]
