"""Command line behaviour: exit codes, text rendering, JSON mode."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from analogia import AnalogiaError, parse_session, run
from analogia.cli import _build_parser, _json_text, _render, main
from analogia.formula import MAX_FORMULA_DEPTH
from analogia.repcheck import PropertyId, RelationClass, SweepResult, Violation

from conftest import SESSIONS_DIR

COMBI = str(SESSIONS_DIR / "combi.ana")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ====================================================================
# Argument handling
# ====================================================================


class TestArguments:
    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_repcheck_requires_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["repcheck"])
        assert exc.value.code == 2

    def test_bad_class_choice_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["repcheck", "--n", "2", "--class", "wild"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, choices",
        [("--class", "'all', 'smooth', 'ranked'"), ("--mode", "'soundness', 'completeness'")],
    )
    def test_repcheck_choice_errors_name_every_choice(self, capsys, monkeypatch, flag, choices):
        monkeypatch.setenv("COLUMNS", "80")  # the usage lines wrap at the terminal width
        with pytest.raises(SystemExit) as exc:
            main(["repcheck", "--n", "1", flag, "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "usage: analogia repcheck [-h] --n N [--class {all,smooth,ranked}]\n"
            "                         [--mode {soundness,completeness}] [--json]\n"
            f"analogia repcheck: error: argument {flag}: invalid choice: 'x' (choose from {choices})\n"
        )

    def test_one_parser_serves_every_call(self, capsys):
        # --json before the subcommand, a usage error, --json after it:
        # the parser built once prints what a fresh one prints each time.
        calls = (["--json", "best", COMBI], ["best"], ["best", COMBI, "--json"])

        def outputs(fresh):
            got = []
            for argv in calls:
                if fresh:
                    _build_parser.cache_clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                got.append((code, *capsys.readouterr()))
            return got

        shared = outputs(fresh=False)
        assert _build_parser() is _build_parser()
        assert [code for code, _, _ in shared] == [0, 2, 0]
        assert shared == outputs(fresh=True)

    def test_missing_file_reports_and_fails(self, capsys):
        code, out, err = run_cli(capsys, "check", "no_such_session.ana")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read no_such_session.ana:")

    def test_undecodable_file_reports_and_fails(self, capsys, tmp_path):
        latin = tmp_path / "latin1.ana"
        latin.write_bytes("domain S { objects: caf\xe9; }\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "check", str(latin))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {latin}: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_semantic_error_reports_and_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.ana"
        bad.write_text("domain S { objects: a; }\n")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert err.startswith("error: ")
        assert "cannot be inferred" in err

    def test_non_ascii_digit_is_a_positioned_error(self, capsys, tmp_path):
        # str.isdigit accepts "²", but int() does not: numbers are ASCII only
        path = tmp_path / "digit.ana"
        path.write_text("domain S { objects: a; pred P/\u00b2; }\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 1
        assert out == ""
        assert re.fullmatch(
            r"error: line 1, column 31: unexpected character '\u00b2'\n", err
        )

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("pred W/1;", f"pred W/{'1' * 5000};", "line 8, column 10"),
            ("counts(1, 1);", f"counts({'9' * 5000}, 1);", "line 50, column 19"),
        ],
        ids=["arity", "weight"],
    )
    def test_a_number_past_the_digit_limit_is_a_positioned_error(
        self, capsys, tmp_path, old, new, where
    ):
        path = tmp_path / "long.ana"
        path.write_text((SESSIONS_DIR / "counts.ana").read_text().replace(old, new))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {where}: number of 5000 digits is too long\n"


# ====================================================================
# Text rendering
# ====================================================================


class TestTextOutput:
    def test_check(self, capsys):
        code, out, err = run_cli(capsys, "check", COMBI)
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "session ok",
            "  domains: S, T",
            "  source: S",
            "  target: T",
            "  analogies: first, mixed, second",
            "  working set: 4 sentences",
            "  queries: 2",
            "  closure: off",
            "  preference: dominance",
        ]

    def test_check_singular_sentence(self, capsys, tmp_path):
        session = tmp_path / "one.ana"
        session.write_text(
            "domain S { objects: a; pred P/1; fact P(a) = true; }\n"
            "domain T { objects: b; pred R/1; }\n"
            "analogy m from S to T { map P -> R; map a -> b; }\n"
            "workingset { P(a); }\n"
        )
        _, out, _ = run_cli(capsys, "check", str(session))
        assert "  working set: 1 sentence" in out.splitlines()

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", COMBI)
        assert code == 0
        lines = out.splitlines()
        start = lines.index("analogy first")
        assert lines[start : start + 6] == [
            "analogy first",
            "  positive: P(x)",
            "  negative: P(x')",
            "  open: Q(x) [true], Q(x') [true]",
            "  not applicable: (none)",
            "  untranslatable: (none)",
        ]

    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", COMBI)
        assert code == 0
        lines = out.splitlines()
        assert "  positive pairs: P(x) ~> Pa(y)" in lines
        assert "  negative (source true): P(x) ~> Pb(y)" in lines
        assert "  plausible: Q(x) ~> Qa(y) [true], Q(x') ~> Qa(y') [true]" in lines

    def test_score(self, capsys):
        code, out, _ = run_cli(capsys, "score", COMBI)
        assert code == 0
        assert out.splitlines() == [
            "first: n=1 r=1 s=0 p=1/3",
            "mixed: n=2 r=0 s=0 p=2/3",
            "second: n=1 r=1 s=0 p=1/3",
        ]

    def test_score_undefined_p(self, capsys, tmp_path):
        session = tmp_path / "no_pos.ana"
        session.write_text(
            "domain S { objects: a; pred P/1; fact P(a) = true; }\n"
            "domain T { objects: b; pred R/1; fact R(b) = false; }\n"
            "analogy m from S to T { map P -> R; map a -> b; }\n"
            "workingset { P(a); }\n"
        )
        _, out, _ = run_cli(capsys, "score", str(session))
        assert out.splitlines() == [
            "m: n=0 r=1 s=0 p=undefined (no positive support)"
        ]

    def test_best(self, capsys):
        code, out, _ = run_cli(capsys, "best", COMBI)
        assert code == 0
        assert out.splitlines() == [
            "carrier: first, mixed, second",
            "edges:",
            "  mixed over first",
            "  mixed over second",
            "best: mixed",
        ]

    def test_best_empty(self, capsys):
        code, out, _ = run_cli(capsys, "best", str(SESSIONS_DIR / "cycle.ana"))
        assert code == 0
        assert out.splitlines()[-1] == "best: (none)"

    def test_best_no_edges(self, capsys):
        code, out, _ = run_cli(capsys, "best", str(SESSIONS_DIR / "smoke.ana"))
        assert code == 0
        assert "edges: (none)" in out.splitlines()

    def test_entail_entailed(self, capsys):
        code, out, _ = run_cli(capsys, "entail", COMBI)
        assert code == 0
        assert out.splitlines() == [
            "Qa(y): entailed true [support: mixed]",
            "Qb(y'): entailed true [support: mixed]",
        ]

    def test_entail_conflicted(self, capsys):
        _, out, _ = run_cli(capsys, "entail", str(SESSIONS_DIR / "conflict.ana"))
        assert out.splitlines() == [
            "C(t): conflicted [gloomy: false; sunny: true]"
        ]

    def test_entail_no_support_with_warning(self, capsys):
        _, out, _ = run_cli(capsys, "entail", str(SESSIONS_DIR / "cycle.ana"))
        assert out.splitlines() == [
            "Ma(u): no support",
            "  warning: no analogy survives the preference; the best set is empty",
        ]

    def test_entail_settled(self, capsys):
        _, out, _ = run_cli(capsys, "entail", str(SESSIONS_DIR / "identity.ana"))
        assert out.splitlines() == ["F(w): settled in target = true"]

    def test_entail_no_queries(self, capsys):
        _, out, _ = run_cli(capsys, "entail", str(SESSIONS_DIR / "weights.ana"))
        assert out.splitlines() == ["no queries"]

    @pytest.mark.parametrize("command", ["classify", "report", "score"])
    def test_no_analogies(self, capsys, command):
        code, out, err = run_cli(capsys, command, str(SESSIONS_DIR / "empty_space.ana"))
        assert (code, out, err) == (0, "no analogies\n", "")

    @pytest.mark.parametrize(
        "command", ["check", "classify", "report", "score", "best", "entail"]
    )
    @pytest.mark.parametrize(
        "path", sorted(SESSIONS_DIR.glob("*.ana")), ids=lambda path: path.name
    )
    def test_every_bundled_session_says_something(self, capsys, path, command):
        code, out, err = run_cli(capsys, command, str(path))
        _, _, json_err = run_cli(capsys, "--json", command, str(path))
        if json_err:
            assert (code, out, err) == (1, "", json_err)
        else:
            assert (code, err) == (0, "")
            assert out.strip()


# ====================================================================
# Repcheck
# ====================================================================


class TestRepcheckCli:
    def test_soundness_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "repcheck", "--n", "3", "--class", "ranked"
        )
        assert code == 0
        assert out.splitlines() == [
            "repcheck soundness class=ranked n=3",
            "  examined: 64",
            "  considered: 37",
            "  violations: 0",
            "  stats: transitive=13",
            "result: ok",
        ]

    def test_completeness_violations_fail_the_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "repcheck",
            "--n",
            "2",
            "--mode",
            "completeness",
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "result: violations found"
        assert "  violations: 5" in lines
        assert any(
            line.startswith("  violation: no representing relation for choice")
            for line in lines
        )
        assert not any("more" in line for line in lines)

    def test_violation_lines_are_capped(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "repcheck",
            "--n",
            "3",
            "--class",
            "smooth",
            "--mode",
            "completeness",
        )
        assert code == 1
        lines = out.splitlines()
        assert sum(line.startswith("  violation:") for line in lines) == 5
        assert "  ... and 11 more" in lines

    def test_a_soundness_violation_line(self):
        violation = Violation((("a", "b"),), None, PropertyId.MU_PR, ("a",), ("a", "b"))
        result = SweepResult("soundness", RelationClass.ALL, 2, 1, 1, (violation,))
        lines = _render({"command": "repcheck", **result.to_json_dict()})
        assert "  violation: MuPR fails at X={a}, Y={a, b} for relation [a->b]" in lines

    def test_json_violations_still_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "repcheck", "--n", "2", "--mode", "completeness"
        )
        assert code == 1
        assert json.loads(out)["violation_count"] == 5


# ====================================================================
# JSON mode
# ====================================================================


class TestJsonMode:
    @pytest.mark.parametrize(
        "command", ["check", "classify", "report", "score", "best", "entail"]
    )
    def test_json_matches_run(self, capsys, command):
        code, out, err = run_cli(capsys, "--json", command, COMBI)
        assert code == 0
        assert err == ""
        with open(COMBI, encoding="utf-8") as handle:
            expected = run(parse_session(handle.read()), command)
        assert json.loads(out) == expected
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_flag_position_does_not_matter(self, capsys):
        _, before, _ = run_cli(capsys, "--json", "entail", COMBI)
        _, after, _ = run_cli(capsys, "entail", COMBI, "--json")
        assert before == after

    def test_repcheck_json_flag_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "repcheck", "--n", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "repcheck"
        assert doc["examined"] == 4


# Strings that exercise every escape: quotes, backslashes, control
# characters, DEL, non-ASCII and astral text, and lone surrogates.
JSON_STRINGS = st.text(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ud800\U0001d11e')
    | st.characters(blacklist_categories=())
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_STRINGS, inner, max_size=4),
    max_leaves=24,
)
REPCHECK_SWEEPS = [
    (mode, n, cls)
    for mode in ("soundness", "completeness")
    for n in (1, 2, 3)
    for cls in ("all", "smooth", "ranked")
]


class TestJsonWriter:
    """The CLI prints exactly json.dumps(run(...), indent=2)."""

    @given(JSON_VALUES)
    @example({})
    @example([])
    @example(())
    @example({"": {"": []}, "a": [{}, [], [[]]]})
    @example([None, True, False, 0, -1, 2**70, "", "\"\\"])
    @example([1.5, -0.0, float("inf"), float("nan")])
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_text_is_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "command", ["check", "classify", "report", "score", "best", "entail"]
    )
    @pytest.mark.parametrize(
        "path", sorted(SESSIONS_DIR.glob("*.ana")), ids=lambda path: path.name
    )
    def test_every_bundled_session(self, capsys, path, command):
        code, out, err = run_cli(capsys, "--json", command, str(path))
        try:
            expected = run(parse_session(path.read_text(encoding="utf-8")), command)
        except AnalogiaError as failure:
            assert (code, out, err) == (1, "", f"error: {failure}\n")
            return
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2) + "\n"

    @pytest.mark.parametrize(
        "mode, n, cls", REPCHECK_SWEEPS, ids=[f"{m}-{n}-{c}" for m, n, c in REPCHECK_SWEEPS]
    )
    def test_repcheck_sweeps(self, capsys, mode, n, cls):
        code, out, _ = run_cli(
            capsys, "--json", "repcheck", "--mode", mode, "--n", str(n), "--class", cls
        )
        expected = run(None, "repcheck", n=n, relation_class=cls, mode=mode)
        assert out == json.dumps(expected, indent=2) + "\n"
        assert code == (1 if expected["violation_count"] else 0)


# ====================================================================
# Entry points
# ====================================================================


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "analogia.cli", "check", COMBI],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("session ok")

    def test_package_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "analogia", "--json", "best", COMBI],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["best"] == ["mixed"]

    @pytest.mark.parametrize(
        "argv", [["--json", "classify", COMBI], ["repcheck", "--n", "2"]], ids=["json", "text"]
    )
    def test_a_closed_stdout_ends_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "analogia", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")


def _starts(exe, env=None):
    try:
        proc = subprocess.run([exe, "-c", "pass"], capture_output=True, timeout=60, env=env)
        return proc.returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        return False


class TestLowestSupportedPython:
    """pyproject's requires-python floor gives the same output."""

    @pytest.fixture(scope="class")
    def python310(self):
        """The python3.10 on PATH and the environment it starts in. A
        pyenv shim starts only with a version selected, so when it does
        not start as it is, the 3.10 that pyenv names is selected."""

        exe = shutil.which("python3.10")
        if exe is None:
            pytest.skip("no python3.10 on PATH")
        if _starts(exe):
            return exe, os.environ
        pyenv = shutil.which("pyenv")
        try:
            found = pyenv and subprocess.run(
                [pyenv, "whence", "python3.10"], capture_output=True, text=True, timeout=60
            ).stdout.split()
        except (OSError, subprocess.TimeoutExpired):
            found = None
        if found:
            env = {**os.environ, "PYENV_VERSION": found[0]}
            if _starts(exe, env):
                return exe, env
        pytest.skip("no python3.10 on PATH that starts")

    @pytest.fixture(scope="class")
    def outputs310(self, python310):
        """(exit code, stdout, stderr) of main for every case, keyed by
        (command, session path), all run in one python3.10 process."""

        exe, env = python310
        proc = subprocess.run(
            [exe, "-c", _MAIN_PER_CASE],
            input=json.dumps([_argv(command, path) for command, path in _CASES]),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return dict(zip(_CASES, (tuple(out) for out in json.loads(proc.stdout))))

    @pytest.mark.parametrize(
        "path", sorted(SESSIONS_DIR.glob("*.ana")), ids=lambda path: path.name
    )
    def test_check_prints_the_same(self, outputs310, capsys, path):
        assert outputs310["check", path] == run_cli(capsys, *_argv("check", path))

    @pytest.mark.parametrize("command", ["classify", "report", "best", "entail"])
    @pytest.mark.parametrize(
        "path", sorted(SESSIONS_DIR.glob("*.ana")), ids=lambda path: path.name
    )
    def test_json_prints_the_same(self, outputs310, capsys, path, command):
        assert outputs310[command, path] == run_cli(capsys, *_argv(command, path))

    def test_package_invocation(self, python310, capsys):
        exe, env = python310
        argv = _argv("best", COMBI)
        proc = subprocess.run(
            [exe, "-m", "analogia", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


def _argv(command, path):
    return ["--json", command, str(path)]


_CASES = [
    (command, path)
    for command in ("check", "classify", "report", "best", "entail")
    for path in sorted(SESSIONS_DIR.glob("*.ana"))
]
# Reads a JSON list of argument lists on stdin and writes a JSON list of
# [exit code, stdout, stderr], one per call of main.
_MAIN_PER_CASE = """
import contextlib, io, json, sys
from analogia.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


# ====================================================================
# Deeply nested formulas
# ====================================================================

DEEP_HEAD = """\
domain S { objects: a; pred P/1; func f/1; interp f(a) = a; fact P(a) = true; }
domain T { objects: b; pred R/1; func g/1; interp g(b) = b; }
analogy m from S to T { map P -> R; map a -> b; map f -> g; }
"""
# Each shape nests k levels around an atom whose constant adds two more.
DEEP_SHAPES = {
    "not": lambda k, p, c, f: "!" * k + f"{p}({c})",
    "and": lambda k, p, c, f: " & ".join([f"{p}({c})"] * (k + 1)),
    "or": lambda k, p, c, f: " | ".join([f"{p}({c})"] * (k + 1)),
    "implies": lambda k, p, c, f: " -> ".join([f"{p}({c})"] * (k + 1)),
    "parens": lambda k, p, c, f: "(" * k + f"{p}({c})" + ")" * k,
    "forall": lambda k, p, c, f: "".join(f"forall v{i}. " for i in range(k))
    + f"{p}(v0)",
    "term": lambda k, p, c, f: f"{p}(" + f"{f}(" * k + c + ")" * (k + 1),
}


def deep_session(shape, k):
    build = DEEP_SHAPES[shape]
    return (
        DEEP_HEAD
        + f"workingset {{ {build(k, 'P', 'a', 'f')}; }}\n"
        + f"query {build(k, 'R', 'b', 'g')};\n"
    )


class TestDeepFormulas:
    @pytest.mark.parametrize("command", ["check", "classify"])
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_past_the_cap_is_a_positioned_error(self, capsys, tmp_path, shape, command):
        path = tmp_path / "deep.ana"
        path.write_text(deep_session(shape, 3000))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert re.fullmatch(
            r"error: line \d+, column \d+: formula nests deeper than "
            rf"{MAX_FORMULA_DEPTH} levels\n",
            err,
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_at_the_cap_every_command_runs(self, capsys, tmp_path, shape):
        path = tmp_path / "deep.ana"
        path.write_text(deep_session(shape, MAX_FORMULA_DEPTH - 2))
        for command in ("check", "classify", "report", "score", "best", "entail"):
            code, out, err = run_cli(capsys, "--json", command, str(path))
            assert (code, err) == (0, "")

    def test_vacuous_binders_leave_the_loop(self, capsys, tmp_path):
        # Folded over the universe, these 60 binders would cost 2^60
        # evaluations; the compiled evaluator drops the 59 unused ones.
        path = tmp_path / "vacuous.ana"
        binders = "".join(f"forall v{i}. " for i in range(60))
        path.write_text(
            "domain S { objects: a, b; pred P/1; fact P(a) = true; fact P(b) = true; }\n"
            "domain T { objects: c, d; pred R/1; fact R(c) = true; fact R(d) = false; }\n"
            "analogy m from S to T { map P -> R; map a -> c; map b -> d; }\n"
            f"workingset {{ {binders}P(v0); }}\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "--json", "classify", str(path))
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        (report,) = json.loads(out)["reports"]
        assert report["negative"] == [f"{binders}P(v0)"]
