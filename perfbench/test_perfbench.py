"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import checker
import run
import spans
import workloads
from sessiongen import generate

run.import_package()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["analogia.cli"].main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _session_op(workload, s, v, command):
    text = workloads.pool_sessions(workload)[(s, v)]
    path = run.OUT / "selftest" / f"{workload}-s{s}v{v}.ana"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    key = workloads.digest_key(text, command)
    return workloads.Op("cli", command, ("--json", command, str(path)), key, f"s{s}v{v}")


# -- generator ---------------------------------------------------------


def test_generator_is_deterministic_within_and_across_processes():
    params = workloads.CLOSURE_ATOMS[1]
    text = generate(params, "determinism")
    assert generate(params, "determinism") == text
    assert generate(params, "other") != text
    code = (
        "import sys, hashlib; sys.path.insert(0, 'perfbench');"
        "from sessiongen import generate; from workloads import CLOSURE_ATOMS;"
        "print(hashlib.sha256(generate(CLOSURE_ATOMS[1], 'determinism').encode()).hexdigest())"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345"}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=run.ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(workloads.SESSION_WORKLOADS))
def test_every_generated_session_passes_check(workload):
    files = workloads.write_sessions(workload, run.OUT / "selftest" / workload)
    for (s, v), (path, _) in files.items():
        code, out, err = _cli(["--json", "check", str(path)])
        assert code == 0, (s, v, err)
        assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("workload", sorted(workloads.SESSION_WORKLOADS))
def test_contract_covers_every_pool_op(workload):
    contract = checker.load_contract()
    for text in workloads.pool_sessions(workload).values():
        for command in workloads.SESSION_COMMANDS:
            assert workloads.digest_key(text, command) in contract


# -- checker -----------------------------------------------------------


def _entailed_op():
    """An entail op on a pool session whose output has an entailed verdict."""

    for s in range(len(workloads.CLOSURE_ATOMS)):
        op = _session_op("closure_atoms", s, 0, "entail")
        code, out, err = _cli(op.argv)
        if any(v["status"] == "entailed" for v in json.loads(out)["verdicts"]):
            return op, code, out, err
    raise AssertionError("no pool session entails anything")


def test_checker_accepts_the_recorded_output():
    op, code, out, err = _entailed_op()
    assert checker.Checker(checker.load_contract()).check_cli(op, code, out, err) is None


def test_flipped_verdict_is_a_failed_op():
    op, code, out, err = _entailed_op()
    doc = json.loads(out)
    verdict = next(v for v in doc["verdicts"] if v["status"] == "entailed")
    verdict["value"] = "false" if verdict["value"] == "true" else "true"
    corrupted = json.dumps(doc, indent=2) + "\n"

    problem = checker.Checker(checker.load_contract()).check_cli(op, code, corrupted, err)
    assert problem is not None
    tally = run.Tally()
    tally.add(op, 0.01, 0.01, problem)
    assert len(tally.failures) == 1 and len(tally.walls) == 1


def test_invariants_catch_what_a_wrong_contract_would_hide():
    best_op = _session_op("closure_atoms", 0, 0, "best")
    doc = json.loads(_cli(best_op.argv)[1])
    a, b = doc["edges"][0]
    doc["best"] = sorted({a, b} | set(doc["best"]))
    assert "joins two best" in checker.Checker({}).invariant_problem(best_op, doc)

    classify_op = _session_op("closure_atoms", 0, 0, "classify")
    doc = json.loads(_cli(classify_op.argv)[1])
    doc["reports"][0]["negative"].append(doc["reports"][0]["formulas"][0])
    assert "exactly one bin" in checker.Checker({}).invariant_problem(classify_op, doc)


def test_wrong_exit_code_and_traceback_fail():
    op = workloads.sweep_ops()[0]
    code, out, err = _cli(op.argv)
    check = checker.Checker(checker.load_contract())
    assert check.check_cli(op, code, out, err) is None
    assert "exit code" in check.check_cli(op, 1, out, err)
    assert "traceback" in check.check_cli(op, code, out, "Traceback (most recent call last):")


def test_kernel_oracle_flags_a_wrong_answer():
    execute = run.Executor(checker.Checker({}))
    op = next(op for op in next(workloads.kernel_passes(0)) if op.command == "relation")
    result = execute._kernel_call(op)()
    assert checker.check_kernel(op, result) is None
    choice, smooth, ranked, transitive = result
    assert checker.check_kernel(op, (choice, smooth, ranked, not transitive)) is not None

    op = next(op for op in next(workloads.kernel_passes(0)) if op.command == "table")
    laws, represented = execute._kernel_call(op)()
    assert checker.check_kernel(op, (laws, represented)) is None
    (holds, witness), *rest = laws
    assert checker.check_kernel(op, (((not holds, witness), *rest), represented)) is not None


def test_kernel_inputs_cover_every_relation_and_table():
    assert len({workloads.relation_of(m, 4) for m in range(1 << 12)}) == 1 << 12
    tables = {workloads.table_of(i, 3) for i in range(1 << 12)}
    assert len(tables) == 1 << 12
    assert all(t[xs] & ~xs == 0 for t in tables for xs in range(8))


# -- spans -------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    rec = spans.SpanRecorder()
    root = rec.add("root", 0, 100)
    child = rec.add("child", 10, 40, root)
    rec.add("grandchild", 15, 25, child)
    rec.add("overlapping", 30, 50, root)  # overlaps child by 10
    rec.add("leaf", 60, 70, root)
    rec.add("past_end", 95, 120, root)  # clipped to the parent's end
    got = {rec.names[rec.name[i]]: t for i, t in enumerate(spans.self_times(rec))}
    assert got == {
        "root": 100 - (40 + 10 + 5),  # children cover 10-50, 60-70, 95-100
        "child": 30 - 10,
        "grandchild": 10,
        "overlapping": 20,
        "leaf": 10,
        "past_end": 25,
    }


def test_instrument_records_spans_and_restores_bindings():
    entailment = sys.modules["analogia.entailment"]
    original = entailment.translate
    rec = spans.SpanRecorder()
    op = _session_op("closure_atoms", 0, 0, "entail")
    with spans.Instrument(rec):
        assert entailment.translate is not original
        rec.current_op = 0
        assert _cli(op.argv)[0] == 0
    assert entailment.translate is original
    metrics = spans.layer_metrics(rec, ["entail"])
    assert metrics["session.resolve_maps.calls_per_op"] == 2
    assert metrics["analogy.translate.calls"] > 0
    names = {rec.names[rec.name[i]] for i in range(len(rec))}
    assert {"cli.main", "session.run", "entailment.entail"} <= names


def test_kernel_entries_own_their_undominated_calls():
    preference = sys.modules["analogia.preference"]
    rel = preference.PreferenceRelation(carrier=("a", "b", "c"), edges=frozenset({("a", "b")}))
    rec = spans.SpanRecorder()
    with spans.Instrument(rec):
        preference.choice_of(rel)
        preference.undominated(rel, ("a", "b"))
    names = [rec.names[rec.name[i]] for i in range(len(rec))]
    assert names == ["preference.choice_of", "preference.undominated"]
    assert list(spans.self_times(rec)) == [rec.end[i] - rec.start[i] for i in range(2)]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = set(spans.layer_metrics(spans.SpanRecorder(), []))
    layer |= {
        "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_ratio",
        "cli.interpreter_ms", "cli.import_ms",
    }
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
