#!/usr/bin/env python3
"""analogia benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the package is imported from src/ next to this
directory, and generated files go to .bench_build/perfbench/. One
client sends the next op only after the previous one returned. Every
op's output is checked (checker.py); an op fails on an exception, a
traceback, an unexpected exit code or an output that fails a check.

--trace 0 times ops for --seconds and reports the end-to-end metrics:
op_p50_ms, op_p90_ms, ops_per_s (ops per second of timed op wall
time), cpu_ms_per_op, peak_rss_mb and setup_s (the median of
SETUP_REPEATS set-ups, each importing the package afresh, generating
and writing the sessions and running one warm-up op; the set-ups are
spread evenly over the run, so they meet the same host speed as the
ops); fail_ratio and the set-up's parts are printed with them.
--trace 1 sets up once, runs one mix of the same op stream twice
untraced and once traced, and reports the per-layer metrics of
spans.py plus the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 10
COLD_TIMEOUT_S = 60
BASELINE_REPEATS = 5

END_TO_END_UNITS = {
    "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_package():
    """Import analogia from this checkout's src/, never from elsewhere."""

    for name in [m for m in sys.modules if m == "analogia" or m.startswith("analogia.")]:
        del sys.modules[name]
    if not (SRC / "analogia" / "__init__.py").is_file():
        raise BenchError(f"no analogia package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("analogia")
    if Path(package.__file__).resolve().parents[2] != ROOT:
        raise BenchError(f"analogia imported from {package.__file__}, not from {SRC}")
    importlib.import_module("analogia.cli")


def cold_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ====================================================================
# Executing ops
# ====================================================================


class Executor:
    """Runs one op, returns (wall_s, cpu_s, failure reason or None)."""

    def __init__(self, check: checker.Checker):
        self.check = check
        self.cli = sys.modules["analogia.cli"]
        self.preference = sys.modules["analogia.preference"]
        self.repcheck = sys.modules["analogia.repcheck"]

    def __call__(self, op):
        return getattr(self, f"_{op.kind}")(op)

    def _cli(self, op):
        out, err = io.StringIO(), io.StringIO()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # an op's crash is a failed op
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            return wall, cpu, f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        return wall, cpu, self.check.check_cli(op, code, out.getvalue(), err.getvalue())

    def _cold(self, op):
        argv = [sys.executable, "-m", "analogia", *op.argv]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, cwd=ROOT, env=cold_env(),
                timeout=COLD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, 0.0, "timed out"
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return wall, cpu, self.check.check_cli(op, proc.returncode, proc.stdout, proc.stderr)

    def _kernel(self, op):
        call = self._kernel_call(op)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an op's crash is a failed op
            return time.perf_counter() - t0, time.process_time() - cpu0, f"raised {exc!r}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        return wall, cpu, checker.check_kernel(op, result)

    def _kernel_call(self, op):
        """The call to time, with its arguments built beforehand."""

        pref, rep = self.preference, self.repcheck
        n = op.payload[0]
        items = checker.ITEMS[:n]
        if op.command == "relation":
            rel = pref.PreferenceRelation(
                carrier=items,
                edges=frozenset((items[i], items[j]) for i, j in op.payload[1]),
            )
            return lambda: (
                pref.choice_of(rel), pref.is_smooth(rel),
                pref.is_ranked(rel), pref.is_transitive(rel),
            )
        table, cls = op.payload[1], rep.RelationClass(op.payload[2])
        cf = pref.ChoiceFunction(
            carrier=items,
            table={
                frozenset(items[i] for i in range(n) if xs >> i & 1):
                frozenset(items[i] for i in range(n) if table[xs] >> i & 1)
                for xs in range(1 << n)
            },
        )
        laws = [rep.PropertyId(law) for law in checker.LAWS]
        return lambda: (
            tuple(rep.check_property(cf, law) for law in laws), rep.represent(cf, cls)
        )


# ====================================================================
# Set-up and the op stream
# ====================================================================


def write_inputs(workload: str):
    """Write the workload's input files; returns them (None: no files)."""

    if workload in workloads.SESSION_WORKLOADS:
        return workloads.write_sessions(workload, OUT / workload)
    if workload == "cli_cold":
        files = workloads.bundled_sessions(ROOT)
        if not files:
            raise BenchError(f"no bundled sessions under {ROOT / 'sessions'}")
        return files
    return None


def stream(workload: str, seed: int, files, trace: bool):
    if workload in workloads.SESSION_WORKLOADS:
        return workloads.session_passes(workload, seed, files)
    if workload == "cli_cold":
        # The traced run replays the cold ops in process, through cli.main.
        return workloads.cold_passes(seed, files, "cli" if trace else "cold")
    return workloads.kernel_passes(seed)


SETUP_PARTS = ("import", "inputs", "warm-up")


def setup(workload: str, trace: bool, contract):
    """One set-up: a fresh import, the inputs written, one warm-up op.

    Returns the input files and the seconds each of SETUP_PARTS took.
    The warm-up op comes from seed 0, so set-up work is alike across seeds.
    """

    t0 = time.perf_counter()
    import_package()
    t1 = time.perf_counter()
    files = write_inputs(workload)
    t2 = time.perf_counter()
    warm = next(stream(workload, 0, files, trace))[0]
    Executor(checker.Checker(contract))(warm)
    return files, (t1 - t0, t2 - t1, time.perf_counter() - t2)


# ====================================================================
# Measuring
# ====================================================================


class Tally:
    def __init__(self):
        self.walls: list[float] = []
        self.cpu = 0.0
        self.failures: list[str] = []

    def add(self, op, wall: float, cpu: float, problem: str | None) -> None:
        self.walls.append(wall)
        self.cpu += cpu
        if problem:
            self.failures.append(f"{op.command} {op.session or op.key}: {problem}")


def run_loop(passes, execute, deadline: float, tally: Tally) -> None:
    """Whole passes until the deadline; the last pass is finished so
    that every run measures complete mixes."""

    for ops in passes:
        for op in ops:
            tally.add(op, *execute(op))
        if time.perf_counter() >= deadline:
            return


def run_pass(ops, execute, rec=None) -> Tally:
    tally = Tally()
    for i, op in enumerate(ops):
        if rec is not None:
            rec.current_op = i
        tally.add(op, *execute(op))
    return tally


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def p90(walls: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples above it."""

    ordered = sorted(walls)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: str, seed: int, seconds: float, contract):
    """Set up SETUP_REPEATS times, each set-up followed by its even
    share of the run's passes.

    Every op runs on the package of the first set-up, so the ops stay
    warm; the later set-ups' imports are dropped once they are timed.
    """

    tally, parts, passes, execute = Tally(), [], None, None
    start = time.perf_counter()
    for k in range(1, SETUP_REPEATS + 1):
        gc.collect()  # free the previous set-up's import outside the timing
        files, part = setup(workload, False, contract)
        parts.append(part)
        if execute is None:
            passes = stream(workload, seed, files, False)
            execute = Executor(checker.Checker(contract))
        run_loop(passes, execute, start + k * seconds / SETUP_REPEATS, tally)
    if not tally.walls:
        raise BenchError("no op completed")
    p90_s, beyond = p90(tally.walls)
    ops = len(tally.walls)
    values = {
        "op_p50_ms": statistics.median(tally.walls) * 1000,
        "op_p90_ms": p90_s * 1000,
        "ops_per_s": ops / sum(tally.walls),
        "cpu_ms_per_op": tally.cpu / ops * 1000,
        "peak_rss_mb": peak_rss_mb(workload),
        "setup_s": statistics.median(sum(p) for p in parts),
    }
    for name, value in values.items():
        print(f"{workload} seed={seed}: {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{workload} seed={seed}: fail_ratio = {len(tally.failures) / ops:.6g} "
          f"({len(tally.failures)} of {ops} ops; {beyond} ops above op_p90_ms)")
    medians = (statistics.median(p[i] for p in parts) for i in range(len(SETUP_PARTS)))
    print(f"{workload} seed={seed}: set-up parts, median of {SETUP_REPEATS}: " + ", ".join(
        f"{name} {value:.4g} s" for name, value in zip(SETUP_PARTS, medians)))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return tally, metrics


def subprocess_ms(code: str) -> float:
    times = []
    for _ in range(BASELINE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cold_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def traced(workload: str, seed: int, contract):
    files, _ = setup(workload, True, contract)
    passes = stream(workload, seed, files, True)
    # One mix: a cli_cold pass holds one bundled session, so take one per session.
    ops = [op for _ in range(len(files) if workload == "cli_cold" else 1) for op in next(passes)]
    execute = Executor(checker.Checker(contract))
    # The first untraced pass warms the process as the loop of an
    # untraced run is warm; the second is the overhead's baseline.
    warm = run_pass(ops, execute)
    untraced = run_pass(ops, execute)
    rec = spans.SpanRecorder()
    with spans.Instrument(rec):
        tally = run_pass(ops, execute, rec)
    OUT.mkdir(parents=True, exist_ok=True)
    rec.write(OUT / f"spans-{workload}-{seed}.tsv")

    values = spans.layer_metrics(rec, [op.command for op in ops])
    untraced_rate = len(ops) / sum(untraced.walls)
    traced_rate = len(ops) / sum(tally.walls)
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_ratio"] = untraced_rate / traced_rate
    interpreter = subprocess_ms("pass")
    values["cli.interpreter_ms"] = interpreter
    values["cli.import_ms"] = subprocess_ms("import analogia") - interpreter
    for other in (warm, untraced):
        tally.failures += other.failures
        tally.walls += other.walls
    units = per_layer_units()
    for name, value in values.items():
        print(f"{workload} seed={seed} traced: {name} = {value:.6g} {units[name]}")
    print(f"{workload} seed={seed} traced: {len(ops)} ops in the mix, {len(rec)} spans")
    return tally, {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        contract = checker.load_contract()
        if args.trace:
            tally, metrics = traced(args.workload, args.seed, contract)
        else:
            tally, metrics = end_to_end(args.workload, args.seed, args.seconds, contract)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for failure in tally.failures[:20]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": len(tally.walls),
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
