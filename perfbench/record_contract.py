#!/usr/bin/env python3
"""Record contract.json: the digest of every CLI op's --json output.

    python3 perfbench/record_contract.py

Runs every op any seed can make (all pool sessions of the session
workloads, every bundled session with every session command, every
repcheck sweep) in process, refuses to record an output that fails
the checker's other checks, and writes the sha256 of each output.
Re-record only when a change to the JSON output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from checker import CONTRACT, Checker, digest
from workloads import (
    SESSION_COMMANDS,
    SESSION_WORKLOADS,
    Op,
    bundled_sessions,
    cold_passes,
    digest_key,
    sweep_ops,
    write_sessions,
)


def all_cli_ops():
    for workload in SESSION_WORKLOADS:
        files = write_sessions(workload, run.OUT / workload)
        for label, (path, text) in files.items():
            # best before entail, so entail's support is checked against it
            for c in SESSION_COMMANDS:
                yield Op("cli", c, ("--json", c, str(path)), digest_key(text, c), str(label))
    # Record the bundled sessions in process; the output bytes are the
    # same as a cold process's.
    sessions = bundled_sessions(run.ROOT)
    passes = cold_passes(0, sessions, "cli")
    for _ in sessions:
        yield from next(passes)
    yield from sweep_ops()


def main() -> int:
    run.import_package()
    cli = sys.modules["analogia.cli"]
    check = Checker({})
    contract: dict[str, str] = {}
    for op in all_cli_ops():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        problem = check.output_problem(op, code, out.getvalue(), err.getvalue())
        if problem:
            print(f"refusing to record {op.key}: {problem}", file=sys.stderr)
            return 1
        contract[op.key] = digest(out.getvalue())
    CONTRACT.write_text(json.dumps(contract, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(contract)} digests in {CONTRACT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
