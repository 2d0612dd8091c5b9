"""Every bundled session has its benchmark output digests recorded.

The benchmark's cli_cold workload runs each sessions/*.ana file through
every session command and checks each output against the digest that
perfbench/contract.json keeps under sha256(text)[:20] + ":" + command.
A session added or edited without re-recording the contract would fail
all of those ops at benchmark time; this test fails first. It only
reads the contract.
"""

import hashlib
import json

from conftest import SESSIONS_DIR

CONTRACT = SESSIONS_DIR.parent / "perfbench" / "contract.json"
COMMANDS = ("check", "classify", "report", "score", "best", "entail")


def test_every_bundled_session_has_a_recorded_digest():
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    paths = sorted(SESSIONS_DIR.glob("*.ana"))
    assert paths
    missing = []
    for path in paths:
        prefix = hashlib.sha256(path.read_text(encoding="utf-8").encode()).hexdigest()[:20]
        missing += [f"{path.name} {c}" for c in COMMANDS if f"{prefix}:{c}" not in contract]
    assert missing == []
