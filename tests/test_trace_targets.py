"""Everything the traced benchmark wraps still exists in the package.

`perfbench/run.py --trace 1` installs perfbench/spans.py's Instrument:
it rebinds each function that spans.LAYERS names in analogia.<layer>,
and patches KnowledgeDomain.fact_value and AnalogySpace.__post_init__
on the classes themselves. A change that removes or renames one of
them would crash the traced run; these tests fail first. spans.py is
only loaded, never changed, and no bytecode is written next to it.
"""

import importlib
import importlib.util
import subprocess
import sys

import pytest

from analogia.entailment import AnalogySpace
from analogia.kb import KnowledgeDomain

from conftest import SESSIONS_DIR

SPANS = SESSIONS_DIR.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(spans):
    missing = [
        f"analogia.{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"analogia.{layer}"), name, None))
    ]
    assert missing == []


def test_importing_the_cli_loads_every_traced_layer(spans):
    # perfbench/run.py imports analogia.cli and then reads each layer
    # from sys.modules, so a fresh process must show them all loaded.
    layers = [f"analogia.{layer}" for layer in spans.LAYERS]
    code = (
        "import sys, analogia.cli; "
        f"print([m for m in {layers!r} if m not in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_patched_methods_are_defined_on_their_classes():
    # Instrument._patch reads vars(owner)[attr]: an inherited method
    # would not do.
    assert "fact_value" in vars(KnowledgeDomain)
    assert "__post_init__" in vars(AnalogySpace)
