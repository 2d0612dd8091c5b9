"""The scripts under scripts/ run end to end on the bundled sessions."""

import importlib.util
import pathlib

from conftest import SESSIONS_DIR

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_combi_walks_through_the_rivals(capsys):
    demo = load_script("demo_combi")
    assert demo.main([str(SESSIONS_DIR / "combi.ana")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "best analogies: mixed" in lines
    assert "  Qa(y): entailed true" in lines
