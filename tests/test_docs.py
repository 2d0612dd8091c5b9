"""README's Python API example runs, its completeness counts match the
sweep, the package exports what it lists, its session example uses
exactly the statements the parser reads, and its list of connectives
matches the node classes' precedences.
"""

import importlib
import pathlib
import re

import analogia
from analogia import TruthValue, session
from analogia.formula import _BINARY, Implies, Not
from analogia.repcheck import RelationClass, completeness_sweep

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_api_section():
    return README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]


def python_api_example():
    (code,) = re.findall(r"```python\n(.*?)```", python_api_section(), re.S)
    return code


def test_readme_python_api_example_runs(capsys):
    exec(compile(python_api_example(), str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "'status': 'entailed'" in out
    assert "'value': 'true'" in out


def test_every_exported_name_resolves():
    names = analogia.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(analogia, n)] == []


def test_readme_lists_exactly_the_root_exports():
    lead = "The package root exports exactly these names:\n"
    listing = python_api_section().split(lead, 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(\w+)`", listing))
    exported = set(analogia.__all__)
    assert sorted(exported - documented) == []
    assert sorted(documented - exported) == []


def test_readme_module_names_resolve():
    lead = "Every other name is imported from the module that defines it:"
    paragraph = python_api_section().split(lead, 1)[1].split("\n\n", 1)[0]
    # Each "`a`, `b` ... from `analogia.m`" part names things that m defines.
    parts = re.findall(r"(.*?)\bfrom\s+`(analogia\.\w+)`", paragraph, re.S)
    assert len(parts) == 6
    missing = [
        (module, name)
        for names, module in parts
        for name in re.findall(r"`(\w+)`", names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_readme_session_example_has_exactly_the_statement_keywords():
    section = README.read_text().split("\n## Session files\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```\n(.*?)```", section, re.S)
    assert set(re.findall(r"^([a-z]+)\b", example, re.M)) == set(session._STATEMENTS)


def test_readme_completeness_counts_match_the_sweep():
    section = README.read_text().split("**Completeness**", 1)[1].split("```", 1)[0]
    found = re.search(
        r"(\d+) of the\s+(\d+) tables .*?\((\d+) of (\d+) for the cumulative class,"
        r"\s+(\d+) of (\d+) for the\s+ranked class\)",
        section,
        re.S,
    )
    assert found, "README no longer states the n = 3 completeness counts"
    counts = [int(g) for g in found.groups()]
    claimed = list(zip(counts[::2], counts[1::2]))
    swept = []
    for cls in (RelationClass.ALL, RelationClass.TRANSITIVE_SMOOTH, RelationClass.RANKED):
        result = completeness_sweep(3, cls)
        swept.append((len(result.violations), result.considered))
    assert claimed == swept


def json_key_table():
    """README's JSON key table: command -> (top-level keys, nested keys by key)."""

    section = README.read_text().split("\n## JSON output\n", 1)[1].split("\n## ", 1)[0]
    body = section.split("|----------|------|\n", 1)[1]
    rows = re.findall(r"^\| (\w+) +\| (.+?) +\|$", body, re.M)
    table = {}
    for command, cell in rows:
        entries = re.findall(r"(\w+)(?: \(([^)]*)\))?", cell)
        nested = {key: inner.split(", ") for key, inner in entries if inner}
        table[command] = ([key for key, _ in entries], nested)
    return table


def test_readme_json_key_table_matches_run():
    text = (README.parent / "sessions" / "closure.ana").read_text()
    documented = json_key_table()
    assert sorted(documented) == sorted(session.SESSION_COMMANDS + ("repcheck",))
    for command, (keys, nested) in documented.items():
        if command == "repcheck":
            doc = analogia.run(None, "repcheck", n=2)
        else:
            doc = analogia.run(analogia.parse_session(text), command)
        assert list(doc) == keys, command
        for key, inner in nested.items():
            assert doc[key], (command, key)
            assert [list(entry) for entry in doc[key]] == [inner] * len(doc[key]), command
    assert {key for _, nested in documented.values() for key in nested} == {
        "reports",
        "scores",
        "verdicts",
    }


def test_readme_connectives_match_the_node_classes():
    text = " ".join(README.read_text().split())
    claim = (
        r"Formulas use (.*?) "
        r"\(in decreasing binding strength, implication associating to the right\)"
    )
    tokens = re.findall(r"`([^`]+)`", re.search(claim, text).group(1))
    connectives = sorted((Not, *_BINARY), key=lambda kind: kind.prec, reverse=True)
    assert tokens == [kind.token for kind in connectives]
    assert len({kind.prec for kind in connectives}) == len(connectives)
    assert [kind for kind in _BINARY if kind.right_assoc] == [Implies]
    assert Implies.token == "->"
    # The compiler sends every binary kind through one junction on its absorb.
    assert all(isinstance(getattr(kind, "absorb", None), TruthValue) for kind in _BINARY)
