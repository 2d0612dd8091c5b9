"""README's Python API example runs, and the package exports what it lists."""

import pathlib
import re

import analogia

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_api_example():
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
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
