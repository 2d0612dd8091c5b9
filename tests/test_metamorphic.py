"""Metamorphic tests: outputs that must not depend on the names chosen."""

import re

import pytest

from analogia.cli import main
from analogia.formula import token_positions, tokenize
from analogia.kb import IDENT_PATTERN
from analogia.session import SESSION_COMMANDS

from conftest import SESSIONS_DIR

# The words that session text reads as keywords rather than as names.
KEYWORDS = frozenset(
    """
    domain objects pred func fact interp true false unknown
    analogy from to map piece when mentions
    source target workingset atoms query closure on off
    preference dominance counts explicit prefer over
    forall exists
    """.split()
)
PREFIX = "q9_"


def renamed(text: str, prefix: str) -> str:
    """text with prefix put before every name; comments stay as they are."""

    parts, last = [], 0
    for token, (offset, _, _) in zip(tokenize(text), token_positions(text)):
        if re.fullmatch(IDENT_PATTERN, token) and token not in KEYWORDS:
            parts += [text[last:offset], prefix]
            last = offset
    return "".join(parts) + text[last:]


def test_renamed_puts_the_prefix_before_names_only():
    text = "domain S { objects: a; pred P/1; }  # a comment\nquery forall x. P(x);"
    assert renamed(text, "n_") == (
        "domain n_S { objects: n_a; pred n_P/1; }  # a comment\n"
        "query forall n_x. n_P(n_x);"
    )


@pytest.mark.parametrize("command", SESSION_COMMANDS)
@pytest.mark.parametrize("path", sorted(SESSIONS_DIR.glob("*.ana")), ids=lambda p: p.name)
def test_renaming_every_name_changes_no_output(tmp_path, capsys, path, command):
    """Each JSON document, or error line, of a session whose names all
    carry one prefix is the original's once the prefix is stripped."""

    copy = tmp_path / path.name
    copy.write_text(renamed(path.read_text(), PREFIX))

    def output(file):
        code = main(["--json", command, str(file)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = output(copy)
    assert (code, out.replace(PREFIX, ""), err.replace(PREFIX, "")) == output(path)
