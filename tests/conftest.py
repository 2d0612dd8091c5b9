"""Shared fixtures: a pair of rival analogies and their piecewise mix.

Source S knows P and Q of both its objects. Target T settles the
P-images one way for the map into the a-predicates and the other way
for the map into the b-predicates, so each plain analogy agrees on one
object and disagrees on the other, while the piecewise mix that
follows first on x and second on x' agrees everywhere. The Q-images
are left unsettled on purpose: they are where conjectures come from.
"""

import inspect
import os
import pathlib

import pytest

from analogia import (
    AnalogySpace,
    Signature,
    TranslationTables,
    analogy_map,
    dominance_preference,
    make_domain,
)
from analogia.analogy import AnalogyMap, AnalogyPiece, Guard, classify
from analogia.formula import ground_atom_formulas

ROOT = pathlib.Path(__file__).resolve().parent.parent
SESSIONS_DIR = ROOT / "sessions"

def rebuild(obj, **changes):
    """obj's class called again with obj's constructor arguments, changes
    replacing some of them, so the constructor checks every value anew."""

    fields = {name: getattr(obj, name) for name in inspect.signature(type(obj)).parameters}
    return type(obj)(**{**fields, **changes})


# pyproject puts src on this process's path; the tests that start
# `python -m analogia` pass it on to the child the same way.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
)


@pytest.fixture
def rivals_source():
    sig = Signature("S", ("x", "x'"), (("P", 1), ("Q", 1)), ())
    return make_domain(
        sig,
        ("x", "x'"),
        facts=[
            ("P", ("x",), True),
            ("P", ("x'",), True),
            ("Q", ("x",), True),
            ("Q", ("x'",), True),
        ],
    )


@pytest.fixture
def rivals_target():
    sig = Signature(
        "T", ("y", "y'"), (("Pa", 1), ("Pb", 1), ("Qa", 1), ("Qb", 1)), ()
    )
    return make_domain(
        sig,
        ("y", "y'"),
        facts=[
            ("Pa", ("y",), True),
            ("Pa", ("y'",), False),
            ("Pb", ("y",), False),
            ("Pb", ("y'",), True),
        ],
    )


@pytest.fixture
def first_map(rivals_source, rivals_target):
    return analogy_map(
        "first",
        rivals_source,
        rivals_target,
        {"P": "Pa", "Q": "Qa", "x": "y", "x'": "y'"},
    )


@pytest.fixture
def second_map(rivals_source, rivals_target):
    return analogy_map(
        "second",
        rivals_source,
        rivals_target,
        {"P": "Pb", "Q": "Qb", "x": "y", "x'": "y'"},
    )


@pytest.fixture
def mixed_map(rivals_source, rivals_target):
    return AnalogyMap(
        name="mixed",
        source=rivals_source,
        target=rivals_target,
        pieces=(
            AnalogyPiece(
                Guard.mentions(("x",)), {"P": "Pa", "Q": "Qa", "x": "y"}
            ),
            AnalogyPiece(
                Guard.mentions(("x'",)), {"P": "Pb", "Q": "Qb", "x'": "y'"}
            ),
        ),
    )


@pytest.fixture
def working_atoms(rivals_source):
    """The four ground atoms P(x), P(x'), Q(x), Q(x'), in sorted order."""
    return tuple(ground_atom_formulas(rivals_source.signature))


@pytest.fixture
def rivals_space(
    rivals_source, rivals_target, first_map, second_map, mixed_map, working_atoms
):
    analogies = (first_map, mixed_map, second_map)
    reports = [classify(a, working_atoms) for a in analogies]
    return AnalogySpace(
        tables=TranslationTables(rivals_source, rivals_target, working_atoms),
        analogies=analogies,
        preference=dominance_preference(reports),
    )
