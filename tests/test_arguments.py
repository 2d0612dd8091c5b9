"""Public entries refuse a wrong-typed argument by name.

Each call below hands a public function a value of the wrong type.
It must end in the module's AnalogiaError subclass with a message that
names the argument, never in a bare TypeError or AttributeError from
deeper down.
"""

import pytest

from analogia import AnalogiaError, parse_session
from analogia.analogy import (
    augmented_report,
    check_injective_on,
    classify,
    close_under_combination,
    combine,
    translate,
)
from analogia.errors import (
    AnalogyError,
    DomainError,
    FormulaError,
    PreferenceError,
    SessionError,
    SignatureError,
)
from analogia.formula import ground_atom_formulas, parse_formula, tokenize
from analogia.preference import PreferenceRelation, choice_of, subsets_of, undominated
from analogia.session import resolve_maps, session_preference

from conftest import SESSIONS_DIR

SMOKE = parse_session((SESSIONS_DIR / "smoke.ana").read_text(encoding="utf-8"))
CHOICE = choice_of(PreferenceRelation(("a", "b"), ()))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tokenize(5), FormulaError, "text must be a str, not int"),
        (lambda: ground_atom_formulas(5), FormulaError, "sig must be a Signature, not int"),
        (
            lambda: subsets_of(5),
            PreferenceError,
            "carrier must be a sequence of items, not int",
        ),
        # Refused at the call, not at the first next().
        (lambda: subsets_of([["a"]]), PreferenceError, "carrier items must be hashable"),
        (
            lambda: CHOICE.choose(5),
            PreferenceError,
            "items must be an iterable of carrier items, not int",
        ),
        # A str would split into its characters.
        (
            lambda: CHOICE.choose("ab"),
            PreferenceError,
            "items must be an iterable of carrier items, not str",
        ),
        (lambda: CHOICE.choose(["z"]), PreferenceError, "item 'z' is not in the carrier"),
        # Outside items that do not sort are named by the least repr.
        (lambda: CHOICE.choose(["z", 1]), PreferenceError, "item 'z' is not in the carrier"),
        (
            lambda: undominated(PreferenceRelation(("a", "b"), ()), ["z", 1]),
            PreferenceError,
            "item 'z' is not in the carrier",
        ),
        (
            lambda: SMOKE.source.signature.kind_of([]),
            SignatureError,
            "symbol must be hashable, not list",
        ),
        (
            lambda: SMOKE.source.signature.arity_of([]),
            SignatureError,
            "symbol must be hashable, not list",
        ),
        (lambda: SMOKE.source.fact_value([]), DomainError, "atom must be hashable, not list"),
        (
            lambda: translate(5, parse_formula("P(a)")),
            AnalogyError,
            "amap must be an AnalogyMap, not int",
        ),
        (lambda: classify(5, []), AnalogyError, "amap must be an AnalogyMap, not int"),
        (
            lambda: check_injective_on(5, []),
            AnalogyError,
            "amap must be an AnalogyMap, not int",
        ),
        (
            lambda: augmented_report(5, []),
            AnalogyError,
            "amap must be an AnalogyMap, not int",
        ),
        (lambda: combine(5, 5, 5, 5), AnalogyError, "first must be an AnalogyMap, not int"),
        (
            lambda: close_under_combination(5, []),
            AnalogyError,
            "analogies must be iterable, not int",
        ),
        (lambda: resolve_maps(5), SessionError, "resolve_maps needs a Session, not int"),
        (
            lambda: session_preference(5, []),
            SessionError,
            "session_preference needs a Session, not int",
        ),
        (
            lambda: session_preference(SMOKE, 5),
            SessionError,
            "maps must be iterable, not int",
        ),
    ],
    ids=[
        "tokenize",
        "ground_atom_formulas",
        "subsets_of",
        "subsets_of unhashable",
        "choose int",
        "choose str",
        "choose outside the carrier",
        "choose outside items unsorted",
        "undominated outside items unsorted",
        "kind_of unhashable",
        "arity_of unhashable",
        "fact_value unhashable",
        "translate",
        "classify",
        "check_injective_on",
        "augmented_report",
        "combine",
        "close_under_combination",
        "resolve_maps",
        "session_preference session",
        "session_preference maps",
    ],
)
def test_wrong_argument_is_refused_by_name(call, error, message):
    with pytest.raises(AnalogiaError) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message

