"""The records of the package behave as immutable values.

Every record compares and hashes by its constructor's fields, prints
them as Class(field=value, ...), refuses assignment and deletion, and
leaves what its constructor derives beside the fields (Signature's
symbol table, PreferenceRelation's and ChoiceFunction's masks,
Session's tables and domain table, AnalogySpace's name table, best set
and speakers, and a formula's stored text) out of eq, hash and repr.
Importing the command line loads none of the dataclass machinery, so
none of it weighs on a cold start.
"""

import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from analogia import Session, Signature, TranslationTables, TruthValue
from analogia.analogy import (
    AnalogyMap,
    AnalogyPiece,
    AugmentedReport,
    Guard,
    StraightRuleScore,
    SupportReport,
)
from analogia.entailment import AnalogySpace, Verdict, VerdictStatus
from analogia.formula import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    FuncApp,
    Implies,
    Not,
    Or,
    Var,
)
from analogia.kb import KnowledgeDomain
from analogia.preference import ChoiceFunction, PreferenceRelation
from analogia.repcheck import NotRepresentable, RelationClass, SweepResult, Violation

from conftest import ROOT

T = TruthValue.TRUE
SIG = Signature("s", ("a",), (("P", 1),))
SIG_REPR = "Signature(name='s', constants=('a',), predicates=(('P', 1),), functions=())"
DOM = KnowledgeDomain(SIG, ("a",), {"a": "a"}, {}, {("P", ("a",)): T})
DOM_T = KnowledgeDomain(Signature("t"), ("b",), {}, {}, {})
ATOM = Atom("P", (Const("a"),))
ATOM_REPR = "Atom(predicate='P', args=(Const(name='a'),))"
PIECE = AnalogyPiece(Guard(None), {"P": "P", "a": "a"})
MAP = AnalogyMap("m", DOM, DOM, (PIECE,))
MAP_REPR = f"AnalogyMap(name='m', source={DOM!r}, target={DOM!r}, pieces=({PIECE!r},))"
TABLES = TranslationTables(DOM, DOM, (ATOM,))
RELATION = PreferenceRelation(("m",), frozenset())

# id: (keyword construction, its repr, whether the value is hashable).
# A value holding a dict is not hashable, as a dict is not. Two builds
# derive their own symbol tables, masks, session tables and space name
# tables, so equal twins show that these stay out of eq, hash and repr.
CASES = {
    "Signature": (
        lambda: Signature(name="s"),
        "Signature(name='s', constants=(), predicates=(), functions=())",
        True,
    ),
    "KnowledgeDomain": (
        lambda: KnowledgeDomain(
            signature=SIG,
            universe=["a"],
            const_interp={"a": "a"},
            func_interp={},
            facts={("P", ("a",)): T},
        ),
        f"KnowledgeDomain(signature={SIG_REPR}, universe=('a',), const_interp={{'a': 'a'}}, "
        "func_interp={}, facts={('P', ('a',)): <TruthValue.TRUE: 'true'>})",
        False,
    ),
    "Var": (lambda: Var(name="x"), "Var(name='x')", True),
    "Const": (lambda: Const(name="a"), "Const(name='a')", True),
    "FuncApp": (
        lambda: FuncApp(func="f", args=[Var("x")]),
        "FuncApp(func='f', args=(Var(name='x'),))",
        True,
    ),
    "Atom": (lambda: Atom(predicate="P", args=[Const("a")]), ATOM_REPR, True),
    "Not": (lambda: Not(body=ATOM), f"Not(body={ATOM_REPR})", True),
    "And": (lambda: And(left=ATOM, right=ATOM), f"And(left={ATOM_REPR}, right={ATOM_REPR})", True),
    "Or": (lambda: Or(left=ATOM, right=ATOM), f"Or(left={ATOM_REPR}, right={ATOM_REPR})", True),
    "Implies": (
        lambda: Implies(left=ATOM, right=ATOM),
        f"Implies(left={ATOM_REPR}, right={ATOM_REPR})",
        True,
    ),
    "Forall": (lambda: Forall(var="x", body=ATOM), f"Forall(var='x', body={ATOM_REPR})", True),
    "Exists": (lambda: Exists(var="x", body=ATOM), f"Exists(var='x', body={ATOM_REPR})", True),
    "Guard": (lambda: Guard(constants=["a"]), "Guard(constants=frozenset({'a'}))", True),
    "AnalogyPiece": (
        lambda: AnalogyPiece(guard=Guard(None), mapping={"P": "P", "a": "a"}),
        "AnalogyPiece(guard=Guard(constants=None), mapping={'P': 'P', 'a': 'a'})",
        False,
    ),
    "AnalogyMap": (
        lambda: AnalogyMap(name="m", source=DOM, target=DOM, pieces=[PIECE]),
        MAP_REPR,
        False,
    ),
    "SupportReport": (
        lambda: SupportReport(
            analogy=MAP,
            formulas=(ATOM,),
            positive=(ATOM,),
            negative=(),
            open=(),
            not_applicable=(),
            untranslatable=(),
            conjectures={},
        ),
        f"SupportReport(analogy={MAP_REPR}, formulas=({ATOM_REPR},), positive=({ATOM_REPR},), "
        "negative=(), open=(), not_applicable=(), untranslatable=(), conjectures={})",
        False,
    ),
    "AugmentedReport": (
        lambda: AugmentedReport(
            analogy=MAP,
            positive_pairs=((ATOM, ATOM),),
            negative_source_true=(),
            negative_source_false=(),
            plausible=(),
        ),
        f"AugmentedReport(analogy={MAP_REPR}, positive_pairs=(({ATOM_REPR}, {ATOM_REPR}),), "
        "negative_source_true=(), negative_source_false=(), plausible=())",
        False,
    ),
    "StraightRuleScore": (
        lambda: StraightRuleScore(n=1, r=0, s=0, p=Fraction(1, 2)),
        "StraightRuleScore(n=1, r=0, s=0, p=Fraction(1, 2))",
        True,
    ),
    "AnalogySpace": (
        lambda: AnalogySpace(tables=TABLES, analogies=[MAP], preference=RELATION),
        f"AnalogySpace(tables={TABLES!r}, analogies=({MAP_REPR},), preference={RELATION!r})",
        False,
    ),
    "Verdict": (
        lambda: Verdict(
            query=ATOM,
            status=VerdictStatus.ENTAILED,
            value=T,
            support=("m",),
            suggestions={"m": T},
            warnings=(),
        ),
        f"Verdict(query={ATOM_REPR}, status=<VerdictStatus.ENTAILED: 'entailed'>, "
        "value=<TruthValue.TRUE: 'true'>, support=('m',), "
        "suggestions={'m': <TruthValue.TRUE: 'true'>}, warnings=())",
        False,
    ),
    "PreferenceRelation": (
        lambda: PreferenceRelation(carrier=["a", "b"], edges=[("a", "b")]),
        "PreferenceRelation(carrier=('a', 'b'), edges=frozenset({('a', 'b')}))",
        True,
    ),
    "ChoiceFunction": (
        lambda: ChoiceFunction(carrier=("a",), table={(): (), ("a",): ("a",)}),
        "ChoiceFunction(carrier=('a',), "
        "table={frozenset(): frozenset(), frozenset({'a'}): frozenset({'a'})})",
        False,
    ),
    "NotRepresentable": (
        lambda: NotRepresentable(failed_property=None, witness=None),
        "NotRepresentable(failed_property=None, witness=None)",
        True,
    ),
    "Violation": (
        lambda: Violation(
            relation_edges=(("a", "b"),), choice_table=None, property=None, x_set=None, y_set=None
        ),
        "Violation(relation_edges=(('a', 'b'),), choice_table=None, property=None, "
        "x_set=None, y_set=None)",
        True,
    ),
    "SweepResult": (
        lambda: SweepResult(
            mode="soundness",
            relation_class=RelationClass.ALL,
            n=1,
            examined=1,
            considered=1,
            violations=(),
        ),
        "SweepResult(mode='soundness', relation_class=<RelationClass.ALL: 'all'>, n=1, "
        "examined=1, considered=1, violations=(), stats={})",
        False,
    ),
    "Session": (
        lambda: Session(domains=[DOM_T, DOM], source_name="s", target_name="t"),
        f"Session(domains=({DOM!r}, {DOM_T!r}), source_name='s', target_name='t', "
        "analogies=(), working_set=(), queries=(), closure=False, "
        "preference_kind='dominance', count_weights=None, explicit_edges=())",
        False,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_records_are_values(name):
    build, text, hashable = CASES[name]
    value, twin = build(), build()
    str(value)  # a formula keeps its printed text from here on; twin has none
    assert repr(value) == repr(twin) == text
    assert value == twin and not value != twin
    if hashable:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    field = next(iter(inspect.signature(type(value)).parameters))
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin


def test_records_of_different_classes_differ():
    assert Var("x") != Const("x") and Const("x") != Var("x")
    assert And(ATOM, ATOM) != Or(ATOM, ATOM)
    assert Forall("x", ATOM) != Exists("x", ATOM)


def test_importing_the_cli_loads_no_dataclass_machinery():
    # dataclasses would load inspect, ast and dis with it, on every
    # cold start of the command line.
    code = (
        "import sys, analogia.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
