"""Skeptical entailment over a space of competing analogies."""

import pytest

import analogia.entailment
import analogia.formula
from analogia import (
    AnalogySpace,
    EntailmentError,
    FormulaError,
    Signature,
    TranslationTables,
    TruthValue,
    analogy_map,
    best,
    dominance_preference,
    entail,
    make_domain,
    parse_formula,
    parse_session,
    resolve_space,
)
from analogia.analogy import classify
from analogia.entailment import VerdictStatus, conjecture_for
from analogia.formula import ground_atom_formulas
from analogia.preference import PreferenceRelation

from conftest import rebuild

T = TruthValue.TRUE
F = TruthValue.FALSE


# ====================================================================
# Space validation
# ====================================================================


class TestAnalogySpace:
    def test_rivals_space_builds(self, rivals_space):
        assert {a.name for a in rivals_space.analogies} == {
            "first",
            "second",
            "mixed",
        }
        assert rivals_space.analogy("mixed").name == "mixed"
        with pytest.raises(EntailmentError, match="no analogy named"):
            rivals_space.analogy("ghost")

    def test_an_unhashable_name_is_no_analogy(self, rivals_space):
        with pytest.raises(EntailmentError, match=r"^no analogy named \['x'\] in space$"):
            rivals_space.analogy(["x"])

    def test_duplicate_names_rejected(self, rivals_space, first_map):
        with pytest.raises(EntailmentError, match="duplicate analogy name"):
            rebuild(
                rivals_space,
                analogies=(first_map, first_map),
                preference=PreferenceRelation(("first",), frozenset()),
            )

    def test_analogies_must_share_the_space_domains(
        self, rivals_space, rivals_target, first_map
    ):
        stray_sig = Signature("other", ("z",), (("P", 1), ("Q", 1)), ())
        stray = make_domain(stray_sig, ("z",))
        with pytest.raises(EntailmentError, match="different source domain"):
            rebuild(
                rivals_space, tables=TranslationTables(stray, rivals_space.target, ())
            )

    def test_working_set_must_fit_the_source_signature(self, rivals_space):
        with pytest.raises(Exception, match="unknown predicate"):
            rebuild(
                rivals_space,
                tables=TranslationTables(
                    rivals_space.source, rivals_space.target, (parse_formula("Zz(x)"),)
                ),
            )

    def test_translation_must_be_injective_on_the_working_set(
        self, rivals_source, rivals_target, working_atoms
    ):
        from analogia.analogy import AnalogyMap, AnalogyPiece, Guard

        folded = AnalogyMap(
            "folded",
            rivals_source,
            rivals_target,
            (
                AnalogyPiece(Guard.mentions({"x"}), {"P": "Pa", "Q": "Qa", "x": "y"}),
                AnalogyPiece(Guard.mentions({"x'"}), {"P": "Pa", "Q": "Qa", "x'": "y"}),
            ),
        )
        with pytest.raises(EntailmentError, match="not injective"):
            AnalogySpace(
                tables=TranslationTables(rivals_source, rivals_target, working_atoms),
                analogies=(folded,),
                preference=PreferenceRelation(("folded",), frozenset()),
            )

    def test_preference_carrier_must_match_names(self, rivals_space):
        with pytest.raises(EntailmentError, match="does not match"):
            rebuild(
                rivals_space,
                preference=PreferenceRelation(("first", "second"), frozenset()),
            )


# ====================================================================
# Best set and per-analogy conjectures
# ====================================================================


class TestBest:
    def test_mixed_wins(self, rivals_space):
        assert best(rivals_space) == {"mixed"}

    def test_empty_preference_keeps_everyone(self, rivals_space):
        flat = rebuild(
            rivals_space,
            preference=PreferenceRelation(rivals_space.preference.carrier, frozenset()),
        )
        assert best(flat) == {"first", "second", "mixed"}

    def test_cycle_can_empty_the_best_set(self, rivals_source, rivals_target, working_atoms):
        a = analogy_map(
            "a", rivals_source, rivals_target,
            {"P": "Pa", "Q": "Qa", "x": "y", "x'": "y'"},
        )
        b = analogy_map(
            "b", rivals_source, rivals_target,
            {"P": "Pb", "Q": "Qb", "x": "y", "x'": "y'"},
        )
        space = AnalogySpace(
            tables=TranslationTables(rivals_source, rivals_target, working_atoms),
            analogies=(a, b),
            preference=PreferenceRelation(("a", "b"), {("a", "b"), ("b", "a")}),
        )
        assert best(space) == frozenset()

    def test_the_best_set_is_derived_once_per_space(self, rivals_space, monkeypatch):
        calls = []
        undominated = analogia.entailment.undominated

        def counted(*args):
            calls.append(args)
            return undominated(*args)

        monkeypatch.setattr(analogia.entailment, "undominated", counted)
        space = AnalogySpace(rivals_space.tables, rivals_space.analogies, rivals_space.preference)
        assert best(space) == {"mixed"}
        for text in ("Qa(y)", "Qa(y')", "Qb(y')", "Qa(y) & Qb(y')"):
            verdict = entail(space, parse_formula(text))
            assert verdict.status is not VerdictStatus.SETTLED_IN_TARGET
        assert best(space) == {"mixed"}
        assert len(calls) == 1


class TestNoBareErrors:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("tables", 5, "tables must be a TranslationTables, not int"),
            ("analogies", 5, "analogies must be iterable, not int"),
            ("analogies", [None], "analogies must hold AnalogyMap values, not None"),
            ("preference", None, "preference must be a PreferenceRelation, not NoneType"),
        ],
    )
    def test_space_fields_are_named(self, rivals_space, field, value, message):
        with pytest.raises(EntailmentError, match=f"^{message}$"):
            rebuild(rivals_space, **{field: value})


class TestSpaceArgument:
    @pytest.mark.parametrize("value", [5, None, "space"])
    def test_something_else_than_a_space_is_named(self, value):
        kind = type(value).__name__
        query = parse_formula("Qa(y)")
        calls = {
            "best": lambda: best(value),
            "entail": lambda: entail(value, query),
            "conjecture_for": lambda: conjecture_for(value, "first", query),
        }
        for name, call in calls.items():
            with pytest.raises(EntailmentError, match=f"^{name} needs an AnalogySpace, not {kind}$"):
                call()


class TestConjectureFor:
    def test_reads_the_source_value_of_the_preimage(self, rivals_space):
        q = parse_formula("Qa(y)")
        assert conjecture_for(rivals_space, "first", q) is T
        assert conjecture_for(rivals_space, "mixed", q) is T

    def test_silent_when_no_working_formula_maps_to_the_query(self, rivals_space):
        assert conjecture_for(rivals_space, "second", parse_formula("Qa(y)")) is None
        assert conjecture_for(rivals_space, "first", parse_formula("Qb(y)")) is None

    def test_silent_when_the_preimage_is_unknown_at_the_source(
        self, rivals_target, working_atoms
    ):
        sig = Signature("S", ("x", "x'"), (("P", 1), ("Q", 1)), ())
        foggy = make_domain(sig, ("x", "x'"), facts=[("P", ("x",), True)])
        amap = analogy_map(
            "hazy", foggy, rivals_target,
            {"P": "Pa", "Q": "Qa", "x": "y", "x'": "y'"},
        )
        space = AnalogySpace(
            tables=TranslationTables(foggy, rivals_target, working_atoms),
            analogies=(amap,),
            preference=PreferenceRelation(("hazy",), frozenset()),
        )
        assert conjecture_for(space, "hazy", parse_formula("Qa(y)")) is None

    @pytest.mark.parametrize("text", ["Zz(y)", "Pa(y, y)", "Pa(q)"])
    def test_ill_formed_query_raises_as_in_entail(self, rivals_space, text):
        query = parse_formula(text)
        with pytest.raises(FormulaError) as from_entail:
            entail(rivals_space, query)
        with pytest.raises(FormulaError) as from_conjecture:
            conjecture_for(rivals_space, "mixed", query)
        assert str(from_conjecture.value) == str(from_entail.value)


# ====================================================================
# Verdicts
# ====================================================================


class TestEntail:
    def test_settled_queries_bypass_the_analogies(self, rivals_space):
        v = entail(rivals_space, parse_formula("Pa(y)"))
        assert v.status is VerdictStatus.SETTLED_IN_TARGET
        assert v.value is T
        assert v.support == ()
        v = entail(rivals_space, parse_formula("Pb(y)"))
        assert v.value is F

    def test_entailed_via_the_best_analogy(self, rivals_space):
        v = entail(rivals_space, parse_formula("Qa(y)"))
        assert v.status is VerdictStatus.ENTAILED
        assert v.value is T
        assert v.support == ("mixed",)
        assert v.suggestions == {"mixed": T}
        assert v.warnings == ()

    def test_non_best_analogies_do_not_speak(self, rivals_space):
        # first conjectures Qa(y') via Q(x'), but only mixed is best,
        # and mixed sends Q(x') to Qb(y') instead
        v = entail(rivals_space, parse_formula("Qa(y')"))
        assert v.status is VerdictStatus.NO_SUPPORT
        assert v.value is None

    def test_conflict_between_best_analogies(self):
        # two undominated analogies send different working formulas to
        # the same open target atom, and their source values disagree
        src_sig = Signature("S", ("s",), (("A", 1), ("B", 1)), ())
        src = make_domain(
            src_sig, ("s",), facts=[("A", ("s",), True), ("B", ("s",), False)]
        )
        tgt_sig = Signature("T", ("t",), (("C", 1),), ())
        tgt = make_domain(tgt_sig, ("t",))
        sunny = analogy_map("sunny", src, tgt, {"A": "C", "s": "t"})
        gloomy = analogy_map("gloomy", src, tgt, {"B": "C", "s": "t"})
        working = [parse_formula("A(s)"), parse_formula("B(s)")]
        reports = [classify(a, working) for a in (sunny, gloomy)]
        space = AnalogySpace(
            tables=TranslationTables(src, tgt, working),
            analogies=(sunny, gloomy),
            preference=dominance_preference(reports),
        )
        assert best(space) == {"gloomy", "sunny"}
        v = entail(space, parse_formula("C(t)"))
        assert v.status is VerdictStatus.CONFLICTED
        assert v.value is None
        assert v.support == ("gloomy", "sunny")
        assert v.suggestions == {"sunny": T, "gloomy": F}

    def test_one_check_and_one_lookup_per_query(self, rivals_space, monkeypatch):
        names = tuple(a.name for a in rivals_space.analogies)
        space = rebuild(
            rivals_space, preference=PreferenceRelation(names, frozenset())
        )
        assert best(space) == {"first", "second", "mixed"}
        calls = []
        check, lookup = analogia.formula.check_formula, TranslationTables.conjectures

        def counted_check(*args):
            calls.append("check")
            return check(*args)

        def counted_lookup(*args):
            calls.append("lookup")
            return lookup(*args)

        monkeypatch.setattr(analogia.formula, "check_formula", counted_check)
        monkeypatch.setattr(TranslationTables, "conjectures", counted_lookup)
        v = entail(space, parse_formula("Qa(y)"))
        assert calls == ["check", "lookup"]
        assert list(v.suggestions.items()) == [("first", T), ("mixed", T)]

    def test_no_support_with_empty_space_warns(self, rivals_source, rivals_target):
        space = AnalogySpace(
            tables=TranslationTables(rivals_source, rivals_target, ()),
            analogies=(),
            preference=PreferenceRelation((), frozenset()),
        )
        v = entail(space, parse_formula("Qa(y)"))
        assert v.status is VerdictStatus.NO_SUPPORT
        assert v.warnings == (
            "no analogy survives the preference; the best set is empty",
        )

    def test_query_must_fit_the_target_signature(self, rivals_space):
        with pytest.raises(Exception, match="unknown predicate"):
            entail(rivals_space, parse_formula("P(x)"))

    def test_json_dict_shape(self, rivals_space):
        d = entail(rivals_space, parse_formula("Qa(y)")).to_json_dict()
        assert list(d) == [
            "query",
            "status",
            "value",
            "support",
            "suggestions",
            "warnings",
        ]
        assert d == {
            "query": "Qa(y)",
            "status": "entailed",
            "value": "true",
            "support": ["mixed"],
            "suggestions": {"mixed": "true"},
            "warnings": [],
        }


# ====================================================================
# The logic of entail: not cumulative
# ====================================================================

# Two analogies send P0 and P1 to R0 and R1, the second one crosswise.
# With no target facts both are best, and each conjectures one query.
CAUTIOUS_MONOTONY = """
domain S {{ objects: a0; pred P0/1; pred P1/1; fact P0(a0) = true; }}
domain T {{ objects: b0; pred R0/1; pred R1/1; {fact} }}
source S;
target T;
analogy m0 from S to T {{ map a0 -> b0; map P0 -> R0; map P1 -> R1; }}
analogy m1 from S to T {{ map a0 -> b0; map P0 -> R1; map P1 -> R0; }}
workingset atoms;
{preference}
query R0(b0);
query R1(b0);
"""


@pytest.mark.parametrize("preference", ["", "preference counts(1, 1);"])
def test_cautious_monotony_fails(preference):
    """R0(b0) and R1(b0) are both entailed. Adding the entailed R0(b0)
    as a fact gives m0 a positive, which puts it above m1 under either
    preference, so R1(b0) loses its only speaker: entail is not
    cumulative."""

    def verdicts(fact):
        session = parse_session(CAUTIOUS_MONOTONY.format(fact=fact, preference=preference))
        space = resolve_space(session)
        return [
            (v.status, v.value, v.support) for v in (entail(space, q) for q in session.queries)
        ]

    E = VerdictStatus.ENTAILED
    assert verdicts("") == [(E, T, ("m0",)), (E, T, ("m1",))]
    assert verdicts("fact R0(b0) = true;") == [
        (VerdictStatus.SETTLED_IN_TARGET, T, ()),
        (VerdictStatus.NO_SUPPORT, None, ()),
    ]
