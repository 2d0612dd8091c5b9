"""Session file parsing, validation, canonical printing, and commands."""

import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import analogia.analogy

from analogia import (
    AnalogiaError,
    AnalogyError,
    ParseError,
    RepcheckError,
    Session,
    SessionError,
    TranslationTables,
    TruthValue,
    parse_formula,
    parse_session,
    print_session,
    resolve_space,
    run,
)
from analogia.analogy import Guard
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
    token_positions,
    tokenize,
)
from analogia.session import SESSION_COMMANDS, resolve_maps, session_preference

from conftest import SESSIONS_DIR, rebuild

MINIMAL = """
domain S {
  objects: a;
  pred P/1;
  fact P(a) = true;
}
domain T {
  objects: b;
  pred R/1;
}
analogy plain from S to T {
  map P -> R;
  map a -> b;
}
workingset { P(a); }
query R(b);
"""


def corpus_files():
    return sorted(SESSIONS_DIR.glob("*.ana"))


def translation_cases():
    texts = {p.name: p.read_text() for p in corpus_files()}
    # The mixed map's pieces cover neither a sentence that mentions both
    # objects nor one that mentions none; translate still sees them.
    texts["uncovered"] = texts["combi.ana"].replace(
        "workingset atoms;", "workingset { P(x); P(x) & P(x'); forall v. Q(v); }"
    )
    return [
        pytest.param(text, command, id=f"{name}-{command}")
        for name, text in texts.items()
        for command in SESSION_COMMANDS
    ]


# ====================================================================
# Parsing
# ====================================================================


class TestParseSession:
    def test_minimal_session(self):
        s = parse_session(MINIMAL)
        assert [d.signature.name for d in s.domains] == ["S", "T"]
        assert (s.source_name, s.target_name) == ("S", "T")
        assert [a.name for a in s.analogies] == ["plain"]
        assert [str(f) for f in s.working_set] == ["P(a)"]
        assert [str(q) for q in s.queries] == ["R(b)"]
        assert s.closure is False
        assert s.preference_kind == "dominance"

    def test_source_and_target_inferred_from_analogies(self):
        s = parse_session(MINIMAL)
        assert s.source.signature.name == "S"
        assert s.target.signature.name == "T"

    def test_explicit_source_target_and_closure(self):
        text = MINIMAL + "\nsource S;\ntarget T;\nclosure on;\n"
        s = parse_session(text)
        assert s.closure is True

    def test_declaration_order_is_free(self):
        reordered = """
        query R(b);
        analogy plain from S to T { map P -> R; map a -> b; }
        workingset { P(a); }
        domain T { objects: b; pred R/1; }
        domain S { objects: a; pred P/1; fact P(a) = true; }
        """
        assert parse_session(reordered) == parse_session(MINIMAL)

    def test_workingset_atoms_expands_ground_atoms(self):
        text = """
        domain S { objects: a, b; pred P/1; pred Q/1; }
        domain T { objects: c; pred R/1; }
        analogy m from S to T { map P -> R; map a -> c; }
        workingset atoms;
        """
        s = parse_session(text)
        assert [str(f) for f in s.working_set] == [
            "P(a)",
            "P(b)",
            "Q(a)",
            "Q(b)",
        ]

    def test_piecewise_analogy(self):
        text = """
        domain S { objects: a, b; pred P/1; }
        domain T { objects: c, d; pred R/1; }
        analogy m from S to T {
          piece when mentions {a} { map P -> R; map a -> c; }
          piece when mentions {b} { map P -> R; map b -> d; }
        }
        """
        s = parse_session(text)
        pieces = s.analogies[0].pieces
        assert pieces[0].guard == Guard.mentions({"a"})
        assert pieces[1].guard == Guard.mentions({"b"})
        assert pieces[0].mapping == {"P": "R", "a": "c"}

    def test_functions_and_interps(self):
        text = """
        domain S {
          objects: a, b;
          pred P/1;
          func f/1;
          interp f(a) = b;
          interp f(b) = b;
          fact P(b) = false;
        }
        domain T { objects: c; pred R/1; func g/1; interp g(c) = c; }
        analogy m from S to T { map P -> R; map f -> g; map a -> c; map b -> c; }
        """
        with pytest.raises(AnalogyError, match="not injective"):
            parse_session(text)
        fixed = text.replace("map b -> c;", "")
        s = parse_session(fixed)
        dom = s.domain("S")
        assert dom.func_interp[("f", ("a",))] == "b"
        assert dom.fact_value.__self__ is dom

    def test_counts_preference_with_fraction_weights(self):
        text = MINIMAL + "\npreference counts(1/2, 2);\n"
        s = parse_session(text)
        assert s.preference_kind == "counts"
        assert s.count_weights == (Fraction(1, 2), Fraction(2))

    def test_explicit_preference(self):
        text = """
        domain S { objects: a; pred P/1; fact P(a) = true; }
        domain T { objects: b; pred R/1; pred R2/1; }
        analogy one from S to T { map P -> R; map a -> b; }
        analogy two from S to T { map P -> R2; map a -> b; }
        workingset { P(a); }
        preference explicit { prefer one over two; }
        """
        s = parse_session(text)
        assert s.preference_kind == "explicit"
        assert s.explicit_edges == (("one", "two"),)

    def test_unknown_fact_value_reports_position(self):
        text = "domain S { objects: a; pred P/1; fact P(a) = maybe; }"
        with pytest.raises(ParseError) as exc:
            parse_session(text)
        assert "expected true, false, or unknown" in str(exc.value)

    @pytest.mark.parametrize(
        "snippet, message",
        [
            ("source S;\nsource S;", "duplicate source"),
            ("target T;\ntarget T;", "duplicate target"),
            ("closure on;\nclosure off;", "duplicate closure"),
            ("workingset { P(a); }", "duplicate workingset"),
            ("preference dominance;\npreference dominance;", "duplicate preference"),
            ("closure maybe;", "closure must be on or off"),
            ("widget;", "expected domain, analogy"),
        ],
    )
    def test_structural_parse_errors(self, snippet, message):
        with pytest.raises(ParseError, match=message):
            parse_session(MINIMAL + "\n" + snippet)

    @pytest.mark.parametrize(
        "line, word, col",
        [
            ("source S; source T;", "source", 11),
            ("target T; target S;", "target", 11),
            ("closure on; closure off;", "closure", 13),
            ("preference dominance; preference counts(1, 2);", "preference", 23),
            ("query R(b); workingset atoms;", "workingset", 13),
        ],
    )
    def test_duplicate_declaration_is_reported_at_its_keyword(self, line, word, col):
        with pytest.raises(ParseError) as exc:
            parse_session(MINIMAL + line)
        assert (exc.value.line, exc.value.col) == (17, col)
        assert str(exc.value) == f"line 17, column {col}: duplicate {word} declaration"

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("pred W/1;", f"pred W/{'1' * 5000};", (8, 10)),
            ("counts(1, 1);", f"counts({'9' * 5000}, 1);", (50, 19)),
        ],
        ids=["arity", "weight"],
    )
    def test_a_number_past_the_digit_limit_is_a_parse_error(self, old, new, where):
        # int() refuses strings of more than 4,300 digits by default
        text = (SESSIONS_DIR / "counts.ana").read_text().replace(old, new)
        with pytest.raises(ParseError) as exc:
            parse_session(text)
        assert (exc.value.line, exc.value.col) == where
        assert str(exc.value).endswith(": number of 5000 digits is too long")

    @pytest.mark.parametrize(
        "text, kind", [(None, "NoneType"), (MINIMAL.encode(), "bytes")], ids=["none", "bytes"]
    )
    def test_non_text_input_is_a_session_error(self, text, kind):
        with pytest.raises(SessionError, match=f"^session text must be a str, not {kind}$"):
            parse_session(text)

    def test_mixing_bare_maps_and_pieces_is_rejected(self):
        domains = """
        domain S { objects: a, b; pred P/1; }
        domain T { objects: c; pred R/1; }
        """
        bare, piece = "map P -> R;", "piece when mentions {a} { map a -> c; }"
        for body in (bare + piece, piece + bare):
            with pytest.raises(ParseError, match="cannot mix bare map lines"):
                parse_session(domains + f"analogy m from S to T {{ {body} }}")

    def test_duplicate_map_source_in_a_piece(self):
        text = """
        domain S { objects: a; pred P/1; pred Q/1; }
        domain T { objects: b; pred R/1; pred R2/1; }
        analogy m from S to T { map P -> R; map P -> R2; map a -> b; }
        """
        with pytest.raises(SessionError, match="maps 'P' twice"):
            parse_session(text)

    def test_source_inference_fails_when_ambiguous(self):
        text = """
        domain S { objects: a; pred P/1; }
        domain T { objects: b; pred R/1; }
        analogy m from S to T { map P -> R; map a -> b; }
        analogy w from T to S { map R -> P; map b -> a; }
        """
        with pytest.raises(SessionError, match="cannot be inferred"):
            parse_session(text)

    def test_inference_with_no_analogies_fails(self):
        with pytest.raises(SessionError, match="cannot be inferred"):
            parse_session("domain S { objects: a; }")


# ====================================================================
# Semantic validation
# ====================================================================


class TestSessionValidation:
    @pytest.mark.parametrize(
        "mutation, message",
        [
            (
                "analogy m2 from S to S { map P -> P; map a -> a; }\nsource S;\ntarget T;",
                "runs to 'S', not the target",
            ),
            ("query P(a);\nsource S;\ntarget T;", "unknown predicate"),
            ("preference counts(0, 1);", "must be positive"),
            (
                "preference explicit { prefer plain over ghost; }",
                "unknown analogy 'ghost'",
            ),
            (
                "preference explicit { prefer plain over plain; }",
                "cannot be preferred to itself",
            ),
            (
                "preference explicit { prefer plain over plain; }\nclosure on;",
                "closure",
            ),
        ],
    )
    def test_rejections(self, mutation, message):
        with pytest.raises((SessionError, Exception), match=message):
            parse_session(MINIMAL + "\n" + mutation)

    @pytest.mark.parametrize(
        "weights, message",
        [
            (("1", 1), "count weights must be rational numbers"),
            ((0.5, 1), "count weights must be rational numbers"),
            ((1, 0), "count weights must be positive"),
            ((1,), "counts preference needs its two weights"),
        ],
    )
    def test_count_weights_checked_at_construction(self, weights, message):
        session = parse_session(MINIMAL + "\npreference counts(1, 2);")
        with pytest.raises(SessionError, match=f"^{message}$"):
            rebuild(session, count_weights=weights)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("closure", "yes"),
            ("explicit_edges", (("a",),)),
            ("domains", ("x",)),
            ("analogies", ("x",)),
            ("working_set", 5),
            ("queries", None),
            ("source_name", []),
            ("target_name", ["T"]),
        ],
    )
    def test_fields_checked_at_construction(self, field, value):
        session = parse_session(MINIMAL)
        with pytest.raises(SessionError, match=f"^{field} must "):
            rebuild(session, **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # a str edge is not split into its characters
            ("explicit_edges", ("ab",), "explicit_edges must be iterable, not str"),
            # nor is an end that is not a name made into one
            ("explicit_edges", ((1, "plain"),), "explicit_edges must hold str values, not 1"),
            # a str field is refused whole, as kb's arguments are
            ("working_set", "P(a)", "working_set must be iterable, not str"),
        ],
    )
    def test_fields_are_neither_split_nor_coerced(self, field, value, message):
        session = parse_session(MINIMAL)
        with pytest.raises(SessionError, match=f"^{re.escape(message)}$"):
            rebuild(session, **{field: value})

    def test_domain_errors_carry_the_domain_name(self):
        text = "domain S { objects: a, a; }\ndomain T { objects: b; }\nsource S;\ntarget T;"
        with pytest.raises(SessionError, match="domain S:"):
            parse_session(text)

    INTERPS = (
        "domain S {{ objects: a, b; func f/1; interp f(a) = a; {} interp f(b) = b; }}\n"
        "source S;\ntarget S;"
    )

    def test_conflicting_interps_are_rejected(self):
        message = r"^domain S: conflicting interpretation f\(a\): a vs b$"
        with pytest.raises(SessionError, match=message):
            parse_session(self.INTERPS.format("interp f(a) = b;"))

    def test_repeated_interp_is_accepted(self):
        session = parse_session(self.INTERPS.format("interp f(a) = a;"))
        assert session.domain("S").func_interp == {("f", ("a",)): "a", ("f", ("b",)): "b"}

    def test_undeclared_analogy_domain(self):
        text = """
        domain S { objects: a; pred P/1; }
        analogy m from S to Ghost { map P -> P; }
        """
        with pytest.raises(SessionError, match="undeclared target domain 'Ghost'"):
            parse_session(text)

    def test_duplicate_domains_rejected(self):
        text = "domain S { objects: a; }\n" * 2 + "source S;\ntarget S;"
        with pytest.raises(SessionError, match="declared twice"):
            parse_session(text)


# ====================================================================
# Canonical printing
# ====================================================================


class TestPrintSession:
    def test_round_trip_on_the_minimal_session(self):
        s = parse_session(MINIMAL)
        printed = print_session(s)
        assert parse_session(printed) == s
        assert print_session(parse_session(printed)) == printed

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
    def test_round_trip_on_the_corpus(self, path):
        s = parse_session(path.read_text())
        printed = print_session(s)
        assert parse_session(printed) == s
        assert print_session(parse_session(printed)) == printed

    def test_canonical_output_is_normalized(self):
        messy = """
        query R(b);
        analogy plain from S to T { map a -> b; map P -> R; }
        domain T { objects: b; pred R/1; }
        workingset { P(a); }
        domain S { objects: a; pred P/1; fact P(a) = true; }
        """
        assert print_session(parse_session(messy)) == print_session(
            parse_session(MINIMAL)
        )

    @pytest.mark.parametrize("value", [5, None, MINIMAL])
    def test_something_else_than_a_session_is_named(self, value):
        kind = type(value).__name__
        with pytest.raises(SessionError, match=f"^print_session needs a Session, not {kind}$"):
            print_session(value)

    def test_interpreted_constants_cannot_be_written_out(self):
        from analogia import Signature, make_domain, Session

        sig = Signature("S", ("a",), (), ())
        dom = make_domain(sig, ("a", "e2"), const_interp={"a": "e2"})
        with pytest.raises(SessionError, match="objects must name themselves"):
            print_session(
                Session(domains=(dom,), source_name="S", target_name="S")
            )


# ====================================================================
# Resolution
# ====================================================================


class TestResolution:
    @pytest.mark.parametrize("value", [5, None, MINIMAL])
    def test_something_else_than_a_session_is_named(self, value):
        kind = type(value).__name__
        with pytest.raises(SessionError, match=f"^resolve_space needs a Session, not {kind}$"):
            resolve_space(value)

    def test_closure_expands_the_analogies(self):
        text = (SESSIONS_DIR / "closure.ana").read_text()
        s = parse_session(text)
        names = [a.name for a in resolve_maps(s)]
        assert names == [
            "first",
            "second",
            "first+second@x",
            "first+second@x'",
            "second+first@x",
            "second+first@x'",
        ]
        without = parse_session(text.replace("closure on;", ""))
        assert [a.name for a in resolve_maps(without)] == ["first", "second"]

    def test_session_preference_kinds(self):
        dominance = parse_session((SESSIONS_DIR / "combi.ana").read_text())
        maps = resolve_maps(dominance)
        pref = session_preference(dominance, maps)
        assert pref.edges == {("mixed", "first"), ("mixed", "second")}

        counts = parse_session((SESSIONS_DIR / "counts.ana").read_text())
        pref = session_preference(counts, resolve_maps(counts))
        assert pref.edges == {("hopeful", "contrary")}

        explicit = parse_session((SESSIONS_DIR / "explicit_pref.ana").read_text())
        pref = session_preference(explicit, resolve_maps(explicit))
        assert pref.edges == {("underdog", "favourite")}

    def test_resolve_space_builds_a_working_space(self):
        from analogia import best

        space = resolve_space(parse_session((SESSIONS_DIR / "combi.ana").read_text()))
        assert best(space) == {"mixed"}

    @pytest.mark.parametrize("command", ["best", "entail"])
    def test_run_builds_the_closure_once(self, monkeypatch, command):
        calls = []
        close = TranslationTables.close

        def counting(*args):
            calls.append(args)
            return close(*args)

        monkeypatch.setattr(TranslationTables, "close", counting)
        run(parse_session((SESSIONS_DIR / "closure.ana").read_text()), command)
        assert len(calls) == 1

    @pytest.mark.parametrize("command", SESSION_COMMANDS)
    def test_run_builds_one_translation_table(self, monkeypatch, command):
        built = []
        init = TranslationTables.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(TranslationTables, "__init__", counting)
        run(parse_session((SESSIONS_DIR / "closure.ana").read_text()), command)
        assert len(built) == 1

    @pytest.mark.parametrize("text, command", translation_cases())
    def test_each_declared_pair_is_translated_once(self, monkeypatch, text, command):
        # A declared analogy's table keys each distinct sentence once by
        # its shape and target symbols; closure combinations derive their
        # tables and key nothing. No command calls translate: report
        # carries each image it prints once, from the id's recipe, and
        # no other command carries one.
        keyed, translated = Counter(), Counter()
        intern, translate = TranslationTables._intern, analogia.analogy.translate

        def counting_intern(self, amap, i):
            keyed[amap.name, self.sentences[i]] += 1
            return intern(self, amap, i)

        def counting_translate(amap, f):
            translated[amap.name, f] += 1
            return translate(amap, f)

        monkeypatch.setattr(TranslationTables, "_intern", counting_intern)
        monkeypatch.setattr(analogia.analogy, "translate", counting_translate)
        session = parse_session(text)
        carried = []
        carry = analogia.analogy._carry

        def counting_carry(f, map_symbol, signature):
            if signature is not None:  # an image, not a query's blank shape
                carried.append(f)
            return carry(f, map_symbol, signature)

        monkeypatch.setattr(analogia.analogy, "_carry", counting_carry)
        run(session, command)
        assert not translated
        if command == "check":
            assert not keyed
        else:
            assert keyed == Counter(
                {(a.name, f): 1 for a in session.analogies for f in session.working_set}
            )
        assert len(carried) == len(session.tables._images)
        if command != "report":
            assert not carried

    def test_tables_hash_each_sentence_and_each_shape_once(self, monkeypatch):
        hashed = Counter()
        for cls in (Var, Const, FuncApp, Atom, Not, And, Or, Implies, Forall, Exists):

            def counting(node, hash_node=cls.__hash__):
                hashed[type(node).__name__] += 1
                return hash_node(node)

            monkeypatch.setattr(cls, "__hash__", counting)
        session = parse_session((SESSIONS_DIR / "closure.ana").read_text())
        hashed.clear()
        TranslationTables(session.source, session.target, session.working_set)
        # four atoms of one constant each: the sentences' 8 nodes, and the
        # 8 nodes of their blank shapes, all one shape
        assert hashed == {"Atom": 8, "Const": 8}

    def test_repeated_runs_keep_the_tables_bounded(self):
        session = parse_session((SESSIONS_DIR / "closure.ana").read_text())
        run(session, "best")
        entries = len(session.tables._tables)
        assert entries == len(resolve_maps(session))
        run(session, "best")
        run(session, "best")
        assert len(session.tables._tables) == entries


# ====================================================================
# Commands
# ====================================================================


class TestPrimedBinders:
    """The target names an object x, so translation primes a bound x:
    forall x. P(x) and forall x'. P(x') share the image forall x'. Q(x')."""

    TEXT = """
    domain S { objects: a; pred P/1; fact P(a) = true; }
    domain T { objects: x; pred Q/1; }
    analogy m from S to T { map P -> Q; map a -> x; }
    workingset { %s }
    query forall x'. Q(x');
    """

    @pytest.mark.parametrize("command", ["best", "entail"])
    def test_sentences_with_one_primed_image_are_not_injective(self, command):
        session = parse_session(self.TEXT % "forall x. P(x); forall x'. P(x');")
        message = (
            "analogy 'm': translation is not injective on the working set "
            "(forall x. P(x) and forall x'. P(x') share an image)"
        )
        with pytest.raises(AnalogiaError, match=f"^{re.escape(message)}$"):
            run(session, command)

    def test_a_query_is_answered_from_the_sentence_it_primes(self):
        out = run(parse_session(self.TEXT % "forall x. P(x);"), "entail")
        assert out["verdicts"] == [
            {
                "query": "forall x'. Q(x')",
                "status": "entailed",
                "value": "true",
                "support": ["m"],
                "suggestions": {"m": "true"},
                "warnings": [],
            }
        ]


class TestRun:
    @pytest.fixture
    def combi(self):
        return parse_session((SESSIONS_DIR / "combi.ana").read_text())

    def test_check(self, combi):
        assert run(combi, "check") == {
            "command": "check",
            "ok": True,
            "domains": ["S", "T"],
            "source": "S",
            "target": "T",
            "analogies": ["first", "mixed", "second"],
            "working_set": 4,
            "queries": 2,
            "closure": False,
            "preference": "dominance",
        }

    def test_classify(self, combi):
        out = run(combi, "classify")
        assert out["command"] == "classify"
        by_name = {r["analogy"]: r for r in out["reports"]}
        assert by_name["first"]["positive"] == ["P(x)"]
        assert by_name["first"]["negative"] == ["P(x')"]
        assert by_name["mixed"]["positive"] == ["P(x)", "P(x')"]
        assert by_name["mixed"]["conjectures"] == {"Q(x)": "true", "Q(x')": "true"}

    def test_report(self, combi):
        out = run(combi, "report")
        by_name = {r["analogy"]: r for r in out["reports"]}
        assert by_name["second"]["negative_source_true"] == [
            {"source": "P(x)", "target": "Pb(y)"}
        ]

    def test_score(self, combi):
        out = run(combi, "score")
        assert out == {
            "command": "score",
            "scores": [
                {"analogy": "first", "n": 1, "r": 1, "s": 0, "p": "1/3"},
                {"analogy": "mixed", "n": 2, "r": 0, "s": 0, "p": "2/3"},
                {"analogy": "second", "n": 1, "r": 1, "s": 0, "p": "1/3"},
            ],
        }

    def test_score_without_positives_has_no_p(self):
        text = """
        domain S { objects: a; pred P/1; fact P(a) = true; }
        domain T { objects: b; pred R/1; fact R(b) = false; }
        analogy m from S to T { map P -> R; map a -> b; }
        workingset { P(a); }
        """
        out = run(parse_session(text), "score")
        assert out["scores"] == [{"analogy": "m", "n": 0, "r": 1, "s": 0, "p": None}]

    def test_best(self, combi):
        assert run(combi, "best") == {
            "command": "best",
            "carrier": ["first", "mixed", "second"],
            "edges": [["mixed", "first"], ["mixed", "second"]],
            "best": ["mixed"],
        }

    def test_entail(self, combi):
        out = run(combi, "entail")
        assert [v["status"] for v in out["verdicts"]] == ["entailed", "entailed"]
        assert [v["value"] for v in out["verdicts"]] == ["true", "true"]
        assert out["verdicts"][0]["query"] == "Qa(y)"

    def test_repcheck_needs_no_session(self):
        out = run(None, "repcheck", n=2, relation_class="all", mode="soundness")
        assert out["command"] == "repcheck"
        assert out["ok"] is True
        assert out["examined"] == 4

    def test_repcheck_argument_errors(self):
        with pytest.raises(RepcheckError, match="needs a carrier size"):
            run(None, "repcheck")
        with pytest.raises(RepcheckError, match="unknown relation class"):
            run(None, "repcheck", n=2, relation_class="wild")
        with pytest.raises(RepcheckError, match="unknown mode"):
            run(None, "repcheck", n=2, mode="sideways")

    def test_unknown_command(self, combi):
        with pytest.raises(SessionError, match="unknown command"):
            run(combi, "explode")

    def test_session_commands_need_a_session(self):
        with pytest.raises(SessionError, match="needs a session"):
            run(None, "entail")

    @pytest.mark.parametrize("command", SESSION_COMMANDS)
    @pytest.mark.parametrize("value", [5, "combi.ana", {}], ids=["int", "str", "dict"])
    def test_something_else_than_a_session_is_named(self, command, value):
        kind = type(value).__name__
        with pytest.raises(SessionError, match=f"^command {command!r} needs a Session, not {kind}$"):
            run(value, command)

    def test_none_keeps_its_message(self):
        with pytest.raises(SessionError, match="^command 'check' needs a session$"):
            run(None, "check")


# ====================================================================
# Corpus expectations
# ====================================================================


EXPECTED_VERDICTS = {
    "smoke": [("R(b)", "entailed", "true")],
    "combi": [("Qa(y)", "entailed", "true"), ("Qb(y')", "entailed", "true")],
    "counts": [("Wa(d1)", "entailed", "true"), ("Wb(d1)", "no_support", None)],
    "explicit_pref": [
        ("Hb(f)", "entailed", "true"),
        ("Ha(f)", "no_support", None),
    ],
    "quantified": [
        ("forall v. Feathered(v) -> Glides(v)", "entailed", "true"),
        ("Glides(t2)", "entailed", "true"),
    ],
    "functions": [("Lead(chief(n1))", "entailed", "true")],
    "unknowns": [("HiddenT(l)", "no_support", None)],
    "untranslatable": [("CoreT(q)", "settled_in_target", "true")],
    "identity": [("F(w)", "settled_in_target", "true")],
    "conflict": [("C(t)", "conflicted", None)],
    "closure": [("Qa(y)", "entailed", "true"), ("Qb(y')", "entailed", "true")],
    "empty_space": [("ZT(zz)", "no_support", None)],
    "cycle": [("Ma(u)", "no_support", None)],
    "weights": [],
}


class TestCorpus:
    def test_every_expected_file_exists(self):
        stems = {p.stem for p in corpus_files()}
        assert set(EXPECTED_VERDICTS) <= stems
        assert len(stems) >= 10

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
    def test_parses_and_answers_as_expected(self, path):
        session = parse_session(path.read_text())
        out = run(session, "entail")
        got = [
            (v["query"], v["status"], v["value"]) for v in out["verdicts"]
        ]
        assert got == EXPECTED_VERDICTS[path.stem]

    def test_cycle_and_empty_space_warn(self):
        for stem in ("cycle", "empty_space"):
            session = parse_session((SESSIONS_DIR / f"{stem}.ana").read_text())
            out = run(session, "entail")
            assert out["verdicts"][0]["warnings"] == [
                "no analogy survives the preference; the best set is empty"
            ]

    def test_closure_best_set(self):
        session = parse_session((SESSIONS_DIR / "closure.ana").read_text())
        out = run(session, "best")
        assert out["best"] == ["first+second@x", "second+first@x'"]


# ====================================================================
# Token edits
# ====================================================================

CORPUS = {p.stem: p.read_text() for p in corpus_files()}
VOCABULARY = sorted({tok for text in CORPUS.values() for tok in tokenize(text) if tok})
EDITS = ("delete", "replace", "insert")


def edit_tokens(text, edits):
    """text with each (token index, edit, new token) applied. Edits go
    from the last token back, so the offsets of earlier ones hold."""

    tokens = tokenize(text)
    starts = [offset for offset, _, _ in token_positions(text)]
    for index, edit, new in sorted(edits, reverse=True):
        start, end = starts[index], starts[index] + len(tokens[index])
        if edit == "delete":
            text = text[:start] + " " + text[end:]
        elif edit == "replace":
            text = text[:start] + f" {new} " + text[end:]
        else:
            text = text[:start] + f"{new} " + text[start:]
    return text


@st.composite
def edited_sessions(draw):
    """A bundled session with one to three distinct tokens edited."""

    text = CORPUS[draw(st.sampled_from(sorted(CORPUS)))]
    edit = st.tuples(
        st.integers(0, len(tokenize(text)) - 1),
        st.sampled_from(EDITS),
        st.sampled_from(VOCABULARY),
    )
    edits = st.lists(edit, min_size=1, max_size=3, unique_by=lambda e: e[0])
    return edit_tokens(text, draw(edits))


class TestTokenEdits:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edited_sessions())
    def test_parse_ends_in_a_session_or_an_analogia_error(self, text):
        try:
            session = parse_session(text)
        except AnalogiaError:
            return
        assert isinstance(session, Session)

    def test_cli_reports_an_error_line_and_no_traceback(self, tmp_path):
        rng = random.Random(14)
        for i in range(6):
            text = CORPUS[rng.choice(sorted(CORPUS))]
            indices = rng.sample(range(len(tokenize(text))), rng.randint(1, 3))
            edits = [(k, rng.choice(EDITS), rng.choice(VOCABULARY)) for k in indices]
            path = tmp_path / f"edited{i}.ana"
            path.write_text(edit_tokens(text, edits))
            proc = subprocess.run(
                [sys.executable, "-m", "analogia", "entail", str(path)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode in (0, 1)
            assert "Traceback" not in proc.stderr
            if proc.returncode:
                assert proc.stderr.startswith("error: ")
