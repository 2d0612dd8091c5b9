"""Formula parsing, printing, checking, and three-valued evaluation."""

import copy
import inspect
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from analogia import (
    AnalogySpace,
    FormulaError,
    ParseError,
    Session,
    Signature,
    SignatureError,
    TranslationError,
    TranslationTables,
    TruthValue,
    analogy_map,
    check_formula,
    dominance_preference,
    entail,
    evaluate,
    make_domain,
    parse_formula,
    parse_session,
    print_formula,
)
from analogia.analogy import translate
from analogia.entailment import conjecture_for
from analogia.formula import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Implies,
    MAX_FORMULA_DEPTH,
    Not,
    Or,
    Var,
    formula_nodes,
    ground_atom_formulas,
    mentioned_constants,
    token_positions,
    tokenize,
)
from analogia.kb import RESERVED_WORDS, _check_ident

from conftest import SESSIONS_DIR, rebuild
from reference import reference_evaluate, reference_tokenize
from sentences import sentences_up_to_depth

T = TruthValue.TRUE
F = TruthValue.FALSE
U = TruthValue.UNKNOWN


# ====================================================================
# Tokenizer
# ====================================================================


def kind_of(text):
    """A token's kind, told from its text alone."""

    if not text:
        return "eof"
    if text[0] in "0123456789":
        return "number"
    if text[0].isalpha() or text[0] == "_":
        return "ident"
    return "symbol"


def located(text):
    """tokenize's tokens as (kind, text, line, column), the reference's form."""

    tokens = tokenize(text)
    positions = list(token_positions(text))
    assert len(positions) == len(tokens)
    return [(kind_of(t), t, line, col) for t, (_, line, col) in zip(tokens, positions)]


class TestTokenize:
    def test_kinds_and_texts(self):
        toks = tokenize("forall x'. P(x', 12) -> !Q")
        assert [(kind_of(t), t) for t in toks] == [
            ("ident", "forall"),
            ("ident", "x'"),
            ("symbol", "."),
            ("ident", "P"),
            ("symbol", "("),
            ("ident", "x'"),
            ("symbol", ","),
            ("number", "12"),
            ("symbol", ")"),
            ("symbol", "->"),
            ("symbol", "!"),
            ("ident", "Q"),
            ("eof", ""),
        ]

    def test_comments_are_skipped(self):
        toks = tokenize("P(a) # until end of line\n& Q(b)")
        assert toks[:-1] == ["P", "(", "a", ")", "&", "Q", "(", "b", ")"]

    def test_positions_are_one_based(self):
        text = "P(a)\n  & Q(b)"
        positions = dict(zip(tokenize(text), token_positions(text)))
        assert positions["&"] == (7, 2, 3)
        assert positions["P"] == (0, 1, 1)
        assert positions[""] == (len(text), 2, 9)

    def test_all_punctuation(self):
        text = "-> ! & | ( ) { } , ; : . = /"
        toks = tokenize(text)
        assert toks[:-1] == text.split()
        assert all(kind_of(t) == "symbol" for t in toks[:-1])

    def test_bad_character_reports_position(self):
        with pytest.raises(ParseError) as exc:
            tokenize("P(a) $ Q(b)")
        assert exc.value.line == 1
        assert exc.value.col == 6


def scan(scanner, text):
    """The token list, or the ParseError's message, line and column."""

    try:
        return scanner(text)
    except ParseError as err:
        return err.bare_message, err.line, err.col


# What the drawn texts are made of: every token class, characters just
# outside each class (a prime, a lone '-', a non-ASCII letter, digit
# and superscript), and every way a line or a comment can end; a text
# may start with a comment and end inside one.
SCANNER_PIECES = (
    "x", "x'", "P", "_a1", "b'c", "forall", "0", "12", "٣", "²", "é", "-", "->",
    *"!&|(){},;:.=/", " ", "\t", "\r\n", "\n", "# note", "# note\n", "$",
)

# The bundled sessions end to end, about 8.7 KB, repeated to a large text.
BUNDLED = "\n".join(
    path.read_text(encoding="utf-8") for path in sorted(SESSIONS_DIR.glob("*.ana"))
)


def big_session(facts):
    """One valid session text with the given number of fact lines."""

    objects = [f"o{i}" for i in range(50)]
    lines = [f"domain S {{\n  objects: {', '.join(objects)};\n  pred P/1;\n"]
    lines += [f"  fact P(o{i % 50}) = true;  # fact {i}\n" for i in range(facts)]
    return "".join(lines) + "}\nsource S;\ntarget S;\n"


class TestScannerAgainstReference:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(SCANNER_PIECES), max_size=16).map("".join))
    def test_agrees_with_the_character_loop(self, text):
        assert scan(located, text) == scan(reference_tokenize, text)

    def test_leading_and_trailing_comments(self):
        for text in ("# note\nP(a)", "P(a) # note", "# note"):
            assert located(text) == reference_tokenize(text)

    @pytest.mark.parametrize(
        "path", sorted(SESSIONS_DIR.glob("*.ana")), ids=lambda path: path.name
    )
    def test_agrees_on_every_bundled_session(self, path):
        text = path.read_text(encoding="utf-8")
        assert located(text) == reference_tokenize(text)

    def test_agrees_on_a_large_text(self):
        text = BUNDLED * 20
        assert located(text) == reference_tokenize(text)

    @pytest.mark.parametrize("bad", ["$", "²", "é"])
    def test_bad_character_near_the_end_of_a_large_text(self, bad):
        text = BUNDLED * 20 + f"query P(a) {bad} Q(b);\n"
        assert scan(tokenize, text) == scan(reference_tokenize, text)

    def test_bad_token_near_the_end_of_a_large_text(self):
        text = big_session(5000).replace("true;  # fact 4990", "maybe;  # fact 4990")
        with pytest.raises(ParseError) as exc:
            parse_session(text)
        (_, _, line, col), = [t for t in reference_tokenize(text) if t[1] == "maybe"]
        assert (exc.value.bare_message, exc.value.line, exc.value.col) == (
            "expected true, false, or unknown, found 'maybe'", line, col
        )

    def test_scanning_a_megabyte_is_linear(self):
        # Listing every position, or raising at the last token, walks
        # the text once; a walk per token would take minutes here.
        text = big_session(30000)
        assert len(text) > 1_000_000
        start = time.perf_counter()
        assert len(list(token_positions(text))) == len(tokenize(text))
        with pytest.raises(ParseError, match="duplicate source declaration"):
            parse_session(text + "source S;\n")
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize(text + "$")
        assert time.perf_counter() - start < 5

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(sorted(RESERVED_WORDS)),
            st.text(alphabet="aZ_09'é٣²-#. \t\n", max_size=6),
        )
    )
    def test_one_identifier_rule(self, name):
        # A name scans as exactly one identifier iff a signature accepts
        # it, reserved words aside.
        try:
            toks = tokenize(name)
        except ParseError:
            toks = []
        one_ident = [(kind_of(t), t) for t in toks] == [("ident", name), ("eof", "")]
        try:
            _check_ident(name, "constant")
            accepted = True
        except SignatureError:
            accepted = name in RESERVED_WORDS
        assert one_ident == accepted


# ====================================================================
# Parser
# ====================================================================


class TestParseFormula:
    def test_atom(self):
        assert parse_formula("P(a)") == Atom("P", (Const("a"),))

    def test_function_terms_nest(self):
        f = parse_formula("P(g(g(a)))")
        assert f == Atom("P", (FuncApp("g", (FuncApp("g", (Const("a"),)),)),))

    def test_not_binds_tighter_than_and(self):
        assert parse_formula("!P(a) & Q(b)") == And(
            Not(Atom("P", (Const("a"),))), Atom("Q", (Const("b"),))
        )

    def test_and_binds_tighter_than_or(self):
        f = parse_formula("P(a) | Q(b) & R(c)")
        assert f == Or(
            Atom("P", (Const("a"),)),
            And(Atom("Q", (Const("b"),)), Atom("R", (Const("c"),))),
        )

    def test_or_binds_tighter_than_implies(self):
        f = parse_formula("P(a) | Q(b) -> R(c)")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)

    def test_implies_is_right_associative(self):
        f = parse_formula("P(a) -> Q(b) -> R(c)")
        assert f == Implies(
            Atom("P", (Const("a"),)),
            Implies(Atom("Q", (Const("b"),)), Atom("R", (Const("c"),))),
        )

    def test_double_negation(self):
        assert parse_formula("!!P(a)") == Not(Not(Atom("P", (Const("a"),))))

    def test_quantifier_scope_is_maximal(self):
        f = parse_formula("forall v. P(v) -> Q(v)")
        assert f == Forall(
            "v", Implies(Atom("P", (Var("v"),)), Atom("Q", (Var("v"),)))
        )

    def test_parenthesized_quantifier_stops_early(self):
        f = parse_formula("(forall v. P(v)) -> Q(a)")
        assert f == Implies(
            Forall("v", Atom("P", (Var("v"),))), Atom("Q", (Const("a"),))
        )

    def test_exists_and_shadowing_binders(self):
        f = parse_formula("exists v. P(v) & (forall v. Q(v))")
        assert f == Exists(
            "v",
            And(Atom("P", (Var("v"),)), Forall("v", Atom("Q", (Var("v"),)))),
        )

    def test_free_identifiers_parse_as_constants(self):
        f = parse_formula("P(v)")
        assert f == Atom("P", (Const("v"),))

    def test_bound_identifiers_parse_as_variables(self):
        f = parse_formula("forall v. R(v, a)")
        assert f == Forall("v", Atom("R", (Var("v"), Const("a"))))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "P(a",
            "P(a))",
            "P(a) &",
            "forall . P(a)",
            "forall v P(v)",
            "P(a) Q(b)",
            "& P(a)",
            "P()",
        ],
    )
    def test_malformed_input_raises(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_trailing_input_is_an_error_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("P(a) Q(b)")
        assert exc.value.col == 6

    def test_non_text_input_is_a_formula_error(self):
        with pytest.raises(FormulaError, match="^formula text must be a str, not NoneType$"):
            parse_formula(None)

    DEEP = {
        "!": lambda k: "!" * k + "P(a)",
        "&": lambda k: " & ".join(["P(a)"] * (k + 1)),
        "(": lambda k: "(" * k + "P(a)" + ")" * k,
        "g": lambda k: "P(" + "g(" * k + "a" + ")" * (k + 1),
    }

    @pytest.mark.parametrize("token", DEEP)
    def test_depth_cap_counts_every_level(self, token):
        shape = self.DEEP[token]
        parse_formula(shape(MAX_FORMULA_DEPTH - 2))
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_formula(shape(MAX_FORMULA_DEPTH - 1))
        text = shape(3000)
        with pytest.raises(ParseError, match="nests deeper than") as exc:
            parse_formula(text)
        assert exc.value.line == 1
        assert text[exc.value.col - 1] == token


# ====================================================================
# Printer
# ====================================================================


TRICKY = [
    "P(a)",
    "!P(a)",
    "!!P(a)",
    "P(a) & Q(b) & R(c)",
    "P(a) | Q(b) & R(c)",
    "(P(a) | Q(b)) & R(c)",
    "P(a) -> Q(b) -> R(c)",
    "(P(a) -> Q(b)) -> R(c)",
    "!(P(a) & Q(b))",
    "forall v. P(v) -> Q(v)",
    "(forall v. P(v)) -> Q(a)",
    "exists v. forall w. R(v, w)",
    "forall v. (exists w. R(v, w)) & P(v)",
    "P(g(a)) & Q(g(g(b)))",
]


class TestPrintFormula:
    def test_drops_redundant_parens_around_maximal_quantifier_body(self):
        assert (
            print_formula(parse_formula("forall v. (P(v) -> Q(v))"))
            == "forall v. P(v) -> Q(v)"
        )

    def test_keeps_parens_when_quantifier_is_not_maximal(self):
        assert (
            print_formula(parse_formula("(forall v. P(v)) -> Q(a)"))
            == "(forall v. P(v)) -> Q(a)"
        )

    def test_canonical_spacing(self):
        assert (
            print_formula(parse_formula("P(a)&!Q(b)|R(c)"))
            == "P(a) & !Q(b) | R(c)"
        )

    @pytest.mark.parametrize("text", TRICKY)
    def test_reparse_fixpoint(self, text):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f
        # printing is canonical: a second pass changes nothing
        assert print_formula(parse_formula(print_formula(f))) == print_formula(f)


# --------------------------------------------------------------------
# Generated formulas for the round-trip property
# --------------------------------------------------------------------

GEN_SIG = Signature("gen", ("a", "b"), (("P", 1), ("R", 2)), (("g", 1),))
_VAR_POOL = ("v0", "v1", "v2")


@st.composite
def gen_terms(draw, scope, fuel=1):
    kinds = ["const"] + (["var"] if scope else []) + (["func"] if fuel else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Const(draw(st.sampled_from(("a", "b"))))
    if kind == "var":
        return Var(draw(st.sampled_from(sorted(scope))))
    return FuncApp("g", (draw(gen_terms(scope, fuel - 1)),))


@st.composite
def gen_formulas(draw, depth=3, scope=()):
    kinds = ["atom"]
    if depth > 0:
        kinds += ["not", "and", "or", "implies"]
        if len(scope) < len(_VAR_POOL):
            kinds += ["forall", "exists"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        pred, arity = draw(st.sampled_from((("P", 1), ("R", 2))))
        args = tuple(draw(gen_terms(scope)) for _ in range(arity))
        return Atom(pred, args)
    if kind == "not":
        return Not(draw(gen_formulas(depth - 1, scope)))
    if kind in ("and", "or", "implies"):
        cls = {"and": And, "or": Or, "implies": Implies}[kind]
        return cls(
            draw(gen_formulas(depth - 1, scope)),
            draw(gen_formulas(depth - 1, scope)),
        )
    var = _VAR_POOL[len(scope)]
    body = draw(gen_formulas(depth - 1, scope + (var,)))
    return (Forall if kind == "forall" else Exists)(var, body)


class TestRoundTrip:
    @given(gen_formulas())
    @settings(max_examples=300)
    def test_parse_inverts_print(self, f):
        assert parse_formula(print_formula(f)) == f

    @given(gen_formulas())
    @settings(max_examples=150)
    def test_generated_sentences_check_out(self, f):
        check_formula(f, GEN_SIG)

    @given(gen_formulas())
    @settings(max_examples=150)
    def test_str_matches_print(self, f):
        assert str(f) == print_formula(f)


# ====================================================================
# Sentence checking
# ====================================================================


def _nest(k, wrap, inner):
    for _ in range(k):
        inner = wrap(inner)
    return inner


P_A = Atom("P", (Const("a"),))


# Formulas built in code, not parsed: each nests k + 2 levels deep.
BUILT = {
    "Not": lambda k: _nest(k, Not, P_A),
    "And": lambda k: _nest(k, lambda f: And(f, P_A), P_A),
    "Forall": lambda k: _nest(k, lambda f: Forall("v", f), Atom("P", (Var("v"),))),
    "FuncApp": lambda k: Atom("P", (_nest(k, lambda t: FuncApp("g", (t,)), Const("a")),)),
}


class TestCheckFormula:
    SIG = Signature("s", ("a",), (("P", 1), ("R", 2)), (("g", 1),))

    def test_accepts_well_formed_sentence(self):
        check_formula(parse_formula("forall v. R(v, g(a)) -> P(v)"), self.SIG)

    @pytest.mark.parametrize(
        "text, msg",
        [
            ("Zz(a)", "unknown predicate"),
            ("P(zz)", "unknown symbol"),
            ("P(a, a)", "arity mismatch"),
            ("R(a)", "arity mismatch"),
            ("P(g(a, a))", "arity mismatch"),
            ("P(v)", "unknown symbol"),
            ("g(a)", "not a predicate"),
            ("P(R(a, a))", "not a function"),
            ("forall a. P(a)", "collides with a declared symbol"),
            ("forall forall. P(a)", None),
        ],
    )
    def test_rejections(self, text, msg):
        if text == "forall forall. P(a)":
            # the grammar itself refuses a reserved word as a binder
            with pytest.raises(ParseError):
                parse_formula(text)
            return
        with pytest.raises(FormulaError, match=msg):
            check_formula(parse_formula(text), self.SIG)

    def test_free_variable_rejected(self):
        with pytest.raises(FormulaError, match="free variable"):
            check_formula(Atom("P", (Var("v"),)), self.SIG)

    @pytest.mark.parametrize(
        "f, msg",
        [
            (Forall("forall", P_A), "is a reserved word"),
            (Not(Var("v")), "not a formula node"),
            (Atom("P", (P_A,)), "not a term node"),
        ],
    )
    def test_rejects_what_the_parser_cannot_build(self, f, msg):
        with pytest.raises(FormulaError, match=msg):
            check_formula(f, self.SIG)

    def test_a_signature_is_required(self):
        with pytest.raises(FormulaError, match="^sig must be a Signature, not NoneType$"):
            check_formula(P_A, None)

    def test_first_offender_in_depth_first_order_is_reported(self):
        unknown = Atom("Zz", (Const("a"),))
        free = Atom("P", (Var("v"),))
        with pytest.raises(FormulaError, match="unknown predicate"):
            check_formula(And(unknown, free), self.SIG)
        with pytest.raises(FormulaError, match="free variable"):
            check_formula(And(free, unknown), self.SIG)
        with pytest.raises(FormulaError, match="unknown predicate"):
            check_formula(Or(Not(unknown), BUILT["Not"](3000)), self.SIG)
        with pytest.raises(FormulaError, match="nests deeper than"):
            check_formula(Or(BUILT["Not"](3000), Not(unknown)), self.SIG)


class TestBuiltPastTheCap:
    SIG = Signature("s", ("a",), (("P", 1),), (("g", 1),))

    def identity_map(self):
        src = make_domain(self.SIG, ("a",), func_interp={("g", ("a",)): "a"})
        tgt = make_domain(
            Signature("t", ("a",), (("P", 1),), (("g", 1),)),
            ("a",),
            func_interp={("g", ("a",)): "a"},
        )
        return analogy_map("m", src, tgt, {"P": "P", "a": "a", "g": "g"})

    @pytest.mark.parametrize("shape", BUILT)
    def test_check_formula_enforces_the_cap(self, shape):
        build = BUILT[shape]
        check_formula(build(MAX_FORMULA_DEPTH - 2), self.SIG)
        with pytest.raises(FormulaError, match="nests deeper than"):
            check_formula(build(MAX_FORMULA_DEPTH - 1), self.SIG)

    @pytest.mark.parametrize("shape", BUILT)
    def test_every_entry_point_raises_a_formula_error(self, shape):
        deep = BUILT[shape](3000)
        amap = self.identity_map()
        src, tgt = amap.source, amap.target
        msg = "nests deeper than"
        with pytest.raises(FormulaError, match=msg):
            check_formula(deep, self.SIG)
        with pytest.raises(FormulaError, match=msg):
            TranslationTables(src, tgt, [P_A, deep])
        with pytest.raises(FormulaError, match=msg):
            Session((src, tgt), "s", "t", working_set=(deep,))
        with pytest.raises(FormulaError, match=msg):
            Session((src, tgt), "s", "t", queries=(deep,))
        tables = TranslationTables(src, tgt, [P_A])
        space = AnalogySpace(tables, (amap,), dominance_preference([tables.classify(amap)]))
        with pytest.raises(FormulaError, match=msg):
            entail(space, deep)
        with pytest.raises(FormulaError, match=msg):
            conjecture_for(space, "m", deep)
        with pytest.raises(FormulaError, match=msg):
            tables.conjectures(deep, (amap,))
        assert tables.conjectures(BUILT[shape](MAX_FORMULA_DEPTH - 2), (amap,)) == {}
        with pytest.raises(FormulaError, match=msg):
            evaluate(deep, src)
        with pytest.raises(FormulaError, match=msg):
            print_formula(deep)
        with pytest.raises(FormulaError, match=msg):
            str(deep)
        with pytest.raises(FormulaError, match=msg):
            translate(amap, deep)

    @pytest.mark.parametrize("shape", BUILT)
    def test_evaluate_enforces_the_cap(self, shape):
        build = BUILT[shape]
        dom = make_domain(self.SIG, ("a",), func_interp={("g", ("a",)): "a"})
        assert evaluate(build(MAX_FORMULA_DEPTH - 2), dom) is U
        with pytest.raises(FormulaError, match="nests deeper than"):
            evaluate(build(MAX_FORMULA_DEPTH - 1), dom)

    @pytest.mark.parametrize("shape", BUILT)
    def test_printer_and_translate_enforce_the_cap(self, shape):
        build = BUILT[shape]
        amap = self.identity_map()
        edge = build(MAX_FORMULA_DEPTH - 2)
        assert parse_formula(print_formula(edge)) == edge
        assert translate(amap, edge) == edge
        for entry in (print_formula, lambda f: translate(amap, f)):
            with pytest.raises(FormulaError, match="nests deeper than"):
                entry(build(MAX_FORMULA_DEPTH - 1))

    @pytest.mark.parametrize(
        "f, msg",
        [(Not(5), "not a formula node: 5"), (Atom("P", (5,)), "not a term node: 5")],
    )
    def test_printer_and_translate_name_a_foreign_node(self, f, msg):
        with pytest.raises(FormulaError, match=f"^{msg}$"):
            print_formula(f)
        with pytest.raises(TranslationError, match=f"^{msg}$"):
            translate(self.identity_map(), f)


class TestStoredText:
    """print_formula keeps each formula's text once it has rendered it."""

    @given(gen_formulas())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_stored_text_is_a_fresh_render(self, f):
        twin = copy.deepcopy(f)  # equal, and never printed
        text = print_formula(f)
        assert print_formula(f) is text
        assert print_formula(twin) == text
        assert parse_formula(text) == f

    @given(gen_formulas())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_eq_hash_and_repr_ignore_the_text(self, f):
        twin = copy.deepcopy(f)
        before = (hash(f), repr(f))
        print_formula(f)
        assert f == twin and twin == f
        assert (hash(f), repr(f)) == before == (hash(twin), repr(twin))

    @given(gen_formulas(), gen_formulas())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_replace_gets_its_own_text(self, f, g):
        print_formula(f)
        field = list(inspect.signature(type(f)).parameters)[-1]  # args, body or right
        value = g if isinstance(getattr(f, field), Formula) else (Const("b"),) * len(f.args)
        changed = rebuild(f, **{field: value})
        expected = print_formula(copy.deepcopy(changed))
        assert print_formula(changed) == expected
        assert parse_formula(expected) == changed
        assert (expected == print_formula(f)) == (changed == f)

    @pytest.mark.parametrize("shape", BUILT)
    def test_past_the_cap_raises_on_every_call(self, shape):
        deep = BUILT[shape](MAX_FORMULA_DEPTH - 1)
        for _ in range(2):
            with pytest.raises(FormulaError, match="nests deeper than"):
                print_formula(deep)

    def test_printed_part_still_counts_toward_the_cap(self):
        inner = BUILT["Not"](MAX_FORMULA_DEPTH - 2)
        assert print_formula(inner) == "!" * (MAX_FORMULA_DEPTH - 2) + "P(a)"
        outer = Not(inner)
        for _ in range(2):
            with pytest.raises(FormulaError, match="nests deeper than"):
                print_formula(outer)


# ====================================================================
# Structural helpers
# ====================================================================


class TestHelpers:
    def test_mentioned_constants(self):
        f = parse_formula("forall v. R(v, a) -> P(g(b))")
        assert mentioned_constants(f) == {"a", "b"}


# ====================================================================
# Evaluation: the strong three-valued tables, frozen
# ====================================================================

AND_TABLE = {
    (T, T): T, (T, F): F, (T, U): U,
    (F, T): F, (F, F): F, (F, U): F,
    (U, T): U, (U, F): F, (U, U): U,
}
OR_TABLE = {
    (T, T): T, (T, F): T, (T, U): T,
    (F, T): T, (F, F): F, (F, U): U,
    (U, T): T, (U, F): U, (U, U): U,
}
IMPLIES_TABLE = {
    (T, T): T, (T, F): F, (T, U): U,
    (F, T): T, (F, F): T, (F, U): T,
    (U, T): T, (U, F): U, (U, U): U,
}
NOT_TABLE = {T: F, F: T, U: U}


@pytest.fixture(scope="module")
def three_values():
    """A domain with one atom per truth value: P(t), P(f), P(u)."""
    sig = Signature("tv", ("t", "f", "u"), (("P", 1),), ())
    dom = make_domain(
        sig, ("t", "f", "u"), facts=[("P", ("t",), True), ("P", ("f",), False)]
    )
    atoms = {T: parse_formula("P(t)"), F: parse_formula("P(f)"), U: parse_formula("P(u)")}
    return dom, atoms


class TestEvaluate:
    def test_atom_lookup(self, three_values):
        dom, atoms = three_values
        assert evaluate(atoms[T], dom) is T
        assert evaluate(atoms[F], dom) is F
        assert evaluate(atoms[U], dom) is U
        assert not evaluate(atoms[U], dom).known

    def test_a_domain_is_required(self, three_values):
        _, atoms = three_values
        with pytest.raises(FormulaError, match="^domain must be a KnowledgeDomain, not NoneType$"):
            evaluate(atoms[T], None)

    @pytest.mark.parametrize(
        "text, msg",
        [
            ("Q(t)", "^unknown predicate 'Q'$"),
            ("forall t. P(t)", "^bound variable 't' collides with a declared symbol$"),
        ],
        ids=["undeclared predicate", "binder named like a constant"],
    )
    def test_what_check_formula_rejects_is_not_evaluated(self, three_values, text, msg):
        dom, _ = three_values
        with pytest.raises(FormulaError, match=msg):
            evaluate(parse_formula(text), dom)

    @pytest.mark.parametrize("left", [T, F, U])
    @pytest.mark.parametrize("right", [T, F, U])
    def test_connective_tables(self, three_values, left, right):
        dom, atoms = three_values
        l, r = atoms[left], atoms[right]
        assert evaluate(And(l, r), dom) is AND_TABLE[(left, right)]
        assert evaluate(Or(l, r), dom) is OR_TABLE[(left, right)]
        assert evaluate(Implies(l, r), dom) is IMPLIES_TABLE[(left, right)]

    @pytest.mark.parametrize("v", [T, F, U])
    def test_negation_table(self, three_values, v):
        dom, atoms = three_values
        assert evaluate(Not(atoms[v]), dom) is NOT_TABLE[v]

    def test_implication_is_negation_or(self, three_values):
        dom, atoms = three_values
        for left in (T, F, U):
            for right in (T, F, U):
                a = evaluate(Implies(atoms[left], atoms[right]), dom)
                b = evaluate(Or(Not(atoms[left]), atoms[right]), dom)
                assert a is b

    @given(st.lists(st.sampled_from([T, F, U]), min_size=1, max_size=4))
    def test_quantifiers_agree_with_explicit_folds(self, values):
        """forall is an and-fold, exists an or-fold, over the universe."""
        sig = Signature("s", (), (("P", 1),), ())
        universe = tuple(f"e{i}" for i in range(len(values)))
        dom = make_domain(
            sig,
            universe,
            facts=[
                ("P", (e,), v)
                for e, v in zip(universe, values)
                if v is not U
            ],
        )
        want_all = values[0]
        want_any = values[0]
        for v in values[1:]:
            want_all = AND_TABLE[(want_all, v)]
            want_any = OR_TABLE[(want_any, v)]
        forall = Forall("v", Atom("P", (Var("v"),)))
        exists = Exists("v", Atom("P", (Var("v"),)))
        assert evaluate(forall, dom) is want_all
        assert evaluate(exists, dom) is want_any

    def test_quantified_variables_range_over_unnamed_elements(self):
        # the extra universe element has no constant naming it, but the
        # quantifier still sees it
        sig = Signature("s", ("a",), (("P", 1),), ())
        dom = make_domain(
            sig, ("a", "ghost"), facts=[("P", ("a",), True), ("P", ("ghost",), False)]
        )
        assert evaluate(parse_formula("forall v. P(v)"), dom) is F
        assert evaluate(parse_formula("P(a)"), dom) is T

    def test_nested_quantifiers(self):
        sig = Signature("s", (), (("R", 2),), ())
        dom = make_domain(
            sig,
            ("e1", "e2"),
            facts=[
                ("R", ("e1", "e1"), True),
                ("R", ("e1", "e2"), True),
                ("R", ("e2", "e1"), False),
                ("R", ("e2", "e2"), True),
            ],
        )
        assert evaluate(parse_formula("exists v. forall w. R(v, w)"), dom) is T
        assert evaluate(parse_formula("forall v. exists w. !R(v, w)"), dom) is F

    def test_function_terms(self):
        sig = Signature("s", ("a",), (("P", 1),), (("g", 1),))
        dom = make_domain(
            sig,
            ("a", "e"),
            func_interp={("g", ("a",)): "e", ("g", ("e",)): "a"},
            facts=[("P", ("a",), True), ("P", ("e",), False)],
        )
        gga = FuncApp("g", (FuncApp("g", (Const("a"),)),))
        assert evaluate(Atom("P", (gga,)), dom) is T  # g(g(a)) = a
        assert evaluate(Atom("P", (FuncApp("g", (Const("a"),)),)), dom) is F
        # v and g(v) always land on different elements
        assert evaluate(parse_formula("forall v. P(v) -> !P(g(v))"), dom) is T
        assert evaluate(parse_formula("exists v. P(g(g(v))) & !P(v)"), dom) is F
        with pytest.raises(FormulaError, match="free variable"):
            evaluate(Atom("P", (FuncApp("g", (Var("v"),)),)), dom)


# ====================================================================
# Evaluation: the compiled evaluator against the recursive reference
# ====================================================================

ORACLE_SIG = Signature(
    "o", ("a", "b"), (("P", 1), ("Q", 1), ("R", 2), ("S", 3)), (("g", 1), ("h", 2))
)
BINDERS = ("x", "y")
BINARY = {"and": And, "or": Or, "implies": Implies}
QUANTIFIERS = {"forall": Forall, "exists": Exists}
# The shapes the compiler treats specially, drawn alongside random sentences.
ORACLE_SHAPES = [
    parse_formula(text)
    for text in (
        "forall x. P(x) & (exists x. Q(x))",  # shadowed binders
        "forall x. exists y. forall x. R(x, g(y))",
        "exists x. forall x. exists y. R(x, y)",
        "forall x. exists y. P(a) | Q(g(b))",  # vacuous binders
        "exists x. forall y. P(x) -> Q(h(x, b))",  # partly vacuous
        "forall x. (P(a) | !Q(g(b))) -> R(x, a)",  # ground part under a binder
        "exists x. !(P(x) & Q(x)) | (R(x, b) -> P(g(x)))",  # every connective
        # atoms over variables and constants, read from a predicate's row
        "forall x. R(x, x)",
        "exists x. R(a, x) & !R(x, a)",
        "forall x. exists y. R(x, a) -> S(y, b, x)",
        "exists x. forall y. S(x, x, a) | S(y, g(x), x)",
    )
]


@st.composite
def oracle_domains(draw):
    """ORACLE_SIG over 1 to 3 elements, every atom true, false or unknown."""

    universe = tuple(f"e{i}" for i in range(draw(st.integers(1, 3))))
    element = st.sampled_from(universe)
    value = st.sampled_from([T, F, U])
    return make_domain(
        ORACLE_SIG,
        universe,
        const_interp={c: draw(element) for c in ORACLE_SIG.constants},
        func_interp={
            (name, args): draw(element)
            for name, arity in ORACLE_SIG.functions
            for args in itertools.product(universe, repeat=arity)
        },
        facts=[
            (name, args, draw(value))
            for name, arity in ORACLE_SIG.predicates
            for args in itertools.product(universe, repeat=arity)
        ],
    )


def _oracle_term(draw, scope, budget):
    if budget and draw(st.integers(0, 3)) == 0:
        name, arity = draw(st.sampled_from(ORACLE_SIG.functions))
        return FuncApp(name, tuple(_oracle_term(draw, scope, budget - 1) for _ in range(arity)))
    # a bound variable is three times as likely as a constant, so that
    # most subformulas under a binder read it
    name = draw(st.sampled_from(ORACLE_SIG.constants + 3 * scope))
    return Var(name) if name in scope else Const(name)


def _oracle_sentence(draw, scope, budget):
    kinds = ["atom", "not", *BINARY, *QUANTIFIERS] if budget else ["atom"]
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        name, arity = draw(st.sampled_from(ORACLE_SIG.predicates))
        return Atom(name, tuple(_oracle_term(draw, scope, 1) for _ in range(arity)))
    if kind == "not":
        return Not(_oracle_sentence(draw, scope, budget - 1))
    if kind in BINARY:
        left = _oracle_sentence(draw, scope, budget - 1)
        return BINARY[kind](left, _oracle_sentence(draw, scope, budget - 1))
    var = draw(st.sampled_from(BINDERS))  # may shadow, and may go unused
    return QUANTIFIERS[kind](var, _oracle_sentence(draw, scope + (var,), budget - 1))


@st.composite
def oracle_sentences(draw):
    return _oracle_sentence(draw, (), 5)


def is_sentence(f):
    try:
        check_formula(f, ORACLE_SIG)
    except FormulaError:  # a free variable, bound further out
        return False
    return True


class TestCompiledAgainstReference:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(oracle_domains(), st.one_of(st.sampled_from(ORACLE_SHAPES), oracle_sentences()))
    def test_agrees_with_the_recursive_evaluator(self, dom, f):
        check_formula(f, ORACLE_SIG)
        # Every closed subformula is compared too, so that a wrong value
        # deep inside cannot hide behind a false conjunct or a true disjunct.
        for node, _, _, in_term in formula_nodes(f):
            if not in_term and is_sentence(node):
                assert evaluate(node, dom) is reference_evaluate(node, dom), node


# ====================================================================
# Formula generation
# ====================================================================


class TestGeneration:
    def test_ground_atom_formulas_order(self):
        sig = Signature("s", ("a", "b"), (("P", 1), ("R", 2)), ())
        got = [print_formula(f) for f in ground_atom_formulas(sig)]
        assert got == [
            "P(a)",
            "P(b)",
            "R(a, a)",
            "R(a, b)",
            "R(b, a)",
            "R(b, b)",
        ]

    def test_sentences_up_to_depth_one_is_just_ground_atoms(self):
        sig = Signature("s", ("a", "b"), (("P", 1),), ())
        assert sentences_up_to_depth(sig, 1) == ground_atom_formulas(sig)

    def test_sentences_depth_two_single_atom(self):
        # From the single atom P(a): itself, its negation, the three
        # binary self-combinations, and one quantified body each way
        # over terms {a, v0}.
        sig = Signature("s", ("a",), (("P", 1),), ())
        got = set(sentences_up_to_depth(sig, 2))
        p = parse_formula("P(a)")
        pv = Atom("P", (Var("v0"),))
        assert got == {
            p,
            Not(p),
            And(p, p),
            Or(p, p),
            Implies(p, p),
            Forall("v0", p),
            Exists("v0", p),
            Forall("v0", pv),
            Exists("v0", pv),
        }

    def test_every_generated_sentence_is_well_formed(self):
        sig = Signature("s", ("a", "b"), (("P", 1),), ())
        for f in sentences_up_to_depth(sig, 3):
            check_formula(f, sig)

    def test_generated_sentences_are_distinct(self):
        sig = Signature("s", ("a", "b"), (("P", 1),), ())
        out = sentences_up_to_depth(sig, 3)
        assert len(out) == len(set(out))
