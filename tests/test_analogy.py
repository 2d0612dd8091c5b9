"""Analogy maps: validation, translation, classification, combination."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from analogia import (
    AnalogyError,
    FormulaError,
    NoGuardMatch,
    Signature,
    TranslationError,
    TruthValue,
    UntranslatableSymbol,
    analogy_map,
    evaluate,
    make_domain,
    parse_formula,
    parse_session,
    print_formula,
)
from analogia.analogy import (
    AnalogyMap,
    AnalogyPiece,
    Guard,
    TranslationTables,
    _check_guards,
    _cut,
    augmented_report,
    check_injective_on,
    classify,
    close_under_combination,
    combine,
    straight_rule,
    translate,
)
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
    ground_atom_formulas,
)
from analogia.session import resolve_maps

from conftest import SESSIONS_DIR, benchmark_pool

T = TruthValue.TRUE
F = TruthValue.FALSE
U = TruthValue.UNKNOWN


# ====================================================================
# Guards
# ====================================================================


class TestGuard:
    def test_always_matches_anything(self):
        g = Guard.always()
        assert g.is_always
        assert g.matches(parse_formula("P(a) & Q(b)"))
        assert g.matches(parse_formula("forall v. P(v)"))

    def test_mentions_requires_nonempty_subset(self):
        g = Guard.mentions({"a", "b"})
        assert g.matches(parse_formula("P(a)"))
        assert g.matches(parse_formula("P(a) & Q(b)"))
        assert not g.matches(parse_formula("P(c)"))
        assert not g.matches(parse_formula("P(a) & Q(c)"))

    def test_constant_free_formula_matches_no_constant_guard(self):
        g = Guard.mentions({"a"})
        assert not g.matches(parse_formula("forall v. P(v)"))
        assert Guard.always().matches(parse_formula("forall v. P(v)"))

    def test_intersect(self):
        a = Guard.mentions({"a", "b"})
        b = Guard.mentions({"b", "c"})
        assert a.intersect(b) == Guard.mentions({"b"})
        assert Guard.always().intersect(a) == a
        assert a.intersect(Guard.always()) == a

    def test_overlaps(self):
        assert Guard.mentions({"a"}).overlaps(Guard.mentions({"a", "b"}))
        assert not Guard.mentions({"a"}).overlaps(Guard.mentions({"b"}))
        assert Guard.always().overlaps(Guard.mentions({"b"}))


# ====================================================================
# Map validation
# ====================================================================


@pytest.fixture
def small_source():
    sig = Signature("src", ("c1", "c2"), (("A", 1), ("B", 2)), (("h", 1),))
    return make_domain(
        sig,
        ("c1", "c2"),
        func_interp={("h", ("c1",)): "c2", ("h", ("c2",)): "c1"},
        facts=[("A", ("c1",), True)],
    )


@pytest.fixture
def small_target():
    sig = Signature("tgt", ("d1", "d2"), (("Aa", 1), ("Ba", 2)), (("ha", 1),))
    return make_domain(
        sig,
        ("d1", "d2"),
        func_interp={("ha", ("d1",)): "d2", ("ha", ("d2",)): "d1"},
        facts=[("Aa", ("d1",), True)],
    )


FULL_MAP = {"A": "Aa", "B": "Ba", "h": "ha", "c1": "d1", "c2": "d2"}


class TestAnalogyMapValidation:
    def test_valid_one_piece_map(self, small_source, small_target):
        amap = analogy_map("ok", small_source, small_target, FULL_MAP)
        assert amap.name == "ok"
        assert len(amap.pieces) == 1

    def test_needs_a_name(self, small_source, small_target):
        with pytest.raises(AnalogyError, match="needs a name"):
            AnalogyMap("", small_source, small_target,
                       (AnalogyPiece(Guard.always(), FULL_MAP),))

    def test_needs_at_least_one_piece(self, small_source, small_target):
        with pytest.raises(AnalogyError, match="no pieces"):
            AnalogyMap("empty", small_source, small_target, ())

    def test_single_piece_must_be_unguarded(self, small_source, small_target):
        with pytest.raises(AnalogyError, match="single piece must be unguarded"):
            AnalogyMap(
                "guarded",
                small_source,
                small_target,
                (AnalogyPiece(Guard.mentions({"c1"}), FULL_MAP),),
            )

    def test_multi_piece_needs_constant_guards(self, small_source, small_target):
        with pytest.raises(AnalogyError, match="needs a constant guard"):
            AnalogyMap(
                "loose",
                small_source,
                small_target,
                (
                    AnalogyPiece(Guard.always(), FULL_MAP),
                    AnalogyPiece(Guard.mentions({"c2"}), FULL_MAP),
                ),
            )

    def test_guard_constants_must_be_source_constants(self, small_source, small_target):
        with pytest.raises(AnalogyError, match="not a source constant"):
            AnalogyMap(
                "alien",
                small_source,
                small_target,
                (
                    AnalogyPiece(Guard.mentions({"c1"}), FULL_MAP),
                    AnalogyPiece(Guard.mentions({"zz"}), FULL_MAP),
                ),
            )

    def test_overlapping_guards_rejected(self, small_source, small_target):
        with pytest.raises(AnalogyError, match="overlapping guards"):
            AnalogyMap(
                "clash",
                small_source,
                small_target,
                (
                    AnalogyPiece(Guard.mentions({"c1", "c2"}), FULL_MAP),
                    AnalogyPiece(Guard.mentions({"c2"}), FULL_MAP),
                ),
            )

    @pytest.mark.parametrize(
        "mapping, msg",
        [
            ({"Zz": "Aa"}, "not a source symbol"),
            ({"A": "Zz"}, "not a target symbol"),
            ({"A": "d1"}, "is a predicate but"),
            ({"c1": "Aa"}, "is a constant but"),
            ({"B": "Aa"}, "arity mismatch"),
            ({"c1": "d1", "c2": "d1"}, "not injective"),
        ],
    )
    def test_bad_mappings(self, small_source, small_target, mapping, msg):
        with pytest.raises(AnalogyError, match=msg):
            analogy_map("bad", small_source, small_target, mapping)

    def test_injectivity_is_per_piece(self, small_source, small_target):
        # both pieces target d1, which is fine because only one piece
        # ever applies to a given formula
        amap = AnalogyMap(
            "split",
            small_source,
            small_target,
            (
                AnalogyPiece(Guard.mentions({"c1"}), {"A": "Aa", "c1": "d1"}),
                AnalogyPiece(Guard.mentions({"c2"}), {"A": "Aa", "c2": "d1"}),
            ),
        )
        assert len(amap.pieces) == 2

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda s, t: analogy_map("m", s, t, 5),
                "^mapping must be a mapping of names, not int$",
                id="mapping",
            ),
            pytest.param(
                lambda s, t: analogy_map("m", s, t, {"A": ["Aa"]}),
                r"^mapping must map names to names, not 'A' -> \['Aa'\]$",
                id="mapping-value",
            ),
            pytest.param(
                lambda s, t: analogy_map("m", None, t, FULL_MAP),
                "^source must be a KnowledgeDomain, not NoneType$",
                id="source",
            ),
            pytest.param(
                lambda s, t: AnalogyMap("m", s, t, (AnalogyPiece(None, FULL_MAP),)),
                "^guard must be a Guard, not NoneType$",
                id="guard",
            ),
            pytest.param(
                lambda s, t: Guard.mentions(5),
                "^guard constants must be an iterable of names, not int$",
                id="constants",
            ),
            pytest.param(
                lambda s, t: Guard.mentions("c1"),
                "^guard constants must be an iterable of names, not str$",
                id="constants-str",
            ),
            pytest.param(
                lambda s, t: Guard("c1"),
                "^guard constants must be an iterable of names, not str$",
                id="guard-str",
            ),
            pytest.param(
                lambda s, t: Guard.mentions([1]),
                "^guard constants must hold names, not 1$",
                id="constant",
            ),
            pytest.param(
                lambda s, t: AnalogyMap("m", s, t, 5),
                "^pieces must be an iterable of pieces, not int$",
                id="pieces",
            ),
            pytest.param(
                lambda s, t: AnalogyMap("m", s, t, ("p",)),
                "^pieces must hold AnalogyPiece values, not 'p'$",
                id="piece",
            ),
            pytest.param(
                lambda s, t: analogy_map(5, s, t, FULL_MAP),
                "^analogy needs a name, not 5$",
                id="name",
            ),
        ],
    )
    def test_malformed_argument_is_named(self, small_source, small_target, build, message):
        with pytest.raises(AnalogyError, match=message):
            build(small_source, small_target)


# Junk for the constructors' arguments: scalars of each kind, nested
# containers of them, and near-valid values (symbol names of the two
# domains below, real guards, pieces and domains) with junk inside.
_NAMES = st.sampled_from(["A", "Aa", "c1", "c2", "d1", "zz", ""])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), _NAMES, st.text(max_size=3)
)
_JUNK = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.tuples(inner, inner)
        | st.dictionaries(_NAMES | st.integers(-2, 3) | st.none(), inner, max_size=3)
    ),
    max_leaves=8,
)
_SRC = make_domain(Signature("src", ("c1", "c2"), (("A", 1),), ()), ("c1", "c2"))
_TGT = make_domain(Signature("tgt", ("d1", "d2"), (("Aa", 1),), ()), ("d1", "d2"))
_DOMAINS = st.sampled_from([_SRC, _TGT]) | _JUNK
_MAPPINGS = st.one_of(
    _JUNK,
    st.dictionaries(_NAMES | _SCALARS, _NAMES | _JUNK, max_size=3),
    st.dictionaries(st.sampled_from(["A", "c1"]), _JUNK, min_size=1, max_size=2),
)
_CONSTANTS = _JUNK | st.lists(_NAMES | _SCALARS, max_size=3) | st.frozensets(_NAMES, max_size=2)
_GUARDS = st.sampled_from([Guard.always(), Guard.mentions({"c1"}), Guard.mentions({"zz"})]) | _JUNK
_PIECES = _JUNK | st.lists(
    st.sampled_from(
        [AnalogyPiece(Guard.always(), {"A": "Aa"}), AnalogyPiece(Guard.mentions({"c2"}), {})]
    )
    | _JUNK,
    max_size=3,
)
_PIECE = (AnalogyPiece(Guard.always(), {"A": "Aa", "c1": "d1"}),)


def _call_with_junk(data, build, valid, junk, errors=AnalogyError):
    """build(*valid) with one or two arguments swapped for a draw from
    junk; it must return or raise one of errors."""

    args = list(valid)
    for i in data.draw(st.lists(st.integers(0, len(args) - 1), min_size=1, max_size=2)):
        args[i] = data.draw(junk[i])
    try:
        build(*args)
    except errors:
        pass


_WORKING = (parse_formula("A(c1)"), parse_formula("A(c2)"))
_MAP = analogy_map("m", _SRC, _TGT, {"A": "Aa", "c1": "d1", "c2": "d2"})
_ANALOGIES = _JUNK | st.lists(st.just(_MAP) | _JUNK, max_size=3)


class TestNoBareErrors:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_analogy_map(self, data):
        valid = ("m", _SRC, _TGT, {"A": "Aa"})
        _call_with_junk(data, analogy_map, valid, [_JUNK, _DOMAINS, _DOMAINS, _MAPPINGS])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_analogy_map_class(self, data):
        valid = ("m", _SRC, _TGT, _PIECE)
        _call_with_junk(data, AnalogyMap, valid, [_JUNK, _DOMAINS, _DOMAINS, _PIECES])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_analogy_piece(self, data):
        valid = (Guard.always(), {"A": "Aa"})
        _call_with_junk(data, AnalogyPiece, valid, [_GUARDS, _MAPPINGS])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_guard(self, data):
        _call_with_junk(data, Guard.mentions, ({"c1"},), [_CONSTANTS])
        _call_with_junk(data, Guard, ({"c1"},), [_CONSTANTS])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_translation_tables(self, data):
        # Swapped domains make the working set ill-formed: a FormulaError.
        errors = (AnalogyError, FormulaError)
        junk = [_DOMAINS, _DOMAINS, _JUNK]
        _call_with_junk(data, TranslationTables, (_SRC, _TGT, _WORKING), junk, errors)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_translation_tables_methods(self, data):
        tables = TranslationTables(_SRC, _TGT, _WORKING)
        query = parse_formula("Aa(d1)")
        methods = [tables.classify, tables.support, tables.augmented_report, tables.preimages]
        _call_with_junk(data, data.draw(st.sampled_from(methods)), (_MAP,), [_JUNK])
        methods = [tables.close, lambda analogies: tables.conjectures(query, analogies)]
        _call_with_junk(data, data.draw(st.sampled_from(methods)), ((_MAP,),), [_ANALOGIES])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda t: TranslationTables(_SRC, _TGT, 5), "formulas must be iterable, not int"),
            (
                lambda t: TranslationTables(None, _TGT, ()),
                "source must be a KnowledgeDomain, not NoneType",
            ),
            (lambda t: t.classify(None), "amap must be an AnalogyMap, not NoneType"),
            (lambda t: t.support(None), "amap must be an AnalogyMap, not NoneType"),
            (lambda t: t.augmented_report(None), "amap must be an AnalogyMap, not NoneType"),
            (lambda t: t.preimages(None), "amap must be an AnalogyMap, not NoneType"),
            (lambda t: t.close(5), "analogies must be iterable, not int"),
            (
                lambda t: t.conjectures(parse_formula("Aa(d1)"), 5),
                "analogies must be iterable, not int",
            ),
            (
                lambda t: t.classify(analogy_map("m", _SRC, _SRC, {"A": "A"})),
                "analogy 'm' runs to a different target domain",
            ),
        ],
        ids=[
            "formulas",
            "source",
            "classify",
            "support",
            "augmented_report",
            "preimages",
            "close",
            "conjectures",
            "other target",
        ],
    )
    def test_tables_name_the_argument(self, call, message):
        with pytest.raises(AnalogyError, match=f"^{message}$"):
            call(TranslationTables(_SRC, _TGT, _WORKING))


# ====================================================================
# Translation
# ====================================================================


class TestTranslate:
    def test_renames_all_symbol_kinds(self, small_source, small_target):
        amap = analogy_map("full", small_source, small_target, FULL_MAP)
        f = parse_formula("B(c1, h(c2)) -> !A(c1)")
        assert print_formula(translate(amap, f)) == "Ba(d1, ha(d2)) -> !Aa(d1)"

    def test_variables_pass_through(self, small_source, small_target):
        amap = analogy_map("full", small_source, small_target, FULL_MAP)
        f = parse_formula("forall v. A(v) | B(v, c1)")
        assert print_formula(translate(amap, f)) == "forall v. Aa(v) | Ba(v, d1)"

    def test_binder_colliding_with_target_symbol_is_primed(self, small_source):
        sig = Signature("tgt2", ("v",), (("Aa", 1),), ())
        tgt = make_domain(sig, ("v",))
        amap = analogy_map("clash", small_source, tgt, {"A": "Aa"})
        f = parse_formula("forall v. A(v)")
        assert print_formula(translate(amap, f)) == "forall v'. Aa(v')"

    def test_priming_avoids_other_binders(self, small_source):
        sig = Signature("tgt3", ("v",), (("Aa", 1), ("Ba", 2)), ())
        tgt = make_domain(sig, ("v",))
        amap = analogy_map("clash", small_source, tgt, {"B": "Ba"})
        # v must be renamed but v' is already a binder in the formula
        f = parse_formula("forall v. forall v'. B(v, v')")
        out = translate(amap, f)
        assert print_formula(out) == "forall v''. forall v'. Ba(v'', v')"

    def test_missing_symbol_raises(self, small_source, small_target):
        amap = analogy_map("partial", small_source, small_target, {"A": "Aa"})
        with pytest.raises(UntranslatableSymbol):
            translate(amap, parse_formula("A(c1)"))
        assert print_formula(translate(amap, parse_formula("forall v. A(v)"))) == "forall v. Aa(v)"
        with pytest.raises(TranslationError):
            translate(amap, parse_formula("B(c1, c1)"))

    def test_first_matching_guard_wins(self, small_source, small_target):
        amap = AnalogyMap(
            "piecey",
            small_source,
            small_target,
            (
                AnalogyPiece(Guard.mentions({"c1"}), {"A": "Aa", "c1": "d1"}),
                AnalogyPiece(Guard.mentions({"c2"}), {"A": "Aa", "c2": "d2"}),
            ),
        )
        assert print_formula(translate(amap, parse_formula("A(c1)"))) == "Aa(d1)"
        assert print_formula(translate(amap, parse_formula("A(c2)"))) == "Aa(d2)"

    def test_formula_straddling_guards_has_no_piece(self, small_source, small_target):
        amap = AnalogyMap(
            "piecey",
            small_source,
            small_target,
            (
                AnalogyPiece(Guard.mentions({"c1"}), FULL_MAP),
                AnalogyPiece(Guard.mentions({"c2"}), FULL_MAP),
            ),
        )
        with pytest.raises(NoGuardMatch):
            translate(amap, parse_formula("B(c1, c2)"))
        with pytest.raises(NoGuardMatch):
            translate(amap, parse_formula("forall v. A(v)"))

    def test_translation_preserves_shape(self, small_source, small_target):
        amap = analogy_map("full", small_source, small_target, FULL_MAP)
        f = parse_formula("exists v. (A(v) -> B(v, c1)) & !A(c2)")
        out = translate(amap, f)
        assert type(out) is type(f)
        assert print_formula(out) == "exists v. (Aa(v) -> Ba(v, d1)) & !Aa(d2)"


# ====================================================================
# Classification: one test per cell of the value table
# ====================================================================


def _single_atom_domains(vs, vt):
    src_sig = Signature("s", ("c",), (("A", 1),), ())
    tgt_sig = Signature("t", ("d",), (("Aa", 1),), ())
    src = make_domain(src_sig, ("c",), facts=[("A", ("c",), vs)])
    tgt = make_domain(tgt_sig, ("d",), facts=[("Aa", ("d",), vt)])
    return analogy_map("m", src, tgt, {"A": "Aa", "c": "d"})


class TestClassifyTable:
    @pytest.mark.parametrize(
        "vs, vt, bucket",
        [
            (T, T, "positive"),
            (F, F, "positive"),
            (T, F, "negative"),
            (F, T, "negative"),
            (T, U, "open"),
            (F, U, "open"),
            (U, T, "not_applicable"),
            (U, F, "not_applicable"),
            (U, U, "not_applicable"),
        ],
        ids=lambda v: str(v) if isinstance(v, str) else v.value,
    )
    def test_value_pair_lands_in_bucket(self, vs, vt, bucket):
        amap = _single_atom_domains(vs, vt)
        f = parse_formula("A(c)")
        report = classify(amap, [f])
        for name in ("positive", "negative", "open", "not_applicable"):
            got = getattr(report, name)
            assert (f in got) == (name == bucket)

    def test_open_formulas_carry_their_source_value_as_conjecture(self):
        amap = _single_atom_domains(F, U)
        f = parse_formula("A(c)")
        report = classify(amap, [f])
        assert report.conjectures == {f: F}

    def test_conjecture_keys_are_exactly_the_open_formulas(self):
        amap = _single_atom_domains(T, U)
        f = parse_formula("A(c)")
        report = classify(amap, [f])
        assert set(report.conjectures) == set(report.open)


class TestClassify:
    def test_rivals_worked_example(self, first_map, working_atoms):
        report = classify(first_map, working_atoms)
        as_text = lambda fs: [print_formula(f) for f in fs]
        assert as_text(report.positive) == ["P(x)"]
        assert as_text(report.negative) == ["P(x')"]
        assert as_text(report.open) == ["Q(x)", "Q(x')"]
        assert report.not_applicable == ()
        assert report.untranslatable == ()

    def test_mixed_map_dominates(self, mixed_map, working_atoms):
        report = classify(mixed_map, working_atoms)
        assert [print_formula(f) for f in report.positive] == ["P(x)", "P(x')"]
        assert report.negative == ()

    def test_untranslatable_formulas_sit_outside_the_partition(
        self, small_source, small_target
    ):
        amap = analogy_map("partial", small_source, small_target,
                           {"A": "Aa", "c1": "d1", "c2": "d2"})
        fs = [parse_formula("A(c1)"), parse_formula("B(c1, c2)")]
        report = classify(amap, fs)
        assert [print_formula(f) for f in report.untranslatable] == ["B(c1, c2)"]
        assert len(report.positive) + len(report.negative) + len(report.open) + len(
            report.not_applicable
        ) == 1
        with pytest.raises(TranslationError):
            translate(amap, parse_formula("B(c1, c2)"))
        rep = augmented_report(amap, fs)
        pairs = rep.positive_pairs + rep.negative_source_true + rep.negative_source_false
        paired = [entry[0] for entry in pairs + rep.plausible]
        assert paired == [parse_formula("A(c1)")]

    def test_working_formulas_must_fit_the_source_signature(
        self, small_source, small_target
    ):
        amap = analogy_map("full", small_source, small_target, FULL_MAP)
        with pytest.raises(FormulaError):
            classify(amap, [parse_formula("Aa(d1)")])

    def test_bucket_order_follows_the_working_set(self, first_map, working_atoms):
        report = classify(first_map, list(reversed(working_atoms)))
        assert [print_formula(f) for f in report.open] == ["Q(x')", "Q(x)"]

    def test_json_dict_shape(self, first_map, working_atoms):
        d = classify(first_map, working_atoms).to_json_dict()
        assert list(d) == [
            "analogy",
            "formulas",
            "positive",
            "negative",
            "open",
            "not_applicable",
            "untranslatable",
            "conjectures",
        ]
        assert d["analogy"] == "first"
        assert d["conjectures"] == {"Q(x)": "true", "Q(x')": "true"}

    @given(
        src_vals=st.tuples(*[st.sampled_from([T, F, U])] * 4),
        tgt_vals=st.tuples(*[st.sampled_from([T, F, U])] * 4),
    )
    @settings(max_examples=120)
    def test_partition_property(self, src_vals, tgt_vals):
        """Translatable formulas land in exactly one bucket."""
        src_sig = Signature("s", ("c1", "c2"), (("A", 1), ("B", 1)), ())
        tgt_sig = Signature("t", ("d1", "d2"), (("Aa", 1), ("Bb", 1)), ())
        src_atoms = [("A", "c1"), ("A", "c2"), ("B", "c1"), ("B", "c2")]
        tgt_atoms = [("Aa", "d1"), ("Aa", "d2"), ("Bb", "d1"), ("Bb", "d2")]
        src = make_domain(
            src_sig, ("c1", "c2"),
            facts=[(p, (c,), v) for (p, c), v in zip(src_atoms, src_vals) if v is not U],
        )
        tgt = make_domain(
            tgt_sig, ("d1", "d2"),
            facts=[(p, (c,), v) for (p, c), v in zip(tgt_atoms, tgt_vals) if v is not U],
        )
        amap = analogy_map(
            "m", src, tgt, {"A": "Aa", "B": "Bb", "c1": "d1", "c2": "d2"}
        )
        working = ground_atom_formulas(src_sig) + [
            parse_formula("!A(c1)"),
            parse_formula("A(c1) & B(c2)"),
            parse_formula("forall v. A(v) -> B(v)"),
        ]
        report = classify(amap, working)
        buckets = (report.positive, report.negative, report.open, report.not_applicable)
        for f in working:
            assert sum(f in b for b in buckets) + (f in report.untranslatable) == 1
        assert set(report.conjectures) == set(report.open)
        for f in report.open:
            assert report.conjectures[f] is evaluate(f, src)
            assert not evaluate(translate(amap, f), tgt).known
        plausible = augmented_report(amap, working).plausible
        assert plausible == tuple(
            (f, translate(amap, f), report.conjectures[f]) for f in report.open
        )


# ====================================================================
# Injectivity on a working set
# ====================================================================


class TestCheckInjectiveOn:
    def test_collision_across_pieces_is_caught(self, small_source, small_target):
        amap = AnalogyMap(
            "folded",
            small_source,
            small_target,
            (
                AnalogyPiece(Guard.mentions({"c1"}), {"A": "Aa", "c1": "d1"}),
                AnalogyPiece(Guard.mentions({"c2"}), {"A": "Aa", "c2": "d1"}),
            ),
        )
        fs = [parse_formula("A(c1)"), parse_formula("A(c2)")]
        with pytest.raises(AnalogyError, match="not injective on the working set"):
            check_injective_on(amap, fs)

    def test_repeats_of_one_formula_are_not_a_collision(
        self, small_source, small_target
    ):
        amap = analogy_map("full", small_source, small_target, FULL_MAP)
        f = parse_formula("A(c1)")
        check_injective_on(amap, [f, f, f])

    def test_untranslatable_formulas_are_ignored(self, small_source, small_target):
        amap = analogy_map("partial", small_source, small_target, {"A": "Aa", "c1": "d1"})
        check_injective_on(
            amap, [parse_formula("A(c1)"), parse_formula("B(c1, c2)")]
        )


# ====================================================================
# Combination
# ====================================================================


class TestCombine:
    def test_merges_along_a_constant_split(self, first_map, second_map):
        combo = combine(
            first_map,
            second_map,
            Guard.mentions({"x"}),
            Guard.mentions({"x'"}),
        )
        assert combo.name == "first+second"
        assert print_formula(translate(combo, parse_formula("P(x)"))) == "Pa(y)"
        assert print_formula(translate(combo, parse_formula("P(x')"))) == "Pb(y')"

    def test_guards_must_be_constant_guards(self, first_map, second_map):
        with pytest.raises(AnalogyError, match="must name constants"):
            combine(first_map, second_map, Guard.always(), Guard.mentions({"x'"}))

    def test_guards_must_not_overlap(self, first_map, second_map):
        with pytest.raises(AnalogyError, match="guards overlap"):
            combine(first_map, second_map, Guard.mentions({"x"}), Guard.mentions({"x"}))

    def test_domains_must_agree(self, first_map, small_source, small_target):
        other = analogy_map("other", small_source, small_target, FULL_MAP)
        with pytest.raises(AnalogyError, match="same domains"):
            combine(first_map, other, Guard.mentions({"x"}), Guard.mentions({"x'"}))

    def test_dead_intersections_are_dropped(self, rivals_source, rivals_target):
        piecewise = AnalogyMap(
            "halved",
            rivals_source,
            rivals_target,
            (
                AnalogyPiece(Guard.mentions({"x"}), {"P": "Pa", "x": "y"}),
                AnalogyPiece(Guard.mentions({"x'"}), {"P": "Pb", "x'": "y'"}),
            ),
        )
        flat = analogy_map(
            "flat", rivals_source, rivals_target,
            {"P": "Pb", "Q": "Qb", "x": "y", "x'": "y'"},
        )
        combo = combine(
            piecewise, flat, Guard.mentions({"x"}), Guard.mentions({"x'"})
        )
        # piecewise's x'-piece dies inside the x-guard; two pieces remain
        assert len(combo.pieces) == 2


    @pytest.mark.parametrize(
        "parents, guards, name, kept",
        [
            # two piecewise parents, and no piece meets either outer guard
            (("mixed_map", "mixed_map"), ({"zz"}, {"zy"}), None, ()),
            # one piece survives, and it carries a constant guard
            (("first_map", "mixed_map"), ({"x"}, {"zz"}), None, ({"x"},)),
            (("first_map", "first_map"), ({"x"}, {"x'", "zz"}), None, ({"x"}, {"x'", "zz"})),
            (("first_map", "first_map"), ({"x"}, {"x'"}), 5, ({"x"}, {"x'"})),
        ],
        ids=["no-pieces", "one-guarded-piece", "foreign-constant", "bad-name"],
    )
    def test_errors_match_the_public_constructor(self, request, parents, guards, name, kept):
        first, second = (request.getfixturevalue(p) for p in parents)
        # the pieces combine keeps, each with first's symbol map
        pieces = tuple(
            AnalogyPiece(Guard(frozenset(g)), first.pieces[0].mapping) for g in kept
        )
        with pytest.raises(AnalogyError) as direct:
            AnalogyMap(name or f"{first.name}+{second.name}", first.source, first.target, pieces)
        with pytest.raises(AnalogyError) as combined:
            combine(first, second, Guard.mentions(guards[0]), Guard.mentions(guards[1]), name)
        assert str(combined.value) == str(direct.value)


def generated_closure_session(seed: int) -> str:
    """A closure session over atoms with three flat maps and one
    piecewise map, drawn from seed."""

    rng = random.Random(seed)
    src = [f"s{i}" for i in range(5)]
    tgt = [f"t{i}" for i in range(5)]

    def facts(preds, objects):
        lines = []
        for pred, arity in preds:
            for args in ([(o,) for o in objects] if arity == 1 else
                         [(a, b) for a in objects for b in objects]):
                value = rng.choice(("true", "false", None))
                if value:
                    lines.append(f"  fact {pred}({', '.join(args)}) = {value};")
        return lines

    def symbol_map(objects):
        unary = rng.sample(("A", "B", "C"), 2)
        perm = rng.sample(tgt, len(tgt))
        pairs = [("P", unary[0]), ("Q", unary[1]), ("R", rng.choice(("D", "E")))]
        return pairs + [(o, perm[int(o[1:])]) for o in objects]

    src_preds = (("P", 1), ("Q", 1), ("R", 2))
    tgt_preds = (("A", 1), ("B", 1), ("C", 1), ("D", 2), ("E", 2))
    lines = []
    for name, objects, preds in (("S", src, src_preds), ("T", tgt, tgt_preds)):
        lines.append(f"domain {name} {{")
        lines.append(f"  objects: {', '.join(objects)};")
        lines += [f"  pred {p}/{a};" for p, a in preds]
        lines += facts(preds, objects)
        lines.append("}")
    lines += ["source S;", "target T;", "closure on;", "workingset atoms;"]
    for k in range(3):
        lines.append(f"analogy flat{k} from S to T {{")
        lines += [f"  map {s} -> {t};" for s, t in symbol_map(src)]
        lines.append("}")
    lines.append("analogy halves from S to T {")
    for guard in (src[:2], src[2:]):
        lines.append(f"  piece when mentions {{{', '.join(guard)}}} {{")
        lines += [f"    map {s} -> {t};" for s, t in symbol_map(guard)]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def rebuilt_combination(first, second, c, constants):
    """first+second@c made through the public, fully checking constructors."""

    pieces = []
    for outer, parent in ((frozenset({c}), first), (frozenset(constants) - {c}, second)):
        for piece in parent.pieces:
            guard = outer if piece.guard.is_always else outer & piece.guard.constants
            if guard:
                pieces.append(AnalogyPiece(Guard(guard), dict(piece.mapping)))
    return AnalogyMap(f"{first.name}+{second.name}@{c}", first.source, first.target, tuple(pieces))


# Two piecewise maps whose guards miss c, so their cut on c's side is
# empty, beside a flat map: candidates of one, two and three pieces.
GUARDS_MISS_C = """
domain S {
  objects: a, b, c;
  pred P/1;
  fact P(a) = true; fact P(b) = false; fact P(c) = true;
}
domain T {
  objects: x, y, z;
  pred Q/1; pred R/1;
  fact Q(x) = true; fact R(y) = true; fact Q(z) = true;
}
source S;
target T;
closure on;
workingset atoms;
analogy flat from S to T { map P -> Q; map a -> x; map b -> y; map c -> z; }
analogy split from S to T {
  piece when mentions {a} { map P -> R; map a -> x; }
  piece when mentions {b} { map P -> Q; map b -> y; }
}
analogy swap from S to T {
  piece when mentions {a} { map P -> Q; map a -> y; }
  piece when mentions {b} { map P -> R; map b -> x; }
}
"""

CLOSURE_SESSIONS = {
    "closure.ana": (SESSIONS_DIR / "closure.ana").read_text(),
    "combi.ana": (SESSIONS_DIR / "combi.ana").read_text(),
    "generated-1": generated_closure_session(1),
    "generated-2": generated_closure_session(2),
    "guards-miss-c": GUARDS_MISS_C,
}


class TestClosureBuildsCheckedMaps:
    """close builds its maps without re-running the constructors' checks;
    the same maps, and only those, pass those checks."""

    @pytest.mark.parametrize("text", CLOSURE_SESSIONS.values(), ids=CLOSURE_SESSIONS.keys())
    def test_every_closure_map_equals_its_checked_rebuild(self, text):
        session = parse_session(text)
        declared, working = session.analogies, session.working_set
        constants = session.tables.source.signature.constants
        splits = constants if len(constants) > 1 else ()  # c and a nonempty rest
        expected = []
        for a in declared:
            for b in declared:
                if a.name == b.name:
                    continue
                for c in splits:
                    try:
                        rebuilt = rebuilt_combination(a, b, c, constants)
                        check_injective_on(rebuilt, working)
                    except AnalogyError:
                        continue
                    expected.append(rebuilt)
        closed = close_under_combination(declared, working)
        assert closed[: len(declared)] == declared
        assert [m.name for m in closed[len(declared):]] == [m.name for m in expected]
        assert closed[len(declared):] == tuple(expected)
        assert expected


PIECE_COUNT_SESSIONS = {
    **{p.name: p.read_text() for p in sorted(SESSIONS_DIR.glob("*.ana"))},
    **benchmark_pool(4),
    "guards-miss-c": GUARDS_MISS_C,
}


@pytest.mark.parametrize("text", PIECE_COUNT_SESSIONS.values(), ids=PIECE_COUNT_SESSIONS)
def test_close_needs_only_the_piece_count(text):
    """close keeps a candidate when at least two of its cut pieces
    survive; combine's full guard check decides every candidate alike."""

    session = parse_session(text)
    declared = session.analogies
    constants = frozenset(session.source.signature.constants)
    counts = set()
    for a in declared:
        for b in declared:
            if a.name == b.name:
                continue
            for c in constants if len(constants) > 1 else ():
                pieces = _cut(Guard.mentions({c}), a) + _cut(Guard.mentions(constants - {c}), b)
                try:
                    _check_guards("candidate", pieces, constants)
                    checked = True
                except AnalogyError:
                    checked = False
                assert (len(pieces) >= 2) == checked
                counts.add(len(pieces))
    if text is GUARDS_MISS_C:
        assert counts == {1, 2, 3}


class TestCloseUnderCombination:
    def test_generates_the_four_ordered_splits(
        self, first_map, second_map, working_atoms
    ):
        out = close_under_combination((first_map, second_map), working_atoms)
        assert [a.name for a in out] == [
            "first",
            "second",
            "first+second@x",
            "first+second@x'",
            "second+first@x",
            "second+first@x'",
        ]

    def test_generated_maps_classify_as_expected(
        self, first_map, second_map, working_atoms
    ):
        out = close_under_combination((first_map, second_map), working_atoms)
        by_name = {a.name: a for a in out}
        good = classify(by_name["first+second@x"], working_atoms)
        assert [print_formula(f) for f in good.positive] == ["P(x)", "P(x')"]
        bad = classify(by_name["second+first@x"], working_atoms)
        assert [print_formula(f) for f in bad.negative] == ["P(x)", "P(x')"]

    def test_a_given_name_is_not_generated_again(
        self, rivals_source, rivals_target, first_map, second_map, working_atoms
    ):
        given = analogy_map(
            "first+second@x", rivals_source, rivals_target,
            {"P": "Pa", "Q": "Qb", "x": "y", "x'": "y'"},
        )
        out = close_under_combination((first_map, second_map, given), working_atoms)
        names = [a.name for a in out]
        assert names.count("first+second@x") == 1
        assert out[names.index("first+second@x")] is given

    def test_empty_input(self):
        assert close_under_combination((), ()) == ()

    def test_single_analogy_has_no_pairs(self, first_map, working_atoms):
        out = close_under_combination((first_map,), working_atoms)
        assert [a.name for a in out] == ["first"]

    def test_single_constant_source_generates_nothing(self):
        src = make_domain(Signature("s", ("c",), (("A", 1),), ()), ("c",))
        tgt = make_domain(
            Signature("t", ("d",), (("Aa", 1), ("Ab", 1)), ()), ("d",)
        )
        one = analogy_map("one", src, tgt, {"A": "Aa", "c": "d"})
        two = analogy_map("two", src, tgt, {"A": "Ab", "c": "d"})
        out = close_under_combination((one, two), ground_atom_formulas(src.signature))
        assert [a.name for a in out] == ["one", "two"]


# ====================================================================
# Augmented report and the straight rule
# ====================================================================


class TestAugmentedReport:
    def test_rivals_first_map(self, first_map, working_atoms):
        rep = augmented_report(first_map, working_atoms)
        pairs = lambda entries: [
            (print_formula(a), print_formula(b)) for a, b in entries
        ]
        assert pairs(rep.positive_pairs) == [("P(x)", "Pa(y)")]
        assert pairs(rep.negative_source_true) == [("P(x')", "Pa(y')")]
        assert rep.negative_source_false == ()
        assert [
            (print_formula(a), print_formula(b), v) for a, b, v in rep.plausible
        ] == [("Q(x)", "Qa(y)", T), ("Q(x')", "Qa(y')", T)]

    def test_negative_source_false_direction(self):
        amap = _single_atom_domains(F, T)
        rep = augmented_report(amap, [parse_formula("A(c)")])
        assert rep.negative_source_true == ()
        assert len(rep.negative_source_false) == 1

    def test_json_dict_shape(self, first_map, working_atoms):
        d = augmented_report(first_map, working_atoms).to_json_dict()
        assert list(d) == [
            "analogy",
            "positive_pairs",
            "negative_source_true",
            "negative_source_false",
            "plausible",
        ]
        assert d["positive_pairs"] == [{"source": "P(x)", "target": "Pa(y)"}]
        assert d["plausible"][0] == {
            "source": "Q(x)",
            "target": "Qa(y)",
            "conjecture": "true",
        }


_FORMULA_NODES = (Var, Const, FuncApp, Atom, Not, And, Or, Implies, Forall, Exists)


class TestSupportPassReadsByPosition:
    """With the tables warm, classify and augmented_report read each
    entry's values and image by position: no formula is hashed except
    to key conjectures by the open sentences."""

    def test_no_formula_hash_beyond_the_conjecture_keys(self, monkeypatch):
        session = parse_session((SESSIONS_DIR / "closure.ana").read_text())
        maps = resolve_maps(session)
        tables = session.tables
        reports = [tables.classify(a) for a in maps]
        for a in maps:
            tables.augmented_report(a)
        hashed = []
        for cls in _FORMULA_NODES:
            def counted(node, node_hash=cls.__hash__):
                hashed.append(node)
                return node_hash(node)

            monkeypatch.setattr(cls, "__hash__", counted)

        for a in maps:
            tables.augmented_report(a)
        assert hashed == []

        for a in maps:
            tables.classify(a)
        by_classify = len(hashed)
        hashed.clear()
        for report in reports:
            dict.fromkeys(report.open)
        assert by_classify == len(hashed) > 0


class TestConjectures:
    """conjectures makes the given analogies' tables before it looks the
    query's image up, and checks injectivity only for a query that has
    an image."""

    @pytest.fixture
    def combi(self):
        session = parse_session((SESSIONS_DIR / "combi.ana").read_text())
        fresh = TranslationTables(session.source, session.target, session.working_set)
        return fresh, {a.name: a for a in session.analogies}

    def test_fresh_tables_find_the_query(self, combi):
        tables, maps = combi
        assert tables.conjectures(parse_formula("Qa(y)"), [maps["mixed"]]) == {"mixed": T}

    def test_a_query_with_no_image_raises_nothing(self, combi):
        tables, maps = combi
        mixed = maps["mixed"]
        # both pieces send P to Pa and their constant to y: P(x) and
        # P(x') share the image Pa(y)
        collide = AnalogyMap(
            "collide",
            mixed.source,
            mixed.target,
            (
                AnalogyPiece(Guard.mentions({"x"}), {"P": "Pa", "x": "y"}),
                AnalogyPiece(Guard.mentions({"x'"}), {"P": "Pa", "x'": "y"}),
            ),
        )
        assert tables.conjectures(parse_formula("Qb(y')"), [collide]) == {}
        with pytest.raises(AnalogyError, match="not injective"):
            tables.conjectures(parse_formula("Pa(y)"), [collide])


class TestStraightRule:
    def test_exact_values(self):
        assert straight_rule(1, 0, 0).p == Fraction(1, 2)
        assert straight_rule(2, 1, 0).p == Fraction(1, 2)
        assert straight_rule(3, 1, 2).p == Fraction(3, 7)
        assert straight_rule(9, 0, 0).p == Fraction(9, 10)

    def test_no_positive_support_is_not_scored(self):
        with pytest.raises(AnalogyError, match="n must be at least 1"):
            straight_rule(0, 5, 0)

    @pytest.mark.parametrize("bad", [(-1, 0, 0), (1, -2, 0), (1, 0, -3)])
    def test_negative_counts_rejected(self, bad):
        with pytest.raises(AnalogyError, match="nonnegative"):
            straight_rule(*bad)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(AnalogyError, match="nonnegative integer"):
            straight_rule(1.5, 0, 0)

    @pytest.mark.parametrize("bad", [(True, False, 0), (1, True, 0), (1, 0, False)])
    def test_bool_counts_rejected(self, bad):
        with pytest.raises(AnalogyError, match="nonnegative integer"):
            straight_rule(*bad)

    def test_json_dict_keeps_the_fraction_as_text(self):
        assert straight_rule(3, 1, 2).to_json_dict() == {
            "n": 3,
            "r": 1,
            "s": 2,
            "p": "3/7",
        }

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    def test_score_stays_strictly_between_zero_and_one(self, n, r, s):
        p = straight_rule(n, r, s).p
        assert 0 < p < 1
