"""Knowledge domain construction, validation, and fact lookup."""

import pytest
from hypothesis import given, settings, strategies as st

from analogia import DomainError, Signature, SignatureError, TruthValue, make_domain
from analogia.kb import KnowledgeDomain

from conftest import rebuild

# ====================================================================
# Truth values
# ====================================================================


class TestTruthValue:
    def test_known(self):
        assert TruthValue.TRUE.known
        assert TruthValue.FALSE.known
        assert not TruthValue.UNKNOWN.known

    def test_negate_swaps_and_fixes_unknown(self):
        assert TruthValue.TRUE.negate() is TruthValue.FALSE
        assert TruthValue.FALSE.negate() is TruthValue.TRUE
        assert TruthValue.UNKNOWN.negate() is TruthValue.UNKNOWN

    def test_of_bool(self):
        assert TruthValue.of(True) is TruthValue.TRUE
        assert TruthValue.of(False) is TruthValue.FALSE

    def test_str_is_lowercase_word(self):
        assert str(TruthValue.UNKNOWN) == "unknown"

    @given(st.sampled_from(list(TruthValue)))
    def test_negate_is_an_involution(self, v):
        assert v.negate().negate() is v


# ====================================================================
# Signatures
# ====================================================================


class TestSignature:
    def test_symbols_are_sorted_on_construction(self):
        sig = Signature("s", ("b", "a"), (("Q", 1), ("P", 2)), ())
        assert sig.constants == ("a", "b")
        assert sig.predicates == (("P", 2), ("Q", 1))

    def test_declaration_order_does_not_matter_for_equality(self):
        one = Signature("s", ("a", "b"), (("P", 1),), (("f", 1),))
        two = Signature("s", ("b", "a"), (("P", 1),), (("f", 1),))
        assert one == two

    def test_duplicate_symbol_across_kinds_rejected(self):
        with pytest.raises(SignatureError, match="duplicate symbol"):
            Signature("s", ("P",), (("P", 1),), ())

    def test_duplicate_constant_rejected(self):
        with pytest.raises(SignatureError, match="duplicate symbol"):
            Signature("s", ("a", "a"), (), ())

    def test_zero_arity_rejected(self):
        with pytest.raises(SignatureError, match="positive arity"):
            Signature("s", (), (("P", 0),), ())

    def test_reserved_words_cannot_name_symbols(self):
        message = "^'forall' is a reserved word and cannot name a constant$"
        with pytest.raises(SignatureError, match=message):
            Signature("s", ("forall",), (), ())

    def test_bad_identifier_rejected(self):
        with pytest.raises(SignatureError, match="invalid"):
            Signature("s", ("3a",), (), ())

    def test_primed_identifiers_are_fine(self):
        sig = Signature("s", ("x'", "x''"), (), ())
        assert sig.kind_of("x''") == "constant"

    def test_kind_and_arity_lookup(self):
        sig = Signature("s", ("a",), (("P", 2),), (("f", 1),))
        assert sig.kind_of("a") == "constant"
        assert sig.kind_of("P") == "predicate"
        assert sig.kind_of("f") == "function"
        assert sig.kind_of("missing") is None
        assert sig.arity_of("P") == 2
        assert sig.arity_of("f") == 1
        assert sig.arity_of("a") == 0
        assert sig.arity_of("missing") is None

    def test_symbols_covers_all_kinds(self):
        sig = Signature("s", ("a",), (("P", 1),), (("f", 1),))
        assert sig.symbols() == frozenset({"a", "P", "f"})

    def test_symbol_table_is_not_part_of_the_value(self):
        sig = Signature("s", ("a",), (("P", 1),), ())
        assert "_kinds" not in repr(sig)
        assert hash(sig) == hash(Signature("s", ("a",), (("P", 1),), ()))
        renamed = rebuild(sig, predicates=(("Q", 2),))
        assert renamed.kind_of("Q") == "predicate" and renamed.arity_of("Q") == 2
        assert renamed.kind_of("P") is None

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"constants": (1, "a")}, "^invalid constant identifier 1$"),
            ({"constants": 5}, "^constants must be iterable, not int$"),
            ({"predicates": (("P",),)}, r"^predicate \('P',\) is not a \(name, arity\) pair$"),
            ({"functions": ("f",)}, r"^function 'f' is not a \(name, arity\) pair$"),
            ({"predicates": (("P", "x"),)}, "^predicate 'P' must have positive arity, got 'x'$"),
            ({"predicates": (("P", 1.5),)}, "^predicate 'P' must have positive arity, got 1.5$"),
            ({"predicates": (("P", True),)}, "^predicate 'P' must have positive arity, got True$"),
            ({"functions": (("f", "2"),)}, "^function 'f' must have positive arity, got '2'$"),
            ({"constants": "ab"}, "^constants must be iterable, not str$"),
        ],
    )
    def test_malformed_entry_is_a_signature_error(self, kwargs, message):
        with pytest.raises(SignatureError, match=message):
            Signature("s", **kwargs)


# ====================================================================
# Domains
# ====================================================================


@pytest.fixture
def weather_sig():
    return Signature("weather", ("mon", "tue"), (("Rain", 1), ("Windier", 2)), ())


@pytest.fixture
def weather(weather_sig):
    return make_domain(
        weather_sig,
        ("mon", "tue"),
        facts=[
            ("Rain", ("mon",), True),
            ("Rain", ("tue",), False),
            ("Windier", ("mon", "tue"), True),
        ],
    )


class TestKnowledgeDomain:
    def test_universe_sorted_and_nonempty(self, weather):
        assert weather.universe == ("mon", "tue")
        with pytest.raises(DomainError, match="nonempty"):
            make_domain(Signature("s"), ())

    def test_duplicate_universe_element_rejected(self, weather_sig):
        with pytest.raises(DomainError, match="duplicate universe"):
            KnowledgeDomain(
                signature=Signature("s"),
                universe=("e", "e"),
                const_interp={},
                func_interp={},
                facts={},
            )

    def test_fact_value_defaults_to_unknown(self, weather):
        assert weather.fact_value(("Rain", ("mon",))) is TruthValue.TRUE
        assert weather.fact_value(("Rain", ("tue",))) is TruthValue.FALSE
        assert weather.fact_value(("Windier", ("tue", "mon"))) is TruthValue.UNKNOWN

    def test_facts_is_the_one_fact_table(self):
        sig = Signature("s", ("a",), (("P", 1),), ())
        dom = make_domain(sig, ("a",), facts=[("P", ("a",), True)])
        assert dom.facts[("P", ("a",))] is TruthValue.TRUE
        assert dom.fact_value(("P", ("a",))) is TruthValue.TRUE

    def test_unknown_facts_are_not_stored(self, weather_sig):
        dom = make_domain(
            weather_sig,
            ("mon", "tue"),
            facts=[("Rain", ("mon",), TruthValue.UNKNOWN)],
        )
        assert dom.facts == {}

    def test_missing_constant_interpretation_rejected(self):
        sig = Signature("s", ("a",), (), ())
        with pytest.raises(DomainError, match="no interpretation"):
            make_domain(sig, ("e",))

    def test_constants_name_themselves_by_default(self):
        sig = Signature("s", ("a",), (), ())
        dom = make_domain(sig, ("a", "e"))
        assert dom.const_interp == {"a": "a"}

    def test_explicit_constant_interpretation(self):
        sig = Signature("s", ("a",), (), ())
        dom = make_domain(sig, ("e1", "e2"), const_interp={"a": "e2"})
        assert dom.const_interp["a"] == "e2"

    def test_constant_interpreted_outside_universe_rejected(self):
        sig = Signature("s", ("a",), (), ())
        with pytest.raises(DomainError, match="not a universe element"):
            make_domain(sig, ("e",), const_interp={"a": "zz"})

    def test_interpretation_for_undeclared_constant_rejected(self):
        sig = Signature("s", (), (), ())
        with pytest.raises(DomainError, match="unknown constant"):
            make_domain(sig, ("e",), const_interp={"ghost": "e"})

    def test_function_interpretation_must_be_total(self):
        sig = Signature("s", (), (), (("f", 1),))
        with pytest.raises(DomainError, match="incomplete interpretation"):
            make_domain(sig, ("e1", "e2"), func_interp={("f", ("e1",)): "e2"})

    def test_function_value_outside_universe_rejected(self):
        sig = Signature("s", (), (), (("f", 1),))
        with pytest.raises(DomainError, match="not a universe element"):
            make_domain(sig, ("e",), func_interp={("f", ("e",)): "zz"})

    def test_total_function_interpretation_accepted(self):
        sig = Signature("s", (), (), (("f", 1),))
        dom = make_domain(
            sig, ("e1", "e2"), func_interp={("f", ("e1",)): "e2", ("f", ("e2",)): "e2"}
        )
        assert dom.func_interp[("f", ("e1",))] == "e2"

    def test_value_semantics(self, weather_sig, weather):
        again = make_domain(
            weather_sig,
            ("tue", "mon"),
            facts=[
                ("Windier", ("mon", "tue"), True),
                ("Rain", ("tue",), False),
                ("Rain", ("mon",), True),
            ],
        )
        assert again == weather


class TestMakeDomain:
    def test_bool_facts_are_coerced(self, weather):
        assert weather.fact_value(("Rain", ("mon",))) is TruthValue.TRUE

    def test_conflicting_facts_rejected(self, weather_sig):
        with pytest.raises(DomainError, match="conflicting fact"):
            make_domain(
                weather_sig,
                ("mon", "tue"),
                facts=[("Rain", ("mon",), True), ("Rain", ("mon",), False)],
            )

    def test_repeated_agreeing_fact_is_fine(self, weather_sig):
        dom = make_domain(
            weather_sig,
            ("mon", "tue"),
            facts=[("Rain", ("mon",), True), ("Rain", ("mon",), True)],
        )
        assert dom.fact_value(("Rain", ("mon",))) is TruthValue.TRUE

    def test_fact_args_resolve_constants_first(self):
        # "e" is both a constant (pointing at elem2) and a raw element;
        # the constant reading wins.
        sig = Signature("s", ("e",), (("P", 1),), ())
        dom = make_domain(
            sig,
            ("e", "elem2"),
            const_interp={"e": "elem2"},
            facts=[("P", ("e",), True)],
        )
        assert dom.fact_value(("P", ("elem2",))) is TruthValue.TRUE
        assert dom.fact_value(("P", ("e",))) is TruthValue.UNKNOWN

    def test_unknown_fact_symbol_rejected(self, weather_sig):
        with pytest.raises(DomainError, match="unknown symbol"):
            make_domain(weather_sig, ("mon", "tue"), facts=[("Rain", ("wed",), True)])

    def test_unknown_predicate_rejected(self, weather_sig):
        with pytest.raises(DomainError, match="unknown predicate"):
            make_domain(weather_sig, ("mon", "tue"), facts=[("Snow", ("mon",), True)])

    def test_arity_mismatch_rejected(self, weather_sig):
        with pytest.raises(DomainError, match="arity mismatch"):
            make_domain(
                weather_sig, ("mon", "tue"), facts=[("Rain", ("mon", "tue"), True)]
            )

    @pytest.mark.parametrize("value", ["true", None, 1])
    def test_non_truth_value_rejected(self, weather_sig, value):
        with pytest.raises(DomainError, match="non truth-value"):
            make_domain(weather_sig, ("mon", "tue"), facts=[("Rain", ("mon",), value)])

    def test_non_string_fact_argument_is_named(self, weather_sig):
        with pytest.raises(DomainError, match=r"unknown symbol 1 in fact Rain\(1\)"):
            make_domain(weather_sig, ("mon", "tue"), facts=[("Rain", (1,), True)])

    def test_bad_value_is_reported_before_a_conflict(self, weather_sig):
        facts = [("Rain", ("mon",), "true"), ("Rain", ("mon",), True)]
        with pytest.raises(DomainError, match=r"Rain\(mon\) has a non truth-value entry 'true'"):
            make_domain(weather_sig, ("mon", "tue"), facts=facts)

    @pytest.mark.parametrize(
        "fact, message",
        [
            (("Rain", (["mon"],), True), r"unknown symbol \['mon'\]"),
            ((["Rain"], ("mon",), True), r"unknown predicate \['Rain'\]"),
            (("Rain", 5, True), "not a .predicate, arguments, value. triple"),
            (("Rain", None, True), "not a .predicate, arguments, value. triple"),
            (5, "fact 5 is not a"),
            (("Rain", ("mon",)), "not a .predicate, arguments, value. triple"),
            (("Rain", "mon", True), "^arguments of fact .* iterable of names, not str$"),
        ],
    )
    def test_malformed_fact_is_a_domain_error(self, weather_sig, fact, message):
        with pytest.raises(DomainError, match=message):
            make_domain(weather_sig, ("mon", "tue"), facts=[fact])

    @pytest.mark.parametrize(
        "argument", ["universe", "const_interp", "func_interp", "facts"]
    )
    def test_non_iterable_argument_is_named(self, weather_sig, argument):
        kwargs = {"universe": ("mon", "tue"), argument: 5}
        with pytest.raises(DomainError, match=f"^{argument} must be .*, not int$"):
            make_domain(weather_sig, **kwargs)

    def test_str_universe_is_not_split_into_characters(self, weather_sig):
        with pytest.raises(DomainError, match="^universe must be an iterable of names, not str$"):
            make_domain(weather_sig, "mon")

    def test_non_name_universe_element_is_named(self, weather_sig):
        with pytest.raises(DomainError, match="^universe must hold names, not 1$"):
            make_domain(weather_sig, [1, "mon", "tue"])

    def test_non_name_interpretation_is_named(self, weather_sig):
        const_interp = {"mon": ["mon"], "tue": "tue"}
        with pytest.raises(DomainError, match=r"^const_interp must hold names, not \['mon'\]$"):
            make_domain(weather_sig, ("mon", "tue"), const_interp=const_interp)


NOT_A_FACT_KEY = r"is not a \(predicate, arguments\) pair$"


class TestKnowledgeDomainChecksItsInput:
    """KnowledgeDomain takes plain (predicate, args) keys and names each
    malformed argument in a DomainError, as make_domain does."""

    SIG = Signature("s", ("a",), (("P", 1),), (("f", 1),))

    def build(self, **kwargs):
        fields = {
            "signature": self.SIG,
            "universe": ("a",),
            "const_interp": {"a": "a"},
            "func_interp": {("f", ("a",)): "a"},
            "facts": {},
        }
        return KnowledgeDomain(**{**fields, **kwargs})

    def test_plain_tuple_keys(self):
        dom = self.build(facts={("P", ("a",)): TruthValue.TRUE})
        assert dom.facts == {("P", ("a",)): TruthValue.TRUE}
        assert dom.fact_value(("P", ("a",))) is TruthValue.TRUE

    @pytest.mark.parametrize(
        "func_interp, message",
        [
            ({("f", ("a",)): ["a"]}, r"^func_interp must hold names, not \['a'\]$"),
            ([(("f", (["a"],)), "a")], "^func_interp must be a mapping, not list$"),
            ({("f",): "a"}, r"^func_interp key \('f',\) is not a \(function, arguments\) pair$"),
            ({"f": "a"}, "^func_interp key 'f' is not a .function, arguments. pair$"),
            ({("f", 5): "a"}, r"^func_interp key \('f', 5\) is not a .function, arguments. pair$"),
            (5, "^func_interp must be a mapping, not int$"),
            ({("g", ("a",)): "a"}, "^interpretation given for unknown function 'g'$"),
            ({("f", ("a", "a")): "a"}, "^wrong argument count in interpretation of 'f'$"),
        ],
    )
    def test_malformed_func_interp(self, func_interp, message):
        with pytest.raises(DomainError, match=message):
            self.build(func_interp=func_interp)
        with pytest.raises(DomainError, match=message):
            make_domain(self.SIG, ("a",), func_interp=func_interp)

    @pytest.mark.parametrize(
        "facts, message",
        [
            (5, "^facts must be a mapping, not int$"),
            ([("P", ("a",), True)], "^facts must be a mapping, not list$"),
            ({("P",): TruthValue.TRUE}, r"^facts key \('P',\) " + NOT_A_FACT_KEY),
            ({"P": TruthValue.TRUE}, "^facts key 'P' " + NOT_A_FACT_KEY),
            ({("P", 5): TruthValue.TRUE}, r"^facts key \('P', 5\) " + NOT_A_FACT_KEY),
            ({("P", ("a",)): True}, r"^fact P\(a\) has a non truth-value entry True$"),
            ({("P", ("b",)): TruthValue.TRUE}, r"^unknown symbol 'b' in fact P\(b\)$"),
            ({("f", ("a",)): TruthValue.TRUE}, "^fact uses unknown predicate 'f'$"),
        ],
    )
    def test_malformed_facts(self, facts, message):
        with pytest.raises(DomainError, match=message):
            self.build(facts=facts)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"signature": None}, "^signature must be a Signature, not NoneType$"),
            ({"universe": 5}, "^universe must be an iterable of names, not int$"),
            ({"universe": ("a", 1)}, "^universe must hold names, not 1$"),
            ({"const_interp": {"a": ["a"]}}, r"^const_interp must hold names, not \['a'\]$"),
            ({"universe": "ab"}, "^universe must be an iterable of names, not str$"),
        ],
    )
    def test_malformed_argument_is_named(self, kwargs, message):
        with pytest.raises(DomainError, match=message):
            self.build(**kwargs)


# Junk: scalars of each kind and nested containers of them, and values
# that are almost right (names and keys that the test signature
# declares, with junk inside), so that draws get past the first checks.
_NAMES = st.sampled_from(["a", "b", "f", "P", "s", "3x", "forall"])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), _NAMES, st.text(max_size=3)
)
_HASHABLE = st.recursive(
    _SCALARS, lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=4
)
_JUNK = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.tuples(inner, inner)
        | st.tuples(inner, inner, inner)
        | st.dictionaries(_HASHABLE, inner, max_size=3)
    ),
    max_leaves=8,
)
_VALUES = _SCALARS | _JUNK
_KEYS = st.tuples(_NAMES, st.tuples(_NAMES) | _SCALARS | _HASHABLE) | _HASHABLE
_SIG = TestKnowledgeDomainChecksItsInput.SIG
_TOTAL_F = {("f", ("a",)): "a", ("f", ("b",)): "b"}
_ENTRIES = _JUNK | st.lists(st.tuples(_NAMES, _SCALARS) | _JUNK, max_size=2)
_UNIVERSES = _JUNK | st.lists(_VALUES, max_size=3)
_CONST_INTERPS = _JUNK | st.dictionaries(_NAMES, _VALUES, max_size=2)
_FUNC_INTERPS = st.one_of(
    _JUNK,
    st.fixed_dictionaries({key: _VALUES for key in _TOTAL_F}),
    st.dictionaries(_KEYS, _VALUES, max_size=2),
)


def _call_with_junk(data, build, valid, junk):
    """build(*valid) with one or two arguments swapped for a draw from
    junk; it must return or raise SignatureError or DomainError."""

    args = list(valid)
    for i in data.draw(st.lists(st.integers(0, len(args) - 1), min_size=1, max_size=2)):
        args[i] = data.draw(junk[i])
    try:
        build(*args)
    except (SignatureError, DomainError):
        pass


class TestNoBareErrors:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_signature(self, data):
        valid = ("s", ("a", "b"), (("P", 1),), (("f", 1),))
        _call_with_junk(data, Signature, valid, [_JUNK, _UNIVERSES, _ENTRIES, _ENTRIES])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_make_domain(self, data):
        valid = (_SIG, ("a", "b"), None, _TOTAL_F, [("P", ("a",), True)])
        facts = st.tuples(_NAMES | _JUNK, st.tuples(_NAMES) | _JUNK, st.booleans() | _JUNK)
        junk = [_JUNK, _UNIVERSES, _CONST_INTERPS, _FUNC_INTERPS, st.lists(facts | _JUNK)]
        _call_with_junk(data, make_domain, valid, junk)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_knowledge_domain(self, data):
        valid = (_SIG, ("a", "b"), {"a": "a"}, _TOTAL_F, {("P", ("a",)): TruthValue.TRUE})
        facts = st.dictionaries(_KEYS, st.sampled_from(TruthValue) | _JUNK, max_size=3)
        junk = [_JUNK, _UNIVERSES, _CONST_INTERPS, _FUNC_INTERPS, _JUNK | facts]
        _call_with_junk(data, KnowledgeDomain, valid, junk)
