"""Knowledge domain construction, validation, and fact lookup."""

import pytest
from hypothesis import given, strategies as st

from analogia import DomainError, Signature, SignatureError, TruthValue, make_domain
from analogia.kb import GroundAtom, KnowledgeDomain

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
        with pytest.raises(SignatureError, match="reserved word"):
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
        assert weather.fact_value(GroundAtom("Rain", ("mon",))) is TruthValue.TRUE
        assert weather.fact_value(GroundAtom("Rain", ("tue",))) is TruthValue.FALSE
        assert (
            weather.fact_value(GroundAtom("Windier", ("tue", "mon")))
            is TruthValue.UNKNOWN
        )

    def test_facts_is_the_one_fact_table(self):
        sig = Signature("s", ("a",), (("P", 1),), ())
        dom = make_domain(sig, ("a",), facts=[("P", ("a",), True)])
        assert GroundAtom("P", ("a",)) == ("P", ("a",))
        assert dom.facts[("P", ("a",))] is TruthValue.TRUE
        assert dom.fact_value(GroundAtom("P", ("a",))) is dom.facts[("P", ("a",))]
        assert dom.fact_value(("P", ("a",))) is TruthValue.TRUE
        atom = GroundAtom("P", ["a"])
        assert atom.args == ("a",)
        assert str(atom) == "P(a)"
        assert repr(atom) == "GroundAtom(predicate='P', args=('a',))"

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
        assert weather.fact_value(GroundAtom("Rain", ("mon",))) is TruthValue.TRUE

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
        assert dom.fact_value(GroundAtom("Rain", ("mon",))) is TruthValue.TRUE

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
        assert dom.fact_value(GroundAtom("P", ("elem2",))) is TruthValue.TRUE
        assert dom.fact_value(GroundAtom("P", ("e",))) is TruthValue.UNKNOWN

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
