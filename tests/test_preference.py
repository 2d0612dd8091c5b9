"""Preference relations, induced choice functions, and derived orders."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from analogia import (
    PreferenceError,
    Signature,
    analogy_map,
    count_preference,
    dominance_preference,
    make_domain,
)
from analogia.analogy import SupportReport, classify
from analogia.formula import ground_atom_formulas
from analogia.preference import (
    ChoiceFunction,
    PreferenceRelation,
    choice_of,
    is_ranked,
    is_smooth,
    is_transitive,
    subsets_of,
    undominated,
)

import reference
from conftest import rebuild

ABC = ("a", "b", "c")


def rel(*edges, carrier=ABC):
    return PreferenceRelation(carrier=carrier, edges=frozenset(edges))


def all_relations(carrier):
    """Every irreflexive relation over the carrier, one per edge subset."""
    pairs = [(x, y) for x in carrier for y in carrier if x != y]
    for mask in range(1 << len(pairs)):
        yield rel(
            *(p for i, p in enumerate(pairs) if mask >> i & 1), carrier=carrier
        )


# ====================================================================
# Relations and the induced choice
# ====================================================================


class TestPreferenceRelation:
    def test_duplicate_carrier_item_rejected(self):
        with pytest.raises(PreferenceError, match="duplicate carrier"):
            PreferenceRelation(("a", "a"), frozenset())

    def test_edges_must_stay_inside_the_carrier(self):
        with pytest.raises(PreferenceError, match="leaves the carrier"):
            rel(("a", "zz"))

    def test_reflexive_edges_rejected(self):
        with pytest.raises(PreferenceError, match="reflexive"):
            rel(("a", "a"))

    @pytest.mark.parametrize(
        "carrier, edges, message",
        [
            (("a", "b"), {("a", "b", "c")}, "is not a pair"),
            (("a", "b"), {("a",)}, "is not a pair"),
            (("a", "b"), {5}, "must be pairs"),
            (("a", "b"), [(["a"], "b")], "must be pairs"),
            (5, (), "must be hashable"),
            ((["a"],), (), "must be hashable"),
            (("a", "b"), ["ab"], r"^edge \('ab',\) is not a pair$"),  # not split into a, b
            ("ab", {("a", "b")}, "^carrier must be a sequence of items, not str$"),
        ],
    )
    def test_malformed_input_rejected(self, carrier, edges, message):
        with pytest.raises(PreferenceError, match=message):
            PreferenceRelation(carrier, edges)

    def test_masks_stay_out_of_eq_hash_and_repr(self):
        r = rel(("a", "b"))
        assert r == rel(("a", "b")) and hash(r) == hash(rel(("a", "b")))
        assert repr(r) == (
            "PreferenceRelation(carrier=('a', 'b', 'c'), "
            "edges=frozenset({('a', 'b')}))"
        )
        moved = rebuild(r, edges=frozenset({("b", "a")}))
        assert undominated(moved, ABC) == {"b", "c"}

    def test_better(self):
        r = rel(("a", "b"))
        assert r.better("a", "b")
        assert not r.better("b", "a")

    def test_two_cycles_are_allowed(self):
        r = rel(("a", "b"), ("b", "a"))
        assert r.better("a", "b") and r.better("b", "a")


class TestUndominated:
    def test_simple_chain(self):
        r = rel(("a", "b"), ("b", "c"), ("a", "c"))
        assert undominated(r, ABC) == {"a"}
        assert undominated(r, ("b", "c")) == {"b"}
        assert undominated(r, ("c",)) == {"c"}

    def test_two_cycle_chooses_nothing(self):
        r = rel(("a", "b"), ("b", "a"))
        assert undominated(r, ("a", "b")) == frozenset()

    def test_incomparable_items_are_all_chosen(self):
        assert undominated(rel(), ABC) == set(ABC)

    def test_empty_pool(self):
        assert undominated(rel(), ()) == frozenset()

    def test_items_outside_the_carrier_rejected(self):
        with pytest.raises(PreferenceError, match="not in the carrier"):
            undominated(rel(), ("zz",))

    @pytest.mark.parametrize("items", [[["a"]], 5, [{"a"}], "ab"])
    def test_items_that_are_not_hashable_items_rejected(self, items):
        with pytest.raises(PreferenceError, match="iterable of carrier items"):
            undominated(rel(), items)

    def test_domination_only_counts_inside_the_pool(self):
        r = rel(("a", "b"))
        # a beats b, but a is not in the pool, so b survives
        assert undominated(r, ("b", "c")) == {"b", "c"}

    @given(st.integers(min_value=0, max_value=63))
    def test_agrees_with_naive_double_loop(self, mask):
        pairs = [(x, y) for x in ABC for y in ABC if x != y]
        edges = {p for i, p in enumerate(pairs) if mask >> i & 1}
        r = rel(*edges)
        for pool in subsets_of(ABC):
            naive = {
                x for x in pool if not any((y, x) in edges for y in pool)
            }
            assert undominated(r, pool) == naive


@pytest.mark.parametrize(
    "call",
    [
        lambda: choice_of(5),
        lambda: undominated(5, ["a"]),
        lambda: is_smooth(5),
        lambda: is_ranked(5),
        lambda: is_transitive(5),
    ],
    ids=["choice_of", "undominated", "is_smooth", "is_ranked", "is_transitive"],
)
def test_kernel_entries_need_a_relation(call):
    with pytest.raises(PreferenceError, match="^rel must be a PreferenceRelation, not int$"):
        call()


class TestSubsetsOf:
    def test_bitmask_counter_order(self):
        got = list(subsets_of(("a", "b")))
        assert got == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        ]

    def test_counts(self):
        assert len(list(subsets_of(ABC))) == 8
        assert len(list(subsets_of(()))) == 1

    def test_a_str_carrier_is_refused_at_the_call(self):
        message = "^carrier must be a sequence of items, not str$"
        with pytest.raises(PreferenceError, match=message):
            subsets_of("ab")


class TestChoiceFunction:
    def test_table_must_be_total(self):
        with pytest.raises(PreferenceError, match="expected 4"):
            ChoiceFunction(("a", "b"), {frozenset(): frozenset()})

    def test_table_must_stay_inside_the_carrier(self):
        with pytest.raises(PreferenceError, match="outside the carrier"):
            ChoiceFunction(
                ("a",),
                {frozenset(): frozenset(), frozenset({"a"}): frozenset({"zz"})},
            )

    @pytest.mark.parametrize("table", [5, None, [(frozenset(), frozenset())]])
    def test_table_must_be_a_mapping(self, table):
        with pytest.raises(PreferenceError, match="must be a mapping"):
            ChoiceFunction(("a",), table)

    @pytest.mark.parametrize(
        "carrier, table",
        [
            (5, {}),
            ((["a"],), {}),
            (("a",), {frozenset(): frozenset(), 5: frozenset()}),
            (("a",), {frozenset(): [["a"]]}),
        ],
    )
    def test_unhashable_or_non_set_entries_rejected(self, carrier, table):
        with pytest.raises(PreferenceError, match="must be hashable"):
            ChoiceFunction(carrier, table)

    @pytest.mark.parametrize(
        "table",
        [
            {"": "", "a": "a", "b": "b", "ab": "ab"},
            {frozenset(): "", frozenset("a"): "a", frozenset("b"): "b", frozenset("ab"): "ab"},
        ],
        ids=["str keys and picks", "str picks"],
    )
    def test_str_entries_are_not_split_into_items(self, table):
        with pytest.raises(PreferenceError, match="^choice table must map sets of items"):
            ChoiceFunction(("a", "b"), table)

    @pytest.mark.parametrize(
        "carrier, message",
        [
            ("a", "^carrier must be a sequence of items, not str$"),
            (("a", "a"), "^duplicate carrier item$"),
        ],
        ids=["str carrier", "duplicate item"],
    )
    def test_carrier_is_checked(self, carrier, message):
        with pytest.raises(PreferenceError, match=message):
            ChoiceFunction(carrier, {frozenset(): frozenset(), frozenset("a"): frozenset("a")})

    def test_picks_need_not_be_subsets_of_their_argument(self):
        # legal on purpose: the laws that fail on it are checked elsewhere
        cf = ChoiceFunction(
            ("a", "b"),
            {
                frozenset(): frozenset(),
                frozenset({"a"}): frozenset({"b"}),
                frozenset({"b"}): frozenset({"b"}),
                frozenset({"a", "b"}): frozenset({"a"}),
            },
        )
        assert cf.choose({"a"}) == {"b"}

    def test_choice_of_tabulates_undominated(self):
        r = rel(("a", "b"), ("b", "c"), ("a", "c"))
        cf = choice_of(r)
        for xs in subsets_of(ABC):
            assert cf.choose(xs) == undominated(r, xs)

    def test_choice_of_respects_the_cap(self):
        wide = PreferenceRelation(tuple("abcde"), frozenset())
        with pytest.raises(PreferenceError, match="cap"):
            choice_of(wide)


# ====================================================================
# Structural properties
# ====================================================================


class TestIsTransitive:
    def test_chain_needs_closure(self):
        assert not is_transitive(rel(("a", "b"), ("b", "c")))
        assert is_transitive(rel(("a", "b"), ("b", "c"), ("a", "c")))
        assert is_transitive(rel())

    def test_two_cycle_is_not_transitive(self):
        # a>b and b>a demand a>a, which irreflexivity forbids
        assert not is_transitive(rel(("a", "b"), ("b", "a")))


class TestIsSmooth:
    def test_empty_relation_is_smooth(self):
        ok, witness = is_smooth(rel())
        assert ok and witness is None

    def test_two_cycle_is_not_smooth(self):
        ok, witness = is_smooth(rel(("a", "b"), ("b", "a")))
        assert not ok
        xs, x = witness
        assert xs == {"a", "b"}
        assert x in xs

    def test_witness_is_first_in_subset_order(self):
        ok, (xs, x) = is_smooth(rel(("a", "b"), ("b", "a")))
        # {a, b} is the first subset where the failure can appear, and
        # a is scanned before b
        assert (xs, x) == (frozenset({"a", "b"}), "a")

    def test_three_cycle_is_not_smooth(self):
        ok, witness = is_smooth(rel(("a", "b"), ("b", "c"), ("c", "a")))
        assert not ok

    def test_agrees_with_definition_on_all_relations(self):
        for r in all_relations(("a", "b", "c")):
            ok, witness = is_smooth(r)
            naive = True
            for xs in subsets_of(ABC):
                chosen = undominated(r, xs)
                for x in xs - chosen:
                    if not any((y, x) in r.edges for y in chosen):
                        naive = False
            assert ok == naive
            if not ok:
                xs, x = witness
                assert x in xs
                assert x not in undominated(r, xs)


class TestIsRanked:
    def test_empty_and_total_relations_are_ranked(self):
        assert is_ranked(rel())[0]
        assert is_ranked(rel(("a", "b"), ("b", "c"), ("a", "c")))[0]

    def test_lone_edge_on_three_items_is_not_ranked(self):
        ok, witness = is_ranked(rel(("a", "b")))
        assert not ok
        assert witness == ("a", "c", "b")

    def test_witness_shape(self):
        ok, (x, y, z) = is_ranked(rel(("a", "b")))
        r = rel(("a", "b"))
        assert not r.better(x, y) and not r.better(y, x)
        assert (r.better(z, x) != r.better(z, y)) or (
            r.better(x, z) != r.better(y, z)
        )

    def test_agrees_with_modularity_on_all_relations(self):
        for r in all_relations(("a", "b", "c")):
            ok, _ = is_ranked(r)
            naive = True
            for x, y in itertools.combinations(ABC, 2):
                if r.better(x, y) or r.better(y, x):
                    continue
                for z in ABC:
                    if r.better(z, x) != r.better(z, y):
                        naive = False
                    if r.better(x, z) != r.better(y, z):
                        naive = False
            assert ok == naive


class TestKernelAgainstReference:
    """The bitmask kernel matches the set-based loops in reference.py."""

    def test_every_relation_on_four_items(self):
        items = ("a", "b", "c", "d")
        subsets = list(subsets_of(items))
        for r in all_relations(items):
            for xs in subsets:
                assert undominated(r, xs) == reference.undominated(r, xs)
            want = reference.choice_of(r)
            assert list(choice_of(r).table.items()) == list(want.table.items())
            assert is_smooth(r) == reference.is_smooth(r)
            assert is_ranked(r) == reference.is_ranked(r)
            assert is_transitive(r) == reference.is_transitive(r)


# ====================================================================
# Derived preferences over analogies
# ====================================================================


class TestDominancePreference:
    def test_rivals_worked_example(self, first_map, second_map, mixed_map, working_atoms):
        reports = [
            classify(a, working_atoms) for a in (first_map, second_map, mixed_map)
        ]
        pref = dominance_preference(reports)
        assert set(pref.carrier) == {"first", "second", "mixed"}
        assert pref.edges == {("mixed", "first"), ("mixed", "second")}

    @pytest.mark.parametrize("build", [dominance_preference, count_preference])
    @pytest.mark.parametrize(
        "reports, message",
        [
            ([None], "reports must hold SupportReport values, not None"),
            (5, "reports must be iterable, not int"),
        ],
    )
    def test_reports_are_named(self, build, reports, message):
        with pytest.raises(PreferenceError, match=f"^{message}$"):
            build(reports)

    def test_empty_reports(self):
        pref = dominance_preference([])
        assert pref.carrier == ()
        assert pref.edges == frozenset()

    def test_identical_profiles_are_incomparable(self, first_map, working_atoms):
        other = rebuild(first_map, name="twin")
        reports = [classify(a, working_atoms) for a in (first_map, other)]
        pref = dominance_preference(reports)
        assert pref.edges == frozenset()

    def test_duplicate_names_rejected(self, first_map, working_atoms):
        r = classify(first_map, working_atoms)
        with pytest.raises(PreferenceError, match="duplicate analogy name"):
            dominance_preference([r, r])

    def test_working_sets_must_match(self, first_map, working_atoms):
        other = rebuild(first_map, name="twin")
        r1 = classify(first_map, working_atoms)
        r2 = classify(other, working_atoms[:2])
        with pytest.raises(PreferenceError, match="share the working set"):
            dominance_preference([r1, r2])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        working=st.lists(st.integers(0, 2), max_size=5),
        profiles=st.lists(
            st.tuples(
                st.lists(st.integers(0, 4), max_size=4),
                st.lists(st.integers(0, 4), max_size=4),
            ),
            max_size=8,
        ),
    )
    def test_matches_the_set_based_reference(self, working, profiles):
        """Profiles are arbitrary, unordered and may repeat a sentence.

        The working set may repeat sentences too, and sentences 3 and 4
        are never in it, so a profile can name formulas outside it.
        """
        sig = Signature("S", tuple(f"c{i}" for i in range(5)), (("P", 1),), ())
        source = make_domain(sig, sig.constants)
        target = make_domain(Signature("T", ("t",), (), ()), ("t",))
        pool = tuple(ground_atom_formulas(sig))
        reports = [
            SupportReport(
                analogy=analogy_map(f"a{i}", source, target, {}),
                formulas=tuple(pool[k] for k in working),
                positive=tuple(pool[k] for k in pos),
                negative=tuple(pool[k] for k in neg),
                open=(),
                not_applicable=(),
                untranslatable=(),
                conjectures={},
            )
            for i, (pos, neg) in enumerate(profiles)
        ]
        got = dominance_preference(reports)
        want = reference.dominance_preference(reports)
        assert got.carrier == want.carrier
        assert got.edges == want.edges

    def test_result_is_transitive_and_irreflexive(
        self, first_map, second_map, mixed_map, working_atoms
    ):
        reports = [
            classify(a, working_atoms) for a in (first_map, second_map, mixed_map)
        ]
        pref = dominance_preference(reports)
        assert is_transitive(pref)
        assert all(x != y for x, y in pref.edges)


class TestCountPreference:
    def test_rivals_scores(self, first_map, second_map, mixed_map, working_atoms):
        reports = [
            classify(a, working_atoms) for a in (first_map, second_map, mixed_map)
        ]
        pref = count_preference(reports)
        # mixed scores -2; first and second both score 0 and tie
        assert pref.edges == {("mixed", "first"), ("mixed", "second")}

    def test_weights_shift_the_balance(self, first_map, second_map, mixed_map, working_atoms):
        reports = [
            classify(a, working_atoms) for a in (first_map, second_map, mixed_map)
        ]
        # also fine with fractions
        pref = count_preference(reports, Fraction(1, 2), 2)
        assert ("mixed", "first") in pref.edges

    def test_nonpositive_weights_rejected(self, first_map, working_atoms):
        r = classify(first_map, working_atoms)
        with pytest.raises(PreferenceError, match="must be positive"):
            count_preference([r], positive_weight=0)
        with pytest.raises(PreferenceError, match="must be positive"):
            count_preference([r], negative_weight=-1)

    @pytest.mark.parametrize(
        "weight", ["x", float("nan"), None, float("inf"), "1e6000000", 0.5, True]
    )
    def test_weights_that_are_not_numbers_rejected(self, weight):
        with pytest.raises(PreferenceError, match="rational numbers"):
            count_preference([], positive_weight=weight)
        with pytest.raises(PreferenceError, match="rational numbers"):
            count_preference([], negative_weight=weight)

    def test_count_preference_is_always_ranked(
        self, first_map, second_map, mixed_map, working_atoms
    ):
        reports = [
            classify(a, working_atoms) for a in (first_map, second_map, mixed_map)
        ]
        for wp, wn in [(1, 1), (2, 1), (Fraction(1, 3), Fraction(5, 2))]:
            pref = count_preference(reports, wp, wn)
            ok, _ = is_ranked(pref)
            assert ok

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        counts=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12
        ),
        wp=st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
        wn=st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
    )
    def test_matches_the_pairwise_reference(self, counts, wp, wn):
        """Drawn counts tie often, so equal ranks stay incomparable."""
        sig = Signature("S", tuple(f"c{i}" for i in range(8)), (("P", 1),), ())
        source = make_domain(sig, sig.constants)
        target = make_domain(Signature("T", ("t",), (), ()), ("t",))
        formulas = tuple(ground_atom_formulas(sig))
        reports = [
            SupportReport(
                analogy=analogy_map(f"a{i}", source, target, {}),
                formulas=formulas,
                positive=formulas[:pos],
                negative=formulas[pos : pos + neg],
                open=(),
                not_applicable=(),
                untranslatable=(),
                conjectures={},
            )
            for i, (pos, neg) in enumerate(counts)
        ]
        got = count_preference(reports, wp, wn)
        want = reference.count_preference(reports, wp, wn)
        assert got.carrier == want.carrier
        assert got.edges == want.edges

    def test_dominance_edges_survive_counting(
        self, first_map, second_map, mixed_map, working_atoms
    ):
        """A strictly better profile also has a strictly lower count."""
        reports = [
            classify(a, working_atoms) for a in (first_map, second_map, mixed_map)
        ]
        dom = dominance_preference(reports)
        cnt = count_preference(reports)
        assert dom.edges <= cnt.edges
