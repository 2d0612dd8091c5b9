"""Relation/choice correspondence: law checks, search, and sweeps."""

import pytest

from analogia import RepcheckError, run
from analogia.preference import (
    ChoiceFunction,
    PreferenceRelation,
    choice_of,
    is_ranked,
    is_smooth,
    is_transitive,
    subsets_of,
)
from analogia.repcheck import (
    CLASS_PROPERTIES,
    NotRepresentable,
    PropertyId,
    RelationClass,
    check_property,
    completeness_sweep,
    irreflexive_relations,
    relation_in_class,
    represent,
    soundness_sweep,
)

import choice_oracle
import reference

AB = ("a", "b")
ABC = ("a", "b", "c")
A_OVER_B = PreferenceRelation(ABC, frozenset({("a", "b")}))


def fs(*names):
    return frozenset(names)


def table_cf(carrier, **picks):
    """Build a ChoiceFunction from keyword picks like ab=("a",)."""
    key = lambda names: fs(*names)
    table = {}
    for subset in subsets_of(carrier):
        label = "".join(sorted(subset)) or "empty"
        table[subset] = key(picks.get(label, ()))
    return ChoiceFunction(carrier, table)


def constant_empty(carrier):
    return ChoiceFunction(carrier, {xs: frozenset() for xs in subsets_of(carrier)})


# ====================================================================
# Single-law checks with deterministic witnesses
# ====================================================================


class TestCheckProperty:
    def test_mu_subset_violation_and_witness(self):
        cf = table_cf(AB, a=("b",), b=("b",), ab=("a", "b"))
        ok, witness = check_property(cf, PropertyId.MU_SUBSET)
        assert not ok
        assert witness == (fs("a"), None)

    def test_mu_subset_holds_for_induced_choices(self):
        for rel in irreflexive_relations(ABC):
            ok, witness = check_property(choice_of(rel), PropertyId.MU_SUBSET)
            assert ok and witness is None

    def test_mu_pr_violation_and_witness(self):
        cf = table_cf(AB, b=("b",), ab=("a",))
        ok, witness = check_property(cf, PropertyId.MU_PR)
        assert not ok
        assert witness == (fs("a"), fs("a", "b"))

    def test_mu_cum_violation_on_the_two_cycle_choice(self):
        two_cycle = PreferenceRelation(AB, {("a", "b"), ("b", "a")})
        cf = choice_of(two_cycle)
        assert cf.choose(AB) == frozenset()
        ok, witness = check_property(cf, PropertyId.MU_CUM)
        assert not ok
        # X is the larger set of the law's premise
        assert witness == (fs("a", "b"), fs("a"))

    def test_mu_eq_violation_from_a_lone_edge(self):
        lone = PreferenceRelation(ABC, {("a", "b")})
        cf = choice_of(lone)
        ok, witness = check_property(cf, PropertyId.MU_EQ)
        assert not ok
        assert witness == (fs("b", "c"), fs("a", "b", "c"))

    def test_every_induced_choice_satisfies_subset_and_pr(self):
        for rel in irreflexive_relations(ABC):
            cf = choice_of(rel)
            assert check_property(cf, PropertyId.MU_SUBSET)[0]
            assert check_property(cf, PropertyId.MU_PR)[0]

    def test_transitive_smooth_relations_satisfy_cum(self):
        seen = 0
        for rel in irreflexive_relations(ABC):
            if is_transitive(rel) and is_smooth(rel)[0]:
                seen += 1
                assert check_property(choice_of(rel), PropertyId.MU_CUM)[0]
        assert seen == 19

    def test_ranked_relations_satisfy_eq(self):
        seen = 0
        for rel in irreflexive_relations(ABC):
            if is_ranked(rel)[0]:
                seen += 1
                assert check_property(choice_of(rel), PropertyId.MU_EQ)[0]
        assert seen == 37


# ====================================================================
# Enumeration
# ====================================================================


class TestIrreflexiveRelations:
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 64)])
    def test_counts(self, n, count):
        items = ABC[:n]
        rels = list(irreflexive_relations(items))
        assert len(rels) == count
        assert len(set(r.edges for r in rels)) == count

    def test_first_is_empty_last_is_complete(self):
        rels = list(irreflexive_relations(AB))
        assert rels[0].edges == frozenset()
        assert rels[-1].edges == {("a", "b"), ("b", "a")}


class TestRelationInClass:
    def test_all_admits_everything(self):
        for rel in irreflexive_relations(AB):
            assert relation_in_class(rel, RelationClass.ALL)

    def test_smooth_class_agrees_with_predicates(self):
        for rel in irreflexive_relations(ABC):
            want = reference.is_transitive(rel) and reference.is_smooth(rel)[0]
            assert relation_in_class(rel, RelationClass.TRANSITIVE_SMOOTH) == want

    def test_ranked_class_agrees_with_predicate(self):
        for rel in irreflexive_relations(ABC):
            want = reference.is_ranked(rel)[0]
            assert relation_in_class(rel, RelationClass.RANKED) == want


# ====================================================================
# Representation search
# ====================================================================


class TestRepresent:
    def test_round_trips_every_induced_choice_at_n2(self):
        for rel in irreflexive_relations(AB):
            got = represent(choice_of(rel), RelationClass.ALL)
            assert isinstance(got, PreferenceRelation)
            assert choice_of(got).table == choice_of(rel).table

    def test_search_respects_the_class(self):
        two_cycle = PreferenceRelation(AB, {("a", "b"), ("b", "a")})
        cf = choice_of(two_cycle)
        # the two-cycle is ranked, so its choice comes back in that class
        assert isinstance(represent(cf, RelationClass.RANKED), PreferenceRelation)
        # but no transitive smooth relation empties a pair
        got = represent(cf, RelationClass.TRANSITIVE_SMOOTH)
        assert isinstance(got, NotRepresentable)
        assert got.failed_property is PropertyId.MU_CUM
        assert got.witness == (fs("a", "b"), fs("a"))
        assert got.searched == 3

    def test_constant_empty_choice_obeys_the_laws_but_has_no_relation(self):
        """The smallest representation gap: every law holds, nothing fits.

        cf({a}) = {} cannot arise from an irreflexive relation because
        a alone is never beaten from inside {a}.
        """
        cf = constant_empty(("a",))
        for prop in PropertyId:
            ok, _ = check_property(cf, prop)
            assert ok
        got = represent(cf, RelationClass.ALL)
        assert isinstance(got, NotRepresentable)
        assert got.failed_property is None
        assert got.witness is None
        assert got.searched == 1

    def test_law_breaking_choice_reports_the_first_broken_law(self):
        cf = table_cf(AB, a=("b",), b=("b",), ab=("a", "b"))
        got = represent(cf, RelationClass.ALL)
        assert isinstance(got, NotRepresentable)
        assert got.failed_property is PropertyId.MU_SUBSET
        assert got.witness == (fs("a"), None)
        assert got.searched == 4

    def test_not_representable_json_shape(self):
        got = represent(constant_empty(("a",)), RelationClass.ALL)
        assert got.to_json_dict() == {
            "representable": False,
            "failed_property": None,
            "witness": None,
            "searched": 1,
        }
        broken = represent(table_cf(AB, a=("b",), b=("b",)), RelationClass.ALL)
        assert broken.to_json_dict() == {
            "representable": False,
            "failed_property": "MuSubset",
            "witness": {"X": ["a"], "Y": None},
            "searched": 4,
        }

    def test_carrier_cap(self):
        wide = ChoiceFunction(
            tuple("abcd"), {xs: frozenset() for xs in subsets_of(tuple("abcd"))}
        )
        with pytest.raises(RepcheckError, match="cap"):
            represent(wide, RelationClass.ALL)


# ====================================================================
# Soundness sweeps: the laws hold for every in-class relation
# ====================================================================


SOUNDNESS_EXPECTED = {
    # (n, class): (examined, considered, transitive)
    (1, RelationClass.ALL): (1, 1, 1),
    (1, RelationClass.TRANSITIVE_SMOOTH): (1, 1, 1),
    (1, RelationClass.RANKED): (1, 1, 1),
    (2, RelationClass.ALL): (4, 4, 3),
    (2, RelationClass.TRANSITIVE_SMOOTH): (4, 3, 3),
    (2, RelationClass.RANKED): (4, 4, 3),
    (3, RelationClass.ALL): (64, 64, 19),
    (3, RelationClass.TRANSITIVE_SMOOTH): (64, 19, 19),
    (3, RelationClass.RANKED): (64, 37, 13),
    (4, RelationClass.ALL): (4096, 4096, 219),
    (4, RelationClass.TRANSITIVE_SMOOTH): (4096, 219, 219),
    (4, RelationClass.RANKED): (4096, 913, 75),
}


class TestArgumentsAreNamed:
    def test_represent_needs_a_choice_function(self):
        with pytest.raises(RepcheckError, match="^cf must be a ChoiceFunction, not int$"):
            represent(5, RelationClass.ALL)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: soundness_sweep(2, "all"),
            lambda: completeness_sweep(2, "all"),
            lambda: represent(choice_of(PreferenceRelation(("a",), frozenset())), "all"),
        ],
        ids=["soundness_sweep", "completeness_sweep", "represent"],
    )
    def test_a_class_name_is_refused(self, call):
        with pytest.raises(RepcheckError, match="^cls must be a RelationClass, not 'all'$"):
            call()

    # Looked up by name, "MuPR" would fall through to the MuEq test and
    # "all" to the ranked one: a {a > b} relation on three elements obeys
    # MuPR and breaks MuEq, and it is in the class ALL but not ranked.
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: check_property(choice_of(A_OVER_B), "MuPR"),
                "prop must be a PropertyId, not 'MuPR'",
            ),
            (
                lambda: relation_in_class(A_OVER_B, "all"),
                "cls must be a RelationClass, not 'all'",
            ),
            (
                lambda: check_property(5, PropertyId.MU_PR),
                "cf must be a ChoiceFunction, not int",
            ),
            (
                lambda: relation_in_class(5, RelationClass.ALL),
                "rel must be a PreferenceRelation, not int",
            ),
            (lambda: irreflexive_relations(5), "items must be an iterable of items, not int"),
        ],
        ids=[
            "check_property name",
            "relation_in_class name",
            "check_property cf",
            "relation_in_class rel",
            "irreflexive_relations",
        ],
    )
    def test_each_entry_names_a_wrong_argument(self, call, message):
        with pytest.raises(RepcheckError, match=f"^{message}$"):
            call()


class TestSoundnessSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("cls", list(RelationClass), ids=lambda c: c.value)
    def test_no_violations_and_pinned_counts(self, n, cls):
        result = soundness_sweep(n, cls)
        assert result.ok
        assert result.violations == ()
        examined, considered, transitive = SOUNDNESS_EXPECTED[(n, cls)]
        assert result.examined == examined
        assert result.considered == considered
        assert result.stats == {"transitive": transitive}

    def test_considered_counts_match_the_object_level_predicates(self):
        """The sweep's class filters agree with the set-based predicates."""
        rels = list(irreflexive_relations(ABC))
        smooth = sum(
            1 for r in rels
            if reference.relation_in_class(r, RelationClass.TRANSITIVE_SMOOTH)
        )
        ranked = sum(
            1 for r in rels if reference.relation_in_class(r, RelationClass.RANKED)
        )
        assert soundness_sweep(3, RelationClass.TRANSITIVE_SMOOTH).considered == smooth
        assert soundness_sweep(3, RelationClass.RANKED).considered == ranked

    def test_json_shape(self):
        d = soundness_sweep(2, RelationClass.ALL).to_json_dict()
        assert list(d) == [
            "mode",
            "class",
            "n",
            "examined",
            "considered",
            "violation_count",
            "violations",
            "stats",
            "ok",
        ]
        assert d["mode"] == "soundness"
        assert d["ok"] is True
        assert d["violations"] == []

    @pytest.mark.parametrize("bad", [0, -1, 5, "2", 2.0, True, None])
    def test_size_bounds(self, bad):
        with pytest.raises(RepcheckError, match="soundness sweep supports"):
            soundness_sweep(bad, RelationClass.ALL)

    @pytest.mark.parametrize("bad", ["3", 2.0, True])
    def test_run_refuses_a_size_that_is_not_an_int(self, bad):
        with pytest.raises(RepcheckError, match="sweep supports"):
            run(None, "repcheck", n=bad)


# ====================================================================
# Completeness sweeps: these document a real gap and it stays visible
# ====================================================================


COMPLETENESS_EXPECTED = {
    # (n, class): (examined, passing, representable, violations)
    (1, RelationClass.ALL): (2, 2, 1, 1),
    (1, RelationClass.TRANSITIVE_SMOOTH): (2, 2, 1, 1),
    (1, RelationClass.RANKED): (2, 2, 1, 1),
    (2, RelationClass.ALL): (16, 9, 4, 5),
    (2, RelationClass.TRANSITIVE_SMOOTH): (16, 6, 3, 3),
    (2, RelationClass.RANKED): (16, 9, 4, 5),
    (3, RelationClass.ALL): (4096, 216, 64, 152),
    (3, RelationClass.TRANSITIVE_SMOOTH): (4096, 35, 19, 16),
    (3, RelationClass.RANKED): (4096, 159, 37, 122),
}


class TestCompletenessSweep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("cls", list(RelationClass), ids=lambda c: c.value)
    def test_pinned_counts(self, n, cls):
        """Law-obeying choice functions outnumber the representable ones.

        The gap is real: the constant-empty choice obeys every law yet
        no irreflexive relation induces it, and the mismatch grows with
        the carrier. The violation lists stay nonempty on purpose.
        """
        result = completeness_sweep(n, cls)
        examined, passing, representable, violation_count = COMPLETENESS_EXPECTED[
            (n, cls)
        ]
        assert result.examined == examined
        assert result.considered == passing
        assert result.stats["representable"] == representable
        assert len(result.violations) == violation_count
        assert not result.ok

    def test_every_violation_obeys_the_laws_but_is_not_induced(self):
        result = completeness_sweep(2, RelationClass.ALL)
        induced = {
            tuple(sorted((tuple(sorted(k)), tuple(sorted(v)))
                         for k, v in reference.choice_of(rel).table.items()))
            for rel in irreflexive_relations(AB)
        }
        for violation in result.violations:
            table = {fs(*k): fs(*v) for k, v in violation.choice_table}
            cf = ChoiceFunction(AB, table)
            for prop in CLASS_PROPERTIES[RelationClass.ALL]:
                assert check_property(cf, prop)[0]
            key = tuple(sorted((tuple(sorted(k)), tuple(sorted(v)))
                               for k, v in cf.table.items()))
            assert key not in induced

    def test_first_violation_is_the_constant_empty_table(self):
        result = completeness_sweep(1, RelationClass.ALL)
        violation = result.violations[0]
        assert violation.relation_edges is None
        assert violation.choice_table == (((), ()), (("a",), ()))
        assert violation.property is None

    def test_violation_json_shape(self):
        d = completeness_sweep(1, RelationClass.ALL).violations[0].to_json_dict()
        assert d == {
            "choice": [[[], []], [["a"], []]],
            "property": None,
            "X": None,
            "Y": None,
        }

    def test_transitive_reach_is_strictly_smaller_at_n2(self):
        """One choice function needs a cycle: the 2-cycle's empty pick."""
        result = completeness_sweep(2, RelationClass.ALL)
        assert result.stats["representable_transitive"] == 3
        assert result.stats["representable"] == 4

    def test_smooth_reach_equals_transitive_smooth_reach_at_n3(self):
        result = completeness_sweep(3, RelationClass.TRANSITIVE_SMOOTH)
        assert result.stats["representable_smooth_any"] == 19
        assert result.stats["representable"] == 19

    @pytest.mark.parametrize("bad", [0, 4])
    def test_size_bounds(self, bad):
        with pytest.raises(RepcheckError, match="completeness sweep supports"):
            completeness_sweep(bad, RelationClass.ALL)


# ====================================================================
# The S/gamma/B characterization of induced choices, against brute force
# ====================================================================


CHARACTERIZATION_EXPECTED = {
    # class: (law-obeying, meet S and gamma, meet S, gamma and B) at n=3
    RelationClass.ALL: (216, 64, 64),
    RelationClass.TRANSITIVE_SMOOTH: (35, 19, 19),
    RelationClass.RANKED: (159, 43, 37),
}


class TestInducedChoiceCharacterization:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("cls", list(RelationClass), ids=lambda c: c.value)
    def test_conditions_pick_exactly_the_induced_tables(self, n, cls):
        items = ABC[:n]
        induced = {
            choice_oracle.table_key(reference.choice_of(rel))
            for rel in irreflexive_relations(items)
            if reference.relation_in_class(rel, cls)
        }
        characterized = {
            choice_oracle.table_key(cf)
            for cf, failed in choice_oracle.law_obeying_tables(items, cls)
            if failed is None
        }
        assert induced == characterized

    @pytest.mark.parametrize("cls", list(RelationClass), ids=lambda c: c.value)
    def test_pinned_counts_at_n3(self, cls):
        judged = choice_oracle.law_obeying_tables(ABC, cls)
        meet_s_gamma = sum(1 for _, failed in judged if failed in (None, "B"))
        meet_all = sum(1 for _, failed in judged if failed is None)
        assert (len(judged), meet_s_gamma, meet_all) == CHARACTERIZATION_EXPECTED[cls]

    def test_ranked_laws_do_not_settle_b(self):
        """A ranked-law table meeting S and gamma whose only relation is unranked.

        a and b beat each other, a beats c, b and c are incomparable:
        b beats a but c does not, so b and c are not interchangeable.
        """
        rel = PreferenceRelation(ABC, {("a", "b"), ("b", "a"), ("a", "c")})
        cf = choice_of(rel)
        assert choice_oracle.obeys_laws(cf, RelationClass.RANKED)
        assert choice_oracle.base_relation(cf) == rel
        assert not relation_in_class(rel, RelationClass.RANKED)
        assert choice_oracle.first_failed_condition(cf, RelationClass.RANKED) == "B"
        assert choice_oracle.first_failed_condition(cf, RelationClass.ALL) is None
        got = represent(cf, RelationClass.RANKED)
        assert isinstance(got, NotRepresentable)
        assert got.failed_property is None
