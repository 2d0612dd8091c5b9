"""Exhaustive checks of the correspondence between relations and choices.

A strict preference relation induces a choice function: pick the
undominated members of each subset. Four coherence laws of choice
functions are in play, quantified over subsets X and Y of the carrier:

  MuSubset  cf(X) is a subset of X.
  MuPR      X subset of Y implies cf(Y) meet X is a subset of cf(X).
  MuCUM     cf(X) subset of Y subset of X implies cf(X) = cf(Y).
  MuEq      X subset of Y and cf(Y) meet X nonempty implies
            cf(X) = cf(Y) meet X.

The soundness sweep enumerates every irreflexive relation on a small
carrier and confirms that the laws promised for its class hold: all
relations give MuSubset and MuPR, transitive smooth relations add
MuCUM, ranked relations add MuEq.

The completeness sweep asks the converse: does every choice function
obeying a class's laws arise from some relation in the class? Over
plain carriers the answer is no. The constant-empty choice obeys all
four laws, yet no irreflexive relation can give cf({a}) = {} because a
singleton is never dominated from inside itself. A law-obeying table
is induced by a relation of the class exactly when it also meets three
conditions the laws do not imply:

  S      cf({x}) = {x} for every x.
  gamma  cf(X) meet cf(Y) is a subset of cf(X union Y).
  B      the base relation, where y beats x iff x is not in
         cf({x, y}), lies in the class.

A relation's edges are fixed by its picks from pairs, so the base
relation is the only candidate; given MuPR, S and gamma make its
choice equal the table. For the ranked class B stays a condition on
the relation, since no pure choice law replacing it is settled here.
The sweep does not test S, gamma or B; it searches relations, and the
tests check that its violations are exactly the law-obeying tables
failing one of them. Such representation gaps are reported as
violations rather than papered over; closing them without S and gamma
needs carriers with duplicated elements, which is out of scope here.

The induced choice and the class checks come from the preference
module's bitmask kernel, the one implementation behind choice_of,
is_smooth, is_ranked and is_transitive; this module adds the laws and
the enumeration. A choice function, like a relation, builds its masks
when it is made. All enumeration is in ascending bitmask order, so
witnesses and violation lists are deterministic.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .errors import RepcheckError
from .kb import Value, _argument, _instance
from .preference import (
    ChoiceFunction,
    PreferenceRelation,
    _choices,
    choice_masks,
    choice_of,
    members,
    ranked_failure,
    smooth_failure,
    transitive_masks,
)

ITEMS = ("a", "b", "c", "d")
SOUNDNESS_MAX_N = 4
COMPLETENESS_MAX_N = 3
REPRESENT_MAX_N = 3


class PropertyId(Enum):
    MU_SUBSET = "MuSubset"
    MU_PR = "MuPR"
    MU_CUM = "MuCUM"
    MU_EQ = "MuEq"

    def __str__(self) -> str:
        return self.value


class RelationClass(Enum):
    ALL = "all"
    TRANSITIVE_SMOOTH = "smooth"
    RANKED = "ranked"

    def __str__(self) -> str:
        return self.value


CLASS_PROPERTIES: dict[RelationClass, tuple[PropertyId, ...]] = {
    RelationClass.ALL: (PropertyId.MU_SUBSET, PropertyId.MU_PR),
    RelationClass.TRANSITIVE_SMOOTH: (
        PropertyId.MU_SUBSET,
        PropertyId.MU_PR,
        PropertyId.MU_CUM,
    ),
    RelationClass.RANKED: (
        PropertyId.MU_SUBSET,
        PropertyId.MU_PR,
        PropertyId.MU_EQ,
    ),
}


def relation_in_class(rel: PreferenceRelation, cls: RelationClass) -> bool:
    _instance("rel", rel, PreferenceRelation, RepcheckError)
    _instance("cls", cls, RelationClass, RepcheckError)
    return _in_class_masks(rel._better, rel._dominators, _choices(rel._dominators), cls)


# ====================================================================
# Bitmask internals
#
# Subsets, relations and choice tables are masks as in the preference
# module's bitmask kernel, whose choice, class checks and members codec
# everything here uses; relations and choice functions arrive with
# their masks built. The sweeps enumerate relations with _relations
# alone: an irreflexive relation on n elements is one edge bitmask with
# a bit per ordered pair of distinct indices, and relations come in
# ascending edge bitmask order.
# ====================================================================


def _relations(n: int) -> Iterator[tuple[list[int], list[int]]]:
    """(better, dominators) of every irreflexive relation on n elements."""

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for edge_mask in range(1 << len(pairs)):
        better = [0] * n
        dominators = [0] * n
        for bit, (i, j) in enumerate(pairs):
            if edge_mask >> bit & 1:
                better[i] |= 1 << j
                dominators[j] |= 1 << i
        yield better, dominators


def _edges_of(better: Sequence[int], items: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """A relation's edges in edge bitmask order."""

    return tuple((x, y) for x, row in zip(items, better) for y in members(row, items))


def _in_class_masks(
    better: Sequence[int], dominators: Sequence[int], mu: Iterable[int],
    cls: RelationClass,
) -> bool:
    """The class test; mu, the induced choice, may be a stream."""

    if cls is RelationClass.ALL:
        return True
    if cls is RelationClass.TRANSITIVE_SMOOTH:
        return transitive_masks(better) and smooth_failure(dominators, mu) is None
    return ranked_failure(better, dominators) is None


def _property_failure(
    mu: Sequence[int], n: int, prop: PropertyId
) -> tuple[int, int | None] | None:
    """First failing (X, Y) pair in ascending mask order, or None.

    The pair follows each law's own variable convention, so for MuCUM
    the first component X is the larger set. MuSubset has no Y.
    """

    size = 1 << n
    if prop is PropertyId.MU_SUBSET:
        for xs in range(size):
            if mu[xs] & ~xs:
                return xs, None
        return None
    if prop is PropertyId.MU_PR:
        for xs in range(size):
            for ys in range(size):
                if xs & ~ys:
                    continue
                if mu[ys] & xs & ~mu[xs]:
                    return xs, ys
        return None
    if prop is PropertyId.MU_CUM:
        for xs in range(size):
            for ys in range(size):
                if mu[xs] & ~ys or ys & ~xs:
                    continue
                if mu[ys] != mu[xs]:
                    return xs, ys
        return None
    for xs in range(size):
        for ys in range(size):
            if xs & ~ys:
                continue
            meet = mu[ys] & xs
            if meet and mu[xs] != meet:
                return xs, ys
    return None


def _decode(failure: tuple[int, int | None], items: Sequence[str], kind=tuple):
    """A law's failing (X, Y) masks as kind(members), Y None for MuSubset."""

    x_mask, y_mask = failure
    y_set = None if y_mask is None else kind(members(y_mask, items))
    return kind(members(x_mask, items)), y_set


def _all_choice_tables(n: int) -> Iterator[tuple[int, ...]]:
    """Every table with cf(X) a subset of X, ascending lexicographically."""

    size = 1 << n
    submasks = [[s for s in range(m + 1) if s & m == s] for m in range(size)]
    yield from itertools.product(*submasks)


# ====================================================================
# Public single-object checks
# ====================================================================

Witness = tuple[frozenset[str], frozenset[str] | None]


def check_property(cf: ChoiceFunction, prop: PropertyId) -> tuple[bool, Witness | None]:
    """Decide one law for one tabulated choice function.

    Returns (True, None) when the law holds, else (False, (X, Y)) with
    the first failing subsets in ascending bitmask order over the
    carrier; Y is None for MuSubset.
    """

    _instance("cf", cf, ChoiceFunction, RepcheckError)
    _instance("prop", prop, PropertyId, RepcheckError)
    failure = _property_failure(cf._masks, len(cf.carrier), prop)
    if failure is None:
        return True, None
    return False, _decode(failure, cf.carrier, frozenset)


def irreflexive_relations(items: Sequence[str]) -> Iterator[PreferenceRelation]:
    """All strict relations on the items, ascending by edge bitmask."""

    items = _argument("items", "an iterable of items", tuple, items, RepcheckError)
    edges = (_edges_of(better, items) for better, _ in _relations(len(items)))
    return (PreferenceRelation(carrier=items, edges=e) for e in edges)


class NotRepresentable(Value):
    """Negative answer from represent, with the reason when one is known.

    failed_property is the first required law the choice function
    breaks, or None when it obeys all of them and the exhaustive
    search over searched candidate relations still found no match.
    """

    def __init__(self, failed_property: PropertyId | None, witness: Witness | None, searched: int):
        object.__setattr__(self, "failed_property", failed_property)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "searched", searched)

    def to_json_dict(self) -> dict:
        return {
            "representable": False,
            "failed_property": (
                self.failed_property.value if self.failed_property else None
            ),
            "witness": _witness_json(self.witness),
            "searched": self.searched,
        }


def _witness_json(witness: Witness | None):
    if witness is None:
        return None
    x_set, y_set = witness
    return {
        "X": sorted(x_set),
        "Y": sorted(y_set) if y_set is not None else None,
    }


def represent(
    cf: ChoiceFunction, cls: RelationClass
) -> PreferenceRelation | NotRepresentable:
    """Search for a class relation whose induced choice equals cf.

    The class's laws are checked first; the exhaustive search runs
    either way, and a match for a law-breaking choice function is an
    internal incoherence and raises. A returned relation is verified
    to reproduce cf exactly and to lie in the class.
    """

    _instance("cf", cf, ChoiceFunction, RepcheckError)
    _instance("cls", cls, RelationClass, RepcheckError)
    items = tuple(cf.carrier)
    n = len(items)
    if n > REPRESENT_MAX_N:
        raise RepcheckError(
            f"carrier of size {n} exceeds the representation search cap {REPRESENT_MAX_N}"
        )
    failed = witness = None
    for prop in CLASS_PROPERTIES[cls]:
        failure = _property_failure(cf._masks, n, prop)
        if failure is not None:
            failed, witness = prop, _decode(failure, items, frozenset)
            break

    searched, found = 0, None
    for better, dominators in _relations(n):
        mu = choice_masks(dominators)
        if not _in_class_masks(better, dominators, mu, cls):
            continue
        searched += 1
        if mu == cf._masks:
            found = better
            break

    if failed is not None:
        if found is not None:
            raise RepcheckError(
                f"relation represents a choice function violating {failed.value}"
            )
        return NotRepresentable(failed_property=failed, witness=witness, searched=searched)
    if found is None:
        return NotRepresentable(failed_property=None, witness=None, searched=searched)

    rel = PreferenceRelation(carrier=items, edges=_edges_of(found, items))
    if not relation_in_class(rel, cls) or choice_of(rel).table != cf.table:
        raise RepcheckError("represent produced a relation that fails verification")
    return rel


# ====================================================================
# Sweeps
# ====================================================================


class Violation(Value):
    """One failed instance found by a sweep.

    Exactly one of relation_edges and choice_table is set, naming the
    offending object. For soundness failures property and the witness
    sets say which law broke where; for representation gaps they are
    None because every required law held and the search simply found
    no relation.
    """

    def __init__(
        self,
        relation_edges: tuple[tuple[str, str], ...] | None,
        choice_table: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] | None,
        property: PropertyId | None,
        x_set: tuple[str, ...] | None,
        y_set: tuple[str, ...] | None,
    ):
        object.__setattr__(self, "relation_edges", relation_edges)
        object.__setattr__(self, "choice_table", choice_table)
        object.__setattr__(self, "property", property)
        object.__setattr__(self, "x_set", x_set)
        object.__setattr__(self, "y_set", y_set)

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.relation_edges is not None:
            out["relation"] = [list(e) for e in self.relation_edges]
        if self.choice_table is not None:
            out["choice"] = [[list(k), list(v)] for k, v in self.choice_table]
        out["property"] = self.property.value if self.property else None
        out["X"] = list(self.x_set) if self.x_set is not None else None
        out["Y"] = list(self.y_set) if self.y_set is not None else None
        return out


class SweepResult(Value):
    """Outcome of one exhaustive sweep.

    examined counts every enumerated object (relations for soundness,
    choice tables for completeness); considered counts the ones the
    mode actually judges (in-class relations, law-obeying tables).
    stats carries auxiliary counts that are recorded but not asserted.
    """

    def __init__(
        self,
        mode: str,
        relation_class: RelationClass,
        n: int,
        examined: int,
        considered: int,
        violations: tuple[Violation, ...],
        stats: dict[str, int] | None = None,
    ):
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "relation_class", relation_class)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "examined", examined)
        object.__setattr__(self, "considered", considered)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "stats", {} if stats is None else stats)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "class": self.relation_class.value,
            "n": self.n,
            "examined": self.examined,
            "considered": self.considered,
            "violation_count": len(self.violations),
            "violations": [v.to_json_dict() for v in self.violations],
            "stats": dict(self.stats),
            "ok": self.ok,
        }


def _check_n(n: int, cap: int, mode: str) -> None:
    if type(n) is not int or not 1 <= n <= cap:
        raise RepcheckError(f"{mode} sweep supports 1 <= n <= {cap}, got {n!r}")


def soundness_sweep(n: int, cls: RelationClass) -> SweepResult:
    """Check the class's laws on every irreflexive relation of size n.

    All 2^(n^2 - n) irreflexive relations are enumerated; those in the
    class have their induced choice tabulated and every promised law
    checked. The transitive count is recorded so that the effect of
    transitivity on MuSubset and MuPR stays visible as data.
    """

    _check_n(n, SOUNDNESS_MAX_N, "soundness")
    _instance("cls", cls, RelationClass, RepcheckError)
    items = ITEMS[:n]
    props = CLASS_PROPERTIES[cls]
    examined = 0
    considered = 0
    transitive = 0
    violations: list[Violation] = []
    for better, dominators in _relations(n):
        examined += 1
        mu = choice_masks(dominators)
        if not _in_class_masks(better, dominators, mu, cls):
            continue
        considered += 1
        if transitive_masks(better):
            transitive += 1
        for prop in props:
            failure = _property_failure(mu, n, prop)
            if failure is None:
                continue
            x_set, y_set = _decode(failure, items)
            violations.append(
                Violation(
                    relation_edges=_edges_of(better, items),
                    choice_table=None,
                    property=prop,
                    x_set=x_set,
                    y_set=y_set,
                )
            )
    return SweepResult(
        mode="soundness",
        relation_class=cls,
        n=n,
        examined=examined,
        considered=considered,
        violations=tuple(violations),
        stats={"transitive": transitive},
    )


def _choice_entries(
    table: Sequence[int], items: Sequence[str]
) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    return tuple(
        (members(xs, items), members(chosen, items)) for xs, chosen in enumerate(table)
    )


def completeness_sweep(n: int, cls: RelationClass) -> SweepResult:
    """Hunt for law-obeying choice functions no class relation induces.

    Every table with cf(X) a subset of X is enumerated. Tables that
    break a required law are skipped after confirming no class
    relation induces them (anything else would contradict soundness
    and raises). Law-obeying tables must match some class relation's
    induced choice; each one that does not becomes a violation. The
    stats record how many law-obeying tables are representable at all,
    and for the broader classes how far smaller subclasses reach:
    transitive relations under class all, smooth but not necessarily
    transitive relations under class smooth.
    """

    _check_n(n, COMPLETENESS_MAX_N, "completeness")
    _instance("cls", cls, RelationClass, RepcheckError)
    items = ITEMS[:n]
    props = CLASS_PROPERTIES[cls]
    stat = {
        RelationClass.ALL: "representable_transitive",
        RelationClass.TRANSITIVE_SMOOTH: "representable_smooth_any",
    }.get(cls)

    representable: set[tuple[int, ...]] = set()
    subclass: set[tuple[int, ...]] = set()
    for better, dominators in _relations(n):
        mu = choice_masks(dominators)
        if _in_class_masks(better, dominators, mu, cls):
            representable.add(mu)
        if stat and (
            transitive_masks(better) if cls is RelationClass.ALL
            else smooth_failure(dominators, mu) is None
        ):
            subclass.add(mu)

    examined = 0
    passing = 0
    represented = 0
    reached = 0
    violations: list[Violation] = []
    for table in _all_choice_tables(n):
        examined += 1
        if any(_property_failure(table, n, p) is not None for p in props):
            if table in representable:
                raise RepcheckError(
                    "a class relation induces a choice function that breaks the class laws"
                )
            continue
        passing += 1
        reached += table in subclass
        if table in representable:
            represented += 1
        else:
            violations.append(
                Violation(
                    relation_edges=None,
                    choice_table=_choice_entries(table, items),
                    property=None,
                    x_set=None,
                    y_set=None,
                )
            )

    stats = {"representable": represented}
    if stat:
        stats[stat] = reached
    return SweepResult(
        mode="completeness",
        relation_class=cls,
        n=n,
        examined=examined,
        considered=passing,
        violations=tuple(violations),
        stats=stats,
    )


# The sweep of each mode, in the order the CLI and its messages list them.
SWEEPS = {"soundness": soundness_sweep, "completeness": completeness_sweep}
