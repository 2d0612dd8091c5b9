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
choice equal the table. represent therefore builds the base relation
and checks it, with no search. For the ranked class B stays a
condition on the relation, since no pure choice law replacing it is
settled here. The sweep does not test S, gamma or B; it walks the
class's relations, and the tests check that its violations are
exactly the law-obeying tables failing one of them. Such
representation gaps are reported as violations rather than papered
over; closing them without S and gamma needs carriers with duplicated
elements, which is out of scope here.

The smooth class is exactly the strict partial orders: on a finite
carrier every transitive irreflexive relation is smooth, so its class
test is transitivity alone. The induced choice and the class checks
come from the preference module's bitmask kernel, the one
implementation behind choice_of, is_smooth, is_ranked and
is_transitive; this module adds the laws and the enumeration, one walk
over a class's relations for both sweeps. A choice function, like a
relation, builds its masks when it is made. All enumeration is in
ascending bitmask order, so witnesses and violation lists are
deterministic.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Iterator, Sequence

from .errors import RepcheckError
from .kb import Value, _argument, _instance, members
from .preference import (
    ChoiceFunction,
    PreferenceRelation,
    _choices,
    choice_of,
    edges_of,
    ranked_failure,
    smooth_failure,
    transitive_masks,
)

ITEMS = ("a", "b", "c", "d")
SOUNDNESS_MAX_N = 4
COMPLETENESS_MAX_N = 3


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
    return _in_class(rel._better, rel._dominators, cls)


# ====================================================================
# Bitmask internals
#
# Subsets, relations and choice tables are masks as in the preference
# module's bitmask kernel and decoded by kb's members; relations and
# choice functions arrive with their masks built. An irreflexive
# relation on n elements is one edge bitmask with a bit per ordered
# pair of distinct indices. _members, the one walk the two sweeps
# read, takes _relations in ascending edge bitmask order and builds the
# induced choice of a class member only, after the class test. The
# laws quantify over nested pairs only: X a subset of Y for MuPR and
# MuEq, Y a subset of X for MuCUM.
# _nested holds, per carrier size, each mask's supersets and subsets in
# ascending order, so a law scans 3^n pairs instead of 4^n and still
# meets them in ascending (X, Y) order, which keeps the first witness.
# ====================================================================


def _relations(n: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(better, dominators) of every irreflexive relation on n elements."""

    # Element i's n - 1 edge bits, read as a number, pick one of its
    # 2^(n-1) options: the row of elements it beats, and the same edges
    # as dominator bits in one int, element j's at bits n*j .. n*j + n - 1,
    # so OR-ing the picked options gives every column at once.
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        options = []
        for bits in range(1 << (n - 1)):
            row = packed = 0
            for k, j in enumerate(others):
                if bits >> k & 1:
                    row |= 1 << j
                    packed |= 1 << (n * j + i)
            options.append((row, packed))
        rows.append(options)
    full = (1 << n) - 1
    shifts = [n * j for j in range(n)]
    # Element 0's bits are the lowest, so it varies fastest.
    for picks in itertools.product(*reversed(rows)):
        picks = picks[::-1]
        packed = 0
        for _, column_bits in picks:
            packed |= column_bits
        yield tuple(row for row, _ in picks), [packed >> s & full for s in shifts]


def _in_class(better: Sequence[int], dominators: Sequence[int], cls: RelationClass) -> bool:
    """The class test, which reads no choice. A transitive relation is
    smooth on a finite carrier: below an unchosen element, a chain of
    ever better elements ends at a chosen one, which beats it by
    transitivity. So the smooth class test is transitivity alone."""

    if cls is RelationClass.ALL:
        return True
    if cls is RelationClass.TRANSITIVE_SMOOTH:
        return transitive_masks(better)
    return ranked_failure(better, dominators) is None


def _members(n: int, cls: RelationClass) -> Iterator[tuple]:
    """(better, dominators, induced choice) of every relation of the
    class on n elements, in ascending edge bitmask order."""

    for better, dominators in _relations(n):
        if _in_class(better, dominators, cls):
            yield better, dominators, tuple(_choices(better))


# Built on first use for each carrier size; bounded so that a table for
# a carrier larger than any sweep's is not held for good.
@functools.lru_cache(maxsize=SOUNDNESS_MAX_N)
def _nested(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """For each subset mask of n elements, its supersets and its subsets,
    each in ascending mask order."""

    size = 1 << n
    supersets = tuple(tuple(ys for ys in range(size) if not xs & ~ys) for xs in range(size))
    subsets = tuple(tuple(ys for ys in range(xs + 1) if not ys & ~xs) for xs in range(size))
    return supersets, subsets


def _property_failure(
    mu: Sequence[int], n: int, prop: PropertyId
) -> tuple[int, int | None] | None:
    """First failing (X, Y) pair in ascending mask order, or None.

    The pair follows each law's own variable convention, so for MuCUM
    the first component X is the larger set. MuSubset has no Y.
    """

    if prop is PropertyId.MU_SUBSET:
        for xs, chosen in enumerate(mu):
            if chosen & ~xs:
                return xs, None
        return None
    supersets, subsets = _nested(n)
    if prop is PropertyId.MU_PR:
        for xs, above in enumerate(supersets):
            lost = xs & ~mu[xs]
            if lost:
                for ys in above:
                    if mu[ys] & lost:
                        return xs, ys
        return None
    if prop is PropertyId.MU_CUM:
        for xs, below in enumerate(subsets):
            chosen = mu[xs]
            for ys in below:
                if not chosen & ~ys and mu[ys] != chosen:
                    return xs, ys
        return None
    for xs, above in enumerate(supersets):
        chosen = mu[xs]
        for ys in above:
            meet = mu[ys] & xs
            if meet and meet != chosen:
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
    edges = (edges_of(better, items) for better, _ in _relations(len(items)))
    return (PreferenceRelation(carrier=items, edges=e) for e in edges)


class NotRepresentable(Value):
    """Negative answer from represent, with the reason when one is known.

    failed_property is the first required law the choice function
    breaks, or None when it obeys all of them and its base relation,
    the only candidate, lies outside the class or induces another
    choice.
    """

    def __init__(self, failed_property: PropertyId | None, witness: Witness | None):
        object.__setattr__(self, "failed_property", failed_property)
        object.__setattr__(self, "witness", witness)

    def to_json_dict(self) -> dict:
        return {
            "representable": False,
            "failed_property": (
                self.failed_property.value if self.failed_property else None
            ),
            "witness": _witness_json(self.witness),
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
    """The class relation whose induced choice equals cf, if there is one.

    The only candidate is cf's base relation, where y beats x exactly
    when x is not in cf({x, y}); it is returned when it lies in the
    class and its induced choice is cf. The class's laws are checked
    first, and a law-breaking cf that its base relation represents is
    an internal incoherence and raises. choice_of refuses a carrier
    above its CHOICE_CAP.
    """

    _instance("cf", cf, ChoiceFunction, RepcheckError)
    _instance("cls", cls, RelationClass, RepcheckError)
    items, masks = cf.carrier, cf._masks
    failed = witness = None
    for prop in CLASS_PROPERTIES[cls]:
        failure = _property_failure(masks, len(items), prop)
        if failure is not None:
            failed, witness = prop, _decode(failure, items, frozenset)
            break

    pairs = itertools.permutations(range(len(items)), 2)
    base = [(items[j], items[i]) for i, j in pairs if not masks[1 << i | 1 << j] >> i & 1]
    rel = PreferenceRelation(items, base)
    if choice_of(rel)._masks != masks or not relation_in_class(rel, cls):
        return NotRepresentable(failed_property=failed, witness=witness)
    if failed is not None:
        raise RepcheckError(f"relation represents a choice function violating {failed.value}")
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

    All 2^(n^2 - n) irreflexive relations are examined; those in the
    class have their induced choice tabulated and every promised law
    checked. The transitive count is recorded so that the effect of
    transitivity on MuSubset and MuPR stays visible as data.
    """

    _check_n(n, SOUNDNESS_MAX_N, "soundness")
    _instance("cls", cls, RelationClass, RepcheckError)
    items = ITEMS[:n]
    props = CLASS_PROPERTIES[cls]
    considered = 0
    transitive = 0
    violations: list[Violation] = []
    for better, _, mu in _members(n, cls):
        considered += 1
        transitive += transitive_masks(better)
        for prop in props:
            failure = _property_failure(mu, n, prop)
            if failure is None:
                continue
            x_set, y_set = _decode(failure, items)
            violations.append(
                Violation(
                    relation_edges=edges_of(better, items),
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
        examined=1 << (n * n - n),
        considered=considered,
        violations=tuple(violations),
        stats={"transitive": transitive},
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
    representable = {mu for _, _, mu in _members(n, cls)}
    # The stat under class all is what the transitive relations, which
    # are the smooth class, reach; under class smooth, what the smooth
    # relations of class all reach, transitive or not.
    stat, subclass = None, set()
    if cls is RelationClass.ALL:
        stat = "representable_transitive"
        subclass = {mu for _, _, mu in _members(n, RelationClass.TRANSITIVE_SMOOTH)}
    elif cls is RelationClass.TRANSITIVE_SMOOTH:
        stat = "representable_smooth_any"
        subclass = {
            mu
            for _, dominators, mu in _members(n, RelationClass.ALL)
            if smooth_failure(dominators, mu) is None
        }

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
                    choice_table=tuple(
                        (members(xs, items), members(chosen, items))
                        for xs, chosen in enumerate(table)
                    ),
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


# The sweep modes, in the order the CLI and its messages list them; mode
# m runs the module's m_sweep, looked up when it is called.
SWEEPS = ("soundness", "completeness")
