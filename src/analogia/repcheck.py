"""Exhaustive checks of the correspondence between relations and choices.

A strict preference relation induces a choice function: pick the
undominated members of each subset. Four coherence laws of choice
functions are in play, quantified over subsets X and Y of the carrier:

  MuSubset  cf(X) is a subset of X.
  MuPR      X subset of Y implies cf(Y) meet X is a subset of cf(X).
  MuCUM     cf(X) subset of Y subset of X implies cf(X) = cf(Y).
  MuEq      X subset of Y and cf(Y) meet X nonempty implies
            cf(X) = cf(Y) meet X.

The soundness sweep enumerates the relations of a class on a small
carrier and confirms that the laws promised for the class hold: all
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
settled here. The completeness sweep generates the law-obeying tables
and decides each in the same way; it does not test S, gamma or B
apart, and the tests check that its violations are exactly the
law-obeying tables failing one of them. Such representation gaps are
reported as violations rather than papered over; closing them without
S and gamma needs carriers with duplicated elements, which is out of
scope here.

The smooth class is exactly the strict partial orders: on a finite
carrier every transitive irreflexive relation is smooth, so its class
test is transitivity alone. The induced choice and the class checks
come from the preference module's bitmask kernel, the one
implementation behind choice_of, is_smooth, is_ranked and
is_transitive; this module adds the laws and the enumeration. Each
sweep generates the objects it judges: the soundness sweep a class's
relations, the completeness sweep the tables obeying a class's laws.
A choice function, like a relation, builds its masks when it is made.
All enumeration is in ascending bitmask order, so witnesses and
violation lists are deterministic.
"""

from __future__ import annotations

import functools
import itertools
from enum import Enum
from typing import Iterator, Sequence

from .errors import RepcheckError
from .kb import Value, _argument, _instance, members
from .preference import (
    CHOICE_CAP,
    ChoiceFunction,
    PreferenceRelation,
    _choices,
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
# pair of distinct indices. _members, the soundness sweep's relations,
# walks _relations for class all and generates the strict partial
# orders (_posets) or the ranked relations (_modular) for the others,
# in ascending edge bitmask order either way. _law_tables, the
# completeness sweep's tables, backtracks over the subsets and yields
# the law-obeying tables only, and _base reads a table's base
# relation. The laws quantify over nested pairs only: X a subset of Y
# for MuPR and MuEq, Y a subset of X for MuCUM.
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


def _closed(rows: Sequence[int]) -> list[int]:
    """The masks over len(rows) elements that hold each member's row."""

    reach = [0] * (1 << len(rows))
    closed = [0]
    for xs in range(1, len(reach)):
        low = xs & -xs
        reach[xs] = reach[xs ^ low] | rows[low.bit_length() - 1]
        if not reach[xs] & ~xs:
            closed.append(xs)
    return closed


def _posets(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(better, dominators) of every strict partial order on n elements,
    in ascending edge bitmask order.

    Element k joins each order on 0 .. k-1 with a down-closed set A that
    it beats and an up-closed set B that beats it, every member of B
    beating every member of A, which keeps the order transitive."""

    orders = [((), ())]
    for k in range(n):
        bit = 1 << k
        grown = []
        for better, dominators in orders:
            ups = _closed(dominators)
            for below in _closed(better):
                # The members of B must lie among those beating all of A.
                common = bit - 1
                for a in members(below, range(k)):
                    common &= dominators[a]
                for above in ups:
                    if above & ~common:
                        continue
                    rows = (row | bit if above >> i & 1 else row for i, row in enumerate(better))
                    columns = (c | bit if below >> i & 1 else c for i, c in enumerate(dominators))
                    grown.append(((*rows, below), (*columns, above)))
        orders = grown
    # Edge bitmask order is the rows' order from the last element's down.
    return sorted(orders, key=lambda order: order[0][::-1])


def _modular(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(better, dominators) of every ranked relation on n elements, in
    ascending edge bitmask order.

    The incomparable pairs of a ranked relation are twins, so they
    partition the carrier into blocks with no edge inside, and each two
    blocks are joined one way, the other way or both ways."""

    square, full, index = n * n, (1 << n) - 1, range(n)

    # An edge i -> j is bit n*i + j of the rows, above bit n*j + i of the
    # columns, so the sum of a relation's edges, one int, orders as its
    # rows from the last element's down.
    def edges(winners: int, losers: int) -> int:
        return sum(
            1 << square + n * i + j | 1 << n * j + i
            for i in members(winners, index)
            for j in members(losers, index)
        )

    # Each set partition as block masks: element i joins a block or
    # opens a new one, an empty block at the end.
    partitions = [()]
    for i in index:
        partitions = [
            (*blocks[:b], block | 1 << i, *blocks[b + 1 :])
            for blocks in partitions
            for b, block in enumerate((*blocks, 0))
        ]
    packed = []
    for blocks in partitions:
        ways = []
        for p, q in itertools.combinations(blocks, 2):
            there, back = edges(p, q), edges(q, p)
            ways.append((there, back, there | back))
        # Two pairs of blocks share no edge, so a sum is their union.
        packed += map(sum, itertools.product(*ways))
    packed.sort()
    rows = [square + n * i for i in index]
    columns = [n * j for j in index]
    return (
        (tuple(v >> s & full for s in rows), tuple(v >> s & full for s in columns))
        for v in packed
    )


def _members(n: int, cls: RelationClass) -> Iterator[tuple]:
    """(better, dominators, induced choice) of every relation of the
    class on n elements, in ascending edge bitmask order.

    Class all walks every relation; the smooth and ranked classes
    generate theirs, the strict partial orders and the ranked
    relations."""

    if cls is RelationClass.ALL:
        chosen = _relations(n)
    elif cls is RelationClass.TRANSITIVE_SMOOTH:
        chosen = _posets(n)
    else:
        chosen = _modular(n)
    for better, dominators in chosen:
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


def _law_tables(n: int, cls: RelationClass) -> Iterator[tuple[int, ...]]:
    """Every table on n elements obeying the class's laws, ascending
    lexicographically.

    cf(Y) is assigned for Y in ascending mask order, so every proper
    subset of Y is assigned first. MuPR leaves as picks the members of
    Y that no subset one smaller rejects, which also keeps cf(Y) a
    subset of Y; a member rejected further down was rejected on every
    step up, by MuPR. MuCUM or MuEq is checked against the assigned
    subsets. The picks ascend through the submasks, so the tables come
    in the order of a walk over every table with cf(X) a subset of X."""

    size = 1 << n
    subsets = _nested(n)[1]
    cum = cls is RelationClass.TRANSITIVE_SMOOTH
    eq = cls is RelationClass.RANKED
    table = [0] * size

    def fill(ys: int) -> Iterator[tuple[int, ...]]:
        if ys == size:
            yield tuple(table)
            return
        rejected = 0
        rest = ys
        while rest:
            low = rest & -rest
            rest ^= low
            below = ys ^ low
            rejected |= below & ~table[below]
        for chosen in subsets[ys & ~rejected]:
            # MuCUM: each proper subset holding cf(Y) picks cf(Y).
            if cum and any(table[chosen | s] != chosen for s in subsets[ys & ~chosen][:-1]):
                continue
            # MuEq: each proper subset meeting cf(Y) picks that meet.
            if eq and chosen and any(
                table[xs] != chosen & xs for xs in subsets[ys][:-1] if chosen & xs
            ):
                continue
            table[ys] = chosen
            yield from fill(ys + 1)

    return fill(0)


def _base(table: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """(better, dominators) of the table's base relation, where y beats
    x exactly when x is not picked from the pair {x, y}."""

    better, dominators = [0] * n, [0] * n
    for x, y in itertools.permutations(range(n), 2):
        if not table[1 << x | 1 << y] >> x & 1:
            better[y] |= 1 << x
            dominators[x] |= 1 << y
    return better, dominators


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
    class and its induced choice is cf. A carrier above CHOICE_CAP is
    refused first. The class's laws are checked next, and a
    law-breaking cf that its base relation represents is an internal
    incoherence and raises.
    """

    _instance("cf", cf, ChoiceFunction, RepcheckError)
    _instance("cls", cls, RelationClass, RepcheckError)
    items, masks = cf.carrier, cf._masks
    if len(items) > CHOICE_CAP:
        raise RepcheckError(
            f"carrier of size {len(items)} exceeds the tabulation cap {CHOICE_CAP}"
        )
    failed = witness = None
    for prop in CLASS_PROPERTIES[cls]:
        failure = _property_failure(masks, len(items), prop)
        if failure is not None:
            failed, witness = prop, _decode(failure, items, frozenset)
            break

    better, dominators = _base(masks, len(items))
    if tuple(_choices(better)) != masks or not _in_class(better, dominators, cls):
        return NotRepresentable(failed_property=failed, witness=witness)
    if failed is not None:
        raise RepcheckError(f"relation represents a choice function violating {failed.value}")
    return PreferenceRelation(items, edges_of(better, items))


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

    examined counts the objects a full walk would enumerate: every
    irreflexive relation for soundness, every table with cf(X) a
    subset of X for completeness. The sweeps generate only the objects
    they judge, so examined is computed; considered counts those (the
    class's relations, the law-obeying tables).
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
    """Check the class's laws on every class relation of size n.

    examined is the count of all 2^(n^2 - n) irreflexive relations; the
    class's relations, walked or generated by _members, have their
    induced choice tabulated and every promised law checked. The
    transitive count is recorded so that the effect of transitivity on
    MuSubset and MuPR stays visible as data.
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

    The tables obeying the class's laws are generated, in the ascending
    lexicographic order of all tables with cf(X) a subset of X, and
    examined counts those, 2^(n * 2^(n-1)). A law-obeying table is
    represented when its base relation, the only candidate, induces it
    and lies in the class; each other one becomes a violation. The
    stats record how many law-obeying tables are representable at all,
    and for the broader classes how far smaller subclasses reach:
    transitive relations under class all, smooth but not necessarily
    transitive relations under class smooth.
    """

    _check_n(n, COMPLETENESS_MAX_N, "completeness")
    _instance("cls", cls, RelationClass, RepcheckError)
    items = ITEMS[:n]
    # The stat under class all is what the transitive relations, which
    # are the smooth class, reach; under class smooth, what the smooth
    # relations of class all reach, transitive or not.
    stat = None
    if cls is RelationClass.ALL:
        stat = "representable_transitive"
    elif cls is RelationClass.TRANSITIVE_SMOOTH:
        stat = "representable_smooth_any"

    passing = 0
    represented = 0
    reached = 0
    violations: list[Violation] = []
    for table in _law_tables(n, cls):
        passing += 1
        better, dominators = _base(table, n)
        induced = tuple(_choices(better)) == table
        if induced and stat:
            if cls is RelationClass.ALL:
                reached += transitive_masks(better)
            else:
                reached += smooth_failure(dominators, table) is None
        if induced and _in_class(better, dominators, cls):
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
        examined=1 << (n << (n - 1)),
        considered=passing,
        violations=tuple(violations),
        stats=stats,
    )


# The sweep modes, in the order the CLI and its messages list them; mode
# m runs the module's m_sweep, looked up when it is called.
SWEEPS = ("soundness", "completeness")
