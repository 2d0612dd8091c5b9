"""Strict preference relations and the choice functions they induce.

An edge (x, y) reads "x is better than y"; smaller is better
throughout. Relations are irreflexive by construction (a reflexive
edge is rejected, not dropped) but need not be transitive or acyclic.
The induced choice picks the undominated members of a subset: those
that nothing else in the subset beats. Two structural properties
matter downstream and are decided by exhaustive scan over the finite
carrier:

  * smooth: in every subset, every element is either chosen or beaten
    by a chosen element, so domination never rests on an endless or
    circular chain alone;
  * ranked: incomparable elements are interchangeable, beating and
    being beaten by exactly the same outsiders.

_carrier is the one check of a carrier, which PreferenceRelation,
ChoiceFunction and subsets_of share: a sequence of distinct hashable
items. _pool is the one check of a subset of it, which undominated and
ChoiceFunction.choose share. Choice, smoothness, rankedness and
transitivity have one implementation, the bitmask kernel below. A
relation holds its masks, the rows of what each item beats and the
columns of what beats it, and better, undominated, choice_of and the
structural checks read them. A relation made from edges builds them in
the pass that validates its edges; a support relation is built as its
masks, and derives its edge set only when that is read (eq, hash,
repr). A choice function builds its mask table when it is made, for
the repcheck laws; the repcheck sweeps run the kernel on masks built
from edge bitmasks.

The module also derives preferences over analogies from their support
profiles, read from support reports here and from support masks by a
session. Dominance prefers a strictly better support profile
(positives a superset, negatives a subset, not both equal). Counting
scores each analogy by weighted negatives minus weighted positives
and prefers the lower score; the result is always ranked. Both build
the relation's masks over groups of equal profiles, with no edge made.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .analogy import SupportReport
from .errors import PreferenceError
from .kb import Value, _argument, _checked, _instance, _items, members

CHOICE_CAP = 4


def _carrier(carrier) -> tuple[tuple, dict]:
    """carrier as a tuple of distinct hashable items and each item's
    position, or a PreferenceError: the one check of a carrier."""

    items = _argument("carrier", "a sequence of items", tuple, carrier, PreferenceError)
    try:
        index = {x: i for i, x in enumerate(items)}
    except TypeError:
        raise PreferenceError("carrier items must be hashable") from None
    if len(index) != len(items):
        raise PreferenceError("duplicate carrier item")
    return items, index


class PreferenceRelation(Value):
    """A strict relation over a finite carrier of item ids.

    Its fields are the carrier and the edge set. __init__ checks every
    edge and builds the masks from them; the support preferences make a
    relation from its masks alone, and its edges are then derived from
    the rows when first read.
    """

    def __init__(self, carrier: tuple[str, ...], edges: Iterable[tuple[str, str]]):
        carrier, index = _carrier(carrier)
        try:
            edges = frozenset((e,) if isinstance(e, str) else tuple(e) for e in edges)
        except TypeError:
            raise PreferenceError("edges must be pairs of hashable items") from None
        better, dominators = [0] * len(carrier), [0] * len(carrier)
        for edge in edges:
            if len(edge) != 2:
                raise PreferenceError(f"edge {edge!r} is not a pair")
            x, y = edge
            if x not in index or y not in index:
                raise PreferenceError(f"edge ({x!r}, {y!r}) leaves the carrier")
            if x == y:
                raise PreferenceError(f"reflexive edge on {x!r} rejected")
            better[index[x]] |= 1 << index[y]
            dominators[index[y]] |= 1 << index[x]
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "edges", edges)
        # The kernel's masks, built in the pass that checks the edges: each
        # item's carrier position, the items each position beats and the
        # items beating it. They take no part in eq, hash or repr.
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_better", tuple(better))
        object.__setattr__(self, "_dominators", tuple(dominators))

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The pairs the rows hold. A relation made through __init__
        stores its checked edges here; one made from its rows derives
        them when they are first read."""

        return frozenset(edges_of(self._better, self.carrier))

    def better(self, x: str, y: str) -> bool:
        """Whether x beats y, read off x's row; False for an item
        outside the carrier."""

        try:
            i, j = self._index.get(x), self._index.get(y)
        except TypeError:
            raise PreferenceError("carrier items must be hashable") from None
        return i is not None and j is not None and bool(self._better[i] >> j & 1)


def mask_of(items: Iterable[str], index: Mapping[str, int]) -> int:
    """The subset mask of items, each at its position in index."""

    mask = 0
    for x in items:
        mask |= 1 << index[x]
    return mask


def edges_of(better: Sequence[int], items: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """The edges the rows better hold, in edge bitmask order."""

    return tuple((x, y) for x, row in zip(items, better) for y in members(row, items))


def sorted_edges(rel: PreferenceRelation) -> list[list[str]]:
    """[list(e) for e in sorted(rel.edges)], read off the rows, so a
    relation made from its rows builds no edge set."""

    items, better = rel.carrier, rel._better
    return [
        [x, y]
        for i, x in sorted(enumerate(items), key=itemgetter(1))
        for y in sorted(members(better[i], items))
    ]


def _pool(items: Iterable[str], carrier: Iterable[str]) -> frozenset[str]:
    """items as a frozenset of carrier items, or a PreferenceError: the
    one check of a subset argument. It names the least outside item, or
    the one with the least repr when the outside items do not sort."""

    pool = _argument("items", "an iterable of carrier items", frozenset, items, PreferenceError)
    extra = pool.difference(carrier)
    if extra:
        try:
            first = sorted(extra)[0]
        except TypeError:
            first = min(extra, key=repr)
        raise PreferenceError(f"item {first!r} is not in the carrier")
    return pool


def undominated(rel: PreferenceRelation, items: Iterable[str]) -> frozenset[str]:
    """The choice set: members of items beaten by no other member."""

    index = _instance("rel", rel, PreferenceRelation, PreferenceError)._index
    pool = _pool(items, index)
    mask = mask_of(pool, index)
    dominators = rel._dominators
    return frozenset(x for x in pool if not dominators[index[x]] & mask)


def subsets_of(carrier: Sequence[str]) -> Iterator[frozenset[str]]:
    """All subsets in bitmask counter order; the order is stable."""

    items, _ = _carrier(carrier)
    return (frozenset(members(mask, items)) for mask in range(1 << len(items)))


class ChoiceFunction(Value):
    """A tabulated choice: one picked subset for every subset of the carrier.

    Totality over the powerset is enforced; whether the picks are
    actually subsets of their arguments is not, because the laws to be
    checked downstream include exactly that question.
"""

    def __init__(self, carrier: tuple[str, ...], table: dict[frozenset[str], frozenset[str]]):
        if not isinstance(table, Mapping):
            raise PreferenceError("choice table must be a mapping")
        if any(isinstance(x, str) for entry in table.items() for x in entry):
            raise PreferenceError("choice table must map sets of items to sets, not str")
        carrier, index = _carrier(carrier)
        try:
            table = {frozenset(k): frozenset(v) for k, v in table.items()}
        except TypeError:
            raise PreferenceError("choice table entries must be hashable sets of items") from None
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "table", table)
        expected = 1 << len(self.carrier)
        if len(self.table) != expected:
            raise PreferenceError(
                f"choice table has {len(self.table)} entries, expected {expected}"
            )
        # The chosen mask of each subset mask, as the kernel lays them out,
        # built while checking the entries; not part of eq, hash or repr.
        masks = [0] * expected
        for k, v in self.table.items():
            if not index.keys() >= k | v:
                raise PreferenceError("choice table mentions items outside the carrier")
            masks[mask_of(k, index)] = mask_of(v, index)
        object.__setattr__(self, "_masks", tuple(masks))

    def choose(self, items: Iterable[str]) -> frozenset[str]:
        return self.table[_pool(items, self.carrier)]


def choice_of(rel: PreferenceRelation) -> ChoiceFunction:
    """Tabulate the induced choice over the whole powerset."""

    if len(_instance("rel", rel, PreferenceRelation, PreferenceError).carrier) > CHOICE_CAP:
        raise PreferenceError(
            f"carrier of size {len(rel.carrier)} exceeds the tabulation cap {CHOICE_CAP}"
        )
    subsets = list(subsets_of(rel.carrier))
    masks = tuple(_choices(rel._better))
    return _checked(  # total and inside the carrier by construction
        ChoiceFunction,
        carrier=rel.carrier,
        table={subsets[xs]: subsets[chosen] for xs, chosen in enumerate(masks)},
        _masks=masks,
    )


def is_transitive(rel: PreferenceRelation) -> bool:
    return transitive_masks(_instance("rel", rel, PreferenceRelation, PreferenceError)._better)


def is_smooth(rel: PreferenceRelation) -> tuple[bool, tuple[frozenset[str], str] | None]:
    """Exhaustive smoothness check; returns the first failing (subset, item).

    Subsets are scanned in subsets_of order, items in carrier order.
    """

    _instance("rel", rel, PreferenceRelation, PreferenceError)
    failure = smooth_failure(rel._dominators, _choices(rel._better))
    if failure is None:
        return True, None
    xs, x = failure
    return False, (frozenset(members(xs, rel.carrier)), rel.carrier[x])


def is_ranked(rel: PreferenceRelation) -> tuple[bool, tuple[str, str, str] | None]:
    """Exhaustive rankedness check; returns the first failing triple.

    The failing triple (x, y, z) has x and y incomparable while z
    relates to one of them and not the other: z beats x but not y, or
    x beats z but y does not. x, y and z are scanned in carrier order.
    """

    _instance("rel", rel, PreferenceRelation, PreferenceError)
    failure = ranked_failure(rel._better, rel._dominators)
    if failure is None:
        return True, None
    x, y, z = failure
    items = rel.carrier
    return False, (items[x], items[y], items[z])


# ====================================================================
# Bitmask kernel
#
# A carrier of size n is the index range 0..n-1, in carrier order, and
# a subset is a mask over it. A relation is held as better[i] = mask of
# the elements i beats, with dominators[j] = mask of the elements
# beating j as the transpose. The induced choice is a table indexed by
# subset mask; mask_of and kb's members convert between subsets and
# masks. _choices streams it from the rows, better, in one recurrence
# over the subsets in mask order: beaten[xs], the elements some member
# of xs beats, is beaten[xs without its lowest member] | better[that
# member], one OR per subset, and the chosen members are
# xs & ~beaten[xs], as no element beats itself.
# Every scan ascends through indices and masks, which is carrier order
# and subsets_of order, so the first failure found is the same witness
# an element-wise scan would report. The functions above read the
# masks a relation builds when it is made; the repcheck sweeps build
# masks straight from edge bitmasks and call these directly.
# ====================================================================


def _choices(better: Sequence[int]) -> Iterator[int]:
    """The induced choice as a stream: for each subset mask, in mask
    order, its undominated members."""

    beaten = [0] * (1 << len(better))
    yield 0
    for xs in range(1, len(beaten)):
        low = xs & -xs
        beaten[xs] = beaten[xs ^ low] | better[low.bit_length() - 1]
        yield xs & ~beaten[xs]


def transitive_masks(better: Sequence[int]) -> bool:
    for row in better:
        for j in range(len(better)):
            if row >> j & 1 and better[j] & ~row:
                return False
    return True


def smooth_failure(
    dominators: Sequence[int], choice: Iterable[int]
) -> tuple[int, int] | None:
    """First (subset mask, index) left unchosen and beaten by nothing chosen.

    choice runs over the subsets in mask order; a stream suffices, so
    is_smooth stops at the first failure without tabulating the rest.
    """

    n = len(dominators)
    for xs, chosen in enumerate(choice):
        rest = xs & ~chosen
        for x in range(n):
            if rest >> x & 1 and not dominators[x] & chosen:
                return xs, x
    return None


def ranked_failure(
    better: Sequence[int], dominators: Sequence[int]
) -> tuple[int, int, int] | None:
    """First incomparable (x, y) that some z tells apart, with the lowest z.

    z tells x from y when z beats x but not y, or x beats z but y does
    not. Equal rows and columns rule every z out at once.
    """

    n = len(better)
    for x in range(n):
        for y in range(n):
            if x == y or better[x] >> y & 1 or better[y] >> x & 1:
                continue
            if better[x] == better[y] and dominators[x] == dominators[y]:
                continue
            bad = (dominators[x] & ~dominators[y]) | (better[x] & ~better[y])
            if bad:
                return x, y, (bad & -bad).bit_length() - 1
    return None


# ====================================================================
# Preferences over analogies
# ====================================================================


def _shared_basis(reports: Sequence[SupportReport]) -> tuple[SupportReport, ...]:
    """reports as a tuple, or a PreferenceError unless they are
    SupportReports with distinct analogy names, one working set and one
    domain pair."""

    reports = _items("reports", reports, SupportReport, PreferenceError)
    if not reports:
        return reports
    names = [r.analogy.name for r in reports]
    if len(set(names)) != len(names):
        raise PreferenceError("duplicate analogy name in reports")
    first = reports[0]
    for r in reports[1:]:
        if r.formulas != first.formulas:
            raise PreferenceError("reports do not share the working set")
        if (
            r.analogy.source != first.analogy.source
            or r.analogy.target != first.analogy.target
        ):
            raise PreferenceError("reports do not share the domain pair")
    return reports


def _support_relation(names, profiles, weights=None) -> PreferenceRelation:
    """The preference over names from each one's (positives, negatives):
    masks for dominance, counts for the count weights (wp, wn).

    The relation is built as its rows, with no edge made. Names with
    one profile form a group, held as one carrier mask, and every row
    is an OR of group masks. Dominance compares each pair of distinct
    profiles once. Counts sorts the distinct ranks: a rank beats every
    group with a higher rank and is beaten by every group with a lower
    one. No row holds its own position, as no profile beats itself.
    """

    carrier, index = _carrier(names)
    groups: dict = {}
    for i, profile in enumerate(profiles):
        groups[profile] = groups.get(profile, 0) | 1 << i
    keys, masks = list(groups), list(groups.values())
    beats, beaten = [0] * len(keys), [0] * len(keys)
    if weights is None:
        for i, (pa, na) in enumerate(keys):
            for j, (pb, nb) in enumerate(keys):
                if i != j and pa | pb == pa and na | nb == nb:
                    beats[i] |= masks[j]
                    beaten[j] |= masks[i]
    else:
        wp, wn = weights
        ranks = [wn * n - wp * p for p, n in keys]
        levels: dict = {}
        for rank, mask in zip(ranks, masks):
            levels[rank] = levels.get(rank, 0) | mask
        lower, seen = {}, 0  # each rank's lower ranks, which beat it
        for rank in sorted(levels):
            lower[rank] = seen
            seen |= levels[rank]
        for k, rank in enumerate(ranks):
            beaten[k] = lower[rank]
            beats[k] = seen & ~(lower[rank] | levels[rank])
    rows, columns = dict(zip(keys, beats)), dict(zip(keys, beaten))
    return _checked(
        PreferenceRelation,
        carrier=carrier,
        _index=index,
        _better=tuple(map(rows.__getitem__, profiles)),
        _dominators=tuple(map(columns.__getitem__, profiles)),
    )


def dominance_preference(reports: Sequence[SupportReport]) -> PreferenceRelation:
    """Prefer strictly better support: more positives, fewer negatives.

    An analogy is better than another when its positive set contains
    the other's, its negative set is contained in the other's, and the
    two profiles are not identical. The result is irreflexive and
    transitive by construction but usually partial.
    """

    reports = _shared_basis(reports)
    # A report need not draw its profile from formulas, so index them all.
    index: dict = {}
    for r in reports:
        for f in (*r.positive, *r.negative):
            index.setdefault(f, len(index))
    return _support_relation(
        tuple(r.analogy.name for r in reports),
        [(mask_of(r.positive, index), mask_of(r.negative, index)) for r in reports],
    )


def check_count_weights(
    positive_weight: int | Fraction, negative_weight: int | Fraction
) -> tuple[Fraction, Fraction]:
    """The two weights as Fractions, or a PreferenceError unless both
    are positive ints or Fractions (not bools)."""

    weights = (positive_weight, negative_weight)
    if any(isinstance(w, bool) or not isinstance(w, (int, Fraction)) for w in weights):
        raise PreferenceError("count weights must be rational numbers")
    wp, wn = map(Fraction, weights)
    if wp <= 0 or wn <= 0:
        raise PreferenceError("count weights must be positive")
    return wp, wn


def count_preference(
    reports: Sequence[SupportReport],
    positive_weight: int | Fraction = 1,
    negative_weight: int | Fraction = 1,
) -> PreferenceRelation:
    """Prefer the lower weighted count: negatives count against, positives for.

    rank = negative_weight * |negatives| - positive_weight * |positives|,
    and x is better than y when rank(x) < rank(y). Ties stay
    incomparable, which makes the relation ranked by construction.
    """

    weights = check_count_weights(positive_weight, negative_weight)
    reports = _shared_basis(reports)
    return _support_relation(
        tuple(r.analogy.name for r in reports),
        [(len(r.positive), len(r.negative)) for r in reports],
        weights,
    )
