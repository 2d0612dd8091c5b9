"""Which law-obeying choice tables a plain relation of a class induces.

The repcheck module docstring states the characterization: a table
obeying a class's laws is induced by a relation of the class exactly
when it also meets S (singletons pick themselves), gamma (Sen's
expansion condition) and B (its base relation lies in the class).
The checks here read a ChoiceFunction's sets directly and share no
code with the bitmask kernel behind the sweeps and the relation
checks: B uses the set-based class check in reference.py. The laws
themselves come from check_property.
"""

import functools
import itertools

from analogia import (
    ChoiceFunction,
    PreferenceRelation,
    check_property,
    subsets_of,
)
from analogia.repcheck import CLASS_PROPERTIES

import reference

CONDITIONS = ("S", "gamma", "B")


def table_key(cf):
    """A hashable form of a choice table, comparable across sources."""
    return frozenset(cf.table.items())


def violation_key(violation):
    """table_key of the table a completeness violation names."""
    return frozenset(
        (frozenset(xs), frozenset(picked)) for xs, picked in violation.choice_table
    )


@functools.cache
def all_tables(items):
    """Every choice table on items with cf(X) a subset of X."""
    subsets = list(subsets_of(items))
    picks = [list(subsets_of(tuple(x for x in items if x in xs))) for xs in subsets]
    return tuple(
        ChoiceFunction(items, dict(zip(subsets, choice)))
        for choice in itertools.product(*picks)
    )


def obeys_laws(cf, cls):
    return all(check_property(cf, prop)[0] for prop in CLASS_PROPERTIES[cls])


def base_relation(cf):
    """y beats x exactly when x is not picked from the pair {x, y}."""
    return PreferenceRelation(
        cf.carrier,
        {
            (y, x)
            for x in cf.carrier
            for y in cf.carrier
            if x != y and x not in cf.choose((x, y))
        },
    )


def first_failed_condition(cf, cls):
    """The first of S, gamma and B that cf fails, or None."""
    if any(cf.choose((x,)) != {x} for x in cf.carrier):
        return "S"
    table = cf.table
    for xs, ys in itertools.product(table, repeat=2):
        if not table[xs] & table[ys] <= table[xs | ys]:
            return "gamma"
    if not reference.relation_in_class(base_relation(cf), cls):
        return "B"
    return None


@functools.cache
def law_obeying_tables(items, cls):
    """Each table on items obeying cls's laws, with its first failed condition."""
    return tuple(
        (cf, first_failed_condition(cf, cls))
        for cf in all_tables(items)
        if obeys_laws(cf, cls)
    )
