"""Translation tables agree with the per-call reference on random domain pairs.

classify, the augmented report, the injectivity check, closure and an
analogy's conjecture for a query all read one translation table per
analogy. reference.py keeps the implementations that translate every
working sentence on each call; here both run on generated pairs of
small three-valued domains, generated analogies and working sets:

  * one-piece and piecewise analogies, some partial, so that some
    sentences cannot be carried over and some closure combinations
    keep a single guarded piece or none at all;
  * sentences with no constants and sentences mixing several;
  * bound variables named like a target object, so translation primes,
    and sentences that differ only in such a name;
  * working sets with repeated sentences.
"""

import itertools
import re

from hypothesis import given, settings, strategies as st

import reference
from analogia import (
    AnalogyError,
    AnalogySpace,
    Signature,
    TranslationError,
    TranslationTables,
    analogy_map,
    make_domain,
    parse_formula,
)
from analogia.analogy import (
    AnalogyMap,
    AnalogyPiece,
    Guard,
    augmented_report,
    check_injective_on,
    classify,
    close_under_combination,
    translate,
)
from analogia.entailment import conjecture_for
from analogia.formula import ground_atom_formulas
from analogia.preference import PreferenceRelation

SOURCE_CONSTANTS = ("a", "b", "c")
SOURCE_PREDICATES = (("P", 1), ("Q", 1), ("R", 2))
SOURCE_FUNCTIONS = (("f", 1),)
# "x" names a target object and is also a bound variable below, so
# translating a sentence that binds x must prime it (to x', or x'' when
# x' is bound too).
TARGET_OBJECTS = ("x", "y", "z")
TARGET_PREDICATES = (("Pa", 1), ("Pb", 1), ("Qa", 1), ("Ra", 2), ("Rb", 2))
TARGET_FUNCTIONS = (("fa", 1), ("fb", 1))
VARIABLES = ("x", "x'", "v")


@st.composite
def domains(draw, name, constants, predicates, functions):
    facts = []
    for pred, arity in predicates:
        for args in itertools.product(constants, repeat=arity):
            value = draw(st.sampled_from((True, False, None)))
            if value is not None:
                facts.append((pred, args, value))
    interp = {
        (func, (e,)): draw(st.sampled_from(constants))
        for func, _ in functions
        for e in constants
    }
    sig = Signature(name, constants, predicates, functions)
    return make_domain(sig, constants, func_interp=interp, facts=facts)


@st.composite
def symbol_maps(draw, source, target):
    """A partial, injective, kind- and arity-preserving symbol map."""

    s, t = source.signature, target.signature
    groups = [(s.constants, t.constants)]
    for arity in (1, 2):
        groups.append(
            (
                tuple(n for n, a in s.predicates if a == arity),
                tuple(n for n, a in t.predicates if a == arity),
            )
        )
    groups.append((tuple(n for n, _ in s.functions), tuple(n for n, _ in t.functions)))
    mapping = {}
    for src, tgt in groups:
        for sym, image in zip(src, draw(st.permutations(tgt))):
            if draw(st.integers(0, 3)):  # keep three symbols in four
                mapping[sym] = image
    return mapping


@st.composite
def analogies(draw, name, source, target):
    constants = source.signature.constants
    side = draw(
        st.lists(
            st.sampled_from((0, 1, None)), min_size=len(constants), max_size=len(constants)
        )
    )
    guards = [
        frozenset(c for c, g in zip(constants, side) if g == piece) for piece in (0, 1)
    ]
    if draw(st.booleans()) or not all(guards):
        return analogy_map(name, source, target, draw(symbol_maps(source, target)))
    pieces = tuple(
        AnalogyPiece(Guard.mentions(g), draw(symbol_maps(source, target))) for g in guards
    )
    return AnalogyMap(name, source, target, pieces)


@st.composite
def sentences(draw, constants):
    def term(scope, depth):
        options = list(constants) + list(scope)
        if depth > 0 and draw(st.integers(0, 4)) == 0:
            return f"f({term(scope, depth - 1)})"
        return draw(st.sampled_from(options))

    def formula(scope, depth):
        kinds = ["P", "Q", "R"]
        if depth > 0:
            kinds += ["!", "&", "|", "->", "forall", "exists", "forall", "exists"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("P", "Q"):
            return f"{kind}({term(scope, depth)})"
        if kind == "R":
            return f"R({term(scope, depth)}, {term(scope, depth)})"
        if kind == "!":
            return f"!({formula(scope, depth - 1)})"
        if kind in ("&", "|", "->"):
            return f"({formula(scope, depth - 1)}) {kind} ({formula(scope, depth - 1)})"
        var = draw(st.sampled_from(VARIABLES))
        return f"{kind} {var}. ({formula(scope + (var,), depth - 1)})"

    return formula((), draw(st.integers(0, 3)))


@st.composite
def cases(draw):
    constants = SOURCE_CONSTANTS[: draw(st.integers(2, 3))]
    source = draw(domains("S", constants, SOURCE_PREDICATES, SOURCE_FUNCTIONS))
    target = draw(domains("T", TARGET_OBJECTS, TARGET_PREDICATES, TARGET_FUNCTIONS))
    maps = tuple(
        draw(analogies(f"m{i}", source, target)) for i in range(draw(st.integers(1, 3)))
    )
    atoms = ground_atom_formulas(source.signature)
    texts = draw(st.lists(sentences(constants), max_size=6))
    # Renaming x to x' gives a distinct sentence that can translate to
    # the same image, since translation primes a bound x.
    texts += [re.sub(r"\bx\b", "x'", t) for t in texts if draw(st.booleans())]
    working = [parse_formula(t) for t in texts]
    working += draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=10))
    working += draw(st.lists(st.sampled_from(working), max_size=3))
    return source, target, maps, tuple(working)


def outcome(check, *args):
    """None when check passes, else the AnalogyError text it raises."""

    try:
        check(*args)
    except AnalogyError as err:
        return str(err)
    return None


def images_of(amap, working):
    out = []
    for f in working:
        try:
            out.append(translate(amap, f))
        except TranslationError:
            pass
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cases())
def test_tables_agree_with_the_per_call_reference(case):
    source, target, maps, working = case
    for amap in maps:
        assert classify(amap, working) == reference.classify(amap, working)
        assert augmented_report(amap, working) == reference.augmented_report(amap, working)
        assert outcome(check_injective_on, amap, working) == outcome(
            reference.check_injective_on, amap, working
        )

    closed = close_under_combination(maps, working)
    expected = reference.close_under_combination(maps, working)
    assert [m.name for m in closed] == [m.name for m in expected]
    assert closed == expected

    tables = TranslationTables(source, target, working)
    for amap in closed:
        assert tables.classify(amap) == reference.classify(amap, working)
        assert tables.augmented_report(amap) == reference.augmented_report(amap, working)

    injective = [
        m for m in closed if outcome(reference.check_injective_on, m, working) is None
    ]
    space = AnalogySpace(
        tables=TranslationTables(source, target, working),
        analogies=injective,
        preference=PreferenceRelation(tuple(m.name for m in injective), frozenset()),
    )
    queries = [image for m in closed for image in images_of(m, working)]
    queries.append(parse_formula("Pa(x)"))
    for amap in injective:
        for query in queries:
            assert conjecture_for(space, amap.name, query) == reference.conjecture_for(
                space, amap.name, query
            )


def test_closure_drops_combinations_left_with_one_guarded_piece():
    sig = Signature("S", SOURCE_CONSTANTS, (("P", 1),), ())
    source = make_domain(sig, SOURCE_CONSTANTS, facts=[("P", ("a",), True)])
    target = make_domain(
        Signature("T", TARGET_OBJECTS, (("Pa", 1),), ()),
        TARGET_OBJECTS,
        facts=[("Pa", ("x",), True)],
    )
    symbols = {"P": "Pa", "a": "x", "b": "y", "c": "z"}
    halves = AnalogyMap(
        "halves",
        source,
        target,
        (
            AnalogyPiece(Guard.mentions({"a"}), symbols),
            AnalogyPiece(Guard.mentions({"c"}), symbols),
        ),
    )
    whole = analogy_map("whole", source, target, symbols)
    working = tuple(parse_formula(f"P({c})") for c in SOURCE_CONSTANTS)
    closed = close_under_combination((halves, whole), working)
    # halves+whole@b keeps no halves piece and so only whole's guarded
    # piece; whole+halves@a keeps whole's piece and halves' c-piece.
    names = [m.name for m in closed]
    assert "halves+whole@b" not in names
    assert "whole+halves@a" in names
    assert names == [m.name for m in reference.close_under_combination((halves, whole), working)]
