"""Reference implementations the engine is checked against.

The support pipeline: these translate every working sentence afresh on
each call, exactly as the engine did before translation tables:
classify, the injectivity check, closure, the augmented report and an
analogy's conjecture for a query. The table-based engine must agree
with them; see test_tables_oracle.py.

count_preference compares the Fraction ranks of every ordered pair of
reports, as the engine did before it compared rank positions.

The relation kernel: set-based loops over a relation's edges for the
induced choice, transitivity, smoothness and rankedness, with the same
first-failing witnesses, and the class check built on them. The
bitmask kernel in analogia.preference must agree with them; see
test_preference.py.
"""

from analogia import (
    AnalogyError,
    AugmentedReport,
    ChoiceFunction,
    Guard,
    PreferenceError,
    PreferenceRelation,
    SupportReport,
    TranslationError,
    TruthValue,
    check_formula,
    combine,
    evaluate,
    subsets_of,
    translate,
)
from fractions import Fraction

from analogia.repcheck import RelationClass


def classify(amap, formulas):
    for f in formulas:
        check_formula(f, amap.source.signature)
    positive, negative, open_, not_applicable, untranslatable = [], [], [], [], []
    conjectures, images = {}, {}
    for f in formulas:
        try:
            image = translate(amap, f)
        except TranslationError:
            untranslatable.append(f)
            continue
        images[f] = image
        vs = evaluate(f, amap.source)
        vt = evaluate(image, amap.target)
        if not vs.known:
            not_applicable.append(f)
        elif not vt.known:
            open_.append(f)
            conjectures[f] = vs
        elif vs is vt:
            positive.append(f)
        else:
            negative.append(f)
    return SupportReport(
        analogy=amap,
        formulas=tuple(formulas),
        positive=tuple(positive),
        negative=tuple(negative),
        open=tuple(open_),
        not_applicable=tuple(not_applicable),
        untranslatable=tuple(untranslatable),
        conjectures=conjectures,
        images=images,
    )


def check_injective_on(amap, formulas):
    seen = {}
    for f in dict.fromkeys(formulas):
        try:
            image = translate(amap, f)
        except TranslationError:
            continue
        if image in seen:
            raise AnalogyError(
                f"analogy {amap.name!r}: translation is not injective on the "
                f"working set ({seen[image]} and {f} share an image)"
            )
        seen[image] = f


def close_under_combination(analogies, working_set):
    out = list(analogies)
    if not analogies:
        return tuple(out)
    constants = analogies[0].source.signature.constants
    taken = {a.name for a in analogies}
    for a in analogies:
        for b in analogies:
            if a.name == b.name:
                continue
            for c in constants:
                rest = frozenset(constants) - {c}
                if not rest:
                    continue
                name = f"{a.name}+{b.name}@{c}"
                if name in taken:
                    continue
                try:
                    combo = combine(
                        a, b, Guard.mentions({c}), Guard.mentions(rest), name=name
                    )
                    check_injective_on(combo, working_set)
                except AnalogyError:
                    continue
                out.append(combo)
                taken.add(name)
    return tuple(out)


def augmented_report(amap, formulas):
    report = classify(amap, formulas)
    neg_true, neg_false = [], []
    for f in report.negative:
        if evaluate(f, amap.source) is TruthValue.TRUE:
            neg_true.append((f, report.images[f]))
        else:
            neg_false.append((f, report.images[f]))
    return AugmentedReport(
        analogy=amap,
        positive_pairs=tuple((f, report.images[f]) for f in report.positive),
        negative_source_true=tuple(neg_true),
        negative_source_false=tuple(neg_false),
        plausible=tuple(
            (f, report.images[f], report.conjectures[f]) for f in report.open
        ),
    )


def conjecture_for(space, analogy_name, query):
    a = space.analogy(analogy_name)
    for f in space.working_set:
        try:
            image = translate(a, f)
        except TranslationError:
            continue
        if image == query:
            v = evaluate(f, space.source)
            return v if v.known else None
    return None


def count_preference(reports, positive_weight=1, negative_weight=1):
    wp, wn = Fraction(positive_weight), Fraction(negative_weight)
    names = tuple(r.analogy.name for r in reports)
    rank = {
        r.analogy.name: wn * len(r.negative) - wp * len(r.positive) for r in reports
    }
    edges = frozenset(
        (a, b) for a in names for b in names if a != b and rank[a] < rank[b]
    )
    return PreferenceRelation(carrier=names, edges=edges)


def undominated(rel, items):
    pool = frozenset(items)
    extra = pool - set(rel.carrier)
    if extra:
        raise PreferenceError(f"item {sorted(extra)[0]!r} is not in the carrier")
    return frozenset(
        x for x in pool if not any((y, x) in rel.edges for y in pool if y != x)
    )


def choice_of(rel):
    return ChoiceFunction(
        carrier=rel.carrier,
        table={xs: undominated(rel, xs) for xs in subsets_of(rel.carrier)},
    )


def is_transitive(rel):
    for x, y in rel.edges:
        for y2, z in rel.edges:
            if y2 == y and (x, z) not in rel.edges:
                return False
    return True


def is_smooth(rel):
    for xs in subsets_of(rel.carrier):
        chosen = undominated(rel, xs)
        for x in rel.carrier:
            if x not in xs or x in chosen:
                continue
            if not any((y, x) in rel.edges for y in chosen):
                return False, (xs, x)
    return True, None


def is_ranked(rel):
    for x in rel.carrier:
        for y in rel.carrier:
            if (x, y) in rel.edges or (y, x) in rel.edges:
                continue
            for z in rel.carrier:
                if (z, x) in rel.edges and (z, y) not in rel.edges:
                    return False, (x, y, z)
                if (x, z) in rel.edges and (y, z) not in rel.edges:
                    return False, (x, y, z)
    return True, None


def relation_in_class(rel, cls):
    if cls is RelationClass.ALL:
        return True
    if cls is RelationClass.TRANSITIVE_SMOOTH:
        return is_transitive(rel) and is_smooth(rel)[0]
    return is_ranked(rel)[0]
