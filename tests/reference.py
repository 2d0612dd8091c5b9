"""Per-call reference implementations of the support pipeline.

These translate every working sentence afresh on each call, exactly as
the engine did before translation tables: classify, the injectivity
check, closure, the augmented report and an analogy's conjecture for a
query. The table-based engine must agree with them; see
test_tables_oracle.py.
"""

from analogia import (
    AnalogyError,
    AugmentedReport,
    Guard,
    SupportReport,
    TranslationError,
    TruthValue,
    check_formula,
    combine,
    evaluate,
    translate,
)


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
        vs = evaluate(f, amap.source).value
        vt = evaluate(image, amap.target).value
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
        if evaluate(f, amap.source).value is TruthValue.TRUE:
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
            return v.value if v.known else None
    return None
