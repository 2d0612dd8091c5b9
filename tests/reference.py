"""Reference implementations the engine is checked against.

The support pipeline: these translate every working sentence afresh on
each call, exactly as the engine did before translation tables:
classify, the injectivity check, closure, the augmented report and an
analogy's conjecture for a query. The table-based engine must agree
with them; see test_tables_oracle.py.

count_preference compares the Fraction ranks of every ordered pair of
reports, as the engine did before it compared rank positions.
dominance_preference compares every ordered pair's positive and
negative frozensets, as the engine did before it compared masks. Both
leave the checks that reports share one basis to the engine.

The evaluator: reference_evaluate walks the tree recursively and folds
each quantifier over the whole universe, as the engine did before it
compiled sentences; the compiled evaluate must agree with it, see
test_formula.py.

The scanner: reference_tokenize walks the text one character at a time
against explicit character sets, as the engine did before it matched
one compiled pattern, and lists each token as (kind, text, line,
column). tokenize's texts, with their kinds told from the text and the
positions token_positions gives them, must agree with it token for
token and error for error; see test_formula.py.

The relation kernel: set-based loops over a relation's edges for the
induced choice, transitivity, smoothness and rankedness, with the same
first-failing witnesses, and the class check built on them. The
bitmask kernel in analogia.preference must agree with them; see
test_preference.py.
"""

from fractions import Fraction

from analogia import (
    AnalogyError,
    FormulaError,
    ParseError,
    PreferenceError,
    TranslationError,
    TruthValue,
    check_formula,
    evaluate,
)
from analogia.analogy import AugmentedReport, Guard, SupportReport, combine, translate
from analogia.formula import (
    And,
    Atom,
    Const,
    Exists,
    Forall,
    FuncApp,
    Implies,
    Not,
    Or,
    Var,
)
from analogia.preference import ChoiceFunction, PreferenceRelation, subsets_of
from analogia.repcheck import RelationClass


def reduce_term(t, domain, env):
    """The universe element a term denotes under env (variable -> element)."""

    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise FormulaError(f"free variable {t.name!r}") from None
    if isinstance(t, Const):
        try:
            return domain.const_interp[t.name]
        except KeyError:
            raise FormulaError(f"unknown symbol {t.name!r}") from None
    if isinstance(t, FuncApp):
        args = tuple(reduce_term(a, domain, env) for a in t.args)
        try:
            return domain.func_interp[(t.func, args)]
        except KeyError:
            raise FormulaError(f"no interpretation for {t.func}({', '.join(args)})") from None
    raise FormulaError(f"not a term node: {t!r}")


def _ev(f, d, env):
    TV = TruthValue
    if isinstance(f, Atom):
        args = tuple(reduce_term(t, d, env) for t in f.args)
        return d.fact_value((f.predicate, args))
    if isinstance(f, Not):
        return _ev(f.body, d, env).negate()
    if isinstance(f, And):
        left = _ev(f.left, d, env)
        if left is TV.FALSE:
            return TV.FALSE
        right = _ev(f.right, d, env)
        if right is TV.FALSE:
            return TV.FALSE
        if left is TV.TRUE and right is TV.TRUE:
            return TV.TRUE
        return TV.UNKNOWN
    if isinstance(f, Or):
        left = _ev(f.left, d, env)
        if left is TV.TRUE:
            return TV.TRUE
        right = _ev(f.right, d, env)
        if right is TV.TRUE:
            return TV.TRUE
        if left is TV.FALSE and right is TV.FALSE:
            return TV.FALSE
        return TV.UNKNOWN
    if isinstance(f, Implies):
        left = _ev(f.left, d, env)
        if left is TV.FALSE:
            return TV.TRUE
        right = _ev(f.right, d, env)
        if right is TV.TRUE:
            return TV.TRUE
        if left is TV.TRUE and right is TV.FALSE:
            return TV.FALSE
        return TV.UNKNOWN
    if isinstance(f, (Forall, Exists)):
        # Fold over the universe; the accumulator mirrors the binary
        # connective so the quantifier agrees with the explicit fold.
        hit_unknown = False
        short = TV.FALSE if isinstance(f, Forall) else TV.TRUE
        saved = env.get(f.var)
        had = f.var in env
        try:
            for e in d.universe:
                env[f.var] = e
                v = _ev(f.body, d, env)
                if v is short:
                    return short
                if v is TV.UNKNOWN:
                    hit_unknown = True
        finally:
            if had:
                env[f.var] = saved
            else:
                env.pop(f.var, None)
        if hit_unknown:
            return TV.UNKNOWN
        return short.negate()
    raise FormulaError(f"not a formula node: {f!r}")


def reference_evaluate(f, domain):
    return _ev(f, domain, {})


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = set("0123456789")
_IDENT_CONT = _IDENT_START | _DIGITS | {"'"}
_SINGLE_SYMBOLS = set("!&|(){},;:.=/")


def reference_tokenize(text):
    out = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _IDENT_START:
            start, start_col = i, col
            while i < n and text[i] in _IDENT_CONT:
                i += 1
                col += 1
            out.append(("ident", text[start:i], line, start_col))
            continue
        if ch in _DIGITS:
            start, start_col = i, col
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            out.append(("number", text[start:i], line, start_col))
            continue
        if text.startswith("->", i):
            out.append(("symbol", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE_SYMBOLS:
            out.append(("symbol", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(("eof", "", line, col))
    return out


def classify(amap, formulas):
    for f in formulas:
        check_formula(f, amap.source.signature)
    positive, negative, open_, not_applicable, untranslatable = [], [], [], [], []
    conjectures = {}
    for f in formulas:
        try:
            image = translate(amap, f)
        except TranslationError:
            untranslatable.append(f)
            continue
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
    paired = report.positive + report.negative + report.open
    images = {f: translate(amap, f) for f in paired}
    neg_true, neg_false = [], []
    for f in report.negative:
        if evaluate(f, amap.source) is TruthValue.TRUE:
            neg_true.append((f, images[f]))
        else:
            neg_false.append((f, images[f]))
    return AugmentedReport(
        analogy=amap,
        positive_pairs=tuple((f, images[f]) for f in report.positive),
        negative_source_true=tuple(neg_true),
        negative_source_false=tuple(neg_false),
        plausible=tuple(
            (f, images[f], report.conjectures[f]) for f in report.open
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


def dominance_preference(reports):
    names = tuple(r.analogy.name for r in reports)
    pos = {r.analogy.name: frozenset(r.positive) for r in reports}
    neg = {r.analogy.name: frozenset(r.negative) for r in reports}
    edges = set()
    for a in names:
        for b in names:
            if a == b:
                continue
            if pos[a] >= pos[b] and neg[a] <= neg[b] and (
                pos[a] != pos[b] or neg[a] != neg[b]
            ):
                edges.add((a, b))
    return PreferenceRelation(carrier=names, edges=frozenset(edges))


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
