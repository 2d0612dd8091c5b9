"""Exhaustive sentence generation for the property and acceptance tests."""

import itertools

from analogia.formula import And, Atom, Const, Exists, Forall, Implies, Not, Or, Var


def _fresh_var_names(sig, count):
    names = []
    i = 0
    while len(names) < count:
        cand = f"v{i}"
        if sig.kind_of(cand) is None:
            names.append(cand)
        i += 1
    return tuple(names)


def sentences_up_to_depth(sig, max_depth, max_quantifier_vars=2):
    """All sentences of AST depth at most max_depth, deduplicated.

    Terms are constants and bound variables only; function symbols are
    ignored here to keep the closure finite and small. Variables are
    drawn from a fixed fresh pool, so alpha-variants do not inflate the
    count. The result grows steeply with depth.
    """

    pool = _fresh_var_names(sig, max_quantifier_vars)

    def atoms(scope):
        terms = [Const(c) for c in sig.constants] + [Var(v) for v in scope]
        return [
            Atom(pred, tuple(combo))
            for pred, arity in sig.predicates
            for combo in itertools.product(terms, repeat=arity)
        ]

    def gen(depth, scope):
        if depth <= 1:
            return atoms(scope)
        prev = gen(depth - 1, scope)
        out = dict.fromkeys(prev)
        for f in prev:
            out.setdefault(Not(f), None)
        for f, g in itertools.product(prev, prev):
            out.setdefault(And(f, g), None)
            out.setdefault(Or(f, g), None)
            out.setdefault(Implies(f, g), None)
        if len(scope) < len(pool):
            var = pool[len(scope)]
            for body in gen(depth - 1, scope + (var,)):
                out.setdefault(Forall(var, body), None)
                out.setdefault(Exists(var, body), None)
        return list(out)

    return gen(max_depth, ())
