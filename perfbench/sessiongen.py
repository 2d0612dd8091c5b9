"""Seeded generator of analogia session files.

Every session has a source domain S (objects s0.., unary predicates
P0.., binary predicates R0..) and a target domain T (objects t0..,
two target predicates per source predicate, so rival analogies can
disagree). Each analogy maps the source objects by a random
permutation and each source predicate to one of its two target
predicates.

The parameters are the axes that drive the engine's cost: objects,
predicate arities, analogies, working set (`workingset atoms` or a
number of quantified sentences), closure on/off, target fact density,
preference kind and queries. The same parameters and seed give
byte-identical text: all randomness comes from one random.Random
seeded with a string, and nothing iterates over an unordered set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class SessionParams:
    objects: int
    unary: int
    binary: int
    analogies: int
    closure: bool
    # None selects `workingset atoms`; a number asks for that many
    # quantified sentences.
    sentences: int | None
    target_density: float
    preference: str  # "dominance" or "counts"
    queries: int


_CONNECTIVES = ("&", "|", "->")
# Share of source atoms given a fact, and the deepest quantifier nesting
# of a working sentence; neither is a workload axis.
SOURCE_DENSITY = 0.9
MAX_QUANTIFIERS = 2


def _preds(params: SessionParams, prefix_unary: str, prefix_binary: str, copies: int):
    unary = [(f"{prefix_unary}{i}", 1) for i in range(params.unary * copies)]
    binary = [(f"{prefix_binary}{i}", 2) for i in range(params.binary * copies)]
    return unary + binary


def _facts(rng: random.Random, preds, objects, density: float) -> list[str]:
    lines = []
    for name, arity in preds:
        tuples = [(o,) for o in objects] if arity == 1 else [
            (a, b) for a in objects for b in objects
        ]
        for args in tuples:
            if rng.random() < density:
                value = "true" if rng.random() < 0.5 else "false"
                lines.append(f"  fact {name}({', '.join(args)}) = {value};")
    return lines


def _domain(name: str, objects, preds, facts) -> list[str]:
    lines = [f"domain {name} {{", f"  objects: {', '.join(objects)};"]
    lines += [f"  pred {p}/{a};" for p, a in preds]
    lines += facts
    lines.append("}")
    return lines


def _render(f, rename: dict[str, str]) -> str:
    """Fully parenthesised text of a formula tuple, with symbols renamed."""

    kind = f[0]
    if kind == "atom":
        args = ", ".join(rename.get(a, a) for a in f[2])
        return f"{rename.get(f[1], f[1])}({args})"
    if kind == "not":
        return f"!{_operand(f[1], rename)}"
    if kind in _CONNECTIVES:
        return f"{_operand(f[1], rename)} {kind} {_operand(f[2], rename)}"
    return f"{kind} {f[1]}. {_operand(f[2], rename)}"


def _operand(f, rename: dict[str, str]) -> str:
    text = _render(f, rename)
    return text if f[0] == "atom" else f"({text})"


def _random_sentence(rng: random.Random, preds, objects, depth: int, size: int):
    """A closed formula: depth nested quantifiers over a body of size atoms."""

    variables = [f"v{i}" for i in range(depth)]

    def term(scope):
        if scope and rng.random() < 0.8:
            return rng.choice(scope)
        return rng.choice(objects)

    def atom(scope):
        name, arity = rng.choice(preds)
        return ("atom", name, tuple(term(scope) for _ in range(arity)))

    def body(scope, size):
        if size <= 1:
            f = atom(scope)
            return ("not", f) if rng.random() < 0.25 else f
        left = rng.randint(1, size - 1)
        op = rng.choice(_CONNECTIVES)
        return (op, body(scope, left), body(scope, size - left))

    def nest(i):
        scope = variables[: i + 1]
        quant = rng.choice(("forall", "exists"))
        inner = nest(i + 1) if i + 1 < depth else body(scope, size)
        if i + 1 < depth and rng.random() < 0.5:
            inner = (rng.choice(_CONNECTIVES), atom(scope), inner)
        return (quant, variables[i], inner)

    return nest(0)


def generate(params: SessionParams, seed: str) -> str:
    """Session text for the parameters; equal inputs give equal bytes."""

    rng = random.Random(f"analogia-perfbench:{seed}")
    src_objects = [f"s{i}" for i in range(params.objects)]
    tgt_objects = [f"t{i}" for i in range(params.objects)]
    src_preds = _preds(params, "P", "R", 1)
    tgt_preds = _preds(params, "A", "B", 2)

    lines = _domain(
        "S", src_objects, src_preds,
        _facts(rng, src_preds, src_objects, SOURCE_DENSITY),
    )
    lines += _domain(
        "T", tgt_objects, tgt_preds,
        _facts(rng, tgt_preds, tgt_objects, params.target_density),
    )
    lines += ["source S;", "target T;", f"closure {'on' if params.closure else 'off'};"]

    # Each source predicate has two candidate images, and for each
    # predicate half of the analogies take either one. The balance keeps
    # the number of analogy pairs that can collide under closure, and so
    # the closure's size, alike across seeds.
    choices = {}
    for i, (p, arity) in enumerate(src_preds):
        picks = [k % 2 for k in range(params.analogies)]
        rng.shuffle(picks)
        index = 2 * (i if arity == 1 else i - params.unary)
        names = [q for q, a in tgt_preds if a == arity][index : index + 2]
        choices[p] = [names[pick] for pick in picks]
    maps: list[dict[str, str]] = []
    for k in range(params.analogies):
        mapping = dict(zip(src_objects, rng.sample(tgt_objects, len(tgt_objects))))
        mapping.update((p, choices[p][k]) for p, _ in src_preds)
        maps.append(mapping)
        lines.append(f"analogy m{k} from S to T {{")
        lines += [f"  map {s} -> {t};" for s, t in mapping.items()]
        lines.append("}")

    if params.sentences is None:
        lines.append("workingset atoms;")
        working = [
            ("atom", p, args)
            for p, a in src_preds
            for args in (
                [(o,) for o in src_objects]
                if a == 1
                else [(x, y) for x in src_objects for y in src_objects]
            )
        ]
    else:
        # Depth and body size follow a fixed cycle rather than the
        # random stream: evaluation cost grows as objects**depth, and
        # the cycle keeps it alike across seeds.
        working = [
            _random_sentence(
                rng, src_preds, src_objects, 1 + i % MAX_QUANTIFIERS, 1 + i % 3
            )
            for i in range(params.sentences)
        ]
        lines.append("workingset {")
        lines += [f"  {_render(f, {})};" for f in working]
        lines.append("}")

    if params.preference == "counts":
        lines.append(f"preference counts({rng.randint(1, 3)}, {rng.randint(1, 3)});")
    else:
        lines.append("preference dominance;")

    # Most queries are images of working sentences, so the skeptical
    # path has suggestions to weigh; the rest are arbitrary target atoms.
    queries: list[str] = []
    while len(queries) < params.queries:
        if rng.random() < 0.75:
            text = _render(rng.choice(working), rng.choice(maps))
        else:
            name, arity = rng.choice(tgt_preds)
            text = f"{name}({', '.join(rng.choice(tgt_objects) for _ in range(arity))})"
        if text not in queries:
            queries.append(text)
    lines += [f"query {q};" for q in queries]
    return "\n".join(lines) + "\n"
