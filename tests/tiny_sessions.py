"""Exhaustive tiny sessions for the law tests of entail.

Each side has the same objects and unary predicates, named a0, a1, ...
and P0, P1, ... in the source and b0, b1, ... and R0, R1, ... in the
target. The candidates are every predicate bijection times every object
bijection, the working set is every source atom, and every target atom
is a query.
"""

import itertools

# One atom's value as a fact line writes it; None leaves the atom unknown.
ATOM_VALUES = (None, "true", "false")


def atoms(objects, predicates, obj, pred):
    """The ground atoms of one side, as session text writes them."""

    return [f"{pred}{p}({obj}{o})" for p in range(predicates) for o in range(objects)]


def _analogies(objects, predicates):
    lines = []
    bijections = itertools.product(
        itertools.permutations(range(objects)), itertools.permutations(range(predicates))
    )
    for k, (sigma, pi) in enumerate(bijections):
        maps = [f"map a{o} -> b{t};" for o, t in enumerate(sigma)]
        maps += [f"map P{p} -> R{t};" for p, t in enumerate(pi)]
        lines.append(f"analogy m{k} from S to T {{ {' '.join(maps)} }}")
    return lines


def session_text(objects, predicates, source_facts, target_facts, preference=""):
    """The session over the two sides; facts map an atom to true or false."""

    def domain(name, obj, pred, facts):
        decls = [f"objects: {', '.join(f'{obj}{o}' for o in range(objects))};"]
        decls += [f"pred {pred}{p}/1;" for p in range(predicates)]
        decls += [f"fact {atom} = {value};" for atom, value in facts.items()]
        return f"domain {name} {{ {' '.join(decls)} }}"

    return "\n".join(
        [
            domain("S", "a", "P", source_facts),
            domain("T", "b", "R", target_facts),
            "source S;",
            "target T;",
            *_analogies(objects, predicates),
            "workingset atoms;",
            preference,
            *(f"query {atom};" for atom in atoms(objects, predicates, "b", "R")),
        ]
    )


def assignments(atom_names):
    """Every true/false/unknown assignment to the atoms, unknown left out."""

    for values in itertools.product(ATOM_VALUES, repeat=len(atom_names)):
        yield {a: v for a, v in zip(atom_names, values) if v is not None}


def tiny_sessions(objects, predicates):
    """(source facts, target facts) for every assignment to both sides."""

    source = atoms(objects, predicates, "a", "P")
    target = atoms(objects, predicates, "b", "R")
    for source_facts in assignments(source):
        for target_facts in assignments(target):
            yield source_facts, target_facts
