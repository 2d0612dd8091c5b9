"""Session files: one text format that ties the whole pipeline together.

A session declares finite domains, designates one as source and one as
target, lists analogy maps between them, fixes a working set of source
sentences, optionally picks a preference policy, and asks queries in
the target language. The format:

    domain S {
      objects: x, y;
      pred P/1;
      func f/1;
      interp f(x) = y;
      fact P(x) = true;
    }
    source S;
    target T;
    closure on;
    analogy first from S to T {
      map P -> Pa;
      map x -> u;
    }
    workingset { P(x); forall v. (P(v) -> Q(v)); }
    preference dominance;
    query Pa(u);

Objects double as constants naming themselves. Piecewise analogies
wrap their map lines in `piece when mentions {x} { ... }` blocks.
`workingset atoms;` abbreviates every ground atom of the source
signature. Preferences are `dominance` (the default), `counts(w1, w2)`
with positive weights for positives and negatives, or `explicit {
prefer a over b; }` lines. `closure on` extends the declared analogies
with their pairwise single-constant combinations before any command
runs. Comments run from '#' to end of line. Only domain, analogy and
query statements may repeat. A fact or interp line may repeat another
with the same value; with a different value it is an error, reported
before any other fault in the domain's facts and interps.

Sessions are values: declaration order is normalized away everywhere
it has no meaning (domains and analogies sort by name) and kept where
it does (working set, queries, pieces). print_session emits a
canonical text whose reparse equals the original session. Any syntax
error, reported with line and column, comes before a semantic error.

parse_session reads the text through a FactLineStream, which takes
each well-formed fact line as one token, whose parts fact_line takes
with one findall; every other statement goes through the TokenStream
parser. Where that read
raises a ParseError, which has no position there, the text is read
again through tokenize alone, whose result or positioned error is the
one returned: both reads give the same statements wherever the first
one succeeds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import repcheck as repcheck_mod
from .analogy import (
    AnalogyMap,
    AnalogyPiece,
    Guard,
    TranslationTables,
    straight_rule,
)
from .entailment import AnalogySpace
from .entailment import best as best_names
from .entailment import entail
from .errors import (
    DomainError,
    ParseError,
    PreferenceError,
    RepcheckError,
    SessionError,
    SignatureError,
)
from .formula import (
    FactLineStream,
    Formula,
    TokenStream,
    check_formula,
    fact_line,
    ground_atom_formulas,
    parse_formula_stream,
    print_formula,
    tokenize,
)
from .kb import (
    KnowledgeDomain, Signature, TruthValue, Value, _check_ident, _instance, _items, _table,
    format_atom,
)
from .preference import PreferenceRelation, _support_relation, check_count_weights

PREFERENCE_KINDS = ("dominance", "counts", "explicit")
SESSION_COMMANDS = ("check", "classify", "report", "best", "entail", "score")
_TRUTH_WORDS = {v.value: v for v in TruthValue}


class Session(Value):
    """A fully validated session, independent of how it was written down.

    tables, built here, checks the working set and is the one
    TranslationTables that closure, preference, commands and space read.
    """

    def __init__(
        self,
        domains: tuple[KnowledgeDomain, ...],
        source_name: str,
        target_name: str,
        analogies: tuple[AnalogyMap, ...] = (),
        working_set: tuple[Formula, ...] = (),
        queries: tuple[Formula, ...] = (),
        closure: bool = False,
        preference_kind: str = "dominance",
        count_weights: tuple[Fraction, Fraction] | None = None,
        explicit_edges: tuple[tuple[str, str], ...] = (),
    ):
        domains = _items("domains", domains, KnowledgeDomain, SessionError)
        object.__setattr__(self, "domains", tuple(sorted(domains, key=lambda d: d.signature.name)))
        object.__setattr__(self, "source_name", source_name)
        object.__setattr__(self, "target_name", target_name)
        analogies = _items("analogies", analogies, AnalogyMap, SessionError)
        object.__setattr__(self, "analogies", tuple(sorted(analogies, key=lambda a: a.name)))
        for field, value in (("working_set", working_set), ("queries", queries)):
            object.__setattr__(self, field, _items(field, value, Formula, SessionError))
        object.__setattr__(self, "closure", closure)
        object.__setattr__(self, "preference_kind", preference_kind)
        object.__setattr__(self, "count_weights", count_weights)
        edges = []
        for edge in _items("explicit_edges", explicit_edges, object, SessionError):
            names = _items("explicit_edges", edge, str, SessionError)  # no str split, no coercion
            if len(names) != 2:
                raise SessionError(f"explicit_edges must hold pairs, not {edge!r}")
            edges.append(names)
        object.__setattr__(self, "explicit_edges", tuple(sorted(edges)))
        if not isinstance(closure, bool):
            raise SessionError(f"closure must be a bool, not {closure!r}")

        _instance("source_name", source_name, str, SessionError)
        _instance("target_name", target_name, str, SessionError)
        names = _by_name("domain", [(d.signature.name, d) for d in self.domains])
        if self.source_name not in names:
            raise SessionError(f"source domain {self.source_name!r} is not declared")
        if self.target_name not in names:
            raise SessionError(f"target domain {self.target_name!r} is not declared")
        # domain()'s table, beside the fields; not part of eq, hash or repr.
        object.__setattr__(self, "_by_name", names)

        anames = _by_name("analogy", [(a.name, a) for a in self.analogies])
        for a in self.analogies:
            try:
                _check_ident(a.name, "analogy")
            except SignatureError as err:
                raise SessionError(str(err)) from err
            if a.source != self.source:
                raise SessionError(
                    f"analogy {a.name!r} runs from "
                    f"{a.source.signature.name!r}, not the source "
                    f"{self.source_name!r}"
                )
            if a.target != self.target:
                raise SessionError(
                    f"analogy {a.name!r} runs to {a.target.signature.name!r}, "
                    f"not the target {self.target_name!r}"
                )

        object.__setattr__(
            self, "tables", TranslationTables(self.source, self.target, self.working_set)
        )
        for q in self.queries:
            check_formula(q, self.target.signature)

        if self.preference_kind not in PREFERENCE_KINDS:
            raise SessionError(f"unknown preference kind {self.preference_kind!r}")
        if self.preference_kind == "counts":
            try:
                wp, wn = self.count_weights
            except (TypeError, ValueError):
                raise SessionError("counts preference needs its two weights") from None
            try:
                check_count_weights(wp, wn)
            except PreferenceError as err:
                raise SessionError(str(err)) from err
        elif self.count_weights is not None:
            raise SessionError(
                f"{self.preference_kind} preference takes no weights"
            )
        if self.preference_kind == "explicit":
            if self.closure:
                raise SessionError(
                    "explicit preference cannot rank closure-generated "
                    "analogies; use closure off"
                )
            for a, b in self.explicit_edges:
                for name in (a, b):
                    if name not in anames:
                        raise SessionError(
                            f"preference names unknown analogy {name!r}"
                        )
                if a == b:
                    raise SessionError(f"analogy {a!r} cannot be preferred to itself")
        elif self.explicit_edges:
            raise SessionError(
                f"{self.preference_kind} preference takes no prefer lines"
            )

    def domain(self, name: str) -> KnowledgeDomain:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise SessionError(f"no domain named {name!r}") from None

    @property
    def source(self) -> KnowledgeDomain:
        return self.domain(self.source_name)

    @property
    def target(self) -> KnowledgeDomain:
        return self.domain(self.target_name)


def _by_name(kind: str, named: list[tuple[str, object]]) -> dict:
    """{name: value}; in the order given, the first name seen twice is
    an error (sorted input so reports the least such name)."""

    by_name: dict = {}
    for name, value in named:
        if name in by_name:
            raise SessionError(f"{kind} {name!r} is declared twice")
        by_name[name] = value
    return by_name


# ====================================================================
# Parsing
# ====================================================================


def parse_session(text: str) -> Session:
    """Parse and validate a session file.

    Declaration order is free: domains may come after the analogies
    that mention them. The whole text is read before any domain or
    analogy is built, so a syntax error, a ParseError with line and
    column, wins over every semantic error, which names the offending
    entity instead. Checks that Session makes are left to it. The
    module docstring tells how the text is read.
    """

    _instance("session text", text, str, SessionError)
    try:
        statements = _read_statements(FactLineStream(text))
    except ParseError:
        statements = _read_statements(TokenStream(text, tokenize(text)))
    return _build_session(*statements)


def _read_statements(ts: TokenStream) -> tuple[dict[str, list], dict[str, object]]:
    """The repeatable statements by keyword, and the others, as written."""

    lists: dict[str, list] = {"domain": [], "analogy": [], "query": []}
    once: dict[str, object] = {}
    while word := ts.peek():
        parse = _STATEMENTS.get(word)
        if parse is None:
            *first, last = _STATEMENTS
            ts.error(f"expected {', '.join(first)}, or {last}, found {ts.describe()}")
        if word in once:
            ts.error(f"duplicate {word} declaration")
        ts.next()
        if word in lists:
            lists[word].append(parse(ts))
        else:
            once[word] = parse(ts)
    return lists, once


def _build_session(lists: dict[str, list], once: dict[str, object]) -> Session:
    domains = [_build_domain(*raw) for raw in lists["domain"]]
    by_name = _by_name("domain", [(d.signature.name, d) for d in domains])
    for side, end in (("source", 1), ("target", 2)):
        if side not in once:
            ends = {raw[end] for raw in lists["analogy"]}
            if len(ends) != 1:
                raise SessionError(f"{side} domain is not declared and cannot be inferred")
            once[side] = ends.pop()
    analogies = [_build_analogy(*raw, by_name) for raw in lists["analogy"]]

    working = once.get("workingset", ())
    if working is None:  # workingset atoms; Session reports a missing source
        source = by_name.get(once["source"])
        working = ground_atom_formulas(source.signature) if source else ()
    kind, weights, edges = once.get("preference", ("dominance", None, ()))
    return Session(
        domains=tuple(domains),
        source_name=once["source"],
        target_name=once["target"],
        analogies=tuple(analogies),
        working_set=tuple(working),
        queries=tuple(lists["query"]),
        closure=once.get("closure", False),
        preference_kind=kind,
        count_weights=weights,
        explicit_edges=edges,
    )


def _parse_domain(ts: TokenStream) -> tuple:
    """(name, objects, predicates, functions, facts, interps) as written."""

    name = ts.expect_ident()
    ts.expect("{")
    body: dict[str, list] = {"objects": [], "pred": [], "func": [], "fact": [], "interp": []}
    facts = body["fact"]
    while True:
        at = ts.pos
        word = ts.next()
        if word[:1].isspace():  # a fact line, read whole by a FactLineStream
            head, args, value = fact_line(word)
            facts.append((head, args, _TRUTH_WORDS[value]))
        elif word == "}":
            return (name, *body.values())
        elif word == "objects":
            ts.expect(":")
            body[word] += _parse_names(ts, ";")
        elif word == "pred" or word == "func":
            body[word].append(_parse_arity_decl(ts))
        elif word == "fact" or word == "interp":
            head, args, value = _parse_equation(ts)
            if word == "fact":
                if value not in _TRUTH_WORDS:
                    ts.error(f"expected true, false, or unknown, found {value!r}", ts.pos - 1)
                value = _TRUTH_WORDS[value]
            ts.expect(";")
            body[word].append((head, args, value))
        else:
            ts.error(
                f"expected objects, pred, func, fact, interp, or '}}' in domain {name}", at
            )


def _parse_arity_decl(ts: TokenStream) -> tuple[str, int]:
    name = ts.expect_ident()
    ts.expect("/")
    arity = ts.expect_number()
    ts.expect(";")
    return name, arity


def _parse_names(ts: TokenStream, end: str) -> list[str]:
    """a, b, c and the closing end token."""

    names = [ts.expect_ident()]
    while ts.take(","):
        names.append(ts.expect_ident())
    ts.expect(end)
    return names


def _parse_equation(ts: TokenStream) -> tuple[str, tuple[str, ...], str]:
    """name(a, b) = word, as fact and interp lines write it."""

    name = ts.expect_ident()
    ts.expect("(")
    args = tuple(_parse_names(ts, ")"))
    ts.expect("=")
    return name, args, ts.expect_ident()


def _parse_analogy(ts: TokenStream) -> tuple:
    """(name, source, target, pieces); bare map lines form one piece
    whose guard constants are None."""

    name = ts.expect_ident()
    ts.expect("from")
    src = ts.expect_ident()
    ts.expect("to")
    tgt = ts.expect_ident()
    ts.expect("{")
    bare: list[tuple[str, str]] = []
    pieces: list[tuple[tuple[str, ...], list[tuple[str, str]]]] = []
    while True:
        at = ts.pos
        word = ts.next()
        if word == "}":
            return name, src, tgt, pieces or [(None, bare)]
        if word != "map" and word != "piece":
            ts.error(f"expected map, piece, or '}}' in analogy {name}", at)
        if (word == "map" and pieces) or (word == "piece" and bare):
            ts.error("cannot mix bare map lines with piece blocks", at)
        if word == "map":
            bare.append(_parse_map_line(ts))
        else:
            ts.expect("when")
            ts.expect("mentions")
            ts.expect("{")
            consts = tuple(_parse_names(ts, "}"))
            ts.expect("{")
            pieces.append((consts, _parse_map_lines(ts)))


def _parse_map_line(ts: TokenStream) -> tuple[str, str]:
    """source -> target; after the map keyword."""

    src = ts.expect_ident()
    ts.expect("->")
    tgt = ts.expect_ident()
    ts.expect(";")
    return src, tgt


def _parse_map_lines(ts: TokenStream) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    while not ts.take("}"):
        if not ts.take("map"):
            ts.error("expected map or '}'")
        out.append(_parse_map_line(ts))
    return out


def _parse_sentence(ts: TokenStream) -> Formula:
    f = parse_formula_stream(ts)
    ts.expect(";")
    return f


def _parse_workingset(ts: TokenStream) -> list[Formula] | None:
    """The listed sentences, or None for `workingset atoms;`."""

    if ts.take("atoms"):
        ts.expect(";")
        return None
    ts.expect("{")
    out: list[Formula] = []
    while not ts.take("}"):
        out.append(_parse_sentence(ts))
    return out


def _parse_name(ts: TokenStream) -> str:
    name = ts.expect_ident()
    ts.expect(";")
    return name


def _parse_closure(ts: TokenStream) -> bool:
    word = ts.expect_ident()
    if word not in ("on", "off"):
        ts.error("closure must be on or off", ts.pos - 1)
    ts.expect(";")
    return word == "on"


def _parse_weight(ts: TokenStream) -> Fraction:
    at = ts.pos
    numerator = ts.expect_number()
    if ts.take("/"):
        denominator = ts.expect_number()
        if denominator == 0:
            ts.error("weight denominator cannot be zero", at)
        return Fraction(numerator, denominator)
    return Fraction(numerator)


def _parse_preference(ts: TokenStream):
    if ts.take("dominance"):
        ts.expect(";")
        return "dominance", None, ()
    if ts.take("counts"):
        ts.expect("(")
        wp = _parse_weight(ts)
        ts.expect(",")
        wn = _parse_weight(ts)
        ts.expect(")")
        ts.expect(";")
        return "counts", (wp, wn), ()
    if ts.take("explicit"):
        ts.expect("{")
        edges: list[tuple[str, str]] = []
        while not ts.take("}"):
            ts.expect("prefer")
            a = ts.expect_ident()
            ts.expect("over")
            b = ts.expect_ident()
            ts.expect(";")
            edges.append((a, b))
        return "explicit", None, tuple(edges)
    ts.error("expected dominance, counts, or explicit")


# Each top-level statement keyword and the function that reads the rest
# of its statement; the order is the one parse errors list them in.
_STATEMENTS = {
    "domain": _parse_domain,
    "analogy": _parse_analogy,
    "workingset": _parse_workingset,
    "preference": _parse_preference,
    "query": _parse_sentence,
    "source": _parse_name,
    "target": _parse_name,
    "closure": _parse_closure,
}


def _build_domain(name, objects, predicates, functions, facts, interps) -> KnowledgeDomain:
    try:
        sig = Signature(name, tuple(objects), tuple(predicates), tuple(functions))
        interps, facts = _table("interpretation", interps), _table("fact", facts)
        return KnowledgeDomain(sig, sig.constants, {o: o for o in sig.constants}, interps, facts)
    except (SignatureError, DomainError) as err:
        raise SessionError(f"domain {name}: {err}") from err


def _build_analogy(
    name: str, source: str, target: str, pieces, domains: dict[str, KnowledgeDomain]
) -> AnalogyMap:
    for side, domain in (("source", source), ("target", target)):
        if domain not in domains:
            raise SessionError(
                f"analogy {name!r} names undeclared {side} domain {domain!r}"
            )
    built = []
    for consts, entries in pieces:
        mapping: dict[str, str] = {}
        for s, t in entries:
            if s in mapping:
                raise SessionError(f"analogy {name!r} maps {s!r} twice in one piece")
            mapping[s] = t
        guard = Guard.always() if consts is None else Guard.mentions(consts)
        built.append(AnalogyPiece(guard, mapping))
    return AnalogyMap(name, domains[source], domains[target], tuple(built))


# ====================================================================
# Printing
# ====================================================================


def print_session(session: Session) -> str:
    """Render the canonical text; reparsing it yields an equal session."""

    _check_session(session, "print_session")
    lines: list[str] = []
    for d in session.domains:
        _print_domain(d, lines)
    lines.append(f"source {session.source_name};")
    lines.append(f"target {session.target_name};")
    if session.closure:
        lines.append("closure on;")
    for a in session.analogies:
        _print_analogy(a, lines)
    if session.working_set:
        lines.append("workingset {")
        for f in session.working_set:
            lines.append(f"  {print_formula(f)};")
        lines.append("}")
    if session.preference_kind == "counts":
        wp, wn = session.count_weights
        lines.append(f"preference counts({wp}, {wn});")
    elif session.preference_kind == "explicit":
        lines.append("preference explicit {")
        for a, b in session.explicit_edges:
            lines.append(f"  prefer {a} over {b};")
        lines.append("}")
    for q in session.queries:
        lines.append(f"query {print_formula(q)};")
    return "\n".join(lines) + "\n"


def _check_session(session, what: str) -> None:
    if not isinstance(session, Session):
        raise SessionError(f"{what} needs a Session, not {type(session).__name__}")


def _print_domain(d: KnowledgeDomain, lines: list[str]) -> None:
    sig = d.signature
    if tuple(sig.constants) != tuple(d.universe) or any(
        d.const_interp[c] != c for c in sig.constants
    ):
        raise SessionError(
            f"domain {sig.name!r} cannot be written out: objects must "
            "name themselves"
        )
    lines.append(f"domain {sig.name} {{")
    lines.append(f"  objects: {', '.join(d.universe)};")
    for p, a in sig.predicates:
        lines.append(f"  pred {p}/{a};")
    for f, a in sig.functions:
        lines.append(f"  func {f}/{a};")
    for (fname, args), v in sorted(d.func_interp.items()):
        lines.append(f"  interp {format_atom(fname, args)} = {v};")
    for (pred, args), value in sorted(d.facts.items()):
        lines.append(f"  fact {format_atom(pred, args)} = {value};")
    lines.append("}")


def _print_analogy(a: AnalogyMap, lines: list[str]) -> None:
    lines.append(
        f"analogy {a.name} from {a.source.signature.name} "
        f"to {a.target.signature.name} {{"
    )
    if len(a.pieces) == 1:
        for s, t in sorted(a.pieces[0].mapping.items()):
            lines.append(f"  map {s} -> {t};")
    else:
        for piece in a.pieces:
            consts = ", ".join(sorted(piece.guard.constants or ()))
            lines.append(f"  piece when mentions {{{consts}}} {{")
            for s, t in sorted(piece.mapping.items()):
                lines.append(f"    map {s} -> {t};")
            lines.append("  }")
    lines.append("}")


# ====================================================================
# Resolution and commands
# ====================================================================


def resolve_maps(session: Session) -> tuple[AnalogyMap, ...]:
    """The analogies a command sees: declared ones plus closure, if on."""

    _check_session(session, "resolve_maps")
    if session.closure:
        return session.tables.close(session.analogies)
    return session.analogies


def session_preference(
    session: Session, maps: Sequence[AnalogyMap]
) -> PreferenceRelation:
    """The explicit edges, or dominance or counts over the maps' support
    profiles, read off their support masks: no support report is built."""

    _check_session(session, "session_preference")
    maps = _items("maps", maps, AnalogyMap, SessionError)
    if session.preference_kind == "explicit":
        return PreferenceRelation(
            carrier=tuple(a.name for a in maps),
            edges=session.explicit_edges,
        )
    masks = [session.tables.support_masks(a)[3:] for a in maps]
    profiles = [(p, neg_true | neg_false) for p, neg_true, neg_false in masks]
    names = tuple(a.name for a in maps)
    if session.preference_kind == "counts":
        counts = [(p.bit_count(), n.bit_count()) for p, n in profiles]
        return _support_relation(names, counts, check_count_weights(*session.count_weights))
    return _support_relation(names, profiles)


def resolve_space(session: Session) -> AnalogySpace:
    """The space best and entail answer over, on the session's tables."""

    _check_session(session, "resolve_space")
    maps = resolve_maps(session)
    return AnalogySpace(
        tables=session.tables,
        analogies=maps,
        preference=session_preference(session, maps),
    )


def run(
    session: Session | None,
    command: str,
    n: int | None = None,
    relation_class: str = "all",
    mode: str = "soundness",
) -> dict:
    """Execute one command and return its JSON-ready result.

    Key orders in the result are fixed by construction, so serializing
    it is deterministic. repcheck ignores the session entirely; every
    other command requires one.
    """

    if command == "repcheck":
        return _run_repcheck(n, relation_class, mode)
    if command not in SESSION_COMMANDS:
        raise SessionError(f"unknown command {command!r}")
    if session is None:
        raise SessionError(f"command {command!r} needs a session")
    _check_session(session, f"command {command!r}")

    if command == "check":
        return {
            "command": "check",
            "ok": True,
            "domains": [d.signature.name for d in session.domains],
            "source": session.source_name,
            "target": session.target_name,
            "analogies": [a.name for a in session.analogies],
            "working_set": len(session.working_set),
            "queries": len(session.queries),
            "closure": session.closure,
            "preference": session.preference_kind,
        }

    if command in ("best", "entail"):
        space = resolve_space(session)
        if command == "best":
            return {
                "command": "best",
                "carrier": list(space.preference.carrier),
                "edges": [list(e) for e in sorted(space.preference.edges)],
                "best": sorted(best_names(space)),
            }
        verdicts = [entail(space, q).to_json_dict() for q in session.queries]
        return {"command": "entail", "verdicts": verdicts}

    maps = resolve_maps(session)
    if command == "classify":
        return {
            "command": "classify",
            "reports": [session.tables.classify(a).to_json_dict() for a in maps],
        }
    if command == "report":
        return {
            "command": "report",
            "reports": [session.tables.augmented_report(a).to_json_dict() for a in maps],
        }
    scores = []
    for a in maps:
        *_, positive, neg_true, neg_false = session.tables.support_masks(a)
        n_pos, n_r, n_s = positive.bit_count(), neg_true.bit_count(), neg_false.bit_count()
        if n_pos:
            scores.append({"analogy": a.name, **straight_rule(n_pos, n_r, n_s).to_json_dict()})
        else:
            scores.append({"analogy": a.name, "n": 0, "r": n_r, "s": n_s, "p": None})
    return {"command": "score", "scores": scores}


def _run_repcheck(n: int | None, relation_class: str, mode: str) -> dict:
    if n is None:
        raise RepcheckError("repcheck needs a carrier size n")
    try:
        cls = repcheck_mod.RelationClass(relation_class)
    except ValueError:
        *classes, last = [c.value for c in repcheck_mod.RelationClass]
        raise RepcheckError(
            f"unknown relation class {relation_class!r}; "
            f"expected {', '.join(classes)}, or {last}"
        ) from None
    if mode not in repcheck_mod.SWEEPS:
        raise RepcheckError(f"unknown mode {mode!r}; expected {' or '.join(repcheck_mod.SWEEPS)}")
    # Through the module attribute, so a sweep rebound there is the one run.
    sweep = getattr(repcheck_mod, f"{mode}_sweep")
    out = {"command": "repcheck"}
    out.update(sweep(n, cls).to_json_dict())
    return out
