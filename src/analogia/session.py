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
runs. Comments run from '#' to end of line.

Sessions are values: declaration order is normalized away everywhere
it has no meaning (domains and analogies sort by name) and kept where
it does (working set, queries, pieces). print_session emits a
canonical text whose reparse equals the original session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    PreferenceError,
    RepcheckError,
    SessionError,
    SignatureError,
)
from .formula import (
    Formula,
    TokenStream,
    check_formula,
    ground_atom_formulas,
    parse_formula_stream,
    print_formula,
    tokenize,
)
from .kb import KnowledgeDomain, Signature, TruthValue, _check_ident, format_atom, make_domain
from .preference import (
    PreferenceRelation,
    check_count_weights,
    count_preference,
    dominance_preference,
)

PREFERENCE_KINDS = ("dominance", "counts", "explicit")
SESSION_COMMANDS = ("check", "classify", "report", "best", "entail", "score")
_TRUTH_WORDS = {v.value: v for v in TruthValue}


@dataclass(frozen=True)
class Session:
    """A fully validated session, independent of how it was written down.

    tables, built here, checks the working set and is the one
    TranslationTables that closure, preference, commands and space read.
    """

    domains: tuple[KnowledgeDomain, ...]
    source_name: str
    target_name: str
    analogies: tuple[AnalogyMap, ...] = ()
    working_set: tuple[Formula, ...] = ()
    queries: tuple[Formula, ...] = ()
    closure: bool = False
    preference_kind: str = "dominance"
    count_weights: tuple[Fraction, Fraction] | None = None
    explicit_edges: tuple[tuple[str, str], ...] = ()
    tables: TranslationTables = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        domains = _items("domains", self.domains, KnowledgeDomain)
        object.__setattr__(self, "domains", tuple(sorted(domains, key=lambda d: d.signature.name)))
        analogies = _items("analogies", self.analogies, AnalogyMap)
        object.__setattr__(self, "analogies", tuple(sorted(analogies, key=lambda a: a.name)))
        object.__setattr__(self, "working_set", _items("working_set", self.working_set, Formula))
        object.__setattr__(self, "queries", _items("queries", self.queries, Formula))
        edges = []
        for edge in _items("explicit_edges", self.explicit_edges):
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise SessionError(f"explicit_edges must hold pairs, not {edge!r}") from None
            edges.append((str(a), str(b)))
        object.__setattr__(self, "explicit_edges", tuple(sorted(edges)))
        if not isinstance(self.closure, bool):
            raise SessionError(f"closure must be a bool, not {self.closure!r}")

        names = [d.signature.name for d in self.domains]
        if len(set(names)) != len(names):
            dup = sorted(n for n in names if names.count(n) > 1)[0]
            raise SessionError(f"domain {dup!r} is declared twice")
        if self.source_name not in names:
            raise SessionError(f"source domain {self.source_name!r} is not declared")
        if self.target_name not in names:
            raise SessionError(f"target domain {self.target_name!r} is not declared")

        anames = [a.name for a in self.analogies]
        if len(set(anames)) != len(anames):
            dup = sorted(n for n in anames if anames.count(n) > 1)[0]
            raise SessionError(f"analogy {dup!r} is declared twice")
        for a in self.analogies:
            try:
                _check_ident(a.name, "analogy name")
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
            known = set(anames)
            for a, b in self.explicit_edges:
                for name in (a, b):
                    if name not in known:
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
        for d in self.domains:
            if d.signature.name == name:
                return d
        raise SessionError(f"no domain named {name!r}")

    @property
    def source(self) -> KnowledgeDomain:
        return self.domain(self.source_name)

    @property
    def target(self) -> KnowledgeDomain:
        return self.domain(self.target_name)


def _items(name: str, value, kind: type = object) -> tuple:
    """value as a tuple of kind, or a SessionError that names the field."""

    try:
        items = tuple(value)
    except TypeError:
        raise SessionError(f"{name} must be iterable, not {type(value).__name__}") from None
    for item in items:
        if not isinstance(item, kind):
            raise SessionError(f"{name} must hold {kind.__name__} values, not {item!r}")
    return items


# ====================================================================
# Parsing
# ====================================================================


@dataclass
class _RawDomain:
    name: str
    objects: list[str]
    predicates: list[tuple[str, int]]
    functions: list[tuple[str, int]]
    facts: list[tuple[str, tuple[str, ...], TruthValue]]
    interps: list[tuple[str, tuple[str, ...], str]]


@dataclass
class _RawAnalogy:
    name: str
    source: str
    target: str
    pieces: list[tuple[tuple[str, ...] | None, list[tuple[str, str]]]]


def parse_session(text: str) -> Session:
    """Parse and validate a session file.

    Declaration order is free: domains may come after the analogies
    that mention them. Syntax problems raise with line and column;
    semantic problems raise with the offending entity's name.
    """

    ts = TokenStream(text, tokenize(text))
    raw_domains: list[_RawDomain] = []
    raw_analogies: list[_RawAnalogy] = []
    working: list[Formula] | None = None
    working_atoms = False
    source_name: str | None = None
    target_name: str | None = None
    closure: bool | None = None
    preference: tuple[str, tuple[Fraction, Fraction] | None, tuple] | None = None
    queries: list[Formula] = []

    while ts.peek():
        at = ts.pos
        if ts.take("domain"):
            raw_domains.append(_parse_domain(ts))
        elif ts.take("analogy"):
            raw_analogies.append(_parse_analogy(ts))
        elif ts.take("workingset"):
            if working is not None or working_atoms:
                ts.error("duplicate workingset declaration", at)
            if ts.take("atoms"):
                ts.expect(";")
                working_atoms = True
            else:
                working = _parse_workingset(ts)
        elif ts.take("preference"):
            if preference is not None:
                ts.error("duplicate preference declaration", at)
            preference = _parse_preference(ts)
        elif ts.take("query"):
            queries.append(parse_formula_stream(ts))
            ts.expect(";")
        elif ts.take("source"):
            if source_name is not None:
                ts.error("duplicate source declaration", at)
            source_name = ts.expect_ident()
            ts.expect(";")
        elif ts.take("target"):
            if target_name is not None:
                ts.error("duplicate target declaration", at)
            target_name = ts.expect_ident()
            ts.expect(";")
        elif ts.take("closure"):
            if closure is not None:
                ts.error("duplicate closure declaration", at)
            word = ts.expect_ident()
            if word not in ("on", "off"):
                ts.error("closure must be on or off", ts.pos - 1)
            ts.expect(";")
            closure = word == "on"
        else:
            ts.error(
                "expected domain, analogy, workingset, preference, query, "
                f"source, target, or closure, found {ts.describe()}"
            )

    domains = [_build_domain(raw) for raw in raw_domains]
    by_name = {d.signature.name: d for d in domains}
    if len(by_name) != len(domains):
        seen: set[str] = set()
        for d in domains:
            if d.signature.name in seen:
                raise SessionError(f"domain {d.signature.name!r} is declared twice")
            seen.add(d.signature.name)

    if source_name is None:
        froms = {ra.source for ra in raw_analogies}
        if len(froms) != 1:
            raise SessionError(
                "source domain is not declared and cannot be inferred"
            )
        source_name = froms.pop()
    if target_name is None:
        tos = {ra.target for ra in raw_analogies}
        if len(tos) != 1:
            raise SessionError(
                "target domain is not declared and cannot be inferred"
            )
        target_name = tos.pop()

    analogies = [_build_analogy(ra, by_name) for ra in raw_analogies]

    if working_atoms:
        if source_name not in by_name:
            raise SessionError(f"source domain {source_name!r} is not declared")
        working = list(ground_atom_formulas(by_name[source_name].signature))

    kind, weights, edges = preference or ("dominance", None, ())
    return Session(
        domains=tuple(domains),
        source_name=source_name,
        target_name=target_name,
        analogies=tuple(analogies),
        working_set=tuple(working or ()),
        queries=tuple(queries),
        closure=bool(closure),
        preference_kind=kind,
        count_weights=weights,
        explicit_edges=tuple(edges),
    )


def _parse_domain(ts: TokenStream) -> _RawDomain:
    name = ts.expect_ident()
    ts.expect("{")
    raw = _RawDomain(name, [], [], [], [], [])
    while not ts.take("}"):
        if ts.take("objects"):
            ts.expect(":")
            raw.objects += _parse_ident_list(ts)
            ts.expect(";")
        elif ts.take("pred"):
            raw.predicates.append(_parse_arity_decl(ts))
        elif ts.take("func"):
            raw.functions.append(_parse_arity_decl(ts))
        elif ts.take("fact"):
            pred = ts.expect_ident()
            args = _parse_name_args(ts)
            ts.expect("=")
            word = ts.expect_ident()
            value = _TRUTH_WORDS.get(word)
            if value is None:
                ts.error(f"expected true, false, or unknown, found {word!r}", ts.pos - 1)
            ts.expect(";")
            raw.facts.append((pred, args, value))
        elif ts.take("interp"):
            fname = ts.expect_ident()
            args = _parse_name_args(ts)
            ts.expect("=")
            result = ts.expect_ident()
            ts.expect(";")
            raw.interps.append((fname, args, result))
        else:
            ts.error(
                "expected objects, pred, func, fact, interp, or '}' in "
                f"domain {name}"
            )
    return raw


def _parse_arity_decl(ts: TokenStream) -> tuple[str, int]:
    name = ts.expect_ident()
    ts.expect("/")
    arity = ts.expect_number()
    ts.expect(";")
    return name, arity


def _parse_ident_list(ts: TokenStream) -> list[str]:
    names = [ts.expect_ident()]
    while ts.take(","):
        names.append(ts.expect_ident())
    return names


def _parse_name_args(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("(")
    args = _parse_ident_list(ts)
    ts.expect(")")
    return tuple(args)


def _parse_analogy(ts: TokenStream) -> _RawAnalogy:
    name = ts.expect_ident()
    ts.expect("from")
    src = ts.expect_ident()
    ts.expect("to")
    tgt = ts.expect_ident()
    ts.expect("{")
    raw = _RawAnalogy(name, src, tgt, [])
    bare: list[tuple[str, str]] | None = None
    while not ts.take("}"):
        at = ts.pos
        if ts.take("piece"):
            if bare is not None:
                ts.error("cannot mix bare map lines with piece blocks", at)
            ts.expect("when")
            ts.expect("mentions")
            ts.expect("{")
            consts = _parse_ident_list(ts)
            ts.expect("}")
            ts.expect("{")
            raw.pieces.append((tuple(consts), _parse_map_lines(ts)))
        elif ts.at("map"):
            if raw.pieces:
                ts.error("cannot mix bare map lines with piece blocks")
            if bare is None:
                bare = []
            bare.append(_parse_map_line(ts))
        else:
            ts.error(f"expected map, piece, or '}}' in analogy {name}")
    if not raw.pieces:
        raw.pieces.append((None, bare or []))
    return raw


def _parse_map_line(ts: TokenStream) -> tuple[str, str]:
    ts.expect("map")
    src = ts.expect_ident()
    ts.expect("->")
    tgt = ts.expect_ident()
    ts.expect(";")
    return src, tgt


def _parse_map_lines(ts: TokenStream) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    while not ts.take("}"):
        if not ts.at("map"):
            ts.error("expected map or '}'")
        out.append(_parse_map_line(ts))
    return out


def _parse_workingset(ts: TokenStream) -> list[Formula]:
    ts.expect("{")
    out: list[Formula] = []
    while not ts.take("}"):
        out.append(parse_formula_stream(ts))
        ts.expect(";")
    return out


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


def _build_domain(raw: _RawDomain) -> KnowledgeDomain:
    try:
        sig = Signature(
            name=raw.name,
            constants=tuple(raw.objects),
            predicates=tuple(raw.predicates),
            functions=tuple(raw.functions),
        )
        return make_domain(
            sig,
            universe=raw.objects,
            func_interp={(f, args): v for f, args, v in raw.interps},
            facts=raw.facts,
        )
    except (SignatureError, DomainError) as err:
        raise SessionError(f"domain {raw.name}: {err}") from err


def _build_analogy(
    raw: _RawAnalogy, domains: dict[str, KnowledgeDomain]
) -> AnalogyMap:
    for side, name in (("source", raw.source), ("target", raw.target)):
        if name not in domains:
            raise SessionError(
                f"analogy {raw.name!r} names undeclared {side} domain {name!r}"
            )
    pieces = []
    for consts, entries in raw.pieces:
        mapping: dict[str, str] = {}
        for s, t in entries:
            if s in mapping:
                raise SessionError(
                    f"analogy {raw.name!r} maps {s!r} twice in one piece"
                )
            mapping[s] = t
        guard = Guard.always() if consts is None else Guard.mentions(consts)
        pieces.append(AnalogyPiece(guard, mapping))
    return AnalogyMap(
        name=raw.name,
        source=domains[raw.source],
        target=domains[raw.target],
        pieces=tuple(pieces),
    )


# ====================================================================
# Printing
# ====================================================================


def print_session(session: Session) -> str:
    """Render the canonical text; reparsing it yields an equal session."""

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

    if session.closure:
        return session.tables.close(session.analogies)
    return session.analogies


def session_preference(
    session: Session, maps: Sequence[AnalogyMap]
) -> PreferenceRelation:
    if session.preference_kind == "explicit":
        return PreferenceRelation(
            carrier=tuple(a.name for a in maps),
            edges=frozenset(session.explicit_edges),
        )
    reports = [session.tables.classify(a) for a in maps]
    if session.preference_kind == "counts":
        wp, wn = session.count_weights
        return count_preference(reports, wp, wn)
    return dominance_preference(reports)


def resolve_space(session: Session) -> AnalogySpace:
    """The space best and entail answer over, on the session's tables."""

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
        ar = session.tables.augmented_report(a)
        n_pos = len(ar.positive_pairs)
        n_r = len(ar.negative_source_true)
        n_s = len(ar.negative_source_false)
        if n_pos == 0:
            scores.append({"analogy": a.name, "n": 0, "r": n_r, "s": n_s, "p": None})
        else:
            entry = {"analogy": a.name}
            entry.update(straight_rule(n_pos, n_r, n_s).to_json_dict())
            scores.append(entry)
    return {"command": "score", "scores": scores}


def _run_repcheck(n: int | None, relation_class: str, mode: str) -> dict:
    if n is None:
        raise RepcheckError("repcheck needs a carrier size n")
    try:
        cls = repcheck_mod.RelationClass(relation_class)
    except ValueError:
        raise RepcheckError(
            f"unknown relation class {relation_class!r}; "
            "expected all, smooth, or ranked"
        ) from None
    if mode == "soundness":
        sweep = repcheck_mod.soundness_sweep(n, cls)
    elif mode == "completeness":
        sweep = repcheck_mod.completeness_sweep(n, cls)
    else:
        raise RepcheckError(
            f"unknown mode {mode!r}; expected soundness or completeness"
        )
    out = {"command": "repcheck"}
    out.update(sweep.to_json_dict())
    return out
