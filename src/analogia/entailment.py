"""Skeptical query answering over a space of competing analogies.

An analogy space bundles a source domain, a target domain, a working
set of source sentences, the candidate analogies between the domains,
and a strict preference over those candidates. A query is a sentence
in the target language. Settled queries are answered by the target
domain directly. Open queries are answered skeptically: only the best
candidates (the undominated ones) may speak, each speaks only when the
query is the exact image of a working set sentence whose source value
is known, and a definite verdict needs all speakers to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .analogy import AnalogyMap, TranslationTables
from .errors import AnalogyError, EntailmentError
from .formula import Formula, check_formula, evaluate
from .kb import KnowledgeDomain, TruthValue, _argument
from .preference import PreferenceRelation, undominated


class VerdictStatus(Enum):
    ENTAILED = "entailed"
    CONFLICTED = "conflicted"
    NO_SUPPORT = "no_support"
    SETTLED_IN_TARGET = "settled_in_target"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AnalogySpace:
    """The fixed context that queries are answered against.

    tables holds the source, the target, the checked working set and
    every analogy's translation of it, made once per session and shared
    by every command and the space. Each analogy must run between the
    tables' domains and translate the working set injectively, so that
    a target sentence has at most one preimage per analogy. The
    preference carrier must be exactly the set of analogy names.
    """

    tables: TranslationTables
    analogies: tuple[AnalogyMap, ...]
    preference: PreferenceRelation

    def __post_init__(self):
        for name, kind in (("tables", TranslationTables), ("preference", PreferenceRelation)):
            found = type(getattr(self, name))
            if not issubclass(found, kind):
                raise EntailmentError(f"{name} must be a {kind.__name__}, not {found.__name__}")
        analogies = _argument("analogies", "iterable", tuple, self.analogies, EntailmentError)
        for a in analogies:
            if not isinstance(a, AnalogyMap):
                raise EntailmentError(f"analogies must hold AnalogyMap values, not {a!r}")
        object.__setattr__(self, "analogies", analogies)
        names = [a.name for a in self.analogies]
        if len(set(names)) != len(names):
            raise EntailmentError("duplicate analogy name in space")
        for a in self.analogies:
            try:
                self.tables.preimages(a)
            except AnalogyError as err:
                raise EntailmentError(str(err)) from err
        if set(self.preference.carrier) != set(names) or len(
            self.preference.carrier
        ) != len(names):
            raise EntailmentError("preference carrier does not match the analogy names")

    @property
    def source(self) -> KnowledgeDomain:
        return self.tables.source

    @property
    def target(self) -> KnowledgeDomain:
        return self.tables.target

    @property
    def working_set(self) -> tuple[Formula, ...]:
        return self.tables.formulas

    def analogy(self, name: str) -> AnalogyMap:
        for a in self.analogies:
            if a.name == name:
                return a
        raise EntailmentError(f"no analogy named {name!r} in space")


def _check_space(space, what: str) -> None:
    if not isinstance(space, AnalogySpace):
        raise EntailmentError(f"{what} needs an AnalogySpace, not {type(space).__name__}")


def best(space: AnalogySpace) -> frozenset[str]:
    """Names of the undominated analogies."""

    _check_space(space, "best")
    return undominated(space.preference, (a.name for a in space.analogies))


def conjecture_for(
    space: AnalogySpace, analogy_name: str, query: Formula
) -> TruthValue | None:
    """What one analogy suggests for the query, or None when it is silent.

    The analogy speaks only when the query is syntactically equal to
    the translation of some working set sentence and that sentence has
    a known value in the source. Injectivity on the working set makes
    the preimage unique when it exists. A query that is not a sentence
    over the target signature raises a FormulaError, as in entail.
    """

    _check_space(space, "conjecture_for")
    check_formula(query, space.target.signature)
    amap = space.analogy(analogy_name)
    return space.tables.conjectures(query, (amap,)).get(analogy_name)


@dataclass(frozen=True)
class Verdict:
    query: Formula
    status: VerdictStatus
    value: TruthValue | None
    support: tuple[str, ...]
    suggestions: dict[str, TruthValue]
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "query": str(self.query),
            "status": self.status.value,
            "value": str(self.value) if self.value is not None else None,
            "support": list(self.support),
            "suggestions": {n: str(v) for n, v in sorted(self.suggestions.items())},
            "warnings": list(self.warnings),
        }


def entail(space: AnalogySpace, query: Formula) -> Verdict:
    """Answer a target-language query skeptically over the best analogies."""

    _check_space(space, "entail")
    settled = evaluate(query, space.target)
    if settled.known:
        return Verdict(
            query=query,
            status=VerdictStatus.SETTLED_IN_TARGET,
            value=settled,
            support=(),
            suggestions={},
            warnings=(),
        )

    chosen = best(space)
    warnings: list[str] = []
    if not chosen:
        warnings.append("no analogy survives the preference; the best set is empty")
    speakers = sorted(
        (a for a in space.analogies if a.name in chosen), key=attrgetter("name")
    )
    suggestions = space.tables.conjectures(query, speakers)
    values = set(suggestions.values())
    if not values:
        status = VerdictStatus.NO_SUPPORT
    elif len(values) == 1:
        status = VerdictStatus.ENTAILED
    else:
        status = VerdictStatus.CONFLICTED
    return Verdict(
        query=query,
        status=status,
        value=values.pop() if status is VerdictStatus.ENTAILED else None,
        support=tuple(sorted(suggestions)),
        suggestions=suggestions,
        warnings=tuple(warnings),
    )
