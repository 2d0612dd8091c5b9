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

from enum import Enum

from .analogy import AnalogyMap, TranslationTables
from .errors import AnalogyError, EntailmentError
from .formula import Formula, check_formula, evaluate
from .kb import KnowledgeDomain, TruthValue, Value, _items
from .preference import PreferenceRelation, undominated


class VerdictStatus(Enum):
    ENTAILED = "entailed"
    CONFLICTED = "conflicted"
    NO_SUPPORT = "no_support"
    SETTLED_IN_TARGET = "settled_in_target"

    def __str__(self) -> str:
        return self.value


class AnalogySpace(Value):
    """The fixed context that queries are answered against.

    tables holds the source, the target, the checked working set and
    every analogy's translation of it, made once per session and shared
    by every command and the space. Each analogy must run between the
    tables' domains and translate the working set injectively, so that
    a target sentence has at most one preimage per analogy. The
    preference carrier must be exactly the set of analogy names.

    The checks also derive, once, the analogies by name, the best set μ
    (the undominated names) and its speakers in name order.
    """

    def __init__(
        self,
        tables: TranslationTables,
        analogies: tuple[AnalogyMap, ...],
        preference: PreferenceRelation,
    ):
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "analogies", analogies)
        object.__setattr__(self, "preference", preference)
        self.__post_init__()

    # The checks stay a method of their own: perfbench/spans.py wraps it
    # to time the space build.
    def __post_init__(self):
        for name, kind in (("tables", TranslationTables), ("preference", PreferenceRelation)):
            found = type(getattr(self, name))
            if not issubclass(found, kind):
                raise EntailmentError(f"{name} must be a {kind.__name__}, not {found.__name__}")
        analogies = _items("analogies", self.analogies, AnalogyMap, EntailmentError)
        object.__setattr__(self, "analogies", analogies)
        by_name = {a.name: a for a in analogies}
        if len(by_name) != len(analogies):
            raise EntailmentError("duplicate analogy name in space")
        for a in analogies:
            try:
                self.tables.preimages(a)
            except AnalogyError as err:
                raise EntailmentError(str(err)) from err
        carrier = self.preference.carrier
        if by_name.keys() != set(carrier) or len(carrier) != len(by_name):
            raise EntailmentError("preference carrier does not match the analogy names")
        chosen = undominated(self.preference, by_name)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_best", chosen)
        object.__setattr__(self, "_speakers", tuple(by_name[n] for n in sorted(chosen)))

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
        try:
            return self._by_name[name]
        except (KeyError, TypeError):
            raise EntailmentError(f"no analogy named {name!r} in space") from None


def _check_space(space, what: str) -> None:
    if not isinstance(space, AnalogySpace):
        raise EntailmentError(f"{what} needs an AnalogySpace, not {type(space).__name__}")


def best(space: AnalogySpace) -> frozenset[str]:
    """Names of the undominated analogies, derived once as the space was built."""

    _check_space(space, "best")
    return space._best


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


class Verdict(Value):
    def __init__(
        self,
        query: Formula,
        status: VerdictStatus,
        value: TruthValue | None,
        support: tuple[str, ...],
        suggestions: dict[str, TruthValue],
        warnings: tuple[str, ...],
    ):
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "suggestions", suggestions)
        object.__setattr__(self, "warnings", warnings)

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
    """Answer a target query skeptically over the speakers the space derived once."""

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

    warnings = () if space._best else (
        "no analogy survives the preference; the best set is empty",
    )
    suggestions = space.tables.conjectures(query, space._speakers)
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
        warnings=warnings,
    )
