"""Finite first-order knowledge bases with three-valued ground facts.

A KnowledgeDomain is a finite single-sorted structure: a signature of
constants, predicates, and functions, a nonempty universe of element
ids, total interpretations for constants and functions, and a fact
table that assigns true, false, or unknown to every ground atom.
Atoms that are not listed default to unknown, so the table is total
without being stored in full.

Everything here is an immutable value object. Two domains built from
the same data compare equal, and instances can be shared freely.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, SignatureError

# The one identifier rule: symbol names and the formula scanner share it.
IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_']*"
_IDENT_RE = re.compile(IDENT_PATTERN)

# Words the formula grammar claims for itself; they cannot name symbols.
RESERVED_WORDS = frozenset({"forall", "exists"})


class TruthValue(Enum):
    """Three-valued truth. Unknown means "not settled", not "neither"."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @property
    def known(self) -> bool:
        return self is not TruthValue.UNKNOWN

    def negate(self) -> TruthValue:
        if self is TruthValue.TRUE:
            return TruthValue.FALSE
        if self is TruthValue.FALSE:
            return TruthValue.TRUE
        return TruthValue.UNKNOWN

    @staticmethod
    def of(flag: bool) -> TruthValue:
        return TruthValue.TRUE if flag else TruthValue.FALSE

    def __str__(self) -> str:
        return self.value


def _check_ident(name: str, what: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
        raise SignatureError(f"invalid {what} identifier {name!r}")
    if name in RESERVED_WORDS:
        raise SignatureError(f"{name!r} is a reserved word and cannot name a {what}")


@dataclass(frozen=True)
class Signature:
    """Symbol inventory of a domain.

    Constants are plain identifiers; predicates and functions carry a
    positive arity. Identifiers must be unique across all three kinds.
    The tuples are stored sorted by name so that equal inventories
    compare equal regardless of declaration order.
    """

    name: str
    constants: tuple[str, ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constants", tuple(sorted(self.constants)))
        object.__setattr__(
            self, "predicates", tuple(sorted((n, int(a)) for n, a in self.predicates))
        )
        object.__setattr__(
            self, "functions", tuple(sorted((n, int(a)) for n, a in self.functions))
        )
        _check_ident(self.name, "signature")
        seen: set[str] = set()
        for c in self.constants:
            _check_ident(c, "constant")
            if c in seen:
                raise SignatureError(f"duplicate symbol {c!r}")
            seen.add(c)
        for kind, entries in (("predicate", self.predicates), ("function", self.functions)):
            for name, arity in entries:
                _check_ident(name, kind)
                if name in seen:
                    raise SignatureError(f"duplicate symbol {name!r}")
                seen.add(name)
                if arity < 1:
                    raise SignatureError(f"{kind} {name!r} must have positive arity, got {arity}")

    @cached_property
    def _kinds(self) -> dict[str, tuple[str, int]]:
        table: dict[str, tuple[str, int]] = {}
        for c in self.constants:
            table[c] = ("constant", 0)
        for n, a in self.predicates:
            table[n] = ("predicate", a)
        for n, a in self.functions:
            table[n] = ("function", a)
        return table

    def kind_of(self, symbol: str) -> str | None:
        entry = self._kinds.get(symbol)
        return entry[0] if entry else None

    def arity_of(self, symbol: str) -> int | None:
        entry = self._kinds.get(symbol)
        return entry[1] if entry else None

    def symbols(self) -> frozenset[str]:
        return frozenset(self._kinds)


class _GroundAtomFields(NamedTuple):
    predicate: str
    args: tuple[str, ...]


class GroundAtom(_GroundAtomFields):
    """A predicate applied to universe elements, the key of the fact table.

    It is a tuple, so the plain tuple (predicate, args) equals it and
    finds the same fact. args is stored as a tuple whatever it is given
    as.
    """

    __slots__ = ()

    def __new__(cls, predicate: str, args: Iterable[str]) -> GroundAtom:
        return super().__new__(cls, predicate, tuple(args))

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(self.args)})"


@dataclass(frozen=True)
class KnowledgeDomain:
    """A signature interpreted over a finite universe, with partial facts.

    The universe is stored sorted; enumeration orders derived from it
    are therefore stable. facts, the one fact table, keeps only known
    values, and fact_value answers unknown for everything else. Do not
    mutate the dict fields; the type is meant to behave as a value.
    """

    signature: Signature
    universe: tuple[str, ...]
    const_interp: dict[str, str]
    func_interp: dict[tuple[str, tuple[str, ...]], str]
    facts: dict[GroundAtom, TruthValue]

    def __post_init__(self):
        elems = tuple(self.universe)
        if not elems:
            raise DomainError("universe must be nonempty")
        if len(set(elems)) != len(elems):
            raise DomainError("duplicate universe element")
        object.__setattr__(self, "universe", tuple(sorted(elems)))
        uset = set(elems)

        const_interp = dict(self.const_interp)
        for c in self.signature.constants:
            if c not in const_interp:
                raise DomainError(f"constant {c!r} has no interpretation")
            if const_interp[c] not in uset:
                raise DomainError(
                    f"constant {c!r} is interpreted as {const_interp[c]!r}, "
                    "which is not a universe element"
                )
        for c in const_interp:
            if self.signature.kind_of(c) != "constant":
                raise DomainError(f"interpretation given for unknown constant {c!r}")
        object.__setattr__(self, "const_interp", const_interp)

        func_interp = {(f, tuple(args)): v for (f, args), v in self.func_interp.items()}
        for fname, arity in self.signature.functions:
            for args in itertools.product(self.universe, repeat=arity):
                key = (fname, args)
                if key not in func_interp:
                    raise DomainError(
                        f"incomplete interpretation: missing {fname}({', '.join(args)})"
                    )
                if func_interp[key] not in uset:
                    raise DomainError(
                        f"{fname}({', '.join(args)}) = {func_interp[key]!r} "
                        "is not a universe element"
                    )
        for fname, args in func_interp:
            if self.signature.kind_of(fname) != "function":
                raise DomainError(f"interpretation given for unknown function {fname!r}")
            if self.signature.arity_of(fname) != len(args):
                raise DomainError(f"wrong argument count in interpretation of {fname!r}")
            if any(a not in uset for a in args):
                raise DomainError(f"interpretation of {fname!r} uses unknown elements")
        object.__setattr__(self, "func_interp", func_interp)

        table: dict[GroundAtom, TruthValue] = {}
        for atom, value in self.facts.items():
            if not isinstance(value, TruthValue):
                raise DomainError(f"fact {atom} has a non truth-value entry {value!r}")
            if self.signature.kind_of(atom.predicate) != "predicate":
                raise DomainError(f"fact uses unknown predicate {atom.predicate!r}")
            arity = self.signature.arity_of(atom.predicate)
            if arity != len(atom.args):
                raise DomainError(
                    f"arity mismatch: {atom.predicate} expects {arity} "
                    f"arguments, got {len(atom.args)}"
                )
            if any(a not in uset for a in atom.args):
                raise DomainError(f"fact {atom} names unknown elements")
            if value.known:
                table[atom] = value
        object.__setattr__(self, "facts", table)

    def fact_value(self, atom: GroundAtom) -> TruthValue:
        """The atom's value in facts; a plain (predicate, args) tuple works too."""

        return self.facts.get(atom, TruthValue.UNKNOWN)


def _argument(name: str, kind: str, convert, value):
    """convert(value), with a DomainError that names the argument."""

    try:
        return convert(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be {kind}, not {type(value).__name__}") from None


def _names(name: str, values: Iterable) -> None:
    """A DomainError that names the argument unless every value is a str."""

    for value in values:
        if not isinstance(value, str):
            raise DomainError(f"{name} must hold names, not {value!r}")


def make_domain(
    signature: Signature,
    universe: Iterable[str],
    const_interp: Mapping[str, str] | None = None,
    func_interp: Mapping[tuple[str, tuple[str, ...]], str] | None = None,
    facts: Iterable[tuple[str, tuple[str, ...], TruthValue | bool]] = (),
) -> KnowledgeDomain:
    """Build a KnowledgeDomain from names rather than resolved elements.

    When const_interp is omitted every constant must itself be a
    universe element and denotes itself. Fact arguments may be
    constants (resolved through the interpretation) or raw universe
    elements; constants win when a name is both. A fact must be a
    (predicate, arguments, value) triple of a string, strings and a
    TruthValue or bool. Listing the same atom twice is fine if the
    values agree and an error otherwise. Every other check of a fact
    (its predicate and arity) is KnowledgeDomain's, which also drops
    the unknown ones.
    """

    elems = _argument("universe", "an iterable of names", set, universe)
    _names("universe", elems)
    elems = tuple(sorted(elems))
    if not elems:
        raise DomainError("universe must be nonempty")
    uset = set(elems)

    if const_interp is None:
        missing = [c for c in signature.constants if c not in uset]
        if missing:
            raise DomainError(
                f"constant {missing[0]!r} is not a universe element and no "
                "interpretation was given"
            )
        const_interp = {c: c for c in signature.constants}
    else:
        const_interp = _argument("const_interp", "a mapping", dict, const_interp)
        _names("const_interp", const_interp.values())

    func_interp = _argument("func_interp", "a mapping", dict, func_interp or {})

    seen: dict[GroundAtom, TruthValue] = {}
    for fact in _argument("facts", "an iterable of facts", tuple, facts):
        try:
            pred, args, value = fact
            args = tuple(args)
        except (TypeError, ValueError):
            raise DomainError(
                f"fact {fact!r} is not a (predicate, arguments, value) triple"
            ) from None
        if isinstance(value, bool):
            value = TruthValue.of(value)
        for a in args:
            if not isinstance(a, str) or (a not in const_interp and a not in uset):
                shown = ", ".join(map(str, args))  # args need not be names
                raise DomainError(f"unknown symbol {a!r} in fact {pred}({shown})")
        atom = GroundAtom(pred, (const_interp.get(a, a) for a in args))
        if not isinstance(value, TruthValue):
            raise DomainError(f"fact {atom} has a non truth-value entry {value!r}")
        if not isinstance(pred, str):
            raise DomainError(f"fact uses unknown predicate {pred!r}")
        if atom in seen and seen[atom] is not value:
            raise DomainError(
                f"conflicting fact {atom}: {seen[atom]} vs {value}"
            )
        seen[atom] = value

    return KnowledgeDomain(
        signature=signature,
        universe=elems,
        const_interp=const_interp,
        func_interp=func_interp,
        facts=seen,
    )
