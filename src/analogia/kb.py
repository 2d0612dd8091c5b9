"""Finite first-order knowledge bases with three-valued ground facts.

A KnowledgeDomain is a finite single-sorted structure: a signature of
constants, predicates, and functions, a nonempty universe of element
ids, total interpretations for constants and functions, and a fact
table that assigns true, false, or unknown to every ground atom, keyed
by the plain tuple (predicate, args). Atoms that are not listed default
to unknown, so the table is total without being stored in full.

Signature and KnowledgeDomain each check all of their own input and
name the malformed value in a SignatureError or DomainError;
make_domain turns names into elements and fact triples into keys, and
_table is the one check for a repeated atom. All are immutable values:
equal data compare equal and can be shared.

Every module refuses a wrong argument by the rules kept here, with
its own AnalogiaError subclass: _instance is the one refusal of a
wrong-typed argument ("sig must be a Signature, not int"), _argument
refuses an argument that is not a collection of the expected kind,
and _items is the one check of each element of a collection argument
("universe must hold names, not 1").

members is the one decoder of a mask: the items at its set positions,
in order. The preference kernel, repcheck and the translation tables
all read their subset and support masks through it.

Value is the base of every record in the package. A record's fields
are its __init__'s parameters, in order; __init__ makes the record's
checks and stores each field with object.__setattr__. Two records are
equal when they are of one class and their fields are equal, the hash
is the fields' hash, and repr reads Class(field=value, ...). Assigning
or deleting an attribute raises AttributeError. What a constructor
derives beside the fields, such as Signature's symbol table, is stored
the same way and takes no part in eq, hash or repr.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

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


def format_atom(name: str, args: Iterable[str]) -> str:
    """name(a, b), as facts and interpretations are written."""

    return f"{name}({', '.join(map(str, args))})"


def _a_or_an(noun: str) -> str:
    """noun after its indefinite article: "a Signature", "an AnalogyMap"."""

    return f"{'an' if noun[0].lower() in 'aeiou' else 'a'} {noun}"


def _check_ident(name: str, what: str) -> None:
    if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
        raise SignatureError(f"invalid {what} identifier {name!r}")
    if name in RESERVED_WORDS:
        raise SignatureError(f"{name!r} is a reserved word and cannot name {_a_or_an(what)}")


def _instance(name: str, value, kind: type, error):
    """value if it is a kind, else an error that names the argument. An
    Enum member expected is shown by the value's repr, anything else by
    its type."""

    if isinstance(value, kind):
        return value
    shown = repr(value) if issubclass(kind, Enum) else type(value).__name__
    raise error(f"{name} must be {_a_or_an(kind.__name__)}, not {shown}")


def _argument(name: str, kind: str, convert, value, error=DomainError):
    """convert(value), with an error that names the argument. A str is
    refused too: converting it would split it into characters."""

    try:
        if isinstance(value, str):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be {kind}, not {type(value).__name__}") from None


def _items(name: str, value, kind: type, error, container: str = "iterable") -> tuple:
    """value as a tuple of kind, with an error that names the argument
    and the first item of another kind; str items are called names."""

    items = _argument(name, container, tuple, value, error)
    for item in items:
        if not isinstance(item, kind):
            held = "names" if kind is str else f"{kind.__name__} values"
            raise error(f"{name} must hold {held}, not {item!r}")
    return items


class Value:
    """An immutable record compared, hashed and shown by its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]
            cls._key = attrgetter(*cls._fields)  # one field: the bare value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._key(self), self._key(other)
        return mine is theirs or mine == theirs  # identity first, as in a tuple

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _checked(cls, **fields):
    """An instance of the record class cls made from field values that
    are already checked, without running the checks of its __init__."""

    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# Maps the binary digits of a mask, as ASCII, to the bytes 0 and 1.
_BITS = bytes.maketrans(b"01", b"\0\1")


def members(mask: int, items: Sequence) -> tuple:
    """The items whose positions are set in mask, in items order."""

    # mask's digits, lowest first, select the items in one C-level pass.
    return tuple(itertools.compress(items, bin(mask)[:1:-1].encode().translate(_BITS)))


class Signature(Value):
    """Symbol inventory of a domain.

    Constants are plain identifiers; predicates and functions carry a
    positive int arity. Identifiers must be unique across all three
    kinds. The tuples are stored sorted by name so that equal
    inventories compare equal regardless of declaration order.
    """

    def __init__(
        self,
        name: str,
        constants: tuple[str, ...] = (),
        predicates: tuple[tuple[str, int], ...] = (),
        functions: tuple[tuple[str, int], ...] = (),
    ):
        _check_ident(name, "signature")
        object.__setattr__(self, "name", name)
        # Symbol -> (kind, arity), filled while checking; not in eq, hash or repr.
        kinds: dict[str, tuple[str, int]] = {}
        groups = ("constant", constants), ("predicate", predicates), ("function", functions)
        for kind, given in groups:
            group = f"{kind}s"
            checked = []
            entries = _argument(group, "iterable", tuple, given, SignatureError)
            for entry in entries:
                try:
                    symbol, arity = (entry, 0) if kind == "constant" else entry
                except (TypeError, ValueError):
                    raise SignatureError(
                        f"{kind} {entry!r} is not a (name, arity) pair"
                    ) from None
                _check_ident(symbol, kind)
                if symbol in kinds:
                    raise SignatureError(f"duplicate symbol {symbol!r}")
                if kind != "constant" and (type(arity) is not int or arity < 1):
                    raise SignatureError(
                        f"{kind} {symbol!r} must have positive arity, got {arity!r}"
                    )
                kinds[symbol] = (kind, arity)
                checked.append(symbol if kind == "constant" else (symbol, arity))
            object.__setattr__(self, group, tuple(sorted(checked)))
        object.__setattr__(self, "_kinds", kinds)

    def kind_of(self, symbol: str) -> str | None:
        try:
            return self._kinds.get(symbol, (None,))[0]
        except TypeError:
            raise SignatureError(f"symbol must be hashable, not {type(symbol).__name__}") from None

    def arity_of(self, symbol: str) -> int | None:
        try:
            return self._kinds.get(symbol, (None, None))[1]
        except TypeError:
            raise SignatureError(f"symbol must be hashable, not {type(symbol).__name__}") from None

    def symbols(self) -> frozenset[str]:
        return frozenset(self._kinds)


def _const_interp(value) -> dict[str, str]:
    """value as a dict of names, or a DomainError that names const_interp."""

    const_interp = _argument("const_interp", "a mapping", dict, value)
    _items("const_interp", const_interp.values(), str, DomainError)
    return const_interp


def _table(kind: str, entries: Iterable[tuple[str, tuple[str, ...], object]]) -> dict:
    """{(name, args): value}; an atom repeated with another value is an error."""

    table: dict = {}
    for name, args, value in entries:
        seen = table.setdefault((name, args), value)
        if seen != value:
            raise DomainError(f"conflicting {kind} {format_atom(name, args)}: {seen} vs {value}")
    return table


def _key(argument: str, key, kind: str) -> tuple[str, tuple]:
    """key if it is a (name, args tuple) pair, else a DomainError naming argument."""

    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], tuple):
        return key
    raise DomainError(f"{argument} key {key!r} is not a ({kind}, arguments) pair")


class KnowledgeDomain(Value):
    """A signature interpreted over a finite universe, with partial facts.

    The constructor is the one complete check of a domain, whoever
    builds it, and the only test of fact arguments against the universe.
    It reports the first fault in the signature, universe, const_interp,
    func_interp's entries then totality, or each fact's key, value,
    predicate, arity and first unknown argument ("unknown symbol 'z' in
    fact P(z)"); a conflicting repeat is caught before, where the tables
    are keyed. The universe is stored sorted, so orders derived from it
    are stable. func_interp and facts are keyed by plain (name, args)
    tuples; facts, the one fact table, keeps only known values, and
    fact_value answers unknown for the rest. fact_rows, derived from
    facts on first use, splits it by predicate for the compiled atoms.
    Do not mutate the dicts.
    """

    def __init__(
        self,
        signature: Signature,
        universe: tuple[str, ...],
        const_interp: dict[str, str],
        func_interp: dict[tuple[str, tuple[str, ...]], str],
        facts: dict[tuple[str, tuple[str, ...]], TruthValue],
    ):
        sig = _instance("signature", signature, Signature, DomainError)
        object.__setattr__(self, "signature", sig)
        elems = _items("universe", universe, str, DomainError, "an iterable of names")
        if not elems:
            raise DomainError("universe must be nonempty")
        uset = set(elems)
        if len(uset) != len(elems):
            raise DomainError("duplicate universe element")
        object.__setattr__(self, "universe", tuple(sorted(elems)))

        const_interp = _const_interp(const_interp)
        for c in sig.constants:
            if c not in const_interp:
                raise DomainError(f"constant {c!r} has no interpretation")
            if const_interp[c] not in uset:
                raise DomainError(
                    f"constant {c!r} is interpreted as {const_interp[c]!r}, "
                    "which is not a universe element"
                )
        for c in const_interp:
            if sig.kind_of(c) != "constant":
                raise DomainError(f"interpretation given for unknown constant {c!r}")
        object.__setattr__(self, "const_interp", const_interp)

        checked = {}
        for key, value in _argument("func_interp", "a mapping", dict, func_interp).items():
            fname, args = _key("func_interp", key, "function")
            _items("func_interp", (*args, value), str, DomainError)
            if sig.kind_of(fname) != "function":
                raise DomainError(f"interpretation given for unknown function {fname!r}")
            if sig.arity_of(fname) != len(args):
                raise DomainError(f"wrong argument count in interpretation of {fname!r}")
            if not uset.issuperset(args):
                raise DomainError(f"interpretation of {fname!r} uses unknown elements")
            checked[key] = value
        for fname, arity in sig.functions:
            for args in itertools.product(self.universe, repeat=arity):
                value = checked.get((fname, args))
                if value is None:
                    raise DomainError(
                        f"incomplete interpretation: missing {format_atom(fname, args)}"
                    )
                if value not in uset:
                    raise DomainError(
                        f"{format_atom(fname, args)} = {value!r} is not a universe element"
                    )
        object.__setattr__(self, "func_interp", checked)

        kinds = sig._kinds  # one lookup per fact: this loop runs on every parsed fact
        table = {}
        for key, value in _argument("facts", "a mapping", dict, facts).items():
            pred, args = _key("facts", key, "predicate")
            if not isinstance(value, TruthValue):
                raise DomainError(
                    f"fact {format_atom(pred, args)} has a non truth-value entry {value!r}"
                )
            kind, arity = kinds.get(pred, (None, None))
            if kind != "predicate":
                raise DomainError(f"fact uses unknown predicate {pred!r}")
            if arity != len(args):
                raise DomainError(
                    f"arity mismatch: {pred} expects {arity} arguments, got {len(args)}"
                )
            if not uset.issuperset(args):
                unknown = next(a for a in args if a not in uset)
                raise DomainError(f"unknown symbol {unknown!r} in fact {format_atom(pred, args)}")
            if value.known:
                table[key] = value
        object.__setattr__(self, "facts", table)

    @cached_property
    def fact_rows(self) -> dict[str, dict]:
        """facts split by predicate, made on first use: a predicate's row
        keys each known value by the atom's argument, or by its argument
        tuple from arity 2 on, as an itemgetter over the arguments gives it."""

        rows: dict[str, dict] = {}
        for (pred, args), value in self.facts.items():
            rows.setdefault(pred, {})[args if len(args) > 1 else args[0]] = value
        return rows

    def fact_value(self, atom: tuple[str, tuple[str, ...]]) -> TruthValue:
        """The value of the atom keyed (predicate, args) in facts."""

        try:
            return self.facts.get(atom, TruthValue.UNKNOWN)
        except TypeError:
            raise DomainError(f"atom must be hashable, not {type(atom).__name__}") from None


def make_domain(
    signature: Signature,
    universe: Iterable[str],
    const_interp: Mapping[str, str] | None = None,
    func_interp: Mapping[tuple[str, tuple[str, ...]], str] | None = None,
    facts: Iterable[tuple[str, tuple[str, ...], TruthValue | bool]] = (),
) -> KnowledgeDomain:
    """Build a KnowledgeDomain from names rather than resolved elements.

    A repeated universe element counts once. When const_interp is
    omitted every constant must itself be a universe element and
    denotes itself. Fact arguments may be constants (resolved through
    the interpretation) or raw universe elements; constants win when a
    name is both. A fact is a (predicate, arguments, value) triple of
    a string, strings and a TruthValue or bool. Listing the same atom
    twice is fine if the values agree and an error otherwise.

    Only what a key needs is checked here, on every triple before any
    repeat: its shape, str arguments, the const_interp values put in,
    the value and the predicate's type. The rest, unknown arguments
    too, is KnowledgeDomain's, which also drops the unknown facts.
    """

    elems = _argument("universe", "an iterable of names", dict.fromkeys, universe)
    if const_interp is None:
        constants = signature.constants if isinstance(signature, Signature) else ()
        for c in constants:
            if c not in elems:
                raise DomainError(
                    f"constant {c!r} is not a universe element and no interpretation was given"
                )
        const_interp = {c: c for c in constants}
    else:
        const_interp = _const_interp(const_interp)

    resolved = []
    for fact in _argument("facts", "an iterable of facts", tuple, facts):
        try:
            pred, args, value = fact
            if isinstance(args, str):
                raise DomainError(
                    f"arguments of fact {fact!r} must be an iterable of names, not str"
                )
            args = tuple(args)
        except (TypeError, ValueError):
            raise DomainError(
                f"fact {fact!r} is not a (predicate, arguments, value) triple"
            ) from None
        if isinstance(value, bool):
            value = TruthValue.of(value)
        for a in args:
            if not isinstance(a, str):
                raise DomainError(f"unknown symbol {a!r} in fact {format_atom(pred, args)}")
        args = tuple([const_interp.get(a, a) for a in args])
        if not isinstance(value, TruthValue):
            raise DomainError(
                f"fact {format_atom(pred, args)} has a non truth-value entry {value!r}"
            )
        if not isinstance(pred, str):
            raise DomainError(f"fact uses unknown predicate {pred!r}")
        resolved.append((pred, args, value))

    func_interp = {} if func_interp is None else func_interp
    return KnowledgeDomain(
        signature, tuple(elems), const_interp, func_interp, _table("fact", resolved)
    )
