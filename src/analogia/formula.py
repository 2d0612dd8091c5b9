"""Formula syntax and three-valued evaluation over finite domains.

The formula language is first order with equality left out: atoms are
predicates applied to terms, terms are variables, constants, or
function applications, and formulas are closed under !, &, |, ->, and
the two quantifiers. Connectives follow strong Kleene semantics:
conjunction is false as soon as one side is false, disjunction true as
soon as one side is true, and unknown otherwise; implication is
material, !a | b. Quantifiers fold their connective over the finite
universe, so they add no expressive power and agree with the explicit
conjunction or disjunction.

evaluate compiles a sentence for its domain into nested closures over
a list of variable slots, one per binder, and runs them once. Every
binary connective compiles through one junction, read off its node
class: & and | as they stand, and a -> b as !a | b. A subformula that
reads no bound variable is evaluated once, at compile time, so a
ground part under a quantifier is not re-evaluated for each element. A
quantifier whose body does not read its variable is dropped: the
universe is nonempty, so folding one value over it gives that value.
Only a quantifier whose body reads its variable loops over the
universe, and k such nested quantifiers still cost n^k body runs over
n elements. An atom whose arguments are variables and constants, one
variable at least, reads its predicate's row of the domain's fact_rows
with one get, keyed by one itemgetter over the slots: each constant's
element sits in a slot of its own past the binders'. Ground atoms and
atoms with a function term read the fact table itself.

Concrete syntax, shared with the session files:

    formula  := or_part ('->' formula)?           right associative
    or_part  := and_part ('|' and_part)*
    and_part := unary ('&' unary)*
    unary    := '!' unary | quantifier | primary
    quantifier := ('forall' | 'exists') IDENT '.' formula
    primary  := '(' formula ')' | IDENT '(' term (',' term)* ')'
    term     := IDENT ('(' term (',' term)* ')')?

tokenize scans the text with one findall and returns the token texts
as plain strings, "" last for end of input; the text alone tells a
token's kind. Each match is one token and the blanks, newlines and
comments after it, so every match ends where the next token starts;
the gap before the first token is skipped by starting the scan past
it. A character no token class takes matches as "", and tokenize
raises a ParseError there. No position is kept per token: a ParseError
repeats the scan match by match up to its token and counts the
newlines before it. Identifiers match kb.IDENT_PATTERN,
[A-Za-z_][A-Za-z0-9_']*, the same rule Signature holds symbol names to,
so primed names like x' are fine. A session text is scanned first by a
FactLineStream, whose one findall also takes each `fact P(a, b) = v;`
line with blanks only inside and a truth word for v as one token;
fact_line reads such a token with one more findall. Its errors carry
no position, so tokenize reads a text again where that scan or the
parse over it fails.

Each node class defines its connective once: And, Or and Implies
subclass one record class with the fields left and right, Forall and
Exists one with var and body, Var and Const one with name. A class
carries its token, its precedence prec (higher binds tighter), for a
binary one right_assoc, and for a binary one or a quantifier the
absorbing value absorb of the junction it compiles to (Implies has
Or's); the parser, the printer and the compiler read them there. !
binds tighter than &, & than |, | than ->, and a quantifier, which
grabs the longest formula it can, loosest; -> associates to the right,
& and | to the left. The printer parenthesizes a side that binds more
loosely than its connective, or as loosely on the side the connective
does not associate to, so parse(print_formula(f)) returns f unchanged.
print_formula keeps the text on the formula it printed, so a working
sentence or an image that every report prints again is rendered once.

Structural reads go through formula_nodes, which keeps its own stack,
so they take a tree of any depth. A formula nests at most
MAX_FORMULA_DEPTH levels deep: the parser raises a ParseError at the
token that crosses the cap. check_formula alone decides whether a
tree built in code is a sentence, the cap included, and evaluate runs
it first; the printer, translate and TranslationTables.conjectures
scan only the depth, and the compiler and the walks trust the tree.
The parser, the compiler and its closures, the printer, the
translation walk and the nodes' hash and equality recurse.

An occurrence of an identifier in term position is a variable when
some enclosing quantifier binds it and a constant otherwise. To keep
printed formulas unambiguous, check_formula rejects binders whose name
collides with a declared symbol of the signature.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from operator import itemgetter

from .errors import FormulaError, ParseError
from .kb import (
    IDENT_PATTERN,
    RESERVED_WORDS,
    KnowledgeDomain,
    Signature,
    TruthValue,
    Value,
    _IDENT_RE,
    _instance,
)

# ====================================================================
# Abstract syntax
# ====================================================================


class Term(Value):
    """Base class for term nodes."""

    __slots__ = ()


class _Name(Term):
    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Var(_Name):
    pass


class Const(_Name):
    pass


class FuncApp(Term):
    def __init__(self, func: str, args: tuple[Term, ...]):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))


_T, _F, _U = TruthValue.TRUE, TruthValue.FALSE, TruthValue.UNKNOWN


class Formula(Value):
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    prec = 5

    def __init__(self, predicate: str, args: tuple[Term, ...]):
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "args", tuple(args))


class Not(Formula):
    prec = 4
    token = "!"

    def __init__(self, body: Formula):
        object.__setattr__(self, "body", body)


class _Binary(Formula):
    right_assoc = False

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class And(_Binary):
    prec, token, absorb = 3, "&", _F


class Or(_Binary):
    prec, token, absorb = 2, "|", _T


class Implies(_Binary):  # !left | right
    prec, token, right_assoc, absorb = 1, "->", True, _T


class _Quantifier(Formula):
    prec = 0

    def __init__(self, var: str, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


class Forall(_Quantifier):
    token, absorb = "forall", And.absorb


class Exists(_Quantifier):
    token, absorb = "exists", Or.absorb


_BINARY = (And, Or, Implies)
_QUANT = (Forall, Exists)


# ====================================================================
# Structure
# ====================================================================

# The deepest a formula may nest, counting every node on a path from
# the root (connectives, quantifiers, atoms and terms); the parser
# counts every pair of parentheses as well. Only the parser,
# check_formula and _check_depth test it, and a tree built in code
# meets one of the last two first, so the recursive code (the compiler,
# the printer, translation, and the nodes' hash and equality)
# only ever sees trees that fit under Python's default recursion limit
# together with the command line's own frames.
MAX_FORMULA_DEPTH = 100
_TOO_DEEP = f"formula nests deeper than {MAX_FORMULA_DEPTH} levels"


def formula_nodes(f: Formula) -> list[tuple[object, tuple[str, ...], int, bool]]:
    """Every node of f in depth-first, left-to-right order.

    Each entry is (node, scope, depth, in_term): the binders in scope
    at the node, outermost first; its depth, 1 at the root; and whether
    it sits in term position, as an argument of an atom or a function.
    The walk keeps its own stack, so a tree of any depth is fine. It
    descends only through the node kinds its position calls for and
    lists anything else as it stands, for check_formula to reject. A
    node deeper than MAX_FORMULA_DEPTH is listed but not entered, so
    the walk's cost is bounded by the part of the tree that
    check_formula can accept.
    """

    out: list[tuple[object, tuple[str, ...], int, bool]] = []
    stack: list[tuple[object, tuple[str, ...], int, bool]] = [(f, (), 1, False)]
    while stack:
        entry = stack.pop()
        out.append(entry)
        node, scope, depth, in_term = entry
        if depth > MAX_FORMULA_DEPTH:
            continue
        kind = type(node)
        depth += 1
        if in_term:
            if kind is FuncApp:
                stack += [(a, scope, depth, True) for a in reversed(node.args)]
        elif kind is Atom:
            stack += [(a, scope, depth, True) for a in reversed(node.args)]
        elif kind in _BINARY:
            stack.append((node.right, scope, depth, False))
            stack.append((node.left, scope, depth, False))
        elif kind is Not:
            stack.append((node.body, scope, depth, False))
        elif kind in _QUANT:
            stack.append((node.body, scope + (node.var,), depth, False))
    return out


def _check_depth(f: Formula) -> None:
    """The depth scan for a walk given a tree no check_formula has seen."""

    if max(map(itemgetter(2), formula_nodes(f))) > MAX_FORMULA_DEPTH:
        raise FormulaError(_TOO_DEEP)


def mentioned_constants(f: Formula) -> frozenset[str]:
    """Constant symbols occurring anywhere in the formula."""

    return frozenset(node.name for node, _, _, _ in formula_nodes(f) if type(node) is Const)


# ====================================================================
# Well-formedness
# ====================================================================


def _check_symbol(sig: Signature, name: str, want: str, nargs: int | None = None) -> None:
    kind = sig.kind_of(name)
    if kind is None:
        raise FormulaError(f"unknown {'predicate' if want == 'predicate' else 'symbol'} {name!r}")
    if kind != want:
        raise FormulaError(f"{name!r} is a {kind}, not a {want}")
    if nargs is not None and sig.arity_of(name) != nargs:
        raise FormulaError(
            f"arity mismatch: {name} expects {sig.arity_of(name)} arguments, got {nargs}"
        )


def check_formula(f: Formula, sig: Signature) -> None:
    """Raise FormulaError unless f is a sentence over sig.

    The first offending node in depth-first, left-to-right order is
    reported: a node nested deeper than MAX_FORMULA_DEPTH, unknown or
    wrongly-used symbols, arity mismatches, free variables, and binders
    that shadow a declared symbol.
    """

    _instance("sig", sig, Signature, FormulaError)
    for node, scope, depth, in_term in formula_nodes(f):
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaError(_TOO_DEEP)
        kind = type(node)
        if in_term:
            if kind is Var:
                if node.name not in scope:
                    raise FormulaError(f"free variable {node.name!r}")
            elif kind is Const:
                _check_symbol(sig, node.name, "constant")
            elif kind is FuncApp:
                _check_symbol(sig, node.func, "function", len(node.args))
            else:
                raise FormulaError(f"not a term node: {node!r}")
        elif kind is Atom:
            _check_symbol(sig, node.predicate, "predicate", len(node.args))
        elif kind in _QUANT:
            if node.var in RESERVED_WORDS:
                raise FormulaError(f"bound variable {node.var!r} is a reserved word")
            if sig.kind_of(node.var) is not None:
                raise FormulaError(
                    f"bound variable {node.var!r} collides with a declared symbol"
                )
        elif kind is not Not and kind not in _BINARY:
            raise FormulaError(f"not a formula node: {node!r}")


# ====================================================================
# Evaluation
# ====================================================================

# A compiled node is a pair (code, slots). slots is the bitmask of the
# binder slots the node reads, and a binder's slot is its depth in the
# tree, so binders on one path never share a slot, shadowing included.
# When slots is 0 the node is ground and code is its value: an element
# for a term, a TruthValue for a formula, computed once at compile
# time. Otherwise code is a closure over env, the list of slot values.


def _constant(value):
    return lambda env: value


def _junction(absorb: TruthValue, a, sa: int, b, sb: int):
    """a & b when absorb is FALSE, a | b when it is TRUE (strong Kleene):
    every binary connective, with an implication's left side negated
    first. A ground side folds: absorb decides, the unit drops out."""

    if not sa and not sb:
        if a is absorb or b is absorb:
            return absorb, 0
        return (a if a is b else _U), 0
    if not sa or not sb:
        ground, code, slots = (a, b, sb) if not sa else (b, a, sa)
        if ground is absorb:
            return absorb, 0
        if ground is not _U:  # the unit of the connective
            return code, slots
        return (lambda env: absorb if code(env) is absorb else _U), slots

    def junction(env):
        x = a(env)
        if x is absorb:
            return absorb
        y = b(env)
        if y is absorb:
            return absorb
        return x if x is y else _U

    return junction, sa | sb


def _negation(code, slots: int):
    if not slots:
        return code.negate(), 0

    def negation(env):  # by identity: a TruthValue hashes in Python
        v = code(env)
        return _F if v is _T else _T if v is _F else v

    return negation, slots


class _Compiler:
    """Compiles checked sentences for one domain into (code, slots) nodes,
    reading every symbol through symbol: identity or a map's lookup.
    sentence is the one entry; it starts at the empty scope, depth 1."""

    __slots__ = ("domain", "env", "symbol")

    def __init__(self, domain: KnowledgeDomain, symbol=lambda name: name):
        self.domain = domain
        # A binder's slot is its depth, at most MAX_FORMULA_DEPTH in a
        # checked sentence; the constants that row atoms read follow.
        self.env: list[str] = [""] * (MAX_FORMULA_DEPTH + 1)
        self.symbol = symbol

    def sentence(self, f: Formula) -> TruthValue:
        """The value of the sentence f, compiled and run once."""

        return self.formula(f, {}, 1)[0]

    def term(self, t: Term, scope: dict[str, int]):
        kind = type(t)
        if kind is Var:
            slot = scope[t.name]
            return itemgetter(slot), 1 << slot
        if kind is Const:
            return self.domain.const_interp[self.symbol(t.name)], 0
        func = self.symbol(t.func)
        args, slots = self.args(t.args, scope)
        table = self.domain.func_interp
        if not slots:
            return table[(func, args)], 0
        return (lambda env: table[(func, args(env))]), slots

    def args(self, ts: tuple[Term, ...], scope: dict[str, int]):
        """The argument tuple when ground, else a closure that builds it."""

        codes, slots = [], 0
        for t in ts:
            code, s = self.term(t, scope)
            codes.append((code, s))
            slots |= s
        if not slots:
            return tuple(code for code, _ in codes), 0
        getters = [code if s else _constant(code) for code, s in codes]
        return (lambda env: tuple([g(env) for g in getters])), slots

    def formula(self, f: Formula, scope: dict[str, int], depth: int):
        kind = type(f)
        if kind is Atom:
            return self.atom(f, scope)
        if kind is Not:
            return _negation(*self.formula(f.body, scope, depth + 1))
        if kind in _QUANT:
            return self.quantifier(f, scope, depth)
        a, sa = self.formula(f.left, scope, depth + 1)
        if kind is Implies:
            a, sa = _negation(a, sa)
        b, sb = self.formula(f.right, scope, depth + 1)
        return _junction(kind.absorb, a, sa, b, sb)

    def atom(self, f: Atom, scope: dict[str, int]):
        pred = self.symbol(f.predicate)
        kinds = set(map(type, f.args))
        if Var in kinds and FuncApp not in kinds:
            return self.row_atom(pred, f.args, scope)
        args, slots = self.args(f.args, scope)
        get = self.domain.facts.get
        if not slots:
            return get((pred, args), _U), 0
        return (lambda env: get((pred, args(env)), _U)), slots

    def row_atom(self, pred: str, ts: tuple[Term, ...], scope: dict[str, int]):
        """An atom over variables and constants, read from pred's row of
        fact_rows: its key comes off env in one itemgetter call, each
        constant's element put in a slot of its own past the binders."""

        env, slots, indices = self.env, 0, []
        for t in ts:
            if type(t) is Var:
                index = scope[t.name]
                slots |= 1 << index
            else:
                index = len(env)
                env.append(self.domain.const_interp[self.symbol(t.name)])
            indices.append(index)
        row = self.domain.fact_rows.get(pred)
        if row is None:  # no known fact: unknown wherever the variables point
            return _U, 0
        key, get = itemgetter(*indices), row.get
        return (lambda env: get(key(env), _U)), slots

    def quantifier(self, f: Forall | Exists, scope: dict[str, int], depth: int):
        slot = depth
        body, slots = self.formula(f.body, {**scope, f.var: slot}, depth + 1)
        bit = 1 << slot
        if not slots & bit:
            # The body does not read the binder: over a nonempty universe
            # the fold of one value is that value.
            return body, slots
        short = f.absorb
        rest = short.negate()
        universe = self.domain.universe

        def fold(env):
            unknown = False
            for e in universe:
                env[slot] = e
                v = body(env)
                if v is not rest:
                    if v is short:
                        return short
                    unknown = True
            return _U if unknown else rest

        slots ^= bit
        # every closure of the sentence runs on the one list self.env
        return (fold, slots) if slots else (fold(self.env), 0)


def evaluate(f: Formula, domain: KnowledgeDomain) -> TruthValue:
    """Evaluate a sentence, once check_formula(f, domain.signature) passes.

    Whatever check_formula rejects raises its FormulaError. The sentence
    is then compiled for the domain, as the module docstring describes,
    and run once.
    """

    _instance("domain", domain, KnowledgeDomain, FormulaError)
    check_formula(f, domain.signature)
    return _Compiler(domain).sentence(f)


# ====================================================================
# Tokens
# ====================================================================

# What may sit between tokens: blanks, newlines and comments.
_BLANK = "[ \t\r\n]"
_GAP = rf"(?:{_BLANK}+|#[^\n]*)*"
_GAP_RE = re.compile(_GAP)
# One token and the gap after it, so each match ends where the next
# token starts: findall searches, and with the gap first it could
# restart inside a comment and take its words as tokens. The group is
# empty where no token class starts: at a character no class takes,
# and at end of input. Digits are [0-9] only: \d would also take every
# other Unicode decimal digit, such as ٣. No possessive quantifiers or
# atomic groups: re has them only from Python 3.11.
_TOKEN_RE = re.compile(f"({IDENT_PATTERN}|[0-9]+|->|[!&|(){{}},;:.=/]|){_GAP}")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# The rest of a `fact P(a, b) = v;` line after its keyword: blanks but
# no comment between its tokens, and a truth word for v.
_FACT_REST = (
    rf"{_BLANK}+{IDENT_PATTERN}{_BLANK}*\({_BLANK}*{IDENT_PATTERN}"
    rf"(?:{_BLANK}*,{_BLANK}*{IDENT_PATTERN})*{_BLANK}*\){_BLANK}*="
    rf"{_BLANK}*(?:true|false|unknown){_BLANK}*;"
)
# _TOKEN_RE with one more token: a whole fact line, whose text starts
# after the keyword, at a blank, which no other token starts with. The
# keyword is taken only where a blank follows it, and the empty token
# only where no blank does, so where the rest of the line does not
# match the scan backs off and takes the keyword as an identifier.
_FACT_TOKEN_RE = re.compile(
    rf"(?:fact(?={_BLANK}))?({_FACT_REST}|{IDENT_PATTERN}|[0-9]+|->|[!&|(){{}},;:.=/]"
    rf"|(?!{_BLANK})){_GAP}"
)


def tokenize(text: str) -> list[str]:
    """Split text into token texts, ending with "" for end of input.

    The token set covers both bare formulas and full session files.
    Comments run from '#' to end of line.
    """

    _instance("text", text, str, FormulaError)
    tokens = _TOKEN_RE.findall(text, _GAP_RE.match(text).end())
    first_empty = tokens.index("")  # the end of input, if nothing earlier
    if first_empty < len(tokens) - 1:
        offset, line, col = _where(text, first_empty)
        raise ParseError(f"unexpected character {text[offset]!r}", line, col)
    return tokens


def token_positions(text: str) -> Iterator[tuple[int, int, int]]:
    """Yield (offset, line, column) for each entry of tokenize(text).

    Lines and columns are 1-based. This repeats the scan match by match
    and counts the newlines between two token starts once, so listing
    every position takes one pass over the text.
    """

    line, line_start, seen = 1, 0, 0
    for m in _TOKEN_RE.finditer(text, _GAP_RE.match(text).end()):
        start = m.start()
        newlines = text.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", seen, start) + 1
        seen = start
        yield start, line, start - line_start + 1


def _where(text: str, index: int) -> tuple[int, int, int]:
    """token_positions(text) at entry index."""

    return next(itertools.islice(token_positions(text), index, None))


class TokenStream:
    """Cursor over tokenize's token texts with positioned errors.

    The text alone tells a token's kind: identifiers start with a
    letter or '_', numbers are digits, symbols are punctuation, and end
    of input is "". Positions are not kept: error rescans the text up
    to the failing token to find its line and column.
    """

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def take(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.error(f"expected {text!r}, found {self.describe()}")
        self.pos += 1

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] not in _IDENT_START:
            self.error(f"expected identifier, found {self.describe()}")
        self.pos += 1
        return tok

    def expect_number(self) -> int:
        tok = self.tokens[self.pos]
        if not tok.isdigit():
            self.error(f"expected number, found {self.describe()}")
        try:
            value = int(tok)
        except ValueError:  # past the interpreter's limit on digits
            self.error(f"number of {len(tok)} digits is too long")
        self.pos += 1
        return value

    def describe(self) -> str:
        """The current token as error messages show it."""

        tok = self.tokens[self.pos]
        return repr(tok) if tok else "end of input"

    def error(self, message: str, index: int | None = None):
        """Raise a ParseError at token index, by default the current one."""

        _, line, col = _where(self.text, self.pos if index is None else index)
        raise ParseError(message, line, col)


class FactLineStream(TokenStream):
    """A TokenStream over a session text in which each fact line that
    _FACT_REST takes is one token; every other token is tokenize's.

    Nothing but a domain body accepts a fact line token: it starts with
    a blank, so it is no identifier, number or symbol. fact_line reads
    it. The token indices are not tokenize's, so no error can be placed:
    a bad character, or any error, raises a ParseError at line 0, column
    0, and the caller reads the text again through tokenize for the
    positioned one.
    """

    def __init__(self, text: str):
        tokens = _FACT_TOKEN_RE.findall(text, _GAP_RE.match(text).end())
        super().__init__(text, tokens)
        if tokens.index("") < len(tokens) - 1:
            self.error("unexpected character")

    def error(self, message: str, index: int | None = None):
        raise ParseError(message, 0, 0)


def fact_line(token: str) -> tuple[str, tuple[str, ...], str]:
    """(predicate, args, value word) of a fact line token."""

    predicate, *args, value = _IDENT_RE.findall(token)
    return predicate, tuple(args), value


# ====================================================================
# Formula parsing
# ====================================================================

def parse_formula_stream(ts: TokenStream) -> Formula:
    """Parse one formula from the stream, leaving the cursor after it."""

    return _parse_chain(ts, [], 0)[0]


# Each parse function gets the depth of the position it fills, the
# number of levels above it, and returns its formula or term with the
# deepest level that it reaches.


def _deeper(ts: TokenStream, depth: int) -> int:
    """depth + 1, or a ParseError at the next token past the depth cap."""

    if depth >= MAX_FORMULA_DEPTH:
        ts.error(_TOO_DEEP)
    return depth + 1


# The binary connectives from the loosest binding to the tightest: the
# chain at level i parses operands at level i + 1, and unary ones below
# the last level.
_CHAIN = sorted(_BINARY, key=lambda kind: kind.prec)
_QUANTIFIER_WORDS = {kind.token: kind for kind in _QUANT}


def _parse_chain(
    ts: TokenStream, scope: list[str], depth: int, level: int = 0
) -> tuple[Formula, int]:
    if level == len(_CHAIN):
        return _parse_unary(ts, scope, depth)
    kind = _CHAIN[level]
    # A right-associative connective takes the rest of its chain as its
    # right side, so the loop below runs at most once for it.
    right_level = level if kind.right_assoc else level + 1
    f, reach = _parse_chain(ts, scope, depth, level + 1)
    while ts.at(kind.token):
        reach = _deeper(ts, reach)  # the chain so far moves under the new node
        ts.next()
        right, right_reach = _parse_chain(ts, scope, depth + 1, right_level)
        f, reach = kind(f, right), max(reach, right_reach)
    return f, reach


def _parse_unary(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    if ts.at(Not.token):
        level = _deeper(ts, depth)
        ts.next()
        body, reach = _parse_unary(ts, scope, level)
        return Not(body), reach
    quantifier = _QUANTIFIER_WORDS.get(ts.peek())
    if quantifier is not None:
        level = _deeper(ts, depth)
        ts.next()
        at = ts.pos
        var = ts.expect_ident()
        if var in RESERVED_WORDS:
            ts.error(f"{var!r} cannot be a variable", at)
        ts.expect(".")
        scope.append(var)
        try:
            body, reach = _parse_chain(ts, scope, level)
        finally:
            scope.pop()
        return quantifier(var, body), reach
    return _parse_primary(ts, scope, depth)


def _parse_primary(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    if ts.at("("):
        level = _deeper(ts, depth)  # parentheses nest the parser, not the tree
        ts.next()
        f, reach = _parse_chain(ts, scope, level)
        ts.expect(")")
        return f, reach
    if ts.peek()[:1] not in _IDENT_START:
        ts.error(f"expected formula, found {ts.describe()}")
    level = _deeper(ts, depth)
    name = ts.next()
    args, reach = _parse_args(ts, scope, level)
    return Atom(name, args), reach


def _parse_args(ts: TokenStream, scope: list[str], depth: int) -> tuple[tuple[Term, ...], int]:
    ts.expect("(")
    arg, reach = _parse_term(ts, scope, depth)
    args = [arg]
    while ts.take(","):
        arg, arg_reach = _parse_term(ts, scope, depth)
        args.append(arg)
        reach = max(reach, arg_reach)
    ts.expect(")")
    return tuple(args), reach


def _parse_term(ts: TokenStream, scope: list[str], depth: int) -> tuple[Term, int]:
    level = _deeper(ts, depth)
    name = ts.expect_ident()
    if ts.at("("):
        args, reach = _parse_args(ts, scope, level)
        return FuncApp(name, args), reach
    if name in scope:
        return Var(name), level
    return Const(name), level


def parse_formula(text: str) -> Formula:
    """Parse a single formula; trailing input is an error."""

    _instance("formula text", text, str, FormulaError)
    ts = TokenStream(text, tokenize(text))
    f = parse_formula_stream(ts)
    if ts.peek():
        ts.error(f"unexpected trailing input {ts.describe()}")
    return f


# ====================================================================
# Printing
# ====================================================================

def _term_str(t: Term) -> str:
    if isinstance(t, _Name):
        return t.name
    if isinstance(t, FuncApp):
        return f"{t.func}({', '.join([_term_str(a) for a in t.args])})"
    raise FormulaError(f"not a term node: {t!r}")


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f"{f.predicate}({', '.join([_term_str(a) for a in f.args])})", Atom.prec
    if isinstance(f, Not):
        s, p = _render(f.body)
        if p < Not.prec:
            s = f"({s})"
        return f"{Not.token}{s}", Not.prec
    if isinstance(f, _Binary):
        ls, lp = _render(f.left)
        rs, rp = _render(f.right)
        prec, right_assoc = f.prec, f.right_assoc
        if lp < prec + right_assoc:
            ls = f"({ls})"
        if rp <= prec - right_assoc:
            rs = f"({rs})"
        return f"{ls} {f.token} {rs}", prec
    if isinstance(f, _Quantifier):
        return f"{f.token} {f.var}. {_render(f.body)[0]}", f.prec
    raise FormulaError(f"not a formula node: {f!r}")


def print_formula(f: Formula) -> str:
    """Canonical text form; parse_formula(print_formula(f)) == f.

    The first render scans the depth and raises a FormulaError past
    MAX_FORMULA_DEPTH, or at a node of the wrong kind. Formulas are
    frozen, so the text is stored on f then and returned from then on.
    eq, hash and repr read only the fields, and a node built again
    from f's fields starts without the text.
    """

    text = getattr(f, "_text", None)
    if text is None:
        _check_depth(f)
        text = _render(f)[0]
        object.__setattr__(f, "_text", text)
    return text


# ====================================================================
# Default working set
# ====================================================================


def ground_atom_formulas(sig: Signature) -> list[Formula]:
    """Every predicate applied to constant tuples, in sorted order.

    This is the default working set when a session asks for "atoms":
    only elements reachable by a constant name are covered.
    """

    _instance("sig", sig, Signature, FormulaError)
    out: list[Formula] = []
    for pred, arity in sig.predicates:
        for combo in itertools.product(sig.constants, repeat=arity):
            out.append(Atom(pred, tuple(Const(c) for c in combo)))
    return out
