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

Concrete syntax, shared with the session files:

    formula  := or_part ('->' formula)?           right associative
    or_part  := and_part ('|' and_part)*
    and_part := unary ('&' unary)*
    unary    := '!' unary | quantifier | primary
    quantifier := ('forall' | 'exists') IDENT '.' formula
    primary  := '(' formula ')' | IDENT '(' term (',' term)* ')'
    term     := IDENT ('(' term (',' term)* ')')?

Identifiers match [A-Za-z_][A-Za-z0-9_']*, so primed names like x' are
fine. Precedence is ! over & over | over ->. A quantifier grabs the
longest formula it can; the printer therefore parenthesizes quantified
subformulas whenever they sit under a connective, and the composition
parse(print_formula(f)) returns f unchanged.

Structural reads go through formula_nodes, which keeps its own stack,
so they take a tree of any depth. A formula nests at most
MAX_FORMULA_DEPTH levels deep: the parser raises a ParseError at the
token that crosses the cap, and check_formula a FormulaError for a
deeper tree built in code. Past those checks only the evaluator, the
printer and translation recurse.

An occurrence of an identifier in term position is a variable when
some enclosing quantifier binds it and a constant otherwise. To keep
printed formulas unambiguous, check_formula rejects binders whose name
collides with a declared symbol of the signature.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormulaError, ParseError
from .kb import (
    RESERVED_WORDS,
    GroundAtom,
    KnowledgeDomain,
    Signature,
    TruthValue,
)

# ====================================================================
# Abstract syntax
# ====================================================================


class Term:
    """Base class for term nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class FuncApp(Term):
    func: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


class Formula:
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


_BINARY = (And, Or, Implies)
_QUANT = (Forall, Exists)


# ====================================================================
# Structure
# ====================================================================

# The deepest a formula may nest, counting every node on a path from
# the root (connectives, quantifiers, atoms and terms); the parser
# counts every pair of parentheses as well. check_formula rejects any
# deeper tree, however it was built, so the recursive builders (the
# evaluator, the printer, translation, and the dataclasses' hash and
# equality) only ever see trees that fit under Python's default
# recursion limit together with the command line's own frames.
MAX_FORMULA_DEPTH = 100


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

    for node, scope, depth, in_term in formula_nodes(f):
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
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


def reduce_term(t: Term, domain: KnowledgeDomain, env: dict[str, str] | None = None) -> str:
    """Reduce a term to the universe element it denotes."""

    env = env or {}
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise FormulaError(f"free variable {t.name!r}") from None
    if isinstance(t, Const):
        try:
            return domain.const_interp[t.name]
        except KeyError:
            raise FormulaError(f"unknown symbol {t.name!r}") from None
    if isinstance(t, FuncApp):
        args = tuple(reduce_term(a, domain, env) for a in t.args)
        try:
            return domain.func_interp[(t.func, args)]
        except KeyError:
            raise FormulaError(f"no interpretation for {t.func}({', '.join(args)})") from None
    raise FormulaError(f"not a term node: {t!r}")


def _ev(f: Formula, d: KnowledgeDomain, env: dict[str, str]) -> TruthValue:
    TV = TruthValue
    if isinstance(f, Atom):
        args = tuple(reduce_term(t, d, env) for t in f.args)
        return d.fact_value(GroundAtom(f.predicate, args))
    if isinstance(f, Not):
        return _ev(f.body, d, env).negate()
    if isinstance(f, And):
        left = _ev(f.left, d, env)
        if left is TV.FALSE:
            return TV.FALSE
        right = _ev(f.right, d, env)
        if right is TV.FALSE:
            return TV.FALSE
        if left is TV.TRUE and right is TV.TRUE:
            return TV.TRUE
        return TV.UNKNOWN
    if isinstance(f, Or):
        left = _ev(f.left, d, env)
        if left is TV.TRUE:
            return TV.TRUE
        right = _ev(f.right, d, env)
        if right is TV.TRUE:
            return TV.TRUE
        if left is TV.FALSE and right is TV.FALSE:
            return TV.FALSE
        return TV.UNKNOWN
    if isinstance(f, Implies):
        left = _ev(f.left, d, env)
        if left is TV.FALSE:
            return TV.TRUE
        right = _ev(f.right, d, env)
        if right is TV.TRUE:
            return TV.TRUE
        if left is TV.TRUE and right is TV.FALSE:
            return TV.FALSE
        return TV.UNKNOWN
    if isinstance(f, (Forall, Exists)):
        # Fold over the universe; the accumulator mirrors the binary
        # connective so the quantifier agrees with the explicit fold.
        hit_unknown = False
        short = TV.FALSE if isinstance(f, Forall) else TV.TRUE
        saved = env.get(f.var)
        had = f.var in env
        try:
            for e in d.universe:
                env[f.var] = e
                v = _ev(f.body, d, env)
                if v is short:
                    return short
                if v is TV.UNKNOWN:
                    hit_unknown = True
        finally:
            if had:
                env[f.var] = saved  # type: ignore[assignment]
            else:
                env.pop(f.var, None)
        if hit_unknown:
            return TV.UNKNOWN
        return short.negate()
    raise FormulaError(f"not a formula node: {f!r}")


def evaluate(f: Formula, domain: KnowledgeDomain) -> TruthValue:
    """Evaluate a sentence; assumes check_formula(f, domain.signature) passed."""

    return _ev(f, domain, {})


# ====================================================================
# Tokens
# ====================================================================


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "symbol" | "eof"
    text: str
    line: int
    col: int


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")
_SINGLE_SYMBOLS = set("!&|(){},;:.=/")


def tokenize(text: str) -> list[Token]:
    """Split text into tokens, tracking 1-based line and column.

    The token set covers both bare formulas and full session files.
    Comments run from '#' to end of line.
    """

    out: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if ch in _IDENT_START:
            start, start_col = i, col
            while i < n and text[i] in _IDENT_CONT:
                i += 1
                col += 1
            out.append(Token("ident", text[start:i], line, start_col))
            continue
        if ch.isdigit():
            start, start_col = i, col
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            out.append(Token("number", text[start:i], line, start_col))
            continue
        if text.startswith("->", i):
            out.append(Token("symbol", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLE_SYMBOLS:
            out.append(Token("symbol", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("eof", "", line, col))
    return out


class TokenStream:
    """Cursor over a token list with positioned errors."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == text

    def at_word(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def take_symbol(self, text: str) -> bool:
        if self.at_symbol(text):
            self.pos += 1
            return True
        return False

    def take_word(self, text: str) -> bool:
        if self.at_word(text):
            self.pos += 1
            return True
        return False

    def expect_symbol(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "symbol" and tok.text == text:
            return self.next()
        self.error(f"expected {text!r}, found {self._describe(tok)}")

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind == "ident":
            return self.next()
        self.error(f"expected identifier, found {self._describe(tok)}")

    def expect_word(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == text:
            return self.next()
        self.error(f"expected {text!r}, found {self._describe(tok)}")

    def expect_number(self) -> int:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return int(tok.text)
        self.error(f"expected number, found {self._describe(tok)}")

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)


# ====================================================================
# Formula parsing
# ====================================================================

def parse_formula_stream(ts: TokenStream) -> Formula:
    """Parse one formula from the stream, leaving the cursor after it."""

    return _parse_implies(ts, [], 0)[0]


# Each parse function gets the depth of the position it fills, the
# number of levels above it, and returns its formula or term with the
# deepest level that it reaches.


def _deeper(ts: TokenStream, depth: int) -> int:
    """depth + 1, or a ParseError at the next token past the depth cap."""

    if depth >= MAX_FORMULA_DEPTH:
        ts.error(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
    return depth + 1


def _parse_implies(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    left, reach = _parse_or(ts, scope, depth)
    if ts.at_symbol("->"):
        reach = _deeper(ts, reach)  # the left side moves under the Implies
        ts.next()
        right, right_reach = _parse_implies(ts, scope, depth + 1)
        return Implies(left, right), max(reach, right_reach)
    return left, reach


def _parse_or(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    f, reach = _parse_and(ts, scope, depth)
    while ts.at_symbol("|"):
        reach = _deeper(ts, reach)  # the chain so far moves under the new Or
        ts.next()
        right, right_reach = _parse_and(ts, scope, depth + 1)
        f, reach = Or(f, right), max(reach, right_reach)
    return f, reach


def _parse_and(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    f, reach = _parse_unary(ts, scope, depth)
    while ts.at_symbol("&"):
        reach = _deeper(ts, reach)  # the chain so far moves under the new And
        ts.next()
        right, right_reach = _parse_unary(ts, scope, depth + 1)
        f, reach = And(f, right), max(reach, right_reach)
    return f, reach


def _parse_unary(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    if ts.at_symbol("!"):
        level = _deeper(ts, depth)
        ts.next()
        body, reach = _parse_unary(ts, scope, level)
        return Not(body), reach
    tok = ts.peek()
    if tok.kind == "ident" and tok.text in RESERVED_WORDS:
        level = _deeper(ts, depth)
        ts.next()
        var = ts.expect_ident()
        if var.text in RESERVED_WORDS:
            raise ParseError(f"{var.text!r} cannot be a variable", var.line, var.col)
        ts.expect_symbol(".")
        scope.append(var.text)
        try:
            body, reach = _parse_implies(ts, scope, level)
        finally:
            scope.pop()
        return (Forall if tok.text == "forall" else Exists)(var.text, body), reach
    return _parse_primary(ts, scope, depth)


def _parse_primary(ts: TokenStream, scope: list[str], depth: int) -> tuple[Formula, int]:
    if ts.at_symbol("("):
        level = _deeper(ts, depth)  # parentheses nest the parser, not the tree
        ts.next()
        f, reach = _parse_implies(ts, scope, level)
        ts.expect_symbol(")")
        return f, reach
    tok = ts.peek()
    if tok.kind != "ident":
        ts.error(f"expected formula, found {TokenStream._describe(tok)}")
    level = _deeper(ts, depth)
    name = ts.next()
    args, reach = _parse_args(ts, scope, level)
    return Atom(name.text, args), reach


def _parse_args(ts: TokenStream, scope: list[str], depth: int) -> tuple[tuple[Term, ...], int]:
    ts.expect_symbol("(")
    arg, reach = _parse_term(ts, scope, depth)
    args = [arg]
    while ts.take_symbol(","):
        arg, arg_reach = _parse_term(ts, scope, depth)
        args.append(arg)
        reach = max(reach, arg_reach)
    ts.expect_symbol(")")
    return tuple(args), reach


def _parse_term(ts: TokenStream, scope: list[str], depth: int) -> tuple[Term, int]:
    level = _deeper(ts, depth)
    name = ts.expect_ident()
    if ts.at_symbol("("):
        args, reach = _parse_args(ts, scope, level)
        return FuncApp(name.text, args), reach
    if name.text in scope:
        return Var(name.text), level
    return Const(name.text), level


def parse_formula(text: str) -> Formula:
    """Parse a single formula; trailing input is an error."""

    ts = TokenStream(tokenize(text))
    f = parse_formula_stream(ts)
    if ts.peek().kind != "eof":
        ts.error(f"unexpected trailing input {TokenStream._describe(ts.peek())}")
    return f


# ====================================================================
# Printing
# ====================================================================

_PREC_QUANT = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_NOT = 4
_PREC_ATOM = 5


def _term_str(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    if isinstance(t, FuncApp):
        return f"{t.func}({', '.join(_term_str(a) for a in t.args)})"
    raise FormulaError(f"not a term node: {t!r}")


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f"{f.predicate}({', '.join(_term_str(a) for a in f.args)})", _PREC_ATOM
    if isinstance(f, Not):
        s, p = _render(f.body)
        if p < _PREC_NOT:
            s = f"({s})"
        return f"!{s}", _PREC_NOT
    if isinstance(f, And):
        ls, lp = _render(f.left)
        rs, rp = _render(f.right)
        if lp < _PREC_AND:
            ls = f"({ls})"
        if rp < _PREC_NOT:  # a right-hand & is reparenthesized to keep shape
            rs = f"({rs})"
        return f"{ls} & {rs}", _PREC_AND
    if isinstance(f, Or):
        ls, lp = _render(f.left)
        rs, rp = _render(f.right)
        if lp < _PREC_OR:
            ls = f"({ls})"
        if rp < _PREC_AND:
            rs = f"({rs})"
        return f"{ls} | {rs}", _PREC_OR
    if isinstance(f, Implies):
        ls, lp = _render(f.left)
        rs, rp = _render(f.right)
        if lp < _PREC_OR:  # implication associates to the right
            ls = f"({ls})"
        if rp < _PREC_IMPLIES:
            rs = f"({rs})"
        return f"{ls} -> {rs}", _PREC_IMPLIES
    if isinstance(f, (Forall, Exists)):
        word = "forall" if isinstance(f, Forall) else "exists"
        return f"{word} {f.var}. {_render(f.body)[0]}", _PREC_QUANT
    raise FormulaError(f"not a formula node: {f!r}")


def print_formula(f: Formula) -> str:
    """Canonical text form; parse_formula(print_formula(f)) == f."""

    return _render(f)[0]


# ====================================================================
# Default working set
# ====================================================================


def ground_atom_formulas(sig: Signature) -> list[Formula]:
    """Every predicate applied to constant tuples, in sorted order.

    This is the default working set when a session asks for "atoms":
    only elements reachable by a constant name are covered.
    """

    out: list[Formula] = []
    for pred, arity in sig.predicates:
        for combo in itertools.product(sig.constants, repeat=arity):
            out.append(Atom(pred, tuple(Const(c) for c in combo)))
    return out
