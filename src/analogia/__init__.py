"""Analogical reasoning over finite, partially known domains.

The pipeline: model two finite domains with three-valued fact tables,
translate source sentences along injective symbol maps, partition them
by the support they give each candidate analogy, rank the candidates
by a strict preference, and answer target queries skeptically over the
undominated ones. A separate harness exhaustively checks, at small
carrier sizes, how strict relations correspond to the choice functions
they induce.

The package root exports the documented API: the errors, domains,
formulas, analogies, preferences, entailment and sessions. Every
other name is imported from its module, such as analogia.analogy,
analogia.preference or analogia.repcheck.
"""

from .analogy import TranslationTables, analogy_map
from .entailment import AnalogySpace, best, entail
from .errors import (
    AnalogiaError,
    AnalogyError,
    DomainError,
    EntailmentError,
    FormulaError,
    NoGuardMatch,
    ParseError,
    PreferenceError,
    RepcheckError,
    SessionError,
    SignatureError,
    TranslationError,
    UntranslatableSymbol,
)
from .formula import check_formula, evaluate, parse_formula, print_formula
from .kb import Signature, TruthValue, make_domain
from .preference import count_preference, dominance_preference
from .session import Session, parse_session, print_session, resolve_space, run

__version__ = "0.1.0"

__all__ = [
    "AnalogiaError",
    "AnalogyError",
    "AnalogySpace",
    "DomainError",
    "EntailmentError",
    "FormulaError",
    "NoGuardMatch",
    "ParseError",
    "PreferenceError",
    "RepcheckError",
    "Session",
    "SessionError",
    "Signature",
    "SignatureError",
    "TranslationError",
    "TranslationTables",
    "TruthValue",
    "UntranslatableSymbol",
    "analogy_map",
    "best",
    "check_formula",
    "count_preference",
    "dominance_preference",
    "entail",
    "evaluate",
    "make_domain",
    "parse_formula",
    "parse_session",
    "print_formula",
    "print_session",
    "resolve_space",
    "run",
]
