"""Output checks: the recorded digest contract plus invariants.

Every CLI op must exit with the code its output implies (1 exactly
when a repcheck sweep reports violations), write no traceback, and
print JSON whose sha256 equals the digest recorded in contract.json;
the JSON output is the behaviour contract and must stay byte
identical. On top of the digest, the checker recomputes invariants
that hold for any correct engine, so a contract recorded from a wrong
output would still be caught. Kernel ops have no CLI output; their
results are checked against the brute-force oracles below.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent / "contract.json"

BINS = ("positive", "negative", "open", "not_applicable", "untranslatable")
# Law-obeying choice functions on three elements, as the README states.
COMPLETENESS_N3_CONSIDERED = {"all": 216, "smooth": 35, "ranked": 159}
LAWS = ("MuSubset", "MuPR", "MuCUM", "MuEq")
CLASS_LAWS = {
    "all": ("MuSubset", "MuPR"),
    "smooth": ("MuSubset", "MuPR", "MuCUM"),
    "ranked": ("MuSubset", "MuPR", "MuEq"),
}
ITEMS = ("a", "b", "c", "d")


def load_contract() -> dict[str, str]:
    return json.loads(CONTRACT.read_text(encoding="utf-8"))


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


class Checker:
    """Checks op results; remembers each session's best set for entail."""

    def __init__(self, contract: dict[str, str]):
        self.contract = contract
        self.best: dict[str, set[str]] = {}

    def check_cli(self, op, code: int, stdout: str, stderr: str) -> str | None:
        """None when the op's result is correct, else the reason it is not."""

        problem = self.output_problem(op, code, stdout, stderr)
        if problem:
            return problem
        recorded = self.contract.get(op.key)
        if recorded is None:
            return f"no recorded digest for {op.key}"
        if digest(stdout) != recorded:
            return f"output differs from the recorded contract for {op.key}"
        return None

    def output_problem(self, op, code: int, stdout: str, stderr: str) -> str | None:
        """Every check except the digest comparison."""

        if "Traceback" in stderr:
            return "traceback on stderr"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"output is not JSON (exit {code}): {stderr.strip()[:200]}"
        if not isinstance(doc, dict):
            return "output is not a JSON object"
        expected_code = 1 if doc.get("violation_count", 0) else 0
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        try:
            return self.invariant_problem(op, doc)
        except (KeyError, TypeError, AttributeError) as exc:
            return f"malformed output: {exc!r}"

    def invariant_problem(self, op, doc: dict) -> str | None:
        command = doc.get("command")
        if command != op.command:
            return f"command {command!r} in output, expected {op.command!r}"
        check = _INVARIANTS.get(command)
        if command == "best":
            self.best[op.session] = set(doc["best"])
        if command == "entail":
            return _entail_problem(doc, self.best.get(op.session))
        return check(doc) if check else None


def _classify_problem(doc: dict) -> str | None:
    for rep in doc["reports"]:
        binned = sorted(f for b in BINS for f in rep[b])
        if binned != sorted(rep["formulas"]):
            return f"{rep['analogy']}: working sentences not in exactly one bin"
        if sorted(rep["conjectures"]) != sorted(set(rep["open"])):
            return f"{rep['analogy']}: conjectures do not match the open bin"
    return None


def _report_problem(doc: dict) -> str | None:
    lists = ("positive_pairs", "negative_source_true", "negative_source_false", "plausible")
    for rep in doc["reports"]:
        sources = [{e["source"] for e in rep[name]} for name in lists]
        for a, b in combinations(sources, 2):
            if a & b:
                return f"{rep['analogy']}: a sentence lies in two support lists"
    return None


def _score_problem(doc: dict) -> str | None:
    for s in doc["scores"]:
        n, r, q = s["n"], s["r"], s["s"]
        expected = None if n == 0 else str(Fraction(n, n + r + q + 1))
        if s["p"] != expected:
            return f"{s['analogy']}: p={s['p']}, expected {expected}"
    return None


def _best_problem(doc: dict) -> str | None:
    best, carrier = set(doc["best"]), set(doc["carrier"])
    if not best <= carrier:
        return "best is not a subset of the carrier"
    for a, b in doc["edges"]:
        if a in best and b in best:
            return f"edge {a} over {b} joins two best analogies"
    return None


def _entail_problem(doc: dict, best: set[str] | None) -> str | None:
    for v in doc["verdicts"]:
        status, suggestions = v["status"], v["suggestions"]
        if status == "entailed":
            if v["value"] is None or not v["support"]:
                return f"{v['query']}: entailed without value or support"
            if best is not None and not set(v["support"]) <= best:
                return f"{v['query']}: support is not a subset of best"
            if set(suggestions.values()) != {v["value"]}:
                return f"{v['query']}: suggestions disagree with the value"
        elif status == "conflicted":
            if len(set(suggestions.values())) < 2:
                return f"{v['query']}: conflicted without disagreement"
        elif status in ("no_support", "settled_in_target"):
            if v["support"] or suggestions:
                return f"{v['query']}: {status} with support"
        else:
            return f"{v['query']}: unknown status {status!r}"
    return None


def _check_problem(doc: dict) -> str | None:
    return None if doc.get("ok") is True else "check did not report ok"


def _repcheck_problem(doc: dict) -> str | None:
    n, cls = doc["n"], doc["class"]
    if doc["mode"] == "soundness":
        if doc["examined"] != 2 ** (n * n - n):
            return f"soundness n={n} examined {doc['examined']} relations"
        if doc["violation_count"] != 0:
            return f"soundness n={n} {cls} reports violations"
        return None
    if doc["examined"] != 2 ** (n * 2 ** (n - 1)):
        return f"completeness n={n} examined {doc['examined']} tables"
    if n == 3 and doc["considered"] != COMPLETENESS_N3_CONSIDERED[cls]:
        return f"completeness n=3 {cls} considered {doc['considered']}"
    return None


_INVARIANTS = {
    "check": _check_problem,
    "classify": _classify_problem,
    "report": _report_problem,
    "score": _score_problem,
    "best": _best_problem,
    "repcheck": _repcheck_problem,
}


# ====================================================================
# Oracles for kernel ops. Relations are sets of (i, j) index pairs,
# "i beats j"; choice tables are tuples indexed by subset mask.
# ====================================================================


def _members(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if mask >> i & 1]


def oracle_choice(edges, n: int, xs: int) -> int:
    return sum(
        1 << x for x in _members(xs, n)
        if not any((y, x) in edges for y in _members(xs, n))
    )


def oracle_transitive(edges) -> bool:
    return all((x, z) in edges for x, y in edges for y2, z in edges if y2 == y)


def oracle_smooth(edges, n: int) -> bool:
    for xs in range(1 << n):
        chosen = oracle_choice(edges, n, xs)
        for x in _members(xs & ~chosen, n):
            if not any((y, x) in edges for y in _members(chosen, n)):
                return False
    return True


def oracle_ranked(edges, n: int) -> bool:
    for x in range(n):
        for y in range(n):
            if (x, y) in edges or (y, x) in edges:
                continue
            for z in range(n):
                if ((z, x) in edges) != ((z, y) in edges):
                    return False
                if ((x, z) in edges) != ((y, z) in edges):
                    return False
    return True


def law_holds_at(table, law: str, xs: int, ys: int) -> bool:
    """Whether one law holds at the pair (X, Y); MuSubset ignores Y."""

    if law == "MuSubset":
        return not table[xs] & ~xs
    if law == "MuPR":
        return bool(xs & ~ys) or not table[ys] & xs & ~table[xs]
    if law == "MuCUM":
        inside = not table[xs] & ~ys and not ys & ~xs
        return not inside or table[ys] == table[xs]
    meet = table[ys] & xs
    return bool(xs & ~ys) or not meet or table[xs] == meet


def oracle_law(table, law: str, n: int) -> bool:
    size = 1 << n
    return all(law_holds_at(table, law, xs, ys) for xs in range(size) for ys in range(size))


def oracle_in_class(edges, n: int, cls: str) -> bool:
    if cls == "smooth":
        return oracle_transitive(edges) and oracle_smooth(edges, n)
    if cls == "ranked":
        return oracle_ranked(edges, n)
    return True


def _mask(names, n: int) -> int:
    return sum(1 << ITEMS.index(x) for x in names if ITEMS.index(x) < n)


def _pairs(edges) -> set[tuple[int, int]]:
    return {(ITEMS.index(a), ITEMS.index(b)) for a, b in edges}


def check_kernel(op, result) -> str | None:
    """None when a kernel call's result agrees with the oracle."""

    try:
        return _kernel_problem(op, result)
    except (KeyError, TypeError, AttributeError, ValueError, IndexError) as exc:
        return f"malformed result: {exc!r}"


def _kernel_problem(op, result) -> str | None:
    n = op.payload[0]
    if op.command == "table":
        table, cls = op.payload[1], op.payload[2]
        laws, represented = result
        for law, (holds, witness) in zip(LAWS, laws):
            if holds != oracle_law(table, law, n):
                return f"check_property {law} answered {holds}"
            if not holds and law_holds_at(
                table, law, _mask(witness[0], n), _mask(witness[1] or (), n)
            ):
                return f"check_property {law} witness does not fail"
        return _represent_problem(table, cls, n, represented)

    edges = set(op.payload[1])
    choice, (smooth, _), (ranked, _), transitive = result
    for xs in range(1 << n):
        chosen = frozenset(ITEMS[i] for i in _members(oracle_choice(edges, n, xs), n))
        if choice.table[frozenset(ITEMS[i] for i in _members(xs, n))] != chosen:
            return "choice_of table differs from the oracle"
    if smooth != oracle_smooth(edges, n):
        return f"is_smooth answered {smooth}"
    if ranked != oracle_ranked(edges, n):
        return f"is_ranked answered {ranked}"
    if transitive != oracle_transitive(edges):
        return f"is_transitive answered {transitive}"
    return None


def _represent_problem(table, cls: str, n: int, result) -> str | None:
    failed = next((law for law in CLASS_LAWS[cls] if not oracle_law(table, law, n)), None)
    if hasattr(result, "edges"):
        edges = _pairs(result.edges)
        if failed is not None:
            return f"represent found a relation for a table breaking {failed}"
        if not oracle_in_class(edges, n, cls):
            return "represent returned a relation outside the class"
        if any(oracle_choice(edges, n, xs) != table[xs] for xs in range(1 << n)):
            return "represent returned a relation with another choice"
        return None
    if failed is not None:
        got = result.failed_property.value if result.failed_property else None
        return None if got == failed else f"represent blamed {got}, expected {failed}"
    if result.failed_property is not None:
        return "represent blamed a law the table obeys"
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(pairs)):
        edges = {p for b, p in enumerate(pairs) if mask >> b & 1}
        if oracle_in_class(edges, n, cls) and all(
            oracle_choice(edges, n, xs) == table[xs] for xs in range(1 << n)
        ):
            return "represent missed a representing relation"
    return None
