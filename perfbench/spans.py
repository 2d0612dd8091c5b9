"""Span recording for the traced run, from outside the package.

Instrument rebinds each listed public function, in every analogia
module that holds a reference to it, to a wrapper that records a span:
name, start, end, parent span and op id. Spans live in flat arrays
until the run ends. A few public names get an observer as well, which
reads counts off arguments and results (closure candidates, preference
edges, relations examined). KnowledgeDomain.fact_value is only
counted: it runs once per atom evaluation, and a span there would
cost more than the lookup it measures. The relation kernels in
KERNEL_ENTRIES record no spans below them, so their self time is the
kernel's whole cost and not just the loop around its undominated calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# Public functions wrapped in a span, by module.
LAYERS = {
    "formula": ("tokenize", "check_formula", "evaluate"),
    "analogy": (
        "translate", "check_injective_on", "classify", "augmented_report",
        "combine", "close_under_combination", "straight_rule",
    ),
    "preference": (
        "dominance_preference", "count_preference", "undominated",
        "choice_of", "is_smooth", "is_ranked", "is_transitive",
    ),
    "entailment": ("best", "conjecture_for", "entail"),
    "session": ("parse_session", "resolve_maps", "resolve_space", "session_preference", "run"),
    "repcheck": ("soundness_sweep", "completeness_sweep", "check_property", "represent"),
    "cli": ("main",),
}
# Spans whose callees get no span of their own.
KERNEL_ENTRIES = ("preference.choice_of", "preference.is_smooth", "preference.is_ranked")


class SpanRecorder:
    """Spans in flat arrays; a span's index is allocated when it opens,
    so children always come after their parent."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        self.kernel_depth = 0  # open KERNEL_ENTRIES spans
        self.counters: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: int, end: int, parent: int = -1, op: int = -1) -> int:
        """Append a finished span; used to build span trees by hand."""

        index = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return index

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.name)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


def self_times(rec: SpanRecorder) -> array:
    """Each span's duration minus the part of it its children cover, in ns.

    Children are merged as intervals clipped to the parent, so
    overlapping children are not subtracted twice.
    """

    count = len(rec)
    covered = array("q", bytes(8 * count))
    reach = array("q", rec.start)  # how far each parent's covered union extends
    for i in sorted(range(count), key=rec.start.__getitem__):
        p = rec.parent[i]
        if p < 0:
            continue
        lo = max(rec.start[i], reach[p])
        hi = min(rec.end[i], rec.end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (rec.end[i] - rec.start[i] - covered[i] for i in range(count)))


def _observe_closure(rec, args, kwargs, result):
    analogies = args[0]
    a = len(analogies)
    constants = len(analogies[0].source.signature.constants) if analogies else 0
    rec.counters["analogy.closure.candidates"] += a * (a - 1) * constants
    rec.counters["analogy.closure.kept"] += len(result) - a


def _observe_preference(rec, args, kwargs, result):
    rec.counters["preference.edges"] += len(result.edges)


def _observe_soundness(rec, args, kwargs, result):
    rec.counters["repcheck.relations_examined"] += result.examined


def _observe_completeness(rec, args, kwargs, result):
    n = args[0]
    rec.counters["repcheck.relations_examined"] += 2 ** (n * n - n)


OBSERVERS = {
    "analogy.close_under_combination": _observe_closure,
    "preference.dominance_preference": _observe_preference,
    "preference.count_preference": _observe_preference,
    "repcheck.soundness_sweep": _observe_soundness,
    "repcheck.completeness_sweep": _observe_completeness,
}


def _span_wrapper(rec: SpanRecorder, name: str, fn):
    name_id = rec.name_id(name)
    observe = OBSERVERS.get(name)
    kernel = int(name in KERNEL_ENTRIES)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.kernel_depth:
            return fn(*args, **kwargs)
        index = rec.open(name_id)
        rec.kernel_depth += kernel
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.kernel_depth -= kernel
            rec.close(index)
        if observe:
            observe(rec, args, kwargs, result)
        return result

    return wrapper


class Instrument:
    """Installs the wrappers on enter and restores every binding on exit."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "analogia" and not module_name.startswith("analogia."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        rec = self.rec
        for layer, names in LAYERS.items():
            module = sys.modules[f"analogia.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._rebind(original, _span_wrapper(rec, f"{layer}.{name}", original))

        from analogia.entailment import AnalogySpace
        from analogia.kb import KnowledgeDomain

        post_init = AnalogySpace.__post_init__
        self._patch(AnalogySpace, "__post_init__",
                    _span_wrapper(rec, "entailment.space_build", post_init))
        fact_value = KnowledgeDomain.fact_value
        counters = rec.counters

        def counted_fact_value(self, atom):
            counters["kb.fact_value.calls"] += 1
            return fact_value(self, atom)

        self._patch(KnowledgeDomain, "fact_value", counted_fact_value)
        return rec

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


# ====================================================================
# Per-layer metrics from one traced pass
# ====================================================================

CALL_COUNTS = (
    "analogy.translate", "analogy.check_injective_on", "analogy.classify",
    "analogy.augmented_report", "preference.undominated",
    "entailment.conjecture_for", "formula.evaluate", "formula.check_formula",
)
SELF_MS = (
    "analogy.translate", "analogy.check_injective_on",
    "analogy.close_under_combination", "preference.dominance_preference",
    "preference.count_preference", "preference.undominated",
    "entailment.space_build", "formula.evaluate",
    "repcheck.soundness_sweep", "repcheck.completeness_sweep", "repcheck.represent",
    "preference.choice_of", "preference.is_smooth", "preference.is_ranked",
    "cli.main", "session.parse_session", "formula.tokenize",
)
COUNTERS = (
    "analogy.closure.candidates", "analogy.closure.kept", "preference.edges",
    "kb.fact_value.calls", "repcheck.relations_examined",
)


def layer_metrics(rec: SpanRecorder, op_commands: list[str]) -> dict[str, float]:
    """The per-layer metrics of a traced pass; op_commands[i] is op i's command."""

    selfs = self_times(rec)
    calls: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    total_ns: Counter[str] = Counter()
    resolve_on_space_ops = 0
    for i in range(len(rec)):
        name = rec.names[rec.name[i]]
        calls[name] += 1
        self_ns[name] += selfs[i]
        total_ns[name] += rec.end[i] - rec.start[i]
        if name == "session.resolve_maps" and op_commands[rec.op[i]] in ("best", "entail"):
            resolve_on_space_ops += 1

    out: dict[str, float] = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = calls[name]
    for name in SELF_MS:
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    for name in COUNTERS:
        out[name] = rec.counters[name]
    candidates = rec.counters["analogy.closure.candidates"]
    out["analogy.closure.keep_ratio"] = (
        rec.counters["analogy.closure.kept"] / candidates if candidates else 0.0
    )
    space_ops = sum(1 for c in op_commands if c in ("best", "entail"))
    out["session.resolve_maps.calls_per_op"] = (
        resolve_on_space_ops / space_ops if space_ops else 0.0
    )
    entails = calls["entailment.entail"]
    out["entailment.entail.ms_per_query"] = (
        total_ns["entailment.entail"] / 1e6 / entails if entails else 0.0
    )
    sweep_s = (total_ns["repcheck.soundness_sweep"] + total_ns["repcheck.completeness_sweep"]) / 1e9
    out["repcheck.relations_per_s"] = (
        rec.counters["repcheck.relations_examined"] / sweep_s if sweep_s else 0.0
    )
    return out
