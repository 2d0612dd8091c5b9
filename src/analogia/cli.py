"""Command line driver.

Every session command takes a session file as its positional argument;
repcheck runs standalone. --json swaps the human-oriented text for the
stable JSON document that run() produces; it is accepted both before
and after the subcommand name. The exit code is 0 exactly when nothing
errored and, for repcheck, no violations were found.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .errors import AnalogiaError
from .repcheck import SWEEPS, RelationClass
from .session import parse_session, run

_TEXT_VIOLATION_CAP = 5


@functools.cache  # parse_args keeps no state, so every main call shares one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analogia",
        description="Classify, rank, and query analogies between finite domains.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    session_commands = (
        ("check", "parse and validate a session file"),
        ("classify", "partition the working set by support for each analogy"),
        ("report", "like classify, with image pairs and split negatives"),
        ("best", "show the preference relation and its undominated analogies"),
        ("entail", "answer the session's queries skeptically"),
        ("score", "straight-rule support score for each analogy"),
    )
    for name, help_text in session_commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("file", help="session file")
        sp.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help="emit JSON instead of text",
        )
    rp = sub.add_parser(
        "repcheck", help="exhaustively verify the relation/choice correspondences"
    )
    rp.add_argument("--n", type=int, required=True, help="carrier size")
    rp.add_argument(
        "--class", dest="relation_class", choices=[c.value for c in RelationClass],
        default="all", help="relation class to sweep (default all)",
    )
    rp.add_argument(
        "--mode", choices=list(SWEEPS), default="soundness",
        help="sweep direction (default soundness)",
    )
    rp.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit JSON instead of text",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    json_mode = bool(getattr(args, "json", False))
    try:
        if args.command == "repcheck":
            result = run(
                None,
                "repcheck",
                n=args.n,
                relation_class=args.relation_class,
                mode=args.mode,
            )
        else:
            try:
                with open(args.file, encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as err:
                print(f"error: cannot read {args.file}: {err}", file=sys.stderr)
                return 1
            result = run(parse_session(text), args.command)
    except AnalogiaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        lines = [_json_text(result)] if json_mode else _render(result)
        print("".join(line + "\n" for line in lines), end="", flush=True)
    except BrokenPipeError:
        # The reader closed stdout: devnull keeps the flush at exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 1 if result.get("violation_count", 0) else 0


def _json_text(value, newline: str = "\n") -> str:
    """The text of json.dumps(value, indent=2).

    With an indent the stdlib encodes in pure Python; this writer makes
    the same text but escapes strings with the C escaper, inline for the
    str items of a container, which hold most leaves. newline is a
    line break plus the indent of value's own line. Keys must be
    strings, as they are in every document run() returns.
    """

    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(key) + ": " + (
                encode_basestring_ascii(item) if isinstance(item, str) else _json_text(item, inner)
            )
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(item) if isinstance(item, str) else _json_text(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


# ====================================================================
# Text rendering
# ====================================================================


def _render(result: dict) -> list[str]:
    return {
        "check": _render_check,
        "classify": _render_classify,
        "report": _render_report,
        "score": _render_score,
        "best": _render_best,
        "entail": _render_entail,
        "repcheck": _render_repcheck,
    }[result["command"]](result)


def _names(values: list) -> str:
    return ", ".join(values) if values else "(none)"


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _render_check(r: dict) -> list[str]:
    return [
        "session ok",
        f"  domains: {_names(r['domains'])}",
        f"  source: {r['source']}",
        f"  target: {r['target']}",
        f"  analogies: {_names(r['analogies'])}",
        f"  working set: {_count(r['working_set'], 'sentence')}",
        f"  queries: {r['queries']}",
        f"  closure: {'on' if r['closure'] else 'off'}",
        f"  preference: {r['preference']}",
    ]


def _render_classify(r: dict) -> list[str]:
    lines: list[str] = []
    for rep in r["reports"]:
        lines.append(f"analogy {rep['analogy']}")
        lines.append(f"  positive: {_names(rep['positive'])}")
        lines.append(f"  negative: {_names(rep['negative'])}")
        opens = [f"{f} [{rep['conjectures'][f]}]" for f in rep["open"]]
        lines.append(f"  open: {_names(opens)}")
        lines.append(f"  not applicable: {_names(rep['not_applicable'])}")
        lines.append(f"  untranslatable: {_names(rep['untranslatable'])}")
    return lines or ["no analogies"]


def _render_report(r: dict) -> list[str]:
    def pairs(entries: list) -> str:
        return _names([f"{e['source']} ~> {e['target']}" for e in entries])

    lines: list[str] = []
    for rep in r["reports"]:
        lines.append(f"analogy {rep['analogy']}")
        lines.append(f"  positive pairs: {pairs(rep['positive_pairs'])}")
        lines.append(f"  negative (source true): {pairs(rep['negative_source_true'])}")
        lines.append(
            f"  negative (source false): {pairs(rep['negative_source_false'])}"
        )
        plausible = [
            f"{e['source']} ~> {e['target']} [{e['conjecture']}]"
            for e in rep["plausible"]
        ]
        lines.append(f"  plausible: {_names(plausible)}")
    return lines or ["no analogies"]


def _render_score(r: dict) -> list[str]:
    lines: list[str] = []
    for s in r["scores"]:
        p = s["p"] if s["p"] is not None else "undefined (no positive support)"
        lines.append(f"{s['analogy']}: n={s['n']} r={s['r']} s={s['s']} p={p}")
    return lines or ["no analogies"]


def _render_best(r: dict) -> list[str]:
    lines = [f"carrier: {_names(r['carrier'])}"]
    if r["edges"]:
        lines.append("edges:")
        lines.extend(f"  {a} over {b}" for a, b in r["edges"])
    else:
        lines.append("edges: (none)")
    lines.append(f"best: {_names(r['best'])}")
    return lines


def _render_entail(r: dict) -> list[str]:
    lines: list[str] = []
    for v in r["verdicts"]:
        status = v["status"]
        if status == "settled_in_target":
            lines.append(f"{v['query']}: settled in target = {v['value']}")
        elif status == "entailed":
            lines.append(
                f"{v['query']}: entailed {v['value']} "
                f"[support: {_names(v['support'])}]"
            )
        elif status == "conflicted":
            votes = "; ".join(f"{n}: {val}" for n, val in v["suggestions"].items())
            lines.append(f"{v['query']}: conflicted [{votes}]")
        else:
            lines.append(f"{v['query']}: no support")
        for w in v["warnings"]:
            lines.append(f"  warning: {w}")
    if not lines:
        lines.append("no queries")
    return lines


def _render_set(names: list) -> str:
    return "{" + ", ".join(names) + "}"


def _render_violation(v: dict) -> str:
    if v.get("relation") is not None:
        subject = (
            "relation ["
            + ", ".join(f"{a}->{b}" for a, b in v["relation"])
            + "]"
        )
    else:
        subject = "choice " + "; ".join(
            f"{_render_set(k)}->{_render_set(val)}" for k, val in v["choice"]
        )
    if v["property"] is None:
        return f"no representing relation for {subject}"
    where = f"X={_render_set(v['X'])}"
    if v["Y"] is not None:
        where += f", Y={_render_set(v['Y'])}"
    return f"{v['property']} fails at {where} for {subject}"


def _render_repcheck(r: dict) -> list[str]:
    lines = [
        f"repcheck {r['mode']} class={r['class']} n={r['n']}",
        f"  examined: {r['examined']}",
        f"  considered: {r['considered']}",
        f"  violations: {r['violation_count']}",
    ]
    if r["stats"]:
        stats = ", ".join(f"{k}={v}" for k, v in r["stats"].items())
        lines.append(f"  stats: {stats}")
    for v in r["violations"][:_TEXT_VIOLATION_CAP]:
        lines.append(f"  violation: {_render_violation(v)}")
    hidden = r["violation_count"] - min(r["violation_count"], _TEXT_VIOLATION_CAP)
    if hidden:
        lines.append(f"  ... and {hidden} more")
    lines.append("result: ok" if r["ok"] else "result: violations found")
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
