#!/usr/bin/env python3
"""Narrated walk through the two-rivals session.

Loads a session file (sessions/combi.ana by default), classifies the
working set under every analogy, shows the dominance relation and the
surviving best set, and answers the session's queries. The point of
the default example: two analogies that each match on half the facts
are both beaten by the piecewise combination that uses each where it
is right, and only the combination gets to speak on the open queries.
"""

import argparse
import pathlib
import sys

from analogia import (
    best,
    entail,
    parse_session,
    print_formula,
    resolve_space,
)

DEFAULT = pathlib.Path(__file__).resolve().parent.parent / "sessions" / "combi.ana"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "file", nargs="?", default=str(DEFAULT), help="session file to walk through"
    )
    return parser.parse_args(argv)


def show_bucket(label, formulas):
    names = ", ".join(print_formula(f) for f in formulas) or "(none)"
    print(f"    {label}: {names}")


def main(argv=None):
    args = parse_args(argv)
    session = parse_session(pathlib.Path(args.file).read_text(encoding="utf-8"))
    space = resolve_space(session)

    print(f"source domain: {space.source.signature.name}, "
          f"target domain: {space.target.signature.name}")
    print(f"working set: {', '.join(print_formula(f) for f in space.working_set)}")
    print()

    print("support for each analogy:")
    for amap in space.analogies:
        report = space.tables.classify(amap)
        print(f"  {amap.name}:")
        show_bucket("agrees (positive)", report.positive)
        show_bucket("disagrees (negative)", report.negative)
        show_bucket("would conjecture (open)", report.open)
    print()

    edges = sorted(space.preference.edges)
    if edges:
        print("preference (strictly better first):")
        for left, right in edges:
            print(f"  {left} over {right}")
    else:
        print("preference: no analogy beats another")
    chosen = sorted(best(space))
    print(f"best analogies: {', '.join(chosen) or '(none)'}")
    print()

    if not session.queries:
        print("no queries in the session")
        return 0
    print("queries, answered skeptically over the best analogies:")
    for query in session.queries:
        verdict = entail(space, query)
        value = f" {verdict.value}" if verdict.value is not None else ""
        print(f"  {print_formula(query)}: {verdict.status}{value}")
        for warning in verdict.warnings:
            print(f"    warning: {warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
