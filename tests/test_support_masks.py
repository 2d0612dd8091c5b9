"""Support masks: derived for closure combinations, read by the preference.

A declared analogy's six support masks come from one scan of the
working set; a closure combination's are derived from its parents'
masks. Both paths, and the preference that reads the masks instead of
support reports, are checked here against the scan path and the
per-call reference on every bundled session and on four variants of
each benchmark pool stratum. The preference is built as its masks:
best lists its edges off them, and entail never makes an edge.
"""

from fractions import Fraction

import pytest

import reference
from analogia import TranslationTables, entail, parse_session, resolve_space, run
from analogia.errors import AnalogyError
from analogia.preference import PreferenceRelation
from analogia.session import resolve_maps, session_preference

from conftest import SESSIONS_DIR, benchmark_pool, rebuild

SESSIONS = {
    **{p.stem: p.read_text(encoding="utf-8") for p in sorted(SESSIONS_DIR.glob("*.ana"))},
    **benchmark_pool(4),
}


def preimage_formulas(tables, amap):
    """amap's preimages with each image id replaced by its image formula,
    which, unlike the id, does not depend on the order tables keyed it."""

    try:
        return {tables._image(image): i for image, i in tables.preimages(amap).items()}
    except AnalogyError as err:
        return str(err)


@pytest.mark.parametrize("text", SESSIONS.values(), ids=SESSIONS)
def test_derived_masks_agree_with_a_scan(text):
    """Every combination close keeps, closure on or off, reads the same
    support off its derived masks as a fresh table scanning it as a
    declared map: groups, reports, score counts and preimages."""

    session = parse_session(text)
    tables = session.tables
    combos = tables.close(session.analogies)[len(session.analogies):]
    for combo in combos:
        fresh = TranslationTables(session.source, session.target, session.working_set)
        assert tables.support_masks(combo) == fresh.support_masks(combo)
        assert tables.support(combo) == fresh.support(combo)
        assert tables.classify(combo) == fresh.classify(combo)
        assert tables.augmented_report(combo) == fresh.augmented_report(combo)
        counts = [mask.bit_count() for mask in tables.support_masks(combo)]
        assert counts == [len(group) for group in fresh.support(combo)]
        assert preimage_formulas(tables, combo) == preimage_formulas(fresh, combo)
        images = [
            [None if image is None else t._image(image) for image in t._table(combo).images]
            for t in (tables, fresh)
        ]
        assert images[0] == images[1]


@pytest.mark.parametrize("text", SESSIONS.values(), ids=SESSIONS)
def test_score_reads_the_support_counts(text):
    session = parse_session(text)
    scores = run(session, "score")["scores"]
    for amap, score in zip(resolve_maps(session), scores):
        report = reference.augmented_report(amap, session.working_set)
        assert (score["n"], score["r"], score["s"]) == (
            len(report.positive_pairs),
            len(report.negative_source_true),
            len(report.negative_source_false),
        )


# The kinds each session is ranked under, besides its own: dominance,
# and counts with equal and with unequal weights.
OTHER_KINDS = [
    ("dominance", None),
    ("counts", (Fraction(1), Fraction(1))),
    ("counts", (Fraction(3, 2), Fraction(1, 3))),
]


@pytest.mark.parametrize("text", SESSIONS.values(), ids=SESSIONS)
def test_session_preference_agrees_with_the_reference(text):
    """session_preference ranks from support masks; the reference ranks
    from per-call support reports, under every preference kind."""

    session = parse_session(text)
    maps = resolve_maps(session)
    reports = [reference.classify(amap, session.working_set) for amap in maps]
    kinds = [(session.preference_kind, session.count_weights)]
    if session.preference_kind != "explicit":
        kinds += OTHER_KINDS
    for kind, weights in kinds:
        ranked = rebuild(session, preference_kind=kind, count_weights=weights)
        got = session_preference(ranked, maps)
        if kind == "dominance":
            want = reference.dominance_preference(reports)
        elif kind == "counts":
            want = reference.count_preference(reports, *weights)
        else:
            assert got.edges == frozenset(session.explicit_edges)
            want = PreferenceRelation(got.carrier, session.explicit_edges)
        assert got == want
        assert (got._better, got._dominators) == (want._better, want._dominators)


RANKED_BY_SUPPORT = {
    "closure": (SESSIONS_DIR / "closure.ana").read_text(encoding="utf-8"),
    **benchmark_pool(4),
}


@pytest.mark.parametrize("text", RANKED_BY_SUPPORT.values(), ids=RANKED_BY_SUPPORT)
def test_entail_builds_no_edge(text):
    """A dominance or counts preference is built as its masks; the space
    and every entail query read only those, so no edge set is made."""

    session = parse_session(text)
    assert session.preference_kind in ("dominance", "counts")
    space = resolve_space(session)
    for query in session.queries:
        entail(space, query)
    assert "edges" not in space.preference.__dict__


@pytest.mark.parametrize("text", SESSIONS.values(), ids=SESSIONS)
def test_best_lists_the_sorted_edges(text):
    """best writes its edges off the masks, in the order sorting the
    relation's edge set gives."""

    session = parse_session(text)
    doc = run(session, "best")
    rel = resolve_space(session).preference
    assert doc["edges"] == [list(e) for e in sorted(rel.edges)]
    assert doc["carrier"] == list(rel.carrier)


def test_the_space_builds_no_combination_images():
    """close keeps no id tuple and no preimages per combination; best
    and entail build them only for the speakers that answer a query."""

    session = parse_session((SESSIONS_DIR / "closure.ana").read_text(encoding="utf-8"))
    space = resolve_space(session)
    combos = space.analogies[len(session.analogies):]
    assert combos
    tables = {a.name: session.tables._table(a) for a in combos}
    assert all("images" not in t.__dict__ and t.preimages is None for t in tables.values())
    for query in session.queries:
        entail(space, query)
    built = {name for name, t in tables.items() if t.preimages is not None}
    assert built <= {a.name for a in space._speakers}
