"""Analogy maps between domains and the support they earn.

An analogy map carries formulas from a source domain into a target
domain by renaming symbols: constants to constants, predicates to
predicates of the same arity, functions likewise. A map may be given
in pieces, each guarded by the set of source constants a formula is
allowed to mention; guards are pairwise disjoint and the first match
wins, so at most one piece ever applies. Piecewise maps exist so that
two partial analogies that each work well on part of the source can be
merged into one map that uses the right piece in the right place.

classify sorts a working set of source sentences into four bins by
comparing the truth value in the source with the truth value of the
translated sentence in the target:

  * positive       both known and equal
  * negative       both known and different
  * open           known at the source, unknown at the target; the
                   source value is recorded as the conjecture
  * not_applicable unknown at the source

Sentences the map cannot carry over at all are listed separately and
take no part in the partition. The augmented report splits negatives
by direction (true here but false there, false here but true there)
and pairs each positive, negative and open sentence with its image.
The numeric score counts the same groups: p = n / (n + r + s + 1) with
n matching positives, r and s the two negative counts, in exact
rational arithmetic.

All of these read TranslationTables, made once per session and shared
by every command and the space: each working sentence is checked and
evaluated once, and its image under an analogy is keyed by the
sentence's shape and the target symbols the map puts into it, which
determine the image. An analogy's support is six masks over the
working-set positions, one per group, made once: a declared analogy's
by one scan, a closure combination's from its parents' masks with no
per-sentence work. classify, the augmented report, the score and the
preference all read them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    AnalogyError,
    NoGuardMatch,
    TranslationError,
    UntranslatableSymbol,
)
from .formula import (
    _BINARY,
    _QUANT,
    _check_depth,
    _Compiler,
    Atom,
    Const,
    Formula,
    FuncApp,
    Not,
    Term,
    Var,
    check_formula,
    formula_nodes,
    mentioned_constants,
    print_formula,
)
from .kb import (
    KnowledgeDomain, Signature, TruthValue, Value, _argument, _checked, _instance, _items,
)

# ====================================================================
# Guards and map pieces
# ====================================================================


def _constant_set(constants) -> frozenset[str]:
    return frozenset(
        _items("guard constants", constants, str, AnalogyError, "an iterable of names")
    )


class Guard(Value):
    """Predicate over formulas keyed to the source constants they mention.

    constants None means "always matches". Otherwise a formula matches
    when it mentions at least one constant and every constant it
    mentions lies in the guard set. A formula mixing constants from
    two different guards therefore matches neither, and a formula with
    no constants matches no constant guard at all.
    """

    def __init__(self, constants: frozenset[str] | None):
        checked = None if constants is None else _constant_set(constants)
        object.__setattr__(self, "constants", checked)

    @staticmethod
    def always() -> Guard:
        return Guard(None)

    @staticmethod
    def mentions(constants: Iterable[str]) -> Guard:
        return _checked(Guard, constants=_constant_set(constants))

    @property
    def is_always(self) -> bool:
        return self.constants is None

    def matches(self, f: Formula) -> bool:
        return self._covers(mentioned_constants(f))

    def _covers(self, constants: frozenset[str]) -> bool:  # matches, given f's constants
        return self.constants is None or (bool(constants) and constants <= self.constants)

    def intersect(self, other: Guard) -> Guard:
        if self.constants is None:
            return other
        if other.constants is None:
            return self
        return _checked(Guard, constants=self.constants & other.constants)

    def overlaps(self, other: Guard) -> bool:
        if self.constants is None or other.constants is None:
            return True
        return bool(self.constants & other.constants)


class AnalogyPiece(Value):
    """One guarded symbol map; mapping is source symbol to target symbol."""

    def __init__(self, guard: Guard, mapping: dict[str, str]):
        object.__setattr__(self, "guard", _instance("guard", guard, Guard, AnalogyError))
        mapping = _argument("mapping", "a mapping of names", dict, mapping, AnalogyError)
        for s, t in mapping.items():
            if not isinstance(s, str) or not isinstance(t, str):
                raise AnalogyError(f"mapping must map names to names, not {s!r} -> {t!r}")
        object.__setattr__(self, "mapping", mapping)


def _check_guards(name: str, pieces: Sequence[AnalogyPiece], constants: Iterable[str]) -> None:
    """A map's piece-and-guard rules: at least one piece; a single piece
    unguarded; otherwise constant guards, drawn from the source
    constants, that do not overlap."""

    if not pieces:
        raise AnalogyError(f"analogy {name!r} has no pieces")
    if len(pieces) == 1:
        if not pieces[0].guard.is_always:
            raise AnalogyError(f"analogy {name!r}: a single piece must be unguarded")
        return
    guards = [p.guard for p in pieces]
    for g in guards:
        if g.is_always:
            raise AnalogyError(
                f"analogy {name!r}: every piece of a piecewise map needs a constant guard"
            )
        extra = g.constants.difference(constants)
        if extra:
            raise AnalogyError(
                f"analogy {name!r}: guard constant {min(extra)!r} is not a source constant"
            )
    for i, g in enumerate(guards):
        for h in guards[i + 1 :]:
            if g.overlaps(h):
                raise AnalogyError(f"analogy {name!r}: overlapping guards")


class AnalogyMap(Value):
    """A named, possibly piecewise symbol map between two domains.

    Construction checks the types of its arguments (Guard and
    AnalogyPiece check their own) and validates each piece: mapped
    symbols must exist on both sides with the same kind and arity, and
    each piece must be injective. A one-piece map must carry the
    always guard; a map with several pieces must use constant guards
    with pairwise disjoint constant sets drawn from the source's
    constants.
    """

    def __init__(
        self,
        name: str,
        source: KnowledgeDomain,
        target: KnowledgeDomain,
        pieces: tuple[AnalogyPiece, ...],
    ):
        if not isinstance(name, str) or not name:
            raise AnalogyError(f"analogy needs a name, not {name!r}")
        object.__setattr__(self, "name", name)
        for side, domain in (("source", source), ("target", target)):
            object.__setattr__(self, side, _instance(side, domain, KnowledgeDomain, AnalogyError))
        pieces = _items("pieces", pieces, AnalogyPiece, AnalogyError, "an iterable of pieces")
        object.__setattr__(self, "pieces", pieces)
        _check_guards(self.name, pieces, self.source.signature.constants)
        src, tgt = self.source.signature, self.target.signature
        for piece in self.pieces:
            seen_targets: set[str] = set()
            for s, t in piece.mapping.items():
                skind = src.kind_of(s)
                if skind is None:
                    raise AnalogyError(
                        f"analogy {self.name!r}: {s!r} is not a source symbol"
                    )
                tkind = tgt.kind_of(t)
                if tkind is None:
                    raise AnalogyError(
                        f"analogy {self.name!r}: {t!r} is not a target symbol"
                    )
                if skind != tkind:
                    raise AnalogyError(
                        f"analogy {self.name!r}: {s!r} is a {skind} but {t!r} "
                        f"is a {tkind}"
                    )
                if src.arity_of(s) != tgt.arity_of(t):
                    raise AnalogyError(
                        f"analogy {self.name!r}: arity mismatch, {s}/"
                        f"{src.arity_of(s)} mapped to {t}/{tgt.arity_of(t)}"
                    )
                if t in seen_targets:
                    raise AnalogyError(
                        f"analogy {self.name!r}: map is not injective, "
                        f"{t!r} is hit twice"
                    )
                seen_targets.add(t)


def analogy_map(
    name: str,
    source: KnowledgeDomain,
    target: KnowledgeDomain,
    mapping: Mapping[str, str],
) -> AnalogyMap:
    """Convenience constructor for a one-piece map."""

    return AnalogyMap(name, source, target, (AnalogyPiece(Guard.always(), mapping),))


# ====================================================================
# Translation
# ====================================================================


def _piece(amap: AnalogyMap, constants: frozenset[str]) -> AnalogyPiece | None:
    """The piece whose guard covers a formula mentioning constants, if any."""

    for piece in amap.pieces:
        if piece.guard._covers(constants):
            return piece
    return None


def _carry(f: Formula, map_symbol, signature: Signature | None) -> Formula:
    """f with every constant, predicate and function name passed through
    map_symbol, in formula_nodes order. Connectives and variables pass
    through unchanged, except that, given a target signature, a bound
    variable whose name is one of its symbols is primed until it no
    longer collides with a symbol or another variable of f. f has
    passed check_formula or _check_depth: the walk counts no depth."""

    taken: set[str] = set()  # the symbols and variables, once a binder collides

    def term(t: Term, renames: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(renames.get(t.name, t.name))
        if isinstance(t, Const):
            return Const(map_symbol(t.name))
        if isinstance(t, FuncApp):
            return FuncApp(map_symbol(t.func), tuple(term(a, renames) for a in t.args))
        raise TranslationError(f"not a term node: {t!r}")

    def walk(g: Formula, renames: dict[str, str]) -> Formula:
        kind = type(g)
        if kind is Atom:
            return Atom(map_symbol(g.predicate), tuple([term(a, renames) for a in g.args]))
        if kind is Not:
            return Not(walk(g.body, renames))
        if kind in _BINARY:
            return kind(walk(g.left, renames), walk(g.right, renames))
        if kind in _QUANT:
            new = g.var
            if signature is not None and signature.kind_of(new) is not None:
                if not taken:
                    taken.update(signature.symbols())
                    for node, _, _, _ in formula_nodes(f):
                        if type(node) is Var:
                            taken.add(node.name)
                        elif type(node) in _QUANT:
                            taken.add(node.var)
                while new in taken:
                    new = new + "'"
                taken.add(new)
                renames = {**renames, g.var: new}
            return kind(new, walk(g.body, renames))
        raise TranslationError(f"not a formula node: {g!r}")

    return walk(f, {})


def _blank(f: Formula, signature: Signature | None) -> tuple[Formula, tuple[str, ...]]:
    """f's shape, _carry(f, lambda s: "", signature), and the symbols it
    blanks out in order: the shape with those symbols put back in is
    _carry(f, lambda s: s, signature)."""

    symbols: list[str] = []
    shape = _carry(f, lambda s: symbols.append(s) or "", signature)
    return shape, tuple(symbols)


def translate(amap: AnalogyMap, f: Formula) -> Formula:
    """Carry f into the target by renaming symbols through one piece.

    Raises NoGuardMatch when no guard covers f and UntranslatableSymbol
    when the matched piece is missing a symbol f uses. Connectives and
    variables pass through unchanged, with one exception: a bound
    variable whose name collides with a target symbol is primed until
    it no longer does, which keeps the result well formed over the
    target signature without changing its meaning. Only f's depth is
    checked: past MAX_FORMULA_DEPTH it raises a FormulaError.
    """

    _instance("amap", amap, AnalogyMap, AnalogyError)
    _check_depth(f)
    piece = _piece(amap, mentioned_constants(f))
    if piece is None:
        raise NoGuardMatch(f"no piece of {amap.name!r} covers the formula's constants")
    mapping = piece.mapping

    def map_symbol(s: str) -> str:
        try:
            return mapping[s]
        except KeyError:
            raise UntranslatableSymbol(s) from None

    return _carry(f, map_symbol, amap.target.signature)


# ====================================================================
# Support classification
# ====================================================================


class SupportReport(Value):
    """The four-way partition of a working set under one analogy.

    All tuples preserve working-set order. conjectures maps each open
    formula to its source value, in the order of open.
    """

    def __init__(
        self,
        analogy: AnalogyMap,
        formulas: tuple[Formula, ...],
        positive: tuple[Formula, ...],
        negative: tuple[Formula, ...],
        open: tuple[Formula, ...],
        not_applicable: tuple[Formula, ...],
        untranslatable: tuple[Formula, ...],
        conjectures: dict[Formula, TruthValue],
    ):
        object.__setattr__(self, "analogy", analogy)
        object.__setattr__(self, "formulas", formulas)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "negative", negative)
        object.__setattr__(self, "open", open)
        object.__setattr__(self, "not_applicable", not_applicable)
        object.__setattr__(self, "untranslatable", untranslatable)
        object.__setattr__(self, "conjectures", conjectures)

    def to_json_dict(self) -> dict:
        return {
            "analogy": self.analogy.name,
            "formulas": [print_formula(f) for f in self.formulas],
            "positive": [print_formula(f) for f in self.positive],
            "negative": [print_formula(f) for f in self.negative],
            "open": [print_formula(f) for f in self.open],
            "not_applicable": [print_formula(f) for f in self.not_applicable],
            "untranslatable": [print_formula(f) for f in self.untranslatable],
            "conjectures": {print_formula(f): str(v) for f, v in self.conjectures.items()},
        }


def classify(amap: AnalogyMap, formulas: Sequence[Formula]) -> SupportReport:
    """Partition formulas by the support they give the analogy.

    Every formula must be a sentence over the source signature; that
    is a hard precondition and raises. Untranslatable formulas are not
    an error, they are simply reported outside the partition.
    """

    _instance("amap", amap, AnalogyMap, AnalogyError)
    return TranslationTables(amap.source, amap.target, formulas).classify(amap)


def check_injective_on(amap: AnalogyMap, formulas: Sequence[Formula]) -> None:
    """Reject maps whose translation collides on the working set.

    Distinct pieces can send distinct formulas to the same image even
    though each piece is injective on symbols; conjecture lookup needs
    the translation itself to be injective on the working set.
    """

    _instance("amap", amap, AnalogyMap, AnalogyError)
    TranslationTables(amap.source, amap.target, formulas).preimages(amap)


# ====================================================================
# Translation tables
# ====================================================================

def _positions_in(mask: int) -> list[int]:
    """The positions set in mask, ascending: one step per set bit."""

    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _side_images(images: tuple[int | None, ...], sides: tuple[int, ...], side: int):
    """The image ids of the sentences on side, or None when two share one."""

    ids = [image for image, s in zip(images, sides) if s == side and image is not None]
    distinct = set(ids)
    return distinct if len(distinct) == len(ids) else None


class _Table:
    """One analogy's translation of the working set.

    images[i] is the image id of the i-th distinct sentence, or None
    when the analogy cannot carry it over; preimages maps each image id
    back to its sentence index once the table is known to be injective.
    masks, once made, are its support_masks. A closure combination a+b@c
    gets its masks from close and has a split instead of images: a's and
    b's tables and each sentence's side of c, from which its images are
    derived on first use. Tables are keyed by analogy name; another map
    of that name replaces one.
    """

    def __init__(self, analogy: AnalogyMap, images=None, split=None):
        self.analogy = analogy
        if images is not None:
            self.images = images  # a cached_property yields to the instance's own value
        self.split = split
        self.masks = self.preimages = None

    @cached_property
    def images(self) -> tuple[int | None, ...]:
        a, b, sides = self.split
        a, b = a.images, b.images
        return tuple(
            a[i] if side == 1 else b[i] if side == 2 else None for i, side in enumerate(sides)
        )


class TranslationTables:
    """Every analogy's translation of one working set, made once per
    session and shared by every command and the space.

    The working set is checked to be sentences over the source
    signature once, here, and each distinct sentence is read once into
    its shape (every symbol blanked, binders primed as translate primes
    them) and its symbols. A declared analogy's table keys each image by
    (shape id, the target symbols its piece puts in), which determine
    the image; a sentence no piece carries gets no image. Each image id
    keeps the sentence and map it was keyed from. Source values, target
    values (the sentence compiled for the target through the map) and
    image formulas, which only the augmented report carries, are each
    made once, on first use.

    An analogy's support is six masks over working-set positions, made
    once (support_masks, whose scan is the one place a source value
    meets a target value); classify, the augmented report, the score
    and the preference read them. Every analogy given to one instance
    must run between its source and target.
    """

    def __init__(
        self,
        source: KnowledgeDomain,
        target: KnowledgeDomain,
        formulas: Sequence[Formula],
    ):
        self.source = _instance("source", source, KnowledgeDomain, AnalogyError)
        self.target = _instance("target", target, KnowledgeDomain, AnalogyError)
        self.formulas = _argument("formulas", "iterable", tuple, formulas, AnalogyError)
        for f in self.formulas:  # before hashing, which recurses
            check_formula(f, source.signature)
        index: dict[Formula, int] = {}
        self._positions = tuple(index.setdefault(f, len(index)) for f in self.formulas)
        self.sentences = tuple(index)
        self._shapes: dict[Formula, int] = {}
        self._keys: list[tuple[int, tuple[str, ...]]] = []  # per sentence: shape id, symbols
        for f in self.sentences:
            shape, symbols = _blank(f, target.signature)
            self._keys.append((self._shapes.setdefault(shape, len(self._shapes)), symbols))
        self._source_values: list[TruthValue | None] = [None] * len(self.sentences)
        self._image_ids: dict[tuple[int, tuple[str, ...]], int] = {}
        self._recipes: list[tuple[int, Callable[[str], str]]] = []  # per image: sentence, map
        self._images: dict[int, Formula] = {}
        self._target_values: dict[int, TruthValue] = {}
        self._tables: dict[str, _Table] = {}

    @cached_property
    def _constants(self) -> tuple[frozenset[str], ...]:
        constants = frozenset(self.source.signature.constants)
        return tuple(constants.intersection(s) for _, s in self._keys)

    def _table(self, amap: AnalogyMap) -> _Table:
        try:
            table = self._tables.get(amap.name)
        except (AttributeError, TypeError):  # not an AnalogyMap: refused below
            table = None
        if table is None or table.analogy is not amap:
            _instance("amap", amap, AnalogyMap, AnalogyError)
            if amap.source != self.source:
                raise AnalogyError(f"analogy {amap.name!r} runs from a different source domain")
            if amap.target != self.target:
                raise AnalogyError(f"analogy {amap.name!r} runs to a different target domain")
            images = tuple(self._intern(amap, i) for i in range(len(self.sentences)))
            table = self._tables[amap.name] = _Table(amap, images)
        return table

    def _intern(self, amap: AnalogyMap, i: int) -> int | None:
        piece = _piece(amap, self._constants[i])
        if piece is None:
            return None
        shape, symbols = self._keys[i]
        try:
            key = (shape, tuple(map(piece.mapping.__getitem__, symbols)))
        except KeyError:
            return None
        image = self._image_ids.setdefault(key, len(self._recipes))
        if image == len(self._recipes):
            self._recipes.append((i, piece.mapping.__getitem__))
        return image

    def preimages(self, amap: AnalogyMap) -> dict[int, int]:
        """Image id to sentence index; raises AnalogyError on a collision."""

        table = self._table(amap)
        if table.preimages is None:
            seen: dict[int, int] = {}
            for i, image in enumerate(table.images):
                if image is None:
                    continue
                if image in seen:
                    raise AnalogyError(
                        f"analogy {amap.name!r}: translation is not injective on the "
                        f"working set ({self.sentences[seen[image]]} and "
                        f"{self.sentences[i]} share an image)"
                    )
                seen[image] = i
            table.preimages = seen
        return table.preimages

    def check_injective(self, amap: AnalogyMap) -> None:
        """preimages' check, which close made for its combinations."""

        if self._table(amap).split is None:
            self.preimages(amap)

    def _source_value(self, i: int) -> TruthValue:
        value = self._source_values[i]
        if value is None:
            value = _Compiler(self.source).sentence(self.sentences[i])
            self._source_values[i] = value
        return value

    def _target_value(self, image: int) -> TruthValue:
        value = self._target_values.get(image)
        if value is None:
            i, symbol = self._recipes[image]
            value = _Compiler(self.target, symbol).sentence(self.sentences[i])
            self._target_values[image] = value
        return value

    def _image(self, image: int) -> Formula:
        f = self._images.get(image)
        if f is None:
            i, symbol = self._recipes[image]
            f = _carry(self.sentences[i], symbol, self.target.signature)
            self._images[image] = f
        return f

    def support_masks(self, amap: AnalogyMap) -> tuple[int, ...]:
        """support's six groups as masks, bit k for position k. The scan
        evaluates the source only for entries amap carries over, the
        target only when the source value is known. A combination a+b@c
        takes each group from a on the positions close puts on c's side
        and from b on the other side: a position's group depends only on
        its source value and image, both taken from that parent. The
        positions on neither side are untranslatable."""

        return self._masks(self._table(amap))

    def _masks(self, table: _Table) -> tuple[int, ...]:
        if table.masks is not None:  # a closure combination's, from close
            return table.masks
        masks, ids = [0] * 6, table.images
        for k, i in enumerate(self._positions):
            image = ids[i]
            if image is None:
                group = 0
            elif not (vs := self._source_value(i)).known:
                group = 1
            else:
                vt = self._target_value(image)
                group = 2 if not vt.known else 3 if vs is vt else 4 if vs is TruthValue.TRUE else 5
            masks[group] |= 1 << k
        table.masks = tuple(masks)
        return table.masks

    def support(self, amap: AnalogyMap) -> tuple[list[int], ...]:
        """amap's working-set positions (indices into formulas) in six
        groups, each in working-set order: untranslatable, not applicable,
        open, positive, negative with the source true, and negative with
        the source false, read off support_masks."""

        return tuple(map(_positions_in, self.support_masks(amap)))

    def classify(self, amap: AnalogyMap) -> SupportReport:
        masks = self.support_masks(amap)
        untranslatable, not_applicable, open_, positive = map(_positions_in, masks[:4])
        at = self.formulas.__getitem__
        return SupportReport(
            analogy=amap,
            formulas=self.formulas,
            positive=tuple(map(at, positive)),
            negative=tuple(map(at, _positions_in(masks[4] | masks[5]))),
            open=tuple(map(at, open_)),
            not_applicable=tuple(map(at, not_applicable)),
            untranslatable=tuple(map(at, untranslatable)),
            conjectures={at(k): self._source_value(self._positions[k]) for k in open_},
        )

    def augmented_report(self, amap: AnalogyMap) -> AugmentedReport:
        _, _, open_, positive, neg_true, neg_false = self.support(amap)
        ids, formulas, positions = self._table(amap).images, self.formulas, self._positions

        def pairs(group: list[int]) -> tuple[tuple[Formula, Formula], ...]:
            return tuple((formulas[k], self._image(ids[positions[k]])) for k in group)

        return AugmentedReport(
            analogy=amap,
            positive_pairs=pairs(positive),
            negative_source_true=pairs(neg_true),
            negative_source_false=pairs(neg_false),
            plausible=tuple(
                (f, image, self._source_value(positions[k]))
                for k, (f, image) in zip(open_, pairs(open_))
            ),
        )

    def conjectures(
        self, query: Formula, analogies: Iterable[AnalogyMap]
    ) -> dict[str, TruthValue]:
        """What each analogy suggests for query, by analogy name, in the
        order given: the source value of query's preimage, when it has
        one and that value is known. Silent analogies are left out.

        query is keyed by its shape, left unprimed as an image is, and
        its symbols, and looked up once the analogies' tables are made;
        only then is each analogy's injectivity checked. Only query's
        depth is checked, before it is blanked and hashed, which recurse:
        past MAX_FORMULA_DEPTH it raises a FormulaError.
        """

        _check_depth(query)
        shape, symbols = _blank(query, None)
        analogies = _argument("analogies", "iterable", tuple, analogies, AnalogyError)
        tables = [self._table(amap) for amap in analogies]
        image = self._image_ids.get((self._shapes.get(shape), symbols))
        if image is None:
            return {}
        suggestions: dict[str, TruthValue] = {}
        for table in tables:
            i = self.preimages(table.analogy).get(image)
            if i is None:
                continue
            value = self._source_value(i)
            if value.known:
                suggestions[table.analogy.name] = value
        return suggestions

    def close(self, analogies: Sequence[AnalogyMap]) -> tuple[AnalogyMap, ...]:
        """close_under_combination, keeping each candidate's table as a
        split of its parents' tables instead of translating again.

        The candidate a+b@c follows a on the sentences that mention
        exactly c and b on those whose constants are a nonempty set
        without c; no piece covers the others. That holds for piecewise
        parents too, since their guards are disjoint and a translation
        depends only on the piece's symbol map, the sentence and the
        target signature. So it is injective when a is on c's side, b
        is on the other and their image sets there, made once per parent
        and constant, are disjoint. A kept candidate is the map combine
        builds, from each parent's pieces cut once per constant and side,
        and its support masks join a's masks on c's side to b's on the
        other (support_masks).
        """

        analogies = _argument("analogies", "iterable", tuple, analogies, AnalogyError)
        out = list(analogies)
        constants = frozenset(self.source.signature.constants)
        tables = [self._table(a) for a in analogies]
        full = (1 << len(self.formulas)) - 1
        splits = []  # per constant c: sides, and each parent's images, pieces and masks per side
        for c in self.source.signature.constants:
            rest = constants - {c}
            if not rest:
                continue
            # Each sentence's side: 1 if it mentions exactly c, 2 if its
            # constants are a nonempty set without c, else 0, neither.
            sides = tuple(
                1 if cs == {c} else 2 if cs and c not in cs else 0 for cs in self._constants
            )
            only_c, without_c = (
                sum(1 << k for k, i in enumerate(self._positions) if sides[i] == side)
                for side in (1, 2)
            )
            neither = full & ~(only_c | without_c)
            only_c_guard, rest_guard = Guard.mentions({c}), Guard.mentions(rest)
            parents = []
            for a, t in zip(analogies, tables):
                masks = self._masks(t)
                on_c = [m & only_c for m in masks]
                on_c[0] |= neither  # untranslatable: no piece covers these positions
                parents.append((
                    (_side_images(t.images, sides, 1), _cut(only_c_guard, a), on_c),
                    (_side_images(t.images, sides, 2), _cut(rest_guard, a),
                     [m & without_c for m in masks]),
                ))
            splits.append((c, sides, parents))
        taken = {a.name for a in analogies}
        for x, (a, a_table) in enumerate(zip(analogies, tables)):
            for y, (b, b_table) in enumerate(zip(analogies, tables)):
                if a.name == b.name:
                    continue
                for c, sides, parents in splits:
                    name = f"{a.name}+{b.name}@{c}"
                    if name in taken:
                        continue
                    (on_c, a_pieces, a_masks), (off_c, b_pieces, b_masks) = (
                        parents[x][0], parents[y][1]
                    )
                    if on_c is None or off_c is None or not on_c.isdisjoint(off_c):
                        continue
                    pieces = a_pieces + b_pieces
                    try:
                        _check_guards(name, pieces, constants)
                    except AnalogyError:
                        continue
                    combo = _checked(
                        AnalogyMap, name=name, source=a.source, target=a.target, pieces=pieces
                    )
                    table = self._tables[name] = _Table(combo, split=(a_table, b_table, sides))
                    table.masks = tuple(map(or_, a_masks, b_masks))
                    out.append(combo)
                    taken.add(name)
        return tuple(out)


# ====================================================================
# Combination
# ====================================================================


def combine(
    first: AnalogyMap,
    second: AnalogyMap,
    first_guard: Guard,
    second_guard: Guard,
    name: str | None = None,
) -> AnalogyMap:
    """Merge two analogies into a piecewise map along a constant split.

    Formulas matched by first_guard use first's symbol maps, those
    matched by second_guard use second's. The guards must be constant
    guards with disjoint constant sets.

    The result is built from the parents' pieces without AnalogyMap's
    checks, because most of them hold by construction: each piece
    keeps a parent's guard cut down by an outer guard and the parent's
    symbol map, which AnalogyMap already checked (kinds, arities,
    injectivity) against the same two signatures, and the pieces of one
    parent stay disjoint inside the outer guard. What depends on the
    combination is checked here: the parents share both domains, the
    outer guards name constants and do not overlap, and the name is a
    nonempty string. The surviving pieces then pass AnalogyMap's own
    piece-and-guard check, with its messages: at least two survive (a
    lone piece would carry a constant guard), every guard constant is a
    source constant, and no two guards overlap.
    """

    _instance("first", first, AnalogyMap, AnalogyError)
    _instance("second", second, AnalogyMap, AnalogyError)
    _instance("first_guard", first_guard, Guard, AnalogyError)
    _instance("second_guard", second_guard, Guard, AnalogyError)
    if first.source != second.source or first.target != second.target:
        raise AnalogyError("can only combine analogies between the same domains")
    if first_guard.is_always or second_guard.is_always:
        raise AnalogyError("combination guards must name constants")
    if first_guard.overlaps(second_guard):
        raise AnalogyError("combination guards overlap")
    name = name or f"{first.name}+{second.name}"
    if not isinstance(name, str):
        raise AnalogyError(f"analogy needs a name, not {name!r}")

    pieces = _cut(first_guard, first) + _cut(second_guard, second)
    _check_guards(name, pieces, first.source.signature.constants)
    return _checked(AnalogyMap, name=name, source=first.source, target=first.target, pieces=pieces)


def _cut(outer: Guard, amap: AnalogyMap) -> tuple[AnalogyPiece, ...]:
    """amap's pieces, each guard cut down by outer; dead guards, which
    can never match, are dropped."""

    merged = [(outer.intersect(piece.guard), piece.mapping) for piece in amap.pieces]
    return tuple(_checked(AnalogyPiece, guard=g, mapping=m) for g, m in merged if g.constants)


def close_under_combination(
    analogies: Sequence[AnalogyMap], working_set: Sequence[Formula]
) -> tuple[AnalogyMap, ...]:
    """One round of pairwise combination along single-constant splits.

    For every ordered pair of distinct analogies and every source
    constant c, the combination that follows the first analogy on
    formulas mentioning only c and the second elsewhere is added,
    provided it stays injective on the working set. Existing analogies
    come first in the result, generated ones after, in deterministic
    order. The round is not iterated. All analogies must run between
    the same two domains.
    """

    analogies = _items("analogies", analogies, AnalogyMap, AnalogyError)
    if not analogies:
        return ()
    tables = TranslationTables(analogies[0].source, analogies[0].target, working_set)
    return tables.close(analogies)


# ====================================================================
# Augmented report and scoring
# ====================================================================


class AugmentedReport(Value):
    """Support pairs with directions split out.

    positive_pairs lists (formula, image) where both sides hold or
    both fail. negative_source_true lists pairs that hold here but
    fail there; negative_source_false the reverse. plausible lists
    (formula, image, conjectured value) for the open formulas.
    """

    def __init__(
        self,
        analogy: AnalogyMap,
        positive_pairs: tuple[tuple[Formula, Formula], ...],
        negative_source_true: tuple[tuple[Formula, Formula], ...],
        negative_source_false: tuple[tuple[Formula, Formula], ...],
        plausible: tuple[tuple[Formula, Formula, TruthValue], ...],
    ):
        object.__setattr__(self, "analogy", analogy)
        object.__setattr__(self, "positive_pairs", positive_pairs)
        object.__setattr__(self, "negative_source_true", negative_source_true)
        object.__setattr__(self, "negative_source_false", negative_source_false)
        object.__setattr__(self, "plausible", plausible)

    def to_json_dict(self) -> dict:
        def pairs(entries):
            return [
                {"source": print_formula(a), "target": print_formula(b)}
                for a, b in entries
            ]

        return {
            "analogy": self.analogy.name,
            "positive_pairs": pairs(self.positive_pairs),
            "negative_source_true": pairs(self.negative_source_true),
            "negative_source_false": pairs(self.negative_source_false),
            "plausible": [
                {"source": print_formula(a), "target": print_formula(b), "conjecture": str(v)}
                for a, b, v in self.plausible
            ],
        }


def augmented_report(amap: AnalogyMap, formulas: Sequence[Formula]) -> AugmentedReport:
    """Classify and pair every formula with its image, splitting negatives."""

    _instance("amap", amap, AnalogyMap, AnalogyError)
    return TranslationTables(amap.source, amap.target, formulas).augmented_report(amap)


class StraightRuleScore(Value):
    """Exact rational degree of support from match and mismatch counts."""

    def __init__(self, n: int, r: int, s: int, p: Fraction):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", p)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "s": self.s, "p": str(self.p)}


def straight_rule(n: int, r: int, s: int) -> StraightRuleScore:
    """p = n / (n + r + s + 1), requiring at least one positive match.

    The +1 keeps p short of certainty no matter how much agreement is
    piled up, and an analogy with no positive support at all is not
    scored: it would start from nothing.
    """

    for label, v in (("n", n), ("r", r), ("s", s)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise AnalogyError(f"count {label} must be a nonnegative integer")
    if n == 0:
        raise AnalogyError("no positive analogy: n must be at least 1")
    return StraightRuleScore(n=n, r=r, s=s, p=Fraction(n, n + r + s + 1))
