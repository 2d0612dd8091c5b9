"""The benchmark's workloads: which inputs they use and which ops they run.

A workload is an endless stream of passes; a pass is a short list of
ops that together cover the workload's mix once. The closed loop in
run.py runs whole passes until its time is up, so every run measures
the same mix. The seed picks the inputs and their order and nothing
else.

Session workloads draw every session from a fixed pool: for each
stratum (one parameter set) there are VARIANTS seeded variants, and a
run's seed chooses which variant each pass uses. The pool is fixed so
that contract.json can hold the recorded output digest of every op a
run can make; no session repeats within a run until a pass count of
VARIANTS is reached.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from sessiongen import SessionParams, generate

VARIANTS = 16
SESSION_COMMANDS = ("classify", "report", "score", "best", "entail")
COLD_COMMANDS = ("check",) + SESSION_COMMANDS
SWEEP_CLASSES = ("all", "smooth", "ranked")
SOUNDNESS_N = (1, 2, 3, 4)
COMPLETENESS_N = (1, 2, 3)
# With the 21 sweeps this puts the median inside the relation ops and
# the 90th percentile inside the twelve sweeps with n <= 2, so neither
# sits on the gap between two kinds of op.
RELATION_OPS_PER_PASS = 80
TABLE_OPS_PER_PASS = 30


def _atoms(objects, unary, binary, analogies, density, preference):
    return SessionParams(
        objects=objects, unary=unary, binary=binary, analogies=analogies,
        closure=True, sentences=None,
        target_density=density, preference=preference, queries=6,
    )


def _quantified(objects, unary, binary, analogies, sentences, density, preference):
    return SessionParams(
        objects=objects, unary=unary, binary=binary, analogies=analogies,
        closure=False, sentences=sentences,
        target_density=density, preference=preference, queries=8,
    )


# Closure grows as A(A-1)*|C| candidates, each checked over the whole
# atom working set, so objects, binary predicates and analogies are
# kept small enough for one op to take tens to a few hundred ms.
CLOSURE_ATOMS = (
    _atoms(6, 2, 0, 4, 0.3, "dominance"),
    _atoms(6, 1, 1, 4, 0.6, "counts"),
    _atoms(7, 2, 0, 4, 0.6, "dominance"),
    _atoms(7, 1, 0, 5, 0.3, "counts"),
    _atoms(8, 1, 0, 4, 0.5, "dominance"),
    _atoms(9, 1, 0, 4, 0.6, "counts"),
    _atoms(6, 1, 0, 6, 0.4, "dominance"),
    _atoms(8, 2, 0, 4, 0.5, "counts"),
)

QUANTIFIED_FLAT = (
    _quantified(10, 2, 1, 4, 20, 0.5, "dominance"),
    _quantified(10, 3, 1, 6, 24, 0.6, "counts"),
    _quantified(11, 2, 2, 5, 28, 0.4, "dominance"),
    _quantified(12, 2, 1, 8, 20, 0.5, "counts"),
    _quantified(13, 3, 1, 4, 32, 0.3, "dominance"),
    _quantified(14, 2, 1, 5, 36, 0.6, "counts"),
    _quantified(15, 2, 2, 4, 40, 0.5, "dominance"),
    _quantified(16, 3, 1, 6, 22, 0.4, "counts"),
)

SESSION_WORKLOADS = {"closure_atoms": CLOSURE_ATOMS, "quantified_flat": QUANTIFIED_FLAT}
WORKLOADS = ("closure_atoms", "quantified_flat", "repcheck_sweeps", "cli_cold")


@dataclass(frozen=True)
class Op:
    """One benchmark op.

    kind "cli" calls analogia.cli.main in process, "cold" starts
    `python -m analogia` in a fresh process, "kernel" calls one public
    relation/choice function on `payload`. `key` names the recorded
    output digest in contract.json; `session` groups the ops on one
    session file, so entail can be checked against best.
    """

    kind: str
    command: str
    argv: tuple[str, ...] = ()
    key: str = ""
    session: str = ""
    payload: tuple = ()


def digest_key(text: str, command: str) -> str:
    return f"{hashlib.sha256(text.encode()).hexdigest()[:20]}:{command}"


def sweep_key(mode: str, n: int, cls: str) -> str:
    return f"repcheck:{mode}:{n}:{cls}"


def pool_sessions(workload: str) -> dict[tuple[int, int], str]:
    """Every session text of a session workload, by (stratum, variant)."""

    return {
        (s, v): generate(params, f"{workload}:{s}:{v}")
        for s, params in enumerate(SESSION_WORKLOADS[workload])
        for v in range(VARIANTS)
    }


def write_sessions(workload: str, out_dir: Path) -> dict[tuple[int, int], tuple[Path, str]]:
    """Write the pool to out_dir; returns each file's path and text."""

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for (s, v), text in pool_sessions(workload).items():
        path = out_dir / f"s{s}v{v}.ana"
        path.write_text(text, encoding="utf-8")
        files[(s, v)] = (path, text)
    return files


def bundled_sessions(root: Path) -> dict[str, tuple[Path, str]]:
    paths = sorted((root / "sessions").glob("*.ana"))
    return {p.stem: (p, p.read_text(encoding="utf-8")) for p in paths}


def _session_ops(rng, kind, label, path, text, commands):
    cmds = list(commands)
    rng.shuffle(cmds)
    i, j = cmds.index("best"), cmds.index("entail")
    if j < i:
        cmds[i], cmds[j] = cmds[j], cmds[i]
    return [
        Op(kind, c, ("--json", c, str(path)), digest_key(text, c), label)
        for c in cmds
    ]


def session_passes(workload: str, seed: int, files):
    """Passes of a session workload: each stratum once, five commands each."""

    rng = random.Random(f"{workload}:passes:{seed}")
    strata = len(SESSION_WORKLOADS[workload])
    orders = [rng.sample(range(VARIANTS), VARIANTS) for _ in range(strata)]
    k = 0
    while True:
        picks = [(s, orders[s][k % VARIANTS]) for s in range(strata)]
        rng.shuffle(picks)
        ops = []
        for s, v in picks:
            path, text = files[(s, v)]
            ops += _session_ops(rng, "cli", f"s{s}v{v}", path, text, SESSION_COMMANDS)
        yield ops
        k += 1


def cold_passes(seed: int, sessions, kind: str = "cold"):
    """One pass per bundled session, all session commands; the sessions
    come in a fresh shuffled order each time all of them have run."""

    rng = random.Random(f"cli_cold:passes:{seed}")
    while True:
        names = sorted(sessions)
        rng.shuffle(names)
        for name in names:
            path, text = sessions[name]
            yield _session_ops(rng, kind, name, path, text, COLD_COMMANDS)


def sweep_ops() -> list[Op]:
    ops = []
    for mode, sizes in (("soundness", SOUNDNESS_N), ("completeness", COMPLETENESS_N)):
        for n in sizes:
            for cls in SWEEP_CLASSES:
                argv = ("--json", "repcheck", "--mode", mode, "--n", str(n), "--class", cls)
                ops.append(Op("cli", "repcheck", argv, sweep_key(mode, n, cls)))
    return ops


def _cycle(rng: random.Random, size: int):
    """Every index in range(size) once in seeded order, then reshuffled."""

    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


def relation_of(mask: int, n: int) -> tuple[tuple[int, int], ...]:
    """The irreflexive relation with edge bitmask `mask`, as index pairs."""

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return tuple(p for bit, p in enumerate(pairs) if mask >> bit & 1)


def table_of(index: int, n: int) -> tuple[int, ...]:
    """Choice table number `index` among all with cf(X) a subset of X."""

    table = []
    for xs in range(1 << n):
        subsets = [m for m in range(xs + 1) if m & xs == m]
        index, pick = divmod(index, len(subsets))
        table.append(subsets[pick])
    return tuple(table)


def kernel_passes(seed: int):
    """Passes of every CLI sweep plus seeded relation and table ops.

    A relation op calls choice_of, is_smooth, is_ranked and
    is_transitive on one relation over four elements; a table op calls
    check_property for every law and represent for one class on one
    choice table over three elements. Inputs come from a seeded
    permutation of all 4096 of each, so no input repeats within a run
    before all have been used and no op can reuse another's result.
    """

    rng = random.Random(f"repcheck_sweeps:passes:{seed}")
    relations = _cycle(rng, 1 << 12)
    tables = _cycle(rng, 1 << 12)
    while True:
        ops = sweep_ops()
        ops += [
            Op("kernel", "relation", payload=(4, relation_of(next(relations), 4)))
            for _ in range(RELATION_OPS_PER_PASS)
        ]
        ops += [
            Op("kernel", "table", payload=(3, table_of(next(tables), 3), rng.choice(SWEEP_CLASSES)))
            for _ in range(TABLE_OPS_PER_PASS)
        ]
        rng.shuffle(ops)
        yield ops
