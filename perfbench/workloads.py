"""Workloads of the rigidkit benchmark: seeded inputs, op lists and output checks.

An op is one ``rigidkit`` CLI invocation.  Every input graph comes from the
benchmark's own generator (stdlib ``random`` seeded by the workload seed) and
is written as a canonical edge list, so the program only ever sees files.
Each workload repeats a fixed pattern of op kinds; every repetition draws
fresh random graphs, so a run samples many graphs and one unlucky graph
moves the figures little.

Input sizes are smaller than the sizes quoted when the workloads were
specified (for example ``analyze`` on G(20, 60) takes seconds per op): a run
must complete dozens of ops within its time budget for the median and the
tail percentile to be steady.  For the same reason the kinds of one workload
are sized to take about the same time (see PATTERNS).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
CYCLES = 20  # repetitions of the pattern written per run; a run that outruns them starts over
CLI_SEED = "1729"  # the CLI's own default, passed explicitly

# The braced icosahedron: the skeleton with apex 0 on ring 1..5, apex 11 on
# ring 6..10, ring vertex 1+i joined to 6+i and 6+(i+1)%5, plus the brace (0, 6).
ICOSAHEDRON_BRACED = sorted(
    [(0, i) for i in range(1, 6)]
    + [tuple(sorted((1 + i, 1 + (i + 1) % 5))) for i in range(5)]
    + [tuple(sorted((6 + i, 6 + (i + 1) % 5))) for i in range(5)]
    + [(i, 11) for i in range(6, 11)]
    + [(1 + i, 6 + i) for i in range(5)]
    + [(1 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(0, 6)])


@dataclass(frozen=True)
class Kind:
    """One op kind of a workload pattern."""

    label: str
    argv: tuple[str, ...]   # subcommand and flags; build() adds --in and --seed
    n: int = 0              # random G(n, m) input when m > 0
    m: int = 0
    min_degree: int = 0     # resample until every vertex has at least this degree
    named: str = ""         # fixed named input instead of a random graph
    random_sweep: bool = False  # explore sweep whose --seed follows the workload seed


def _complete(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


NAMED = {
    "icosahedron_braced": (12, ICOSAHEDRON_BRACED),
    "complete8": (8, _complete(8)),
    "complete11": (11, _complete(11)),
}


def _analyze(d: int, n: int = 0, m: int = 0, min_degree: int = 0, named: str = "") -> Kind:
    label = f"analyze-d{d}-" + (named or f"G{n},{m}")
    return Kind(label, ("analyze", "--dim", str(d)), n=n, m=m,
                min_degree=min_degree, named=named)


def _sparsify(n: int = 0, m: int = 0, min_degree: int = 0, named: str = "") -> Kind:
    label = "sparsify-d3-" + (named or f"G{n},{m}")
    return Kind(label, ("sparsify", "--dim", "3"), n=n, m=m,
                min_degree=min_degree, named=named)


def _extract(mode: tuple[str, ...], n: int, m: int, min_degree: int = 0) -> Kind:
    label = "extract-" + "".join(mode).lstrip("-") + f"-G{n},{m}"
    return Kind(label, ("extract",) + mode, n=n, m=m, min_degree=min_degree)


def _explore(*argv: str, random_sweep: bool = False) -> Kind:
    label = "explore-" + "-".join(a.lstrip("-") for a in argv)
    return Kind(label, ("explore", "--conjecture") + argv, random_sweep=random_sweep)


# Within a workload every op kind takes about the same time (except the few
# fast kinds at the bottom), so the median and the tail percentile are order
# statistics of one population.  When kinds of very different cost are mixed,
# the median lands on the boundary between two of them and jumps from run to
# run as the op count or the drawn graphs change.  Random inputs carry a
# minimum degree where that narrows the spread of op time between graphs.
PATTERNS = {
    # matroid layer on large eliminations
    "analyze": (
        _analyze(2, 12, 30, min_degree=3), _analyze(3, 8, 26, min_degree=4),
        _analyze(3, named="complete8"), _analyze(3, named="icosahedron_braced"),
        _analyze(2, 12, 30, min_degree=3), _analyze(3, 8, 26, min_degree=4),
    ),
    # certificate layer: inputs globally rigid at d=3; no flows run
    "sparsify": (
        _sparsify(named="complete11"),
        _sparsify(13, 52, min_degree=5), _sparsify(13, 52, min_degree=5),
    ),
    # flow layer; --k runs no rigidity code at all
    "extract": (
        _extract(("--grs2d",), 14, 60),
        _extract(("--k", "6"), 50, 250, min_degree=6),
        _extract(("--k", "6"), 50, 250, min_degree=6),
        _extract(("--k", "6"), 50, 250, min_degree=6),
        _extract(("--k", "6"), 50, 250, min_degree=6),
    ),
    # field layer on tiny matrices, and the only workload with the corpus layer;
    # the three fast sweeps sit below the median
    "explore": (
        _explore("bridge", "--dim", "2", "--max-n", "5", "--isomorph-reject"),
        _explore("redundant-mc", "--dim", "1", "--max-n", "5", "--isomorph-reject"),
        _explore("bridge", "--dim", "1", "--max-n", "7", "--random", "5", "0.5",
                 random_sweep=True),
    ) + 6 * (_explore("linked-gl", "--dim", "1", "--max-n", "6", "--isomorph-reject"),),
}
WORKLOADS = tuple(PATTERNS)


@dataclass(frozen=True)
class Op:
    """One op: its CLI argv and, for graph inputs, the graph it reads."""

    kind: Kind
    argv: tuple[str, ...]
    key: str                        # identifies the op's inputs across runs
    n: int = 0
    edges: tuple[tuple[int, int], ...] = ()

    @property
    def workload(self) -> str:
        return self.kind.argv[0]


def random_graph(rnd: random.Random, n: int, m: int, min_degree: int) -> list[tuple[int, int]]:
    """Uniform G(n, m), resampled until the minimum degree is reached."""
    pairs = _complete(n)
    while True:
        edges = sorted(rnd.sample(pairs, m))
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= min_degree:
            return edges


def edge_list_text(n: int, edges) -> str:
    """The canonical edge-list format: header "n m", then sorted "u v" lines."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _key(value) -> str:
    return _digest(json.dumps(value))[:24]


def build(workload: str, seed: int, dest: Path) -> list[Op]:
    """Generate the workload's inputs from ``seed`` into ``dest``; return its ops."""
    rnd = random.Random(f"{workload}:{seed}")
    dest.mkdir(parents=True, exist_ok=True)
    ops = []
    written = {}
    for cycle in range(CYCLES):
        for slot, kind in enumerate(PATTERNS[workload]):
            if kind.random_sweep:
                sweep_seed = str(rnd.randrange(1 << 32))
                argv = kind.argv + ("--seed", sweep_seed)
                ops.append(Op(kind, argv, key=_key(argv)))
                continue
            if not kind.named and not kind.m:
                argv = kind.argv + ("--seed", CLI_SEED)
                ops.append(Op(kind, argv, key=_key(argv)))
                continue
            if kind.named:
                n, edges = NAMED[kind.named]
                name = kind.named
            else:
                n = kind.n
                edges = random_graph(rnd, n, kind.m, kind.min_degree)
                name = f"{cycle}-{slot}-{kind.label}"
            text = edge_list_text(n, edges)
            path = written.get(name)
            if path is None:
                path = dest / f"{name}.txt"
                path.write_text(text, encoding="ascii")
                written[name] = path
            argv = kind.argv[:1] + ("--in", str(path)) + kind.argv[1:] + ("--seed", CLI_SEED)
            key = _key([_digest(text)] + list(kind.argv))
            ops.append(Op(kind, argv, key=key, n=n, edges=tuple(edges)))
    return ops


# ---------------------------------------------------------------------------
# output checks

def checked_block(op: Op, report: dict):
    """The part of a report compared with the recorded answer, or None."""
    if op.workload == "analyze":
        return report["results"]
    if op.workload == "extract":
        r = report["result"]
        return {"vertices": r["vertices"], "edges": r["edges"], "verified": r["verified"]}
    if op.workload == "explore":
        return report["counts"]
    return None  # sparsify may keep other edges under another seed schedule


def answer_digest(block) -> str:
    return _digest(json.dumps(block, sort_keys=True))[:16]


def _rank_bound(n: int, m: int, d: int) -> int:
    if n <= d + 1:
        return min(m, n * (n - 1) // 2)
    return min(m, d * n - (d + 1) * d // 2)


def _check_analyze(op: Op, report: dict) -> str | None:
    d = int(op.kind.argv[2])
    r = report["results"]
    n, m = op.n, len(op.edges)
    degree = [0] * n
    for u, v in op.edges:
        degree[u] += 1
        degree[v] += 1
    rank = r["generic_rank"]
    problems = [
        (report["input"]["n"], report["input"]["m"]) != (n, m) and "input size",
        not 0 <= rank <= _rank_bound(n, m, d) and "rank bound",
        r["independent"] != (rank == m) and "independent",
        r["rigid"] != (rank == d * n - d * (d + 1) // 2) and "rigid",
        r["circuit"] and rank != m - 1 and "circuit",
        r["globally_rigid"] and not r["rigid"] and "globally rigid but not rigid",
        r["minimally_globally_rigid"] and not r["globally_rigid"] and "minimally globally rigid",
        not 0 <= r["bridge_count"] <= m and "bridge count",
        not 1 <= r["matroid_components"] <= m and "component count",
        r["min_degree"] != min(degree) and "min degree",
        not 0 <= r["min_mixed_cut_cost"] <= min(degree) and "mixed cut cost",
    ]
    return next((p for p in problems if p), None)


def _check_sparsify(op: Op, report: dict) -> str | None:
    r = report["result"]
    n = op.n
    kept = {tuple(e) for e in r["edges"]}
    problems = [
        not kept <= set(op.edges) and "kept edges not a subset of the input",
        r["edge_count"] != len(kept) and "edge count",
        r["edge_bound"] != 4 * n - 10 and "edge bound",
        r["edge_count"] > r["edge_bound"] and "edge count above the bound",
        not {tuple(e) for e in r["extra_edges"]} <= kept and "extra edges not kept",
    ]
    return next((p for p in problems if p), None)


def _check_extract(op: Op, report: dict) -> str | None:
    r = report["result"]
    verts = r["vertices"]
    inside = set(op.edges)
    degree = [0] * len(verts)
    ok_edges = True
    for a, b in r["edges"]:
        ok_edges &= (verts[a], verts[b]) in inside
        degree[a] += 1
        degree[b] += 1
    need = 7 if "--grs2d" in op.kind.argv else int(op.kind.argv[2])
    problems = [
        r["verified"] is not True and "not verified",
        verts != sorted(set(verts)) and "vertices not sorted and distinct",
        not all(0 <= v < op.n for v in verts) and "vertex out of range",
        r["n"] != len(verts) and "vertex count",
        not ok_edges and "edge outside the input",
        "--grs2d" in op.kind.argv and len(verts) < need and "fewer than 7 vertices",
        "--k" in op.kind.argv and min(degree, default=0) < r["k"] and "degree below k",
    ]
    return next((p for p in problems if p), None)


def _check_explore(op: Op, report: dict) -> str | None:
    c = report["counts"]
    problems = [
        c["cases"] != c["confirmed"] + c["unknown"] + c["counterexample_candidates"]
        and "cases do not add up",
        c["counterexample_candidates"] != len(report["candidates"]) and "candidate count",
        op.kind.random_sweep and c["graphs"] != int(op.kind.argv[op.kind.argv.index("--random") + 1])
        and "graph count",
    ]
    return next((p for p in problems if p), None)


INVARIANTS = {
    "analyze": _check_analyze,
    "sparsify": _check_sparsify,
    "extract": _check_extract,
    "explore": _check_explore,
}


def check(op: Op, result: dict, expected: dict) -> str | None:
    """Why the op failed, or None.  An op fails if it raised, returned
    another exit code than recorded (0 when nothing is recorded), broke an
    invariant, or differs from the recorded answer for its inputs."""
    if result.get("error"):
        return "raised: " + result["error"].strip().splitlines()[-1]
    want = expected.get(op.key)
    want_rc = want[0] if want else 0
    if result["rc"] != want_rc:
        return f"exit code {result['rc']}, expected {want_rc}"
    try:
        report = json.loads(result["stdout"])
        problem = INVARIANTS[op.workload](op, report)
        block = checked_block(op, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"
    if problem:
        return "invariant: " + problem
    if want and block is not None and answer_digest(block) != want[1]:
        return f"answer {answer_digest(block)} differs from the recorded {want[1]}"
    return None
