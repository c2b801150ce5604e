"""Linked and globally linked vertex pairs, plus a conjecture explorer.

A pair {u, v} is linked in dimension d when adding the edge uv leaves the
generic rank unchanged. Globally linked pairs (the distance between u and v
agrees in every equivalent generic realization) are fully understood only in
special situations. In dimension 2 one step per graph answers all the pairs
asked about: "yes" or "no" exactly on matroid-connected graphs via the local
connectivity threshold 3, "yes" through a circuit-based reduction for a pair
linked in dimension 3, otherwise "unknown" rather than guessing. It reads
G's 2-D matroid once and asks every pair on one flow network; the one-pair
query and the explorer both call it. Linkedness is exact at d <= 2, where
the pebble game answers it, and one-sided at d >= 3: there G is factored
once per trial, and at a trial of generic rank "not linked" is exact and
only "linked" can be wrong. In dimension 1 a non-edge is globally linked
exactly when a 2-connected block holds both ends, read off one lowpoint
depth-first search per graph (``graph._blocks``).

The conjecture explorer is a table: each kind names a generator that yields
the cases of one graph as confirmed, unknown or a candidate's certificate,
and one loop sweeps the corpus and tallies them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache

from . import corpus
from .field import Rng
from .graph import Graph, GraphError, _blocks, _split_network, local_connectivity
from .rigidity import (_check_dimension, _connects, _matroid, _rng, _splitting_edges, _trials,
                       bridges, is_matroid_connected)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

REASON_EDGE = "edge-present"
REASON_KAPPA = "kappa-criterion"
REASON_CIRCUIT = "r3-circuit-route"
REASON_OPEN = "open"


@dataclass(frozen=True)
class PairVerdict:
    """Answer for one vertex pair; "yes" verdicts carry a checkable witness."""

    pair: tuple[int, int]
    linked: dict = field(default_factory=dict)  # dimension -> bool, as queried
    globally_linked: str = UNKNOWN
    reason: str = REASON_OPEN
    witness: tuple[tuple[int, int], ...] | None = None


def _pair(g: Graph, u: int, v: int) -> tuple[int, int]:
    """The vertex pair {u, v} of g, smaller label first."""
    if u == v:
        raise GraphError("pair needs u != v")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"vertex out of range for n={g.n}")
    return (u, v) if u < v else (v, u)


def is_linked(g: Graph, u: int, v: int, d: int, rng: Rng | None = None) -> bool:
    """True when adding uv does not raise the generic rank (edges count),
    by one ``rigidity._matroid`` call. Exact at d <= 2, one-sided at d >= 3:
    there each trial runs one elimination with the pair column riding
    along, and at a trial of generic rank "not linked" is exact; only
    "linked" can be wrong."""
    pairs = [_pair(g, u, v)]
    trials = _trials(g, d, _rng(rng), pairs, edge_stresses=False)
    return g.has_edge(u, v) or bool(_matroid(g, d, trials, None, pairs)[3])


def is_globally_linked_2d(g: Graph, u: int, v: int, rng: Rng | None = None) -> PairVerdict:
    """Globally linked query in dimension 2 with explicit reason codes.

    Resolution order: present edges are globally linked; on matroid-connected
    graphs the answer is exactly kappa(u, v) >= 3; otherwise, when the pair
    is linked in dimension 3, the fundamental circuit C of uv certifies
    "yes" provided kappa(u, v; C - uv) >= 3 and C - uv is matroid-connected
    in dimension 2. Anything else stays "unknown". A non-edge is the one
    pair of ``_globally_linked_2d``.
    """
    pair = _pair(g, u, v)
    if g.has_edge(u, v):
        return PairVerdict(pair=pair, linked={2: True, 3: True},
                           globally_linked=YES, reason=REASON_EDGE)
    return next(_globally_linked_2d(g, [pair], _rng(rng)))


def _globally_linked_2d(g: Graph, pairs, rng: Rng, circuits=None):
    """The verdict of ``is_globally_linked_2d`` for each non-edge of
    ``pairs``, in order; the matroid answers behind it are exact at
    d <= 2, one-sided at d >= 3. One d = 2 ``_matroid`` call gives G's
    components and each pair's 2-D linkedness. When G has exactly one
    component, one flow network of G gives every pair's kappa(u, v).
    Otherwise the pairs' 3-D circuits come from ``circuits`` (of a d = 3
    ``_matroid`` call), else from one call on ``rng.child(2)``, and pair
    i's C - uv is tested on ``rng.child(3 + i)``."""
    _, _, comps, linked = _matroid(g, 2, _trials(g, 2, rng.child(0), pairs), _connects, pairs)
    if len(comps) == 1:
        net = _split_network(g, vertex_cap=1)
        for u, v in pairs:
            kappa = net.max_flow(2 * u + 1, 2 * v, limit=3)
            yield PairVerdict(pair=(u, v), linked={2: (u, v) in linked},
                              globally_linked=YES if kappa >= 3 else NO, reason=REASON_KAPPA)
        return
    if circuits is None:
        trials = _trials(g, 3, rng.child(2), pairs, edge_stresses=False)
        circuits = _matroid(g, 3, trials, None, pairs)[3]
    for i, (u, v) in enumerate(pairs):
        circuit = circuits.get((u, v))
        if circuit is not None:
            cminus, labels = g.edge_subgraph(e for e in circuit if e != (u, v))
            # a circuit from a collapsed trial may leave u or v out of C - uv
            if {u, v} <= set(labels) and local_connectivity(
                    cminus, labels.index(u), labels.index(v), limit=3) >= 3 and \
                    is_matroid_connected(cminus, 2, rng.child(3 + i)):
                yield PairVerdict(pair=(u, v), linked={3: True}, globally_linked=YES,
                                  reason=REASON_CIRCUIT, witness=circuit)
                continue
        yield PairVerdict(pair=(u, v), linked={3: circuit is not None})


def globally_linked_1d(g: Graph, u: int, v: int) -> bool:
    """Exact one-dimensional criterion: an edge, or two disjoint paths."""
    return g.has_edge(u, v) or local_connectivity(g, u, v, limit=2) >= 2


# ---------------------------------------------------------------------------
# conjecture explorer

@dataclass(frozen=True)
class CorpusSpec:
    """What graphs to sweep: exhaustive up to max_n, or a random family."""

    mode: str = "exhaustive"
    max_n: int = 6
    count: int = 0
    n: int = 0
    edge_prob: float = 0.5
    isomorph_reject: bool = False

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown corpus mode {self.mode!r}")
        if self.mode == "exhaustive" and self.max_n < 1:
            raise ValueError("exhaustive corpus needs max_n >= 1")
        if self.mode == "random" and (self.count < 1 or self.n < 1):
            raise ValueError("random corpus needs count >= 1 and n >= 1")
        if self.mode == "random" and self.isomorph_reject:
            raise ValueError("isomorph rejection applies to exhaustive corpora only")


def _corpus_graphs(spec: CorpusSpec, rng: Rng):
    if spec.mode == "exhaustive":
        graphs = corpus.nonisomorphic_graphs if spec.isomorph_reject else corpus.all_graphs
        for n in range(1, spec.max_n + 1):
            yield from graphs(n)
    else:
        for i in range(spec.count):
            yield corpus.random_graph(spec.n, spec.edge_prob, rng.child(i))


def _linked_gl(g: Graph, dim: int, sub: Rng):
    """Every edge, and every non-edge linked in dimension dim + 1, is a case:
    globally linked in dimension dim or not. Exact at dim 1, by the blocks
    of G (``graph._blocks``), the 2-D step at dim 2, unknown above."""
    # a local set: the cached edge_set would stay alive with the corpus
    present = set(g.edges)
    extra = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in present]
    trials = _trials(g, dim + 1, sub.child(0), extra, edge_stresses=False)
    circuits = _matroid(g, dim + 1, trials, None, extra)[3]
    pairs = [p for p in extra if p in circuits]
    if dim > 2:
        yield from [UNKNOWN] * (g.m + len(pairs))
        return
    yield from [YES] * g.m
    if not pairs:
        return
    if dim == 1:
        blocks = _blocks(g)
        for u, v in pairs:
            yield YES if blocks[u] & blocks[v] else {
                "pair": [u, v], "detail": "linked in dim 2 but not globally linked in dim 1"}
    else:
        for verdict in _globally_linked_2d(g, pairs, sub.child(1), circuits):
            yield verdict.globally_linked if verdict.globally_linked != NO else {
                "pair": list(verdict.pair), "reason": verdict.reason,
                "detail": "linked in dim 3 but globally-linked oracle says no"}


def _redundant_mc(g: Graph, dim: int, sub: Rng):
    """One case per graph matroid-connected in dimension dim + 1: does every
    single-edge deletion stay matroid-connected in dimension dim?"""
    # single-edge matroids are connected only vacuously (the lone edge is
    # its own class); the implication is about circuit-rich graphs, so the
    # hypothesis asks for at least two edges
    if g.m >= 2 and is_matroid_connected(g, dim + 1, sub.child(0)):
        failing = [list(e) for e in _splitting_edges(g, dim, sub.child(1))]
        yield {"failing_edges": failing} if failing else YES


def _bridge(g: Graph, dim: int, sub: Rng):
    """One case per edge e of a graph matroid-connected in dimension dim
    whose deletion is not: is e a bridge in dimension dim + 1?"""
    if not is_matroid_connected(g, dim, sub.child(0)):
        return
    # computed at the first splitting edge, if there is one
    upper_bridges = cache(lambda: set(bridges(g, dim + 1, sub.child(1))))
    for e in _splitting_edges(g, dim, sub.child(2)):
        yield YES if e in upper_bridges() else {"edge": list(e)}


# each kind's cases on graph g: YES (confirmed), UNKNOWN (no sound oracle
# settles it) or a candidate's certificate, a dict without the graph
_SWEEPS = {"linked-gl": _linked_gl, "redundant-mc": _redundant_mc, "bridge": _bridge}
CONJECTURES = tuple(_SWEEPS)


def explore_conjecture(kind: str, dim: int, spec: CorpusSpec,
                       rng: Rng | None = None) -> dict:
    """Sweep a corpus for one conjecture and tally the outcomes.

    For every case whose hypothesis holds, the strongest checkable
    conclusion is evaluated: confirmed, unknown (no sound oracle applies),
    or a counterexample candidate with a full certificate. Unknowns are
    never treated as refutations. Graph i of the corpus draws on
    ``rng.child(1 + i)``.

    Kinds:
      linked-gl      pair linked in dimension dim+1 implies globally linked
                     in dimension dim (dim=1 exact, dim=2 via the circuit
                     route, higher dims always unknown)
      redundant-mc   matroid-connected in dim+1 implies every single-edge
                     deletion stays matroid-connected in dim
      bridge         matroid-connected in dim and G-e not implies e drops
                     the rank in dim+1
    """
    if kind not in CONJECTURES:
        raise ValueError(f"unknown conjecture {kind!r}; known: {CONJECTURES}")
    _check_dimension(dim)
    rng = _rng(rng)

    tally, candidates = Counter(), []
    for gi, g in enumerate(_corpus_graphs(spec, rng.child(0))):
        tally["graphs"] += 1
        for outcome in _SWEEPS[kind](g, dim, rng.child(1 + gi)):
            if isinstance(outcome, dict):
                candidates.append({"graph": {"n": g.n, "edges": [list(e) for e in g.edges]}}
                                  | outcome)
            else:
                tally[outcome] += 1

    return {
        "conjecture": kind,
        "dim": dim,
        "corpus": asdict(spec),
        "counts": {
            "graphs": tally["graphs"],
            "cases": tally[YES] + tally[UNKNOWN] + len(candidates),
            "confirmed": tally[YES],
            "unknown": tally[UNKNOWN],
            "counterexample_candidates": len(candidates),
        },
        "candidates": candidates,
        "seed": rng.seed,
    }
