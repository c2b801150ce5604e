"""Extraction of highly connected and globally rigid subgraphs from dense graphs.

The core routine peels a graph down to a mixed k-connected subgraph whenever
the density premise 2|E| > (k-1)(2|V| - k) holds (k even; odd k is promoted
to k+1 and recorded). Every step either deletes a vertex while the premise
survives or splits along a cheap mixed cut into a side that still satisfies
it, so termination and correctness follow from the counting in the premise.
Every step works on a ``Graph`` with the input label of each of its vertices,
the package's subgraph convention; all four peels (the degree strip, the
premise peel, the core and the connectivity descent) are one ``_peel``, which
reads only |V|, |E| and the degree of the vertex it may delete.
On top of that sit a two-dimensional pipeline (mixed 6-connected subgraphs
are redundantly globally rigid in the plane) and a certified lower-bound
estimator for the largest dimension admitting a nontrivial globally rigid
subgraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import Rng
from .graph import Graph, GraphError, cycle, find_cycle, min_mixed_cut
from .rigidity import _rng
from .global_rigidity import is_globally_rigid, is_redundantly_globally_rigid


class ExtractionError(GraphError):
    """Premise of an extraction routine is violated; message cites the inequality."""


@dataclass(frozen=True)
class DeleteVertex:
    vertex: int
    reason: str  # "degree" (degree < k) or "minimality"


@dataclass(frozen=True)
class CutSplit:
    cut_vertices: tuple[int, ...]
    cut_edges: tuple[tuple[int, int], ...]
    side: tuple[int, ...]  # surviving vertices, original labels


@dataclass(frozen=True)
class ExtractionTrace:
    requested_k: int
    k: int  # after odd promotion
    steps: tuple
    vertices: tuple[int, ...]  # final subgraph, original labels, sorted

    @property
    def promoted(self) -> bool:
        return self.k != self.requested_k


def _edge_premise(nv: int, ne: int, k: int) -> bool:
    # |E| > (k-1)(|V| - k/2), kept in integers
    return 2 * ne > (k - 1) * (2 * nv - k)


def _premise(nv: int, ne: int, k: int) -> bool:
    return nv >= k + 1 and _edge_premise(nv, ne, k)


def _peel(g: Graph, removable) -> tuple[list[tuple[int, int]], list[int]]:
    """Delete the vertex of least (degree, label) among those for which
    ``removable(|V|, |E|, degree)`` holds, until it holds for none. Returns
    (vertex, degree at deletion) for each deletion, in order, and the
    sorted vertices left."""
    adj = [set(a) for a in g.adjacency]
    alive = set(range(g.n))
    ne = g.m
    deleted = []
    while True:
        nv = len(alive)
        best = min(((len(adj[v]), v) for v in alive if removable(nv, ne, len(adj[v]))),
                   default=None)
        if best is None:
            return deleted, sorted(alive)
        deg, v = best
        deleted.append((v, deg))
        for w in adj[v]:
            adj[w].discard(v)
        ne -= deg
        alive.discard(v)


def _split(g: Graph, cut_edges, side) -> Graph:
    """g minus the edges ``cut_edges``, induced on the vertices ``side``: a
    cut edge may end outside ``side``."""
    dropped = set(cut_edges)
    return Graph(g.n, tuple(e for e in g.edges if e not in dropped)).induced(side)


def mixed_k_connected_subgraph(g: Graph, k: int) -> tuple[Graph, ExtractionTrace]:
    """Extract a mixed k-connected subgraph under the density premise.

    Odd k is promoted to k + 1 (a mixed (k+1)-connected graph is mixed
    k-connected) and recorded in the trace. Vertices of degree below k are
    stripped up front: isolating such a vertex costs less than k, so none
    can survive in any mixed k-connected subgraph and removing them loses
    nothing. The density premise is then required of the stripped core.

    The output is verified: the loop returns only after ``min_mixed_cut``
    proves that no mixed cut of the very graph it returns costs less than
    k, with flows capped at k; a cut is decoded only when a split follows.
    So callers do not run the cut again; ``rigidkit extract`` reports
    ``verified`` on the strength of this check.
    """
    requested = k
    if k < 1:
        raise ExtractionError("k must be >= 1")
    if k % 2 == 1:
        k += 1

    # the working subgraph, vertex i being vertex labels[i] of g
    cur, labels = g, tuple(range(g.n))
    steps = []

    def delete_while(removable) -> None:
        nonlocal cur, labels
        deleted, kept = _peel(cur, removable)
        steps.extend(DeleteVertex(vertex=labels[v], reason="degree" if deg < k else "minimality")
                     for v, deg in deleted)
        if deleted:
            cur, labels = cur.induced(kept), tuple(labels[v] for v in kept)

    delete_while(lambda nv, ne, deg: deg < k)

    if cur.n < k + 1:
        raise ExtractionError(
            f"premise violated: |V| = {cur.n} < {k + 1} = k + 1 "
            f"after stripping degree < {k} vertices (input had |V| = {g.n})")
    if not _edge_premise(cur.n, cur.m, k):
        raise ExtractionError(
            f"premise violated: |E| = {cur.m} is not greater than "
            f"(k-1)(|V| - k/2) = {(k - 1) * (2 * cur.n - k) // 2} with "
            f"k = {k}, |V| = {cur.n} (after stripping degree < {k} vertices)")

    while True:
        # deletion phase: drop vertices while the premise survives,
        # cheapest (minimum degree) first
        delete_while(lambda nv, ne, deg: _premise(nv - 1, ne - deg, k))

        cut = min_mixed_cut(cur, below=k)
        if cut is None:
            trace = ExtractionTrace(requested_k=requested, k=k,
                                    steps=tuple(steps), vertices=labels)
            return cur, trace

        # split along the cheap cut into the least side, by (size, vertices),
        # that keeps the premise; at least one does
        comps = cur.connected_components(cut.vertices, cut.edges)
        if len(comps) < 2:
            raise AssertionError("internal error: cheap cut fails to disconnect")
        pieces = [(len(side), side, _split(cur, cut.edges, side))
                  for side in (sorted(set(comp).union(cut.vertices)) for comp in comps)]
        pieces = [p for p in pieces if _premise(p[0], p[2].m, k)]
        if not pieces:
            raise AssertionError("internal error: no side satisfies the premise")
        _, side, cur = min(pieces, key=lambda p: p[:2])
        steps.append(CutSplit(cut_vertices=tuple(labels[v] for v in cut.vertices),
                              cut_edges=tuple((labels[a], labels[b]) for a, b in cut.edges),
                              side=tuple(labels[v] for v in side)))
        labels = tuple(labels[v] for v in side)


def replay_trace(g: Graph, trace: ExtractionTrace) -> Graph:
    """Reapply a trace to its input; must reproduce the extracted subgraph."""
    cur, labels = g, tuple(range(g.n))
    for step in trace.steps:
        if isinstance(step, DeleteVertex):
            i = labels.index(step.vertex)
            cur, labels = cur.delete_vertex(i), labels[:i] + labels[i + 1:]
        else:
            side = sorted(labels.index(v) for v in step.side)
            cut_edges = [(labels.index(a), labels.index(b)) for a, b in step.cut_edges]
            cur, labels = _split(cur, cut_edges, side), tuple(labels[v] for v in side)
    if labels != trace.vertices:
        raise AssertionError("trace replay reached a different vertex set")
    return cur


def globally_rigid_subgraph_2d(g: Graph, verify: bool = True):
    """A redundantly globally rigid planar-dimension subgraph of a dense
    graph, with the trace of its extraction: ``(sub, trace)``.

    Guaranteed for |V| >= 7 and |E| >= 5|V| - 14: the mixed 6-connected
    subgraph extracted under that premise is redundantly globally rigid in
    dimension 2. Returns None exactly when the density premise fails. With
    ``verify`` the subgraph is checked on the exact planar route
    (``is_redundantly_globally_rigid`` at d = 2), which draws nothing.
    """
    if g.n < 7 or g.m < 5 * g.n - 14:
        return None
    sub, trace = mixed_k_connected_subgraph(g, 6)
    if sub.n < 7:
        raise AssertionError("internal error: mixed 6-connected output below 7 vertices")
    if verify and not is_redundantly_globally_rigid(sub, 2):
        raise AssertionError(
            "internal error: extracted subgraph failed redundant global rigidity")
    return sub, trace


@dataclass(frozen=True)
class GrnEstimate:
    """Certified lower bound for the largest dimension with a nontrivial
    globally rigid subgraph; 0 when not even a cycle exists. Witness vertex
    i is vertex ``witness_vertices[i]`` of the input; both are None with
    the bound 0."""

    lower_bound: int
    witness: Graph | None
    witness_vertices: tuple[int, ...] | None


def _iterated_core(g: Graph, min_deg: int) -> tuple[int, ...]:
    """Vertices of the subgraph left by stripping degree < min_deg repeatedly
    (the min_deg-core, which does not depend on the order of deletion)."""
    return tuple(_peel(g, lambda nv, ne, deg: deg < min_deg)[1])


def _mader_descent(g: Graph, k: int) -> tuple[Graph, tuple[int, ...]] | None:
    """Shrink toward a k-connected candidate: delete minimum-degree vertices
    while |E| > (2k-3)(|V| - k - 1) and |V| > 2k - 1 survive. Returns the
    candidate and the input label of each of its vertices."""
    if g.n < 2 * k - 1 or g.m <= (2 * k - 3) * (g.n - k - 1):
        return None
    kept = _peel(g, lambda nv, ne, deg: nv - 1 >= 2 * k - 1
                 and ne - deg > (2 * k - 3) * (nv - 1 - k - 1))[1]
    return g.induced(kept), tuple(kept)


def estimate_grn(g: Graph, d_max: int, rng: Rng | None = None) -> GrnEstimate:
    """Certified lower bound on the globally-rigid-subgraph dimension.

    Tries, for each d from d_max down to 1, a small set of candidate
    subgraphs (the (d+1)-core, a connectivity-driven descent, the
    two-dimensional pipeline, cycles for d = 1) and certifies the first
    that passes the global rigidity test on at least d + 2 vertices. The
    result is a lower bound only; it is never claimed tight. Vertex i of
    the witness is vertex ``witness_vertices[i]`` of ``g``, so every witness
    edge maps to an edge of ``g``.
    """
    if d_max < 1:
        raise GraphError("d_max must be >= 1")
    rng = _rng(rng)
    for d in range(d_max, 0, -1):
        sub = rng.child(d)
        candidates: list[tuple[Graph, tuple[int, ...]]] = []
        core = _iterated_core(g, d + 1)
        if len(core) >= d + 2:
            candidates.append((g.induced(core), core))
        mader = _mader_descent(g, d * (d + 1) + 1)
        if mader is not None and mader[0].n >= d + 2:
            candidates.append(mader)
        if d == 2:
            piped = globally_rigid_subgraph_2d(g, verify=False)
            if piped is not None:
                candidates.append((piped[0], piped[1].vertices))
        if d == 1:
            cyc = find_cycle(g)
            if cyc is not None:
                candidates.append((cycle(len(cyc)), tuple(cyc)))  # ring vertex i is cyc[i]
        for ci, (cand, verts) in enumerate(candidates):
            if cand.n >= d + 2 and is_globally_rigid(cand, d, sub.child(1 + ci)):
                return GrnEstimate(lower_bound=d, witness=cand, witness_vertices=verts)
    return GrnEstimate(lower_bound=0, witness=None, witness_vertices=None)


def conditional_grn_bound(g: Graph) -> int:
    """floor(sqrt(|E| / (6|V|))): a lower bound for the globally rigid
    subgraph dimension that is conditional on the sufficient-connectivity
    conjecture. Reported for context, never asserted."""
    if g.n == 0:
        raise GraphError("empty graph")
    return math.isqrt(g.m // (6 * g.n))
