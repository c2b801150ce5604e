"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately dumb: rational arithmetic, Gauss-Jordan
elimination, exhaustive enumeration, definition-level checks, and the
library's earlier implementations of the rigidity matroid, the stress
test, the edge-deletion predicates, the sparsifier, the canonical-form
search, two isomorphism-class generators, the pebble game with pair
circuits, the cut-vertex and cycle searches, the breadth-first flow kernel
and the one-pair globally linked query. Beyond sampling
realizations and building their rows, the brute-force oracles share no code
with the paths they verify; the earlier implementations reuse the library's
primitives and differ from it in how they combine them.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cache
from itertools import combinations

from rigidkit import Graph, GraphError
from rigidkit.corpus import _chunks_to_graph, _refine_colors, _search, canonical_chunks
from rigidkit.field import PRIME, FieldMatrix, Rng, _echelon, _kernel, nullspace_basis
from rigidkit.global_rigidity import (
    NonGenericRealizationError,
    NotGloballyRigidError,
    RankNotAchievableError,
    GlobalRigidityCertificate,
    SparsifyResult,
    Stress,
    _certifies,
    _proofs,
    _route,
    _series_free,
    _tests,
    _without,
    is_globally_rigid,
    is_minimally_globally_rigid,
    is_redundantly_globally_rigid,
    minimally_globally_rigid_edge_bound,
    sparsify_globally_rigid,
    stress_matrix,
    subset_rank_reduce,
)
from rigidkit.graph import (
    MixedCut,
    _FlowNet,
    _split_network,
    articulation_points,
    is_k_connected,
    local_connectivity,
)
from rigidkit.linked import (
    NO,
    REASON_CIRCUIT,
    REASON_EDGE,
    REASON_KAPPA,
    REASON_OPEN,
    UNKNOWN,
    YES,
    PairVerdict,
    _pair,
)
from rigidkit.rigidity import (
    TRIALS,
    _answer,
    _check_stress,
    _connects,
    _edge_row,
    _factor,
    _matroid,
    _rng,
    _rows_for,
    _sampled,
    _trials,
    generic_rank,
    is_matroid_connected,
    is_redundantly_rigid,
    is_rigid,
    rank_upper_bound,
    rigid_rank_target,
    sample_realization,
)


def rank_of_rows(rows, cols: int) -> int:
    """Rank of a raw row list over Z_p, without building a FieldMatrix."""
    return len(_echelon([list(r) for r in rows], cols))


def rational_rank(rows) -> int:
    """Rank over Q by Fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    cols = len(mat[0])
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / prow[c]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def rref(rows: list[list[int]], cols: int) -> tuple[int, list[int]]:
    """Gauss-Jordan reduced row echelon form over Z_p in place, clearing
    each pivot column above and below at once; returns (rank, pivot columns).
    The elimination the library used before forward elimination plus
    upward reduction replaced it."""
    nrows = len(rows)
    pivots = []
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, PRIME)
        prow = [(x * inv) % PRIME for x in prow]
        rows[rank] = prow
        for i in range(nrows):
            if i != rank:
                f = rows[i][c]
                if f:
                    rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], prow)]
        pivots.append(c)
        rank += 1
        if rank == nrows:
            break
    return rank, pivots


def kernel_by_rref(rows, cols: int) -> tuple[list[int], dict[int, tuple]]:
    """Pivots and kernel vectors read off ``rref``: one vector per free
    column f, with 1 at f, 0 at the other free columns and minus f's reduced
    column on the pivots."""
    rows = [list(r) for r in rows]
    _, pivots = rref(rows, cols)
    kernel = {}
    for free in range(cols):
        if free in pivots:
            continue
        v = [0] * cols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = (-rows[i][free]) % PRIME
        kernel[free] = tuple(v)
    return pivots, kernel


# ---------------------------------------------------------------------------
# The elimination kernel before it touched only the nonzeros: every row
# update rewrites the whole row, the columns left of the pivot and the zeros
# of the pivot row included.


def echelon_dense(rows: list[list[int]], cols: int) -> list[int]:
    """``field._echelon`` with a full row update per elimination step."""
    nrows = len(rows)
    pivots = []
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, PRIME)
        prow = [(x * inv) % PRIME for x in prow]
        rows[rank] = prow
        for i in range(rank + 1, nrows):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], prow)]
        pivots.append(c)
        rank += 1
        if rank == nrows:
            break
    return pivots


def kernel_dense(rows: list[list[int]], pivots: list[int], cols: int, free=None
                 ) -> dict[int, tuple]:
    """``field._kernel`` with a full row update per upward reduction step."""
    if free is None:
        pivot_set = set(pivots)
        free = [f for f in range(cols) if f not in pivot_set]
    if not free:
        return {}
    for i in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[i], rows[i]
        for k in range(i):
            f = rows[k][c]
            if f:
                rows[k] = [(a - f * b) % PRIME for a, b in zip(rows[k], prow)]
    kernel = {}
    for j in free:
        v = [0] * cols
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = -rows[i][j] % PRIME
        kernel[j] = tuple(v)
    return kernel


def local_connectivity_brute(g: Graph, u: int, v: int) -> int:
    """Menger by exhaustive separator search (remove uv first if present)."""
    if g.has_edge(u, v):
        return 1 + local_connectivity_brute(g.delete_edge(u, v), u, v)
    others = [w for w in range(g.n) if w not in (u, v)]

    def separated(removed) -> bool:
        keep = [w for w in range(g.n) if w not in removed]
        sub = g.induced(keep)
        pos = {w: i for i, w in enumerate(keep)}
        comp = None
        for c in sub.connected_components():
            if pos[u] in c:
                comp = c
        return pos[v] not in comp

    for t in range(len(others) + 1):
        for sep in combinations(others, t):
            if separated(set(sep)):
                return t
    return len(others)


def vertex_connectivity_brute(g: Graph) -> int:
    if g.is_complete():
        return g.n - 1
    return min(local_connectivity_brute(g, u, v)
               for u in range(g.n) for v in range(u + 1, g.n)
               if not g.has_edge(u, v))


def min_mixed_cut_brute(g: Graph) -> int:
    """Exhaustive minimum of 2|S| + |F| over all disconnecting pairs."""
    best = None
    for s_size in range(g.n - 1):
        for s in combinations(range(g.n), s_size):
            s = set(s)
            rest = [w for w in range(g.n) if w not in s]
            sub = g.induced(rest)
            base = 2 * len(s)
            if best is not None and base >= best:
                continue
            comps = sub.connected_components()
            if len(comps) >= 2:
                best = base if best is None else min(best, base)
                continue
            # cheapest bipartition of the remaining vertices
            k = len(rest)
            for mask in range(1, (1 << (k - 1))):
                side = {i for i in range(k) if mask >> i & 1}
                cross = sum(1 for a, b in sub.edges
                            if (a in side) != (b in side))
                cost = base + cross
                if best is None or cost < best:
                    best = cost
    return best


def edge_subsets_rank(g: Graph, d: int, seed: int):
    """Exact rank of every edge subset at a few random realizations.

    Returns a function subset(frozenset of edge indices) -> rank, taking the
    max over the realizations (the usual one-sided argument).
    """
    reals = [sample_realization(g, d, Rng(seed).child(t)) for t in range(TRIALS)]
    all_rows = [_rows_for(g, real, g.edges) for real in reals]
    cols = d * g.n
    cache: dict[frozenset, int] = {}

    def rank_of(indices: frozenset) -> int:
        if indices not in cache:
            cache[indices] = max(
                rank_of_rows([rows[i] for i in sorted(indices)], cols)
                for rows in all_rows)
        return cache[indices]

    return rank_of


def circuits_brute(g: Graph, d: int, seed: int = 12345) -> list[frozenset]:
    """Every circuit of the rigidity matroid, by definition: minimal
    dependent edge subsets. Usable for |E| up to about 12."""
    rank_of = edge_subsets_rank(g, d, seed)
    m = g.m
    circuits: list[frozenset] = []
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            s = frozenset(combo)
            if any(c <= s for c in circuits):
                continue
            if rank_of(s) < size:
                circuits.append(s)
    return circuits


def matroid_components_brute(g: Graph, d: int, seed: int = 12345):
    """Components from the circuit equivalence relation, by definition."""
    circuits = circuits_brute(g, d, seed)
    parent = list(range(g.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in circuits:
        c = sorted(c)
        for other in c[1:]:
            parent[find(other)] = find(c[0])
    groups: dict[int, list] = {}
    for i, e in enumerate(g.edges):
        groups.setdefault(find(i), []).append(e)
    return sorted((tuple(v) for v in groups.values()), key=lambda c: c[0])


# ---------------------------------------------------------------------------
# Reference implementations the library used before it read the whole
# matroid off one factorization per realization: a greedy basis by
# incremental elimination, fundamental circuits by rank probes, components
# from those circuits, and stresses from one nullspace per non-basis edge.
# Slow, but each step is a plain rank or kernel query.


def subset_rank(g: Graph, d: int, edges, rng: Rng) -> int:
    """Generic rank of an edge subset from its edge rows: max over trials,
    early exit at the bound."""
    edges = list(edges)
    if not edges:
        return 0
    upper = rank_upper_bound(g.n, len(edges), d)
    best = 0
    for t in range(TRIALS):
        real = sample_realization(g, d, rng.child(t))
        best = max(best, rank_of_rows(_rows_for(g, real, edges), d * g.n))
        if best >= upper:
            break
    return best


def is_linked_by_ranks(g: Graph, u: int, v: int, d: int, rng: Rng) -> bool:
    """Linked when adding uv leaves the rank unchanged, as two ranks drawn
    from independent trial sets."""
    if g.has_edge(u, v):
        return True
    return subset_rank(g, d, g.edges + ((u, v),), rng.child(1)) == \
        subset_rank(g, d, g.edges, rng.child(0))


def globally_linked_2d_per_pair(g: Graph, u: int, v: int, rng: Rng) -> PairVerdict:
    """``is_globally_linked_2d`` with G factored for this one pair: its
    components and 2-D linkedness on ``rng.child(0)``, its 3-D circuit on
    ``rng.child(2)`` and C - uv tested on ``rng.child(3)``."""
    pair = _pair(g, u, v)
    if g.has_edge(u, v):
        return PairVerdict(pair=pair, linked={2: True, 3: True},
                           globally_linked=YES, reason=REASON_EDGE)
    _, _, comps, circuits = _matroid(g, 2, _trials(g, 2, rng.child(0), [pair]), _connects, [pair])
    if len(comps) == 1:
        kappa = local_connectivity(g, u, v, limit=3)
        verdict = YES if kappa >= 3 else NO
        return PairVerdict(pair=pair, linked={2: pair in circuits},
                           globally_linked=verdict, reason=REASON_KAPPA)
    trials = _trials(g, 3, rng.child(2), [pair], edge_stresses=False)
    circuit = _matroid(g, 3, trials, None, [pair])[3].get(pair)
    if circuit is None:
        return PairVerdict(pair=pair, linked={3: False},
                           globally_linked=UNKNOWN, reason=REASON_OPEN)
    cminus, labels = g.edge_subgraph(e for e in circuit if e != pair)
    pos = {w: i for i, w in enumerate(labels)}
    if local_connectivity(cminus, pos[u], pos[v], limit=3) >= 3 and \
            is_matroid_connected(cminus, 2, rng.child(3)):
        return PairVerdict(pair=pair, linked={3: True},
                           globally_linked=YES, reason=REASON_CIRCUIT,
                           witness=circuit)
    return PairVerdict(pair=pair, linked={3: True},
                       globally_linked=UNKNOWN, reason=REASON_OPEN)


def rigid_basis_incremental(g: Graph, d: int, rng: Rng):
    """Greedy basis in canonical edge order: keep an edge when its row is
    not spanned by the rows kept so far. Max over trials."""
    if g.m == 0:
        return ()
    upper = rank_upper_bound(g.n, g.m, d)
    cols = d * g.n
    best = ()
    for t in range(TRIALS):
        real = sample_realization(g, d, rng.child(t))
        pivots = []
        chosen = []
        for e in g.edges:
            row = _edge_row(real, g.n, *e)
            for c, prow in pivots:
                f = row[c]
                if f:
                    row = [(a - f * b) % PRIME for a, b in zip(row, prow)]
            lead = next((c for c in range(cols) if row[c]), None)
            if lead is None:
                continue
            inv = pow(row[lead], -1, PRIME)
            pivots.append((lead, [(x * inv) % PRIME for x in row]))
            chosen.append(e)
        if len(chosen) > len(best):
            best = tuple(chosen)
        if len(best) >= upper:
            break
    return best


def bridges_by_rank_drop(g: Graph, d: int, rng: Rng):
    """Edges whose deletion drops the generic rank, by definition."""
    r = subset_rank(g, d, g.edges, rng.child(0))
    return tuple(e for i, e in enumerate(g.edges)
                 if subset_rank(g, d, [f for f in g.edges if f != e], rng.child(1 + i)) < r)


def fundamental_circuit_by_probes(g: Graph, d: int, basis, e, rng: Rng):
    """The circuit inside basis + e: a basis edge f belongs to it exactly
    when (basis - f) + e stays independent, one rank probe per f."""
    basis = tuple(basis)
    k = len(basis)
    if subset_rank(g, d, basis, rng.child(0)) != k:
        raise GraphError("the given edge set is not independent")
    if subset_rank(g, d, basis + (e,), rng.child(1)) != k:
        raise GraphError("edge is independent of the basis; not spanned, so no circuit")
    members = [e]
    for i, f in enumerate(basis):
        probe = [x for x in basis if x != f] + [e]
        if subset_rank(g, d, probe, rng.child(2 + i)) == k:
            members.append(f)
    return tuple(sorted(members))


def matroid_components_by_probes(g: Graph, d: int, rng: Rng):
    """Union-find over the probed fundamental circuits of the non-basis edges."""
    if g.m == 0:
        return ()
    basis = rigid_basis_incremental(g, d, rng.child(0))
    index = {e: i for i, e in enumerate(g.edges)}
    parent = list(range(g.m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    basis_set = set(basis)
    for j, e in enumerate(g.edges):
        if e in basis_set:
            continue
        circuit = fundamental_circuit_by_probes(g, d, basis, e, rng.child(1 + j))
        for f in circuit[1:]:
            parent[find(index[f])] = find(index[circuit[0]])
    groups: dict[int, list] = {}
    for e in g.edges:
        groups.setdefault(find(index[e]), []).append(e)
    return tuple(tuple(c) for c in sorted(groups.values(), key=lambda c: c[0]))


def stress_basis_per_edge(g: Graph, d: int, real, basis) -> list[Stress]:
    """One fundamental stress per non-basis edge, each from the cokernel of
    the rows basis + e, normalized to 1 on e."""
    basis = tuple(basis)
    basis_set = set(basis)
    out = []
    for e in g.edges:
        if e in basis_set:
            continue
        support_edges = basis + (e,)
        mat = FieldMatrix(len(support_edges), d * g.n, _rows_for(g, real, support_edges))
        cok = nullspace_basis(mat, side="row")
        if len(cok) != 1 or cok[0][-1] == 0:
            raise NonGenericRealizationError(f"no single stress on basis + {e}")
        scale = pow(cok[0][-1], -1, PRIME)
        local = {f: (x * scale) % PRIME for f, x in zip(support_edges, cok[0])}
        out.append(Stress(edges=g.edges, values=tuple(local.get(f, 0) for f in g.edges)))
    return out


# ---------------------------------------------------------------------------
# Rank and linked pairs as the library found them before they rode along the
# one trial source of the whole matroid: its own loop of eliminations that
# pivot on G's columns only and read the kernel of the pivots and the linked
# pair columns alone.


def sampled_matroid(g: Graph, d: int, rng: Rng, settled=_connects, pairs=()):
    """``rigidity._matroid`` on its sampled route in every dimension: the
    trials of G on ``rng``, with ``pairs`` riding along, read by
    ``_sampled``; all edge stresses unless ``settled`` is None. The oracle
    of the pebble game at d <= 2."""
    trials = _trials(g, d, rng, pairs, edge_stresses=settled is not None)
    return _answer(g, pairs, *_sampled(g, d, trials, settled, pairs))


def span_with_pair_columns(g: Graph, d: int, rng: Rng, pairs=()) -> tuple[int, dict]:
    """Rank of G and the vertex pairs of ``pairs`` (non-edges) linked in G,
    each with its circuit in G + pair, from one elimination per trial.

    A trial eliminates R(G + pairs, p)^T pivoting on G's columns only, the
    pair columns riding along; the pivots give the rank at p. A pair is
    linked at p when its column is zero below the pivots, and only then is
    its fundamental stress read (``field._kernel``) and checked exactly; its
    support is the circuit. Trials short of the best rank are dropped, and
    the first at the rank bound ends the loop. A pair is linked when every
    kept trial finds it so, its circuit the union of their supports. At a
    trial of generic rank "not linked" is exact; only "linked" can be wrong.

    Returns ``(rank, circuits)``, ``circuits`` mapping each linked pair to
    the sorted edges of its circuit, the pair included.
    """
    pairs = Graph(g.n, pairs).edges
    edges, m = g.edges + pairs, g.m
    upper = rank_upper_bound(g.n, m, d)
    trials = []
    for t in range(TRIALS):
        real = sample_realization(g, d, rng.child(t))
        rows = [list(col) for col in zip(*_rows_for(g, real, edges))]
        pivots = _echelon(rows, m)
        r = len(pivots)
        cols = pivots + [j for j in range(m, len(edges)) if not any(row[j] for row in rows[r:])]
        found = {}
        if len(cols) > r:
            sub = [[row[c] for c in cols] for row in rows[:r]]
            sub_edges = [edges[c] for c in cols]
            for f, w in _kernel(sub, list(range(r)), len(cols)).items():
                _check_stress(real, sub_edges, w)
                found[sub_edges[f]] = {e for e, x in zip(sub_edges, w) if x}
        trials.append((r, found))
        if r >= upper:
            break
    best = max(r for r, _ in trials)
    kept = [found for r, found in trials if r == best]
    return best, {p: tuple(sorted(set().union(*(found[p] for found in kept))))
                  for p in pairs if all(p in found for found in kept)}


# ---------------------------------------------------------------------------
# The randomized stress test at every d. ``_route`` takes it at d >= 3 only;
# at d <= 2 it stays the reference for the exact characterizations, reached
# through the route argument of ``_tests`` and ``_edge_deletions``.


def stress_route(g: Graph, d: int) -> str:
    """The route of the stress test at any d: "stress", or "complete-small"
    on at most d + 1 vertices, where every route is a completeness check."""
    return "complete-small" if g.n <= d + 1 else "stress"


def stress_certificate(g: Graph, d: int, rng: Rng | None = None) -> GlobalRigidityCertificate:
    """``is_globally_rigid`` on ``stress_route``: the certificate of the
    first proof of ``_tests`` on ``_trials(g, d, rng)``."""
    how = stress_route(g, d)
    rng = _rng(rng)
    try:
        note, _ = next(_tests(g, d, how, _trials(g, d, rng)))
    except StopIteration as failure:
        return GlobalRigidityCertificate(False, how, d, rng.seed, failure.value)
    return GlobalRigidityCertificate(True, how, d, rng.seed, note)


# ---------------------------------------------------------------------------
# Reference implementations the library used before it read every G - e off
# one stress space per realization: one full global rigidity test per
# deleted edge, each on its own realizations, by ``test``
# (``is_globally_rigid`` or ``stress_certificate``).


def minimally_globally_rigid_per_edge(g: Graph, d: int, rng: Rng,
                                      test=is_globally_rigid) -> bool:
    """Globally rigid, and no G - e is, one test per graph."""
    if not test(g, d, rng.child(0)):
        return False
    return not any(test(g.delete_edge(e), d, rng.child(1 + i)) for i, e in enumerate(g.edges))


def redundantly_globally_rigid_per_edge(g: Graph, d: int, rng: Rng,
                                        test=is_globally_rigid) -> bool:
    """Globally rigid, and so is every G - e, one test per graph."""
    if not test(g, d, rng.child(0)):
        return False
    return all(test(g.delete_edge(e), d, rng.child(1 + i)) for i, e in enumerate(g.edges))


def main_theorem_check(graphs, d: int, rng: Rng):
    """The paper's main theorem on ``graphs`` in dimension d. Each graph on
    at least d + 2 vertices that ``is_minimally_globally_rigid`` accepts
    (graph i on ``rng.child(i).child(0)``) must have at most (d+1)n -
    C(d+2, 2) edges, reach that bound only as K_{d+2}, and on n >= d + 3
    vertices not be rigid in dimension d + 1 (``is_rigid`` on
    ``rng.child(i).child(1)``). Returns the accepted graphs, those of them
    at the bound, and those that break a clause."""
    accepted, at_bound, broken = [], [], []
    for i, g in enumerate(graphs):
        sub = rng.child(i)
        if g.n < d + 2 or not is_minimally_globally_rigid(g, d, sub.child(0)):
            continue
        accepted.append(g)
        bound = minimally_globally_rigid_edge_bound(g.n, d)
        if g.m == bound:
            at_bound.append(g)
        small_complete = g.n == d + 2 and g.is_complete()
        if g.m > bound or (g.m == bound and not small_complete) or \
                (g.n >= d + 3 and is_rigid(g, d + 1, sub.child(1))):
            broken.append(g)
    return accepted, at_bound, broken


def exact_sparsifier_faults(graphs, d: int):
    """``sparsify_globally_rigid`` at d <= 2, where every predicate it is
    checked by is exact, on each of ``graphs`` with at least d + 2
    vertices. It must raise ``NotGloballyRigidError`` exactly when
    ``is_globally_rigid`` says no, and otherwise return a spanning subgraph
    of G that ``is_minimally_globally_rigid`` accepts, within the edge
    bound and at it only as K_{d+2}, with ``extra_edges`` among its edges.
    Returns the number of graphs sparsified and a (graph, fault) pair for
    each broken clause."""
    sparsified, faults = 0, []
    for g in graphs:
        if g.n < d + 2:
            continue
        rigid = bool(is_globally_rigid(g, d))
        try:
            result = sparsify_globally_rigid(g, d)
        except NotGloballyRigidError:
            if rigid:
                faults.append((g, "refused a globally rigid input"))
            continue
        sparsified += 1
        h, bound = result.graph, minimally_globally_rigid_edge_bound(g.n, d)
        clauses = {
            "sparsified an input that is not globally rigid": not rigid,
            "not a spanning subgraph": h.n != g.n or not h.edge_set <= g.edge_set,
            "not minimally globally rigid": not is_minimally_globally_rigid(h, d),
            "over the edge bound": h.m > bound,
            "at the edge bound but not K_{d+2}": h.m == bound and not (
                h.n == d + 2 and h.is_complete()),
            "extra edges outside the output": not set(result.extra_edges) <= h.edge_set,
        }
        faults += [(g, clause) for clause, broken in clauses.items() if broken]
    return sparsified, faults


def greedy_pass_per_edge(h: Graph, d: int, rng: Rng) -> Graph:
    """The sparsifier's minimization pass: walk h's edges in canonical order
    and drop each one whose deletion leaves the current graph globally
    rigid, one full test per candidate."""
    for i, e in enumerate(h.edges):
        candidate = h.delete_edge(e)
        if is_globally_rigid(candidate, d, rng.child(i)):
            h = candidate
    return h


# ---------------------------------------------------------------------------
# The stress test before it ranked only a principal block: the rank of the
# whole n x n stress matrix of the combination.


def certifies_full_rank(g: Graph, real, stresses, rng: Rng, gone=frozenset()) -> bool:
    """``global_rigidity._certifies`` by the rank of the full stress matrix:
    the same draw, the same exact check, then rank n - d - 1 asked of the
    n x n matrix."""
    coeffs = [rng.field_element() for _ in stresses]
    values = tuple(sum(c * w[i] for c, w in zip(coeffs, stresses)) % PRIME
                   for i in range(g.m))
    live = [i for i in range(g.m) if i not in gone]
    _check_stress(real, [g.edges[i] for i in live], [values[i] for i in live])
    return rank_of_rows(stress_matrix(g, Stress(edges=g.edges, values=values)).data,
                        g.n) == g.n - real.d - 1


# ---------------------------------------------------------------------------
# The stress test before one loop found the trials that prove G for every
# caller: the stress space of each trial of rigid rank, and the first trial
# whose random stress proves G, as ``_stress_test`` found it.


def _stress_spaces(g: Graph, d: int, rng: Rng):
    """The stress space W of G at each trial realization of rigid rank.

    Trial t samples p from ``rng.child(t).child(0)`` and factors
    R(G,p)^T once (``_factor``); trials short of the rigid rank are skipped.
    Yields ``(t, real, pivots, stresses, sub)``: the factorization's pivot
    columns, its map from each free column to that column's fundamental
    stress (together a basis of W), and ``sub = rng.child(t)`` for the
    trial's further draws.
    """
    for t in range(TRIALS):
        sub = rng.child(t)
        real = sample_realization(g, d, sub.child(0))
        pivots, stresses = _factor(g, real, g.edges)
        if len(pivots) == rigid_rank_target(g.n, d):
            yield t, real, pivots, stresses, sub


def first_proof_by_stress_spaces(g: Graph, d: int, rng: Rng):
    """The first trial of ``_stress_spaces`` whose one draw on
    ``sub.child(1)`` proves G globally rigid, or None when none does or a
    trial is stress-free first."""
    for t, real, pivots, stresses, sub in _stress_spaces(g, d, rng):
        if not stresses:
            return None
        if _certifies(g, real, stresses.values(), sub.child(1)):
            return t, real, pivots, stresses, sub
    return None


# ---------------------------------------------------------------------------
# The sparsifier before it ran off one stress space per trial: an opening
# global rigidity test, then attempts that each draw and factor their own
# realization, and a greedy pass that draws and factors the kept graph again.


def greedy_pass_own_realization(h: Graph, d: int, rng: Rng) -> Graph:
    """Drop h's edges in canonical order while global rigidity persists, at
    the first realization of its own that proves h globally rigid; at d = 1
    by 2-connectivity."""
    if d == 1:
        if not is_k_connected(h, 2):
            raise NonGenericRealizationError("reduced subgraph is not 2-connected")
        for e in h.edges:
            candidate = h.delete_edge(e)
            if is_k_connected(candidate, 2):
                h = candidate
        return h
    proof = first_proof_by_stress_spaces(h, d, rng)
    if proof is None:
        raise NonGenericRealizationError("no trial proved the reduced subgraph globally rigid")
    _, real, _, stresses, sub = proof
    stresses = list(stresses.values())
    gone = set()
    for j in range(h.m):
        rest = _without(stresses, j)
        if rest and _certifies(h, real, rest, sub.child(2 + j), gone | {j}):
            stresses = rest
            gone.add(j)
    return Graph(h.n, tuple(e for j, e in enumerate(h.edges) if j not in gone))


def sparsify_three_realizations(g: Graph, d: int, rng: Rng,
                                max_attempts: int = 3) -> SparsifyResult:
    """Test G, then per attempt factor G at a fresh realization, reduce its
    fundamental stress matrices and run ``greedy_pass_own_realization`` on
    the kept graph; a degenerate realization or reducer draw retries."""
    if g.n < d + 2:
        raise GraphError("sparsifier needs at least d + 2 vertices")
    if not is_globally_rigid(g, d, rng.child(0)):
        raise NotGloballyRigidError(f"input is not globally rigid in dimension {d}")
    retries = 0
    for attempt in range(max_attempts):
        sub = rng.child(1 + attempt)
        try:
            real = sample_realization(g, d, sub.child(1))
            pivots, stresses = _factor(g, real, g.edges)
            if len(pivots) < rigid_rank_target(g.n, d):
                raise NonGenericRealizationError("realization falls short of the rigid rank")
            basis = tuple(g.edges[j] for j in pivots)
            extras = [g.edges[f] for f in stresses]
            mats = [stress_matrix(g, Stress(edges=g.edges, values=w)) for w in stresses.values()]
            idx, _ = subset_rank_reduce(mats, g.n - d - 1, sub.child(2))
            chosen = tuple(extras[i] for i in idx)
            h = Graph(g.n, basis + chosen)
            pruned = greedy_pass_own_realization(h, d, sub.child(3))
        except (NonGenericRealizationError, RankNotAchievableError):
            retries += 1
            continue
        log = {
            "basis_size": len(basis),
            "generators_before": len(mats),
            "generators_after": len(idx),
            "minimization_removed": h.m - pruned.m,
            "edge_bound": minimally_globally_rigid_edge_bound(g.n, d),
            "retries": retries,
        }
        return SparsifyResult(extra_edges=chosen, graph=pruned, log=log, seed=rng.seed)
    raise RuntimeError(f"sparsification failed after {max_attempts} randomized attempts")


# ---------------------------------------------------------------------------
# The flow kernel before depth-first augmenting paths: each augmenting path a
# shortest one, from a breadth-first search of the whole residual network.

def max_flow_by_bfs(net: _FlowNet, s: int, t: int, limit: int | None = None) -> int:
    """``net.max_flow(s, t, limit)`` by breadth-first augmenting paths; it
    leaves the residual capacities in ``net.residual`` as the kernel does."""
    cap = net.residual = list(net.cap)
    flow = 0
    while limit is None or flow < limit:
        parent_arc = [-1] * net.nodes
        parent_arc[s] = -2
        queue = deque([s])
        while queue and parent_arc[t] == -1:
            u = queue.popleft()
            for a in net.head[u]:
                w = net.to[a]
                if parent_arc[w] == -1 and cap[a] > 0:
                    parent_arc[w] = a
                    queue.append(w)
        if parent_arc[t] == -1:
            break
        bottleneck = None
        w = t
        while w != s:
            a = parent_arc[w]
            bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
            w = net.to[a ^ 1]
        w = t
        while w != s:
            a = parent_arc[w]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            w = net.to[a ^ 1]
        flow += bottleneck
    return flow


# ---------------------------------------------------------------------------
# The cut layer before it examined only the pairs that can certify the answer:
# one capped flow per vertex pair (per nonadjacent pair for connectivity) on
# the query's one vertex-split network.

def vertex_connectivity_all_pairs(g: Graph) -> int:
    """Standard vertex connectivity; complete graphs give n - 1."""
    if g.n < 2:
        raise GraphError("vertex connectivity needs n >= 2")
    if g.is_complete():
        return g.n - 1
    net = _split_network(g, vertex_cap=1)
    best = g.n - 2
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            k = net.max_flow(2 * u + 1, 2 * v, limit=best + 1)
            if k < best:
                best = k
                if best == 0:
                    return 0
    return best


def is_k_connected_all_pairs(g: Graph, k: int) -> bool:
    """Vertex connectivity at least k; cheap paths for k <= 2, capped flows
    above."""
    if k < 1:
        return True
    if g.n < k + 1:
        return False
    if not g.is_connected():
        return False
    if k == 1:
        return True
    if k == 2:
        return not articulation_points(g)
    if g.min_degree() < k:
        return False
    net = _split_network(g, vertex_cap=1)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if net.max_flow(2 * u + 1, 2 * v, limit=k) < k:
                return False
    return True


# ---------------------------------------------------------------------------
# The graph layer before one depth-first search (``graph._dfs``) answered both
# the cut-vertex and the cycle question: a DFS loop of its own for each.

def articulation_points_by_own_dfs(g: Graph) -> set[int]:
    """Cut vertices, by the usual lowpoint DFS."""
    visited = [False] * g.n
    depth = [0] * g.n
    low = [0] * g.n
    cut = set()

    for root in range(g.n):
        if visited[root]:
            continue
        # iterative DFS so deep graphs cannot overflow the stack
        stack = [(root, -1, iter(g.adjacency[root]))]
        visited[root] = True
        root_children = 0
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    depth[w] = depth[u] + 1
                    low[w] = depth[w]
                    if u == root:
                        root_children += 1
                    stack.append((w, u, iter(g.adjacency[w])))
                    advanced = True
                    break
                elif w != parent:
                    low[u] = min(low[u], depth[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if p != root and low[u] >= depth[p]:
                        cut.add(p)
        if root_children >= 2:
            cut.add(root)
    return cut


def find_cycle_by_own_dfs(g: Graph) -> list[int] | None:
    """Vertices of some cycle, in order, or None on forests."""
    color = [0] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root]:
            continue
        stack = [(root, -1)]
        while stack:
            u, p = stack.pop()
            if color[u]:
                continue
            color[u] = 1
            parent[u] = p
            for w in g.adjacency[u]:
                if w == p:
                    continue
                if color[w]:
                    # back edge u-w closes a cycle through the tree path
                    cyc = [u]
                    x = u
                    while x != w and parent[x] != -1:
                        x = parent[x]
                        cyc.append(x)
                    if cyc[-1] == w:
                        return cyc
                else:
                    stack.append((w, u))
    return None


def min_mixed_cut_all_pairs(g: Graph) -> MixedCut:
    """A minimum-cost mixed cut of g.

    Computed as the minimum over vertex pairs s, t of the s-t cut in one
    vertex-split network (internal vertices cost 2, edges cost 1), decoded
    back into (S, F). The graph is mixed k-connected iff the returned cost
    is >= k. On complete graphs this isolates a cheapest vertex.
    """
    if g.n < 2:
        raise GraphError("mixed cut needs n >= 2")
    net = _split_network(g, vertex_cap=2)
    best: tuple[int, set, set] | None = None
    for s in range(g.n):
        for t in range(s + 1, g.n):
            limit = None if best is None else best[0]
            f = net.max_flow(2 * s + 1, 2 * t, limit=limit)
            if limit is not None and f >= limit:
                continue
            reach = net.reachable(2 * s + 1)
            cut_s = {w for w in range(g.n)
                     if 2 * w in reach and 2 * w + 1 not in reach}
            cut_f = set()
            for a, b in g.edges:
                if (2 * a + 1 in reach and 2 * b not in reach) or \
                   (2 * b + 1 in reach and 2 * a not in reach):
                    if a not in cut_s and b not in cut_s:
                        cut_f.add((a, b))
            if 2 * len(cut_s) + len(cut_f) != f:
                raise AssertionError("internal error: decoded cut cost differs from the flow")
            best = (f, cut_s, cut_f)
            if f == 0:
                break
        if best is not None and best[0] == 0:
            break
    if best is None:
        raise AssertionError("internal error: no vertex pair was separated")
    cost, cut_s, cut_f = best
    cut = MixedCut(tuple(sorted(cut_s)), tuple(sorted(cut_f)), cost)
    if not cut.disconnects(g):
        raise AssertionError("internal error: decoded cut does not disconnect")
    return cut


# ---------------------------------------------------------------------------
# The canonical-form search before automorphism pruning: it visits every
# optimal ordering and rebuilds each candidate's chunk from the adjacency
# bit masks at every node.


def graph_to_adj_masks(g: Graph) -> tuple[int, ...]:
    """Vertex v's neighbours as the bits of one int."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def refine_colors_by_masks(n: int, adj: tuple[int, ...]) -> list[int]:
    """Stable 1-dimensional color refinement; colors are dense ranks."""
    colors = [bin(a).count("1") for a in adj]
    for _ in range(n):
        sigs = []
        for v in range(n):
            neigh = sorted(colors[u] for u in range(n) if adj[v] >> u & 1)
            sigs.append((colors[v], tuple(neigh)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def search_every_optimal_ordering(n: int, adj: tuple[int, ...], colors: list[int]
                                  ) -> tuple[list[int], set[int]]:
    """The canonical-form search: the lexicographically least chunk sequence
    over all color-respecting orderings, and the set of vertices that its
    optimal orderings place last.

    Chunk j holds vertex j's adjacency bits to the vertices placed before it.
    The search visits every optimal ordering: it prunes only prefixes that
    already exceed the best one. Two optimal orderings give the same graph,
    so they differ by an automorphism, and the last vertices are one orbit.
    """
    slot_colors = sorted(colors)
    best: list[int] | None = None
    lasts: set[int] = set()
    placed: list[int] = []
    chunks: list[int] = []
    used = [False] * n

    def dfs(pos: int) -> None:
        nonlocal best, lasts
        if pos == n:
            if best is None or chunks < best:
                best = list(chunks)
                lasts = {placed[-1]}
            elif chunks == best:
                lasts.add(placed[-1])
            return
        grouped: dict[int, list[int]] = {}
        for v in range(n):
            if used[v] or colors[v] != slot_colors[pos]:
                continue
            chunk = 0
            for i, w in enumerate(placed):
                if adj[v] >> w & 1:
                    chunk |= 1 << i
            grouped.setdefault(chunk, []).append(v)
        for chunk in sorted(grouped):
            chunks.append(chunk)
            if best is not None and chunks > best[:pos + 1]:
                chunks.pop()
                break  # ascending chunks: everything later is worse
            for v in grouped[chunk]:
                used[v] = True
                placed.append(v)
                dfs(pos + 1)
                placed.pop()
                used[v] = False
            chunks.pop()

    dfs(0)
    if best is None:
        raise AssertionError("internal error: the search found no vertex order")
    return best, lasts


# ---------------------------------------------------------------------------
# The isomorphism-class generator the corpus layer used before canonical
# deletion: canonicalise every one-vertex extension of every parent class
# and deduplicate afterwards.


def nonisomorphic_graphs_by_seen_dict(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, canonically labeled and
    ordered by edge count and then edge list: one ``canonical_chunks`` call
    per child of every (n-1)-vertex class, deduplicated in one dict."""
    if n == 1:
        return (Graph(1),)
    seen = {}
    for parent in nonisomorphic_graphs_by_seen_dict(n - 1):
        base = parent.edges
        for mask in range(1 << (n - 1)):
            extra = tuple((i, n - 1) for i in range(n - 1) if mask >> i & 1)
            chunks = canonical_chunks(Graph(n, base + extra))
            if chunks not in seen:
                seen[chunks] = _chunks_to_graph(n, chunks)
    return tuple(sorted(seen.values(), key=lambda g: (g.m, g.edges)))


def nonisomorphic_graphs_by_merging_every_mask(n: int) -> tuple[Graph, ...]:
    """``corpus.nonisomorphic_graphs`` before it took each parent's masks
    up to the parent's automorphisms: canonical deletion over every mask
    that passes the degree and color tests, the children that one parent
    reaches from several masks merged by their canonical form."""
    if n == 1:
        return (Graph(1),)
    x = n - 1
    parent_of: dict[tuple[int, ...], int] = {}
    for pi, parent in enumerate(nonisomorphic_graphs_by_merging_every_mask(x)):
        pnbrs = parent.adjacency
        top = max(len(ns) for ns in pnbrs)
        topmask = sum(1 << v for v, ns in enumerate(pnbrs) if len(ns) == top)
        for mask in range(1 << x):
            deg = bin(mask).count("1")
            if deg < top or (deg == top and mask & topmask):
                continue
            nbrs = [(*ns, x) if mask >> v & 1 else ns for v, ns in enumerate(pnbrs)]
            nbrs.append(tuple(v for v in range(x) if mask >> v & 1))
            colors = _refine_colors(nbrs)
            if colors[x] != max(colors):
                continue
            chunks, lasts, _ = _search(nbrs, colors)
            if x in lasts and parent_of.setdefault(tuple(chunks), pi) != pi:
                raise AssertionError("internal error: a class came from two parents")
    return tuple(sorted((_chunks_to_graph(n, c) for c in parent_of),
                        key=lambda g: (g.m, g.edges)))


# ---------------------------------------------------------------------------
# The pebble game as the library played it before it read linked pairs off
# tight sets: every pair gathered on its own, and each linked pair given its
# circuit, which fundamental_circuit read at d <= 2.


def pebble_with_pair_circuits(g: Graph, d: int, pairs, edge_circuits: bool, order):
    """``rigidity._pebble`` with a gathering for every edge and pair and
    with pair supports: when the gathering on a pair fails, the pair and
    the basis edges inside the vertices reached form its circuit."""
    k, l = d, d * (d + 1) // 2
    pebbles = [k] * g.n
    out = [{} for _ in range(g.n)]

    def fetch(x, u, v) -> bool:
        parent = {x: x}
        stack = [x]
        while stack:
            y = stack.pop()
            for z in out[y]:
                if z in parent:
                    continue
                parent[z] = y
                if pebbles[z] and z != u and z != v:
                    pebbles[z] -= 1
                    pebbles[x] += 1
                    while z != x:
                        y = parent[z]
                        out[z][y] = out[y].pop(z)
                        z = y
                    return True
                stack.append(z)
        return False

    def gather(u, v):
        while pebbles[u] + pebbles[v] <= l:
            if not (pebbles[u] < k and fetch(u, u, v) or pebbles[v] < k and fetch(v, u, v)):
                seen, stack = {u, v}, [u, v]
                while stack:
                    for z in out[stack.pop()].keys() - seen:
                        seen.add(z)
                        stack.append(z)
                return seen
        return None

    def support(f, seen):
        return sorted([f, *(j for x in seen for y, j in out[x].items() if y in seen)])

    pivots, own = [], []
    for j in order:
        u, v = g.edges[j]
        seen = gather(u, v)
        if seen is None:
            pebbles[u] -= 1
            out[u][v] = j
            pivots.append(j)
        elif edge_circuits:
            own.append(support(j, seen))
    linked = {}
    for f, (u, v) in enumerate(pairs, g.m):
        seen = gather(u, v)
        if seen is not None:
            linked[f] = support(f, seen)
    return pivots, own if edge_circuits else None, linked


def matroid_with_pair_circuits(g: Graph, d: int, settled, pairs=()):
    """``rigidity._matroid`` at d <= 2 on ``pebble_with_pair_circuits``:
    each linked pair maps to the sorted edges of its circuit."""
    if g.m == 0:
        return ((), None, None, {}) if settled is None else ((), (), (), {})
    return _answer(g, pairs, *pebble_with_pair_circuits(g, d, pairs, settled is not None,
                                                        range(g.m)))


def fundamental_circuit_by_pair_circuit(g: Graph, d: int, basis, e):
    """``fundamental_circuit`` at d <= 2 as the circuit of the pair e in
    the graph of the basis (``matroid_with_pair_circuits``)."""
    e = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    found, _, _, circuits = matroid_with_pair_circuits(Graph(g.n, basis), d, None, [e])
    if len(found) < len(tuple(basis)):
        raise GraphError("the given edge set is not independent")
    if e not in circuits:
        raise GraphError("edge is independent of the basis; not spanned, so no circuit")
    return circuits[e]


def linked_pair_mismatches(graphs, d: int, rng: Rng) -> list[Graph]:
    """The graphs on which the pebble game and the sampled route differ,
    graph i on ``rng.child(i)``: in the basis, or in which non-edges are
    linked in dimension d <= 2 (``rigidity._matroid`` against
    ``sampled_matroid``, both with ``settled=None``)."""
    mismatches = []
    for i, g in enumerate(graphs):
        pairs = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        basis, _, _, linked = _matroid(g, d, _trials(g, d, rng.child(i)), None, pairs)
        expect, _, _, circuits = sampled_matroid(g, d, rng.child(i), None, pairs)
        if (basis, set(linked)) != (expect, set(circuits)):
            mismatches.append(g)
    return mismatches


# ---------------------------------------------------------------------------
# The planar test of G and the edge-deletion families before one loop served
# every route: G's planar verdict from redundant rigidity on a trial source
# of its own, and one deletion loop per route; and the combinatorial-2d
# route on trials, before pebble games found its 2-element cocircuits.


def globally_rigid_2d_by_redundant_rigidity(g: Graph, rng: Rng) -> bool:
    """``is_globally_rigid(g, 2, rng)`` on the combinatorial-2d route, as
    3-connectivity plus ``is_redundantly_rigid`` on ``rng.child(0)``."""
    return is_k_connected(g, 3) and is_redundantly_rigid(g, 2, rng.child(0))


def _planar_proof(stresses) -> list[tuple[int, ...]] | None:
    """The direction of each column j of the stress basis W (the values of
    ``stresses`` on edge j), scaled to lead with 1, so that two columns are
    parallel exactly when their directions are equal; None at the first
    zero column.

    W (one row per fundamental stress) spans the stresses of G at p, and
    its columns represent the dual of the rigidity matroid at p. A trial at
    the rigid rank 2n - 3 whose W has no zero column proves G redundantly
    rigid: an edge on no stress is one whose deletion drops the rank. With
    3-connectivity that proves G globally rigid.
    """
    directions = []
    for column in zip(*stresses):
        lead = next((x for x in column if x), 0)
        if not lead:
            return None
        inv = pow(lead, -1, PRIME)
        directions.append(tuple(x * inv % PRIME for x in column))
    return directions


def _cocircuit_deletions(g: Graph, minimal: bool, trials) -> tuple[bool, bool]:
    """The combinatorial-2d route on trials, before the pebble game found
    the 2-element cocircuits exactly: G and both deletion families read
    off the column directions of each trial's stress basis
    (``_planar_proof``). For G redundantly rigid, G - e - f drops the rank
    exactly when columns e and f are parallel, so a column parallel to no
    other is exact, and a parallel one, which may be an accident of p,
    leaves its edge open for the next trial."""
    if not is_k_connected(g, 3):
        return False, False
    four_connected = cache(lambda: is_k_connected(g, 4))

    @cache
    def three_connected(j: int) -> bool:
        return four_connected() or is_k_connected(g.delete_edge(g.edges[j]), 3)

    proved = False
    open_edges = [j for j, (u, v) in enumerate(g.edges)
                  if not minimal or min(g.degree(u), g.degree(v)) > 3]
    for _, _, pivots, stresses, _ in trials:
        if len(pivots) != rigid_rank_target(g.n, 2):
            continue
        if not stresses:
            break
        directions = _planar_proof(stresses.values())
        if directions is None:
            continue
        proved = True
        seen = Counter(directions)
        still_open = []
        for j in open_edges:
            parallel = seen[directions[j]] > 1
            if minimal and not parallel and three_connected(j):
                return True, False
            if not minimal and not three_connected(j):
                return True, False
            if parallel:
                still_open.append(j)
        open_edges = still_open
        if not open_edges:
            break
    return proved, proved and (minimal or not open_edges)


def edge_deletions_by_route(g: Graph, d: int, rng: Rng, how: str, minimal: bool,
                            trials) -> tuple[bool, bool]:
    """``global_rigidity._edge_deletions`` on route ``how`` with a loop per
    route: the stress loop, the cocircuit loop, and per-graph tests
    (``is_globally_rigid``, whose route G - e shares) on the other
    routes."""
    if how == "combinatorial-2d":
        return _cocircuit_deletions(g, minimal, trials)
    if how != "stress":
        if not is_globally_rigid(g, d, rng.child(0)):
            return False, False
        verdicts = (is_globally_rigid(g.delete_edge(e), d, rng.child(1 + i))
                    for i, e in enumerate(g.edges))
        return True, (not any(verdicts) if minimal else all(verdicts))
    proved = False
    open_edges = list(range(g.m))
    for _, real, _, stresses, sub in _proofs(g, d, trials):
        proved = True
        stresses = stresses.values()
        still_open = []
        for j in open_edges:
            rest = _without(stresses, j)
            if rest is None:
                still_open.append(j)
            elif not rest:
                if not minimal:
                    return True, False
            elif _certifies(g, real, rest, sub.child(2 + j), {j}):
                if minimal:
                    return True, False
            else:
                still_open.append(j)
        open_edges = still_open
        if not open_edges:
            break
    return proved, proved and (minimal or not open_edges)


def series_free_by_parallel_columns(g: Graph, rng: Rng) -> set[int] | None:
    """``global_rigidity._series_free`` on the trial route: the edges whose
    column of the stress basis is parallel to no other, at the first trial
    of ``_trials(g, 2, rng)`` that proves G redundantly rigid; None when no
    trial does."""
    for _, _, pivots, stresses, _ in _trials(g, 2, rng):
        directions = len(pivots) == rigid_rank_target(g.n, 2) and _planar_proof(stresses.values())
        if directions:
            seen = Counter(directions)
            return {j for j, x in enumerate(directions) if seen[x] == 1}
    return None


def planar_route_mismatches(graphs, rng: Rng) -> list[Graph]:
    """The graphs on which the exact planar route and the trial route
    differ, graph i on ``rng.child(i)``: in the three verdicts at d = 2
    (global, minimal and redundant global rigidity, against
    ``edge_deletions_by_route``), or in the edges in no 2-element cocircuit
    (``_series_free`` against ``series_free_by_parallel_columns``)."""
    mismatches = []
    for i, g in enumerate(graphs):
        sub = rng.child(i)
        how = _route(g, 2)
        got = (bool(is_globally_rigid(g, 2, sub)),
               is_minimally_globally_rigid(g, 2, sub),
               is_redundantly_globally_rigid(g, 2, sub))
        proved, minimal = edge_deletions_by_route(g, 2, sub, how, True, _trials(g, 2, sub))
        _, redundant = edge_deletions_by_route(g, 2, sub, how, False, _trials(g, 2, sub))
        if got != (proved, minimal, redundant) or \
                _series_free(g) != series_free_by_parallel_columns(g, sub):
            mismatches.append(g)
    return mismatches


def series_pairs_by_rank_drop(g: Graph) -> set[frozenset]:
    """The 2-element cocircuits of a redundantly rigid G in dimension 2 by
    definition: the edge pairs whose deletion drops the rank below 2n - 3,
    one rank per pair."""
    return {frozenset((e, f)) for e, f in combinations(g.edges, 2)
            if generic_rank(g.delete_edge(e).delete_edge(f), 2) < rigid_rank_target(g.n, 2)}


# ---------------------------------------------------------------------------
# The explorer's G - e sweeps before one generator served them: a loop over
# the edges per conjecture, one matroid-connectivity test per G - e.


def explore_edge_loops(kind: str, dim: int, spec, rng: Rng) -> dict:
    """The counts and candidates of ``explore_conjecture`` for "redundant-mc"
    and "bridge", G - e_i tested on ``sub.child(1).child(i)`` and on
    ``sub.child(2).child(i)``, the streams the sweep hands each edge."""
    from rigidkit.linked import _corpus_graphs
    from rigidkit.rigidity import bridges

    counts = {"graphs": 0, "cases": 0, "confirmed": 0, "unknown": 0}
    candidates = []
    for gi, g in enumerate(_corpus_graphs(spec, rng.child(0))):
        counts["graphs"] += 1
        sub = rng.child(1 + gi)
        payload = {"n": g.n, "edges": [list(e) for e in g.edges]}
        if kind == "redundant-mc":
            if g.m < 2 or not is_matroid_connected(g, dim + 1, sub.child(0)):
                continue
            counts["cases"] += 1
            failing = [list(e) for i, e in enumerate(g.edges)
                       if not is_matroid_connected(g.delete_edge(e), dim, sub.child(1).child(i))]
            if failing:
                candidates.append({"graph": payload, "failing_edges": failing})
            else:
                counts["confirmed"] += 1
        else:
            if not is_matroid_connected(g, dim, sub.child(0)):
                continue
            upper_bridges = set(bridges(g, dim + 1, sub.child(1)))
            for ei, e in enumerate(g.edges):
                if is_matroid_connected(g.delete_edge(e), dim, sub.child(2).child(ei)):
                    continue
                counts["cases"] += 1
                if e in upper_bridges:
                    counts["confirmed"] += 1
                else:
                    candidates.append({"graph": payload, "edge": list(e)})
    counts["counterexample_candidates"] = len(candidates)
    return {"counts": counts, "candidates": candidates}


# ---------------------------------------------------------------------------
# The stress matrix by its definition, entry by entry.


def stress_matrix_by_definition(g: Graph, values) -> list[list[int]]:
    """Omega[u][v] = -w(uv) for each edge uv, 0 for other u != v, and
    Omega[v][v] the sum of w over the edges at v, all mod p."""
    w = dict(zip(g.edges, values))
    mat = [[0] * g.n for _ in range(g.n)]
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                mat[u][v] = -w.get((min(u, v), max(u, v)), 0) % PRIME
        mat[u][u] = sum(x for e, x in w.items() if u in e) % PRIME
    return mat
