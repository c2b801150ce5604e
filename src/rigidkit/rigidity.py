"""The generic rigidity matroid of a graph: exact at d <= 2, one-sided at d >= 3.

``_matroid`` answers every matroid query and takes its route by d alone. At
d <= 2 the matroid is the graphic matroid and the (2, 3)-sparsity matroid
(Laman), and the pebble game (``_pebble``) answers exactly, drawing and
factoring nothing; it reads linked pairs off the tight sets it finds. At
d >= 3 the answers are sampled, as follows.

"Generic" coordinates are replaced by uniform random field elements. Every
randomized quantity here has one-sided error: a random realization can only
under-shoot a generic rank, never overshoot it, so rank-style results take
the maximum over a fixed number of independent trials and any trial that
reaches the known upper bound settles the answer. With p = 2**61 - 1 the
per-trial failure probability is bounded by (total degree)/p, which is
negligible at the scales this package targets.

R(G,p)^T is eliminated by forward elimination (``field._echelon``), and
``_trials`` is the one loop that draws p and factors it (``_factor``).
Its free columns give each non-basis edge's fundamental stress and circuit,
and pair columns riding along give each linked pair's circuit; ``_sampled``
reads rank, basis, bridges, components and linked pairs off those trials.
Queries that read only the rank, the basis or linked pairs skip the edge
stresses.
At a realization of generic rank each support lies inside the matching
generic circuit, so supports can only come out too small: a bridge may be
reported wrongly, a component split or a circuit member missed, never the
reverse; and a pair may be reported linked wrongly, never unlinked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .field import PRIME, FieldMatrix, Rng, _echelon, _kernel
from .graph import Graph, GraphError

TRIALS = 3
DEFAULT_SEED = 1729


def _rng(rng: Rng | None) -> Rng:
    return rng if rng is not None else Rng(DEFAULT_SEED)


def _check_dimension(d: int) -> None:
    """The one dimension rule of the package: d >= 1."""
    if d < 1:
        raise GraphError("dimension must be >= 1")


class NonGenericRealizationError(RuntimeError):
    """The supplied realization behaved degenerately; resample and retry."""


@dataclass(frozen=True)
class Realization:
    """A point configuration p : V -> Z_p^d standing in for a generic one."""

    d: int
    coords: tuple[tuple[int, ...], ...]
    seed: int

    def __post_init__(self):
        _check_dimension(self.d)
        for c in self.coords:
            if len(c) != self.d:
                raise GraphError("every vertex needs exactly d coordinates")

    @cached_property
    def frame(self) -> tuple[int, ...]:
        """The first d + 1 vertices, in vertex order, whose points are
        affinely independent: the pivot columns of one forward elimination
        of the (d + 1) x n matrix whose column v is (p(v), 1). Computed once
        per realization.

        Raises:
            NonGenericRealizationError: when the points lie on a hyperplane,
            so that no d + 1 of them are affinely independent. A realization
            at the rigid rank of a graph on n >= d + 1 vertices always has
            a frame.
        """
        rows = [[c[k] % PRIME for c in self.coords] for k in range(self.d)]
        rows.append([1] * len(self.coords))
        pivots = _echelon(rows, len(self.coords))
        if len(pivots) <= self.d:
            raise NonGenericRealizationError("the points lie on a hyperplane: no affine frame")
        return tuple(pivots)


def sample_realization(g: Graph, d: int, rng: Rng | None = None) -> Realization:
    rng = _rng(rng)
    seed = rng.seed
    coords = tuple(tuple(rng.field_element() for _ in range(d)) for _ in range(g.n))
    return Realization(d=d, coords=coords, seed=seed)


def _edge_row(real: Realization, n: int, u: int, v: int) -> list[int]:
    d = real.d
    row = [0] * (d * n)
    pu, pv = real.coords[u], real.coords[v]
    for k in range(d):
        diff = (pu[k] - pv[k]) % PRIME
        row[d * u + k] = diff
        row[d * v + k] = (-diff) % PRIME
    return row


def _rows_for(g: Graph, real: Realization, edges) -> list[list[int]]:
    return [_edge_row(real, g.n, u, v) for u, v in edges]


def rigidity_matrix(g: Graph, real: Realization) -> FieldMatrix:
    """The |E| x d|V| matrix whose row for uv carries p(u)-p(v) in u's
    column block and the negation in v's block. Rows follow canonical edge
    order, columns are vertex-major."""
    if len(real.coords) != g.n:
        raise GraphError("realization does not match the vertex count")
    return FieldMatrix(g.m, real.d * g.n, _rows_for(g, real, g.edges))


def rank_upper_bound(n: int, m: int, d: int) -> int:
    """Tight a priori bound on the generic rank of an n-vertex, m-edge graph."""
    if n <= d + 1:
        return min(m, n * (n - 1) // 2)
    return min(m, d * n - (d + 1) * d // 2)


def rigid_rank_target(n: int, d: int) -> int:
    return d * n - (d + 1) * d // 2


def generic_rank(g: Graph, d: int, rng: Rng | None = None) -> int:
    """r_d(G), the rank of the d-dimensional rigidity matroid: the size of
    the basis of ``_matroid``, read without the edge circuits."""
    return len(_matroid(g, d, _trials(g, d, _rng(rng), edge_stresses=False), None)[0])


def _rigid_at_rank(n: int, d: int, r: int) -> bool:
    """Whether an n-vertex graph of generic rank r is rigid in dimension d:
    r must be the rank of K_n. For n <= d vertices that is C(n, 2), so rigid
    iff complete; from n = d + 1 on it is d*n - d(d+1)/2."""
    return r == rank_upper_bound(n, n * (n - 1) // 2, d)


def is_rigid(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """Generic rigidity in dimension d, by ``_rigid_at_rank`` on the generic rank."""
    return _rigid_at_rank(g.n, d, generic_rank(g, d, rng))


def is_redundantly_rigid(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """Rigid, and still rigid after deleting any single edge: rank and
    bridges from one ``_matroid`` call, that of ``bridges``."""
    basis, brs, _, _ = _matroid(g, d, _trials(g, d, _rng(rng)), _covers)
    return _rigid_at_rank(g.n, d, len(basis)) and not brs


def is_vertex_redundantly_rigid(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """Rigid after deleting any single vertex."""
    if g.n < 2:
        raise GraphError("needs at least two vertices")
    rng = _rng(rng)
    return all(is_rigid(g.delete_vertex(v), d, rng.child(v)) for v in range(g.n))


def is_independent(g: Graph, d: int, rng: Rng | None = None) -> bool:
    return generic_rank(g, d, rng) == g.m


def is_circuit(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """A minimal dependent edge set: rank |E| - 1 and no rank-dropping edge,
    both from one ``_matroid`` call, that of ``bridges``."""
    basis, brs, _, _ = _matroid(g, d, _trials(g, d, _rng(rng)), _covers)
    return g.m > 0 and len(basis) == g.m - 1 and not brs


def _check_stress(real: Realization, edges, values) -> None:
    """Exact check that sum_j values[j] * row(edges[j]) = 0 in Z_p^(dn).

    This is the kernel vector checked against the unreduced matrix, taken
    one sparse edge row at a time.
    """
    d = real.d
    acc = [0] * (d * len(real.coords))
    for (u, v), w in zip(edges, values):
        if w:
            pu, pv = real.coords[u], real.coords[v]
            for k in range(d):
                x = w * (pu[k] - pv[k])
                acc[d * u + k] += x
                acc[d * v + k] -= x
    if any(a % PRIME for a in acc):
        raise ArithmeticError("internal error: stress check failed")


def _factor(g: Graph, real: Realization, edges, extra=(), edge_stresses=True
            ) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Factor R(G,p)^T once, with one column per edge of ``edges`` in order
    and then one per vertex pair of ``extra``, which are never pivots.

    Forward elimination (``field._echelon``) gives the pivots, and
    ``field._kernel`` reads the stresses off the reduced pivot rows.
    Returns ``(pivots, stresses)``. The pivot columns are the greedy basis of
    ``edges`` at ``real``: a column is a pivot exactly when its edge row is
    not spanned by the rows of the edges before it. ``stresses`` maps each
    free column f to the kernel vector with 1 at f, 0 at the other free
    columns and minus f's reduced column on the pivots. That vector is the
    fundamental stress of f, and its support is f's fundamental circuit with
    respect to the pivots. An ``extra`` column gets its stress only when it
    is zero below the pivots, that is when its pair is linked at ``real``.
    With ``edge_stresses`` false only those pair stresses are read. Every
    stress is checked exactly before return.
    """
    m, cols = len(edges), [*edges, *extra]
    rows = [list(col) for col in zip(*_rows_for(g, real, cols))]
    pivots = _echelon(rows, m)
    r = len(pivots)
    wanted = sorted(set(range(m)) - set(pivots)) if edge_stresses else []
    wanted += [f for f in range(m, len(cols)) if not any(row[f] for row in rows[r:])]
    stresses = _kernel(rows, pivots, len(cols), wanted)
    for w in stresses.values():
        _check_stress(real, cols, w)
    return pivots, stresses


def _trials(g: Graph, d: int, rng: Rng, extra=(), edge_stresses=True):
    """The trials every randomized query of G reads, in order.

    Trial t takes ``sub = rng.child(t)``, draws p from ``sub.child(0)`` and
    factors R(G,p)^T once, with the pair columns ``extra`` riding along
    (``_factor``). Yields ``(t, real, pivots, stresses, sub)``; consumers take
    any further draws of the trial from ``sub.child(k)`` with k >= 1. With
    ``edge_stresses`` false the trials carry the linked pairs' stresses
    alone, for ``_matroid`` with ``settled=None``.

    Raises:
        GraphError: when d < 1, at the call, before any trial is drawn, so
        that queries which read no trial (edgeless graphs, the global
        rigidity routes that need no realization) reject d too.
    """
    _check_dimension(d)

    def draw():
        for t in range(TRIALS):
            sub = rng.child(t)
            real = sample_realization(g, d, sub.child(0))
            yield (t, real, *_factor(g, real, g.edges, extra, edge_stresses), sub)
    return draw()


def _classes(m: int, supports) -> list[list[int]]:
    """Edge indices 0..m-1 grouped by the supports: the components of the
    graph on them that joins each support's first index to its others,
    each group ascending and the groups ordered by their least index."""
    return Graph(m, {(s[0], j) for s in supports for j in s[1:]}).connected_components()


def _matroid(g: Graph, d: int, trials, settled, pairs=()):
    """Basis, bridges and components of the rigidity matroid, and the vertex
    pairs of ``pairs`` (non-edges) linked in G, at d >= 3 each with its
    circuit in G + pair: exact at d <= 2, one-sided at d >= 3.

    The route depends on d alone. At d <= 2 the pebble game (``_pebble``)
    answers exactly and ``trials`` is never iterated, so nothing is drawn
    or factored; a pair inside a tight set already found, and with
    ``settled=None`` a dependent edge inside one, is settled without a
    gathering. At d >= 3 everything is read off ``trials`` (``_trials``
    of G with ``pairs`` as its ``extra`` columns; ``_sampled``), with
    ``settled`` the test that stops them early. Both routes give supports
    in column indices, which one tail turns into the answer.

    ``settled=None`` asks for the basis and the linked pairs alone: bridges
    and components come back as None, and the trials may carry the pair
    stresses alone (``_trials`` with ``edge_stresses`` false).

    Returns ``(basis, bridges, components, circuits)``, ``circuits`` mapping
    each linked pair to the sorted edges of its circuit, the pair included,
    at d >= 3, and to None at d <= 2, where the pebble game reads the linked
    pairs off tight sets and no pair circuit.
    """
    if g.m == 0:
        return ((), None, None, {}) if settled is None else ((), (), (), {})
    if d <= 2:
        found = _pebble(g, d, pairs, settled is not None, range(g.m))
    else:
        found = _sampled(g, d, trials, settled, pairs)
    return _answer(g, pairs, *found)


def _answer(g: Graph, pairs, pivots, own, linked):
    """The ``_matroid`` answer from supports in column indices: edge j is
    column j and pair i column m + i. ``pivots`` are the basis columns,
    ``own`` the supports of the edge circuits (None when not asked for) and
    ``linked`` maps the column of each linked pair to its circuit's
    support, or to None where no support is read (``_pebble``). The edges
    no support covers are the bridges, and ``_classes`` groups the rest
    into components."""
    edges = g.edges + tuple(pairs)
    basis = tuple(g.edges[j] for j in pivots)
    circuits = {edges[f]: s if s is None else tuple(sorted({edges[j] for j in s}))
                for f, s in linked.items()}
    if own is None:
        return basis, None, None, circuits
    covered = {j for supp in own for j in supp}
    bridges_ = tuple(e for j, e in enumerate(g.edges) if j not in covered)
    components = tuple(tuple(g.edges[j] for j in c) for c in _classes(g.m, own))
    return basis, bridges_, components, circuits


def _sampled(g: Graph, d: int, trials, settled, pairs):
    """The supports of ``_answer`` read off ``trials`` of G with the columns
    of ``pairs`` riding along: the route of ``_matroid`` at d >= 3, and its
    test oracle at d <= 2.

    A trial stops the loop when it reaches the a priori rank bound and
    ``settled(m, supports)`` holds for its stress supports. Trials whose
    rank falls short of the best one are discarded; the rest pool their
    supports. At a realization of generic rank each support lies inside a
    generic circuit, so pooling can only move bridges and components
    toward the generic answer. A pair is linked when every kept trial finds
    it so, its support the union of theirs: at a trial of generic rank "not
    linked" is exact, and only "linked" can be wrong. ``settled=None``
    stops at the rank bound and reads no edge supports; otherwise every
    trial must carry the stress of each free edge column.
    """
    m, upper = g.m, rank_upper_bound(g.n, g.m, d)
    seen = []
    for _, _, pivots, stresses, _ in trials:
        supports = {f: [j for j, x in enumerate(w) if x] for f, w in stresses.items()}
        if settled is not None and sum(f < m for f in supports) != m - len(pivots):
            raise AssertionError("internal error: a trial lacks edge stresses")
        seen.append((pivots, supports))
        if len(pivots) >= upper and (
                settled is None or settled(m, [s for f, s in supports.items() if f < m])):
            break
    best = max(len(pivots) for pivots, _ in seen)
    kept = [trial for trial in seen if len(trial[0]) == best]
    linked = {f: [j for _, supports in kept for j in supports[f]]
              for f in range(m, m + len(pairs)) if all(f in supports for _, supports in kept)}
    own = None if settled is None else \
        [s for _, supports in kept for f, s in supports.items() if f < m]
    return kept[0][0], own, linked


def _pebble(g: Graph, d: int, pairs, edge_circuits: bool, order):
    """The supports of ``_answer`` from the (k, l) = (d, d(d+1)/2) pebble
    game (Jacobs and Hendrickson 1997; Lee and Streinu 2008): the route of
    ``_matroid`` at d <= 2, where the rigidity matroid is the (1, 1)-sparsity
    (graphic) matroid and the (2, 3)-sparsity matroid (Laman 1970).

    Every vertex holds k pebbles; a basis edge is directed out of the
    vertex whose pebble covers it. An edge uv is independent of the basis
    exactly when l + 1 pebbles can be gathered on u and v, each moved
    along a directed path whose edges are then reversed. The edge indices
    of ``order`` go in in that order, which gives the greedy basis of that
    order: canonical order (``range(g.m)``) gives that of the pivot
    columns. When the gathering fails, the vertices reachable from u and v
    form the least tight set that holds them (k|T| - l basis edges inside
    T), so uv and the basis edges inside it form uv's fundamental circuit.
    A tight set stays tight as later edges go in, and every pair inside it
    is linked, so ``tight[x]`` keeps the union of the tight sets found that
    hold x. Pairs are tested without going in, and a pair inside a known
    tight set without a gathering; moving pebbles only reorients edges, so
    nothing needs restoring. Linked pairs map to None: no pair support is
    read. With ``edge_circuits`` false the non-basis edges' circuits are not
    read, and an edge inside a known tight set is dependent without a
    gathering.
    """
    k, l = d, d * (d + 1) // 2
    pebbles = [k] * g.n
    out = [{} for _ in range(g.n)]  # out[y][z]: the index of basis edge yz
    # read only by pairs and by edges settled without a gathering
    tight = [0] * g.n if pairs or not edge_circuits else None

    def fetch(x, u, v) -> bool:
        """Move to x, one of u and v, a free pebble of another vertex
        reachable from x, reversing the path it takes."""
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
        """None once u and v hold l + 1 pebbles, else the vertices
        reachable from them, a tight set, which joins ``tight`` when that
        is kept."""
        while pebbles[u] + pebbles[v] <= l:
            if not (pebbles[u] < k and fetch(u, u, v) or pebbles[v] < k and fetch(v, u, v)):
                seen, stack = {u, v}, [u, v]
                while stack:
                    for z in out[stack.pop()].keys() - seen:
                        seen.add(z)
                        stack.append(z)
                if tight is not None:
                    mask = sum(1 << x for x in seen)
                    for x in seen:
                        tight[x] |= mask
                return seen
        return None

    pivots, own = [], []
    for j in order:
        u, v = g.edges[j]
        if not edge_circuits and tight[u] >> v & 1:
            continue
        seen = gather(u, v)
        if seen is None:
            # l + 1 = 2k at d <= 2: u and v hold k pebbles each
            pebbles[u] -= 1
            out[u][v] = j
            pivots.append(j)
        elif edge_circuits:
            own.append(sorted([j, *(i for x in seen for y, i in out[x].items() if y in seen)]))
    linked = {f: None for f, (u, v) in enumerate(pairs, g.m)
              if tight[u] >> v & 1 or gather(u, v) is not None}
    return pivots, own if edge_circuits else None, linked


def _covers(m, supports) -> bool:
    return len({j for supp in supports for j in supp}) == m


def _connects(m, supports) -> bool:
    return len(_classes(m, supports)) == 1


def bridges(g: Graph, d: int, rng: Rng | None = None) -> tuple[tuple[int, int], ...]:
    """Edges whose deletion drops the generic rank: those in no circuit of
    ``_matroid``. Exact at d <= 2, one-sided at d >= 3: there the circuits
    are the stress supports of the kept trials, the loop stops early once a
    trial at the rank bound has every edge in some support, and an edge
    may be reported as a bridge wrongly, never the other way round.
    """
    return _matroid(g, d, _trials(g, d, _rng(rng)), _covers)[1]


def rigid_basis(g: Graph, d: int, rng: Rng | None = None) -> tuple[tuple[int, int], ...]:
    """A maximal independent edge set, grown greedily in canonical edge order.

    For a rigid graph this is a minimally rigid spanning subgraph. Exact at
    d <= 2, where the pebble game grows it, one-sided at d >= 3: there
    these are the pivot columns of R(G,p)^T from the first trial of the
    best rank, read without the edge stresses, and the set is always
    independent; only its size can fall short.
    """
    return _matroid(g, d, _trials(g, d, _rng(rng), edge_stresses=False), None)[0]


def fundamental_circuit(g: Graph, d: int, basis, e, rng: Rng | None = None
                        ) -> tuple[tuple[int, int], ...]:
    """The unique circuit inside basis + e.

    Exact at d <= 2: one pebble game (``_pebble``) on basis + e plays the
    basis first and e last, and e's circuit is its edge circuit there. At
    d >= 3 one ``_matroid`` call on the graph of the basis with e as its
    pair, which is one-sided: the trials carry e's stress alone, and the
    circuit is the union of the supports of e's fundamental stress over the
    trials of full rank, each inside the generic circuit, so a member may
    be missed, never a non-member included. Either way the basis must come
    out independent, and e dependent on it.

    Raises:
        GraphError: when the edges are not in the graph, when e lies in the
        basis, when the basis is not independent (at d >= 3: no trial finds
        it so), or when e is independent of it (at d >= 3: a trial of full
        rank finds it so; then basis + e has no circuit).
    """
    _check_dimension(d)
    basis = tuple(basis)
    e = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    basis_set = set(basis)
    if e in basis_set:
        raise GraphError(f"edge {e} lies in the basis")
    if e not in g.edge_set:
        raise GraphError(f"edge {e} not in graph")
    if not basis_set <= g.edge_set:
        raise GraphError("basis contains edges outside the graph")
    if d <= 2:
        h = Graph(g.n, (*basis, e))
        j = h.edges.index(e)
        pivots, own, _ = _pebble(h, d, (), True, sorted(range(h.m), key=j.__eq__))
        found = [i for i in pivots if i != j]
        circuit = None if j in pivots else tuple(h.edges[i] for i in own[-1])
    else:
        h = Graph(g.n, basis)
        trials = _trials(h, d, _rng(rng), [e], edge_stresses=False)
        found, _, _, circuits = _matroid(h, d, trials, None, [e])
        circuit = circuits.get(e)
    if len(found) < len(basis):
        raise GraphError("the given edge set is not independent")
    if circuit is None:
        raise GraphError("edge is independent of the basis; not spanned, so no circuit")
    return circuit


def matroid_components(g: Graph, d: int, rng: Rng | None = None
                       ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Connected components of the rigidity matroid, as edge sets.

    The edges grouped by the fundamental circuits of ``_matroid``
    (``_classes``): those of one basis already connect each component.
    Bridges come out as singletons. Exact at d <= 2, one-sided at d >= 3:
    there the circuits are the stress supports of the kept trials, the loop
    stops early once a trial at the rank bound connects every edge, and a
    component may be split wrongly, never merged wrongly.
    """
    return _matroid(g, d, _trials(g, d, _rng(rng)), _connects)[2]


def is_matroid_connected(g: Graph, d: int, rng: Rng | None = None) -> bool:
    return len(matroid_components(g, d, rng)) == 1


def _splitting_edges(g: Graph, d: int, rng: Rng):
    """The edges e, in edge order, whose deletion leaves the rigidity
    matroid disconnected, G - e_i tested on ``rng.child(i)``. At d >= 3 a
    component may be split wrongly, so an edge may be yielded wrongly,
    never missed."""
    _check_dimension(d)
    for i, e in enumerate(g.edges):
        if not is_matroid_connected(g.delete_edge(e), d, rng.child(i)):
            yield e


def is_redundantly_matroid_connected(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """Matroid-connected after deleting any single edge: no edge of
    ``_splitting_edges``, which stops at the first."""
    return next(_splitting_edges(g, d, _rng(rng)), None) is None


@dataclass(frozen=True)
class MatroidReport:
    """Summary of the d-dimensional rigidity matroid of one graph."""

    d: int
    rank: int
    independent: bool
    circuit: bool
    bridges: tuple[tuple[int, int], ...]
    components: tuple[tuple[tuple[int, int], ...], ...]
    basis: tuple[tuple[int, int], ...]


def matroid_report(g: Graph, d: int, rng: Rng | None = None) -> MatroidReport:
    """Rank, basis, bridges and components from the same trials, so the three
    agree: every bridge is a singleton component, and every trial they were
    read from has the rank of the basis."""
    return _report(g, d, _trials(g, d, _rng(rng)))


def _report(g: Graph, d: int, trials) -> MatroidReport:
    """``matroid_report`` read off ``trials`` of G."""
    basis, brs, comps, _ = _matroid(g, d, trials, _connects)
    r = len(basis)
    if r > rank_upper_bound(g.n, g.m, d):
        raise AssertionError("internal error: rank exceeds its a priori bound")
    if sum(len(c) for c in comps) != g.m:
        raise AssertionError("internal error: components do not partition E")
    return MatroidReport(
        d=d,
        rank=r,
        independent=(r == g.m),
        circuit=(g.m > 0 and r == g.m - 1 and not brs),
        bridges=brs,
        components=comps,
        basis=basis,
    )
