"""Simple undirected graphs on dense labels 0..n-1.

This module holds the universal input object of the toolkit plus the
structural transforms (coning, 2-sums, 2-separations) and the connectivity
primitives (local connectivity, vertex connectivity, minimum mixed cuts)
that the rigidity layers are built on. Everything here is exact, pure and
deterministic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations


class GraphError(ValueError):
    """Invalid graph data or an operation applied outside its domain."""


class ParseError(GraphError):
    """Malformed edge-list text; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _canon_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    canon = []
    for e in edges:
        u, v = e
        if not (type(u) is int and type(v) is int):  # bools are not labels
            raise GraphError(f"edge endpoints must be ints, got {e!r}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        canon.append((u, v) if u < v else (v, u))
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            raise GraphError(f"duplicate edge {a}")
    return tuple(canon)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; edges are kept sorted with u < v."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if type(self.n) is not int:
            raise GraphError(f"vertex count must be an int, got {self.n!r}")
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", _canon_edges(self.n, self.edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def min_degree(self) -> int:
        if self.n == 0:
            raise GraphError("empty graph has no degrees")
        return min(len(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def add_edge(self, u: int, v: int) -> "Graph":
        if self.has_edge(u, v):
            raise GraphError(f"edge ({u}, {v}) already present")
        return Graph(self.n, self.edges + (((u, v) if u < v else (v, u)),))

    def delete_edge(self, u, v=None) -> "Graph":
        if v is None:
            u, v = u
        e = (u, v) if u < v else (v, u)
        if e not in self.edge_set:
            raise GraphError(f"edge {e} not present")
        return Graph(self.n, tuple(f for f in self.edges if f != e))

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; vertices above v shift down by one."""
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} out of range")
        return self.induced(w for w in range(self.n) if w != v)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph, relabeled by the sorted order of ``vertices``."""
        verts = sorted(set(vertices))
        if verts and not (0 <= verts[0] and verts[-1] < self.n):
            raise GraphError("induced vertex out of range")
        index = {v: i for i, v in enumerate(verts)}
        keep = set(verts)
        return Graph(len(verts),
                     tuple((index[a], index[b]) for a, b in self.edges
                           if a in keep and b in keep))

    def edge_subgraph(self, edges) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph spanned by an edge subset.

        Returns the relabeled graph and the original labels of its vertices
        (sorted; position i of the tuple is the original label of vertex i).
        """
        edges = [((u, v) if u < v else (v, u)) for u, v in edges]
        for e in edges:
            if e not in self.edge_set:
                raise GraphError(f"edge {e} not in graph")
        verts = sorted({x for e in edges for x in e})
        index = {v: i for i, v in enumerate(verts)}
        return Graph(len(verts), tuple((index[a], index[b]) for a, b in edges)), tuple(verts)

    def disjoint_union(self, other: "Graph") -> "Graph":
        shifted = tuple((u + self.n, v + self.n) for u, v in other.edges)
        return Graph(self.n + other.n, self.edges + shifted)

    def connected_components(self, without=(), cut_edges=()) -> list[list[int]]:
        """Components of the graph minus the vertices ``without`` and the
        edges ``cut_edges``, in this graph's labels: each sorted, ordered by
        their least vertex. A cut edge must be an edge of the graph."""
        seen = [False] * self.n
        for w in without:
            if not 0 <= w < self.n:
                raise GraphError(f"vertex {w} out of range")
            seen[w] = True
        cut = {(a, b) if a < b else (b, a) for a, b in cut_edges}
        if cut and not cut <= self.edge_set:
            raise GraphError(f"cut edge {min(cut - self.edge_set)} not in graph")
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = []
            queue = deque([s])
            seen[s] = True
            while queue:
                u = queue.popleft()
                comp.append(u)
                for w in self.adjacency[u]:
                    if not seen[w] and ((u, w) if u < w else (w, u)) not in cut:
                        seen[w] = True
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def serialize(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical edge-list format: a header "n m", then m lines "u v".

    Raises ParseError with the offending 1-based line number on any
    malformed line, out-of-range vertex, duplicate edge or self-loop.
    """
    lines = text.split("\n")
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(1, f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"header must hold two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError(1, "negative counts in header")

    edges = []
    seen = set()
    for k in range(m):
        lineno = k + 2
        if lineno - 1 >= len(lines) or not lines[lineno - 1].strip():
            raise ParseError(lineno, f"expected {m} edge lines, found {k}")
        parts = lines[lineno - 1].split()
        if len(parts) != 2:
            raise ParseError(lineno, f"edge line must be 'u v', got {lines[lineno - 1]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"edge line must hold two integers, got {lines[lineno - 1]!r}") from None
        if u == v:
            raise ParseError(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"vertex out of range in edge ({u}, {v})")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(lineno, f"duplicate edge {e}")
        seen.add(e)
        edges.append(e)
    for extra in range(m + 2, len(lines) + 1):
        if lines[extra - 1].strip():
            raise ParseError(extra, "trailing content after edge list")
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# generators

def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete(n) needs n >= 1")
    return Graph(n, tuple(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete_bipartite(a, b) needs a, b >= 1")
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle(n) needs n >= 3")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path(n) needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cone(g: Graph) -> Graph:
    """Add a universal vertex with the new label n."""
    return Graph(g.n + 1, g.edges + tuple((i, g.n) for i in range(g.n)))


def wheel(rim: int) -> Graph:
    """Wheel with ``rim`` rim vertices plus a hub (label rim)."""
    return cone(cycle(rim))


def icosahedron() -> Graph:
    """Skeleton of the icosahedron: 12 vertices, 30 edges, 5-regular.

    Fixed labeling: 0 is an apex on ring 1..5, 11 is the opposite apex on
    ring 6..10, ring vertex 1+i meets 6+i and 6+((i+1) mod 5).
    """
    edges = [(0, i) for i in range(1, 6)]
    edges += [(1 + i, 1 + (i + 1) % 5) for i in range(5)]
    edges += [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    edges += [(11, i) for i in range(6, 11)]
    edges += [(1 + i, 6 + i) for i in range(5)]
    edges += [(1 + i, 6 + (i + 1) % 5) for i in range(5)]
    return Graph(12, tuple(edges))


def icosahedron_braced() -> Graph:
    """Icosahedron skeleton plus one bracing edge between vertices at
    graph distance 2; the lexicographically least such pair is (0, 6)."""
    return icosahedron().add_edge(0, 6)


def k4e_chain(blocks: int) -> Graph:
    """``blocks`` copies of K4 minus an edge glued along the missing pair.

    The two hub vertices 0 and 1 stay nonadjacent; block i contributes the
    private pair (2 + 2i, 3 + 2i). Yields 2*blocks + 2 vertices and
    5*blocks edges.
    """
    if blocks < 1:
        raise GraphError("k4e_chain(blocks) needs blocks >= 1")
    edges = []
    for i in range(blocks):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (0, b), (1, a), (1, b), (a, b)]
    return Graph(2 * blocks + 2, tuple(edges))


GENERATORS = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "cycle": (cycle, 1),
    "wheel": (wheel, 1),
    "path": (path, 1),
    "icosahedron_braced": (icosahedron_braced, 0),
    "k4e_chain": (k4e_chain, 1),
}


def generate(name: str, *params: int) -> Graph:
    if name not in GENERATORS:
        raise GraphError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    fn, arity = GENERATORS[name]
    if len(params) != arity:
        raise GraphError(f"generator {name!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# ---------------------------------------------------------------------------
# 2-sums and 2-separations

@dataclass(frozen=True)
class TwoSumSpec:
    """Designated edges for a 2-sum; u1 is identified with u2, v1 with v2."""

    edge1: tuple[int, int]
    edge2: tuple[int, int]


def two_sum(g1: Graph, g2: Graph, spec: TwoSumSpec | None = None) -> Graph:
    """Glue g1 and g2 along designated edges, dropping both copies.

    The identified vertices keep g1's labels; g2's remaining vertices are
    appended in g2 order. Defaults to the first canonical edge of each
    operand when no spec is given.
    """
    if spec is None:
        if not g1.edges or not g2.edges:
            raise GraphError("two_sum operands need at least one edge")
        spec = TwoSumSpec(g1.edges[0], g2.edges[0])
    u1, v1 = spec.edge1
    u2, v2 = spec.edge2
    if not g1.has_edge(u1, v1):
        raise GraphError(f"designated edge {spec.edge1} not in first operand")
    if not g2.has_edge(u2, v2):
        raise GraphError(f"designated edge {spec.edge2} not in second operand")

    relabel = {u2: u1, v2: v1}
    nxt = g1.n
    for w in range(g2.n):
        if w not in relabel:
            relabel[w] = nxt
            nxt += 1
    e1 = ((u1, v1) if u1 < v1 else (v1, u1))
    e2 = ((u2, v2) if u2 < v2 else (v2, u2))
    edges = [e for e in g1.edges if e != e1]
    edges += [(relabel[a], relabel[b]) for a, b in g2.edges if (a, b) != e2]
    return Graph(g1.n + g2.n - 2, tuple(edges))


def two_separation(g: Graph, u: int, v: int, add_edge: bool) -> tuple[Graph, Graph]:
    """Split g along the separating pair {u, v}.

    When uv is an edge the operation is a cleaving: uv is removed first.
    The first piece is the component of G - {u, v} holding the smallest
    vertex; remaining components merge into the second piece. Both pieces
    are relabeled by sorted vertex order, and with ``add_edge`` each piece
    gains the designated edge uv, which makes the operation invert two_sum.
    """
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("u, v must be distinct vertices")
    h = g.delete_edge(u, v) if g.has_edge(u, v) else g
    comps = g.connected_components(without=(u, v))
    if len(comps) < 2:
        raise GraphError(f"{{{u}, {v}}} is not a separating pair")
    sides = [set(comps[0]), set(x for c in comps[1:] for x in c)]

    pieces = []
    for side in sides:
        verts = sorted(side | {u, v})
        piece = h.induced(verts)
        pieces.append(piece.add_edge(verts.index(u), verts.index(v)) if add_edge else piece)
    return pieces[0], pieces[1]


# ---------------------------------------------------------------------------
# max-flow core and connectivity

class _FlowNet:
    """Tiny deterministic max-flow network (Ford-Fulkerson with depth-first
    augmenting paths, integer caps).

    ``cap`` holds the capacities as built. Every ``max_flow`` query starts
    from them afresh, so one network answers any number of source-sink
    pairs; ``residual`` keeps the residual capacities of the last query,
    which ``reachable`` reads.
    """

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.residual: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(nodes)]

    def add_arc(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int, limit: int | None = None) -> int:
        """The s-t flow value, or a value >= ``limit`` once the flow reaches
        it. Each augmenting path comes from a stack-order search that stops
        where it first labels t; Ford-Fulkerson is correct with any
        augmenting path. After a maximum flow the residual network reaches
        the source side of the minimal minimum cut, which is the same for
        every maximum flow, so ``reachable`` does not depend on the paths."""
        to, head = self.to, self.head
        cap = self.residual = list(self.cap)
        flow = 0
        while limit is None or flow < limit:
            parent_arc = [-1] * self.nodes
            parent_arc[s] = -2
            stack = [s]
            while stack and parent_arc[t] == -1:
                for a in head[stack.pop()]:
                    w = to[a]
                    if parent_arc[w] == -1 and cap[a] > 0:
                        parent_arc[w] = a
                        if w == t:
                            break
                        stack.append(w)
            if parent_arc[t] == -1:
                break
            bottleneck = None
            w = t
            while w != s:
                a = parent_arc[w]
                bottleneck = cap[a] if bottleneck is None else min(bottleneck, cap[a])
                w = to[a ^ 1]
            w = t
            while w != s:
                a = parent_arc[w]
                cap[a] -= bottleneck
                cap[a ^ 1] += bottleneck
                w = to[a ^ 1]
            flow += bottleneck
        return flow

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in self.head[u]:
                w = self.to[a]
                if w not in seen and self.residual[a] > 0:
                    seen.add(w)
                    queue.append(w)
        return seen


def _split_network(g: Graph, vertex_cap: int) -> _FlowNet:
    """Vertex-split network of g: w_in = 2w, w_out = 2w + 1, an arc
    w_in -> w_out of capacity ``vertex_cap`` per vertex and unit arcs
    a_out -> b_in, b_out -> a_in per edge ab.

    The u-v query is the flow from u_out to v_in. An augmenting path is
    simple and ends where it reaches v_in, so it never takes v_in -> v_out;
    it never takes u_in -> u_out either, which would return to the source,
    so no flow passes through u_in. The capacities of the endpoints' own
    arcs therefore never matter, and one network serves every pair. The
    edge uv, when present, is the arc u_out -> v_in: one more unit path.
    """
    net = _FlowNet(2 * g.n)
    for w in range(g.n):
        net.add_arc(2 * w, 2 * w + 1, vertex_cap)
    for a, b in g.edges:
        net.add_arc(2 * a + 1, 2 * b, 1)
        net.add_arc(2 * b + 1, 2 * a, 1)
    return net


def local_connectivity(g: Graph, u: int, v: int, limit: int | None = None) -> int:
    """kappa(u, v): the maximum number of internally disjoint u-v paths, the
    edge uv counting as one path when present; capped at ``limit`` when
    given. It is the u_out-v_in flow of the unit vertex-split network."""
    if u == v:
        raise GraphError("local connectivity needs u != v")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex out of range")
    return _split_network(g, vertex_cap=1).max_flow(2 * u + 1, 2 * v, limit=limit)


def _separator_pairs(g: Graph, adjacent: bool = False):
    """Vertex pairs such that every minimum vertex separator of a
    non-complete g separates one of them (Esfahanian-Hakimi 1984).

    Let v be the vertex of least (degree, label). The pairs are v with each
    vertex not adjacent to it, then each nonadjacent pair of v's neighbours:
    at most (n - 1 - deg v) + C(deg v, 2) of them. Let S be a minimum
    separator. If v lies outside S, v is separated from a vertex of another
    component of G - S, which is not adjacent to v. If v lies in S, v has a
    neighbour in every component of G - S, since otherwise S - v would
    separate too; two of them, in different components, are nonadjacent and
    separated by S.

    With ``adjacent`` the adjacent pairs come too, n - 1 + C(deg v, 2) pairs
    in all: a mixed cut may cut the edge between the two vertices it
    separates (``_mixed_cost``).
    """
    v = min(range(g.n), key=lambda w: (len(g.adjacency[w]), w))
    for w in range(g.n):
        if w != v and (adjacent or not g.has_edge(v, w)):
            yield v, w
    for a, b in combinations(g.adjacency[v], 2):
        if adjacent or not g.has_edge(a, b):
            yield a, b


def _least_flow(net: _FlowNet, pairs, best: int) -> int:
    """The least s_out-t_in flow of ``net`` over the pairs (s, t), or
    ``best`` when none is smaller: each flow is capped at the best so far,
    and the scan stops once it reaches 0."""
    for s, t in pairs:
        if best == 0:
            break
        best = min(best, net.max_flow(2 * s + 1, 2 * t, limit=best))
    return best


def vertex_connectivity(g: Graph) -> int:
    """Standard vertex connectivity; complete graphs give n - 1.

    A non-complete graph has a minimum separator S, and kappa(G) = |S| is
    the least kappa(u, v) over nonadjacent pairs; ``_separator_pairs``
    holds a pair that S separates, so the minimum over its O(n + delta^2)
    pairs is kappa(G) <= n - 2, found with capped flows on one network
    (``_least_flow``, from the bound n - 1).
    """
    if g.n < 2:
        raise GraphError("vertex connectivity needs n >= 2")
    if g.is_complete():
        return g.n - 1
    return _least_flow(_split_network(g, vertex_cap=1), _separator_pairs(g), g.n - 1)


def _dfs(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """One iterative depth-first search over every component (Tarjan 1972):
    each vertex's tree parent (-1 at a root), its depth, and its lowpoint,
    the least depth that its subtree reaches by one non-tree edge. Every
    non-tree edge joins a vertex to one of its ancestors. The neighbour
    lists are built here, in ``adjacency`` order, rather than read from
    the cached ``adjacency``, so that a sweep over a cached corpus does not
    keep one per graph."""
    parent = [-1] * g.n
    depth = [-1] * g.n
    low = [0] * g.n
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for root in range(g.n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        # an explicit stack: recursion would overflow on deep graphs
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            u, p, it = stack[-1]
            for w in it:
                if depth[w] < 0:
                    parent[w] = u
                    depth[w] = low[w] = depth[u] + 1
                    stack.append((w, u, iter(nbrs[w])))
                    break
                if w != p and depth[w] < low[u]:
                    low[u] = depth[w]
            else:
                stack.pop()
                if p >= 0 and low[u] < low[p]:
                    low[p] = low[u]
    return parent, depth, low


def articulation_points(g: Graph) -> set[int]:
    """Cut vertices, read off ``_dfs``: a root with two or more children, or
    a non-root p with a child c whose lowpoint does not climb above p."""
    parent, depth, low = _dfs(g)
    children = Counter(p for p in parent if p >= 0 and depth[p] == 0)
    return {p for p, k in children.items() if k >= 2} | {
        p for c, p in enumerate(parent) if p >= 0 and 0 < depth[p] <= low[c]}


def _blocks(g: Graph) -> list[int]:
    """The blocks (maximal 2-connected subgraphs and bridges) of G, read
    off ``_dfs``: bit c of ``blocks[w]`` is set when w lies in the block of
    the tree edge pc that opens it, which it does when low[c] >= depth[p].
    Every other tree edge pc joins p's block. Two vertices share a block
    exactly when their masks meet; for a non-edge uv that means
    kappa(u, v) >= 2."""
    parent, depth, low = _dfs(g)
    bit, blocks = [0] * g.n, [0] * g.n  # bit[c]: the block of c's tree edge
    for c in sorted(range(g.n), key=depth.__getitem__):
        p = parent[c]
        if p >= 0:
            bit[c] = 1 << c if low[c] >= depth[p] else bit[p]
            blocks[c] |= bit[c]
            blocks[p] |= bit[c]
    return blocks


def is_k_connected(g: Graph, k: int) -> bool:
    """Vertex connectivity at least k; cheap paths for k <= 2, capped flows
    above.

    For k >= 3 the flows run only over ``_separator_pairs``, at most
    (n - 1 - delta) + C(delta, 2) of them: if g has a separator of fewer
    than k vertices, a minimum one separates one of those pairs, whose flow
    then stays below k (Esfahanian-Hakimi 1984)."""
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
    return all(net.max_flow(2 * u + 1, 2 * v, limit=k) >= k
               for u, v in _separator_pairs(g))


@dataclass(frozen=True)
class MixedCut:
    """A disconnecting pair (S, F) of vertices and edges with cost 2|S| + |F|.

    F never contains an edge incident to S; such edges are redundant and
    rejected at construction time.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    cost: int

    def __post_init__(self):
        s = set(self.vertices)
        edges = {(a, b) if a < b else (b, a) for a, b in self.edges}
        if len(s) < len(self.vertices) or len(edges) < len(self.edges):
            raise GraphError("a mixed cut repeats a vertex or an edge")
        for a, b in self.edges:
            if a in s or b in s:
                raise GraphError(f"cut edge ({a}, {b}) is incident to the vertex part")
        if self.cost != 2 * len(self.vertices) + len(self.edges):
            raise GraphError("mixed cut cost must equal 2|S| + |F|")

    def disconnects(self, g: Graph) -> bool:
        return len(g.connected_components(self.vertices, self.edges)) >= 2


def _mixed_cost(g: Graph, net: _FlowNet, cap: int | None = None) -> int:
    """The cost proof: min(c, ``cap``) for the least cost c of a mixed cut
    of g, on its vertex-split network ``net`` (vertex cap 2).

    Every s-t flow of ``net`` (internal vertices cost 2, edges cost 1) is
    the cost of a cheapest mixed cut separating s from t, so c is the
    least flow over the vertex pairs. It is proved on the pairs of
    ``_separator_pairs`` with adjacent pairs included, at most
    (n - 1) + C(delta, 2) flows (``_least_flow``), each capped at the best
    cost so far, which starts at deg v, the cost of isolating the vertex v
    of least (degree, label), or at ``cap`` when that is less; a complete
    graph has no cheaper cut and runs none of them. Let (S, F) be a
    minimum cut. If v lies outside S, v is separated from some vertex t,
    and the pair (v, t) is run. If v lies in S, v has neighbours in two
    components of G - S - F: had it neighbours in at most one, moving v
    into that component (or into one of its own) would leave a cut of cost
    c - 2. The two neighbours are run as a pair; an edge between them lies
    in F.
    """
    cost = g.min_degree() if cap is None else min(cap, g.min_degree())
    # no cut of K_n beats isolating a vertex: with |S| = s it still splits
    # K_(n-s), which costs n - s - 1 edges
    if g.is_complete():
        return cost
    return _least_flow(net, _separator_pairs(g, adjacent=True), cost)


def _decode_mixed_cut(g: Graph, net: _FlowNet, cost: int) -> MixedCut:
    """The minimum cut of g at its least cost ``cost`` (``_mixed_cost``):
    the one of the lexicographically first pair s < t whose flow on
    ``net`` is the cost, decoded back into (S, F) from the vertices the
    source reaches in the residual network.

    A scan finds the pair: pairs run in lexicographic order with flows
    capped at cost + 1, so a flow of cost is a maximum flow, and the scan
    stops at the first of them. Such a pair has s <= floor(cost/2): a cut
    of that cost deletes at most floor(cost/2) vertices, and the least
    vertex outside S is separated from every vertex in the other
    components, all of which come later. The vertices the source reaches
    are the source side of the minimal minimum cut, the same for every
    maximum flow, so the cut depends neither on the pairs run before nor
    on the augmenting paths.
    """
    # the residual network stays that of the first pair whose flow is cost
    s = next((s for s in range(cost // 2 + 1) for t in range(s + 1, g.n)
              if net.max_flow(2 * s + 1, 2 * t, limit=cost + 1) == cost), None)
    if s is None:
        raise AssertionError("internal error: no vertex pair was separated")
    reach = net.reachable(2 * s + 1)
    cut_s = {w for w in range(g.n) if 2 * w in reach and 2 * w + 1 not in reach}
    cut_f = set()
    for a, b in g.edges:
        if (2 * a + 1 in reach and 2 * b not in reach) or \
           (2 * b + 1 in reach and 2 * a not in reach):
            if a not in cut_s and b not in cut_s:
                cut_f.add((a, b))
    if 2 * len(cut_s) + len(cut_f) != cost:
        raise AssertionError("internal error: decoded cut cost differs from the flow")
    cut = MixedCut(tuple(sorted(cut_s)), tuple(sorted(cut_f)), cost)
    if not cut.disconnects(g):
        raise AssertionError("internal error: decoded cut does not disconnect")
    return cut


def mixed_cut_cost(g: Graph) -> int:
    """The least cost of a mixed cut of g: the cost proof of
    ``min_mixed_cut`` without decoding a cut (``_mixed_cost``)."""
    if g.n < 2:
        raise GraphError("mixed cut needs n >= 2")
    return _mixed_cost(g, _split_network(g, vertex_cap=2))


def min_mixed_cut(g: Graph, below: int | None = None) -> MixedCut | None:
    """A minimum-cost mixed cut of g: the least cost c, proved by capped
    flows on one vertex-split network (``_mixed_cost``), then the cut of
    the lexicographically first pair whose flow is c, decoded on the same
    network (``_decode_mixed_cut``). The graph is mixed k-connected iff
    c >= k. On complete graphs the cut isolates a cheapest vertex.

    With ``below``, None when no cut costs less than ``below``: the proof
    caps its flows there and the cut is decoded only when one is returned.
    """
    if g.n < 2:
        raise GraphError("mixed cut needs n >= 2")
    net = _split_network(g, vertex_cap=2)
    cost = _mixed_cost(g, net, below)
    if below is not None and cost >= below:
        return None
    return _decode_mixed_cut(g, net, cost)


def find_cycle(g: Graph) -> list[int] | None:
    """Vertices of some cycle, in order, or None on forests: the first
    non-tree edge of ``_dfs`` closes one with the tree path from its deeper
    end up to the other, an ancestor."""
    parent, depth, _ = _dfs(g)
    for u, w in g.edges:
        if parent[u] != w and parent[w] != u:
            if depth[u] < depth[w]:
                u, w = w, u
            cyc = [u]
            while u != w:
                u = parent[u]
                cyc.append(u)
            return cyc
    return None
