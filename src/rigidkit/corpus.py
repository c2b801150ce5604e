"""Graph corpora: exhaustive enumeration and seeded random families.

Exhaustive corpora come in two flavors. ``all_graphs`` walks every labeled
graph on n vertices in ascending edge-mask order (the canonical
adjacency-matrix ordering). ``nonisomorphic_graphs`` yields one canonical
representative per isomorphism class. It extends the (n-1)-vertex classes
one vertex at a time and keeps a child only when the new vertex is the one
the canonical form deletes, up to automorphism (McKay's canonical
deletion), so only children that can be canonical are searched. Since
every property this package computes is isomorphism-invariant, the reduced
corpus gives the same coverage at a fraction of the cost.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .field import Rng
from .graph import Graph


def _pair_order(n: int) -> list[tuple[int, int]]:
    # column-major: (0,1), (0,2), (1,2), (0,3), ... so that placing vertex j
    # fixes the next j bits of the mask; this gives the prefix property the
    # canonical-form search prunes on.
    return [(i, j) for j in range(1, n) for i in range(j)]


def _mask_to_graph(n: int, mask: int) -> Graph:
    pairs = _pair_order(n)
    return Graph(n, tuple(p for b, p in enumerate(pairs) if mask >> b & 1))


def graph_to_adj_masks(g: Graph) -> tuple[int, ...]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _refine_colors(n: int, adj: tuple[int, ...]) -> list[int]:
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


def _search(n: int, adj: tuple[int, ...], colors: list[int]
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


def canonical_chunks(g: Graph) -> tuple[int, ...]:
    """Canonical form: the lexicographically least chunk sequence over all
    color-respecting orderings; chunk j holds vertex j's adjacency bits to
    the vertices placed before it."""
    n = g.n
    if n == 0:
        return ()
    adj = graph_to_adj_masks(g)
    return tuple(_search(n, adj, _refine_colors(n, adj))[0])


def canonical_key(g: Graph) -> tuple:
    return (g.n, canonical_chunks(g))


def _chunks_to_graph(n: int, chunks: tuple[int, ...]) -> Graph:
    # chunk j holds the pairs (i, j), i < j: the mask's slice from j(j-1)/2
    return _mask_to_graph(n, sum(c << j * (j - 1) // 2 for j, c in enumerate(chunks)))


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, canonically labeled,
    ordered by edge count and then edge list.

    Generated by canonical deletion (B. D. McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998). Each child is a canonical
    (n-1)-vertex parent plus a new vertex x joined to the parent vertices of
    a mask. It is accepted only when x lies in the orbit of the vertex that
    the canonical order places last, that is when x is last in some optimal
    ordering of ``_search``. Deleting the canonical last vertex of a class
    gives one parent class, so every class is accepted from exactly one
    parent; masks of that parent that give isomorphic children are merged by
    their canonical form. Two necessary conditions skip the search: x must
    have maximum degree, read off the mask's popcount and the parent's
    degrees, and x must have the largest refined color, because the last
    slot takes the largest color (``_refine_colors`` ranks by degree first).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (Graph(1),)
    x = n - 1
    parent_of: dict[tuple[int, ...], int] = {}
    for pi, parent in enumerate(nonisomorphic_graphs(x)):
        padj = graph_to_adj_masks(parent)
        pdeg = [bin(a).count("1") for a in padj]
        for mask in range(1 << x):
            deg = bin(mask).count("1")
            if any(pdeg[v] + (mask >> v & 1) > deg for v in range(x)):
                continue
            adj = (*(a | (mask >> v & 1) << x for v, a in enumerate(padj)), mask)
            colors = _refine_colors(n, adj)
            if colors[x] != max(colors):
                continue
            chunks, lasts = _search(n, adj, colors)
            if x in lasts and parent_of.setdefault(tuple(chunks), pi) != pi:
                raise AssertionError("internal error: a class came from two parents")
    return tuple(sorted((_chunks_to_graph(n, c) for c in parent_of),
                        key=lambda g: (g.m, g.edges)))


def all_graphs(n: int):
    """Every labeled graph on n vertices, ascending by edge mask."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield _mask_to_graph(n, mask)


def random_graph(n: int, edge_prob: float, rng: Rng) -> Graph:
    """G(n, p) with each pair included independently."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    threshold = int(edge_prob * (1 << 64))
    edges = tuple(p for p in combinations(range(n), 2)
                  if rng.next_u64() < threshold)
    return Graph(n, edges)


def random_graph_with_edges(n: int, m: int, rng: Rng) -> Graph:
    """Uniform graph with exactly m edges (partial Fisher-Yates over pairs)."""
    pairs = list(combinations(range(n), 2))
    if not 0 <= m <= len(pairs):
        raise ValueError(f"m must lie in [0, {len(pairs)}]")
    for i in range(m):
        j = i + rng.next_u64() % (len(pairs) - i)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return Graph(n, tuple(pairs[:m]))
