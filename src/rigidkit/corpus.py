"""Graph corpora: exhaustive enumeration and seeded random families.

Exhaustive corpora come in two flavors. ``all_graphs`` walks every labeled
graph on n vertices in ascending edge-mask order (the canonical
adjacency-matrix ordering). ``nonisomorphic_graphs`` yields one canonical
representative per isomorphism class. It extends the (n-1)-vertex classes
one vertex at a time and keeps a child only when the new vertex is the one
the canonical form deletes, up to automorphism (McKay's canonical
augmentation), so only children that can be canonical are searched. A
parent is extended by one neighbour set per orbit of its automorphism
group, because the others give the same children up to isomorphism; so
every class is searched for once, and no duplicates are merged. The
canonical-form search prunes with the automorphisms it finds on the way, so
a symmetric graph costs a few paths of the search tree, not one leaf per
automorphism. Since every property this package computes is
isomorphism-invariant, the reduced corpus gives the same coverage at a
fraction of the cost.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .field import Rng
from .graph import Graph


def _refine_colors(nbrs) -> list[int]:
    """Stable 1-dimensional color refinement of the graph with neighbour
    lists ``nbrs``; colors are dense ranks.

    A vertex's signature is its color, then the sorted tuple of its
    neighbours' colors, and the new colors rank the signatures. Vertices of
    one color have one degree, so their tuples have one length, and then the
    lesser tuple has more neighbours of the least color whose counts differ.
    So the counts, as digits base n+1 with color 0 the most significant,
    give an int that orders the tuples in reverse, and no tuple is sorted.
    Once every color is distinct, another round cannot change them.
    """
    n = len(nbrs)
    weight = [(n + 1) ** (n - 1 - c) for c in range(n)]
    top = (n + 1) ** n
    colors = [len(ns) for ns in nbrs]
    for _ in range(n):
        w = [weight[c] for c in colors]
        sigs = [c * top - sum(map(w.__getitem__, ns)) for c, ns in zip(colors, nbrs)]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors or len(ranking) == n:
            return new
        colors = new
    return colors


def _orbit(seeds, gens) -> set[int]:
    """The union of the orbits of ``seeds`` under the group the permutations
    ``gens`` generate."""
    orbit = set(seeds)
    stack = list(orbit)
    while stack:
        w = stack.pop()
        for g in gens:
            if g[w] not in orbit:
                orbit.add(g[w])
                stack.append(g[w])
    return orbit


def _mask_orbit(mask: int, gens) -> set[int]:
    """The orbit of the vertex set ``mask`` (bit v for vertex v) under the
    group the permutations ``gens`` generate."""
    orbit = {mask}
    stack = [mask]
    while stack:
        s = stack.pop()
        for g in gens:
            image = sum(1 << w for v, w in enumerate(g) if s >> v & 1)
            if image not in orbit:
                orbit.add(image)
                stack.append(image)
    return orbit


def _search(nbrs, colors: list[int]) -> tuple[list[int], set[int], list[list[int]]]:
    """The canonical-form search on the graph with neighbour lists ``nbrs``:
    the lexicographically least chunk sequence over all color-respecting
    orderings, the set of vertices that its optimal orderings place last,
    and permutations that generate the automorphism group.

    Chunk j holds vertex j's adjacency bits to the vertices placed before it;
    ``bits[v]`` keeps the chunk vertex v would take, updated along v's
    neighbours as vertices are placed and removed. Each node descends only
    into its least chunk, because any larger one loses at that position.
    Two optimal orderings give the same graph, so they differ by an
    automorphism: every leaf that equals ``best`` yields one, the map from
    the first optimal ordering ``first`` to it. The search prunes with the
    automorphisms it finds (B. D. McKay, "Practical graph isomorphism",
    1981; McKay and Piperno, "Practical graph isomorphism, II", 2014):
    - after such a leaf, the search returns to the node where the leaf's
      path leaves ``first``'s: the rest of that child's subtree is the image
      of the subtree ``first`` came from, which is done;
    - a candidate is skipped when an automorphism found so far that fixes
      the placed prefix pointwise maps an explored sibling to it, since its
      subtree is that sibling's image;
    - before a node branches, the twins of its first candidate (the same
      neighbours apart from each other) leave the tie group, and each swap
      joins the automorphisms found: it fixes the prefix and maps the first
      candidate's subtree onto the twin's. A node left with one candidate
      places it as a forced one.
    Every optimal ordering is thus the image of a visited one under the
    automorphisms found, so they generate all of Aut(G) (an automorphism
    preserves the refined colors), and the last vertices of the optimal
    orderings are the orbit of ``first[-1]``.
    """
    n = len(nbrs)
    members: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        members.setdefault(c, []).append(v)
    cells = [members[c] for c in sorted(colors)]
    used = [False] * n
    bits = [0] * n
    placed: list[int] = []
    chunks: list[int] = []
    best: list[int] = []
    first: list[int] = []
    gens: list[list[int]] = []

    def unplace(stop: int) -> None:
        while len(placed) > stop:
            v = placed.pop()
            used[v] = False
            bit = 1 << len(placed)
            for u in nbrs[v]:
                bits[u] ^= bit
        del chunks[stop:]

    def dfs(pos: int, tight: bool) -> int:
        # Places the forced vertices from pos on, then branches over the
        # least-chunk tie group left once the twins of its first candidate
        # are dropped. tight: chunks == best[:pos]; otherwise
        # chunks is less, or there is no best yet. Returns the level the
        # search resumes at: the node branching there goes on, deeper ones
        # unwind.
        nonlocal best, first
        start = pos
        while True:
            if pos == n:
                if tight:
                    perm = [0] * n
                    for v, w in zip(first, placed):
                        perm[v] = w
                    gens.append(perm)
                    back = 0
                    while first[back] == placed[back]:
                        back += 1
                else:
                    best, first, back = chunks[:], placed[:], n
                unplace(start)
                return back
            cell = cells[pos]
            if len(cell) == 1:
                least = bits[cell[0]]
                group = cell
            else:
                cands = [v for v in cell if not used[v]]
                least = min([bits[v] for v in cands])
                group = [v for v in cands if bits[v] == least]
            if tight:
                if least > best[pos]:
                    unplace(start)
                    return n
                tight = least == best[pos]
            if len(group) > 1:
                u0, rest = group[0], group[1:]
                group = [u0]
                for v in rest:
                    if set(nbrs[u0]) - {v} == set(nbrs[v]) - {u0}:
                        swap = list(range(n))
                        swap[u0], swap[v] = v, u0
                        gens.append(swap)
                    else:
                        group.append(v)
                if len(group) > 1:
                    break
            v = group[0]
            used[v] = True
            placed.append(v)
            chunks.append(least)
            bit = 1 << pos
            for u in nbrs[v]:
                bits[u] |= bit
            pos += 1
        chunks.append(least)
        bit = 1 << pos
        explored: list[int] = []
        stab: list[list[int]] = []   # the gens that fix the prefix pointwise
        seen = 0
        done: set[int] = set()       # the orbits of explored under stab
        for v in group:
            if explored:
                if len(gens) > seen:
                    stab += [g for g in gens[seen:] if all(g[w] == w for w in placed)]
                    seen = len(gens)
                    done = _orbit(explored, stab)
                if v in done:
                    continue
            used[v] = True
            placed.append(v)
            for u in nbrs[v]:
                bits[u] |= bit
            back = dfs(pos + 1, tight)
            placed.pop()
            used[v] = False
            for u in nbrs[v]:
                bits[u] ^= bit
            if back < pos:
                unplace(start)
                return back
            tight = True  # the subtree reached a leaf no worse than best
            explored.append(v)
            done |= _orbit((v,), stab)
        unplace(start)
        return n

    dfs(0, False)
    if not first:
        raise AssertionError("internal error: the search found no vertex order")
    return best, _orbit((first[-1],), gens), gens


def canonical_chunks(g: Graph) -> tuple[int, ...]:
    """Canonical form: the lexicographically least chunk sequence over all
    color-respecting orderings; chunk j holds vertex j's adjacency bits to
    the vertices placed before it."""
    if g.n == 0:
        return ()
    return tuple(_search(g.adjacency, _refine_colors(g.adjacency))[0])


def canonical_key(g: Graph) -> tuple:
    return (g.n, canonical_chunks(g))


def _chunks_to_graph(n: int, chunks: tuple[int, ...]) -> Graph:
    # bit i of chunk j is the pair (i, j)
    return Graph(n, tuple((i, j) for j, c in enumerate(chunks) for i in range(j) if c >> i & 1))


@lru_cache(maxsize=None)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, canonically labeled,
    ordered by edge count and then edge list.

    Generated by canonical augmentation (B. D. McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998). Each child is a
    canonical (n-1)-vertex parent P plus a new vertex x joined to the parent
    vertices of a mask. It is accepted only when x lies in the orbit of the
    vertex that the canonical order places last, that is when x is last in
    some optimal ordering of ``_search``. Deleting the canonical last vertex
    of a class gives one parent class, so every class is accepted from
    exactly one parent. Two accepted children of P are isomorphic exactly
    when an automorphism of P maps one mask onto the other, since an
    isomorphism between them can be chosen to fix x. So one search of P
    gives generators of Aut(P), and only the least mask of each Aut(P)-orbit
    is searched: every class is reached once, and a class reached twice
    raises an internal error, which also runs under ``python -O``.

    Two necessary conditions, both Aut(P)-invariant, skip the search.
    First, x must have maximum degree: with ``top`` the parent's maximum
    degree and ``topmask`` its vertices of that degree, a mask is rejected
    in O(1) when its popcount is below ``top``, or equals it and meets
    ``topmask``. Second, x must have the largest refined color, because the
    last slot takes the largest color (``_refine_colors`` ranks by degree
    first). Each child's neighbour lists, which both ``_refine_colors`` and
    ``_search`` read, are the parent's lists with x added. ``_search`` finds
    the automorphism group as it goes and prunes the orderings it maps onto
    visited ones, so it visits only a few of the optimal orderings, yet
    still returns all of their last vertices as one orbit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (Graph(1),)
    x = n - 1
    found: set[tuple[int, ...]] = set()
    for parent in nonisomorphic_graphs(x):
        pnbrs = parent.adjacency
        gens = _search(pnbrs, _refine_colors(pnbrs))[2]
        top = max(len(ns) for ns in pnbrs)
        topmask = sum(1 << v for v, ns in enumerate(pnbrs) if len(ns) == top)
        done: set[int] = set()  # the masks of the Aut(P)-orbits met so far
        for mask in range(1 << x):
            deg = bin(mask).count("1")
            if deg < top or (deg == top and mask & topmask) or mask in done:
                continue
            done |= _mask_orbit(mask, gens)
            nbrs = [(*ns, x) if mask >> v & 1 else ns for v, ns in enumerate(pnbrs)]
            nbrs.append(tuple(v for v in range(x) if mask >> v & 1))
            colors = _refine_colors(nbrs)
            if colors[x] != max(colors):
                continue
            chunks, lasts, _ = _search(nbrs, colors)
            if x in lasts:
                if tuple(chunks) in found:
                    raise AssertionError("internal error: a class was reached twice")
                found.add(tuple(chunks))
    return tuple(sorted((_chunks_to_graph(n, c) for c in found),
                        key=lambda g: (g.m, g.edges)))


def all_graphs(n: int):
    """Every labeled graph on n vertices, ascending by edge mask. Bit
    j(j-1)/2 + i of the mask is the pair (i, j), i < j, so the mask's bits
    are the chunks of ``_chunks_to_graph`` in turn: chunk j, vertex j's
    bits to the vertices before it, is the next j bits."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield _chunks_to_graph(n, tuple(mask >> j * (j - 1) // 2 & (1 << j) - 1 for j in range(n)))


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
