from itertools import combinations, permutations

from hypothesis import given, strategies as st

from rigidkit import Graph, corpus
from rigidkit.corpus import (
    _refine_colors,
    _search,
    all_graphs,
    canonical_key,
    nonisomorphic_graphs,
    random_graph,
    random_graph_with_edges,
)
from rigidkit.field import Rng
from rigidkit.graph import complete, complete_bipartite, cycle

from oracles import (
    graph_to_adj_masks,
    nonisomorphic_graphs_by_merging_every_mask,
    nonisomorphic_graphs_by_seen_dict,
    refine_colors_by_masks,
    search_every_optimal_ordering,
)

# numbers of graphs / connected graphs on n unlabeled vertices
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_class_counts_match_the_literature():
    for n, expect in GRAPH_COUNTS.items():
        assert len(nonisomorphic_graphs(n)) == expect


def test_connected_class_counts():
    for n, expect in CONNECTED_COUNTS.items():
        assert sum(g.is_connected() for g in nonisomorphic_graphs(n)) == expect


def test_canonical_key_is_isomorphism_invariant():
    rng = Rng(8)
    for i in range(20):
        n = 4 + i % 4
        g = random_graph(n, 0.5, rng.child(i))
        assert canonical_key(g) == canonical_key(_relabelled(g, rng))


def test_canonical_key_separates_all_classes():
    reps = nonisomorphic_graphs(6)
    assert len({canonical_key(g) for g in reps}) == len(reps)


def test_representatives_cover_all_labeled_graphs_n4():
    keys = {canonical_key(g) for g in all_graphs(4)}
    assert keys == {canonical_key(g) for g in nonisomorphic_graphs(4)}
    assert len(list(all_graphs(4))) == 2**6


def test_all_graphs_ascending_edge_count_start():
    first = next(iter(all_graphs(3)))
    assert first.m == 0


def test_exhaustive_small_against_permutation_classes():
    # independent classification of the 4-vertex graphs by permutation orbit
    orbits = set()
    for g in all_graphs(4):
        orbit = frozenset(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in g.edges))
            for p in permutations(range(4)))
        orbits.add(orbit)
    assert len(orbits) == 11


def test_random_graph_deterministic():
    assert random_graph(8, 0.4, Rng(5)) == random_graph(8, 0.4, Rng(5))


def test_random_graph_with_edges_counts():
    rng = Rng(17)
    for i in range(10):
        g = random_graph_with_edges(9, 14, rng.child(i))
        assert (g.n, g.m) == (9, 14)


def test_canonical_deletion_matches_the_seen_dict_generator():
    # same canonical graphs in the same order: explore seeds each graph's
    # draws by its position in the corpus
    for n in range(1, 8):
        assert nonisomorphic_graphs(n) == nonisomorphic_graphs_by_seen_dict(n)


def test_one_mask_per_orbit_matches_merging_every_mask():
    for n in range(1, 8):
        got = nonisomorphic_graphs(n)
        assert got == nonisomorphic_graphs_by_merging_every_mask(n)
        assert len(got) == GRAPH_COUNTS[n]


def _brute_optimal_orderings(g: Graph):
    """Every color-respecting ordering whose chunk sequence is least, with
    that sequence, by trying all permutations."""
    adj = graph_to_adj_masks(g)
    colors = _refine_colors(g.adjacency)
    slots = sorted(colors)
    found = {}
    for order in permutations(range(g.n)):
        if [colors[v] for v in order] != slots:
            continue
        chunks = [sum(1 << i for i in range(j) if adj[v] >> order[i] & 1)
                  for j, v in enumerate(order)]
        found.setdefault(tuple(chunks), []).append(order)
    best = min(found)
    return list(best), found[best]


def _brute_automorphisms(g: Graph):
    edges = g.edge_set
    return [p for p in permutations(range(g.n))
            if all(tuple(sorted((p[a], p[b]))) in edges for a, b in g.edges)]


def _generated_group(n: int, gens) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[w] for w in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def _relabelled(g: Graph, rng: Rng) -> Graph:
    perm = list(range(g.n))
    for j in range(g.n - 1, 0, -1):
        k = rng.next_u64() % (j + 1)
        perm[j], perm[k] = perm[k], perm[j]
    return Graph(g.n, tuple((perm[a], perm[b]) for a, b in g.edges))


def _symmetric_graphs():
    """Graphs whose automorphism groups are large, so that the search's
    automorphism pruning fires: K_n, the empty graph, C_n, K_{3,3}, K_{1,5}
    and K_{2,2,2}."""
    yield from (complete(n) for n in range(1, 8))
    yield from (Graph(n) for n in range(1, 8))
    yield from (cycle(n) for n in range(3, 8))
    yield complete_bipartite(3, 3)
    yield complete_bipartite(1, 5)
    yield Graph(6, tuple(p for p in combinations(range(6), 2) if p not in {(0, 1), (2, 3), (4, 5)}))


def _petersen() -> Graph:
    outer = tuple((i, (i + 1) % 5) for i in range(5))
    inner = tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    return Graph(10, outer + inner + tuple((i, 5 + i) for i in range(5)))


def _cube() -> Graph:
    return Graph(8, tuple((v, v | 1 << b) for v in range(8) for b in range(3) if not v >> b & 1))


def _search_as_oracle(g: Graph):
    adj = graph_to_adj_masks(g)
    return search_every_optimal_ordering(g.n, adj, refine_colors_by_masks(g.n, adj))


def test_last_vertices_of_the_search_are_the_canonical_orbit():
    rng = Rng(12)
    randoms = [random_graph(1 + i % 6, (i % 5 + 1) / 6, rng.child(i)) for i in range(60)]
    for g in randoms + list(_symmetric_graphs()):
        chunks, lasts, gens = _search(g.adjacency, _refine_colors(g.adjacency))
        best, orders = _brute_optimal_orderings(g)
        last = orders[0][-1]
        automorphisms = _brute_automorphisms(g)
        assert chunks == best
        assert lasts == {order[-1] for order in orders}
        assert lasts == {p[last] for p in automorphisms}
        assert _generated_group(g.n, gens) == set(automorphisms)


def test_building_the_corpus_to_six_vertices_takes_few_searches(monkeypatch):
    # the seen-dict generator ran one search per child: 1306 up to n = 6;
    # searching every mask that passes the degree and color tests took 375;
    # one mask per orbit of the parent's automorphisms takes 207, plus one
    # search per parent (52) for the generators
    calls = []
    real_search = corpus._search

    def counting(*args):
        calls.append(args)
        return real_search(*args)

    monkeypatch.setattr(corpus, "_search", counting)
    nonisomorphic_graphs.cache_clear()
    assert len(nonisomorphic_graphs(6)) == 156
    assert len(calls) <= 259


def test_search_matches_the_unpruned_search_on_every_class_to_seven_vertices():
    rng = Rng(25)
    for n in range(1, 8):
        for i, g in enumerate(nonisomorphic_graphs(n)):
            h = _relabelled(g, rng.child(n).child(i))
            adj = graph_to_adj_masks(h)
            assert _refine_colors(h.adjacency) == refine_colors_by_masks(n, adj)
            assert _search(h.adjacency, _refine_colors(h.adjacency))[:2] == _search_as_oracle(h)


@given(n=st.integers(1, 9), data=st.data())
def test_search_matches_the_unpruned_search_on_drawn_graphs(n, data):
    pairs = list(combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, tuple(edges))
    assert _refine_colors(g.adjacency) == refine_colors_by_masks(n, graph_to_adj_masks(g))
    assert _search(g.adjacency, _refine_colors(g.adjacency))[:2] == _search_as_oracle(g)


def test_search_matches_the_unpruned_search_on_symmetric_graphs():
    # each under several labellings: which automorphisms the search finds
    # first, and so what it prunes, depends on the labelling
    rng = Rng(31)
    for gi, g in enumerate([*_symmetric_graphs(), cycle(8), _cube(), _petersen()]):
        for i in range(8):
            h = _relabelled(g, rng.child(gi).child(i))
            assert _search(h.adjacency, _refine_colors(h.adjacency))[:2] == _search_as_oracle(h)


def test_the_degree_test_passes_exactly_the_masks_that_give_the_new_vertex_maximum_degree(
        monkeypatch):
    # one refinement per parent, for the search that finds its automorphisms,
    # and one per orbit of the parent's automorphisms on the masks that pass
    refined = []
    real_refine = corpus._refine_colors

    def counting(nbrs):
        refined.append(nbrs)
        return real_refine(nbrs)

    monkeypatch.setattr(corpus, "_refine_colors", counting)
    nonisomorphic_graphs.cache_clear()
    nonisomorphic_graphs(6)
    expect = 0
    for n in range(2, 7):
        for parent in nonisomorphic_graphs(n - 1):
            degree = [parent.degree(v) for v in range(n - 1)]
            passing = [mask for mask in range(1 << n - 1)
                       if all(d + (mask >> v & 1) <= bin(mask).count("1")
                              for v, d in enumerate(degree))]
            orbits = {frozenset(sum(1 << p[v] for v in range(n - 1) if mask >> v & 1)
                                for p in _brute_automorphisms(parent))
                      for mask in passing}
            expect += 1 + len(orbits)
    assert len(refined) == expect
