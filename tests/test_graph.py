from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from rigidkit import (
    Graph,
    GraphError,
    MixedCut,
    ParseError,
    TwoSumSpec,
    complete,
    complete_bipartite,
    cone,
    cycle,
    generate,
    icosahedron,
    icosahedron_braced,
    is_k_connected,
    k4e_chain,
    local_connectivity,
    min_mixed_cut,
    mixed_cut_cost,
    parse_edge_list,
    path,
    two_separation,
    two_sum,
    vertex_connectivity,
    wheel,
)
from rigidkit import graph as graph_module
from rigidkit.graph import _blocks, articulation_points, find_cycle
from rigidkit.corpus import all_graphs, random_graph, random_graph_with_edges
from rigidkit.field import Rng
from oracles import (
    articulation_points_by_own_dfs,
    find_cycle_by_own_dfs,
    is_k_connected_all_pairs,
    local_connectivity_brute,
    max_flow_by_bfs,
    min_mixed_cut_all_pairs,
    min_mixed_cut_brute,
    vertex_connectivity_all_pairs,
    vertex_connectivity_brute,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


class TestGraphBasics:
    def test_canonical_edge_order(self):
        g = Graph(4, ((3, 1), (0, 2), (1, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 1),))

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    @pytest.mark.parametrize("build", [lambda: Graph(2, [(True, False)]), lambda: Graph(True)],
                             ids=["bool endpoints", "bool vertex count"])
    def test_rejects_bools(self, build):
        # a bool passes isinstance(x, int), but it serializes as "True" or
        # "False", which parse_edge_list cannot read back
        with pytest.raises(GraphError, match="must be (an int|ints)"):
            build()

    def test_delete_vertex_relabels(self):
        g = path(4).delete_vertex(1)
        assert g.n == 3 and g.edges == ((1, 2),)

    def test_induced(self):
        g = complete(5).induced([4, 0, 2])
        assert g == complete(3)

    @given(n=st.integers(1, 9), data=st.data())
    def test_components_without_vertices_and_edges_match_the_induced_route(self, n, data):
        pairs = list(combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(e for e, k in zip(pairs, keep) if k))
        without = data.draw(st.sets(st.integers(0, n - 1)))
        # each edge is kept, cut as (u, v) or cut written as (v, u)
        how = data.draw(st.lists(st.sampled_from(("keep", "cut", "cut reversed")),
                                 min_size=g.m, max_size=g.m))
        cut = [(b, a) if h == "cut reversed" else (a, b)
               for (a, b), h in zip(g.edges, how) if h != "keep"]
        rest = [w for w in range(n) if w not in without]
        kept = tuple(e for e, h in zip(g.edges, how) if h == "keep")
        pruned = Graph(n, kept).induced(rest)
        expected = [[rest[i] for i in comp] for comp in pruned.connected_components()]
        assert g.connected_components(without, cut) == expected

    @pytest.mark.parametrize("label", [-1, 4])
    def test_components_refuse_a_deleted_vertex_outside_the_graph(self, label):
        # -1 would silently index vertex 3 from the end; 4 would overrun
        with pytest.raises(GraphError, match="out of range"):
            path(4).connected_components(without=(label,))

    @pytest.mark.parametrize("edge", [(7, 8), (0, 2), (3, 0)])
    def test_components_refuse_a_cut_edge_outside_the_graph(self, edge):
        # a cut edge the graph lacks cuts nothing, so it was ignored silently
        with pytest.raises(GraphError, match="not in graph"):
            path(4).connected_components(cut_edges=(edge,))


class TestParse:
    def test_triangle(self):
        assert parse_edge_list("3 3\n0 1\n1 2\n0 2") == complete(3)

    def test_single_edge(self):
        assert parse_edge_list("2 1\n0 1") == complete(2)

    def test_k4(self):
        text = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3"
        assert parse_edge_list(text) == complete(4)

    def test_round_trip(self):
        g = icosahedron_braced()
        assert parse_edge_list(g.serialize()) == g

    @given(st.integers(1, 7), st.integers(0, 2**21 - 1))
    def test_round_trip_random(self, n, mask):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph(n, tuple(p for b, p in enumerate(pairs) if mask >> b & 1))
        assert parse_edge_list(g.serialize()) == g

    @given(st.integers(0, 4) | st.booleans(),
           st.lists(st.tuples(st.integers(0, 3) | st.booleans(),
                              st.integers(0, 3) | st.booleans()), max_size=6))
    def test_every_accepted_graph_round_trips(self, n, edges):
        # whatever the constructor accepts, labels included, reads back
        try:
            g = Graph(n, edges)
        except GraphError:
            return
        text = g.serialize()
        assert parse_edge_list(text) == g and parse_edge_list(text).serialize() == text

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("3\n0 1", 1),
        ("3 2\n0 1", 3),
        ("3 1\n0 0", 2),
        ("3 1\n0 5", 2),
        ("3 2\n0 1\n1 0", 3),
        ("3 1\n0 1\n1 2", 3),
        ("2 1\nab cd", 2),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert exc.value.line == line


class TestGenerators:
    def test_complete_bipartite_counts(self):
        g = complete_bipartite(3, 4)
        assert (g.n, g.m) == (7, 12)

    def test_icosahedron(self):
        g = icosahedron()
        assert (g.n, g.m) == (12, 30)
        assert all(g.degree(v) == 5 for v in range(12))

    def test_icosahedron_is_the_icosahedron(self):
        # maximal planar (m = 3n - 6) and 5-regular on 12 vertices pins the
        # graph down uniquely
        g = icosahedron()
        assert g.m == 3 * g.n - 6
        assert nx.check_planarity(to_nx(g))[0]

    def test_icosahedron_braced_counts(self):
        g = icosahedron_braced()
        assert (g.n, g.m) == (12, 31)
        assert g.m == 3 * g.n - 5
        assert g.min_degree() == 5
        # the bracing edge joins a pair at distance two in the skeleton
        assert g.has_edge(0, 6) and not icosahedron().has_edge(0, 6)

    def test_k4e_chain_counts(self):
        for blocks in (1, 2, 3, 4):
            g = k4e_chain(blocks)
            assert (g.n, g.m) == (2 * blocks + 2, 5 * blocks)
        assert not k4e_chain(3).has_edge(0, 1)

    def test_wheel_is_cone_of_cycle(self):
        assert wheel(4) == cone(cycle(4))
        assert (wheel(4).n, wheel(4).m) == (5, 8)

    def test_generate_dispatch(self):
        assert generate("complete_bipartite", 3, 4) == complete_bipartite(3, 4)
        with pytest.raises(GraphError):
            generate("moebius")
        with pytest.raises(GraphError):
            generate("cycle", 2)
        with pytest.raises(GraphError):
            generate("cycle", 3, 4)


class TestCone:
    def test_cone_of_complete(self):
        assert cone(complete(3)) == complete(4)

    def test_cone_of_single_vertex(self):
        assert cone(Graph(1)) == complete(2)

    def test_cone_degree(self):
        g = cone(cycle(5))
        assert g.degree(5) == 5
        assert g.m == 10


class TestTwoSum:
    def test_two_k4(self):
        g = two_sum(complete(4), complete(4))
        assert (g.n, g.m) == (6, 10)

    def test_two_triangles_make_c4(self):
        g = two_sum(complete(3), complete(3))
        assert g == Graph(4, ((0, 2), (0, 3), (1, 2), (1, 3)))
        assert sorted(g.degree(v) for v in range(4)) == [2, 2, 2, 2]

    def test_k4_k3(self):
        g = two_sum(complete(4), complete(3))
        assert (g.n, g.m) == (5, 7)

    def test_missing_designated_edge(self):
        with pytest.raises(GraphError):
            two_sum(cycle(4), complete(3), TwoSumSpec((0, 2), (0, 1)))

    def test_round_trip_through_separation(self):
        for a, b in [(complete(4), complete(4)), (complete(4), wheel(4))]:
            g = two_sum(a, b, TwoSumSpec(a.edges[0], b.edges[0]))
            u, v = a.edges[0]
            p1, p2 = two_separation(g, u, v, add_edge=True)
            assert p1 == a
            assert p2.n == b.n and p2.m == b.m

    def test_round_trip_random_operands(self):
        # random connected operands whose interiors stay connected after
        # removing the designated endpoints glue and split back exactly
        rng = Rng(808)
        done = 0
        i = 0
        while done < 10:
            i += 1
            sub = rng.child(i)
            a = random_graph(5, 0.7, sub.child(0))
            b = random_graph(5, 0.7, sub.child(1))
            if not (a.edges and b.edges):
                continue
            ea, eb = a.edges[0], b.edges[0]

            def interior_ok(g, e):
                rest = [w for w in range(g.n) if w not in e]
                return g.is_connected() and g.induced(rest).is_connected() \
                    and len(rest) > 0
            if not (interior_ok(a, ea) and interior_ok(b, eb)):
                continue
            g = two_sum(a, b, TwoSumSpec(ea, eb))
            p1, p2 = two_separation(g, ea[0], ea[1], add_edge=True)
            assert p1 == a
            # second piece equals b after relabeling by sorted vertex order
            assert (p2.n, p2.m) == (b.n, b.m)
            done += 1


class TestTwoSeparation:
    def test_c4_splits_into_triangles(self):
        p1, p2 = two_separation(cycle(4), 0, 2, add_edge=True)
        assert p1 == complete(3) and p2 == complete(3)

    def test_cleaving_removes_the_edge_first(self):
        g = two_sum(complete(4), complete(4)).add_edge(0, 1)
        p1, p2 = two_separation(g, 0, 1, add_edge=True)
        assert p1 == complete(4) and p2 == complete(4)

    def test_non_separating_pair_rejected(self):
        with pytest.raises(GraphError):
            two_separation(path(3), 0, 2, add_edge=False)


class TestLocalConnectivity:
    def test_k4_adjacent_pair(self):
        assert local_connectivity(complete(4), 0, 1) == 3

    def test_c5_nonadjacent_pair(self):
        assert local_connectivity(cycle(5), 0, 2) == 2

    def test_star_leaves(self):
        assert local_connectivity(complete_bipartite(1, 3), 1, 2) == 1

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError):
            local_connectivity(complete(3), 1, 1)

    def test_matches_brute_force_small(self, graphs_by_n):
        for g in graphs_by_n[5]:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert local_connectivity(g, u, v) == \
                        local_connectivity_brute(g, u, v)

    def test_matches_brute_force_random(self):
        rng = Rng(2024)
        for i in range(15):
            g = random_graph(6 + i % 3, 0.5, rng.child(i))
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert local_connectivity(g, u, v) == \
                        local_connectivity_brute(g, u, v)


class TestVertexConnectivity:
    def test_complete(self):
        assert vertex_connectivity(complete(4)) == 3

    def test_cycle(self):
        assert vertex_connectivity(cycle(6)) == 2

    def test_icosahedron(self):
        assert vertex_connectivity(icosahedron()) == 5

    def test_small_n_rejected(self):
        with pytest.raises(GraphError):
            vertex_connectivity(Graph(1))

    def test_matches_networkx_and_brute(self, graphs_by_n):
        for g in graphs_by_n[5]:
            ours = vertex_connectivity(g)
            assert ours == vertex_connectivity_brute(g)
            assert ours == nx.node_connectivity(to_nx(g))

    def test_matches_networkx_random(self):
        rng = Rng(555)
        for i in range(20):
            g = random_graph(7, 0.55, rng.child(i))
            assert vertex_connectivity(g) == nx.node_connectivity(to_nx(g))


class TestMinMixedCut:
    def test_k4(self):
        assert min_mixed_cut(complete(4)).cost == 3

    def test_c4_cuts_two_edges(self):
        cut = min_mixed_cut(cycle(4))
        assert cut.cost == 2
        assert len(cut.vertices) == 0 and len(cut.edges) == 2

    def test_k7_witnesses_mixed_6_connected(self):
        assert min_mixed_cut(complete(7)).cost == 6

    def test_disconnected_costs_zero(self):
        g = complete(3).disjoint_union(complete(3))
        assert min_mixed_cut(g).cost == 0

    def test_complete_graphs_isolate_a_vertex(self):
        for n in (2, 3, 5):
            cut = min_mixed_cut(complete(n))
            assert cut.cost == n - 1
            assert not cut.vertices and len(cut.edges) == n - 1

    def test_cut_edges_never_touch_cut_vertices(self, graphs_by_n):
        for g in graphs_by_n[6][:60]:
            if g.n < 2:
                continue
            cut = min_mixed_cut(g)
            s = set(cut.vertices)
            assert all(a not in s and b not in s for a, b in cut.edges)
            assert cut.disconnects(g)

    def test_matches_brute_force(self, graphs_by_n):
        for g in graphs_by_n[5]:
            assert min_mixed_cut(g).cost == min_mixed_cut_brute(g)

    def test_matches_brute_force_n6_random(self):
        rng = Rng(31337)
        for i in range(25):
            g = random_graph(6, 0.5, rng.child(i))
            assert min_mixed_cut(g).cost == min_mixed_cut_brute(g)

    def test_matches_brute_force_n7_random(self):
        rng = Rng(31338)
        for i in range(10):
            g = random_graph(7, 0.45 + (i % 3) * 0.2, rng.child(i))
            assert min_mixed_cut(g).cost == min_mixed_cut_brute(g)

    def test_sandwich_against_vertex_connectivity(self, graphs_by_n):
        # ceil(cost/2) <= kappa <= cost on non-complete graphs
        for g in graphs_by_n[6][:80]:
            if g.n < 2 or g.is_complete():
                continue
            cost = min_mixed_cut(g).cost
            kappa = vertex_connectivity(g)
            assert (cost + 1) // 2 <= kappa <= cost


class TestMixedCutInput:
    @pytest.mark.parametrize("vertices, edges, cost", [
        ((1, 1), (), 4),                 # one vertex counted twice
        ((), ((0, 1), (0, 1)), 2),
        ((), ((0, 1), (1, 0)), 2),       # one edge written both ways
    ])
    def test_a_repeated_vertex_or_edge_is_refused(self, vertices, edges, cost):
        with pytest.raises(GraphError, match="repeats"):
            MixedCut(vertices, edges, cost)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_disconnects_refuses_a_vertex_outside_the_graph(self, label):
        with pytest.raises(GraphError, match="out of range"):
            MixedCut((label,), (), 2).disconnects(path(4))

    def test_disconnects_refuses_an_edge_outside_the_graph(self):
        with pytest.raises(GraphError, match="not in graph"):
            MixedCut((), ((0, 9),), 1).disconnects(path(4))

    def test_disconnects_reads_the_cut_in_the_graph_labels(self):
        assert MixedCut((1,), (), 2).disconnects(path(4))
        assert not MixedCut((3,), (), 2).disconnects(path(4))


class TestOneNetworkPerCall:
    """Each cut query builds one vertex-split network and runs every vertex
    pair it examines on that network."""

    @pytest.mark.parametrize("query", [
        min_mixed_cut,
        mixed_cut_cost,
        vertex_connectivity,
        lambda g: is_k_connected(g, 3),
    ], ids=["min_mixed_cut", "mixed_cut_cost", "vertex_connectivity", "is_k_connected_3"])
    def test_one_network_per_call(self, monkeypatch, query):
        built = []
        build = graph_module._split_network

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(graph_module, "_split_network", counting)
        query(icosahedron())
        assert len(built) == 1


@st.composite
def cut_query_graphs(draw):
    """Graphs on 2 to 16 vertices: G(n, p) at any density, complete, or
    complete less one edge, beside up to four isolated vertices or a second
    G(n, p) component."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("random", "complete", "complete-less-edge")))
    if shape == "random":
        g = random_graph(n, draw(st.floats(0, 1)), Rng(draw(st.integers(0, 2**32))))
    else:
        g = complete(n)
        if shape == "complete-less-edge" and g.m:
            g = g.delete_edge(draw(st.sampled_from(g.edges)))
    beside = draw(st.sampled_from(("none", "isolated", "component")))
    if beside == "isolated":
        g = g.disjoint_union(Graph(draw(st.integers(0, min(4, 16 - n)))))
    elif beside == "component":
        k = draw(st.integers(1, 16 - n))
        g = g.disjoint_union(random_graph(k, draw(st.floats(0, 1)),
                                          Rng(draw(st.integers(0, 2**32)))))
    if g.n < 2:
        g = g.disjoint_union(Graph(2 - g.n))
    return g


@st.composite
def hub_graphs(draw):
    """A hub vertex joined to three vertices of each of two cliques on 8 or
    9 vertices, then up to two edges between the cliques and up to three
    edges deleted anywhere, with the labels shuffled. Before the deletions
    the hub has the least degree and is the only minimum cut, with the
    edges between the cliques: its own pairs read one more, and only a pair
    of its neighbours in different cliques certifies the cost."""
    sizes = [draw(st.integers(8, 9)) for _ in range(2)]
    n = 1 + sum(sizes)
    blocks = [list(range(1, 1 + sizes[0])), list(range(1 + sizes[0], n))]
    edges = set()
    for block in blocks:
        edges |= set(combinations(block, 2))
        edges |= {(0, w) for w in draw(st.lists(st.sampled_from(block), min_size=3,
                                                 max_size=3, unique=True))}
    edges |= set(draw(st.lists(st.tuples(st.sampled_from(blocks[0]), st.sampled_from(blocks[1])),
                               max_size=2)))
    edges -= set(draw(st.lists(st.sampled_from(sorted(edges)), max_size=3)))
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple({tuple(sorted((label[u], label[v]))) for u, v in edges}))


class TestAgainstAllPairs:
    """The cut queries examine only the pairs that can certify their answer;
    they must agree with the loops over every pair that they replaced."""

    @settings(max_examples=150)
    @given(cut_query_graphs())
    def test_min_mixed_cut_returns_the_same_cut(self, g):
        ours, old = min_mixed_cut(g), min_mixed_cut_all_pairs(g)
        assert (ours.vertices, ours.edges, ours.cost) == (old.vertices, old.edges, old.cost)

    @settings(max_examples=60)
    @given(hub_graphs())
    def test_min_mixed_cut_through_a_cheap_hub(self, g):
        ours, old = min_mixed_cut(g), min_mixed_cut_all_pairs(g)
        assert (ours.vertices, ours.edges, ours.cost) == (old.vertices, old.edges, old.cost)

    @settings(max_examples=150)
    @given(cut_query_graphs())
    def test_vertex_connectivity(self, g):
        ours = vertex_connectivity(g)
        assert ours == vertex_connectivity_all_pairs(g)
        assert ours == nx.node_connectivity(to_nx(g))

    @settings(max_examples=150)
    @given(cut_query_graphs())
    def test_is_k_connected(self, g):
        for k in range(1, 7):
            assert is_k_connected(g, k) == is_k_connected_all_pairs(g, k), k


def cliques_on_a_cut_vertex(size: int, joins: int) -> Graph:
    """Two K_size (on 1..size and size+1..2*size), each joined to vertex 0
    by ``joins`` edges: vertex 0 is the only minimum separator."""
    edges = []
    for base in (1, size + 1):
        edges += [(0, base + i) for i in range(joins)]
        edges += [(base + a, base + b) for a, b in combinations(range(size), 2)]
    return Graph(2 * size + 1, tuple(edges))


class TestSeparatorPairs:
    """The pair sets the cut queries run their flows over."""

    @pytest.mark.parametrize("size, joins", [(7, 3), (5, 2)])
    def test_least_degree_vertex_in_the_only_minimum_separator(self, size, joins):
        # Vertex 0 has the least (degree, label): (6, 0) with K7s, (4, 0)
        # with K5s. Only a pair of its neighbours in different cliques is
        # separated by {0}; the pairs through 0 alone would read ``joins``.
        g = cliques_on_a_cut_vertex(size, joins)
        assert vertex_connectivity(g) == 1 == nx.node_connectivity(to_nx(g))

    def test_k_connectivity_decided_by_the_neighbour_pairs(self):
        g = cliques_on_a_cut_vertex(7, 3)
        assert g.min_degree() >= 3 and g.is_connected()
        assert not is_k_connected(g, 3)

    def test_min_mixed_cut_cuts_the_least_degree_vertex(self):
        # Vertex 0, of least (degree, label), is the only minimum cut. Its
        # own pairs read 3 at best (three joins into a clique), isolating
        # it costs 6, and a pair of its neighbours in different cliques
        # finds the cost 2.
        cut = min_mixed_cut(cliques_on_a_cut_vertex(7, 3))
        assert (cut.vertices, cut.edges, cut.cost) == ((0,), (), 2)

    def test_min_mixed_cut_runs_the_source_at_the_bound(self):
        # Two K6s glued along {0, 1}: sources 0 and 1 reach cost 5 at best,
        # and source 2 = floor(4 / 2) finds the cut {0, 1} of cost 4.
        edges = set(combinations((0, 1, 2, 3, 4, 5), 2)) | set(combinations((0, 1, 6, 7, 8, 9), 2))
        cut = min_mixed_cut(Graph(10, tuple(edges)))
        assert (cut.vertices, cut.edges, cut.cost) == ((0, 1), (), 4)

    def test_min_mixed_cut_runs_the_certifying_pairs_then_the_scan(self, flows):
        g = random_graph_with_edges(60, 300, Rng(60300))
        cost = min_mixed_cut(g).cost
        ran = list(flows)
        # the scan: pairs in lexicographic order up to the first whose
        # flow is the cost
        net = graph_module._split_network(g, vertex_cap=2)
        scan = []
        for s, t in combinations(range(g.n), 2):
            scan.append((2 * s + 1, 2 * t))
            if net.max_flow(2 * s + 1, 2 * t) == cost:
                break
        assert ran[len(ran) - len(scan):] == scan
        assert len(ran) - len(scan) <= (g.n - 1) + comb(g.min_degree(), 2)
        # seed-fixed: 65 certifying flows and 34 in the scan, where the
        # source-bounded loop over every later vertex ran 174
        assert (cost, len(ran)) == (4, 99)

    def test_the_cost_alone_runs_the_certifying_pairs(self, flows):
        g = random_graph_with_edges(60, 300, Rng(60300))
        assert mixed_cut_cost(g) == 4
        # seed-fixed: the 65 certifying flows of min_mixed_cut, no scan
        assert len(flows) == 65
        # with a bound that no cut undercuts, the same flows capped lower
        # (only a flow of 0 ends the proof early) and no scan
        for below in (4, 3):
            flows.clear()
            assert min_mixed_cut(g, below=below) is None and len(flows) == 65
        flows.clear()
        assert min_mixed_cut(g, below=5).cost == 4 and len(flows) == 99

    def test_flow_scans_stop_at_a_zero_flow(self, flows):
        # two disjoint triangles: the first pair across them has flow 0, and
        # no capped flow runs after it; the mixed cut's scan then stops at
        # the first pair whose flow is 0
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        assert vertex_connectivity(g) == 0 and flows == [(1, 6)]
        flows.clear()
        assert min_mixed_cut(g).cost == 0
        assert flows == [(1, 2), (1, 4), (1, 6), (1, 2), (1, 4), (1, 6)]
        flows.clear()
        assert vertex_connectivity(Graph(2)) == 0 and flows == [(1, 2)]

    def test_is_k_connected_runs_the_esfahanian_hakimi_pairs(self, flows):
        g = icosahedron()
        delta = g.min_degree()
        assert is_k_connected(g, 5)
        assert 0 < len(flows) <= (g.n - 1 - delta) + comb(delta, 2)


class TestFlowKernel:
    """The depth-first augmenting paths of ``_FlowNet.max_flow`` against the
    breadth-first kernel they replaced."""

    @settings(max_examples=100)
    @given(cut_query_graphs(), st.sampled_from((1, 2)), st.one_of(st.none(), st.integers(0, 6)))
    def test_same_flows_and_residual_source_sides(self, g, vertex_cap, limit):
        ours = graph_module._split_network(g, vertex_cap)
        old = graph_module._split_network(g, vertex_cap)
        for s, t in permutations(range(g.n), 2):
            flow = ours.max_flow(2 * s + 1, 2 * t, limit)
            assert flow == max_flow_by_bfs(old, 2 * s + 1, 2 * t, limit), (s, t)
            # a flow below its cap is maximum: the source side of the
            # minimal minimum cut is then the same for any augmenting paths
            if limit is None or flow < limit:
                assert ours.reachable(2 * s + 1) == old.reachable(2 * s + 1), (s, t)

    def test_a_long_path_does_not_recurse(self):
        g = path(3000)
        assert local_connectivity(g, 0, 2999) == 1
        assert local_connectivity(g.add_edge(0, 2999), 0, 2999) == 2


class TestCostOnly:
    """The cost proof without the decoding scan: ``mixed_cut_cost`` and
    ``min_mixed_cut`` with a bound, which caps the proof there."""

    @settings(max_examples=150)
    @given(cut_query_graphs(), st.one_of(st.none(), st.integers(0, 16)))
    def test_capped_cost_and_bounded_cut(self, g, cap):
        cut = min_mixed_cut(g)
        assert mixed_cut_cost(g) == cut.cost
        net = graph_module._split_network(g, vertex_cap=2)
        capped = graph_module._mixed_cost(g, net, cap)
        assert capped == (cut.cost if cap is None else min(cap, cut.cost))
        bounded = min_mixed_cut(g, below=cap)
        if cap is not None and cut.cost >= cap:
            assert bounded is None
        else:
            assert bounded == cut

    def test_rejects_fewer_than_two_vertices(self):
        with pytest.raises(GraphError):
            mixed_cut_cost(Graph(1))


class TestMixedCutInternalChecks:
    """The flow layer's internal checks raise real exceptions, so they run
    under ``python -O`` too."""

    def test_a_wrongly_decoded_cut_raises(self, monkeypatch):
        # a residual network that reaches only the source's out-node
        # decodes to the edges at the source, six or more, not the flow 2
        monkeypatch.setattr(graph_module._FlowNet, "reachable", lambda net, s: {s})
        with pytest.raises(AssertionError, match="decoded cut cost differs"):
            min_mixed_cut(cliques_on_a_cut_vertex(7, 3))

    def test_a_scan_without_a_minimum_pair_raises(self, monkeypatch):
        monkeypatch.setattr(graph_module._FlowNet, "max_flow",
                            lambda net, s, t, limit=None: limit)
        with pytest.raises(AssertionError, match="no vertex pair was separated"):
            min_mixed_cut(cycle(5))

    def test_a_cut_that_does_not_disconnect_raises(self, monkeypatch):
        monkeypatch.setattr(graph_module.MixedCut, "disconnects", lambda cut, g: False)
        with pytest.raises(AssertionError, match="does not disconnect"):
            min_mixed_cut(cycle(5))


class TestFindCycle:
    def test_exhaustive_small(self, graphs_by_n):
        from rigidkit.graph import find_cycle

        for n in range(1, 7):
            for g in graphs_by_n[n]:
                has_cycle = g.m > g.n - len(g.connected_components())
                cyc = find_cycle(g)
                assert has_cycle == (cyc is not None), g
                if cyc is not None:
                    assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
                    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                        assert g.has_edge(a, b)


class TestOneDepthFirstSearch:
    """``articulation_points`` and ``find_cycle`` read one ``_dfs``; they
    must agree with the DFS loop that each of them ran on its own before.
    ``_blocks`` reads it too: a non-edge shares a block exactly when two
    internally disjoint paths join its ends."""

    @staticmethod
    def checked_non_edges(g):
        blocks = _blocks(g)
        assert all(blocks[u] & blocks[v] for u, v in g.edges)
        for u, v in combinations(range(g.n), 2):
            if not g.has_edge(u, v):
                assert bool(blocks[u] & blocks[v]) == (local_connectivity(g, u, v, limit=2) >= 2)
                yield u, v

    def test_blocks_match_two_disjoint_paths_on_small_graphs(self, graphs_by_n):
        # every labeled graph with n <= 5, every class with n = 6 and n = 7
        graphs = [g for n in range(1, 6) for g in all_graphs(n)] + \
            list(graphs_by_n[6]) + list(graphs_by_n[7])
        assert sum(1 for g in graphs for _ in self.checked_non_edges(g)) == 17457

    @settings(max_examples=150)
    @given(cut_query_graphs())
    def test_blocks_match_two_disjoint_paths_on_drawn_graphs(self, g):
        for _ in self.checked_non_edges(g):
            pass

    @settings(max_examples=150)
    @given(cut_query_graphs())
    def test_cut_vertices_match_the_old_loop_and_networkx(self, g):
        ours = articulation_points(g)
        assert ours == articulation_points_by_own_dfs(g)
        assert ours == set(nx.articulation_points(to_nx(g)))

    @settings(max_examples=150)
    @given(cut_query_graphs())
    def test_a_cycle_is_found_exactly_when_the_old_loop_finds_one(self, g):
        cyc = find_cycle(g)
        assert (cyc is None) == (find_cycle_by_own_dfs(g) is None)
        assert (cyc is None) == (g.m == g.n - len(g.connected_components()))
        if cyc is not None:
            assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
            assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))

    def test_a_long_path_does_not_recurse(self):
        g = path(5000)
        assert articulation_points(g) == set(range(1, 4999))
        assert find_cycle(g) is None
        cyc = find_cycle(g.add_edge(0, 4999))
        assert sorted(cyc) == list(range(5000))
