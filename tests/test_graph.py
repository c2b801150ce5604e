from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import networkx as nx

from rigidkit import (
    Graph,
    GraphError,
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
    parse_edge_list,
    path,
    two_separation,
    two_sum,
    vertex_connectivity,
    wheel,
)
from rigidkit import graph as graph_module
from rigidkit.corpus import random_graph
from rigidkit.field import Rng
from oracles import local_connectivity_brute, min_mixed_cut_brute, vertex_connectivity_brute


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


class TestOneNetworkPerCall:
    """Each cut query builds one vertex-split network and runs every vertex
    pair it examines on that network."""

    @pytest.mark.parametrize("query", [
        min_mixed_cut,
        vertex_connectivity,
        lambda g: is_k_connected(g, 3),
    ], ids=["min_mixed_cut", "vertex_connectivity", "is_k_connected_3"])
    def test_one_network_per_call(self, monkeypatch, query):
        built = []
        build = graph_module._split_network

        def counting(*args, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(graph_module, "_split_network", counting)
        query(icosahedron())
        assert len(built) == 1


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
