from dataclasses import replace
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from rigidkit import (
    ExtractionError,
    Graph,
    complete,
    complete_bipartite,
    conditional_grn_bound,
    cycle,
    estimate_grn,
    globally_rigid_subgraph_2d,
    is_globally_rigid,
    is_redundantly_globally_rigid,
    k4e_chain,
    min_mixed_cut,
    mixed_k_connected_subgraph,
    replay_trace,
)
from rigidkit.corpus import random_graph, random_graph_with_edges
from rigidkit.field import Rng
from rigidkit.extract import CutSplit, DeleteVertex, _iterated_core, _mader_descent


def assert_witness_maps_into(g: Graph, est) -> None:
    assert len(est.witness_vertices) == est.witness.n
    for a, b in est.witness.edges:
        assert g.has_edge(est.witness_vertices[a], est.witness_vertices[b])


def k7_with_pendant_path() -> Graph:
    return Graph(10, complete(7).edges + ((0, 7), (7, 8), (8, 9)))


def two_dense_blocks(rng: Rng) -> Graph:
    """Two G(n, 0.9) blocks of 8 to 14 vertices each, joined by 1 to 3
    random cross edges: dense enough for the premise, yet cheap to cut."""
    a = 8 + rng.next_u64() % 7
    b = 8 + rng.next_u64() % 7
    g = random_graph(a, 0.9, rng.child(0)).disjoint_union(random_graph(b, 0.9, rng.child(1)))
    cross = {(rng.next_u64() % a, a + rng.next_u64() % b) for _ in range(1 + rng.next_u64() % 3)}
    return Graph(g.n, g.edges + tuple(cross))


class TestMixedExtraction:
    def test_k7_is_its_own_core(self):
        sub, trace = mixed_k_connected_subgraph(complete(7), 6)
        assert sub == complete(7)
        assert trace.vertices == tuple(range(7))
        assert min_mixed_cut(sub).cost >= 6

    def test_pendant_path_gets_stripped(self):
        g = k7_with_pendant_path()
        sub, trace = mixed_k_connected_subgraph(g, 6)
        assert sub == complete(7)
        assert trace.vertices == tuple(range(7))
        reasons = [s.reason for s in trace.steps if isinstance(s, DeleteVertex)]
        assert reasons and all(r == "degree" for r in reasons)

    def test_k5_for_k4(self):
        sub, _ = mixed_k_connected_subgraph(complete(5), 4)
        assert sub == complete(5)

    def test_odd_k_promotes(self):
        sub, trace = mixed_k_connected_subgraph(complete(7), 5)
        assert trace.promoted and trace.k == 6 and trace.requested_k == 5
        assert min_mixed_cut(sub).cost >= 5

    def test_premise_violation_cites_inequality(self):
        with pytest.raises(ExtractionError) as exc:
            mixed_k_connected_subgraph(cycle(8), 4)
        assert "premise violated" in str(exc.value)

    def test_too_few_vertices(self):
        with pytest.raises(ExtractionError):
            mixed_k_connected_subgraph(complete(4), 6)

    def test_output_always_reverifies(self):
        from rigidkit import is_k_connected

        rng = Rng(14)
        for i in range(8):
            sub_rng = rng.child(i)
            n = 8 + sub_rng.next_u64() % 6
            g = random_graph(n, 0.8, sub_rng.child(0))
            try:
                sub, trace = mixed_k_connected_subgraph(g, 4)
            except ExtractionError:
                continue
            assert min_mixed_cut(sub).cost >= 4
            assert is_k_connected(sub, 2)  # mixed k-connected => ceil(k/2)-connected
            assert replay_trace(g, trace) == sub

    def test_trace_replay_with_cut_split(self):
        # two 9-cliques sharing a single vertex satisfy the density premise
        # yet have a cost-2 mixed cut, so the walk must split at the hub
        edges = list(complete(9).edges)
        edges += [(a + 8, b + 8) for a, b in complete(9).edges]
        g = Graph(17, tuple(edges))
        sub, trace = mixed_k_connected_subgraph(g, 6)
        assert sub == complete(7)
        assert any(isinstance(s, CutSplit) for s in trace.steps)
        assert replay_trace(g, trace) == sub

    def test_split_along_a_cut_with_edges(self):
        # two 6-cliques joined by a 3-edge matching: the cheap cut holds
        # edges with an end on the dropped side, which the split drops too
        edges = list(complete(6).edges)
        edges += [(a + 6, b + 6) for a, b in complete(6).edges] + [(i, i + 6) for i in range(3)]
        g = Graph(12, tuple(sorted(edges)))
        sub, trace = mixed_k_connected_subgraph(g, 4)
        assert any(isinstance(s, CutSplit) and s.cut_edges for s in trace.steps)
        assert min_mixed_cut(sub).cost >= 4
        assert replay_trace(g, trace) == sub

    def test_splits_of_two_dense_blocks(self):
        rng = Rng(22)
        splits = 0
        for i in range(150):
            g = two_dense_blocks(rng.child(i))
            for k in (4, 6):
                try:
                    sub, trace = mixed_k_connected_subgraph(g, k)
                except ExtractionError:
                    continue
                assert replay_trace(g, trace) == sub
                assert min_mixed_cut(sub, below=k) is None
                # the graph left by a split is g on its side, minus every cut
                # edge so far; it must keep the premise
                dropped = set()
                for step in trace.steps:
                    if isinstance(step, CutSplit):
                        dropped |= set(step.cut_edges)
                        side = set(step.side)
                        m = sum(1 for e in g.edges
                                if e[0] in side and e[1] in side and e not in dropped)
                        assert len(side) >= k + 1 and 2 * m > (k - 1) * (2 * len(side) - k)
                splits += any(isinstance(s, CutSplit) for s in trace.steps)
                deleted = next(s for s in trace.steps if isinstance(s, DeleteVertex))
                twice = replace(trace, steps=trace.steps + (deleted,))
                with pytest.raises(ValueError):
                    replay_trace(g, twice)
        assert splits >= 10


class TestGloballyRigidSubgraph2d:
    def test_k7(self):
        sub, trace = globally_rigid_subgraph_2d(complete(7))
        assert sub == complete(7) and trace.vertices == tuple(range(7))

    def test_chain_returns_none(self):
        assert globally_rigid_subgraph_2d(k4e_chain(3)) is None

    def test_sparse_graph_returns_none(self):
        assert globally_rigid_subgraph_2d(random_graph(12, 0.2, Rng(3))) is None

    def test_dense_random_graphs_verify(self):
        rng = Rng(5)
        for i in range(5):
            sub_rng = rng.child(i)
            n = 8 + sub_rng.next_u64() % 8
            m = min(n * (n - 1) // 2, 5 * n - 14 + sub_rng.next_u64() % 4)
            g = random_graph_with_edges(n, m, sub_rng.child(0))
            got = globally_rigid_subgraph_2d(g)
            assert got is not None and got[0].n >= 7
            assert is_redundantly_globally_rigid(got[0], 2)

    def test_with_trace(self):
        g = random_graph_with_edges(9, 5 * 9 - 14, Rng(60))
        got = globally_rigid_subgraph_2d(g)
        assert got is not None
        sub, trace = got
        assert replay_trace(g, trace) == sub


class TestEstimateGrn:
    def test_k7_reaches_dimension_five(self):
        est = estimate_grn(complete(7), 5, Rng(1))
        assert est.lower_bound == 5
        assert est.witness == complete(7)

    def test_chain_has_only_cycles(self):
        est = estimate_grn(k4e_chain(3), 3, Rng(2))
        assert est.lower_bound == 1
        assert est.witness is not None
        assert is_globally_rigid(est.witness, 1, Rng(3))

    def test_k77_whole_graph_route(self):
        est = estimate_grn(complete_bipartite(7, 7), 4, Rng(4))
        assert est.lower_bound == 3

    def test_forest_gives_zero(self):
        est = estimate_grn(Graph(5, ((0, 1), (1, 2), (3, 4))), 2, Rng(5))
        assert est.lower_bound == 0 and est.witness is None

    def test_witnesses_are_always_certified(self):
        rng = Rng(6)
        for i in range(6):
            g = random_graph(8, 0.5, rng.child(i))
            est = estimate_grn(g, 3, rng.child(100 + i))
            if est.lower_bound:
                assert est.witness.n >= est.lower_bound + 2
                assert is_globally_rigid(est.witness, est.lower_bound,
                                         rng.child(200 + i))


    def test_cycle_witness_is_labelled_in_ring_order(self):
        g = Graph(7, ((3, 0), (0, 5), (5, 1), (1, 3), (3, 2), (2, 6), (6, 4), (4, 3)))
        est = estimate_grn(g, 1)
        assert est.lower_bound == 1
        assert_witness_maps_into(g, est)

    @given(n=st.integers(3, 10), data=st.data())
    def test_every_witness_edge_maps_to_an_input_edge(self, n, data):
        pairs = list(combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(e for e, k in zip(pairs, keep) if k))
        est = estimate_grn(g, 2, Rng(data.draw(st.integers(0, 2**32))))
        if est.lower_bound:
            assert_witness_maps_into(g, est)
        else:
            assert est.witness is None and est.witness_vertices is None

    def test_pipeline_witness_maps_into_the_input(self):
        # the pipeline candidate is labelled by the vertices its trace kept
        g = random_graph_with_edges(9, 31, Rng(64))
        sub, trace = globally_rigid_subgraph_2d(g)
        assert trace.vertices == (1, 2, 4, 5, 6, 7, 8)
        for a, b in sub.edges:
            assert g.has_edge(trace.vertices[a], trace.vertices[b])

    def test_mader_candidate_maps_into_the_input(self):
        g = k7_with_pendant_path()
        cand, labels = _mader_descent(g, 3)
        assert cand.n == len(labels) == 5
        for a, b in cand.edges:
            assert g.has_edge(labels[a], labels[b])


class TestIteratedCore:
    @given(n=st.integers(1, 10), k=st.integers(0, 5), data=st.data())
    def test_matches_the_networkx_k_core(self, n, k, data):
        pairs = list(combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(e for e, kept in zip(pairs, keep) if kept))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        assert _iterated_core(g, k) == tuple(sorted(nx.k_core(h, k)))


class TestConditionalBound:
    def test_small_graphs_floor_to_zero(self):
        assert conditional_grn_bound(complete(7)) == 0

    def test_dense_case(self):
        # 14 vertices, 84 edges: floor(sqrt(84 / 84)) = 1
        g = random_graph_with_edges(14, 84, Rng(7))
        assert conditional_grn_bound(g) == 1

    def test_formula_value(self):
        g = random_graph_with_edges(10, 45, Rng(8))
        assert conditional_grn_bound(g) == 0  # 45 // 60 == 0
