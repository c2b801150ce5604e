from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rigidkit import (
    Graph,
    GraphError,
    bridges,
    complete,
    complete_bipartite,
    cycle,
    explore_conjecture,
    globally_linked_1d,
    is_globally_linked_2d,
    is_linked,
    is_matroid_connected,
    is_redundantly_matroid_connected,
    is_redundantly_rigid,
    local_connectivity,
    path,
    two_sum,
    vertex_connectivity,
    wheel,
    TwoSumSpec,
)
from rigidkit import linked, rigidity
from rigidkit.corpus import nonisomorphic_graphs
from rigidkit.field import Rng
from rigidkit.linked import (NO, UNKNOWN, YES, CONJECTURES, CorpusSpec, PairVerdict, REASON_CIRCUIT,
                             REASON_EDGE, REASON_KAPPA)

from degenerate import DegenerateRng
from oracles import (explore_edge_loops, globally_linked_2d_per_pair, is_linked_by_ranks,
                     local_connectivity_brute)


def two_k4_sharing_a_vertex() -> Graph:
    edges = list(complete(4).edges)
    edges += [(a + 3, b + 3) for a, b in complete(4).edges]
    return Graph(7, tuple(edges))


def figure_style_operand() -> Graph:
    """Two 4-cliques sharing a hub, plus one edge joining the far sides."""
    edges = list(complete(4).edges)                      # clique on {0,1,2,3}
    edges += [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    edges.append((1, 4))
    return Graph(7, tuple(edges))


class TestIsLinked:
    def test_edges_are_linked(self):
        assert is_linked(complete(4), 0, 1, 2)

    def test_cycle_chord_is_linked_d1(self):
        assert is_linked(cycle(4), 0, 2, 1)

    def test_cut_vertex_pair_not_linked_d2(self):
        g = two_k4_sharing_a_vertex()
        assert not is_linked(g, 0, 4, 2)

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError):
            is_linked(complete(3), 2, 2, 1)

    @pytest.mark.parametrize("u, v", [(0, -1), (-2, 1), (-5, 0), (0, 5), (99, 1), (5, -1)])
    def test_vertices_out_of_range_rejected(self, u, v):
        # a negative label would otherwise index a vertex from the end
        with pytest.raises(GraphError, match="out of range"):
            is_linked(cycle(5), u, v, 2)
        with pytest.raises(GraphError, match="out of range"):
            is_globally_linked_2d(cycle(5), u, v)


@st.composite
def graphs_with_a_pair(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
    u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Graph(n, tuple(edges)), u, v


class TestLinkedAgainstRanks:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_is_linked_matches_the_rank_comparison(self, d, data):
        g, u, v = data.draw(graphs_with_a_pair())
        rng = Rng(data.draw(st.integers(0, 2**32)))
        linked = is_linked(g, u, v, d, rng.child(0))
        assert linked == is_linked_by_ranks(g, u, v, d, rng.child(1))
        if d == 1:  # the graphic matroid: linked iff one component holds u and v
            assert linked == any(u in c and v in c for c in g.connected_components())


class TestOneEliminationPerTrial:
    def test_is_linked_eliminates_at_most_trials_times(self, eliminations):
        # the sampled route, d >= 3; at d <= 2 the pebble game eliminates nothing
        assert not is_linked(two_k4_sharing_a_vertex(), 0, 4, 3, Rng(5))
        assert 1 <= len(eliminations) <= rigidity.TRIALS
        eliminations.clear()
        assert not is_linked(two_k4_sharing_a_vertex(), 0, 4, 2, Rng(5))
        assert eliminations == []

    def test_globally_linked_2d_reads_components_and_linkedness_at_once(self, eliminations,
                                                                          monkeypatch):
        games = []
        pebble = rigidity._pebble
        monkeypatch.setattr(rigidity, "_pebble", lambda *args: games.append(args) or pebble(*args))
        verdict = is_globally_linked_2d(wheel(5), 1, 3, Rng(3))
        assert verdict.reason == REASON_KAPPA and verdict.linked == {2: True}
        assert len(games) == 1 and eliminations == []

    def test_linked_gl_eliminates_at_most_trials_times_per_graph(self, eliminations):
        rep = explore_conjecture("linked-gl", 1,
                                 CorpusSpec(max_n=5, isomorph_reject=True), Rng(1))
        assert rep["counts"]["cases"] > 0
        assert len(eliminations) <= rigidity.TRIALS * rep["counts"]["graphs"]


class TestDegenerateFirstTrial:
    # on the sampled route (d >= 3; at d <= 2 no trial is drawn) trial 0 puts
    # every vertex at one point: every column is zero there, so every pair
    # looks linked, and the trial must be dropped for its short rank
    def test_is_linked_drops_the_collapsed_trial(self):
        g = two_k4_sharing_a_vertex()
        assert not is_linked(g, 0, 4, 3, DegenerateRng(5, [(0, 0)]))

    def test_circuit_route_keeps_its_witness(self):
        # K5 minus an edge plus a pendant edge: the pair closes K5, a circuit in d=3
        g = Graph(6, complete(5).edges + ((4, 5),)).delete_edge(0, 1)
        expect = is_globally_linked_2d(g, 0, 1, Rng(9))
        assert expect.reason == REASON_CIRCUIT and expect.witness == complete(5).edges
        assert is_globally_linked_2d(g, 0, 1, DegenerateRng(9, [(2, 0)])) == expect

    def test_a_short_trial_cannot_say_not_linked(self):
        # K5 plus vertex 5 on 0, 1 and 2 is rigid in d=3, so (3, 5) is
        # linked; trial 0 puts vertex 5 on vertex 0, drops the row of (0, 5),
        # and there (3, 5) is not linked
        g = Graph(6, complete(5).edges + ((0, 5), (1, 5), (2, 5)))
        assert is_linked(g, 3, 5, 3, DegenerateRng(3, [(0,)], period=15))

    def test_a_circuit_from_collapsed_trials_certifies_nothing(self):
        # every d = 3 trial collapses, so the pair's circuit is {uv} alone and
        # C - uv has neither end: "linked" (the documented error), no verdict
        got = is_globally_linked_2d(path(3), 0, 2, DegenerateRng(1, [(2, t) for t in range(3)]))
        assert got == PairVerdict(pair=(0, 2), linked={3: True})
        assert got.globally_linked == UNKNOWN


class TestGloballyLinked1d:
    def test_matches_exhaustive_menger_on_every_small_pair(self, graphs_by_n):
        # in d = 1 a pair is globally linked iff it is an edge or two
        # internally disjoint paths join it
        pairs = [(g, u, v) for n in range(1, 7) for g in graphs_by_n[n]
                 for u, v in combinations(range(n), 2)]
        assert len(pairs) == 2760
        assert [(g, u, v) for g, u, v in pairs if globally_linked_1d(g, u, v)
                != (g.has_edge(u, v) or local_connectivity_brute(g, u, v) >= 2)] == []


class TestGloballyLinked2d:
    def test_adjacent_pair(self):
        verdict = is_globally_linked_2d(complete(4), 0, 1)
        assert verdict.globally_linked == YES
        assert verdict.reason == REASON_EDGE

    def test_k34_same_side_pair(self):
        g = complete_bipartite(3, 4)
        verdict = is_globally_linked_2d(g, 3, 4)  # two degree-3 vertices
        assert verdict.globally_linked == YES
        assert verdict.reason == REASON_KAPPA
        assert local_connectivity(g, 3, 4) == 3

    def test_two_triangles_sharing_an_edge(self):
        # K4 minus an edge is independent in d=2: no circuits, hence not
        # matroid-connected, and the far pair is not linked in d=3 either;
        # the only sound verdict is "unknown"
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))
        assert not is_matroid_connected(g, 2)
        assert local_connectivity(g, 2, 3) == 2
        verdict = is_globally_linked_2d(g, 2, 3)
        assert verdict.globally_linked == UNKNOWN

    def test_kappa_threshold_no_on_connected_graph(self):
        # gluing two 4-cliques along an edge pair gives a circuit (so the
        # graph is matroid-connected), but a cross pair can only reach each
        # other through the two identified vertices
        g = two_sum(complete(4), complete(4))
        assert is_matroid_connected(g, 2)
        assert local_connectivity(g, 2, 4) == 2
        verdict = is_globally_linked_2d(g, 2, 4)
        assert verdict.globally_linked == NO
        assert verdict.reason == REASON_KAPPA

    def test_circuit_route_on_a_non_connected_graph(self):
        # K5 plus a pendant vertex: not matroid-connected in d=2 (the pendant
        # edge is a bridge), yet pairs inside the K5 are linked in d=3 and
        # certified through the fundamental circuit
        g = Graph(6, complete(5).edges + ((4, 5),))
        assert not is_matroid_connected(g, 2)
        verdict = is_globally_linked_2d(g, 0, 1)
        assert verdict.globally_linked == YES
        assert verdict.reason == REASON_EDGE  # adjacent: cheap path first
        g2 = g.delete_edge(0, 1)
        verdict = is_globally_linked_2d(g2, 0, 1)
        assert verdict.globally_linked == YES
        assert verdict.witness is not None

    def test_unknown_when_nothing_applies(self):
        g = two_k4_sharing_a_vertex()
        verdict = is_globally_linked_2d(g, 1, 4)
        assert verdict.globally_linked == UNKNOWN

    def test_yes_verdicts_carry_checkable_reasons(self, graphs_by_n):
        rng = Rng(71)
        for i, g in enumerate(graphs_by_n[5]):
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    verdict = is_globally_linked_2d(g, u, v, rng.child(100 * i + v))
                    assert verdict.globally_linked in (YES, NO, UNKNOWN)
                    if verdict.reason == REASON_KAPPA and verdict.globally_linked == YES:
                        assert local_connectivity(g, u, v) >= 3


class TestOneStepPerGraph:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_one_pair_query_matches_the_per_pair_oracle(self, data):
        g, u, v = data.draw(graphs_with_a_pair(max_n=7))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        assert is_globally_linked_2d(g, u, v, rng) == globally_linked_2d_per_pair(g, u, v, rng)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_one_step_over_all_pairs_matches_the_oracle_pair_by_pair(self, data):
        g, _, _ = data.draw(graphs_with_a_pair(max_n=7))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        pairs = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        verdicts = list(linked._globally_linked_2d(g, pairs, rng))
        assert [verdict.pair for verdict in verdicts] == pairs
        for verdict in verdicts:
            expect = globally_linked_2d_per_pair(g, *verdict.pair, rng)
            assert (verdict.globally_linked, verdict.reason) == (expect.globally_linked, expect.reason)

    def test_linked_gl_d2_counts(self, factorizations):
        # a query per pair factors some of these graphs 15 times
        corpus = {id(g) for n in range(1, 8) for g in nonisomorphic_graphs(n)}
        rep = explore_conjecture("linked-gl", 2,
                                 CorpusSpec(max_n=7, isomorph_reject=True), Rng(1729))
        assert rep["counts"] == {"graphs": 1252, "cases": 12865, "confirmed": 12865,
                                 "unknown": 0, "counterexample_candidates": 0}
        per_graph = Counter(id(g) for g in factorizations if id(g) in corpus)
        assert max(per_graph.values()) <= 2 * rigidity.TRIALS
        # the sweep factors each corpus graph at d = 3 for its own call, at
        # most TRIALS times; the step's d = 2 questions, on G and on the
        # C - uv subgraphs, go to the pebble game and factor nothing
        dims = list(zip(factorizations, factorizations.dims))
        assert Counter(d for g, d in dims if id(g) in corpus) == {3: 1341}
        assert Counter(factorizations.dims) == {3: 1341}
        per_graph_and_d = Counter((id(g), d) for g, d in dims if id(g) in corpus)
        assert max(per_graph_and_d.values()) <= rigidity.TRIALS

    def test_linked_gl_d1_counts(self, factorizations, flows):
        # d = 2 linkedness from the pebble game, and 1-D global linkedness
        # from the d = 1 components: no factorization and no flow
        rep = explore_conjecture("linked-gl", 1,
                                 CorpusSpec(max_n=7, isomorph_reject=True), Rng(1729))
        assert rep["counts"] == {"graphs": 1252, "cases": 16783, "confirmed": 16783,
                                 "unknown": 0, "counterexample_candidates": 0}
        assert factorizations == [] and flows == []

    def test_kappa_step_builds_one_network_per_graph(self, monkeypatch):
        # the matroid-connected branch asks every pair on one network
        networks = []
        split = linked._split_network
        monkeypatch.setattr(linked, "_split_network",
                            lambda g, vertex_cap: networks.append(g) or split(g, vertex_cap))
        g = two_sum(wheel(5), complete(4))
        pairs = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        verdicts = list(linked._globally_linked_2d(g, pairs, Rng(2)))
        assert {v.reason for v in verdicts} == {REASON_KAPPA} and networks == [g]
        assert [v.globally_linked for v in verdicts] == \
            [YES if local_connectivity(g, u, v) >= 3 else NO for u, v in pairs]
        assert {v.globally_linked for v in verdicts} == {YES, NO}

    def test_linked_gl_d2_asks_the_step_only_where_a_pair_is_linked(self, factorizations,
                                                                       monkeypatch):
        # the sweep's own d = 3 call, and one d = 2 step for graphs with a
        # linked non-edge pair; the C - uv subgraphs are not corpus graphs
        asked = []
        step = linked._globally_linked_2d
        monkeypatch.setattr(linked, "_globally_linked_2d",
                            lambda g, pairs, *args: asked.append(pairs) or step(g, pairs, *args))
        corpus = {id(g) for n in range(1, 7) for g in nonisomorphic_graphs(n)}
        rep = explore_conjecture("linked-gl", 2,
                                 CorpusSpec(max_n=6, isomorph_reject=True), Rng(1729))
        per_graph = Counter(id(g) for g in factorizations if id(g) in corpus)
        assert rep["counts"]["cases"] > 0 and asked and all(asked)
        assert max(per_graph.values()) <= 2 * rigidity.TRIALS


class TestTwoSumLemmas:
    def test_circuit_equivalence_both_ways(self):
        k4 = complete(4)
        w4 = two_sum(k4, k4)
        from rigidkit import is_circuit

        for a in (k4, w4):
            for b in (k4, w4):
                assert is_circuit(two_sum(a, b), 2)
        assert not is_circuit(two_sum(cycle(4), k4), 2)

    def test_connectivity_equivalence(self):
        k4 = complete(4)
        g = two_sum(k4, k4)
        assert is_matroid_connected(g, 2)
        assert is_matroid_connected(g.add_edge(0, 1), 2)
        bad = two_sum(cycle(4), k4)
        assert not is_matroid_connected(bad, 2)

    def test_redundant_connectivity_figure_example_d1(self):
        g1 = figure_style_operand()
        g2 = figure_style_operand()
        assert is_matroid_connected(g1, 1)
        assert not is_redundantly_matroid_connected(g1, 1)
        glued = two_sum(g1, g2, TwoSumSpec((1, 4), (1, 4)))
        assert glued.n == 12 and glued.m == 24
        assert is_redundantly_matroid_connected(glued, 1)
        # adding the designated edge back preserves redundant connectivity
        assert is_redundantly_matroid_connected(glued.add_edge(1, 4), 1)

    def test_redundant_connectivity_transfers_d1(self):
        k4 = complete(4)
        assert is_redundantly_matroid_connected(k4, 1)
        assert is_redundantly_matroid_connected(two_sum(k4, k4), 1)


class TestConnectivityDrops:
    def test_bridge_statement_small(self, graphs_by_n):
        # (d+1)-connected graph losing (d+1)-connectivity on an edge
        # deletion: that edge drops the rank one dimension up
        rng = Rng(61)
        for d in (1, 2):
            for i, g in enumerate(graphs_by_n[5]):
                if g.n < d + 2 or g.m == 0:
                    continue
                if vertex_connectivity(g) < d + 1:
                    continue
                upper = set(bridges(g, d + 1, rng.child(i)))
                for e in g.edges:
                    h = g.delete_edge(e)
                    if h.n >= d + 2 and vertex_connectivity(h) >= d + 1:
                        continue
                    assert e in upper, (g, e, d)

    def test_redundant_rigidity_statement_small(self, graphs_by_n):
        rng = Rng(62)
        for d in (1, 2):
            for i, g in enumerate(graphs_by_n[5]):
                if g.m == 0 or not is_redundantly_rigid(g, d, rng.child(i)):
                    continue
                upper = set(bridges(g, d + 1, rng.child(1000 + i)))
                for e in g.edges:
                    if is_redundantly_rigid(g.delete_edge(e), d, rng.child(2000 + i)):
                        continue
                    assert e in upper, (g, e, d)


class TestExplorer:
    def test_linked_gl_d1_exhaustive(self):
        rep = explore_conjecture("linked-gl", 1,
                                 CorpusSpec(max_n=6, isomorph_reject=True), Rng(1))
        assert rep["counts"]["counterexample_candidates"] == 0
        assert rep["counts"]["confirmed"] == rep["counts"]["cases"]

    def test_linked_gl_d2_small(self):
        rep = explore_conjecture("linked-gl", 2,
                                 CorpusSpec(max_n=5, isomorph_reject=True), Rng(2))
        assert rep["counts"]["counterexample_candidates"] == 0

    def test_linked_gl_high_dim_is_unknown(self):
        rep = explore_conjecture("linked-gl", 3,
                                 CorpusSpec(max_n=5, isomorph_reject=True), Rng(3))
        assert rep["counts"]["confirmed"] == 0
        assert rep["counts"]["counterexample_candidates"] == 0

    def test_redundant_mc_small(self):
        rep = explore_conjecture("redundant-mc", 1,
                                 CorpusSpec(max_n=5, isomorph_reject=True), Rng(4))
        assert rep["counts"]["counterexample_candidates"] == 0
        assert rep["counts"]["cases"] > 0

    # every trial on each graph's first stream collapses: at linked-gl those
    # are the d + 1 trials, so every non-edge looks linked there
    COLLAPSED_UPPER = [(1 + gi, 0, t) for gi in range(100) for t in range(3)]  # 52 graphs

    def test_linked_gl_d1_candidate_certificate(self, monkeypatch):
        # the paper proves d = 1, so only a stubbed d = 2 answer that calls
        # every non-edge linked gives candidates: the non-edges that the
        # blocks of G leave apart, as globally_linked_1d
        real = linked._matroid

        def every_pair_linked(g, d, trials, settled, pairs=()):
            return real(g, d, trials, settled, pairs)[:3] + (dict.fromkeys(pairs),)

        monkeypatch.setattr(linked, "_matroid", every_pair_linked)
        spec = CorpusSpec(max_n=5, isomorph_reject=True)
        rep = explore_conjecture("linked-gl", 1, spec, Rng(4))
        assert rep["counts"] == {"graphs": 52, "cases": 420, "confirmed": 247, "unknown": 0,
                                 "counterexample_candidates": 173}
        assert list(rep["candidates"][0].items()) == [
            ("graph", {"n": 2, "edges": []}), ("pair", [0, 1]),
            ("detail", "linked in dim 2 but not globally linked in dim 1")]
        assert [(c["graph"]["edges"], c["pair"]) for c in rep["candidates"]] == [
            ([list(e) for e in g.edges], [u, v]) for n in range(1, 6)
            for g in nonisomorphic_graphs(n) for u, v in combinations(range(n), 2)
            if not globally_linked_1d(g, u, v)]

    def test_linked_gl_d2_candidate_certificate(self):
        spec = CorpusSpec(max_n=5, isomorph_reject=True)
        rep = explore_conjecture("linked-gl", 2, spec, DegenerateRng(4, self.COLLAPSED_UPPER))
        assert rep["counts"] == {"graphs": 52, "cases": 400, "confirmed": 213, "unknown": 167,
                                 "counterexample_candidates": 20}
        assert list(rep["candidates"][0].items()) == [
            ("graph", {"n": 3, "edges": [[1, 2]]}), ("pair", [0, 1]), ("reason", REASON_KAPPA),
            ("detail", "linked in dim 3 but globally-linked oracle says no")]

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_linked_gl_d2_survives_collapsed_upper_trials(self, period):
        # a circuit read off collapsed d = 3 trials may leave u or v out of C - uv
        spec = CorpusSpec(max_n=5, isomorph_reject=True)
        rng = DegenerateRng(4, self.COLLAPSED_UPPER, period=period)
        c = explore_conjecture("linked-gl", 2, spec, rng)["counts"]
        assert c["graphs"] == 52 and c["unknown"] > 0

    @pytest.mark.parametrize("kind", CONJECTURES)
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_cases_are_confirmed_unknown_or_candidates(self, kind, dim, degenerate):
        spec = CorpusSpec(max_n=5, isomorph_reject=True)
        rng = DegenerateRng(4, self.COLLAPSED_UPPER) if degenerate else Rng(4)
        c = explore_conjecture(kind, dim, spec, rng)["counts"]
        assert c["cases"] == c["confirmed"] + c["unknown"] + c["counterexample_candidates"]

    # dense graphs on 7 vertices, matroid-connected in d = 4; their
    # deletions are tested on the sampled route at d = 3, where a degenerate
    # stream can reach them
    DENSE = CorpusSpec(mode="random", count=8, n=7, edge_prob=0.9)

    def test_redundant_mc_candidate_lists_the_edges_behind_its_verdict(self):
        # the deletion of each graph's first edge is tested on a degenerate
        # stream, so every case fails there, and only there
        rng = DegenerateRng(4, [(1 + gi, 1, 0) for gi in range(8)])
        rep = explore_conjecture("redundant-mc", 3, self.DENSE, rng)
        assert rep["counts"]["cases"] == 5
        assert rep["counts"]["counterexample_candidates"] == rep["counts"]["cases"]
        for cand in rep["candidates"]:
            assert cand["failing_edges"] == [cand["graph"]["edges"][0]]

    @pytest.mark.parametrize("kind", ["redundant-mc", "bridge"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_edge_sweeps_match_the_per_edge_loops(self, kind, dim):
        spec = CorpusSpec(max_n=5, isomorph_reject=True)
        rep = explore_conjecture(kind, dim, spec, Rng(9))
        expect = explore_edge_loops(kind, dim, spec, Rng(9))
        assert rep["counts"] == expect["counts"] and rep["candidates"] == expect["candidates"]
        assert rep["counts"]["cases"] > 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bridge_candidates_match_the_per_edge_loop(self, dim):
        # every first edge deletion is tested on a degenerate stream, which
        # the sweep and the loop must both reach as sub.child(2).child(0)
        spec = CorpusSpec(max_n=5, isomorph_reject=True)
        rng = DegenerateRng(4, [(1 + gi, 2, 0) for gi in range(100)])
        rep = explore_conjecture("bridge", dim, spec, rng)
        expect = explore_edge_loops("bridge", dim, spec, rng)
        assert rep["counts"] == expect["counts"] and rep["candidates"] == expect["candidates"]
        assert rep["counts"]["cases"] > 0

    def test_redundant_mc_candidates_match_the_per_edge_loop(self):
        # as in the test above, every first edge is tested on a degenerate stream
        rng = DegenerateRng(4, [(1 + gi, 1, 0) for gi in range(8)])
        rep = explore_conjecture("redundant-mc", 3, self.DENSE, rng)
        expect = explore_edge_loops("redundant-mc", 3, self.DENSE, rng)
        assert rep["counts"] == expect["counts"] and rep["candidates"] == expect["candidates"]
        assert rep["counts"]["counterexample_candidates"] > 0

    def test_bridge_small(self):
        rep = explore_conjecture("bridge", 1,
                                 CorpusSpec(max_n=5, isomorph_reject=True), Rng(5))
        assert rep["counts"]["counterexample_candidates"] == 0

    def test_bridge_sweep_asks_for_upper_bridges_only_where_an_edge_splits(self, monkeypatch):
        calls = []
        real = linked.bridges
        monkeypatch.setattr(linked, "bridges",
                            lambda g, d, rng: calls.append(g) or real(g, d, rng))
        rep = explore_conjecture("bridge", 1, CorpusSpec(max_n=5, isomorph_reject=True), Rng(5))
        splitting = [g for n in range(1, 6) for g in nonisomorphic_graphs(n)
                     if is_matroid_connected(g, 1) and not is_redundantly_matroid_connected(g, 1)]
        assert calls == splitting and rep["counts"]["cases"] >= len(calls) > 0

    def test_corpus_block_lists_the_spec_fields_in_order(self):
        spec = CorpusSpec(max_n=3, isomorph_reject=True)
        rep = explore_conjecture("bridge", 1, spec, Rng(5))
        assert list(rep["corpus"].items()) == [
            ("mode", "exhaustive"), ("max_n", 3), ("count", 0), ("n", 0),
            ("edge_prob", 0.5), ("isomorph_reject", True)]

    def test_random_corpus_mode(self):
        rep = explore_conjecture("bridge", 1,
                                 CorpusSpec(mode="random", count=10, n=6,
                                            edge_prob=0.5, max_n=6), Rng(6))
        assert rep["counts"]["graphs"] == 10

    def test_random_corpus_refuses_isomorph_rejection(self):
        # the sweep never reduces a random corpus, so the flag would be inert
        with pytest.raises(ValueError, match="exhaustive corpora only"):
            CorpusSpec(mode="random", count=5, n=5, isomorph_reject=True)

    def test_labeled_sweep_matches_class_sweep(self):
        # isomorph rejection changes the work, never the verdicts
        a = explore_conjecture("linked-gl", 1, CorpusSpec(max_n=4), Rng(7))
        b = explore_conjecture("linked-gl", 1,
                               CorpusSpec(max_n=4, isomorph_reject=True), Rng(7))
        assert a["counts"]["counterexample_candidates"] == 0
        assert b["counts"]["counterexample_candidates"] == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            explore_conjecture("strong-duality", 1, CorpusSpec(max_n=4), Rng(8))
