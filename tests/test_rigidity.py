import pytest

from rigidkit import (
    CorpusSpec,
    Graph,
    GraphError,
    bridges,
    complete,
    cone,
    cycle,
    explore_conjecture,
    fundamental_circuit,
    generic_rank,
    icosahedron,
    icosahedron_braced,
    is_circuit,
    is_globally_rigid,
    is_independent,
    is_linked,
    is_matroid_connected,
    is_minimally_globally_rigid,
    is_redundantly_globally_rigid,
    is_redundantly_matroid_connected,
    is_redundantly_rigid,
    is_rigid,
    is_vertex_redundantly_rigid,
    local_connectivity,
    matroid_components,
    matroid_report,
    path,
    rigid_basis,
    rigidity_matrix,
    sample_realization,
    sparsify_globally_rigid,
    two_sum,
    vertex_connectivity,
    wheel,
)
from rigidkit.field import PRIME, Rng
from rigidkit.rigidity import Realization, rank_upper_bound
from rigidkit.corpus import random_graph
from oracles import matroid_components_brute


class TestRealization:
    def test_deterministic(self):
        g = cycle(5)
        a = sample_realization(g, 2, Rng(3))
        b = sample_realization(g, 2, Rng(3))
        assert a == b

    def test_shapes(self):
        assert len(sample_realization(Graph(1), 3, Rng(0)).coords[0]) == 3
        r = sample_realization(complete(4), 2, Rng(0))
        assert len(r.coords) == 4 and all(len(c) == 2 for c in r.coords)

    def test_dimension_validated(self):
        with pytest.raises(GraphError):
            Realization(d=0, coords=(), seed=0)


class TestRigidityMatrix:
    def test_single_edge_one_dimensional(self):
        real = Realization(d=1, coords=((0,), (5,)), seed=0)
        mat = rigidity_matrix(complete(2), real)
        assert mat.data == ((PRIME - 5, 5),)

    def test_row_structure(self):
        g = wheel(4)
        real = sample_realization(g, 2, Rng(11))
        mat = rigidity_matrix(g, real)
        assert (mat.rows, mat.cols) == (g.m, 2 * g.n)
        for row in mat.data:
            assert sum(1 for x in row if x) == 4  # 2d nonzeros per row

    def test_triangle_rank(self):
        g = complete(3)
        real = sample_realization(g, 2, Rng(5))
        from rigidkit.field import rank
        assert rank(rigidity_matrix(g, real)) == 3


class TestGenericRank:
    def test_k4_d2(self):
        assert generic_rank(complete(4), 2) == 5

    def test_c4_d1_is_spanning_tree_size(self):
        assert generic_rank(cycle(4), 1) == 3

    def test_k5_d3(self):
        assert generic_rank(complete(5), 3) == 9

    def test_one_dimensional_rank_is_graphic(self, graphs_by_n):
        rng = Rng(21)
        for i, g in enumerate(graphs_by_n[6][:70]):
            comps = len(g.connected_components())
            assert generic_rank(g, 1, rng.child(i)) == g.n - comps

    def test_monotone_and_submodular(self):
        rng = Rng(77)
        for trial in range(12):
            sub = rng.child(trial)
            d = 1 + trial % 3
            g = random_graph(6, 0.6, sub.child(0))
            if g.m < 3:
                continue
            edges = list(g.edges)
            cut = 1 + sub.next_u64() % (len(edges) - 1)
            small = edges[:cut]
            e = edges[-1]
            big = edges[:-1]

            def r(es):
                return generic_rank(Graph(g.n, tuple(es)), d, sub.child(1))

            if set(small) <= set(big):
                assert r(small) <= r(big)
                gain_small = r(small + [e]) - r(small)
                gain_big = r(big + [e]) - r(big)
                assert gain_small >= gain_big


class TestRigidity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simplex_rigid(self, d):
        assert is_rigid(complete(d + 1), d)

    def test_c4_flexible_d2(self):
        assert not is_rigid(cycle(4), 2)

    def test_braced_icosahedron_rigid_d3(self):
        assert is_rigid(icosahedron_braced(), 3)

    def test_small_case_convention(self):
        assert is_rigid(complete(2), 3)
        assert not is_rigid(Graph(2), 3)
        assert is_rigid(Graph(1), 2)

    def test_redundant_rigidity(self):
        assert is_redundantly_rigid(complete(4), 2)
        assert not is_redundantly_rigid(complete(4), 3)  # minimally rigid
        assert not is_redundantly_rigid(icosahedron(), 3)

    def test_vertex_redundant_rigidity(self):
        assert is_vertex_redundantly_rigid(complete(5), 2)
        assert is_vertex_redundantly_rigid(complete(4), 2)
        assert not is_vertex_redundantly_rigid(wheel(5), 2)  # drop the hub


class TestIndependenceAndCircuits:
    def test_k4_d2_circuit(self):
        assert is_circuit(complete(4), 2)
        assert not is_independent(complete(4), 2)

    def test_k5_d3_circuit(self):
        assert is_circuit(complete(5), 3)

    def test_two_sum_of_circuits_is_a_circuit(self):
        g = two_sum(complete(4), complete(4))
        assert is_circuit(g, 2)

    def test_two_sum_with_non_circuit_operand(self):
        g = two_sum(cycle(4), complete(4))
        assert not is_circuit(g, 2)

    def test_c4_independent_d2(self):
        assert is_independent(cycle(4), 2)

    def test_circuits_are_well_connected(self, graphs_by_n):
        # every circuit is 2-connected and kappa(u, v) >= d + 1 on its edges
        rng = Rng(99)
        for d in (1, 2):
            for i, g in enumerate(graphs_by_n[6][:90]):
                if g.m < 3 or not is_circuit(g, d, rng.child(i)):
                    continue
                keep = [v for v in range(g.n) if g.degree(v) > 0]
                h = g.induced(keep)
                assert vertex_connectivity(h) >= 2
                for u, v in h.edges:
                    assert local_connectivity(h, u, v) >= d + 1


class TestBridges:
    def test_tree_all_bridges_d1(self):
        g = path(5)
        assert bridges(g, 1) == g.edges

    def test_circuit_has_no_bridges(self):
        assert bridges(complete(4), 2) == ()

    def test_pendant_edge_is_the_only_bridge(self):
        g = Graph(5, complete(4).edges + ((3, 4),))
        assert bridges(g, 2) == ((3, 4),)

    def test_matches_rank_drop_definition(self, graphs_by_n):
        rng = Rng(4242)
        for d in (1, 2):
            for i, g in enumerate(graphs_by_n[5]):
                if g.m == 0:
                    continue
                got = set(bridges(g, d, rng.child(i)))
                r = generic_rank(g, d, rng.child(1000 + i))
                expect = {e for e in g.edges
                          if generic_rank(g.delete_edge(e), d, rng.child(2000 + i)) == r - 1}
                assert got == expect


class TestBasisAndFundamentalCircuits:
    def test_basis_sizes(self):
        assert len(rigid_basis(complete(4), 2)) == 5
        assert len(rigid_basis(complete(4), 1)) == 3
        assert len(rigid_basis(cycle(4), 2)) == 4

    def test_basis_is_independent_prefix_greedy(self):
        g = complete(5)
        basis = rigid_basis(g, 2)
        assert is_independent(Graph(g.n, basis), 2)
        assert len(basis) == generic_rank(g, 2)

    def test_k4_chord_closes_the_whole_graph(self):
        g = complete(4)
        basis = rigid_basis(g, 2)
        (extra,) = [e for e in g.edges if e not in set(basis)]
        assert fundamental_circuit(g, 2, basis, extra) == g.edges

    def test_graphic_matroid_fundamental_cycle(self):
        g = cycle(4)
        basis = rigid_basis(g, 1)
        (chord,) = [e for e in g.edges if e not in set(basis)]
        assert fundamental_circuit(g, 1, basis, chord) == g.edges

    def test_two_sum_circuit_is_fundamental(self):
        g = two_sum(complete(4), complete(4))
        basis = rigid_basis(g, 2)
        (extra,) = [e for e in g.edges if e not in set(basis)]
        circuit = fundamental_circuit(g, 2, basis, extra)
        assert len(circuit) == 10 and circuit == g.edges

    def test_rejected_inputs(self):
        g = complete(4)
        basis = rigid_basis(g, 2)
        with pytest.raises(GraphError):
            fundamental_circuit(g, 2, basis, basis[0])
        with pytest.raises(GraphError):
            fundamental_circuit(g, 2, g.edges, g.edges[0])


class TestMatroidComponents:
    def test_k4_single_component(self):
        assert len(matroid_components(complete(4), 2)) == 1

    def test_disjoint_union_splits(self):
        g = complete(4).disjoint_union(complete(4))
        comps = matroid_components(g, 2)
        assert len(comps) == 2
        assert {len(c) for c in comps} == {6}

    def test_two_sum_plus_edge_connected(self):
        g = two_sum(complete(4), complete(4)).add_edge(0, 1)
        assert is_matroid_connected(g, 2)

    def test_bridges_are_singletons(self):
        g = Graph(5, complete(4).edges + ((3, 4),))
        comps = matroid_components(g, 2)
        assert ((3, 4),) in comps

    def test_matches_circuit_enumeration(self, graphs_by_n):
        rng = Rng(31415)
        corpus = [g for g in graphs_by_n[5] if g.m >= 1]
        corpus += [g for g in graphs_by_n[6] if 1 <= g.m <= 10][:20]
        for d in (1, 2):
            for i, g in enumerate(corpus):
                got = [tuple(c) for c in matroid_components(g, d, rng.child(i))]
                expect = matroid_components_brute(g, d)
                assert sorted(got) == sorted(expect), (g, d)

    def test_dimension_dropping_on_small_corpus(self, graphs_by_n):
        # matroid connectivity survives every drop to a lower dimension
        rng = Rng(500)
        for i, g in enumerate(graphs_by_n[6][:90]):
            if g.m < 2:
                continue
            if is_matroid_connected(g, 2, rng.child(i)):
                assert is_matroid_connected(g, 1, rng.child(1000 + i))
        for i, g in enumerate(graphs_by_n[6]):
            if g.m < 2:
                continue
            if is_matroid_connected(g, 3, rng.child(2000 + i)):
                assert is_matroid_connected(g, 2, rng.child(3000 + i))
                assert is_matroid_connected(g, 1, rng.child(4000 + i))


class TestConingTransfer:
    def test_rigidity_and_independence_transfer(self):
        rng = Rng(606)
        for i in range(25):
            sub = rng.child(i)
            d = 1 + i % 2
            g = random_graph(3 + i % 5, 0.55, sub.child(0))
            c = cone(g)
            assert is_rigid(g, d, sub.child(1)) == is_rigid(c, d + 1, sub.child(2))
            assert is_independent(g, d, sub.child(3)) == \
                is_independent(c, d + 1, sub.child(4))

    def test_bridge_transfer(self):
        # an edge of g drops the rank in dimension d exactly when it does so
        # in the cone one dimension up
        rng = Rng(607)
        for i in range(15):
            sub = rng.child(i)
            d = 1 + i % 2
            g = random_graph(5, 0.5, sub.child(0))
            c = cone(g)
            assert set(bridges(g, d, sub.child(1))) == \
                set(bridges(c, d + 1, sub.child(2))) & set(g.edges)


class TestMatroidReport:
    def test_report_consistency(self):
        g = Graph(5, complete(4).edges + ((3, 4),))
        rep = matroid_report(g, 2)
        assert rep.rank == 6
        assert rep.bridges == ((3, 4),)
        assert not rep.independent
        assert not rep.circuit
        assert sum(len(c) for c in rep.components) == g.m
        assert rep.rank <= rank_upper_bound(g.n, g.m, 2)


class TestDimensionValidated:
    """Every public matroid query, global rigidity test, deletion family,
    the sparsifier and the explorer reject d < 1, on edgeless graphs too,
    where no trial is drawn."""

    QUERIES = {
        "generic_rank": generic_rank,
        "is_rigid": is_rigid,
        "is_redundantly_rigid": is_redundantly_rigid,
        "is_vertex_redundantly_rigid": is_vertex_redundantly_rigid,
        "is_independent": is_independent,
        "is_circuit": is_circuit,
        "bridges": bridges,
        "rigid_basis": rigid_basis,
        "matroid_components": matroid_components,
        "is_matroid_connected": is_matroid_connected,
        "is_redundantly_matroid_connected": is_redundantly_matroid_connected,
        "matroid_report": matroid_report,
        # (0, 1) is a non-edge of Graph(3) and an edge of complete(4)
        "is_linked": lambda g, d: is_linked(g, 0, 1, d),
        "is_globally_rigid": is_globally_rigid,
        "is_minimally_globally_rigid": is_minimally_globally_rigid,
        "is_redundantly_globally_rigid": is_redundantly_globally_rigid,
        "sparsify_globally_rigid": sparsify_globally_rigid,
        **{f"explore_conjecture[{kind}]":
           lambda g, d, kind=kind: explore_conjecture(kind, d, CorpusSpec(max_n=g.n))
           for kind in ("linked-gl", "redundant-mc", "bridge")},
    }

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize("g", [Graph(3), complete(4)], ids=["edgeless", "K4"])
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_rejects_dimension_below_one(self, query, g, d):
        with pytest.raises(GraphError, match="dimension must be >= 1"):
            self.QUERIES[query](g, d)

    @pytest.mark.parametrize("d", [0, -1])
    def test_fundamental_circuit_rejects_dimension_below_one(self, d):
        # it needs an edge outside a basis, so only K4 can ask it
        g = complete(4)
        basis = tuple(e for e in g.edges if e != (2, 3))
        with pytest.raises(GraphError, match="dimension must be >= 1"):
            fundamental_circuit(g, d, basis, (2, 3))
