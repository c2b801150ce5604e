import pytest

from rigidkit import (
    Graph,
    GraphError,
    NotGloballyRigidError,
    RankNotAchievableError,
    complete,
    complete_bipartite,
    cone,
    cycle,
    icosahedron_braced,
    is_globally_k_d_rigid,
    is_globally_rigid,
    is_matroid_connected,
    is_minimally_globally_rigid,
    is_redundantly_globally_rigid,
    is_redundantly_rigid,
    minimally_globally_rigid_edge_bound,
    path,
    rigid_basis,
    sample_realization,
    sparsify_globally_rigid,
    stress_basis,
    stress_matrix,
    subset_rank_reduce,
    vertex_connectivity,
    wheel,
)
from rigidkit.field import PRIME, FieldMatrix, Rng, rank
from rigidkit.rigidity import Realization
from rigidkit.corpus import random_graph
from rigidkit.global_rigidity import Stress, _route
from oracles import main_theorem_check, stress_certificate


class TestStressBasis:
    def test_triangle_one_dimensional_by_hand(self):
        # placement 0, 1, 3 on the line; the unique stress normalized on the
        # chord (0,2) is (-3, 1, -3/2) in canonical edge order 01, 02, 12
        g = complete(3)
        real = Realization(d=1, coords=((0,), (1,), (3,)), seed=0)
        (omega,) = stress_basis(g, 1, real, basis=((0, 1), (1, 2)))
        half = pow(2, -1, PRIME)
        assert omega.values == ((PRIME - 3) % PRIME, 1, (PRIME - 3) * half % PRIME)
        assert omega.support == g.edges

    def test_k4_circuit_stress_nowhere_zero(self):
        g = complete(4)
        real = sample_realization(g, 2, Rng(12))
        basis = rigid_basis(g, 2, Rng(13))
        (omega,) = stress_basis(g, 2, real, basis)
        assert all(omega.values)

    def test_tree_is_stress_free(self):
        g = path(4)
        real = sample_realization(g, 1, Rng(3))
        assert stress_basis(g, 1, real, rigid_basis(g, 1, Rng(4))) == []

    def test_basis_size_is_corank(self):
        g = complete(5)
        real = sample_realization(g, 2, Rng(9))
        stresses = stress_basis(g, 2, real, rigid_basis(g, 2, Rng(10)))
        assert len(stresses) == g.m - 7  # r_2(K5) = 7

    def test_normalization_on_own_edge(self):
        g = complete(5)
        real = sample_realization(g, 2, Rng(20))
        basis = rigid_basis(g, 2, Rng(21))
        extras = [e for e in g.edges if e not in set(basis)]
        for omega, e in zip(stress_basis(g, 2, real, basis), extras):
            assert omega.value_on(e) == 1


class TestStressMatrix:
    def test_zero_stress_zero_matrix(self):
        g = complete(3)
        mat = stress_matrix(g, Stress(edges=g.edges, values=(0, 0, 0)))
        assert mat == FieldMatrix.zeros(3, 3)

    def test_triangle_stress_matrix_rank_one(self):
        g = complete(3)
        real = Realization(d=1, coords=((0,), (1,), (3,)), seed=0)
        (omega,) = stress_basis(g, 1, real, basis=((0, 1), (1, 2)))
        assert rank(stress_matrix(g, omega)) == 1  # |V| - d - 1

    def test_k4_stress_matrix_rank_one(self):
        g = complete(4)
        real = sample_realization(g, 2, Rng(8))
        (omega,) = stress_basis(g, 2, real, rigid_basis(g, 2, Rng(7)))
        assert rank(stress_matrix(g, omega)) == 1

    def test_row_sums_vanish_and_symmetric(self):
        g = wheel(5)
        real = sample_realization(g, 2, Rng(30))
        for omega in stress_basis(g, 2, real, rigid_basis(g, 2, Rng(31))):
            mat = stress_matrix(g, omega)
            assert mat == mat.transpose()
            assert all(sum(row) % PRIME == 0 for row in mat.data)

    def test_rank_bounded_by_n_d_1(self):
        rng = Rng(41)
        for i in range(10):
            sub = rng.child(i)
            g = random_graph(6, 0.8, sub.child(0))
            real = sample_realization(g, 2, sub.child(1))
            for omega in stress_basis(g, 2, real, rigid_basis(g, 2, sub.child(2))):
                assert rank(stress_matrix(g, omega)) <= g.n - 3


class TestGloballyRigid:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_complete_d_plus_2(self, d):
        assert is_globally_rigid(complete(d + 2), d)

    def test_k34_d2(self):
        cert = is_globally_rigid(complete_bipartite(3, 4), 2)
        assert cert and cert.method == "combinatorial-2d"

    def test_k34_d2_stress_path(self):
        cert = stress_certificate(complete_bipartite(3, 4), 2)
        assert cert and cert.method == "stress"

    def test_braced_icosahedron_d3(self):
        assert is_globally_rigid(icosahedron_braced(), 3)

    def test_c4_not_globally_rigid(self):
        assert not is_globally_rigid(cycle(4), 2)

    def test_small_cases_are_complete_checks(self):
        assert is_globally_rigid(complete(3), 2).method == "complete-small"
        assert not is_globally_rigid(path(3), 2)
        assert is_globally_rigid(complete(2), 1)

    def test_one_dimensional_is_two_connectivity(self):
        assert is_globally_rigid(cycle(5), 1)
        assert not is_globally_rigid(path(4), 1)

    def test_stress_agrees_with_combinatorial_spot(self):
        rng = Rng(90)
        for i in range(30):
            g = random_graph(4 + i % 5, 0.6, rng.child(i))
            for d in (1, 2):
                s = stress_certificate(g, d, rng.child(100 + i))
                c = is_globally_rigid(g, d, rng.child(200 + i))
                assert bool(s) == bool(c), (g, d)

    @pytest.mark.parametrize("g, d, query, verdict, route, note", [
        (complete(3), 2, is_globally_rigid, True, "complete-small", ""),
        (path(3), 2, is_globally_rigid, False, "complete-small", ""),
        (cycle(5), 1, is_globally_rigid, True, "combinatorial-1d", ""),
        (path(4), 1, is_globally_rigid, False, "combinatorial-1d", "not 2-connected"),
        (complete_bipartite(3, 4), 2, is_globally_rigid, True, "combinatorial-2d", ""),
        (cycle(4), 2, is_globally_rigid, False, "combinatorial-2d", "not 3-connected"),
        # 3-connected but minimally rigid
        (complete_bipartite(3, 3), 2, is_globally_rigid, False, "combinatorial-2d",
         "not redundantly rigid"),
        (icosahedron_braced(), 3, is_globally_rigid, True, "stress",
         "stress matrix reached rank 8 in trial 0"),
        (complete(4), 1, stress_certificate, True, "stress",
         "stress matrix reached rank 2 in trial 0"),
        # short of the rigid rank in every trial
        (cycle(5), 2, stress_certificate, False, "stress",
         "no stress matrix of rank 2 in 3 trials"),
        # at the rigid rank but stress-free
        (complete_bipartite(3, 3), 2, stress_certificate, False, "stress",
         "no stress matrix of rank 3 in 3 trials"),
    ], ids=lambda x: x if isinstance(x, str) else getattr(x, "__name__", None))
    def test_certificate_per_route(self, g, d, query, verdict, route, note):
        # the whole certificate, on a success and on a failure of each route;
        # the stress route at d <= 2 is the tests' reference
        cert = query(g, d, Rng(7))
        assert (cert.globally_rigid, cert.method, cert.dimension, cert.seed, cert.note) == \
            (verdict, route, d, 7, note)

    @pytest.mark.parametrize("g, d, route", [
        (complete(4), 3, "complete-small"), (Graph(4), 3, "complete-small"),
        (complete(5), 1, "combinatorial-1d"), (complete(5), 2, "combinatorial-2d"),
        (complete(5), 3, "stress"), (Graph(9), 6, "stress"),
    ], ids=lambda x: x if isinstance(x, str) else None)
    def test_the_route_follows_n_and_d(self, g, d, route):
        assert _route(g, d) == route
        assert is_globally_rigid(g, d, Rng(7)).method == route

    def test_hendrickson_necessity_spot(self):
        rng = Rng(91)
        seen = 0
        for i in range(40):
            g = random_graph(6, 0.75, rng.child(i))
            if g.n >= 4 and is_globally_rigid(g, 2, rng.child(100 + i)):
                seen += 1
                assert vertex_connectivity(g) >= 3
                assert is_redundantly_rigid(g, 2, rng.child(200 + i))
                assert is_matroid_connected(g, 2, rng.child(300 + i))
        assert seen > 0

    def test_rigid_next_dimension_implies_globally_rigid(self):
        from rigidkit import is_rigid

        rng = Rng(92)
        for i in range(30):
            g = random_graph(5 + i % 3, 0.7, rng.child(i))
            for d in (1, 2):
                if is_rigid(g, d + 1, rng.child(100 + i)):
                    assert is_globally_rigid(g, d, rng.child(200 + i)), (g, d)

    def test_coning_transfer(self):
        rng = Rng(93)
        for i in range(20):
            g = random_graph(4 + i % 4, 0.6, rng.child(i))
            for d in (1, 2):
                assert bool(is_globally_rigid(g, d, rng.child(100 + i))) == \
                    bool(is_globally_rigid(cone(g), d + 1, rng.child(200 + i)))

    def test_complete_bipartite_closed_form(self):
        # K(a, b) on at least d + 2 vertices is globally rigid exactly when
        # a, b >= d + 1 and a + b >= (d+2)(d+1)/2 + 1
        rng = Rng(94)
        tag = 0
        for a in range(1, 6):
            for b in range(a, 8):
                g = complete_bipartite(a, b)
                for d in (1, 2, 3):
                    if g.n < d + 2:
                        continue
                    tag += 1
                    expect = a >= d + 1 and b >= d + 1 and \
                        a + b >= (d + 2) * (d + 1) // 2 + 1
                    got = bool(is_globally_rigid(g, d, rng.child(tag)))
                    assert got == expect, (a, b, d)

    def test_hendrickson_necessity_d3(self):
        from rigidkit import is_k_connected

        rng = Rng(95)
        seen = 0
        for i in range(40):
            g = random_graph(7, 0.8, rng.child(i))
            if is_globally_rigid(g, 3, rng.child(100 + i)):
                seen += 1
                assert is_k_connected(g, 4)
                assert is_redundantly_rigid(g, 3, rng.child(200 + i))
                assert is_matroid_connected(g, 3, rng.child(300 + i))
        assert seen > 0


class TestMinimallyGloballyRigid:
    def test_k4_d2(self):
        assert is_minimally_globally_rigid(complete(4), 2)

    def test_k34_d2(self):
        assert is_minimally_globally_rigid(complete_bipartite(3, 4), 2)

    def test_k5_d2_not_minimal(self):
        assert not is_minimally_globally_rigid(complete(5), 2)

    def test_edge_bound_values(self):
        assert minimally_globally_rigid_edge_bound(4, 2) == 6
        assert minimally_globally_rigid_edge_bound(12, 3) == 38
        assert minimally_globally_rigid_edge_bound(7, 2) == 15

    @pytest.mark.parametrize("d, accepted", [(1, 13), (2, 18), (3, 8)])
    def test_main_theorem_on_every_class_up_to_seven_vertices(self, d, accepted, graphs_by_n):
        # every minimally globally rigid class on d + 2 <= n <= 7 vertices
        # has at most (d+1)n - C(d+2, 2) edges, as many only as K_{d+2},
        # and is not rigid in dimension d + 1 once n >= d + 3; the seed
        # pins the stress route's draws at d = 3 and the rigidity test's at
        # d + 1 >= 3
        graphs = [g for n in range(d + 2, 8) for g in graphs_by_n[n]]
        got, at_bound, broken = main_theorem_check(graphs, d, Rng(d))
        assert (len(got), at_bound, broken) == (accepted, [complete(d + 2)], [])


class TestSubsetRankReduce:
    @staticmethod
    def diag(entries):
        n = len(entries)
        return FieldMatrix.from_rows(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def test_two_diagonal_units(self):
        mats = [self.diag([1, 0]), self.diag([0, 1])]
        idx, coeffs = subset_rank_reduce(mats, 1, Rng(1))
        assert len(idx) == 1 and len(coeffs) == 1

    def test_three_generators_rank_two(self):
        # the third generator alone already has rank 2, so the greedy may
        # (and does) keep a single index; the contract is |I| <= r
        mats = [self.diag([1, 0]), self.diag([0, 1]), self.diag([1, 1])]
        idx, coeffs = subset_rank_reduce(mats, 2, Rng(2))
        assert 1 <= len(idx) <= 2
        combo = [[0] * 2 for _ in range(2)]
        for i, t in zip(idx, coeffs):
            for a in range(2):
                for b in range(2):
                    combo[a][b] = (combo[a][b] + t * mats[i].entry(a, b)) % PRIME
        assert rank(FieldMatrix.from_rows(combo)) == 2

    def test_two_plus_two_block_needs_two_generators(self):
        # generators confined to disjoint blocks: no single one reaches rank 2
        mats = [self.diag([1, 0]), self.diag([0, 1]), self.diag([0, 0])]
        idx, _ = subset_rank_reduce(mats, 2, Rng(12))
        assert sorted(idx) == [0, 1]

    def test_random_instances_against_exhaustive(self):
        from itertools import combinations

        rng = Rng(3)
        for trial in range(10):
            sub = rng.child(trial)
            mats = [FieldMatrix.from_rows(
                [[sub.field_element() % 7 for _ in range(4)] for _ in range(4)])
                for _ in range(5)]
            idx, coeffs = subset_rank_reduce(mats, 4, sub.child(50))
            assert len(idx) <= 4
            # exhaustive: some subset of that size reaches rank 4
            probe = sub.child(60)
            found = False
            for size in range(1, len(idx) + 1):
                for combo in combinations(range(5), size):
                    from rigidkit.field import random_combination
                    for t in range(3):
                        _, m = random_combination([mats[i] for i in combo],
                                                  probe.child(hash(combo) % 1000 + t))
                        if rank(m) >= 4:
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            assert found

    def test_r_at_least_k_returns_everything(self):
        mats = [self.diag([1, 0]), self.diag([0, 1])]
        idx, _ = subset_rank_reduce(mats, 2, Rng(4))
        assert idx == (0, 1)

    def test_unreachable_rank_raises(self):
        with pytest.raises(RankNotAchievableError):
            subset_rank_reduce([self.diag([1, 0])], 2, Rng(5))

    def test_verified_coefficients_returned(self):
        mats = [self.diag([1, 0]), self.diag([0, 1]), self.diag([1, 1])]
        idx, coeffs = subset_rank_reduce(mats, 2, Rng(6))
        from rigidkit.field import random_combination  # noqa: F401  (same shape helper)
        acc = [[0] * 2 for _ in range(2)]
        for i, t in zip(idx, coeffs):
            for a in range(2):
                for b in range(2):
                    acc[a][b] = (acc[a][b] + t * mats[i].entry(a, b)) % PRIME
        assert rank(FieldMatrix.from_rows(acc)) >= 2


class TestSparsifier:
    def test_k5_d2(self):
        res = sparsify_globally_rigid(complete(5), 2, Rng(1))
        assert res.graph.m <= 9
        assert is_minimally_globally_rigid(res.graph, 2, Rng(2))

    def test_k4_d2_fixed_point(self):
        res = sparsify_globally_rigid(complete(4), 2, Rng(3))
        assert res.graph == complete(4)

    def test_k6_d3(self):
        res = sparsify_globally_rigid(complete(6), 3, Rng(4))
        assert res.graph.m <= 14
        assert is_globally_rigid(res.graph, 3, Rng(5))

    def test_rejects_flexible_input(self):
        with pytest.raises(NotGloballyRigidError):
            sparsify_globally_rigid(cycle(4), 2, Rng(6))

    def test_rejects_tiny_input(self):
        with pytest.raises(GraphError):
            sparsify_globally_rigid(complete(3), 2, Rng(7))

    def test_log_fields(self):
        res = sparsify_globally_rigid(complete(5), 2, Rng(8))
        log = res.log
        assert log["basis_size"] == 7
        assert log["generators_before"] == 3
        assert log["generators_after"] == len(res.extra_edges) == 2
        assert log["edge_bound"] == 9

    def test_spanning_and_connected(self):
        res = sparsify_globally_rigid(complete_bipartite(3, 5), 2, Rng(9))
        assert res.graph.n == 8
        assert res.graph.is_connected()


class TestGloballyKdRigid:
    def test_k6_survives_one_deletion_d2(self):
        assert is_globally_k_d_rigid(complete(6), 2, 2)

    def test_k34_fails_vertex_deletion_d2(self):
        assert not is_globally_k_d_rigid(complete_bipartite(3, 4), 2, 2)

    def test_k_equal_one_is_plain_global_rigidity(self):
        rng = Rng(44)
        for i in range(10):
            g = random_graph(5, 0.7, rng.child(i))
            assert is_globally_k_d_rigid(g, 1, 2, rng.child(100 + i)) == \
                bool(is_globally_rigid(g, 2, rng.child(200 + i)))
