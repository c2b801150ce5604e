"""The rigidity matroid and the stress spaces of every G - e read off one
factorization per realization.

Differential tests against the earlier query-by-query and edge-by-edge
implementations kept in ``oracles`` and of the pebble game at d <= 2
against the sampled route, counts of the eliminations behind
``matroid_report`` and of the factorizations behind the edge-deletion
predicates and the sparsifier, and the resample and retry paths driven by a
degenerate ``Rng``.
"""

from itertools import combinations, count

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rigidkit import (
    Graph,
    GraphError,
    NonGenericRealizationError,
    NotGloballyRigidError,
    bridges,
    complete,
    complete_bipartite,
    fundamental_circuit,
    icosahedron_braced,
    is_globally_rigid,
    is_minimally_globally_rigid,
    is_redundantly_globally_rigid,
    is_redundantly_rigid,
    is_rigid,
    matroid_components,
    matroid_report,
    minimally_globally_rigid_edge_bound,
    rigid_basis,
    sample_realization,
    RankNotAchievableError,
    sparsify_globally_rigid,
    stress_basis,
    subset_rank_reduce,
    vertex_connectivity,
    wheel,
)
from rigidkit import global_rigidity, rigidity
from rigidkit.corpus import nonisomorphic_graphs, random_graph_with_edges
from rigidkit.field import PRIME, FieldMatrix, Rng
from rigidkit.global_rigidity import (
    Stress,
    _certifies,
    _edge_deletions,
    _greedy_pass,
    _proofs,
    _route,
    _series_free,
    _stress_block,
    _without,
    stress_matrix,
)
from rigidkit.rigidity import Realization, _trials

import oracles
from degenerate import DegenerateRng
from oracles import (
    _planar_proof,
    bridges_by_rank_drop,
    certifies_full_rank,
    edge_deletions_by_route,
    first_proof_by_stress_spaces,
    fundamental_circuit_by_pair_circuit,
    fundamental_circuit_by_probes,
    globally_rigid_2d_by_redundant_rigidity,
    greedy_pass_per_edge,
    matroid_components_by_probes,
    matroid_with_pair_circuits,
    minimally_globally_rigid_per_edge,
    planar_route_mismatches,
    rank_of_rows,
    redundantly_globally_rigid_per_edge,
    rigid_basis_incremental,
    sampled_matroid,
    series_pairs_by_rank_drop,
    span_with_pair_columns,
    sparsify_three_realizations,
    stress_basis_per_edge,
    stress_certificate,
    stress_matrix_by_definition,
    stress_route,
)


@st.composite
def small_graphs(draw, d):
    """Up to 12 vertices: a nearly complete core on d + 2 to 7 of them, so
    that circuits occur in dimension d, plus a few edges anywhere."""
    n = draw(st.integers(d + 2, 12))
    label = draw(st.permutations(range(n)))
    core = list(combinations(range(draw(st.integers(d + 2, min(n, 7)))), 2))
    missing = draw(st.lists(st.sampled_from(core), max_size=min(4, len(core) - 1), unique=True))
    pairs = list(combinations(range(n), 2))
    edges = [e for e in core if e not in missing]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    return Graph(n, tuple({tuple(sorted((label[u], label[v]))) for u, v in edges}))


@st.composite
def dense_graphs(draw, d):
    """Complete graphs on d + 2 to 9 vertices less up to 2n edges: minimally,
    redundantly or not globally rigid in dimension d, or none of these."""
    n = draw(st.integers(d + 2, 9))
    pairs = list(combinations(range(n), 2))
    missing = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)))
    return Graph(n, tuple(e for e in pairs if e not in missing))


@st.composite
def planar_deletion_graphs(draw):
    """Inputs for the d = 2 deletion families, labels shuffled:
    ``dense_graphs(2)``; a wheel on 3 to 8 rim vertices plus up to three
    chords, globally rigid with 2-edge cocircuits in its G - e; two cliques
    on 4 to 6 vertices sharing three, less up to three edges, where
    kappa = 3 and some G - e lose 3-connectivity; or two cliques on 4 or 5
    vertices joined by three disjoint edges and up to one more, often
    3-connected and rigid with stresses, the three edges bridges."""
    shape = draw(st.sampled_from(("dense", "wheel", "glued", "bridged")))
    if shape == "dense":
        return draw(dense_graphs(2))
    if shape == "wheel":
        g = wheel(draw(st.integers(3, 8)))
        chords = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        edges = set(g.edges)
        if chords:
            edges |= set(draw(st.lists(st.sampled_from(chords), max_size=3, unique=True)))
    elif shape == "glued":
        a, b = draw(st.integers(4, 6)), draw(st.integers(4, 6))
        edges = set(combinations(range(a), 2)) | set(combinations((0, 1, 2, *range(a, a + b - 3)), 2))
        edges -= set(draw(st.lists(st.sampled_from(sorted(edges)), max_size=3)))
    else:
        a, b = draw(st.integers(4, 5)), draw(st.integers(4, 5))
        edges = set(combinations(range(a), 2)) | set(combinations(range(a, a + b), 2))
        edges |= {(0, a), (1, a + 1), (2, a + 2)}
        if draw(st.booleans()):
            edges.add((3, a + 3))
    n = 1 + max(v for e in edges for v in e)
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple({tuple(sorted((label[u], label[v]))) for u, v in edges}))


@st.composite
def tiny_graphs(draw, d):
    """Graphs on 1 to d + 1 vertices, the complete-small route: complete,
    or complete less up to two edges."""
    n = draw(st.integers(1, d + 1))
    pairs = list(combinations(range(n), 2))
    missing = set(draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))) if pairs else ()
    return Graph(n, tuple(e for e in pairs if e not in missing))


@st.composite
def shared_cliques(draw, d):
    """Two copies of K_{d+2} sharing d vertices (two K4 sharing an edge at
    d = 2), labels shuffled, less up to one edge outside the shared ones:
    rigid with one stress per copy, but never globally rigid, since the d
    shared vertices separate the copies."""
    n = d + 4
    edges = set(combinations(range(d + 2), 2)) | set(combinations((*range(d), d + 2, d + 3), 2))
    edges -= set(draw(st.lists(st.sampled_from(sorted(e for e in edges if e[1] >= d)),
                               max_size=1)))
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple({tuple(sorted((label[u], label[v]))) for u, v in edges}))


@st.composite
def any_graphs(draw, max_n=8):
    """Any graph on 1 to ``max_n`` vertices, edgeless and disconnected ones
    included."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()))


def unread():
    """Trials that fail the test when ``rigidity._matroid`` reads them."""
    raise AssertionError("the trials were read")
    yield


def stop_at_the_rank_bound(m, supports) -> bool:
    """A ``settled`` test for ``rigidity._matroid`` that holds for every
    trial, so that the loop stops at the first trial of full rank while
    reading the stresses of every free edge column."""
    return True


def g13_52() -> Graph:
    """A G(13, 52) of minimum degree 5, as in the benchmark's sparsify
    workload: globally rigid in dimension 3."""
    rng = Rng(13)
    return next(g for g in (random_graph_with_edges(13, 52, rng.child(i)) for i in count())
                if g.min_degree() >= 5)


class TestAgainstQueryByQuery:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_matroid_matches_the_oracles(self, d, data):
        g = data.draw(small_graphs(d))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        basis = rigid_basis(g, d, rng.child(0))
        assert basis == rigid_basis_incremental(g, d, rng.child(0))
        assert bridges(g, d, rng.child(1)) == bridges_by_rank_drop(g, d, rng.child(1))
        assert matroid_components(g, d, rng.child(2)) == \
            matroid_components_by_probes(g, d, rng.child(2))

        report = matroid_report(g, d, rng.child(3))
        assert report.basis == basis
        assert report.bridges == bridges(g, d, rng.child(1))
        assert report.components == matroid_components(g, d, rng.child(2))

        extras = [e for e in g.edges if e not in set(basis)]
        for i, e in enumerate(extras):
            assert fundamental_circuit(g, d, basis, e, rng.child(10 + i)) == \
                fundamental_circuit_by_probes(g, d, basis, e, rng.child(10 + i))

        real = sample_realization(g, d, rng.child(4))
        try:
            expect = stress_basis_per_edge(g, d, real, basis)
        except NonGenericRealizationError:
            with pytest.raises(NonGenericRealizationError):
                stress_basis(g, d, real, basis)
        else:
            got = stress_basis(g, d, real, basis)
            assert [w.values for w in got] == [w.values for w in expect]
            for w, e in zip(got, extras):
                assert set(w.support) == set(fundamental_circuit(g, d, basis, e, rng.child(5)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_linked_pairs_match_the_span_oracle(self, d, data):
        # the pair columns ride along the trials that read the whole matroid
        g = data.draw(small_graphs(d))
        non_edges = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        pairs = sorted(data.draw(st.lists(st.sampled_from(non_edges), unique=True)
                                 if non_edges else st.just([])))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        basis, _, _, circuits = rigidity._matroid(
            g, d, _trials(g, d, rng.child(0), pairs), stop_at_the_rank_bound, pairs)
        rank, expect = span_with_pair_columns(g, d, rng.child(1), pairs)
        if d <= 2:
            # the pebble game reads linked pairs off tight sets, without
            # their circuits; the game with pair circuits still gives them
            assert matroid_with_pair_circuits(g, d, stop_at_the_rank_bound, pairs)[3] == expect
            expect = dict.fromkeys(expect)
        assert (len(basis), circuits) == (rank, expect)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @given(data=st.data())
    def test_pair_stresses_alone_are_the_same_stresses(self, d, data):
        # the trials of is_linked and the linked-gl sweep skip the edge stresses
        g = data.draw(small_graphs(d))
        non_edges = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        pairs = sorted(data.draw(st.lists(st.sampled_from(non_edges), unique=True)
                                 if non_edges else st.just([])))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        alone_trials = _trials(g, d, rng, pairs, edge_stresses=False)
        for full, alone in zip(_trials(g, d, rng, pairs), alone_trials):
            assert alone[2] == full[2]
            assert alone[3] == {f: w for f, w in full[3].items() if f >= g.m}
        basis, _, _, circuits = rigidity._matroid(
            g, d, _trials(g, d, rng, pairs), stop_at_the_rank_bound, pairs)
        alone_trials = _trials(g, d, rng, pairs, edge_stresses=False)
        assert rigidity._matroid(g, d, alone_trials, None, pairs) == (basis, None, None, circuits)

    def test_fundamental_circuit_rejects_an_independent_edge(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        with pytest.raises(GraphError, match="independent of the basis"):
            fundamental_circuit(g, 1, ((0, 1), (1, 2)), (2, 3))

    def test_fundamental_circuit_rejects_a_dependent_basis(self):
        g = complete(4)
        with pytest.raises(GraphError, match="not independent"):
            fundamental_circuit(g, 1, ((0, 1), (0, 2), (1, 2)), (2, 3))


class TestPebbleGame:
    """At d <= 2 ``rigidity._matroid`` plays the pebble game and reads no
    trial; the sampled route (``oracles.sampled_matroid``) at a fixed seed
    is its oracle: basis, bridges, components and the linked non-edges. The
    game reads linked pairs off tight sets, without their circuits; the
    game with pair circuits (``oracles.matroid_with_pair_circuits``) still
    gives every linked non-edge's circuit, and ``fundamental_circuit``
    equals its pair circuit."""

    @staticmethod
    def assert_matches_the_sampled_route(g, d):
        pairs = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
        expect = sampled_matroid(g, d, Rng(1729), rigidity._connects, pairs)
        assert matroid_with_pair_circuits(g, d, rigidity._connects, pairs) == expect
        basis, brs, comps, circuits = expect
        linked = dict.fromkeys(circuits)
        got = rigidity._matroid(g, d, unread(), rigidity._connects, pairs)
        assert got == (basis, brs, comps, linked)
        assert rigidity._matroid(g, d, unread(), None, pairs) == (basis, None, None, linked)
        assert sampled_matroid(g, d, Rng(1729), None, pairs) == (basis, None, None, circuits)
        for e in g.edges:
            if e not in set(basis):
                assert fundamental_circuit(g, d, basis, e) == \
                    fundamental_circuit_by_pair_circuit(g, d, basis, e)

    @pytest.mark.parametrize("d", [1, 2])
    @settings(max_examples=60)
    @given(g=any_graphs(max_n=12))
    def test_matches_the_sampled_route(self, d, g):
        self.assert_matches_the_sampled_route(g, d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_sampled_route_on_every_class_up_to_six_vertices(self, d):
        graphs = [g for n in range(1, 7) for g in nonisomorphic_graphs(n)]
        assert len(graphs) == 208
        for g in graphs:
            self.assert_matches_the_sampled_route(g, d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_linked_pairs_match_the_sampled_route_on_every_class_with_seven_vertices(self, d):
        graphs = nonisomorphic_graphs(7)
        assert len(graphs) == 1044
        for g in graphs:
            pairs = [p for p in combinations(range(g.n), 2) if p not in g.edge_set]
            basis, _, _, circuits = sampled_matroid(g, d, Rng(1729), None, pairs)
            assert rigidity._matroid(g, d, unread(), None, pairs) == \
                (basis, None, None, dict.fromkeys(circuits))
            for e in g.edges:
                if e not in set(basis):
                    assert fundamental_circuit(g, d, basis, e) == \
                        fundamental_circuit_by_pair_circuit(g, d, basis, e)

    @pytest.mark.parametrize("d, circuit", [(1, ((0, 1), (0, 2), (1, 2))), (2, complete(4).edges)])
    def test_matroid_queries_eliminate_nothing(self, d, circuit, eliminations):
        # K4 plus a pendant edge; the first non-basis edge closes a triangle
        # at d = 1 and K4 at d = 2
        g = Graph(5, complete(4).edges + ((3, 4),))
        basis = rigid_basis(g, d, Rng(1))
        extra = next(e for e in g.edges if e not in set(basis))
        assert matroid_report(g, d, Rng(3)).basis == basis
        assert bridges(g, d, Rng(3)) == ((3, 4),)
        assert matroid_components(g, d, Rng(3)) == (complete(4).edges, ((3, 4),))
        assert fundamental_circuit(g, d, basis, extra, Rng(2)) == circuit
        assert is_redundantly_rigid(complete(4), d, Rng(4))
        assert rigidity.generic_rank(complete(5).disjoint_union(complete(3)), d) == \
            rigidity.rank_upper_bound(5, 10, d) + rigidity.rank_upper_bound(3, 3, d)
        assert eliminations == []


class TestAgainstEdgeByEdge:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_stresses_of_g_minus_e_are_those_of_g_vanishing_on_e(self, d, data):
        g = data.draw(dense_graphs(d))
        real = sample_realization(g, d, Rng(data.draw(st.integers(0, 2**32))))
        pivots, stresses = rigidity._factor(g, real, g.edges)
        stresses = list(stresses.values())
        for j, e in enumerate(g.edges):
            h = g.delete_edge(e)
            pivots_h, stresses_h = rigidity._factor(h, real, h.edges)
            rest = _without(stresses, j)
            if rest is None:
                assert len(pivots_h) == len(pivots) - 1  # e is a bridge at p
                continue
            assert len(pivots_h) == len(pivots) and len(rest) == len(stresses_h)
            on_h = [w[:j] + w[j + 1:] for w in rest]
            assert all(w[j] == 0 for w in rest)
            for w in on_h:
                rigidity._check_stress(real, h.edges, w)
            assert rank_of_rows(on_h, h.m) == len(on_h)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_deletion_families_match_the_per_edge_oracles(self, d, data):
        # on the stress route at every d (dense graphs have n >= d + 2)
        g = data.draw(dense_graphs(d))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        assert _edge_deletions(g, d, "stress", True, _trials(g, d, rng.child(0)))[1] == \
            minimally_globally_rigid_per_edge(g, d, rng.child(0), stress_certificate)
        assert _edge_deletions(g, d, "stress", False, _trials(g, d, rng.child(1)))[1] == \
            redundantly_globally_rigid_per_edge(g, d, rng.child(1), stress_certificate)
        if stress_certificate(g, d, rng.child(2)):
            _, real, _, stresses, sub = next(_proofs(g, d, _trials(g, d, rng.child(3))))
            dropped = _greedy_pass(g, real, stresses.values(), (), range(g.m), sub.child(2))
            pruned = Graph(g.n, tuple(e for j, e in enumerate(g.edges) if j not in dropped))
            assert pruned == greedy_pass_per_edge(g, d, rng.child(3))
            assert _edge_deletions(pruned, d, "stress", True, _trials(pruned, d, rng.child(4)))[1]
            assert minimally_globally_rigid_per_edge(pruned, d, rng.child(4), stress_certificate)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_planar_deletion_families_match_the_per_edge_oracles(self, data):
        # the cocircuit route against one combinatorial test per G - e
        g = data.draw(planar_deletion_graphs())
        rng = Rng(data.draw(st.integers(0, 2**32)))
        assert is_minimally_globally_rigid(g, 2, rng.child(0)) == \
            minimally_globally_rigid_per_edge(g, 2, rng.child(0))
        assert is_redundantly_globally_rigid(g, 2, rng.child(1)) == \
            redundantly_globally_rigid_per_edge(g, 2, rng.child(1))

    @pytest.mark.parametrize("d, certificate", [
        (1, is_globally_rigid), (1, stress_certificate),
        (2, is_globally_rigid), (2, stress_certificate),
        (3, is_globally_rigid),
    ], ids=lambda x: getattr(x, "__name__", None))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_one_proof_loop_matches_the_separate_tests(self, d, certificate, data):
        # G's verdict comes from the trials the family verdict runs on, and
        # those are the trials the stress test found before
        g = data.draw(dense_graphs(d))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        cert = certificate(g, d, rng)
        verdicts = [_edge_deletions(g, d, cert.method, minimal, _trials(g, d, rng))
                    for minimal in (True, False)]
        assert [proved for proved, _ in verdicts] == [bool(cert)] * 2
        if certificate is is_globally_rigid:
            assert [family for _, family in verdicts] == \
                [is_minimally_globally_rigid(g, d, rng), is_redundantly_globally_rigid(g, d, rng)]
        got = next(_proofs(g, d, _trials(g, d, rng)), None)
        expect = first_proof_by_stress_spaces(g, d, rng)
        assert (got is None) == (expect is None)
        if got is not None:
            assert got[:4] == expect[:4] and got[4].seed == expect[4].seed

    @pytest.mark.parametrize("d", [1, 2, 3])
    @given(data=st.data())
    def test_sparsifier_matches_its_oracle(self, d, data):
        g = data.draw(dense_graphs(d))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        try:
            expect = sparsify_three_realizations(g, d, rng.child(0))
        except NotGloballyRigidError:
            with pytest.raises(NotGloballyRigidError):
                sparsify_globally_rigid(g, d, rng.child(1))
            return
        got = sparsify_globally_rigid(g, d, rng.child(1))
        assert got.graph == expect.graph
        assert got.extra_edges == expect.extra_edges
        assert got.log == expect.log


class TestCocircuitRoute:
    """G - e at d = 2 from the 2-element cocircuits of G: exact from pebble
    games (``_series_free``), and on the trial route they replaced from
    the columns of one stress basis of G (``oracles._planar_proof``)."""

    def test_a_two_edge_cocircuit_in_g_minus_e(self):
        # the wheel on five rim vertices plus the chord (0, 2) is globally
        # rigid, and G - (0, 1) is rigid but loses rigidity with one more
        # edge: {(0, 1), f} is a cocircuit, so (0, 1) is not series-free
        # and columns (0, 1) and f of the stress basis are parallel
        g = wheel(5).add_edge(0, 2)
        h = g.delete_edge(0, 1)
        assert is_globally_rigid(g, 2, Rng(1))
        assert is_rigid(h, 2, Rng(2)) and not is_redundantly_rigid(h, 2, Rng(3))
        assert not is_redundantly_globally_rigid(g, 2, Rng(4))
        assert not redundantly_globally_rigid_per_edge(g, 2, Rng(4))
        assert not is_minimally_globally_rigid(g, 2, Rng(5))  # G - (0, 2) is the wheel
        j = g.edges.index((0, 1))
        assert j not in _series_free(g)
        _, _, _, stresses, _ = next(_trials(g, 2, Rng(6)))
        directions = _planar_proof(stresses.values())
        assert directions.count(directions[j]) > 1

    def test_kappa_three_and_a_redundantly_rigid_g_minus_e(self):
        # K4 on {1, 2, 3, 4} and K5 on {0, 1, 2, 5, 6}, joined also by the
        # edge (0, 3): G - (0, 3) stays redundantly rigid, but {1, 2}
        # separates it, so only its own 3-connectivity test says "no"
        edges = set(combinations((1, 2, 3, 4), 2)) | set(combinations((0, 1, 2, 5, 6), 2))
        g = Graph(7, tuple(edges | {(0, 3)}))
        h = g.delete_edge(0, 3)
        assert vertex_connectivity(g) == 3 and is_globally_rigid(g, 2, Rng(1))
        assert is_redundantly_rigid(h, 2, Rng(2)) and vertex_connectivity(h) == 2
        assert not is_redundantly_globally_rigid(g, 2, Rng(3))
        assert not redundantly_globally_rigid_per_edge(g, 2, Rng(3))
        assert g.edges.index((0, 3)) in _series_free(g)


def two_k5_on_a_triangle() -> Graph:
    """Two K5 sharing the triangle {2, 3, 4}: kappa = 3 and redundantly
    globally rigid in dimension 2."""
    return Graph(7, tuple(set(combinations(range(5), 2)) | set(combinations((2, 3, 4, 5, 6), 2))))


def k4_and_k5_on_an_edge() -> Graph:
    """K4 on {1, 2, 3, 4} and K5 on {0, 1, 2, 5, 6}, joined also by (0, 3):
    kappa = 3, globally rigid in dimension 2, G - (0, 3) 2-connected."""
    edges = set(combinations((1, 2, 3, 4), 2)) | set(combinations((0, 1, 2, 5, 6), 2))
    return Graph(7, tuple(edges | {(0, 3)}))


@st.composite
def planar_graphs_to_twelve(draw):
    """Graphs on 4 to 12 vertices with 2n - 2 to 3n edges, labels drawn:
    often rigid in dimension 2, sometimes redundantly, with and without
    2-element cocircuits."""
    n = draw(st.integers(4, 12))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(2 * n - 2, min(len(pairs), 3 * n)))
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m,
                                        unique=True))))


class TestSeriesFree:
    """The exact planar route: ``_series_free`` against the 2-element
    cocircuits by definition (``oracles.series_pairs_by_rank_drop``), and
    the three d = 2 verdicts against the trial route it replaced
    (``oracles.planar_route_mismatches``)."""

    @staticmethod
    def assert_matches_the_rank_drops(g) -> bool:
        free = _series_free(g)
        assert (free is None) == (not is_redundantly_rigid(g, 2))
        if free is not None:
            series = set().union(*series_pairs_by_rank_drop(g))
            assert free == {j for j, e in enumerate(g.edges) if e not in series}
        return free is not None

    def test_matches_the_rank_drops_on_every_class_of_four_to_seven_vertices(self, graphs_by_n):
        graphs = [g for n in range(4, 8) for g in graphs_by_n[n]]
        assert len(graphs) == 1245
        assert sum(self.assert_matches_the_rank_drops(g) for g in graphs) == 163

    @settings(max_examples=40)
    @given(g=st.one_of(planar_graphs_to_twelve(), planar_deletion_graphs()))
    def test_matches_the_rank_drops(self, g):
        self.assert_matches_the_rank_drops(g)

    def test_verdicts_match_the_trial_route_on_every_class_up_to_seven_vertices(
            self, graphs_by_n):
        graphs = [g for n in range(1, 8) for g in graphs_by_n[n]]
        assert len(graphs) == 1252
        assert planar_route_mismatches(graphs, Rng(7)) == []

    @given(data=st.data())
    def test_verdicts_match_the_trial_route(self, data):
        g = data.draw(st.one_of(planar_graphs_to_twelve(), planar_deletion_graphs()))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        assert planar_route_mismatches([g], rng) == []

    @pytest.mark.parametrize("g", [complete(6), wheel(6), k4_and_k5_on_an_edge(),
                                   complete_bipartite(3, 3)],
                             ids=["K6", "wheel6", "K4-K5-on-an-edge", "K33"])
    def test_the_planar_route_factors_nothing(self, g, factorizations, eliminations):
        is_globally_rigid(g, 2, Rng(1))
        is_minimally_globally_rigid(g, 2, Rng(2))
        is_redundantly_globally_rigid(g, 2, Rng(3))
        assert factorizations == [] and eliminations == []


class TestOneDeletionLoop:
    """One deletion loop on every route, against a loop per route; at
    d = 2 the planar route against the trial route it replaced."""

    @pytest.mark.parametrize("d, route", [
        (1, _route), (1, stress_route), (2, _route), (2, stress_route), (3, _route),
    ], ids=lambda x: getattr(x, "__name__", None))
    @settings(max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_the_loop_per_route(self, d, route, data, factorizations, flows,
                                        monkeypatch):
        # the same verdicts from the same trials, with the same
        # factorizations, flows and stress-test draws; the planar route
        # factors nothing where the trial route factored, and runs at most
        # its flows: a 2-element cocircuit says "no" before any flow
        draws = []
        real_certifies = global_rigidity._certifies

        def recording(h, real, stresses, rng, gone=frozenset()):
            draws.append((rng.seed, frozenset(gone)))
            return real_certifies(h, real, stresses, rng, gone)

        monkeypatch.setattr(global_rigidity, "_certifies", recording)
        monkeypatch.setattr(oracles, "_certifies", recording)
        g = data.draw(st.one_of(planar_deletion_graphs() if d == 2 else dense_graphs(d),
                                tiny_graphs(d)))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        how = route(g, d)
        for minimal in (True, False):
            for log in (factorizations, flows, draws):
                log.clear()
            got = _edge_deletions(g, d, how, minimal, _trials(g, d, rng))
            work = (len(factorizations), len(flows), list(draws))
            for log in (factorizations, flows, draws):
                log.clear()
            assert got == edge_deletions_by_route(g, d, rng, how, minimal, _trials(g, d, rng))
            if how == "combinatorial-2d":
                assert work[0] == 0 and work[1] <= len(flows) and work[2] == draws == []
            else:
                assert work == (len(factorizations), len(flows), draws)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_planar_g_test_matches_redundant_rigidity(self, data):
        g = data.draw(st.one_of(planar_deletion_graphs(), small_graphs(2)))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        cert = is_globally_rigid(g, 2, rng)
        if g.n > 3:
            assert cert.method == "combinatorial-2d"
            assert bool(cert) == globally_rigid_2d_by_redundant_rigidity(g, rng)
        # G's verdict is the first proof of the families' loop
        assert _edge_deletions(g, 2, cert.method, True, _trials(g, 2, rng))[0] == bool(cert)

    @pytest.mark.parametrize("graph, redundant, expect", [
        (two_k5_on_a_triangle, False, (0, 6)),
        (two_k5_on_a_triangle, True, (0, 54)),
        (k4_and_k5_on_an_edge, False, (0, 6)),
        (k4_and_k5_on_an_edge, True, (0, 10)),
    ], ids=["minimal-redundant-input", "redundant-redundant-input",
            "minimal-other-input", "redundant-other-input"])
    def test_kappa_three_counts(self, graph, redundant, expect, factorizations, flows):
        # factorizations and flows of both families at d = 2: the flows the
        # loop per route ran on the trial route, and no factorization
        g = graph()
        assert vertex_connectivity(g) == 3
        flows.clear()
        family = is_redundantly_globally_rigid if redundant else is_minimally_globally_rigid
        assert family(g, 2, Rng(3)) == (redundant and g == two_k5_on_a_triangle())
        assert (len(factorizations), len(flows)) == expect

    @pytest.mark.parametrize("bad, decides", [([(0, 0)], 1), ([(0, 0), (1, 0)], 2)],
                             ids=["trial-0-collapsed", "trials-0-and-1-collapsed"])
    def test_global_rigidity_in_2d_skips_a_collapsed_trial(self, bad, decides,
                                                            factorizations):
        # on the stress route trial 0 puts every vertex at one point, so
        # trial 1 decides; with trial 1 collapsed too, trial 2. The planar
        # route reads no trial.
        g = complete(6)
        cert = stress_certificate(g, 2, DegenerateRng(5, bad))
        assert cert and cert.note == f"stress matrix reached rank 3 in trial {decides}"
        assert factorizations == [g] * (decides + 1)
        factorizations.clear()
        cert = is_globally_rigid(g, 2, DegenerateRng(5, bad))
        assert cert and cert.method == "combinatorial-2d"
        assert factorizations == []


class TestStressBlock:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_blocks_are_the_stress_matrix_by_its_definition(self, data):
        g = data.draw(small_graphs(2))
        values = data.draw(st.lists(st.integers(-5, PRIME + 5), min_size=g.m, max_size=g.m))
        full = stress_matrix_by_definition(g, values)
        mat = stress_matrix(g, Stress(edges=g.edges, values=tuple(values)))
        assert [list(row) for row in mat.data] == full
        rest = sorted(data.draw(st.sets(st.integers(0, g.n - 1))))
        assert _stress_block(g.edges, values, rest) == [[full[u][v] for v in rest] for u in rest]


class TestExactWitness:
    """The exact stress check behind every "yes" raises, also under -O."""

    def test_a_corrupted_stress_raises(self):
        g = complete(6)
        real = sample_realization(g, 3, Rng(12))
        _, stresses = rigidity._factor(g, real, g.edges)
        w = list(next(iter(stresses.values())))
        w[0] = (w[0] + 1) % PRIME
        with pytest.raises(ArithmeticError, match="stress check failed"):
            _certifies(g, real, [tuple(w)], Rng(13))

    def test_components_refuse_trials_without_edge_stresses(self):
        # the sampled route, d >= 3
        g = complete(5)
        with pytest.raises(AssertionError, match="lacks edge stresses"):
            rigidity._matroid(g, 3, _trials(g, 3, Rng(1), edge_stresses=False), rigidity._connects)

    def test_a_stress_left_nonzero_on_a_deleted_edge_raises(self):
        # a stress of G that is nonzero on e is no stress of G - e
        g = complete(6)
        real = sample_realization(g, 3, Rng(12))
        _, stresses = rigidity._factor(g, real, g.edges)
        stresses = list(stresses.values())
        j = next(j for j in range(g.m) if all(w[j] for w in stresses))
        assert _certifies(g, real, _without(stresses, j), Rng(13), {j})
        with pytest.raises(ArithmeticError, match="stress check failed"):
            _certifies(g, real, stresses, Rng(13), {j})


class TestBlockStressTest:
    """The stress test ranks the (n - d - 1)-square principal block of the
    stress matrix off the realization's affine frame; the full n x n rank
    (``oracles.certifies_full_rank``) gives the same verdict on every draw."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_block_matches_the_full_rank(self, d, data):
        # vertex k <= d, when drawn, is moved onto the affine span of the
        # vertices before it, so that the frame skips it
        g = data.draw(st.one_of(dense_graphs(d), small_graphs(d), shared_cliques(d)))
        rng = Rng(data.draw(st.integers(0, 2**32)))
        coords = [list(c) for c in sample_realization(g, d, rng.child(0)).coords]
        k = data.draw(st.integers(0, d))
        if k:
            mix = rng.child(1)
            t = [mix.field_element() for _ in range(k - 1)]
            t.append(1 - sum(t))
            coords[k] = [sum(a * coords[i][x] for i, a in enumerate(t)) % PRIME
                         for x in range(d)]
        real = Realization(d=d, coords=tuple(map(tuple, coords)), seed=rng.seed)
        assert not k or k not in real.frame
        _, stresses = rigidity._factor(g, real, g.edges)
        stresses = list(stresses.values())
        if not stresses:
            return
        assert _certifies(g, real, stresses, rng.child(2)) == \
            certifies_full_rank(g, real, stresses, rng.child(2))
        for j in data.draw(st.lists(st.sampled_from(range(g.m)), max_size=3, unique=True)):
            rest = _without(stresses, j)
            if rest:
                assert _certifies(g, real, rest, rng.child(3 + j), {j}) == \
                    certifies_full_rank(g, real, rest, rng.child(3 + j), {j})

    def test_two_k4_sharing_an_edge_carry_stresses_but_no_proof(self):
        # rank 9 on 11 edges at d = 2: two stresses, none of rank 3
        g = Graph(6, tuple(set(combinations(range(4), 2)) | set(combinations((0, 1, 4, 5), 2))))
        for _, real, pivots, stresses, sub in _trials(g, 2, Rng(3)):
            assert (len(pivots), len(stresses)) == (9, 2)
            stresses = list(stresses.values())
            assert not _certifies(g, real, stresses, sub.child(1))
            assert not certifies_full_rank(g, real, stresses, sub.child(1))

    @pytest.mark.parametrize("d, coords, frame", [
        # K5 at d = 2 with vertices 0, 1, 2 on a line
        (2, ((0, 0), (1, 1), (2, 2), (5, 17), (-3, 8)), (0, 1, 3)),
        # K6 at d = 3 with vertices 0..3 on the plane z = 0
        (3, ((1, 2, 0), (7, -4, 0), (3, 9, 0), (-5, 6, 0), (2, 11, 13), (8, -1, 4)),
         (0, 1, 2, 4)),
    ])
    def test_a_frame_skips_affinely_dependent_points(self, d, coords, frame):
        g = complete(len(coords))
        real = Realization(d=d, coords=coords, seed=0)
        assert real.frame == frame
        pivots, stresses = rigidity._factor(g, real, g.edges)
        assert len(pivots) == rigidity.rigid_rank_target(g.n, d)
        stresses = list(stresses.values())
        for seed in range(3):
            assert _certifies(g, real, stresses, Rng(seed))
            assert certifies_full_rank(g, real, stresses, Rng(seed))

    def test_points_on_a_hyperplane_have_no_frame(self):
        # every point of K6 on the plane z = 5: the stresses pass their
        # exact check, but no principal block can stand in for the rank
        coords = ((1, 2, 5), (7, -4, 5), (3, 9, 5), (-5, 6, 5), (2, 11, 5), (8, -1, 5))
        g = complete(6)
        real = Realization(d=3, coords=coords, seed=0)
        pivots, stresses = rigidity._factor(g, real, g.edges)
        assert len(pivots) < rigidity.rigid_rank_target(g.n, 3)
        with pytest.raises(NonGenericRealizationError, match="hyperplane"):
            _certifies(g, real, list(stresses.values()), Rng(1))
        with pytest.raises(NonGenericRealizationError, match="hyperplane"):
            real.frame

    def test_the_stress_test_eliminates_a_frame_and_a_block(self, eliminations):
        # one factorization of R(K6, p)^T (18 x 15), the 4 x 6 frame matrix
        # and the 2 x 2 block, where the full stress matrix was 6 x 6
        assert is_globally_rigid(complete(6), 3, Rng(7))
        assert eliminations == [(18, 15), (4, 6), (2, 2)]


class TestOneFactorizationPerTrial:
    # at d <= 2 the pebble game eliminates nothing
    # (TestPebbleGame.test_matroid_queries_eliminate_nothing)
    @pytest.mark.parametrize("g, d", [
        (complete(6).disjoint_union(complete(4)), 3),
        (Graph(6, complete(5).edges + ((4, 5),)), 3),
        (complete(8), 3),
    ])
    def test_matroid_report_eliminates_at_most_trials_times(self, g, d, monkeypatch):
        calls = []
        real_echelon = rigidity._echelon

        def counting(rows, cols):
            calls.append((len(rows), cols))
            return real_echelon(rows, cols)

        monkeypatch.setattr(rigidity, "_echelon", counting)
        report = matroid_report(g, d, Rng(3))
        assert 1 <= len(calls) <= rigidity.TRIALS
        assert all(shape == (d * g.n, g.m) for shape in calls)
        assert report.rank == len(report.basis)

    def test_a_connected_matroid_settles_in_one_trial(self, monkeypatch):
        calls = []
        real_echelon = rigidity._echelon
        monkeypatch.setattr(rigidity, "_echelon",
                            lambda rows, cols: calls.append(cols) or real_echelon(rows, cols))
        assert len(matroid_report(complete(6), 3, Rng(4)).components) == 1
        assert len(calls) == 1

    def test_redundant_rigidity_of_k5_takes_one_elimination(self, eliminations):
        assert is_redundantly_rigid(complete(5), 3, Rng(4))
        assert len(eliminations) == 1

    def test_minimality_of_the_braced_icosahedron_shares_its_factorizations(
            self, factorizations):
        g = icosahedron_braced()
        assert is_minimally_globally_rigid(g, 3, Rng(5))
        assert 1 <= len(factorizations) <= rigidity.TRIALS
        assert all(f == g for f in factorizations)

    def test_redundancy_shares_its_factorizations(self, factorizations):
        assert is_redundantly_globally_rigid(complete(7), 3, Rng(5))
        assert not is_redundantly_globally_rigid(complete(5), 3, Rng(5))
        assert len(factorizations) <= 2 * rigidity.TRIALS

    def test_redundancy_in_2d_shares_its_factorizations(self, factorizations):
        # on the stress route one factorization of G answers every G - e;
        # testing each G - e on its own factors each of them. The planar
        # route factors nothing.
        g = complete(6)
        assert _edge_deletions(g, 2, "stress", False, _trials(g, 2, Rng(5)))[1]
        assert 1 <= len(factorizations) <= rigidity.TRIALS
        assert all(f == g for f in factorizations)
        factorizations.clear()
        assert is_redundantly_globally_rigid(g, 2, Rng(5))
        assert factorizations == []

    def test_minimality_of_a_wheel_in_2d_takes_one_factorization(self, factorizations):
        # on the stress route every G - e is stress-free at the rigid rank
        # of G's one trial; on the planar route every edge meets a rim
        # vertex of degree 3, so no G - e is 3-connected, and nothing is
        # factored
        g = wheel(6)
        assert _edge_deletions(g, 2, "stress", True, _trials(g, 2, Rng(5)))[1]
        assert factorizations == [g]
        factorizations.clear()
        assert is_minimally_globally_rigid(g, 2, Rng(5))
        assert factorizations == []

    @pytest.mark.parametrize("g, d", [
        pytest.param(complete(11), 3, id="complete11"),
        pytest.param(complete(9), 3, id="complete9"),
        pytest.param(g13_52(), 3, id="G13,52"),
        pytest.param(complete(8), 1, id="complete8-1d"),
        pytest.param(complete(9), 2, id="complete9-2d"),
    ])
    def test_sparsify_factors_g_once(self, g, d, factorizations, monkeypatch):
        # the stress test of G and both greedy passes share it, and no
        # stress matrix pencil is combined on the way
        def pencil(*args, **kwargs):
            raise AssertionError("the sparsifier combined a matrix pencil")

        monkeypatch.setattr(global_rigidity, "subset_rank_reduce", pencil)
        monkeypatch.setattr(global_rigidity, "random_combination", pencil)
        result = sparsify_globally_rigid(g, d, Rng(7))
        assert result.log["minimization_removed"] > 0
        assert result.graph.m <= minimally_globally_rigid_edge_bound(g.n, d)
        assert factorizations == [g]

    def test_sparsify_keeps_stresses_within_the_bound(self):
        # two fundamental stresses, at most n - d - 1 = 2: the first pass
        # keeps both, as the edge bound already holds for G
        result = sparsify_globally_rigid(complete(5).delete_edge((0, 1)), 2, Rng(1729))
        assert result.extra_edges == ((2, 4), (3, 4))
        assert result.log["generators_before"] == result.log["generators_after"] == 2


class TestDegenerateRealizations:
    # bridges, is_linked (tests/test_linked.py) and the stress test drop the
    # same short trial: trial 0 of the one trial source, whose realization
    # is drawn on the path (0, 0)

    def test_short_rank_trial_is_discarded(self):
        # trial 0 places every vertex at one point: rank 0, and every edge a
        # loop whose singleton support would hide the pendant bridge
        g = Graph(6, complete(5).edges + ((4, 5),))
        rng = DegenerateRng(11, [(0, 0)])
        assert bridges(g, 3, rng) == ((4, 5),)
        assert rigid_basis(g, 3, rng) == rigid_basis(g, 3, Rng(11))
        report = matroid_report(g, 3, rng)
        assert report.rank == 10 and report.bridges == ((4, 5),)
        assert report.components == (complete(5).edges, ((4, 5),))

    def test_fundamental_circuit_skips_a_degenerate_trial(self):
        g = complete(5)
        basis = rigid_basis(g, 3, Rng(1))
        (extra,) = [e for e in g.edges if e not in set(basis)]
        assert fundamental_circuit(g, 3, basis, extra, DegenerateRng(2, [(0,)])) == g.edges

    def test_stress_test_resamples_after_a_short_trial(self, factorizations):
        cert = is_globally_rigid(complete(6), 3, DegenerateRng(5, [(0, 0)]))
        assert cert and "trial 1" in cert.note
        assert len(factorizations) == 2

    def test_stress_test_without_a_rigid_trial_says_not_rigid(self, factorizations):
        # a wrong "no" is the documented direction of the stress test
        rng = DegenerateRng(5, [(0, 0), (1, 0), (2, 0)])
        assert not is_globally_rigid(complete(6), 3, rng)
        assert len(factorizations) == rigidity.TRIALS

    def test_minimality_skips_a_collapsed_shared_trial(self, factorizations):
        # trial 0 of the shared factorization puts every vertex at one point
        assert is_minimally_globally_rigid(icosahedron_braced(), 3, DegenerateRng(5, [(0, 0)]))
        assert len(factorizations) == 2

    def test_redundancy_skips_a_collapsed_shared_trial(self, factorizations):
        assert is_redundantly_globally_rigid(complete(7), 3, DegenerateRng(5, [(0, 0)]))
        assert len(factorizations) == 2

    def test_redundancy_in_2d_skips_a_collapsed_trial(self, factorizations):
        g = complete(6)
        rng = DegenerateRng(5, [(0, 0)])
        assert _edge_deletions(g, 2, "stress", False, _trials(g, 2, rng))[1]
        assert factorizations == [g, g]
        factorizations.clear()
        assert is_redundantly_globally_rigid(g, 2, rng)
        assert factorizations == []

    def test_redundancy_in_2d_reads_a_trial_with_a_zero_column(self, factorizations):
        # period 3 puts vertex 3 on vertex 0 and vertex 4 on vertex 1: trial
        # 0 reaches the rigid rank 7, but no stress is nonzero on the edges
        # at vertex 2, which lies in the affine frame. On the stress route
        # trial 0 still proves G, yet those edges are bridges at its p, so
        # their G - e stay open and trial 1 settles them. The trial route
        # proved nothing on trial 0; the planar route reads no trial.
        g = complete(5)
        rng = DegenerateRng(5, [(0, 0)], period=3)
        _, real, pivots, stresses, _ = next(_trials(g, 2, rng))
        assert len(pivots) == 7 and _planar_proof(stresses.values()) is None
        assert 2 in real.frame
        factorizations.clear()
        assert stress_certificate(g, 2, rng).note == "stress matrix reached rank 2 in trial 0"
        assert _edge_deletions(g, 2, "stress", False, _trials(g, 2, rng))[1]
        assert factorizations == [g, g, g]
        factorizations.clear()
        assert is_redundantly_globally_rigid(g, 2, rng)
        assert factorizations == []

    def test_stress_basis_rejects_a_degenerate_realization(self):
        g = complete(5)
        real = sample_realization(g, 3, DegenerateRng(6, [(0,)]).child(0))
        with pytest.raises(NonGenericRealizationError):
            stress_basis(g, 3, real, rigid_basis(g, 3, Rng(6)))

    def test_stress_basis_rejects_a_non_spanning_basis(self):
        g = complete(5)
        real = sample_realization(g, 3, Rng(8))
        with pytest.raises(NonGenericRealizationError, match="independent of the basis"):
            stress_basis(g, 3, real, rigid_basis(g, 3, Rng(9))[:-1])

    def test_sparsify_retries_after_a_degenerate_attempt(self, factorizations):
        g = complete(7)
        # trial 0 draws its realization from rng.child(0).child(0)
        result = sparsify_globally_rigid(g, 3, DegenerateRng(7, [(0, 0)]))
        assert result.log["retries"] == 1
        assert factorizations == [g, g]
        assert result.graph.m <= minimally_globally_rigid_edge_bound(g.n, 3)
        assert is_minimally_globally_rigid(result.graph, 3, Rng(70))

    def test_sparsify_skips_a_failed_stress_test(self, factorizations, monkeypatch):
        # the first draw of trial 0, on every fundamental stress, is the
        # stress test of G; its failure skips the trial
        g = complete(7)
        calls = []
        real_certifies = global_rigidity._certifies

        def failing_first(h, real, stresses, rng, gone=frozenset()):
            calls.append(set(gone))
            return len(calls) > 1 and real_certifies(h, real, stresses, rng, gone)

        monkeypatch.setattr(global_rigidity, "_certifies", failing_first)
        result = sparsify_globally_rigid(g, 3, Rng(7))
        assert result.log["retries"] == 1
        assert calls[:2] == [set(), set()] and factorizations == [g, g]
        assert is_minimally_globally_rigid(result.graph, 3, Rng(70))

    def test_sparsify_skips_a_cut_vertex_trial(self, monkeypatch):
        # at d = 1 the greedy pass gives up on a kept graph with a cut vertex
        g = complete(6)
        expect = sparsify_globally_rigid(g, 1, Rng(8))
        calls = []
        real_connected = global_rigidity.is_k_connected
        monkeypatch.setattr(global_rigidity, "is_k_connected",
                            lambda h, k: bool(calls.append(h)) or (len(calls) > 1
                                                                  and real_connected(h, k)))
        result = sparsify_globally_rigid(g, 1, Rng(8))
        assert expect.log["retries"] == 0 and result.log["retries"] == 1
        assert calls[0] == calls[1]  # the same kept graph, one trial later
        assert result.graph == expect.graph
        assert is_minimally_globally_rigid(result.graph, 1, Rng(80))

    def test_greedy_pass_rejects_a_cut_vertex(self):
        # two triangles sharing vertex 2: globally rigid on no realization in 1D
        g = Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
        real = sample_realization(g, 1, Rng(9))
        assert _greedy_pass(g, real, [], (), range(g.m), Rng(10)) is None

    def test_sparsify_gives_up_with_a_documented_error(self, factorizations):
        # every trial places all vertices at one point; a wrong "no" is the
        # documented direction of the sparsifier
        bad = [(t, 0) for t in range(3)]
        with pytest.raises(NotGloballyRigidError, match="not globally rigid"):
            sparsify_globally_rigid(complete(7), 3, DegenerateRng(7, bad))
        assert len(factorizations) == rigidity.TRIALS

    def test_reducer_retries_a_degenerate_combination(self):
        # equal coefficients cancel I and -I; one fresh draw recovers rank 2
        mats = [FieldMatrix.identity(2), FieldMatrix(2, 2, [[-1, 0], [0, -1]])]
        assert subset_rank_reduce(mats, 2, DegenerateRng(3, [(0, 0)]))[0] == (0, 1)
        with pytest.raises(RankNotAchievableError):
            subset_rank_reduce(mats, 2, DegenerateRng(3, [(0, t) for t in range(3)]))
