"""Acceptance battery.

Each test implements one acceptance criterion end to end at its stated
corpus size and prints a single PASS line (run with ``pytest -s`` to see
them). All corpora marked "all (connected) graphs on n vertices" are swept
through one canonical representative per isomorphism class; every property
checked here is isomorphism-invariant, so the coverage is identical to the
labeled sweep at a fraction of the cost.
"""

from itertools import combinations

from rigidkit import (
    Graph,
    TwoSumSpec,
    bridges,
    complete,
    complete_bipartite,
    cone,
    icosahedron_braced,
    is_circuit,
    is_globally_rigid,
    is_k_connected,
    is_matroid_connected,
    is_minimally_globally_rigid,
    is_redundantly_globally_rigid,
    is_redundantly_matroid_connected,
    is_redundantly_rigid,
    is_rigid,
    k4e_chain,
    min_mixed_cut,
    minimally_globally_rigid_edge_bound,
    mixed_k_connected_subgraph,
    sparsify_globally_rigid,
    subset_rank_reduce,
    two_sum,
    wheel,
)
from rigidkit.field import FieldMatrix, Rng, rank, random_combination
from rigidkit.corpus import nonisomorphic_graphs, random_graph, random_graph_with_edges
from rigidkit.global_rigidity import RankNotAchievableError
from rigidkit.linked import CorpusSpec, explore_conjecture

from oracles import min_mixed_cut_brute, stress_certificate

SEED = 20260809

# stress-vs-deterministic disagreements observed anywhere in this module;
# criterion 12 asserts the total stays zero
SOUNDNESS_LEDGER = {"comparisons": 0, "overturned": 0}


def _connected_upto(n_max):
    for n in range(1, n_max + 1):
        yield from (g for g in nonisomorphic_graphs(n) if g.is_connected())


def _all_upto(n_max):
    for n in range(1, n_max + 1):
        yield from nonisomorphic_graphs(n)


def _passed(name):
    print(f"ACCEPTANCE PASS: {name}")


def _compare_oracles(g, d, rng):
    stress = bool(stress_certificate(g, d, rng.child(0)))
    combinatorial = bool(is_globally_rigid(g, d, rng.child(1)))
    SOUNDNESS_LEDGER["comparisons"] += 1
    if stress != combinatorial:
        SOUNDNESS_LEDGER["overturned"] += 1
    return stress == combinatorial


def test_criterion_01_sparsifier_edge_bound_and_minimality():
    rng = Rng(SEED)
    checked = 0
    for d in (1, 2):
        for i, g in enumerate(_connected_upto(7)):
            if g.n < d + 2:
                continue
            if not is_globally_rigid(g, d, rng.child(i)):
                continue
            res = sparsify_globally_rigid(g, d, rng.child(10**6 + i))
            bound = minimally_globally_rigid_edge_bound(g.n, d)
            assert res.graph.m <= bound, (g, d)
            if res.graph.m == bound:
                assert res.graph.is_complete() and res.graph.n == d + 2
            assert is_minimally_globally_rigid(res.graph, d, rng.child(2 * 10**6 + i))
            checked += 1

    named = [complete(5), complete(6), icosahedron_braced(), complete_bipartite(4, 7)]
    d3_corpus = list(named)
    tag = 0
    while len(d3_corpus) < len(named) + 200:
        tag += 1
        sub = rng.child(3 * 10**6 + tag)
        n = 6 + sub.next_u64() % 4
        g = random_graph(n, 0.75, sub.child(0))
        if g.n >= 5 and is_globally_rigid(g, 3, sub.child(1)):
            d3_corpus.append(g)
    for i, g in enumerate(d3_corpus):
        res = sparsify_globally_rigid(g, 3, rng.child(4 * 10**6 + i))
        bound = minimally_globally_rigid_edge_bound(g.n, 3)
        assert res.graph.m <= bound
        if res.graph.m == bound:
            assert res.graph.is_complete() and res.graph.n == 5
        assert is_minimally_globally_rigid(res.graph, 3, rng.child(5 * 10**6 + i))
        checked += 1
    _passed(f"criterion 1 (sparsifier bound + minimality, {checked} graphs)")


def test_criterion_02_equality_case_is_the_small_complete_graph():
    rng = Rng(SEED + 1)
    hits = []
    for d in (1, 2):
        bound_at = {n: minimally_globally_rigid_edge_bound(n, d) for n in range(d + 2, 8)}
        for i, g in enumerate(_connected_upto(7)):
            if g.n < d + 2 or g.m != bound_at.get(g.n):
                continue
            if not is_minimally_globally_rigid(g, d, rng.child(i)):
                continue
            hits.append((d, g))
            assert g.is_complete() and g.n == d + 2, (d, g)
    assert {(d, g.n) for d, g in hits} == {(1, 3), (2, 4)}
    _passed("criterion 2 (edge-bound equality only at the complete graph)")


def test_criterion_03_two_dimensional_oracle_equivalence():
    rng = Rng(SEED + 2)
    count = 0
    for i, g in enumerate(_connected_upto(7)):
        assert _compare_oracles(g, 2, rng.child(i)), g
        count += 1
    for i in range(500):
        sub = rng.child(10**6 + i)
        n = 4 + sub.next_u64() % 6  # 4..9
        p = 0.3 + (sub.next_u64() % 56) / 100.0  # 0.30..0.85
        g = random_graph(n, p, sub.child(0))
        assert _compare_oracles(g, 2, sub.child(1)), g
        count += 1
    _passed(f"criterion 3 (d=2 stress == combinatorial on {count} graphs)")


def test_criterion_04_one_dimensional_oracle_equivalence():
    rng = Rng(SEED + 3)
    count = 0
    for i, g in enumerate(_all_upto(7)):
        assert _compare_oracles(g, 1, rng.child(i)), g
        count += 1
    _passed(f"criterion 4 (d=1 stress == 2-connectivity on {count} graphs)")


def test_criterion_05_named_example_battery():
    rng = Rng(SEED + 4)

    g = complete_bipartite(3, 4)
    assert g.m == 12
    assert is_minimally_globally_rigid(g, 2, rng.child(0))

    g = complete_bipartite(4, 7)
    assert g.m == 28 == g.n * 4 - 4 * 4  # n(d+1) - (d+1)^2 at n=11, d=3
    assert is_minimally_globally_rigid(g, 3, rng.child(1))

    g = icosahedron_braced()
    assert g.m == 31 == 3 * g.n - 5
    assert g.min_degree() == 5
    assert is_minimally_globally_rigid(g, 3, rng.child(2))

    # chains of K4-minus-an-edge have no nontrivial globally rigid subgraph
    # in the plane; subgraph global rigidity is edge-monotone, so checking
    # induced subgraphs is exhaustive over all subgraphs
    for blocks in (2, 3):
        g = k4e_chain(blocks)
        for size in range(4, g.n + 1):
            for verts in combinations(range(g.n), size):
                sub = g.induced(verts)
                assert not is_globally_rigid(sub, 2, rng.child(hash(verts) % 10**9))
    g = k4e_chain(4)
    assert not is_globally_rigid(g, 2, rng.child(3))
    from rigidkit import globally_rigid_subgraph_2d

    assert globally_rigid_subgraph_2d(g) is None
    _passed("criterion 5 (named example battery)")


def test_criterion_06_coning_transfer():
    rng = Rng(SEED + 5)
    for i in range(100):
        sub = rng.child(i)
        n = 2 + sub.next_u64() % 6  # 2..7
        p = 0.25 + (sub.next_u64() % 61) / 100.0
        g = random_graph(n, p, sub.child(0))
        c = cone(g)
        for d in (1, 2):
            assert is_rigid(g, d, sub.child(10 + d)) == \
                is_rigid(c, d + 1, sub.child(20 + d)), (g, d)
            assert bool(is_globally_rigid(g, d, sub.child(30 + d))) == \
                bool(is_globally_rigid(c, d + 1, sub.child(40 + d))), (g, d)
    _passed("criterion 6 (coning transfers rigidity and global rigidity, 100 graphs)")


def test_criterion_07_two_sum_suite():
    rng = Rng(SEED + 6)
    k4 = complete(4)
    family = [k4, two_sum(k4, k4), wheel(4)]
    for i, g1 in enumerate(family):
        for j, g2 in enumerate(family):
            sub = rng.child(10 * i + j)
            glued = two_sum(g1, g2)
            # circuit gluing: both operands are circuits here, so the 2-sum is
            assert is_circuit(g1, 2, sub.child(0)) and is_circuit(g2, 2, sub.child(1))
            assert is_circuit(glued, 2, sub.child(2))
            # three-way matroid connectivity equivalence
            assert is_matroid_connected(glued, 2, sub.child(3))
            assert is_matroid_connected(glued.add_edge(0, 1), 2, sub.child(4))
    # gluing a non-circuit breaks both properties
    from rigidkit import cycle

    bad = two_sum(cycle(4), k4)
    assert not is_circuit(bad, 2, rng.child(100))
    assert not is_matroid_connected(bad, 2, rng.child(101))

    # one-dimensional redundant-connectivity example: operands fail, 2-sum holds
    def operand():
        edges = list(complete(4).edges)
        edges += [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6), (1, 4)]
        return Graph(7, tuple(edges))

    g1, g2 = operand(), operand()
    assert not is_redundantly_matroid_connected(g1, 1, rng.child(102))
    glued = two_sum(g1, g2, TwoSumSpec((1, 4), (1, 4)))
    assert is_redundantly_matroid_connected(glued, 1, rng.child(103))
    assert is_redundantly_matroid_connected(glued.add_edge(1, 4), 1, rng.child(104))
    # positive transfer: redundantly connected operands glue to the same
    assert is_redundantly_matroid_connected(k4, 1, rng.child(105))
    assert is_redundantly_matroid_connected(two_sum(k4, k4), 1, rng.child(106))
    _passed("criterion 7 (2-sum suite)")


def test_criterion_08_mixed_connectivity():
    rng = Rng(SEED + 7)
    count = 0
    for n in range(2, 7):
        for g in nonisomorphic_graphs(n):
            assert min_mixed_cut(g).cost == min_mixed_cut_brute(g), g
            count += 1
    for k in (3, 4, 5, 6):
        assert min_mixed_cut(complete(k + 1)).cost == k

    outputs = 0
    for i in range(6):
        sub = rng.child(i)
        n = 8 + sub.next_u64() % 6
        g = random_graph(n, 0.8, sub.child(0))
        try:
            h, trace = mixed_k_connected_subgraph(g, 4)
        except Exception:
            continue
        assert min_mixed_cut(h).cost >= trace.k
        outputs += 1
    h, trace = mixed_k_connected_subgraph(complete(7), 6)
    assert min_mixed_cut(h).cost >= 6
    _passed(f"criterion 8 (mixed cuts exact on {count} graphs; {outputs + 1} outputs re-verified)")


def test_criterion_09_dense_to_globally_rigid_pipeline():
    from rigidkit import globally_rigid_subgraph_2d

    rng = Rng(SEED + 8)
    for i in range(50):
        sub = rng.child(i)
        n = 7 + sub.next_u64() % 14  # 7..20
        lo = 5 * n - 14
        m = min(n * (n - 1) // 2, lo + sub.next_u64() % 6)
        g = random_graph_with_edges(n, m, sub.child(0))
        got = globally_rigid_subgraph_2d(g, verify=False)
        assert got is not None and got[0].n >= 7, (n, m)
        assert is_redundantly_globally_rigid(got[0], 2), (n, m)
    _passed("criterion 9 (dense pipeline verified on 50 random graphs)")


def test_criterion_10_subset_rank_reducer():
    rng = Rng(SEED + 9)
    checked = 0
    for i in range(100):
        sub = rng.child(i)
        k = 2 + sub.next_u64() % 7  # 2..8
        size = 2 + sub.next_u64() % 5  # 2..6
        density = 1 + sub.next_u64() % 3
        mats = []
        for _ in range(k):
            rows = [[sub.field_element() % 5 if sub.next_u64() % 3 < density else 0
                     for _ in range(size)] for _ in range(size)]
            mats.append(FieldMatrix.from_rows(rows))

        probe = sub.child(1)
        best = 0
        for t in range(3):
            _, combo = random_combination(mats, probe.child(t))
            best = max(best, rank(combo))
        if best == 0:
            continue
        r = 1 + sub.next_u64() % best  # 1..achievable
        try:
            idx, coeffs = subset_rank_reduce(mats, r, sub.child(2))
        except RankNotAchievableError:
            continue
        assert len(idx) <= r

        # exact recomputation of the returned witness
        acc = [[0] * size for _ in range(size)]
        for j, t in zip(idx, coeffs):
            for a in range(size):
                for b in range(size):
                    acc[a][b] = (acc[a][b] + t * mats[j].entry(a, b)) % (2**61 - 1)
        assert rank(FieldMatrix.from_rows(acc)) >= r

        # exhaustive subset search: some subset of size <= |I| reaches r
        oracle = sub.child(3)
        found = False
        for s in range(1, len(idx) + 1):
            for combo_idx in combinations(range(k), s):
                for t in range(3):
                    _, m = random_combination([mats[j] for j in combo_idx],
                                              oracle.child(997 * s + t))
                    if rank(m) >= r:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        assert found
        checked += 1
    assert checked >= 80
    _passed(f"criterion 10 (subset-rank reducer, {checked} instances)")


def test_criterion_11_connectivity_and_bridge_battery():
    rng = Rng(SEED + 10)
    corpus = list(_all_upto(6))

    # (d+1)-connectivity loss on an edge marks a rank-dropping edge one
    # dimension up, and so does redundant-rigidity loss
    for d in (1, 2):
        for i, g in enumerate(corpus):
            if g.m == 0:
                continue
            sub = rng.child(1000 * d + i)
            upper = None
            if g.n >= d + 2 and is_k_connected(g, d + 1):
                for e in g.edges:
                    h = g.delete_edge(e)
                    if not (h.n >= d + 2 and is_k_connected(h, d + 1)):
                        if upper is None:
                            upper = set(bridges(g, d + 1, sub.child(0)))
                        assert e in upper, (g, e, d, "connectivity")
            if is_redundantly_rigid(g, d, sub.child(1)):
                for j, e in enumerate(g.edges):
                    if not is_redundantly_rigid(g.delete_edge(e), d, sub.child(2 + j)):
                        if upper is None:
                            upper = set(bridges(g, d + 1, sub.child(0)))
                        assert e in upper, (g, e, d, "redundancy")

    # global rigidity loss marks a rank-dropping edge one dimension up
    for d in (1, 2):
        for i, g in enumerate(corpus):
            sub = rng.child(3000 * d + i)
            if g.m == 0 or not is_globally_rigid(g, d, sub.child(0)):
                continue
            upper = set(bridges(g, d + 1, sub.child(1)))
            for j, e in enumerate(g.edges):
                if not is_globally_rigid(g.delete_edge(e), d, sub.child(2 + j)):
                    assert e in upper, (g, e, d, "global rigidity")

    # matroid connectivity one dimension up forces redundant connectivity
    # below, and it always has a droppable edge
    for d in (1, 2):
        for i, g in enumerate(corpus):
            sub = rng.child(5000 * d + i)
            if g.m < 2 or not is_matroid_connected(g, d + 1, sub.child(0)):
                continue
            assert is_redundantly_matroid_connected(g, d, sub.child(1)), (g, d)
            assert any(is_matroid_connected(g.delete_edge(e), d, sub.child(2 + j))
                       for j, e in enumerate(g.edges)), (g, d)

    # graphs with no rank-dropping edge one dimension up keep that property
    # under vertex deletion one dimension down
    for d in (1, 2):
        for i, g in enumerate(corpus):
            sub = rng.child(7000 * d + i)
            if g.m == 0 or bridges(g, d + 1, sub.child(0)):
                continue
            for v in range(g.n):
                h = g.delete_vertex(v)
                assert not bridges(h, d, sub.child(1 + v)), (g, v, d)

    # explorer sweeps: the linked-pair conjecture and the bridge form
    rep = explore_conjecture("linked-gl", 1,
                             CorpusSpec(max_n=7, isomorph_reject=True),
                             rng.child(90000))
    assert rep["counts"]["counterexample_candidates"] == 0
    assert rep["counts"]["unknown"] == 0
    rep = explore_conjecture("linked-gl", 2,
                             CorpusSpec(max_n=6, isomorph_reject=True),
                             rng.child(90001))
    assert rep["counts"]["counterexample_candidates"] == 0
    for d in (1, 2):
        rep = explore_conjecture("bridge", d,
                                 CorpusSpec(max_n=6, isomorph_reject=True),
                                 rng.child(90002 + d))
        assert rep["counts"]["counterexample_candidates"] == 0
        assert rep["counts"]["cases"] > 0
    _passed("criterion 11 (connectivity/bridge battery + conjecture explorer)")


def test_criterion_12_randomized_soundness():
    rng = Rng(SEED + 11)
    comparisons = 0
    for i in range(300):
        sub = rng.child(i)
        n = 4 + sub.next_u64() % 6
        p = 0.3 + (sub.next_u64() % 56) / 100.0
        g = random_graph(n, p, sub.child(0))
        for d in (1, 2):
            assert _compare_oracles(g, d, sub.child(10 + d)), (g, d)
            comparisons += 1
    assert SOUNDNESS_LEDGER["overturned"] == 0
    assert SOUNDNESS_LEDGER["comparisons"] >= comparisons
    _passed(f"criterion 12 (zero overturned stress verdicts in "
            f"{SOUNDNESS_LEDGER['comparisons']} recorded comparisons)")
