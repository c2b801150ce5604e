"""Stress spaces, stress matrices and global rigidity certificates.

A graph on n >= d + 2 vertices is generically globally rigid in dimension d
exactly when some (equivalently, a random) equilibrium stress of a generic
realization has a stress matrix of rank n - d - 1. This module implements
that certificate over Z_p, the deterministic combinatorial characterizations
for d <= 2 (2-connectivity, and 3-connectivity plus redundant rigidity),
a randomized subset-rank reducer for matrix pencils, and the sparsifier
that extracts a minimally globally rigid spanning subgraph.

The route is decided once, from n and d alone (``_route``): complete-small
on at most d + 1 vertices, combinatorial-1d or combinatorial-2d at d <= 2,
and stress at d >= 3. One stream (``_tests``) then yields each proof
that G is globally rigid on that route, with a test of every G - e.
``is_globally_rigid`` takes its first proof, and the deletion questions
(minimal and redundant global rigidity) run one loop over all of them
(``_edge_deletions``). Only the stress route draws: its proofs are trials
of ``rigidity._trials`` (one realization p and one factorization of
R(G,p)^T each), filtered by ``_proofs``. A trial proves G with one random
stress of G at p, tested on the (n - d - 1)-square principal block of its
stress matrix that the affine frame of p leaves (``_certifies``), never on
the whole n x n matrix. At p the stresses of G - e are the stresses of G
that vanish on e, so every G - e is read off the factorization of G; at
d >= 3 the sparsifier reads the same proofs, and both of its greedy passes
read every deletion off that stress space. The 1D and 2D routes draw
nothing: pebble games find the 2-element cocircuits of a redundantly rigid
G exactly (``_series_free``), and G - e is redundantly rigid unless e lies
in one. Their test of every G - e (``_exact_deletions``) also drives the
sparsifier at d <= 2, which runs the stress route's two greedy passes with
that exact test in place of the stresses, so every answer at d <= 2 is
exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, compress

from .field import PRIME, FieldMatrix, Rng, _echelon, rank, random_combination
from .graph import Graph, GraphError, is_k_connected
from .rigidity import (
    TRIALS,
    NonGenericRealizationError,
    Realization,
    _check_stress,
    _factor,
    _pebble,
    _rng,
    _trials,
    rigid_rank_target,
)


class RankNotAchievableError(ValueError):
    """No random combination of the given matrices reached the target rank."""


class NotGloballyRigidError(ValueError):
    """An operation that needs a globally rigid input got something else."""


@dataclass(frozen=True)
class Stress:
    """An equilibrium stress: per-edge field values with R(G,p)^T w = 0."""

    edges: tuple[tuple[int, int], ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.values):
            raise GraphError("stress needs one value per edge")

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for e, w in zip(self.edges, self.values) if w)

    def value_on(self, e) -> int:
        e = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
        return self.values[self.edges.index(e)]


def stress_basis(g: Graph, d: int, real: Realization, basis) -> list[Stress]:
    """One fundamental stress per non-basis edge, normalized to 1 there.

    One factorization of R(G,p)^T with the basis columns first and the
    other edges after them in canonical order: each non-basis column is
    then free, and its kernel vector is the stress with value 1 on that
    edge and 0 on the other non-basis edges, supported on the edge's
    fundamental circuit with respect to ``basis``. Every stress is checked
    exactly against the rigidity matrix. Together they form a basis of the
    cokernel of R(G,p), of size |E| - r_d(G).

    Raises:
        NonGenericRealizationError: when the basis rows are dependent at
        ``real`` (a stress would then vanish on its own edge) or some
        non-basis row is independent of them. Callers treat this as a
        signal to resample.
    """
    if real.d != d or len(real.coords) != g.n:
        raise GraphError("realization does not match the graph and dimension")
    basis = tuple(basis)
    basis_set = set(basis)
    if not basis_set <= g.edge_set:
        raise GraphError("basis contains edges outside the graph")
    extras = tuple(e for e in g.edges if e not in basis_set)
    cols = basis + extras
    k = len(basis)
    pivots, stresses = _factor(g, real, cols)
    if pivots[:k] != list(range(k)):
        raise NonGenericRealizationError("basis rows are dependent at this realization")
    if len(pivots) > k:
        raise NonGenericRealizationError(
            f"edge {cols[pivots[k]]} is independent of the basis at this realization")
    position = {e: j for j, e in enumerate(cols)}
    return [Stress(edges=g.edges,
                   values=tuple(stresses[k + i][position[f]] for f in g.edges))
            for i in range(len(extras))]


def _stress_block(edges, values, vertices) -> list[list[int]]:
    """Rows and columns ``vertices`` of the stress matrix of ``values`` on
    ``edges``, in that order: -w(uv) off the diagonal at each edge uv, and
    on the diagonal the sum of w over the edges at the vertex, edges to
    vertices outside the block included. One pass over the edges."""
    at = {v: i for i, v in enumerate(vertices)}
    block = [[0] * len(at) for _ in at]
    for (u, v), w in zip(edges, values):
        a, b = at.get(u), at.get(v)
        if a is not None:
            block[a][a] += w
        if b is not None:
            block[b][b] += w
            if a is not None:
                block[a][b] -= w
                block[b][a] -= w
    return [[x % PRIME for x in row] for row in block]


def stress_matrix(g: Graph, stress: Stress) -> FieldMatrix:
    """The |V| x |V| symmetric assembly of a stress: -w(uv) off-diagonal on
    edges, row sums zero; the block of every vertex (``_stress_block``).
    The stress test does not build it: ``_certifies`` assembles only the
    principal block off the realization's affine frame, which has the same
    verdict."""
    if stress.edges != g.edges:
        raise GraphError("stress is not aligned with this graph")
    return FieldMatrix(g.n, g.n, _stress_block(g.edges, stress.values, range(g.n)))


@dataclass(frozen=True)
class GlobalRigidityCertificate:
    """Verdict plus the path (``_route``) and seed that produced it.

    ``note`` says why, where a route has more to say than its verdict: on
    the stress route (d >= 3) the trial whose stress matrix reached rank
    n - d - 1, or that none did in ``TRIALS`` trials; on a failure of the
    1D route "not 2-connected", and of the 2D route "not 3-connected" or,
    for a 3-connected G, "not redundantly rigid"; empty otherwise.
    """

    globally_rigid: bool
    method: str
    dimension: int
    seed: int
    note: str = ""

    def __bool__(self) -> bool:
        return self.globally_rigid


def _without(stresses, j: int):
    """A basis of the stresses in span(``stresses``) that vanish on edge j:
    the first vector nonzero on j clears j from the others (one pivot step)
    and is dropped. None when every vector vanishes on j, so that j is a
    bridge at the realization."""
    pivot = next((w for w in stresses if w[j]), None)
    if pivot is None:
        return None
    inv = pow(pivot[j], -1, PRIME)
    rest = []
    for w in stresses:
        if w is not pivot:
            f = w[j] * inv % PRIME
            rest.append(tuple((a - f * b) % PRIME for a, b in zip(w, pivot)) if f else w)
    return rest


def _certifies(g: Graph, real: Realization, stresses, rng: Rng, gone=frozenset()) -> bool:
    """Whether a random combination of ``stresses`` (stresses of G at
    ``real``, each zero on the edge indices in ``gone``) has a stress matrix
    of rank n - d - 1. The combination is first checked exactly as a stress
    of G minus the edges in ``gone``, so a True carries an exact witness.

    The n x n stress matrix Omega is never built. Omega is symmetric and
    Omega [P 1] = 0, where row v of [P 1] is (p(v), 1). The rows of [P 1] at
    the affine frame S of ``real`` (``Realization.frame``) are independent,
    so rank Omega <= n - d - 1, with equality exactly when the kernel of
    Omega is spanned by [P 1]; and no nonzero [P 1] c vanishes on S. So for
    T = V - S the rows T of Omega are independent exactly when rank Omega =
    n - d - 1, and for a symmetric matrix, with |T| = n - d - 1, that holds
    exactly when the principal block Omega_TT is nonsingular. The test
    assembles Omega_TT from the stress values (``_stress_block``) and
    asks for full rank.

    Raises:
        NonGenericRealizationError: when ``real`` has no affine frame.
    """
    values = [0] * g.m
    for w in stresses:
        c = rng.field_element()
        for i in compress(range(g.m), w):
            values[i] += c * w[i]
    live = [i for i in range(g.m) if i not in gone]
    edges, values = [g.edges[i] for i in live], [values[i] % PRIME for i in live]
    _check_stress(real, edges, values)
    frame = set(real.frame)
    rest = [v for v in range(g.n) if v not in frame]
    return len(_echelon(_stress_block(edges, values, rest), len(rest))) == len(rest)


def _proofs(g: Graph, d: int, trials):
    """The trials of ``trials`` (``rigidity._trials`` of G) that prove G
    globally rigid on the stress route, in order.

    Trials short of the rigid rank are skipped, and a stress-free trial at
    the rigid rank ends the search: G is then independent, so not globally
    rigid. Every other trial proves G when one random combination of its
    stresses of G at p, drawn on ``sub.child(1)``, has a stress matrix of
    rank n - d - 1 (``_certifies``). Yields each proved trial as ``(t, real,
    pivots, stresses, sub)``: the factorization's pivot columns, its map
    from each free column to that column's fundamental stress (together a
    basis of the stresses of G at p), and ``sub`` for the trial's further
    draws, from ``sub.child(2)`` on.
    """
    for t, real, pivots, stresses, sub in trials:
        if len(pivots) != rigid_rank_target(g.n, d):
            continue
        if not stresses:
            return
        if _certifies(g, real, stresses.values(), sub.child(1)):
            yield t, real, pivots, stresses, sub


def _route(g: Graph, d: int) -> str:
    """The path ``is_globally_rigid`` takes, from n and d alone:
    "complete-small" on at most d + 1 vertices, else "combinatorial-1d" or
    "combinatorial-2d" at d <= 2 and "stress" at d >= 3. The dimension is
    checked where the trials are built (``rigidity._trials``)."""
    if g.n <= d + 1:
        return "complete-small"
    return f"combinatorial-{d}d" if d <= 2 else "stress"


def _tests(g: Graph, d: int, how: str, trials):
    """The proofs that G is globally rigid on route ``how``, in order, each
    as ``(note, deleted)``: the certificate's note, and ``deleted(j)``,
    whether G - e_j is globally rigid: True or False where that is exact,
    None where this proof leaves it open. Only the stress route reads
    ``trials`` (``_trials`` of G), and only there is a test ever open.

    - complete-small: one proof when G is complete; no G - e is complete.
    - combinatorial-1d and -2d: one proof when G is (d + 1)-connected and
      ``_exact_deletions`` finds it globally rigid, with that test of G - e.
    - stress: the trials of ``_proofs``, whose random stress reaches rank
      n - d - 1, each G - e tested by ``_stress_deletion``.

    When it yields nothing, the generator returns the note of the failure.
    """
    if how == "complete-small":
        if g.is_complete():
            yield "", lambda j: False
    elif how == "stress":
        target = g.n - d - 1
        for t, real, _, stresses, sub in _proofs(g, d, trials):
            yield (f"stress matrix reached rank {target} in trial {t}",
                   partial(_stress_deletion, g, real, list(stresses.values()), sub))
        return f"no stress matrix of rank {target} in {TRIALS} trials"
    else:
        if not is_k_connected(g, d + 1):
            return f"not {d + 1}-connected"
        deleted = _exact_deletions(g, d)
        if deleted is None:
            return "not redundantly rigid"
        yield "", deleted
    return ""


def _exact_deletions(g: Graph, d: int):
    """For a (d + 1)-connected G on n >= d + 2 vertices at d <= 2: None
    when G is not globally rigid in dimension d, that is, at d = 2, not
    redundantly rigid; else the exact test ``deleted(j)``, whether G - e_j
    is globally rigid. At d = 1 that is G - e's own 2-connectivity, at
    d = 2 ``_planar_deletions`` on the edges ``_series_free`` finds. A
    deletion the test accepts leaves a G - e that meets this premise, so the
    sparsifier builds the next test on it directly.
    """
    if d == 1:
        return lambda j: is_k_connected(g.delete_edge(g.edges[j]), 2)
    free = _series_free(g)
    return None if free is None else _planar_deletions(g, free)


def is_globally_rigid(g: Graph, d: int, rng: Rng | None = None) -> GlobalRigidityCertificate:
    """Global rigidity in dimension d, with a certificate of the deciding path.

    Graphs on at most d + 1 vertices are globally rigid iff complete. For
    d = 1 the route is 2-connectivity, for d = 2 it is 3-connectivity plus
    redundant rigidity, and for d >= 3 the randomized stress-matrix test
    (``_route``). The verdict is the first proof of ``_tests`` on the trials
    ``_trials(g, d, rng)``, those the deletion families read with the same
    ``rng``. The combinatorial routes draw nothing and are exact. On the
    stress route it is the first trial whose random stress matrix reaches
    rank n - d - 1, where a trial short of the rigid rank resamples and a
    stress-free one ends the test. That route has one-sided error: a True
    verdict is backed by an exact witness, a False verdict is wrong with
    negligible probability.
    """
    how = _route(g, d)
    rng = _rng(rng)
    try:
        note, _ = next(_tests(g, d, how, _trials(g, d, rng)))
    except StopIteration as failure:
        return GlobalRigidityCertificate(False, how, d, rng.seed, failure.value)
    return GlobalRigidityCertificate(True, how, d, rng.seed, note)


def _stress_deletion(g: Graph, real: Realization, stresses, sub: Rng, j: int) -> bool | None:
    """Whether G - e_j is globally rigid, read off a trial of ``_proofs``
    (``real``, the ``stresses`` of G there and ``sub``): at p the stresses
    of G - e are those of G that vanish on e (``_without``). One draw on
    ``sub.child(2 + j)`` proves G - e; a G - e that is stress-free at the
    rigid rank is not globally rigid; anything else is open (None)."""
    rest = _without(stresses, j)
    if rest is None:  # j a bridge at p: G - e is not rigid there
        return None
    if not rest:
        return False
    return _certifies(g, real, rest, sub.child(2 + j), {j}) or None


def _series_free(g: Graph) -> set[int] | None:
    """The indices of the edges of G in no 2-element cocircuit of the
    rigidity matroid in dimension 2, or None when G is not redundantly
    rigid there: exact, from pebble games (``rigidity._pebble``) alone.

    A cocircuit meets every basis B, and one that meets B in x alone is
    x's fundamental cocircuit: x and the edges whose fundamental circuit
    holds x. So for e outside B, {e, x} is a cocircuit exactly when x lies
    in the circuit of e and in no other. One game thus settles the edges
    that one circuit covers, those outside B among them: such an edge is in
    a 2-element cocircuit exactly when its circuit has another. A basis
    edge that several circuits cover may still form one with another basis
    edge, so the next game plays the settled edges first and the others
    last. A redundantly rigid G has no bridge, so the last edge played
    never joins the basis, and every game settles at least one more edge.
    """
    settled, series = set(), set()
    while True:
        order = sorted(range(g.m), key=lambda j: j not in settled)
        pivots, own, _ = _pebble(g, 2, (), True, order)
        covers = Counter(j for s in own for j in s)
        if len(pivots) != rigid_rank_target(g.n, 2) or len(covers) < g.m:
            return None  # not rigid, or an edge on no circuit is a bridge
        for s in own:
            lone = [j for j in s if covers[j] == 1]
            if len(lone) > 1:
                series.update(lone)
        settled.update(j for j, c in covers.items() if c == 1)
        if len(settled) == g.m:
            return set(range(g.m)) - series


def _planar_deletions(g: Graph, free):
    """For a 3-connected and redundantly rigid G whose edges in no
    2-element cocircuit have the indices ``free`` (``_series_free``), the
    exact test of each G - e_j: whether it is 3-connected and redundantly
    rigid, so globally rigid in dimension 2.

    G - e is rigid, and so is G - e - f unless {e, f} is a cocircuit, so
    G - e is redundantly rigid exactly when j is in ``free``. An edge at a
    vertex of degree 3 leaves a vertex of degree 2 in G - e. Otherwise
    kappa(G - e) >= kappa(G) - 1, so when G is 4-connected every G - e is
    3-connected; only when kappa(G) = 3 does a G - e get its own
    ``is_k_connected(G - e, 3)``, and G's 4-connectivity is asked only when
    an edge first needs it.
    """
    four_connected = cache(lambda: is_k_connected(g, 4))

    def deleted(j: int) -> bool:
        u, v = g.edges[j]
        return min(g.degree(u), g.degree(v)) > 3 and j in free and (
            four_connected() or is_k_connected(g.delete_edge(g.edges[j]), 3))

    return deleted


def _edge_deletions(g: Graph, d: int, how: str, minimal: bool, trials) -> tuple[bool, bool]:
    """Global rigidity of G, and minimal (``minimal``) or redundant global
    rigidity: G and every G - e tested on route ``how`` (``_route``), on
    ``trials`` (``_trials`` of G).

    One loop over the proofs of ``_tests``: True settles "not minimal",
    False settles "not redundant", and None leaves j open for the next
    proof. G is globally rigid exactly when some proof comes, as in
    ``is_globally_rigid`` on the same trials. A test says True or False
    only where that is exact, so an edge left open, which only the stress
    route leaves, can only make a wrong "minimal" a "yes" and a wrong
    "redundant" a "no".
    """
    proved = False
    open_edges = list(range(g.m))
    for _, deleted in _tests(g, d, how, trials):
        proved = True
        still_open = []
        for j in open_edges:
            verdict = deleted(j)
            if verdict is None:
                still_open.append(j)
            elif verdict == minimal:  # a G - e that settles the family
                return True, False
        open_edges = still_open
        if not open_edges:
            break
    return proved, proved and (minimal or not open_edges)


def is_minimally_globally_rigid(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """Globally rigid, and no longer so after any single edge deletion.

    One loop over the proofs of ``is_globally_rigid`` with the same ``rng``
    (``_edge_deletions``); the first G - e proved globally rigid ends it.
    Exact at d <= 2 and on at most d + 1 vertices. On the stress route
    (d >= 3) a G - e is proved only by an exact witness, a stress of rank
    n - d - 1, so a G - e can only be missed: a wrong answer can only be a
    wrong "yes".
    """
    return _edge_deletions(g, d, _route(g, d), True, _trials(g, d, _rng(rng)))[1]


def is_redundantly_globally_rigid(g: Graph, d: int, rng: Rng | None = None) -> bool:
    """Globally rigid after deleting any single edge.

    One loop over the proofs of ``is_globally_rigid`` with the same ``rng``
    (``_edge_deletions``); the first G - e shown not globally rigid ends
    it. Exact at d <= 2 and on at most d + 1 vertices. On the stress route
    (d >= 3) every G - e must be proved globally rigid by an exact witness
    within those proofs, a stress of rank n - d - 1, so a wrong answer can
    only be a wrong "no".
    """
    return _edge_deletions(g, d, _route(g, d), False, _trials(g, d, _rng(rng)))[1]


def is_globally_k_d_rigid(g: Graph, k: int, d: int, rng: Rng | None = None) -> bool:
    """Globally rigid in dimension d after deleting any set of < k vertices.

    Exhaustive over vertex subsets; intended for desk-scale inputs only.
    k = 1 coincides with plain global rigidity.
    """
    if k < 1:
        raise GraphError("k must be >= 1")
    rng = _rng(rng)
    tag = 0
    for size in range(k):
        for subset in combinations(range(g.n), size):
            keep = [v for v in range(g.n) if v not in subset]
            if not is_globally_rigid(g.induced(keep), d, rng.child(tag)):
                return False
            tag += 1
    return True


def subset_rank_reduce(mats, r: int, rng: Rng | None = None
                       ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shrink a matrix pencil to at most r generators without losing rank r.

    Given matrices A_1..A_k some combination of which has rank >= r, greedily
    drops indices whose removal still admits a random combination of rank
    >= r. Because achievable rank is monotone in the index set, the
    surviving set is minimal, and a degree argument bounds minimal sets by
    r, so |I| <= r up to the usual negligible randomized error. With at most
    r matrices nothing is dropped: all indices come back, minimal or not
    (``[I, diag(1, 0)]`` at r = 2 returns ``(0, 1)``).

    Returns:
        (indices, coeffs): the surviving indices and field coefficients
        whose combination was verified to reach rank >= r.

    Raises:
        RankNotAchievableError: when no random combination of the full set
        reaches rank r in any trial.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    if r < 0:
        raise ValueError("target rank must be nonnegative")
    rng = _rng(rng)

    def attempt(indices, sub: Rng):
        subset = [mats[i] for i in indices]
        for t in range(TRIALS):
            coeffs, combo = random_combination(subset, sub.child(t))
            if rank(combo) >= r:
                return coeffs
        return None

    if r == 0:
        return (), ()
    coeffs = attempt(range(len(mats)), rng.child(0))
    if coeffs is None:
        raise RankNotAchievableError(
            f"no combination of the {len(mats)} matrices reached rank {r}")
    keep = list(range(len(mats)))
    if r >= len(mats):
        return tuple(keep), coeffs

    for i in range(len(mats)):
        trial = [j for j in keep if j != i]
        if not trial:
            break
        got = attempt(trial, rng.child(1 + i))
        if got is not None:
            keep = trial
            coeffs = got
    if len(keep) > r:
        raise AssertionError(
            f"randomized fault: kept {len(keep)} generators for target rank {r}")
    return tuple(keep), coeffs


@dataclass(frozen=True)
class SparsifyResult:
    """Output of the globally rigid sparsifier.

    ``graph`` is the final minimally globally rigid spanning subgraph.
    ``extra_edges`` are the input's non-basis edges that the first greedy
    pass kept, all of them when that pass is skipped. At d <= 2 they are
    read off ``graph`` after both passes, so they are its edges outside
    the basis B. At d >= 3 they are read before the second pass, which may
    still delete some of them. The log records per-stage counts;
    ``log["retries"]`` counts the trials skipped before the certifying
    one, always 0 at d <= 2, which draws no trial.
    """

    extra_edges: tuple[tuple[int, int], ...]
    graph: Graph
    log: dict
    seed: int


def minimally_globally_rigid_edge_bound(n: int, d: int) -> int:
    """(d+1)n - C(d+2, 2): no minimally globally rigid graph on n >= d + 2
    vertices exceeds this edge count."""
    return (d + 1) * n - (d + 2) * (d + 1) // 2


def _greedy_pass(g: Graph, real: Realization, stresses, gone, order, rng: Rng) -> list[int]:
    """Drop the edge indices in ``order`` from H = G minus the edge indices
    in ``gone`` while H stays globally rigid at ``real``; return the drops.

    H is globally rigid at ``real`` and ``stresses``, each zero on ``gone``,
    span its stresses there. Each candidate j gets one draw on the stresses
    of the current graph that vanish on j (``_without``), which an accepted
    deletion keeps. The pass draws no realization and factors nothing.
    """
    dropped = []
    for j in order:
        rest = _without(stresses, j)
        if rest and _certifies(g, real, rest, rng.child(j), {*gone, *dropped, j}):
            stresses = rest
            dropped.append(j)
    return dropped


def _sparsify_by_stresses(g: Graph, d: int, trials):
    """The stress route of ``sparsify_globally_rigid`` (d >= 3), on
    ``trials`` (``_trials`` of G). Returns the basis size, the extra edges,
    the result, the deletions of the minimization pass and the trials
    skipped before the one that proved G."""
    for t, real, pivots, stresses, sub in _proofs(g, d, trials):
        free = list(stresses) if len(stresses) > g.n - d - 1 else []
        first = _greedy_pass(g, real, stresses.values(), (), free, sub.child(2))
        chosen = [f for f in stresses if f not in first]
        live = [j for j in range(g.m) if j not in first]
        second = _greedy_pass(g, real, [stresses[f] for f in chosen], first, live, sub.child(3))
        pruned = Graph(g.n, tuple(g.edges[j] for j in live if j not in second))
        return len(pivots), tuple(g.edges[f] for f in chosen), pruned, len(second), t
    raise NotGloballyRigidError(f"input is not globally rigid in dimension {d}")


def _sparsify_exactly(g: Graph, d: int, how: str):
    """The combinatorial routes of ``sparsify_globally_rigid`` (d <= 2),
    exact and draw-free, with the return value of ``_sparsify_by_stresses``
    and 0 trials skipped.

    G passes the route's test (``_tests``), or its note is the error. One
    pebble game (``rigidity._pebble``) gives the basis B, the pivots of the
    stress route. Its two passes then run with the route's exact test
    (``_exact_deletions``), which is rebuilt only after a deletion: the
    first over the edges outside B, skipped when there are at most
    n - d - 1 of them, the second over B, or over every edge after a
    skipped first pass, each in canonical order. An edge the first pass
    keeps was rejected on a supergraph, so the second would reject it
    again. The output is the stress route's, with no draw; the extra edges
    are its edges outside B.
    """
    try:
        _, deleted = next(_tests(g, d, how, ()))
    except StopIteration as failure:
        raise NotGloballyRigidError(
            f"input is not globally rigid in dimension {d}: {failure.value}") from None
    basis = [g.edges[j] for j in _pebble(g, d, (), False, range(g.m))[0]]
    rest = sorted(g.edge_set - set(basis))
    first = rest if len(rest) > g.n - d - 1 else []
    second = basis if first else list(g.edges)
    h = g
    for e in first + second:
        if deleted(h.edges.index(e)):
            h = h.delete_edge(e)
            deleted = _exact_deletions(h, d)
    removed = sum(e not in h.edge_set for e in second)
    return len(basis), tuple(sorted(h.edge_set - set(basis))), h, removed, 0


def sparsify_globally_rigid(g: Graph, d: int, rng: Rng | None = None) -> SparsifyResult:
    """Extract a minimally globally rigid spanning subgraph.

    At d <= 2 (``_sparsify_exactly``) the route of ``is_globally_rigid``
    decides the input, and the two greedy passes described next run with
    the route's exact test of each G - e, on the basis B of one pebble
    game, with no draw. Their output is the stress passes' output whenever
    no draw of those errs.

    At d >= 3 each trial of ``_proofs``, the stress route's proofs, factors
    R(G,p)^T once and proves G globally rigid with one random combination
    of the stresses read off it. Its pivots are a maximal independent edge
    set B, its kernel vectors the fundamental stresses of the other (free)
    edges, a basis of the stresses of G at p. Two greedy passes
    (``_greedy_pass``) then run on these stress vectors at the same p. The
    first drops free edges in column order (a drop removes just that edge's
    stress, the only one nonzero there); the free edges it keeps are
    ``extra_edges``. With at most n - d - 1 fundamental stresses G already
    meets the edge bound, and the first pass keeps them all. The second
    drops edges in canonical order. Each candidate gets one draw, and every
    accepted deletion is proved by an exact stress of rank n - d - 1; a
    wrong rejection only keeps an extra edge.

    Global rigidity is monotone under edge addition, so an edge rejected
    once stays rejected, and the result is minimally globally rigid, with
    at most (d+1)|V| - C(d+2, 2) edges.

    Raises:
        GraphError: when d < 1 or G has fewer than d + 2 vertices.
        NotGloballyRigidError: when G is not globally rigid, with the
        route's note at d <= 2. At d >= 3 no trial proved G, and this "no"
        may be wrong, with negligible probability.
    """
    rng = _rng(rng)
    trials = _trials(g, d, rng)
    if g.n < d + 2:
        raise GraphError("sparsifier needs at least d + 2 vertices")
    how = _route(g, d)
    basis_size, extra_edges, pruned, removed, retries = (
        _sparsify_by_stresses(g, d, trials) if how == "stress" else _sparsify_exactly(g, d, how))
    bound = minimally_globally_rigid_edge_bound(g.n, d)
    if pruned.m > bound:
        raise AssertionError("internal error: sparsifier exceeded the edge bound")
    log = {
        "basis_size": basis_size,
        "generators_before": g.m - basis_size,
        "generators_after": len(extra_edges),
        "minimization_removed": removed,
        "edge_bound": bound,
        "retries": retries,
    }
    return SparsifyResult(extra_edges=extra_edges, graph=pruned, log=log, seed=rng.seed)
