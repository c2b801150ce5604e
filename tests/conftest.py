import pytest
from hypothesis import settings

from rigidkit import field, rigidity
from rigidkit.corpus import nonisomorphic_graphs
from rigidkit.field import Rng

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def graphs_by_n():
    """One canonical representative per isomorphism class, keyed by n."""
    return {n: nonisomorphic_graphs(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def connected_by_n():
    return {n: nonisomorphic_graphs(n, connected=True) for n in range(1, 8)}


@pytest.fixture
def rng():
    return Rng(0xC0FFEE)


@pytest.fixture
def eliminations(monkeypatch):
    """The (rows, cols) shape of every forward elimination run in the test,
    whether the matroid layer calls it or a field-level rank does."""
    calls = []
    real_echelon = field._echelon

    def counting(rows, cols):
        calls.append((len(rows), cols))
        return real_echelon(rows, cols)

    monkeypatch.setattr(field, "_echelon", counting)
    monkeypatch.setattr(rigidity, "_echelon", counting)
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """The graph of every factorization of R(G,p)^T that the trials of the
    rigidity and global rigidity layers run in the test."""
    graphs = []
    real_factor = rigidity._factor

    def counting(g, real, edges, *args):
        graphs.append(g)
        return real_factor(g, real, edges, *args)

    monkeypatch.setattr(rigidity, "_factor", counting)
    return graphs
