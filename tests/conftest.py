import sys

import pytest
from hypothesis import settings

from rigidkit import field, graph, rigidity
from rigidkit.corpus import nonisomorphic_graphs
from rigidkit.field import Rng

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def graphs_by_n():
    """One canonical representative per isomorphism class, keyed by n."""
    return {n: nonisomorphic_graphs(n) for n in range(1, 8)}


@pytest.fixture
def rng():
    return Rng(0xC0FFEE)


@pytest.fixture
def eliminations(monkeypatch):
    """The (rows, cols) shape of every forward elimination run in the test,
    in every module of the package that binds ``field._echelon``: the
    matroid layer's factorizations, a realization's affine frame, the stress
    test's principal block and every field-level rank."""
    calls = []
    real_echelon = field._echelon

    def counting(rows, cols):
        calls.append((len(rows), cols))
        return real_echelon(rows, cols)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rigidkit" and getattr(module, "_echelon", None) is real_echelon:
            monkeypatch.setattr(module, "_echelon", counting)
    return calls


class _Factorizations(list):
    """The graphs of the factorizations, in order; ``dims`` holds the
    dimension of each one's realization at the same index."""

    def __init__(self):
        super().__init__()
        self.dims = []


@pytest.fixture
def factorizations(monkeypatch):
    """The graph of every factorization of R(G,p)^T that the trials of the
    rigidity and global rigidity layers run in the test."""
    graphs = _Factorizations()
    real_factor = rigidity._factor

    def counting(g, real, edges, *args):
        graphs.append(g)
        graphs.dims.append(real.d)
        return real_factor(g, real, edges, *args)

    monkeypatch.setattr(rigidity, "_factor", counting)
    return graphs


@pytest.fixture
def flows(monkeypatch):
    """The (source, sink) of every flow run in the test, on any network of
    the flow layer (``graph._FlowNet.max_flow``)."""
    calls = []
    real_flow = graph._FlowNet.max_flow

    def counting(net, s, t, limit=None):
        calls.append((s, t))
        return real_flow(net, s, t, limit)

    monkeypatch.setattr(graph._FlowNet, "max_flow", counting)
    return calls
