"""Spans and counters recorded around rigidkit's layers from outside the program.

``Tracer.install`` wraps the public functions of each package module and
rebinds every module namespace that imported one of them by name (for
example ``rigidity.rank_of_rows`` or ``global_rigidity.nullspace_basis``), so
calls between modules pass through the wrappers too.  ``_FlowNet.max_flow``
is the one private function wrapped, because no public function sees each
flow.  ``rigid_basis`` eliminates inline, so that elimination counts as
``rigidity`` self time and not under ``field.*``.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are written out once the op has finished.  A layer's self time is its
spans' time minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "rigidity", "global_rigidity", "linked", "extract", "graph", "field", "corpus")

# counter name -> the functions whose calls it counts
CALL_COUNTERS = {
    "field.elim_calls": ("field.rank", "field.rank_of_rows"),
    "field.combination_calls": ("field.random_combination",),
    "rigidity.realizations": ("rigidity.sample_realization",),
    "rigidity.fundamental_circuit_calls": ("rigidity.fundamental_circuit",),
    "rigidity.bridges_calls": ("rigidity.bridges",),
    "rigidity.generic_rank_calls": ("rigidity.generic_rank",),
    "global_rigidity.global_rigidity_tests": ("global_rigidity.is_globally_rigid",),
    "global_rigidity.stress_basis_calls": ("global_rigidity.stress_basis",),
    "global_rigidity.reducer_calls": ("global_rigidity.subset_rank_reduce",),
    "graph.flow_calls": ("graph._FlowNet.max_flow",),
    "graph.min_mixed_cut_calls": ("graph.min_mixed_cut",),
    "graph.local_connectivity_calls": ("graph.local_connectivity",),
    "graph.k_connected_calls": ("graph.is_k_connected",),
    "corpus.canonical_chunks_calls": ("corpus.canonical_chunks",),
    "linked.is_linked_calls": ("linked.is_linked",),
}
# counters the wrappers keep themselves (_observe and the enumerator wrappers)
OWN_COUNTERS = ("field.nullspace_calls", "field.elim_cells", "field.elim_ops",
                "corpus.graphs_enumerated")
ENUMERATORS = ("corpus.all_graphs", "corpus.nonisomorphic_graphs")
PRIVATE = ("graph._FlowNet.max_flow",)
LISTED = sorted({f for names in CALL_COUNTERS.values() for f in names}
                | {"field.nullspace_basis"} | set(ENUMERATORS))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder for one op.  Create, ``install``, run the op, ``summary``."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.wrapped: set[str] = set()

    # -- installation ------------------------------------------------------

    def install(self, package: str = "rigidkit") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                inner = inspect.unwrap(fn)  # sees through lru_cache
                if (attr.startswith("_") or not inspect.isfunction(inner)
                        or inner.__module__ != mod.__name__):
                    continue
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for name in PRIVATE:
            layer, cls, attr = name.split(".")
            owner = getattr(modules[layer], cls, None)
            fn = getattr(owner, attr, None)
            if fn is not None:
                setattr(owner, attr, self._wrap(name, fn))
        # rebind every namespace that holds an original, the package's too
        for mod in list(modules.values()) + [importlib.import_module(package)]:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        self.absent = [name for name in LISTED if name not in self.wrapped]

    def _wrap(self, name: str, fn):
        self.wrapped.add(name)
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter_ns
        observe = self._observe

        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            def generator(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    index = len(spans)
                    span = [name, clock(), 0, stack[-1] if stack else -1]
                    spans.append(span)
                    stack.append(index)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[2] = clock()
                    if name in ENUMERATORS:
                        self.counters["corpus.graphs_enumerated"] += 1
                    yield item
            return generator

        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1] if stack else -1
            args = observe(name, args, kwargs)
            index = len(spans)
            span = [name, clock(), 0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if name in ENUMERATORS and (parent < 0 or layer_of(spans[parent][0]) != "corpus"):
                self.counters["corpus.graphs_enumerated"] += len(result)
            return result
        return wrapper

    def _observe(self, name: str, args: tuple, kwargs: dict) -> tuple:
        """Shape counters for eliminations, computed from the matrices passed
        in: cells = rows * cols, ops = rows * cols * min(rows, cols)."""
        if name == "field.rank_of_rows":
            rows = list(args[0])
            shape = (len(rows), args[1] if len(args) > 1 else kwargs["cols"])
            args = (rows,) + args[1:]
        elif name == "field.rank" or (
                name == "field.nullspace_basis"
                and (args[1] if len(args) > 1 else kwargs.get("side", "column")) == "column"):
            # a row-side nullspace call recurses on the transpose, which counts once
            shape = (args[0].rows, args[0].cols)
            if name == "field.nullspace_basis":
                self.counters["field.nullspace_calls"] += 1
        else:
            return args
        r, c = shape
        self.counters["field.elim_cells"] += r * c
        self.counters["field.elim_ops"] += r * c * min(r, c)
        return args

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time and calls, plus every counter."""
        covered = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_ns = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            self_ns[layer_of(name)] += end - start - child
        layer_calls = Counter()
        for name, count in self.calls.items():
            if name not in PRIVATE:
                layer_calls[layer_of(name)] += count
        counters = {c: sum(self.calls[f] for f in fns) for c, fns in CALL_COUNTERS.items()}
        counters.update({c: self.counters[c] for c in OWN_COUNTERS})
        return {
            "self_s": {layer: self_ns[layer] / 1e9 for layer in LAYERS},
            "calls": {layer: layer_calls[layer] for layer in LAYERS},
            "counters": counters,
            "absent": self.absent,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """One line per span: name, start ns, end ns, parent index (-1: root)."""
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\n")
