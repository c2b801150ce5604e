"""A deliberately degenerate ``Rng`` that drives the resample and retry paths.

``DegenerateRng`` behaves like ``Rng`` except on chosen child paths: the
stream reached by ``rng.child(a).child(b)`` is degenerate when ``(a, b)`` is
one of ``bad_paths``. A degenerate stream repeats one coordinate value, so
every vertex of a realization drawn from it sits at the same point, every
edge row of the rigidity matrix is zero and the realization falls short of
every positive rank. With ``period=k`` it cycles through k values instead,
so in dimension d vertex v sits at vertex v - k/d's point and only the
edges between coinciding vertices lose their rows. The tests pass it in
through the public ``rng`` arguments.
"""

from __future__ import annotations

from rigidkit.field import Rng


class _Repeating(Rng):
    """Cycles through ``period`` draws of its own stream (one value by
    default); children repeat them too."""

    def __init__(self, seed: int, period: int = 1):
        super().__init__(seed)
        self.cycle = [Rng.field_element(self) for _ in range(period)]
        self.drawn = 0

    def field_element(self) -> int:
        self.drawn += 1
        return self.cycle[(self.drawn - 1) % len(self.cycle)]

    def child(self, tag: int) -> "Rng":
        return self


class DegenerateRng(Rng):
    def __init__(self, seed: int, bad_paths, path: tuple = (), period: int = 1):
        super().__init__(seed)
        self.bad_paths = frozenset(tuple(p) for p in bad_paths)
        self.path = path
        self.period = period

    def child(self, tag: int) -> "Rng":
        path = self.path + (tag,)
        seed = super().child(tag).seed
        if path in self.bad_paths:
            return _Repeating(seed, self.period)
        return DegenerateRng(seed, self.bad_paths, path, self.period)
