"""A deliberately degenerate ``Rng`` that drives the resample and retry paths.

``DegenerateRng`` behaves like ``Rng`` except on chosen child paths: the
stream reached by ``rng.child(a).child(b)`` is degenerate when ``(a, b)`` is
one of ``bad_paths``. A degenerate stream repeats one coordinate value, so
every vertex of a realization drawn from it sits at the same point, every
edge row of the rigidity matrix is zero and the realization falls short of
every positive rank. The tests pass it in through the public ``rng``
arguments.
"""

from __future__ import annotations

from rigidkit.field import Rng


class _Repeating(Rng):
    """Every draw returns the same nonzero value; children repeat it too."""

    def field_element(self) -> int:
        return 7

    def child(self, tag: int) -> "Rng":
        return self


class DegenerateRng(Rng):
    def __init__(self, seed: int, bad_paths, path: tuple = ()):
        super().__init__(seed)
        self.bad_paths = frozenset(tuple(p) for p in bad_paths)
        self.path = path

    def child(self, tag: int) -> "Rng":
        path = self.path + (tag,)
        seed = super().child(tag).seed
        if path in self.bad_paths:
            return _Repeating(seed)
        return DegenerateRng(seed, self.bad_paths, path)
