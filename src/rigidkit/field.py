"""Exact linear algebra over the prime field Z_p with p = 2**61 - 1.

Every rank-style computation in this package runs over this one fixed field.
The prime is large enough that a random evaluation of any determinant
polynomial met at desk scale vanishes spuriously with probability well below
2**-40 (Schwartz-Zippel), and being a Mersenne prime it keeps Python's
modular arithmetic cheap.

Matrices are stored densely, but elimination (``_echelon``, ``_kernel``)
touches only the nonzeros of each pivot row. Sparse inputs such as the
transposed rigidity matrix, whose edge columns carry 2d nonzeros each, so
cost far less than a full row update per step would.
"""

from __future__ import annotations

from dataclasses import dataclass

PRIME = (1 << 61) - 1

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHILD_SALT = 0xD1B54A32D192ED03


def _mix64(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * _MIX1) & _M64
    x = ((x ^ (x >> 27)) * _MIX2) & _M64
    return x ^ (x >> 31)


class Rng:
    """Deterministic stream of field elements (splitmix64 core).

    Same seed, same stream, on every platform. ``child(tag)`` derives an
    independent stream from the seed alone, so handing out children never
    perturbs the parent; callers that need parallel or order-independent
    randomness derive one child per task.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _M64
        return _mix64(self._state)

    def field_element(self) -> int:
        # Top 61 bits of the output; only the single value 2**61 - 1 == p is
        # rejected, so the draw is uniform on [0, p).
        while True:
            v = self.next_u64() >> 3
            if v < PRIME:
                return v

    def nonzero_field_element(self) -> int:
        while True:
            v = self.field_element()
            if v:
                return v

    def child(self, tag: int) -> "Rng":
        return Rng(_mix64(self.seed ^ ((tag + 1) * _CHILD_SALT & _M64)))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed:#x})"


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable dense matrix over Z_p.

    Entries are plain Python ints in [0, p); construction reduces arbitrary
    integers mod p, so callers may pass negative differences directly.
    """

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        packed = []
        for r in self.data:
            row = tuple(x % PRIME for x in r)
            if len(row) != self.cols:
                raise ValueError(f"row of length {len(row)}, expected {self.cols}")
            packed.append(row)
        if len(packed) != self.rows:
            raise ValueError(f"{len(packed)} rows given, expected {self.rows}")
        object.__setattr__(self, "data", tuple(packed))

    @classmethod
    def from_rows(cls, data) -> "FieldMatrix":
        data = [list(r) for r in data]
        cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "FieldMatrix":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "FieldMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def row(self, i: int) -> tuple:
        return self.data[i]

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.cols, self.rows,
                           [[self.data[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def mul_vector(self, v) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, v)) % PRIME for row in self.data)

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols})"


def _echelon(rows: list[list[int]], cols: int) -> list[int]:
    """Row echelon form in place by forward elimination over the first
    ``cols`` columns; returns the pivot columns, so the rank is their
    number. Row i of the result has a 1 in column pivots[i] and zeros before
    it and below it. Columns past ``cols`` ride along and are never pivots.

    Entries must lie in [0, p). Left of a pivot column c every remaining
    row is already zero, so the pivot row is normalised from c onward, and
    each row below it is updated only at c and at the columns right of c
    where the pivot row is nonzero. Pivots and rows come out as a full
    Gauss step over every column would leave them.
    """
    nrows = len(rows)
    pivots = []
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, PRIME)
        nonzeros = [(k, x * inv % PRIME) for k, x in enumerate(prow[c + 1:], c + 1) if x]
        prow[c] = 1
        for k, x in nonzeros:
            prow[k] = x
        for i in range(rank + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                row[c] = 0
                for k, x in nonzeros:
                    row[k] = (row[k] - f * x) % PRIME
        pivots.append(c)
        rank += 1
        if rank == nrows:
            break
    return pivots


def _kernel(rows: list[list[int]], pivots: list[int], cols: int, free=None
            ) -> dict[int, tuple]:
    """Kernel of an ``_echelon`` result, one vector per free column, or per
    column of ``free`` when given (each must be free).

    Reduces the pivot rows upward in place to the reduced echelon form, then
    maps each free column f to the vector with 1 at f, 0 at the other free
    columns and minus f's reduced column on the pivots. As in ``_echelon``,
    each upward step touches only the pivot column and the columns right of
    it where the pivot row is nonzero.
    """
    if free is None:
        pivot_set = set(pivots)
        free = [f for f in range(cols) if f not in pivot_set]
    if not free:
        return {}
    for i in range(len(pivots) - 1, 0, -1):
        c, prow = pivots[i], rows[i]
        nonzeros = [(k, x) for k, x in enumerate(prow[c + 1:], c + 1) if x]
        for row in rows[:i]:
            f = row[c]
            if f:
                row[c] = 0
                for k, x in nonzeros:
                    row[k] = (row[k] - f * x) % PRIME
    kernel = {}
    for j in free:
        v = [0] * cols
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = -rows[i][j] % PRIME
        kernel[j] = tuple(v)
    return kernel


def rank(m: FieldMatrix) -> int:
    """Exact rank of ``m`` over Z_p."""
    return len(_echelon([list(r) for r in m.data], m.cols))


def nullspace_basis(m: FieldMatrix, side: str = "column") -> list[tuple]:
    """Canonical basis of the kernel of ``m``.

    ``side="column"`` solves M v = 0, ``side="row"`` solves v^T M = 0. The
    basis is read off the reduced echelon form, which forward elimination
    followed by upward reduction of the pivot rows reaches: one vector per
    free column, with a 1 in the free position. Every vector is re-checked
    against ``m`` exactly before being returned.

    Returns:
        List of coefficient tuples; empty when the kernel is trivial.
    """
    if side == "row":
        return nullspace_basis(m.transpose(), side="column")
    if side != "column":
        raise ValueError(f"side must be 'column' or 'row', not {side!r}")

    rows = [list(r) for r in m.data]
    basis = list(_kernel(rows, _echelon(rows, m.cols), m.cols).values())
    for vec in basis:
        if any(m.mul_vector(vec)):
            raise ArithmeticError("internal error: kernel vector check failed")
    return basis


def random_combination(mats, rng: Rng, nonzero: bool = False):
    """Random linear combination sum_i t_i * A_i of equal-shape matrices.

    Coefficients are drawn uniformly from Z_p, or from Z_p - {0} when
    ``nonzero`` is set.

    Returns:
        (coefficients, combination) where coefficients is a tuple aligned
        with ``mats``.
    """
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    rows, cols = mats[0].rows, mats[0].cols
    for m in mats:
        if m.rows != rows or m.cols != cols:
            raise ValueError("matrices must share a common shape")
    draw = rng.nonzero_field_element if nonzero else rng.field_element
    coeffs = tuple(draw() for _ in mats)
    acc = [[0] * cols for _ in range(rows)]
    for t, m in zip(coeffs, mats):
        if t == 0:
            continue
        for i, row in enumerate(m.data):
            arow = acc[i]
            for j, x in enumerate(row):
                if x:
                    arow[j] = (arow[j] + t * x) % PRIME
    return coeffs, FieldMatrix(rows, cols, acc)
