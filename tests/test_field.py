import pytest
from hypothesis import example, given, settings, strategies as st

from rigidkit.field import (
    PRIME,
    FieldMatrix,
    Rng,
    _echelon,
    _kernel,
    nullspace_basis,
    random_combination,
    rank,
)
from oracles import echelon_dense, kernel_by_rref, kernel_dense, rational_rank


def test_prime_is_the_mersenne_prime():
    assert PRIME == 2**61 - 1


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.field_element() for _ in range(50)] == \
               [b.field_element() for _ in range(50)]

    def test_different_seeds_differ(self):
        assert Rng(1).field_element() != Rng(2).field_element()

    def test_elements_in_range(self):
        r = Rng(7)
        for _ in range(200):
            assert 0 <= r.field_element() < PRIME

    def test_nonzero_draws(self):
        r = Rng(7)
        assert all(r.nonzero_field_element() for _ in range(100))

    def test_child_does_not_advance_parent(self):
        a = Rng(99)
        b = Rng(99)
        a.child(0)
        a.child(5)
        assert a.field_element() == b.field_element()

    def test_children_are_distinct_and_reproducible(self):
        r = Rng(4)
        assert r.child(0).seed == r.child(0).seed
        assert r.child(0).seed != r.child(1).seed
        assert r.child(0).field_element() != r.child(1).field_element()


class TestFieldMatrixValue:
    def test_equal_matrices_are_equal_and_hash_equal(self):
        a = FieldMatrix(2, 2, [[1, -1], [0, PRIME + 3]])
        b = FieldMatrix.from_rows([[1, PRIME - 1], [0, 3]])
        assert a == b and hash(a) == hash(b)
        assert a != FieldMatrix.identity(2)
        assert len({a, b, FieldMatrix.identity(2)}) == 2

    def test_attributes_cannot_be_assigned(self):
        m = FieldMatrix.identity(2)
        for name, value in (("rows", 3), ("data", ()), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(m, name, value)

    def test_negative_entries_reduce_mod_p(self):
        assert FieldMatrix(1, 3, [[-1, -PRIME, -PRIME - 2]]).data == ((PRIME - 1, 0, PRIME - 2),)

    @pytest.mark.parametrize("rows, cols, data, message", [
        (-1, 0, [], "matrix dimensions must be nonnegative"),
        (1, 2, [[1, 2, 3]], "row of length 3, expected 2"),
        (2, 1, [[1]], "1 rows given, expected 2"),
    ])
    def test_shape_errors_keep_their_messages(self, rows, cols, data, message):
        with pytest.raises(ValueError, match=message):
            FieldMatrix(rows, cols, data)

    def test_repr_gives_the_shape(self):
        assert repr(FieldMatrix.zeros(2, 3)) == "FieldMatrix(2x3)"


class TestRank:
    def test_identity(self):
        assert rank(FieldMatrix.identity(2)) == 2

    def test_zero_matrix(self):
        assert rank(FieldMatrix.zeros(3, 5)) == 0

    def test_proportional_rows(self):
        assert rank(FieldMatrix.from_rows([[1, 2], [2, 4]])) == 1

    def test_negative_entries_reduce(self):
        m = FieldMatrix.from_rows([[-5, 5]])
        assert m.data == ((PRIME - 5, 5),)
        assert rank(m) == 1

    def test_pivot_order_invariance(self):
        r = Rng(31)
        for _ in range(10):
            rows = [[r.field_element() % 50 for _ in range(5)] for _ in range(4)]
            m = FieldMatrix.from_rows(rows)
            rev = FieldMatrix.from_rows(rows[::-1])
            assert rank(m) == rank(rev) == rank(m.transpose())

    @given(st.lists(st.lists(st.integers(min_value=-2**29, max_value=2**29),
                             min_size=4, max_size=4), min_size=1, max_size=5))
    def test_matches_rational_rank(self, rows):
        # entries far below p: no pivotal minor can hit a multiple of p here,
        # so the field rank and the rank over Q coincide
        assert rank(FieldMatrix.from_rows(rows)) == rational_rank(rows)


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert nullspace_basis(FieldMatrix.identity(3)) == []

    def test_zero_matrix_kernel(self):
        basis = nullspace_basis(FieldMatrix.zeros(2, 2), side="column")
        assert len(basis) == 2

    def test_hand_eliminated_example(self):
        m = FieldMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        (v,) = nullspace_basis(m, side="column")
        assert v == (PRIME - 1, 1, 0)  # the (1, -1, 0) direction

    def test_row_side(self):
        m = FieldMatrix.from_rows([[1, 0], [2, 0], [0, 1]])
        basis = nullspace_basis(m, side="row")
        assert len(basis) == 1
        v = basis[0]
        assert all(x == 0 for x in m.transpose().mul_vector(v))

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=10**6),
                             min_size=5, max_size=5), min_size=2, max_size=6))
    def test_rank_nullity(self, rows):
        m = FieldMatrix.from_rows(rows)
        assert rank(m) + len(nullspace_basis(m)) == m.cols

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            nullspace_basis(FieldMatrix.identity(2), side="diagonal")


@st.composite
def small_matrices(draw):
    """(cols, rows) up to 8 x 8, wide, tall or square, possibly empty. Zeros
    and small entries are common, and some rows are multiples of earlier
    ones, so that rank deficiency and free columns occur often."""
    nrows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.sampled_from([0, 0, 1, 2, PRIME - 1]), st.integers(0, PRIME - 1))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            t = draw(entry)
            rows.append([t * x % PRIME for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return cols, rows


class TestEchelonAndKernel:
    @settings(max_examples=200)
    @given(small_matrices())
    @example((5, [[0] * 5] * 3))
    @example((3, [[1, 2, 3]] * 4))
    @example((0, [[], []]))
    @example((4, []))
    @example((2, [[1, 2], [3, 4], [5, 6]]))
    def test_match_gauss_jordan(self, matrix):
        cols, rows = matrix
        expect_pivots, expect_kernel = kernel_by_rref(rows, cols)
        work = [list(r) for r in rows]
        pivots = _echelon(work, cols)
        assert pivots == expect_pivots
        assert _kernel(work, pivots, cols) == expect_kernel


@st.composite
def sparse_matrices(draw):
    """(cols, width, rows): up to 10 rows over ``cols`` <= 10 columns and up
    to 3 more, to ``width``, as ``rigidity._factor`` hands the pair columns
    along past the edge columns. Most entries are zero, some columns are
    zero throughout, and some rows are combinations of earlier ones, so that
    free columns, rank deficiency and fill-in occur often."""
    nrows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    extra = draw(st.integers(0, 3))
    width = cols + extra
    zero = set(draw(st.lists(st.integers(0, max(width - 1, 0)), max_size=3))) if width else set()
    entry = st.one_of(st.just(0), st.just(0), st.just(0),
                      st.sampled_from([1, 2, PRIME - 1]), st.integers(1, PRIME - 1))
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append([(s * x + t * y) % PRIME for x, y in zip(a, b)])
        else:
            rows.append([0 if k in zero else draw(entry) for k in range(width)])
    return cols, width, rows


class TestSparseAgainstDense:
    """Forward elimination and upward reduction touch only the nonzeros of
    each pivot row, and leave the pivots, rows and kernels of a full row
    update."""

    @settings(max_examples=200)
    @given(sparse_matrices())
    @example((5, 5, [[0] * 5] * 3))
    @example((3, 5, [[1, 0, 2, 0, 3], [2, 0, 4, 0, 6], [0, 0, 1, 1, 0]]))
    @example((4, 6, [[0, 1, 0, 0, 5, 0], [0, 0, 0, 1, 0, 7], [0, 2, 0, 3, 10, 21]]))
    @example((0, 2, [[1, 2], [3, 4]]))
    @example((2, 2, []))
    def test_same_pivots_rows_and_kernels(self, matrix):
        cols, width, rows = matrix
        sparse, dense = [list(r) for r in rows], [list(r) for r in rows]
        pivots = _echelon(sparse, cols)
        assert pivots == echelon_dense(dense, cols)
        assert sparse == dense
        r = len(pivots)
        # every free column, then the columns past ``cols`` that are zero
        # below the pivots, as ``rigidity._factor`` asks for them
        free = [f for f in range(cols) if f not in pivots]
        free += [f for f in range(cols, width) if not any(row[f] for row in sparse[r:])]
        assert _kernel(sparse, pivots, width, free) == kernel_dense(dense, pivots, width, free)
        assert sparse == dense


class TestRandomCombination:
    def test_single_matrix_is_scaled_copy(self):
        # the coefficient convention: with one matrix the result is t * A
        # for the first draw t of the stream; scaling back recovers A
        a = FieldMatrix.from_rows([[1, 2], [3, 4]])
        (t,), combo = random_combination([a], Rng(5))
        inv = pow(t, -1, PRIME)
        recovered = FieldMatrix.from_rows(
            [[x * inv % PRIME for x in row] for row in combo.data])
        assert recovered == a

    def test_two_equal_matrices_add_coefficients(self):
        a = FieldMatrix.from_rows([[1, 2], [3, 4]])
        (t1, t2), combo = random_combination([a, a], Rng(9))
        s = (t1 + t2) % PRIME
        assert combo.data == tuple(tuple(s * x % PRIME for x in row) for row in a.data)

    def test_diagonal_basis_rank_counts_nonzero_coefficients(self):
        mats = [FieldMatrix.from_rows([[1 if (i, j) == (k, k) else 0
                                        for j in range(3)] for i in range(3)])
                for k in range(3)]
        coeffs, combo = random_combination(mats, Rng(77))
        assert rank(combo) == sum(1 for t in coeffs if t)

    def test_nonzero_flag(self):
        mats = [FieldMatrix.zeros(2, 2)] * 4
        coeffs, _ = random_combination(mats, Rng(123), nonzero=True)
        assert all(coeffs)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            random_combination([FieldMatrix.zeros(2, 2), FieldMatrix.zeros(3, 2)], Rng(1))


def test_division_by_zero_rejected():
    # field elements are plain ints in [0, p); inversion of zero must fail
    with pytest.raises(ValueError):
        pow(0, -1, PRIME)
