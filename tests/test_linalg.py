import pytest
from hypothesis import given, strategies as st

from qspecht.linalg import (
    Matrix,
    closure_dimension,
    joint_kernel,
    kernel,
    rank,
    specialize_matrix,
)
from qspecht.scalar import GENERIC, LaurentScalar, root_of_unity

P3 = root_of_unity(3)


def cyc(n, p=3):
    return root_of_unity(p).from_int(n)


def test_identity_product():
    m = Matrix(GENERIC, [
        [LaurentScalar(1), LaurentScalar.q_power(2)],
        [LaurentScalar(0), LaurentScalar(-3)],
    ])
    assert Matrix.identity(GENERIC, 2) * m == m
    assert m * Matrix.identity(GENERIC, 2) == m


def test_one_by_one_product_is_scalar_mul():
    a = Matrix(GENERIC, [[LaurentScalar.q_power(2)]])
    b = Matrix(GENERIC, [[LaurentScalar({1: -1})]])
    assert (a * b)[0, 0] == LaurentScalar({3: -1})


def test_dimension_and_domain_mismatch():
    a = Matrix.identity(GENERIC, 2)
    b = Matrix.identity(GENERIC, 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a * Matrix.identity(P3, 2)


def test_kernel_of_zero_matrix():
    m = Matrix.zero(P3, 3, 3)
    basis = kernel(m)
    assert len(basis) == 3
    assert basis[0].column_coords() == (cyc(1), cyc(0), cyc(0))


def test_kernel_of_invertible_matrix_is_empty():
    m = Matrix(P3, [[cyc(1), cyc(1)], [cyc(0), cyc(2)]])
    assert kernel(m) == ()
    assert rank(m) == 2


def test_kernel_requires_field():
    m = Matrix.identity(GENERIC, 2)
    with pytest.raises(ValueError):
        kernel(m)
    with pytest.raises(ValueError):
        rank(m)


def test_rank_examples():
    assert rank(Matrix.identity(P3, 4)) == 4
    assert rank(Matrix.zero(P3, 3, 5)) == 0


def test_kernel_vectors_are_exact_solutions():
    m = Matrix(P3, [
        [cyc(1), cyc(2), cyc(3)],
        [cyc(2), cyc(4), cyc(6)],
    ])
    basis = kernel(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        product = m * v
        assert all(x.is_zero() for x in product.column_coords())


small_cyc_matrices = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    min_size=2, max_size=4,
).map(lambda rows: Matrix(P3, [[cyc(x) for x in row] for row in rows]))


@given(small_cyc_matrices)
def test_rank_nullity_and_exactness(m):
    basis = kernel(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(x.is_zero() for x in (m * v).column_coords())


def row_maps(m, cuts):
    """The rows of m split at the cut points, each block as a map on vectors."""
    bounds = [0, *sorted(cuts), m.rows]
    blocks = [Matrix(m.domain, m.entries[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [lambda v, b=b: (b * Matrix.column(m.domain, v)).column_coords()
            for b in blocks if b.rows]


@st.composite
def cyc_matrices(draw):
    p = draw(st.sampled_from([3, 4]))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=5))
    domain = root_of_unity(p)
    entries = draw(st.lists(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                                     min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix(domain, [[domain.from_int(a) * domain.q_power(e) for a, e in row]
                           for row in entries])


@given(cyc_matrices(), st.lists(st.integers(min_value=0, max_value=6), max_size=4),
       st.randoms(use_true_random=False))
def test_joint_kernel_of_split_rows_is_kernel(m, cuts, rng):
    maps = row_maps(m, [min(c, m.rows) for c in cuts])
    rng.shuffle(maps)
    expected = tuple(v.column_coords() for v in kernel(m))
    assert joint_kernel(m.domain, m.cols, maps) == expected


def test_joint_kernel_without_maps_is_the_identity_basis():
    assert joint_kernel(P3, 2, []) == ((cyc(1), cyc(0)), (cyc(0), cyc(1)))
    assert joint_kernel(P3, 0, []) == ()


def test_kernel_routines_require_field():
    one, zero = GENERIC.one(), GENERIC.zero()
    with pytest.raises(ValueError, match="field domain"):
        joint_kernel(GENERIC, 2, [lambda v: v])
    with pytest.raises(ValueError, match="field domain"):
        closure_dimension(GENERIC, [(one, zero)], [lambda v: v[::-1]])


def test_closure_dimension_of_a_cycle():
    # the cyclic shift spins e_0 up to the whole space, and fixes e_0 + e_1 + e_2
    shift = lambda v: v[-1:] + v[:-1]  # noqa: E731
    e0 = (cyc(1), cyc(0), cyc(0))
    assert closure_dimension(P3, [e0], [shift]) == 3
    assert closure_dimension(P3, [(cyc(1),) * 3], [shift]) == 1
    assert closure_dimension(P3, [], [shift]) == 0


def test_kernel_is_echelon_normalized():
    # duplicated columns: kernel pivots on the free column with coefficient one
    m = Matrix(P3, [[cyc(1), cyc(1)]])
    (v,) = kernel(m)
    assert v.column_coords() == (cyc(-1), cyc(1))


def test_specialize_matrix_entrywise():
    m = Matrix(GENERIC, [[LaurentScalar({0: 1, 1: 1, 2: 1})]])
    assert specialize_matrix(m, 3)[0, 0].is_zero()
    with pytest.raises(ValueError):
        specialize_matrix(specialize_matrix(m, 3), 3)


def test_matrix_rejects_foreign_entries():
    with pytest.raises(ValueError, match="is not in domain root-of-unity p=3"):
        Matrix(P3, [[cyc(1), LaurentScalar(1)], [cyc(0), cyc(2)]])
    with pytest.raises(ValueError, match="is not in domain root-of-unity p=3"):
        Matrix(P3, [[cyc(1), cyc(0)], [cyc(0, p=5), cyc(2)]])
    with pytest.raises(ValueError, match="is not in domain generic"):
        Matrix(GENERIC, [[LaurentScalar(1), cyc(1)]])
    with pytest.raises(ValueError, match="is not in domain generic"):
        Matrix(GENERIC, [[LaurentScalar(1), 1]])


# ------------------------------------------------ sparse storage vs dense rows

def dense_product(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def dense_rank(grid):
    rows, rank = [list(row) for row in grid], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                factor = row[c] * inv
                rows[i] = [x - factor * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


@st.composite
def dense_grids(draw):
    """(domain, a, a2, b, scalar): a and a2 are r x k, b is k x c, each with
    some rows and columns set to zero; a2 is a copy of a half of the time."""
    domain = draw(st.sampled_from([GENERIC, P3, root_of_unity(4)]))
    r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))

    def entry():
        a, e = draw(st.integers(-2, 2)), draw(st.integers(-2, 3))
        return domain.from_int(a) * domain.q_power(e)

    def grid(rows, cols):
        g = [[entry() for _ in range(cols)] for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1))):
            g[i] = [domain.zero()] * cols
        for j in draw(st.sets(st.integers(0, cols - 1))):
            for row in g:
                row[j] = domain.zero()
        return g

    a = grid(r, k)
    a2 = [list(row) for row in a] if draw(st.booleans()) else grid(r, k)
    return domain, a, a2, grid(k, c), entry()


@given(dense_grids())
def test_sparse_matrix_agrees_with_dense_reference(grids):
    domain, a, a2, b, scalar = grids
    zero = domain.zero()
    ma, ma2, mb = Matrix(domain, a), Matrix(domain, a2), Matrix(domain, b)
    rows, cols = len(a), len(a[0])
    assert (ma.rows, ma.cols) == (rows, cols)
    assert ma.entries == tuple(tuple(row) for row in a)
    for r in range(-rows, rows):
        for c in range(-cols, cols):
            assert ma[r, c] == a[r][c]
    with pytest.raises(IndexError):
        ma[rows, 0]
    assert str(ma) == "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in a)
    assert (ma == ma2) == (a == a2)
    if a == a2:
        assert hash(ma) == hash(ma2)
    by_columns = Matrix.from_columns(domain, rows, [
        {i: a[i][j] for i in range(rows)} for j in range(cols)])
    assert by_columns == ma and hash(by_columns) == hash(ma)
    assert (ma * mb).entries == tuple(tuple(row) for row in dense_product(a, b, zero))
    assert (ma + ma2).entries == tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, a2))
    assert ma.scale(scalar).entries == tuple(tuple(scalar * x for x in row) for row in a)
    column = [row[0] for row in b]
    assert ma.apply(column) == tuple(row[0] for row in dense_product(a, [[x] for x in column], zero))
    if not domain.is_generic:
        assert rank(ma) == dense_rank(a)


def test_from_columns_validates():
    with pytest.raises(ValueError, match="row index"):
        Matrix.from_columns(P3, 2, [{2: cyc(1)}])
    with pytest.raises(ValueError, match="is not in domain"):
        Matrix.from_columns(P3, 2, [{0: LaurentScalar(1)}])
    m = Matrix.from_columns(P3, 2, [{0: cyc(0), 1: cyc(2)}, {}])
    assert m == Matrix(P3, [[cyc(0), cyc(0)], [cyc(2), cyc(0)]])
    with pytest.raises(ValueError, match="cannot apply"):
        m.apply((cyc(1),))
