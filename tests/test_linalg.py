import random

import pytest
from hypothesis import given, strategies as st

from qspecht.linalg import (
    Matrix,
    closure_dimension,
    joint_kernel,
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


def dense_rref(grid, cols):
    """Plain Gauss-Jordan elimination of a dense grid with cols columns:
    (the nonzero rows of its RREF, their pivot columns)."""
    rows, pivots = [list(row) for row in grid], []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                factor = row[c]
                rows[i] = [x - factor * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def dense_rank(grid):
    return len(dense_rref(grid, len(grid[0]) if grid else 0)[1])


def dense_kernel(domain, grid, cols):
    """The echelon-normalized kernel: for each free column f in increasing
    order, 1 at f, 0 at the other free columns and -R[i][f] at pivot i."""
    reduced, pivots = dense_rref(grid, cols)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [domain.zero()] * cols
            v[f] = domain.one()
            for row, c in zip(reduced, pivots):
                v[c] = -row[f]
            basis.append(tuple(v))
    return tuple(basis)


def kernel_of(m):
    """The echelon-normalized kernel of m: `joint_kernel` with the one map m."""
    return joint_kernel(m.domain, m.cols, [m.apply])


def rank_of(m):
    """The rank of m: `closure_dimension` of its columns with no maps."""
    one = m.domain.one()
    return closure_dimension(m.domain, [m.apply({c: one}) for c in range(m.cols)], ())


def coords(domain, vectors, dim):
    """Sparse vectors as dense coordinate tuples over 0..dim-1."""
    zero = domain.zero()
    return tuple(tuple(v.get(k, zero) for k in range(dim)) for v in vectors)


def test_kernel_of_zero_matrix():
    m = Matrix.zero(P3, 3, 3)
    basis = kernel_of(m)
    assert basis == ({0: cyc(1)}, {1: cyc(1)}, {2: cyc(1)})
    assert coords(P3, basis, m.cols) == dense_kernel(P3, m.entries, m.cols)


def test_kernel_of_invertible_matrix_is_empty():
    m = Matrix(P3, [[cyc(1), cyc(1)], [cyc(0), cyc(2)]])
    assert kernel_of(m) == () == dense_kernel(P3, m.entries, m.cols)
    assert rank_of(m) == 2 == dense_rank(m.entries)


def test_kernel_requires_field():
    m = Matrix.identity(GENERIC, 2)
    with pytest.raises(ValueError, match="field domain"):
        kernel_of(m)
    with pytest.raises(ValueError, match="field domain"):
        rank_of(m)


def test_rank_examples():
    assert rank_of(Matrix.identity(P3, 4)) == 4 == dense_rank(Matrix.identity(P3, 4).entries)
    assert rank_of(Matrix.zero(P3, 3, 5)) == 0 == dense_rank(Matrix.zero(P3, 3, 5).entries)


def check_kernel_and_rank(m):
    """The kernel and rank of m equal the dense reference, rank + nullity is
    the number of columns, and m sends every kernel vector to zero."""
    basis = kernel_of(m)
    assert coords(m.domain, basis, m.cols) == dense_kernel(m.domain, m.entries, m.cols)
    assert rank_of(m) == dense_rank(m.entries) == m.cols - len(basis)
    assert all(m.apply(v) == {} for v in basis)


def test_kernel_vectors_are_exact_solutions():
    m = Matrix(P3, [
        [cyc(1), cyc(2), cyc(3)],
        [cyc(2), cyc(4), cyc(6)],
    ])
    assert len(kernel_of(m)) == 2
    check_kernel_and_rank(m)


small_cyc_matrices = st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    min_size=2, max_size=4,
).map(lambda rows: Matrix(P3, [[cyc(x) for x in row] for row in rows]))


@given(small_cyc_matrices)
def test_rank_nullity_and_exactness(m):
    check_kernel_and_rank(m)


def row_maps(m, cuts):
    """The rows of m split at the cut points, each block as a map on vectors."""
    bounds = [0, *sorted(cuts), m.rows]
    blocks = [Matrix(m.domain, m.entries[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [b.apply for b in blocks if b.rows]


def shift(v):
    """The cyclic shift e_k -> e_(k+1 mod 3) on sparse vectors."""
    return {(k + 1) % 3: x for k, x in v.items()}


@st.composite
def cyc_matrices(draw):
    p = draw(st.sampled_from([3, 4, 5]))
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=5))
    domain = root_of_unity(p)
    entries = draw(st.lists(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)),
                                     min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix.from_columns(domain, rows, [
        {r: domain.from_int(row[c][0]) * domain.q_power(row[c][1]) for r, row in enumerate(entries)}
        for c in range(cols)])


def check_against_dense_reference(m, maps):
    """The kernel and rank of m and the joint kernel of maps (which must cut
    out the kernel of m) equal plain dense Gauss-Jordan elimination exactly."""
    check_kernel_and_rank(m)
    joint = joint_kernel(m.domain, m.cols, maps)
    assert all(all(v.values()) for v in joint)
    assert coords(m.domain, joint, m.cols) == dense_kernel(m.domain, m.entries, m.cols)


@given(cyc_matrices(), st.lists(st.integers(min_value=0, max_value=6), max_size=4),
       st.randoms(use_true_random=False))
def test_joint_kernel_of_split_rows_is_kernel(m, cuts, rng):
    maps = row_maps(m, [min(c, m.rows) for c in cuts])
    rng.shuffle(maps)
    check_against_dense_reference(m, maps)


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (3, 4)])
def test_empty_and_zero_matrices_match_dense_reference(p, rows, cols):
    m = Matrix.zero(root_of_unity(p), rows, cols)
    check_against_dense_reference(m, row_maps(m, [1]))


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("rows, cols, inner", [
    (12, 4, 2), (12, 5, 5), (4, 12, 3), (5, 12, 5), (0, 5, 0), (5, 0, 0)])
def test_rank_of_tall_and_wide_matrices_matches_dense_reference(p, rows, cols, inner):
    """The rank of the columns and of the rows, of tall and of wide matrices;
    the product of a rows x inner and an inner x cols grid has rank at most
    inner."""
    domain, rng = root_of_unity(p), random.Random(f"{p} {rows} {cols}")

    def grid(r, c):
        return [[domain.from_int(rng.randint(-2, 2)) * domain.q_power(rng.randint(0, p - 1))
                 for _ in range(c)] for _ in range(r)]

    a, b = grid(rows, inner), grid(inner, cols)
    product = [[sum((x * b[k][c] for k, x in enumerate(row)), domain.zero())
                for c in range(cols)] for row in a]
    m = Matrix.from_columns(domain, rows, [{r: row[c] for r, row in enumerate(product)}
                                           for c in range(cols)])
    assert (m.rows, m.cols) == (rows, cols)
    rows_as_vectors = [{c: x for c, x in enumerate(row) if x} for row in product]
    assert rank_of(m) == dense_rank(product) <= inner
    assert closure_dimension(domain, rows_as_vectors, ()) == rank_of(m)


def test_joint_kernel_without_maps_is_the_identity_basis():
    assert joint_kernel(P3, 2, []) == ({0: cyc(1)}, {1: cyc(1)})
    assert joint_kernel(P3, 0, []) == ()


def test_kernel_routines_require_field():
    one = GENERIC.one()
    with pytest.raises(ValueError, match="field domain"):
        joint_kernel(GENERIC, 2, [lambda v: v])
    with pytest.raises(ValueError, match="field domain"):
        closure_dimension(GENERIC, [{0: one}], [lambda v: {1 - k: x for k, x in v.items()}])
    with pytest.raises(ValueError, match="field domain"):
        closure_dimension(GENERIC, [], [])


def test_closure_dimension_of_a_cycle():
    # the cyclic shift spins e_0 up to the whole space, and fixes e_0 + e_1 + e_2
    assert closure_dimension(P3, [{0: cyc(1)}], [shift]) == 3
    assert closure_dimension(P3, [{k: cyc(1) for k in range(3)}], [shift]) == 1
    assert closure_dimension(P3, [], [shift]) == 0


def test_explicit_zeros_in_maps_and_vectors():
    # the projection onto e_0 writes its zeros out, also at a pivot column
    zero, one = cyc(0), cyc(1)
    project = lambda v: {0: v.get(0, zero), 1: zero}  # noqa: E731
    assert joint_kernel(P3, 2, [project]) == ({1: one},)
    assert closure_dimension(P3, [{0: one, 1: zero, 2: zero}], [shift]) == 3
    assert closure_dimension(P3, [{0: zero}], [shift]) == 0


def test_kernel_is_echelon_normalized():
    # duplicated columns: kernel pivots on the free column with coefficient one
    m = Matrix(P3, [[cyc(1), cyc(1)]])
    (v,) = kernel_of(m)
    assert v == {0: cyc(-1), 1: cyc(1)}
    assert coords(P3, (v,), m.cols) == dense_kernel(P3, m.entries, m.cols)


def test_specialize_matrix_entrywise():
    m = Matrix(GENERIC, [[LaurentScalar({0: 1, 1: 1, 2: 1})]])
    assert not specialize_matrix(m, 3)[0, 0]
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
    product = dense_product(a, [[x] for x in column], zero)
    expected = {r: row[0] for r, row in enumerate(product) if row[0]}
    assert ma.apply(dict(enumerate(column))) == expected
    if not domain.is_generic:
        assert rank_of(ma) == dense_rank(a)


def test_from_columns_validates():
    with pytest.raises(ValueError, match="row index"):
        Matrix.from_columns(P3, 2, [{2: cyc(1)}])
    with pytest.raises(ValueError, match="is not in domain"):
        Matrix.from_columns(P3, 2, [{0: LaurentScalar(1)}])
    m = Matrix.from_columns(P3, 2, [{0: cyc(0), 1: cyc(2)}, {}])
    assert m == Matrix(P3, [[cyc(0), cyc(0)], [cyc(2), cyc(0)]])
    for index in (2, -1):
        with pytest.raises(ValueError, match="cannot apply"):
            m.apply({index: cyc(1)})
