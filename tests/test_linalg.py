import pytest
from hypothesis import given, strategies as st

from qspecht.linalg import Matrix, kernel, rank, specialize_matrix, vstack
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


def test_vstack():
    a = Matrix.identity(P3, 2)
    stacked = vstack([a, a], P3, 2)
    assert stacked.rows == 4 and stacked.cols == 2
    with pytest.raises(ValueError):
        vstack([a], P3, 3)


def test_matrix_rejects_foreign_entries():
    with pytest.raises(ValueError, match="is not in domain root-of-unity p=3"):
        Matrix(P3, [[cyc(1), LaurentScalar(1)], [cyc(0), cyc(2)]])
    with pytest.raises(ValueError, match="is not in domain root-of-unity p=3"):
        Matrix(P3, [[cyc(1), cyc(0)], [cyc(0, p=5), cyc(2)]])
    with pytest.raises(ValueError, match="is not in domain generic"):
        Matrix(GENERIC, [[LaurentScalar(1), cyc(1)]])
    with pytest.raises(ValueError, match="is not in domain generic"):
        Matrix(GENERIC, [[LaurentScalar(1), 1]])
