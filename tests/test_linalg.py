import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.linalg import (InconsistentSystemError, Matrix, NonUniqueSolutionError,
                              SingularMatrixError, Tensor3, invert, nullspace, solve)
from hopfcheck.scalars import RATIONAL, FieldMismatchError, Scalar, cyclotomic_field

F = RATIONAL
C4 = cyclotomic_field(4)


def mat(rows, field=F):
    return Matrix(field, rows)


def test_nullspace_examples():
    assert nullspace(Matrix.identity(F, 3)) == []
    assert len(nullspace(Matrix.zero(F, 2, 2))) == 2
    basis = nullspace(mat([[1, 1], [2, 2]]))
    assert len(basis) == 1
    v = basis[0]
    # proportional to (1, -1), normalized to leading 1
    assert v[0] == F.one() and v[1] == F.scalar(-1)


def test_shapes_without_rows_or_columns_keep_their_other_side():
    # a matrix with no rows still has its columns: its kernel is all of F^3
    m = Matrix.zero(F, 0, 3)
    assert (m.rows, m.cols) == (0, 3) and m.data == ()
    assert m == Matrix.zero(F, 0, 3) and m != Matrix.zero(F, 0, 5)
    assert m.transpose() == Matrix.zero(F, 3, 0)
    assert Matrix.zero(F, 3, 0).data == ((), (), ())
    assert nullspace(m) == [[F.one() if i == j else F.zero() for i in range(3)] for j in range(3)]
    with pytest.raises(NonUniqueSolutionError):
        solve(m, [])
    assert solve(Matrix.zero(F, 0, 0), []) == []
    assert Matrix.zero(F, 2, 0) * Matrix.zero(F, 0, 3) == Matrix.zero(F, 2, 3)


def test_solve_examples():
    assert solve(Matrix.identity(F, 2), [5, 7]) == [F.scalar(5), F.scalar(7)]
    assert solve(mat([[2]]), [1]) == [F.scalar(Fraction(1, 2))]
    with pytest.raises(InconsistentSystemError):
        solve(mat([[1, 1], [2, 2]]), [1, 3])
    with pytest.raises(NonUniqueSolutionError):
        solve(mat([[1, 1], [2, 2]]), [1, 2])


def test_invert_examples():
    assert invert(Matrix.identity(F, 4)) == Matrix.identity(F, 4)
    swap = mat([[0, 1], [1, 0]])
    assert invert(swap) == swap
    with pytest.raises(SingularMatrixError):
        invert(mat([[1, 1], [2, 2]]))


def _random_invertible(rng, field, n):
    # product of elementary row operations applied to the identity
    m = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for k in range(n):
            m[i][k] = m[i][k] + c * m[j][k]
    return Matrix(field, m)


@pytest.mark.parametrize("field", [F, C4])
def test_inverse_of_random_elementary_products(field):
    rng = random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            m = _random_invertible(rng, field, n)
            assert m * invert(m) == Matrix.identity(field, n)


entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_rank_nullity(nrows, cols, data):
    # sympy's rank is the oracle: an independent exact elimination
    rows = [[data.draw(entries) for _ in range(cols)] for _ in range(nrows)]
    m = mat(rows)
    kernel = nullspace(m)
    assert sympy.Matrix(rows).rank() + len(kernel) == cols
    for v in kernel:
        assert all(x.is_zero() for x in m.apply(v))


@settings(max_examples=40)
@given(st.data())
def test_solution_solves_the_system(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    m = mat(rows)
    rhs = [data.draw(entries) for _ in range(n)]
    try:
        x = solve(m, rhs)
    except (InconsistentSystemError, NonUniqueSolutionError):
        assert sympy.Matrix(rows).rank() < n
        return
    assert m.apply(x) == [F.scalar(v) for v in rhs]


def test_matrix_power_and_apply():
    m = mat([[0, -1], [1, 0]])  # rotation of order 4
    assert m.pow(4) == Matrix.identity(F, 2)
    assert m.pow(2) != Matrix.identity(F, 2)
    assert m.apply([F.one(), F.zero()]) == [F.zero(), F.one()]


def _counting_calls(monkeypatch, owner, attr):
    """Wrap owner.attr so every call bumps the returned counter."""
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_matrix_power_makes_only_the_needed_products(monkeypatch):
    m = Matrix(C4, [[0, -1, 2], [1, C4.generator(), 0], [3, 0, 1]])
    expected = {2: m * m, 4: m * m * m * m, 5: m * m * m * m * m}
    products = _counting_calls(monkeypatch, Matrix, "__mul__")
    assert m.pow(0) == Matrix.identity(C4, 3)
    assert m.pow(1) == m
    assert products[0] == 0
    for n, product_count in ((2, 1), (4, 2), (5, 3)):
        products[0] = 0
        assert m.pow(n) == expected[n]
        assert products[0] == product_count, n
    with pytest.raises(ValueError):
        m.pow(-1)


def test_diagonal_solve_touches_only_nonzero_entries(monkeypatch):
    n = 40
    m = mat([[i + 1 if i == j else 0 for j in range(n)] for i in range(n)])
    rhs = [Fraction(1, 3) - i for i in range(n)]
    products = _counting_calls(monkeypatch, Scalar, "__mul__")
    x = solve(m, rhs)
    assert products[0] <= 3 * n
    assert x == [F.scalar(Fraction(v, i + 1)) for i, v in enumerate(rhs)]


def test_tensor3_shape_checks():
    with pytest.raises(ValueError):
        Tensor3.from_dict(F, 2, {(0, 2, 1): 1})  # index out of range
    with pytest.raises(ValueError):
        Tensor3.from_dict(F, 2, {(0, 1): 1})  # not a triple
    t = Tensor3.from_dict(F, 2, {(1, 0, 0): 3, (0, 1, 1): 5, (1, 1, 1): 0})
    assert t.terms == {(0, 1, 1): F.scalar(5), (1, 0, 0): F.scalar(3)}  # zeros dropped
    assert list(t.nonzero()) == [(0, 1, 1, F.scalar(5)), (1, 0, 0, F.scalar(3))]


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])


def test_public_constructor_coerces_and_rejects_foreign_scalars():
    # Matrix(field, rows) is the path for file and user data: it still coerces
    # int and Fraction entries and rejects ragged rows and other fields' scalars
    m = Matrix(C4, [[1, Fraction(-2, 3)], [0, C4.generator()]])
    assert all(type(x) is Scalar and x.field is C4 for row in m.data for x in row)
    assert m.data[0] == (C4.one(), C4.scalar(Fraction(-2, 3)))
    with pytest.raises(ValueError, match="ragged"):
        Matrix(C4, [[1, 2], [3]])
    with pytest.raises(FieldMismatchError):
        Matrix(C4, [[1, cyclotomic_field(3).generator()]])
    with pytest.raises(FieldMismatchError):
        Matrix(F, [[C4.one()]])


def test_kernel_built_matrices_equal_coerced_ones():
    # products, transposes and inverses skip the per-entry coercion; their
    # entries are still scalars of the field
    rng = random.Random("trusted-matrices")
    i = C4.generator()
    pool = [0, 0, 1, -1, Fraction(1, 2), i, -i, i + Fraction(2, 3)]
    a = Matrix(C4, [[1, i, 0], [0, 1, -1], [Fraction(1, 2), 0, -i]])
    b = Matrix(C4, [[rng.choice(pool) for _ in range(3)] for _ in range(3)])
    for m in (a * b, a.transpose(), invert(a)):
        assert all(type(x) is Scalar and x.field is C4 for row in m.data for x in row)
        assert Matrix(C4, [list(row) for row in m.data]) == m
    assert a * invert(a) == Matrix.identity(C4, 3)
    assert a.transpose().transpose() == a


def test_sparse_rows_are_cached_and_never_mutated():
    # the kernel reduces copies: the cached rows of its argument stay as
    # they were, and agree with a scan of the dense entries
    i = C4.generator()
    m = Matrix(C4, [[0, 1, i], [2, 0, 0], [0, 0, -1]])
    rows = m.nonzero_rows()
    assert rows == (((1, C4.one()), (2, i)), ((0, C4.scalar(2)),), ((2, C4.scalar(-1)),))
    snapshot = [list(r) for r in rows]
    for _ in range(2):
        solve(m, [1, 2, 3])
        invert(m)
        nullspace(m)
    assert m.nonzero_rows() is rows and [list(r) for r in rows] == snapshot


def test_kernel_built_matrices_know_their_nonzero_entries():
    i = C4.generator()
    built = Matrix._from_entries(C4, 2, 3, {(1, 2): i, (0, 1): C4.one(), (1, 0): -i})
    scanned = Matrix(C4, [[0, 1, 0], [-i, 0, i]])
    assert built == scanned
    assert built.nonzero_rows() == scanned.nonzero_rows()
    assert built.nonzero_columns() == scanned.nonzero_columns()
    t = built.transpose()
    assert t.nonzero_rows() == scanned.transpose().nonzero_rows()
    assert t.nonzero_columns() == scanned.transpose().nonzero_columns()
    ident = Matrix.identity(C4, 3)
    assert ident == Matrix(C4, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_product_reads_only_nonzero_entries(monkeypatch):
    n = 30
    a = mat([[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    a.nonzero_rows()
    products = _counting_calls(monkeypatch, Scalar, "__mul__")
    assert (a * a) == mat([[1 if j == (i + 2) % n else 0 for j in range(n)] for i in range(n)])
    assert products[0] == n
