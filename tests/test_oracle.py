"""Differential tests against sympy, an independent exact oracle.

Scalars: seeded random elements of Q(zeta_N) as polynomials in x, with
products and sums reduced by sympy.rem and inverses from sympy.invert
modulo cyclotomic_poly(N).  Linear algebra: solve, nullspace and invert
on seeded random exact matrices over Q against sympy.Matrix, and over
Q(zeta_3) and Q(zeta_4) against sympy's DomainMatrix over the algebraic
field Q(exp(2 pi i / N)), whose elements are coordinates in the same
power basis of the primitive root.  Matrix products, transposes, powers,
columns, dense entries and equality over Q and Q(zeta_4) against
sympy.Matrix of polynomials in x reduced modulo cyclotomic_poly(N).
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from hopfcheck.linalg import Matrix, SingularMatrixError, invert, nullspace, solve
from hopfcheck.scalars import (RATIONAL, Scalar, _mul_num, cyclotomic_field,
                               cyclotomic_polynomial)
from hopfcheck.scalars import _normalized as _normalized_scalar

X = sympy.Symbol("x")
ORDERS = [3, 4, 5, 7, 8, 12]


def _rational(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 9))


def _element(rng, field):
    coeffs = [_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(field.degree)]
    return Scalar(field, tuple(coeffs))


def _to_sympy(s: Scalar):
    return sum((sympy.Rational(c.numerator, c.denominator) * X ** i
                for i, c in enumerate(s.coeffs)), sympy.Integer(0))


def _from_sympy(expr, field):
    """Coordinates of a sympy polynomial of degree < field.degree."""
    poly = sympy.Poly(expr, X, domain=sympy.QQ)
    coeffs = [Fraction(0)] * field.degree
    for (power,), c in poly.terms():
        coeffs[power] = Fraction(int(c.numerator), int(c.denominator))
    return tuple(coeffs)


def _phi(n):
    return sympy.cyclotomic_poly(n, X)


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_polynomial_matches_sympy(n):
    expected = sympy.Poly(_phi(n), X).all_coeffs()[::-1]
    assert list(cyclotomic_polynomial(n)) == [int(c) for c in expected]


@pytest.mark.parametrize("n", ORDERS)
def test_field_operations_match_sympy(n):
    field = cyclotomic_field(n)
    phi = _phi(n)
    rng = random.Random(f"oracle-scalars:{n}")
    for _ in range(25):
        a, b = _element(rng, field), _element(rng, field)
        pa, pb = _to_sympy(a), _to_sympy(b)
        assert (a * b).coeffs == _from_sympy(sympy.rem(sympy.expand(pa * pb), phi, X), field)
        assert (a + b).coeffs == _from_sympy(sympy.expand(pa + pb), field)
        assert (a - b).coeffs == _from_sympy(sympy.expand(pa - pb), field)
        if not a.is_zero():
            assert a.inv().coeffs == _from_sympy(sympy.invert(pa, phi, X), field)


def _generic_product(a, b):
    """a * b by the general path: integer product, reduction, gcd."""
    field = a.field
    return _normalized_scalar(field, _mul_num(field._tables[1], a.num, b.num), a.den * b.den)


def _generic_sum(a, b, sign):
    """a + sign * b by the general path over the common denominator."""
    da, db = a.den, b.den
    return _normalized_scalar(a.field, tuple(x * db + sign * y * da for x, y in zip(a.num, b.num)),
                              da * db)


def _assert_same(got, want, sympy_value, field):
    assert (got.field, got.num, got.den) == (want.field, want.num, want.den)
    assert got.coeffs == _from_sympy(sympy_value, field)
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1


@pytest.mark.parametrize("n", [1, 3, 4, 12])
def test_unit_and_zero_fast_paths_match_the_general_path_and_sympy(n):
    """Products with 1, -1 and 0 and sums with 0, each side, against the
    general normalized product and sum and against sympy (n = 1 is Q)."""
    field = RATIONAL if n == 1 else cyclotomic_field(n)
    phi = _phi(n)
    one, zero = field.one(), field.zero()
    minus_one = -one
    rng = random.Random(f"oracle-fast-paths:{n}")
    values = [_element(rng, field) for _ in range(40)] + [one, minus_one, zero]
    assert sum(a.den != 1 for a in values) >= 20
    for a in values:
        pa = _to_sympy(a)
        for u in (one, minus_one, zero):
            pu = _to_sympy(u)
            product = sympy.rem(sympy.expand(pa * pu), phi, X)
            _assert_same(a * u, _generic_product(a, u), product, field)
            _assert_same(u * a, _generic_product(u, a), product, field)
        _assert_same(a + zero, _generic_sum(a, zero, 1), pa, field)
        _assert_same(zero + a, _generic_sum(zero, a, 1), pa, field)
        _assert_same(a - zero, _generic_sum(a, zero, -1), pa, field)
        _assert_same(zero - a, _generic_sum(zero, a, -1), sympy.expand(-pa), field)
        # the plain int forms take the same paths
        assert a * 1 == 1 * a == a and a * -1 == -1 * a == -a
        assert a + 0 == 0 + a == a - 0 == a and 0 - a == -a
        if a not in (one, minus_one, zero):
            # scalars are immutable, so the fast paths hand back the operand
            assert a * one is a and one * a is a
            assert a + zero is a and zero + a is a and a - zero is a


def _random_matrix(rng, rows, cols, entry):
    return [[entry(rng) for _ in range(cols)] for _ in range(rows)]


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r] for r in rows])


def _fraction(r):
    """A sympy Rational as a Fraction."""
    return Fraction(int(r.p), int(r.q))


def _normalized(vec):
    """Scale a sympy vector so its first nonzero coordinate is 1."""
    lead = next(c for c in vec if c != 0)
    return [_fraction(c / lead) for c in vec]


def _sparse_rational(rng):
    return _rational(rng) if rng.random() < 0.6 else Fraction(0)


@pytest.mark.parametrize("seed", range(6))
def test_solve_and_determinant_match_sympy_over_q(seed):
    rng = random.Random(f"oracle-solve:{seed}")
    n = rng.randint(2, 6)
    rows = _random_matrix(rng, n, n, _sparse_rational)
    rhs = [_rational(rng) for _ in range(n)]
    expected_det = _sympy_matrix(rows).det()
    m = Matrix(RATIONAL, rows)
    if expected_det != 0:
        expected = _sympy_matrix(rows).LUsolve(_sympy_matrix([[c] for c in rhs]))
        got = solve(m, rhs)
        assert got == [RATIONAL.scalar(_fraction(v)) for v in expected]


@pytest.mark.parametrize("seed", range(6))
def test_nullspace_matches_sympy_over_q(seed):
    rng = random.Random(f"oracle-nullspace:{seed}")
    r, rows_n, cols_n = rng.randint(1, 3), rng.randint(2, 5), rng.randint(3, 6)
    # a product through an r-dimensional space has rank at most r
    left = _sympy_matrix(_random_matrix(rng, rows_n, r, _rational))
    right = _sympy_matrix(_random_matrix(rng, r, cols_n, _sparse_rational))
    product = left * right
    rows = [[_fraction(v) for v in product.row(i)] for i in range(rows_n)]
    got = nullspace(Matrix(RATIONAL, rows))
    expected = product.nullspace()
    assert len(got) == len(expected)
    assert got == [[RATIONAL.scalar(c) for c in _normalized(list(v))] for v in expected]


@pytest.mark.parametrize("seed", range(6))
def test_invert_and_rank_match_sympy_over_q(seed):
    rng = random.Random(f"oracle-invert:{seed}")
    n = rng.randint(2, 6)
    rows = _random_matrix(rng, n, n, _sparse_rational)
    expected = _sympy_matrix(rows)
    m = Matrix(RATIONAL, rows)
    assert expected.rank() == n
    inverse = expected.inv()
    assert invert(m) == Matrix(RATIONAL, [[_fraction(inverse[i, j]) for j in range(n)]
                                          for i in range(n)])
    # a product through an r-dimensional space has rank at most r
    r, rows_n, cols_n = rng.randint(0, 3), rng.randint(1, 5), rng.randint(1, 5)
    left = _sympy_matrix(_random_matrix(rng, rows_n, r, _rational))
    right = _sympy_matrix(_random_matrix(rng, r, cols_n, _sparse_rational))
    product = left * right if r else sympy.zeros(rows_n, cols_n)
    low = [[_fraction(v) for v in product.row(i)] for i in range(rows_n)]
    # the kernel's rank is read off its nullspace: cols - nullity
    assert len(nullspace(Matrix(RATIONAL, low))) == cols_n - product.rank()
    k = min(rows_n, cols_n)
    if r < k:
        with pytest.raises(SingularMatrixError):
            invert(Matrix(RATIONAL, [row[:k] for row in low[:k]]))


def _cyclotomic_domain(n):
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / n))


def _to_anp(s: Scalar, domain):
    return domain([sympy.QQ(c.numerator, c.denominator) for c in reversed(s.coeffs)])


def _from_anp(a, field):
    """Coordinates of an element of the sympy algebraic field."""
    coeffs = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(a.to_list())]
    return tuple(coeffs + [Fraction(0)] * (field.degree - len(coeffs)))


def _domain_matrix(entries, domain):
    rows = [[_to_anp(s, domain) for s in row] for row in entries]
    return DomainMatrix(rows, (len(entries), len(entries[0])), domain)


def _matrix_from_domain(dm, field):
    return [[Scalar(field, _from_anp(a, field)) for a in row] for row in dm.to_list()]


def _normalized_anp(vec, field):
    """Coordinates of a sympy vector scaled so its first nonzero entry is 1."""
    lead = next(a for a in vec if a)
    return [_from_anp(a / lead, field) for a in vec]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_solve_nullspace_invert_match_sympy_over_cyclotomic(n, seed):
    field = cyclotomic_field(n)
    domain = _cyclotomic_domain(n)
    assert [int(c) for c in domain.mod.to_list()[::-1]] == list(cyclotomic_polynomial(n))
    rng = random.Random(f"oracle-cyclotomic-linalg:{n}:{seed}")
    size = rng.randint(2, 4)
    entries = [[_element(rng, field) for _ in range(size)] for _ in range(size)]
    rhs = [_element(rng, field) for _ in range(size)]
    expected = _domain_matrix(entries, domain)
    m = Matrix(field, entries)
    assert expected.det()
    inverse = expected.inv()
    assert [[x.coeffs for x in row] for row in invert(m).data] == \
        [[_from_anp(a, field) for a in row] for row in inverse.to_list()]
    solution = inverse.matmul(_domain_matrix([[v] for v in rhs], domain))
    assert [x.coeffs for x in solve(m, rhs)] == \
        [_from_anp(row[0], field) for row in solution.to_list()]
    # a product through an r-dimensional space has rank at most r
    r, rows_n, cols_n = rng.randint(1, 2), rng.randint(3, 4), rng.randint(3, 5)
    left = _domain_matrix([[_element(rng, field) for _ in range(r)] for _ in range(rows_n)], domain)
    right = _domain_matrix([[_element(rng, field) for _ in range(cols_n)] for _ in range(r)],
                           domain)
    product = left.matmul(right)
    low = _matrix_from_domain(product, field)
    got = nullspace(Matrix(field, low))
    kernel = product.nullspace().to_list()
    assert len(got) == len(kernel) == cols_n - product.rank()
    assert [[x.coeffs for x in v] for v in got] == [_normalized_anp(v, field) for v in kernel]
    with pytest.raises(SingularMatrixError):
        invert(Matrix(field, [row[:3] for row in low[:3]]))



def _matrix_entry(rng, field):
    return _element(rng, field) if rng.random() < 0.6 else field.zero()


def _random_field_matrix(rng, field, rows, cols):
    """Seeded random entries of field, some rows and columns wholly zero."""
    entries = [[_matrix_entry(rng, field) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        entries[rng.randrange(rows)] = [field.zero()] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = field.zero()
    return entries


def _poly_matrix(rows):
    """Dense rows of Scalars as a sympy.Matrix of polynomials in x."""
    return sympy.Matrix(len(rows), len(rows[0]), [_to_sympy(x) for row in rows for x in row])


def _reduced(expr_matrix, field):
    """expr_matrix with every entry reduced mod the field's cyclotomic polynomial."""
    if field.degree == 1:
        return expr_matrix
    return expr_matrix.applyfunc(lambda e: sympy.rem(sympy.expand(e), _phi(field.order), X))


def _coords(expr_matrix, field):
    """Entry coordinates of a sympy.Matrix of polynomials, reduced."""
    reduced = _reduced(expr_matrix, field)
    return [[_from_sympy(reduced[i, j], field) for j in range(reduced.cols)]
            for i in range(reduced.rows)]


def _our_coords(m: Matrix):
    return [[x.coeffs for x in row] for row in m.data]


@pytest.mark.parametrize("field", [RATIONAL, cyclotomic_field(4)], ids=["q", "zeta4"])
@pytest.mark.parametrize("seed", range(4))
def test_matrix_operations_match_sympy(field, seed):
    """Products, transposes, powers, columns and dense entries of seeded
    random rectangular matrices, with wholly zero rows and columns, against
    sympy.Matrix over polynomials in x."""
    rng = random.Random(f"oracle-matrix:{field.order}:{seed}")
    for _ in range(3):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a_rows = _random_field_matrix(rng, field, r, k)
        b_rows = _random_field_matrix(rng, field, k, c)
        a, b = Matrix(field, a_rows), Matrix(field, b_rows)
        pa, pb = _poly_matrix(a_rows), _poly_matrix(b_rows)
        assert (a.rows, a.cols) == pa.shape
        assert _our_coords(a) == _coords(pa, field)
        assert _our_coords(a * b) == _coords(pa * pb, field)
        assert _our_coords(a.transpose()) == _coords(pa.T, field)
        assert [[x.coeffs for x in a.column(j)] for j in range(k)] == \
            [[row[0] for row in _coords(pa[:, j], field)] for j in range(k)]
        square_rows = _random_field_matrix(rng, field, r, r)
        square, ps = Matrix(field, square_rows), _poly_matrix(square_rows)
        power = sympy.eye(r)
        for e in range(5):
            assert _our_coords(square.pow(e)) == _coords(power, field)
            power = _reduced(power * ps, field)


@pytest.mark.parametrize("field", [RATIONAL, cyclotomic_field(4)], ids=["q", "zeta4"])
def test_matrix_equality_and_identity_match_sympy(field):
    """== against sympy's equality, on equal pairs, pairs one entry apart,
    differently shaped pairs, and near-identities against the identity."""
    rng = random.Random(f"oracle-matrix-eq:{field.order}")
    one, zero = field.one(), field.zero()
    for _ in range(12):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        entries = _random_field_matrix(rng, field, r, c)
        other = [list(row) for row in entries]
        other[rng.randrange(r)][rng.randrange(c)] = rng.choice([zero, one, _element(rng, field)])
        wide = [row + [zero] for row in entries]
        for left, right in ((entries, entries), (entries, other), (entries, wide)):
            assert (Matrix(field, left) == Matrix(field, right)) == \
                (_poly_matrix(left) == _poly_matrix(right))
        n = rng.randint(1, 4)
        near = [[one if p == q else zero for q in range(n)] for p in range(n)]
        bent = [list(row) for row in near]
        bent[rng.randrange(n)][rng.randrange(n)] = rng.choice([zero, _element(rng, field), -one])
        for rows in (near, [row + [zero] for row in near], bent, entries):
            pm = _poly_matrix(rows)
            assert (Matrix(field, rows) == Matrix.identity(field, len(rows))) == \
                (pm.rows == pm.cols and pm == sympy.eye(pm.rows))
