"""Differential tests against sympy, an independent exact oracle.

Scalars: seeded random elements of Q(zeta_N) as polynomials in x, with
products and sums reduced by sympy.rem and inverses from sympy.invert
modulo cyclotomic_poly(N).  Linear algebra: solve, nullspace and
determinant on seeded random exact matrices against sympy.Matrix.
"""

import random
from fractions import Fraction

import pytest
import sympy

from hopfcheck.linalg import Matrix, determinant, nullspace, solve
from hopfcheck.scalars import RATIONAL, Scalar, cyclotomic_field, cyclotomic_polynomial

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
    assert determinant(m).as_rational() == _fraction(expected_det)
    if expected_det != 0:
        expected = _sympy_matrix(rows).LUsolve(_sympy_matrix([[c] for c in rhs]))
        got = solve(m, rhs)
        assert [x.as_rational() for x in got] == [_fraction(v) for v in expected]


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
    assert [[x.as_rational() for x in v] for v in got] == [_normalized(list(v)) for v in expected]


@pytest.mark.parametrize("n", [3, 4])
def test_determinant_matches_sympy_over_cyclotomic(n):
    field = cyclotomic_field(n)
    phi = _phi(n)
    rng = random.Random(f"oracle-det:{n}")
    for size in (2, 3, 4):
        entries = [[_element(rng, field) for _ in range(size)] for _ in range(size)]
        expected = sympy.Matrix([[_to_sympy(s) for s in row] for row in entries]).det()
        reduced = sympy.rem(sympy.expand(expected), phi, X)
        assert determinant(Matrix(field, entries)).coeffs == _from_sympy(reduced, field)
