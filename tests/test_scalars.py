import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.scalars import (RATIONAL, FieldMismatchError, Scalar, ScalarSyntaxError,
                               ZeroInversionError, cyclotomic_field,
                               cyclotomic_polynomial)

C3 = cyclotomic_field(3)
C4 = cyclotomic_field(4)
C5 = cyclotomic_field(5)
C12 = cyclotomic_field(12)


def test_rational_arithmetic():
    assert RATIONAL.scalar(Fraction(1, 2)) + RATIONAL.scalar(Fraction(1, 3)) == Fraction(5, 6)
    assert RATIONAL.scalar(Fraction(2, 3)) * RATIONAL.scalar(Fraction(3, 4)) == Fraction(1, 2)
    x = RATIONAL.scalar(Fraction(-7, 5))
    assert x + RATIONAL.zero() == x


def test_cyclotomic_relations():
    z = C3.generator()
    assert z + z * z == C3.scalar(-1)          # 1 + z + z^2 = 0
    i = C4.generator()
    assert i * i == C4.scalar(-1)
    assert (i ** 4).is_one() and not (i ** 2).is_one()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_inverse_of_generator_is_top_power(n):
    field = cyclotomic_field(n)
    z = field.generator()
    assert z.inv() == z ** (n - 1)
    assert z * z.inv() == field.one()


def test_cyclotomic_polynomials_known_values():
    as_ints = lambda n: [int(c) for c in cyclotomic_polynomial(n)]
    assert as_ints(1) == [-1, 1]
    assert as_ints(2) == [1, 1]
    assert as_ints(3) == [1, 1, 1]
    assert as_ints(4) == [1, 0, 1]
    assert as_ints(6) == [1, -1, 1]
    assert as_ints(12) == [1, 0, -1, 0, 1]
    assert cyclotomic_field(12).degree == 4


def test_root_of_unity():
    # z^(N/n) is a primitive n-th root of unity in Q(zeta_N)
    z12 = C12.generator()
    assert (z12 ** 12).is_one()
    assert (z12 ** 6) == C12.scalar(-1)
    z3 = C3.generator()
    assert (z3 ** 3).is_one()
    assert not z3.is_one() and not (z3 ** 2).is_one()
    z4 = z12 ** 3
    assert (z4 ** 4).is_one() and not (z4 ** 2).is_one()
    with pytest.raises(ValueError):
        RATIONAL.generator()


def test_zero_inversion_rejected():
    with pytest.raises(ZeroInversionError):
        RATIONAL.zero().inv()
    with pytest.raises(ZeroInversionError):
        C4.zero().inv()


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatchError):
        C3.generator() + C4.generator()
    with pytest.raises(FieldMismatchError):
        RATIONAL.scalar(1) * C3.generator()


def test_textual_forms():
    assert str(RATIONAL.scalar(Fraction(-3, 7))) == "-3/7"
    assert str(RATIONAL.parse("5/10")) == "1/2"
    s = C5.parse("1/2*z^2 - z + 3")
    assert str(s) == "1/2*z^2 - z + 3"
    assert C5.parse(str(s)) == s
    assert str(C5.zero()) == "0"
    # reduction happens on parse: z^4 = -z^3 - z^2 - z - 1 in Q(zeta_5)
    assert C5.parse("z^4") == -(C5.generator() ** 3) - C5.generator() ** 2 - C5.generator() - 1


@pytest.mark.parametrize("bad", ["", "1//2", "z", "* 3", "2 +", "1 + + 2", "--3", "- -3",
                                 "1/0", "3 + 2/0", 1, None, "1 2", "1/2 3", "1 2/3",
                                 "3 + 4\t5", "\uff11", "\u0663", "1\u0663"])
def test_scalar_syntax_errors(bad):
    with pytest.raises(ScalarSyntaxError):
        RATIONAL.parse(bad)


@pytest.mark.parametrize("bad", ["1 2/3*z", "z^1 2", "z^\u0661", "\uff12*z"])
def test_cyclotomic_scalar_syntax_errors(bad):
    with pytest.raises(ScalarSyntaxError):
        C5.parse(bad)


def test_spaces_between_the_parts_of_a_term():
    assert RATIONAL.parse("1 / 2") == RATIONAL.parse("1/2")
    assert C5.parse("2 z") == C5.parse("2 * z") == C5.parse("2*z")
    assert C5.parse(" 1/2 * z ^ 2 - z + 3 ") == C5.parse("1/2*z^2 - z + 3")


def test_z_rejected_in_rational_field():
    with pytest.raises(ScalarSyntaxError):
        RATIONAL.parse("z + 1")


rationals = st.fractions(min_value=-60, max_value=60, max_denominator=20)


def c5_elements(draw):
    coeffs = draw(st.lists(rationals, min_size=4, max_size=4))
    return Scalar(C5, tuple(Fraction(c) for c in coeffs))


c5_scalars = st.composite(c5_elements)()


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    x, y, z = (RATIONAL.scalar(v) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inv() == RATIONAL.one()


@settings(max_examples=60)
@given(c5_scalars, c5_scalars, c5_scalars)
def test_cyclotomic_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inv() == C5.one()


@settings(max_examples=40)
@given(c5_scalars)
def test_format_parse_roundtrip(x):
    assert C5.parse(str(x)) == x


def _assert_normalized(s):
    assert s.den > 0 and math.gcd(s.den, *s.num) == 1
    assert len(s.num) == s.field.degree
    assert s.coeffs == tuple(Fraction(c, s.den) for c in s.num)


@settings(max_examples=40)
@given(c5_scalars, c5_scalars)
def test_results_are_normalized(x, y):
    results = [x + y, x - y, x * y, -x, x - x, x * 0, 3 - x]
    if not y.is_zero():
        results += [y.inv(), x / y]
    for r in results:
        _assert_normalized(r)
    assert (x - x).num == (0,) * 4 and (x - x).den == 1


def test_integer_and_fraction_coordinates():
    s = Scalar(C4, (2, Fraction(-3, 4)))
    assert s.num == (8, -3) and s.den == 4
    assert s.coeffs == (Fraction(2), Fraction(-3, 4))
    assert Scalar(C4, (Fraction(4, 2), 0)) == C4.scalar(2)
    with pytest.raises(TypeError):
        Scalar(C4, (0.5, 0))
