"""Exact scalars: rationals and elements of cyclotomic fields Q(zeta_N).

Every scalar is an immutable, normalized value tied to a FieldSpec, so
equality is structural and all downstream checks can demand exact equality
(no tolerances anywhere).  A cyclotomic scalar is a residue modulo the N-th
cyclotomic polynomial Phi_N, which is irreducible over Q; the quotient is a
field and every nonzero element is invertible.

A scalar stores integer numerators over one positive common denominator,
num / den with gcd(den, *num) == 1; zero is (0, ..., 0) / 1.  Phi_N is monic
with integer coefficients, so every reduction modulo Phi_N runs on integer
tables built once per field.  Q is the degree-1 case Q(zeta_1) of the same
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add, neg, sub
import re
import sys


class FieldMismatchError(ValueError):
    """Arithmetic between scalars of different field specs."""


class ZeroInversionError(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ScalarSyntaxError(ValueError):
    """A scalar literal that does not parse under the field spec."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the integer reduction tables
# ---------------------------------------------------------------------------

def _divide_monic(num, den):
    """Exact quotient of integer polynomials (ascending coefficients) by a
    monic divisor; a nonzero remainder is an error."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c:
            quot[k] = c
            for j, d in enumerate(den):
                num[k + j] -= c * d
    if any(num):
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n; results are cached.
    """
    if n < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {n}")
    poly = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_monic(poly, cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _field_tables(n: int):
    """Integer tables of Q(zeta_n) = Q[z]/Phi_n, of degree d:

    powers[m]  the coordinates of z^m, for 0 <= m < n;
    rows[k]    the coordinates of z^(d+k), for k < d - 1: the reduction
               of a product, whose degree is at most 2d - 2;
    galois     for each k coprime to n with 1 < k < n, the images
               sigma_k(z^i) = z^(i*k) of the basis, i < d.
    """
    mod = cyclotomic_polynomial(n)
    d = len(mod) - 1
    cur = [1] + [0] * (d - 1)
    powers = [tuple(cur)]
    for _ in range(1, n):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(d):
                cur[j] -= top * mod[j]
        powers.append(tuple(cur))
    rows = tuple(powers[m % n] for m in range(d, 2 * d - 1))
    galois = tuple(tuple(powers[i * k % n] for i in range(d))
                   for k in range(2, n) if gcd(k, n) == 1)
    return tuple(powers), rows, galois


def _mul_num(rows, a, b):
    """Product of two integer coordinate tuples, reduced through rows."""
    d = len(a)
    if d == 1:
        return (a[0] * b[0],)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    out = prod[:d]
    for k in range(d - 1):
        c = prod[d + k]
        if c:
            row = rows[k]
            for j in range(d):
                out[j] += c * row[j]
    return tuple(out)


def _combine(images, num):
    """sum num[i] * images[i] over integer coordinate tuples."""
    out = [0] * len(num)
    for c, row in zip(num, images):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return tuple(out)


# ---------------------------------------------------------------------------
# field specs and scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q itself or Q(zeta_N) = Q[x]/Phi_N(x)."""

    kind: str
    order: int = 0

    def __post_init__(self):
        if self.kind not in ("rational", "cyclotomic"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "cyclotomic" and self.order < 1:
            raise ValueError("cyclotomic order must be >= 1")

    @cached_property
    def _tables(self):
        # Q is Q(zeta_1): one coordinate, nothing to reduce, no conjugates.
        return _field_tables(self.order if self.kind == "cyclotomic" else 1)

    @cached_property
    def _zero(self) -> "Scalar":
        return _scalar(self, (0,) * self.degree, 1)

    @cached_property
    def _one(self) -> "Scalar":
        return _scalar(self, (1,) + (0,) * (self.degree - 1), 1)

    @cached_property
    def _minus_one(self) -> "Scalar":
        return -self._one

    @cached_property
    def degree(self) -> int:
        return len(self._tables[0][0])

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar of this field into a Scalar."""
        if type(value) is Scalar:
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"scalar of {value.field} used in {self}")
            return value
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(value)
        return _scalar(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def generator(self) -> "Scalar":
        """The residue class of x, i.e. a primitive order-th root of unity."""
        if self.kind == "rational":
            raise ValueError("the rational field has no cyclotomic generator")
        # Phi_1 = x - 1 and Phi_2 = x + 1 reduce x to the constant 1 or -1.
        return _scalar(self, self._tables[0][1 % self.order], 1)

    def parse(self, text: str) -> "Scalar":
        return _parse_scalar(self, text)

    def __str__(self):
        if self.kind == "rational":
            return "Q"
        return f"Q(zeta_{self.order})"


RATIONAL = FieldSpec("rational")


@lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> FieldSpec:
    return FieldSpec("cyclotomic", n)


class Scalar:
    """An exact element of a FieldSpec, normalized and immutable.

    ``num`` holds one integer numerator per power of z below the field
    degree, ``den`` the positive common denominator, in lowest terms.
    ``coeffs`` gives the same residue as a tuple of Fractions.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FieldSpec, coeffs):
        if len(coeffs) != field.degree:
            raise ValueError(
                f"expected {field.degree} coefficients for {field}, got {len(coeffs)}"
            )
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError(f"scalar coordinates must be int or Fraction, got {coeffs!r}")
        # lcm of reduced denominators: the numerators share no factor with it
        den = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator)
                                              for c in coeffs))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.field._one.num

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine scalars over {self.field} and {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        # zero is 0/1: a zero summand returns the other one as it is
        if db == 1 and not any(other.num):
            return self
        if da == 1 and not any(self.num):
            return other
        if da == db:
            return _normalized(self.field, tuple(map(add, self.num, other.num)), da)
        return _normalized(self.field,
                           tuple([x * db + y * da for x, y in zip(self.num, other.num)]), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if db == 1 and not any(other.num):
            return self
        if da == 1 and not any(self.num):
            return _scalar(self.field, tuple(map(neg, other.num)), db)
        if da == db:
            return _normalized(self.field, tuple(map(sub, self.num, other.num)), da)
        return _normalized(self.field,
                           tuple([x * db - y * da for x, y in zip(self.num, other.num)]), da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _scalar(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if type(other) is not Scalar or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # Structure constants are mostly 1 and -1.  A factor 1 returns the
        # other factor and -1 its negation, with no product and no gcd; a
        # general product pays one compare per factor (den == 1) to get here.
        field = self.field
        if self.den == 1:
            num = self.num
            if num == field._one.num:
                return other
            if num == field._minus_one.num:
                return _scalar(field, tuple(map(neg, other.num)), other.den)
        if other.den == 1:
            num = other.num
            if num == field._one.num:
                return self
            if num == field._minus_one.num:
                return _scalar(field, tuple(map(neg, self.num)), self.den)
        return _normalized(field, _mul_num(field._tables[1], self.num, other.num),
                           self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """1/a = (product of the nontrivial Galois conjugates of a) / N(a),
        where the norm N(a) = a * product is rational."""
        if self.is_zero():
            raise ZeroInversionError(f"cannot invert zero in {self.field}")
        field, num = self.field, self.num
        _, rows, galois = field._tables
        conj = field._one.num
        for images in galois:
            conj = _mul_num(rows, conj, _combine(images, num))
        norm = _mul_num(rows, num, conj)
        if any(norm[1:]):
            raise ArithmeticError(f"norm of {self} in {field} is not rational")
        # a = num/den, so 1/a = den * conj / (num * conj) = den * conj / norm[0]
        return _normalized(field, tuple([self.den * c for c in conj]), norm[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- equality ----------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.scalar(other)
        return ((self.field is other.field or self.field == other.field)
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({self.field}, {format_scalar(self)!r})"


_new_object = object.__new__
_set_field = Scalar.field.__set__
_set_num = Scalar.num.__set__
_set_den = Scalar.den.__set__


def _scalar(field: FieldSpec, num: tuple, den: int) -> Scalar:
    """A Scalar from integer numerators already in lowest terms over den > 0."""
    s = _new_object(Scalar)
    _set_field(s, field)
    _set_num(s, num)
    _set_den(s, den)
    return s


def _normalized(field: FieldSpec, num: tuple, den: int) -> Scalar:
    """num / den in lowest terms with a positive denominator; den != 0."""
    if den < 0:
        den = -den
        num = tuple(map(neg, num))
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple([x // g for x in num])
    return _scalar(field, num, den)


# ---------------------------------------------------------------------------
# textual form: "p/q" for rationals, polynomials in z for cyclotomics
# ---------------------------------------------------------------------------

def format_scalar(s: Scalar) -> str:
    """Canonical text form, e.g. "-2/3" or "1/2*z^2 - z + 3"."""
    terms = []
    for power in range(len(s.num) - 1, -1, -1):
        if not s.num[power]:
            continue
        c = Fraction(s.num[power], s.den)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            zpart = "z" if power == 1 else f"z^{power}"
            body = zpart if mag == 1 else f"{mag}*{zpart}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


_TERM_RE = re.compile(
    r"""(?P<coeff>[0-9]+(?:/[0-9]+)?)?    # optional rational coefficient
        (?P<star>\*)?
        (?P<z>z(?:\^(?P<power>[0-9]+))?)?  # optional power of z
        $""",
    re.VERBOSE,
)
_SPLIT_NUMERAL_RE = re.compile(r"[0-9]\s+[0-9]")  # spaces never split a number


def too_long_number() -> str:
    """The message for a numeral with more digits than the interpreter
    converts to an int (sys.get_int_max_str_digits)."""
    return f"number too long: more than {sys.get_int_max_str_digits()} digits"


def _parse_scalar(field: FieldSpec, text: str) -> Scalar:
    if not isinstance(text, str):
        raise ScalarSyntaxError(f"scalar literal must be a string, got {text!r}")
    src = text.strip()
    if not src:
        raise ScalarSyntaxError("empty scalar literal")
    # split into signed terms at top level (no parentheses in this grammar)
    chunks = []
    sign = 1
    buf = ""
    signed = False
    for ch in src:
        if ch in "+-":
            if buf.strip():
                chunks.append((sign, buf.strip()))
                buf = ""
            elif signed or chunks:
                raise ScalarSyntaxError(f"dangling operator in {text!r}")
            sign = 1 if ch == "+" else -1
            signed = True
        else:
            buf += ch
            if ch.strip():
                signed = False
    if not buf.strip():
        raise ScalarSyntaxError(f"dangling operator in {text!r}")
    chunks.append((sign, buf.strip()))

    powers, _, _ = field._tables
    coeffs = [Fraction(0)] * field.degree
    for sgn, term in chunks:
        if _SPLIT_NUMERAL_RE.search(term):
            raise ScalarSyntaxError(f"whitespace inside a number in {text!r}")
        m = _TERM_RE.match(term.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("z") is None):
            raise ScalarSyntaxError(f"bad scalar term {term!r} in {text!r}")
        if m.group("star") and (m.group("coeff") is None or m.group("z") is None):
            raise ScalarSyntaxError(f"misplaced '*' in {term!r}")
        try:
            coeff = Fraction(m.group("coeff") or 1)
            power = int(m.group("power") or 1) if m.group("z") else 0
        except ZeroDivisionError:
            raise ScalarSyntaxError(f"zero denominator in {text!r}") from None
        except ValueError:
            # past the interpreter's limit on converting digits to an int
            raise ScalarSyntaxError(too_long_number()) from None
        if m.group("z") and field.kind != "cyclotomic":
            raise ScalarSyntaxError(f"{text!r} uses z but the field is {field}")
        # z^N = 1, so z^power is the tabulated residue of z^(power mod N)
        for j, r in enumerate(powers[power % len(powers)]):
            coeffs[j] += sgn * coeff * r
    return Scalar(field, tuple(coeffs))
