"""Finite-dimensional Hopf algebras presented by structure constants.

A HopfAlgebra fixes a basis e_0..e_{n-1} and stores the product tensor
(mul[i][j][k] = coefficient of e_k in e_i * e_j), the unit coordinates, the
coproduct tensor (comul[i][j][k] = coefficient of e_j (x) e_k in the
coproduct of e_i), the counit row, and the antipode matrix.  The unit is an
arbitrary coordinate column: dual algebras have the counit as their unit,
which is rarely a basis vector.

All axioms are checked by exact contraction over every basis index, and the
structure is frozen after construction, so instances can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Tensor3, invert, rank, solve, SingularMatrixError, \
    InconsistentSystemError, NonUniqueSolutionError
from .scalars import FieldSpec, Scalar


class InvalidHopfAlgebraError(ValueError):
    """Algebra data failed axiom validation where validity is required."""


class CorruptedDataError(ValueError):
    """Structurally impossible situation: input data is not what it claims."""


class NoAntipodeError(ValueError):
    """The bialgebra admits no antipode (convolution system inconsistent)."""


class NotRegularError(ValueError):
    """A Galois map is singular: not a regular structure."""


@dataclass(frozen=True)
class CheckResult:
    """The outcome of one check on one algebra, the unit of every report.

    check names the axiom or identity, algebra the algebra it ran on, and
    witness says where a failed check first fails (empty when it passed).
    """

    check: str
    algebra: str
    passed: bool
    witness: str = ""

    def line(self) -> str:
        """The report line: check, algebra, PASS or FAIL, and a failure's witness."""
        if self.passed:
            return f"{self.check} {self.algebra} PASS"
        tail = f" {self.witness}" if self.witness else ""
        return f"{self.check} {self.algebra} FAIL{tail}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return ["axiom " + c.line() for c in self.checks]

    def failures(self):
        return [c for c in self.checks if not c.passed]


class LinearFunctional:
    """A functional on the algebra, stored as its row of basis values."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FieldSpec, coords):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(field.scalar(c) for c in coords))

    def __setattr__(self, *a):
        raise AttributeError("LinearFunctional is immutable")

    def __call__(self, column) -> Scalar:
        acc = self.field.zero()
        for c, x in zip(self.coords, column):
            if not (c.is_zero() or x.is_zero()):
                acc = acc + c * x
        return acc

    def after(self, m: Matrix) -> "LinearFunctional":
        """The composite functional (self o m)."""
        return LinearFunctional(self.field, m.apply_row(list(self.coords)))

    def scale(self, c) -> "LinearFunctional":
        c = self.field.scalar(c)
        return LinearFunctional(self.field, [c * x for x in self.coords])

    def __eq__(self, other):
        if not isinstance(other, LinearFunctional):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coords) + "]"


class HopfAlgebra:
    """Structure-constant presentation of a Hopf algebra on a fixed basis."""

    __slots__ = (
        "name", "field", "dim", "basis_names", "mul", "unit", "comul",
        "counit", "antipode", "mul_terms", "comul_terms",
        "_validation", "_coproduct_cache",
    )

    def __init__(self, field: FieldSpec, basis_names, mul: Tensor3, unit,
                 comul: Tensor3, counit, antipode: Matrix | None = None,
                 name: str = "unnamed"):
        n = len(basis_names)
        if mul.dim != n or comul.dim != n:
            raise ValueError("structure tensors do not match the basis size")
        if len(unit) != n or len(counit) != n:
            raise ValueError("unit/counit length does not match the basis size")
        if antipode is not None and (antipode.rows != n or antipode.cols != n):
            raise ValueError("antipode matrix must be dim x dim")
        if mul.field != field or comul.field != field:
            raise ValueError("structure tensors use a different field")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "basis_names", tuple(str(b) for b in basis_names))
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "unit", tuple(field.scalar(c) for c in unit))
        object.__setattr__(self, "comul", comul)
        object.__setattr__(self, "counit", tuple(field.scalar(c) for c in counit))
        object.__setattr__(self, "antipode", antipode)
        # sparse views of the structure tensors, used by every contraction
        mul_terms = tuple(
            tuple(
                tuple((k, x) for k, x in enumerate(mul.entries[i][j]) if not x.is_zero())
                for j in range(n)
            )
            for i in range(n)
        )
        comul_terms = tuple(
            tuple(
                (j, k, x)
                for j in range(n)
                for k, x in enumerate(comul.entries[i][j])
                if not x.is_zero()
            )
            for i in range(n)
        )
        object.__setattr__(self, "mul_terms", mul_terms)
        object.__setattr__(self, "comul_terms", comul_terms)
        object.__setattr__(self, "_validation", None)
        object.__setattr__(self, "_coproduct_cache", {})

    def __setattr__(self, *a):
        raise AttributeError("HopfAlgebra is immutable")

    def __repr__(self):
        return f"HopfAlgebra({self.name!r}, dim={self.dim}, field={self.field})"

    # -- element arithmetic on coordinate columns ---------------------------

    def zero_column(self):
        return [self.field.zero()] * self.dim

    def basis_column(self, i: int):
        col = self.zero_column()
        col[i] = self.field.one()
        return col

    def multiply(self, a, b):
        out = self.zero_column()
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            terms_i = self.mul_terms[i]
            for j, y in enumerate(b):
                if y.is_zero():
                    continue
                xy = x * y
                for k, c in terms_i[j]:
                    out[k] = out[k] + xy * c
        return out

    def unit_column(self):
        return list(self.unit)

    def counit_of(self, a) -> Scalar:
        acc = self.field.zero()
        for x, e in zip(a, self.counit):
            if not (x.is_zero() or e.is_zero()):
                acc = acc + x * e
        return acc

    def coproduct(self, a):
        """The coproduct of a coordinate column as a sparse tensor-square
        dict {(j, k): Scalar}."""
        out = {}
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, k, c in self.comul_terms[i]:
                key = (j, k)
                prev = out.get(key)
                val = x * c if prev is None else prev + x * c
                out[key] = val
        return {k: v for k, v in out.items() if not v.is_zero()}

    def iterated_coproduct(self, i: int, legs: int):
        """Terms of the (legs-1)-fold coproduct of basis element i.

        Returns a tuple of (coefficient, index_tuple) pairs; legs == 1 is
        the element itself.  Cached per algebra.
        """
        key = (i, legs)
        cached = self._coproduct_cache.get(key)
        if cached is not None:
            return cached
        if legs == 1:
            result = ((self.field.one(), (i,)),)
        else:
            result = []
            for coeff, idxs in self.iterated_coproduct(i, legs - 1):
                # expand the last leg
                for j, k, c in self.comul_terms[idxs[-1]]:
                    result.append((coeff * c, idxs[:-1] + (j, k)))
            merged = {}
            for coeff, idxs in result:
                prev = merged.get(idxs)
                merged[idxs] = coeff if prev is None else prev + coeff
            result = tuple((v, k) for k, v in merged.items() if not v.is_zero())
        self._coproduct_cache[key] = result
        return result

    def left_mult_matrix(self, a) -> Matrix:
        """Matrix of x -> a * x."""
        cols = [self.multiply(a, self.basis_column(j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def right_mult_matrix(self, a) -> Matrix:
        """Matrix of x -> x * a."""
        cols = [self.multiply(self.basis_column(j), a) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    def format_element(self, column) -> str:
        """Human-readable combination of basis names, exact coefficients."""
        parts = []
        for name, c in zip(self.basis_names, column):
            if c.is_zero():
                continue
            if c.is_one():
                parts.append(name)
            else:
                parts.append(f"({c})*{name}")
        return " + ".join(parts) if parts else "0"

    # -- tensor-square helpers ----------------------------------------------

    def tensor_product_columns(self, a, b):
        out = {}
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[(i, j)] = x * y
        return out

    def tensor_square_product(self, x, y):
        """Product of two sparse tensor-square elements in A (x) A."""
        out = {}
        for (p, q), c in x.items():
            mt_p = self.mul_terms[p]
            mt_q = self.mul_terms[q]
            for (r, s), d in y.items():
                cd = c * d
                for k1, c1 in mt_p[r]:
                    for k2, c2 in mt_q[s]:
                        key = (k1, k2)
                        add = cd * c1 * c2
                        prev = out.get(key)
                        out[key] = add if prev is None else prev + add
        return {k: v for k, v in out.items() if not v.is_zero()}

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every Hopf axiom by exact contraction; cached."""
        if self._validation is not None:
            return self._validation
        checks = []
        checks.append(self._check_associativity())
        checks.append(self._check_unit())
        checks.append(self._check_coassociativity())
        checks.append(self._check_counit())
        checks.append(self._check_coproduct_homomorphism())
        checks.append(self._check_counit_homomorphism())
        checks.extend(self._check_antipode())
        report = ValidationReport(tuple(checks))
        object.__setattr__(self, "_validation", report)
        return report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            bad = ", ".join(c.check for c in report.failures())
            raise InvalidHopfAlgebraError(f"{self.name}: axiom failures: {bad}")
        return self

    def _check_associativity(self) -> CheckResult:
        n = self.dim
        for i in range(n):
            for j in range(n):
                ij = self.multiply(self.basis_column(i), self.basis_column(j))
                for l in range(n):
                    lhs = self.multiply(ij, self.basis_column(l))
                    jl = self.multiply(self.basis_column(j), self.basis_column(l))
                    rhs = self.multiply(self.basis_column(i), jl)
                    if lhs != rhs:
                        return CheckResult(
                            "associativity", self.name, False,
                            f"(e{i}*e{j})*e{l} != e{i}*(e{j}*e{l})")
        return CheckResult("associativity", self.name, True)

    def _check_unit(self) -> CheckResult:
        one = self.unit_column()
        for i in range(self.dim):
            e = self.basis_column(i)
            if self.multiply(one, e) != e or self.multiply(e, one) != e:
                return CheckResult("unit", self.name, False, f"unit law fails on e{i}")
        return CheckResult("unit", self.name, True)

    def _check_coassociativity(self) -> CheckResult:
        n = self.dim
        for i in range(n):
            left = {}
            right = {}
            for j, k, c in self.comul_terms[i]:
                for p, q, d in self.comul_terms[j]:
                    key = (p, q, k)
                    left[key] = left.get(key, self.field.zero()) + c * d
                for p, q, d in self.comul_terms[k]:
                    key = (j, p, q)
                    right[key] = right.get(key, self.field.zero()) + c * d
            left = {k: v for k, v in left.items() if not v.is_zero()}
            right = {k: v for k, v in right.items() if not v.is_zero()}
            if left != right:
                return CheckResult("coassociativity", self.name, False, f"fails on e{i}")
        return CheckResult("coassociativity", self.name, True)

    def _check_counit(self) -> CheckResult:
        for i in range(self.dim):
            left = self.zero_column()
            right = self.zero_column()
            for j, k, c in self.comul_terms[i]:
                if not self.counit[j].is_zero():
                    left[k] = left[k] + c * self.counit[j]
                if not self.counit[k].is_zero():
                    right[j] = right[j] + c * self.counit[k]
            if left != self.basis_column(i) or right != self.basis_column(i):
                return CheckResult("counit", self.name, False, f"counit law fails on e{i}")
        return CheckResult("counit", self.name, True)

    def _check_coproduct_homomorphism(self) -> CheckResult:
        n = self.dim
        one_tensor = self.tensor_product_columns(self.unit_column(), self.unit_column())
        if self.coproduct(self.unit_column()) != one_tensor:
            return CheckResult("coproduct-homomorphism", self.name, False,
                               "coproduct of 1 is not 1 (x) 1")
        for i in range(n):
            di = self.coproduct(self.basis_column(i))
            for j in range(n):
                dj = self.coproduct(self.basis_column(j))
                rhs = self.tensor_square_product(di, dj)
                lhs = self.coproduct(self.multiply(self.basis_column(i), self.basis_column(j)))
                if lhs != rhs:
                    return CheckResult(
                        "coproduct-homomorphism", self.name, False,
                        f"coproduct(e{i}*e{j}) != coproduct(e{i})*coproduct(e{j})")
        return CheckResult("coproduct-homomorphism", self.name, True)

    def _check_counit_homomorphism(self) -> CheckResult:
        if not self.counit_of(self.unit_column()).is_one():
            return CheckResult("counit-homomorphism", self.name, False, "counit(1) != 1")
        n = self.dim
        for i in range(n):
            for j in range(n):
                prod = self.multiply(self.basis_column(i), self.basis_column(j))
                if self.counit_of(prod) != self.counit[i] * self.counit[j]:
                    return CheckResult(
                        "counit-homomorphism", self.name, False,
                        f"counit(e{i}*e{j}) != counit(e{i})*counit(e{j})")
        return CheckResult("counit-homomorphism", self.name, True)

    def _check_antipode(self):
        if self.antipode is None:
            return [CheckResult("antipode-left", self.name, False, "no antipode stored"),
                    CheckResult("antipode-right", self.name, False, "no antipode stored"),
                    CheckResult("antipode-invertible", self.name, False, "no antipode stored")]
        checks = []
        s_cols = [self.antipode.column(j) for j in range(self.dim)]
        for side in ("left", "right"):
            ok = True
            detail = ""
            for i in range(self.dim):
                acc = self.zero_column()
                for j, k, c in self.comul_terms[i]:
                    if side == "left":
                        term = self.multiply(s_cols[j], self.basis_column(k))
                    else:
                        term = self.multiply(self.basis_column(j), s_cols[k])
                    for t in range(self.dim):
                        if not term[t].is_zero():
                            acc[t] = acc[t] + c * term[t]
                expected = [self.counit[i] * u for u in self.unit]
                if acc != expected:
                    ok = False
                    detail = f"antipode {side} law fails on e{i}"
                    break
            checks.append(CheckResult(f"antipode-{side}", self.name, ok, detail))
        try:
            invert(self.antipode)
            checks.append(CheckResult("antipode-invertible", self.name, True))
        except SingularMatrixError:
            checks.append(CheckResult("antipode-invertible", self.name, False,
                                      "antipode matrix is singular"))
        return checks


def is_commutative(h: HopfAlgebra) -> bool:
    t = h.mul.entries
    return all(t[i][j] == t[j][i] for i in range(h.dim) for j in range(i))


def is_cocommutative(h: HopfAlgebra) -> bool:
    n = h.dim
    for i in range(n):
        flipped = {(k, j): c for j, k, c in h.comul_terms[i]}
        straight = {(j, k): c for j, k, c in h.comul_terms[i]}
        if flipped != straight:
            return False
    return True


# ---------------------------------------------------------------------------
# convolution algebra and antipode synthesis
# ---------------------------------------------------------------------------

def unit_counit_map(h: HopfAlgebra) -> Matrix:
    """The convolution identity: x -> counit(x) * 1."""
    cols = [[h.counit[i] * u for u in h.unit] for i in range(h.dim)]
    return Matrix.from_columns(h.field, cols)


def convolve(f: Matrix, g: Matrix, h: HopfAlgebra) -> Matrix:
    """Convolution product of two endomorphisms: mul o (f (x) g) o coproduct."""
    cols = []
    for i in range(h.dim):
        acc = h.zero_column()
        for j, k, c in h.comul_terms[i]:
            term = h.multiply(f.column(j), g.column(k))
            for t in range(h.dim):
                if not term[t].is_zero():
                    acc[t] = acc[t] + c * term[t]
        cols.append(acc)
    return Matrix.from_columns(h.field, cols)


def compute_antipode(h: HopfAlgebra) -> Matrix:
    """Solve the left antipode law for the antipode as a linear system.

    The unknowns are the n^2 matrix entries; the equation is
    convolve(S, id) = unit o counit.  The solution, when it exists, is the
    two-sided convolution inverse of the identity, and the right law is
    re-checked afterwards.  Raises NoAntipodeError when the system is
    inconsistent; an underdetermined system cannot happen for honest
    bialgebra data and raises CorruptedDataError.
    """
    n = h.dim
    field = h.field
    zero = field.zero()
    rows = [[zero] * (n * n) for _ in range(n * n)]
    rhs = [zero] * (n * n)
    for i in range(n):
        for j, k, c in h.comul_terms[i]:
            for l in range(n):
                for p, d in h.mul_terms[l][k]:
                    row = rows[i * n + p]
                    col = l * n + j
                    row[col] = row[col] + c * d
        for p in range(n):
            rhs[i * n + p] = h.counit[i] * h.unit[p]
    try:
        flat = solve(Matrix(field, rows), rhs)
    except InconsistentSystemError as exc:
        raise NoAntipodeError(f"{h.name}: no antipode exists") from exc
    except NonUniqueSolutionError as exc:
        raise CorruptedDataError(
            f"{h.name}: antipode system is underdetermined; input is not a bialgebra"
        ) from exc
    s = Matrix(field, [[flat[l * n + j] for j in range(n)] for l in range(n)])
    ident = Matrix.identity(field, n)
    if convolve(ident, s, h) != unit_counit_map(h):
        raise CorruptedDataError(f"{h.name}: left antipode is not a right antipode")
    return s


# ---------------------------------------------------------------------------
# Galois (regularity) maps on the tensor square
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaloisMaps:
    t1: Matrix
    t2: Matrix
    t1_inv: Matrix
    t2_inv: Matrix


def _tensor_map_matrix(h: HopfAlgebra, image):
    """Assemble the matrix of a map on A (x) A given by image(i, j) -> dict."""
    n = h.dim
    zero = h.field.zero()
    rows = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for (p, q), c in image(i, j).items():
                rows[p * n + q][col] = c
    return Matrix(h.field, rows)


def galois_maps(h: HopfAlgebra) -> GaloisMaps:
    """The canonical maps T1(a (x) b) = coproduct(a)(1 (x) b) and
    T2(a (x) b) = (a (x) 1)coproduct(b), with their exact inverses.

    Their invertibility is the regularity condition; when the antipode is
    available the inverses are assembled from it and verified by exact
    composition, otherwise invertibility is decided by elimination.
    Raises NotRegularError when either map is singular.
    """
    n = h.dim

    def t1_image(i, j):
        out = {}
        for p, q, c in h.comul_terms[i]:
            for k, d in h.mul_terms[q][j]:
                key = (p, k)
                out[key] = out.get(key, h.field.zero()) + c * d
        return out

    def t2_image(i, j):
        out = {}
        for p, q, c in h.comul_terms[j]:
            for k, d in h.mul_terms[i][p]:
                key = (k, q)
                out[key] = out.get(key, h.field.zero()) + c * d
        return out

    t1 = _tensor_map_matrix(h, t1_image)
    t2 = _tensor_map_matrix(h, t2_image)

    if h.antipode is None:
        for name, m in (("T1", t1), ("T2", t2)):
            if rank(m) < n * n:
                raise NotRegularError(f"{h.name}: {name} is singular")
        return GaloisMaps(t1, t2, invert(t1), invert(t2))

    s_cols = [h.antipode.column(j) for j in range(n)]

    def r1_image(i, j):
        # a (x) b -> sum a_(1) (x) S(a_(2)) b
        out = {}
        for p, q, c in h.comul_terms[i]:
            term = h.multiply(s_cols[q], h.basis_column(j))
            for k, x in enumerate(term):
                if not x.is_zero():
                    key = (p, k)
                    out[key] = out.get(key, h.field.zero()) + c * x
        return out

    def r2_image(i, j):
        # a (x) b -> sum a S(b_(1)) (x) b_(2)
        out = {}
        for p, q, c in h.comul_terms[j]:
            term = h.multiply(h.basis_column(i), s_cols[p])
            for k, x in enumerate(term):
                if not x.is_zero():
                    key = (k, q)
                    out[key] = out.get(key, h.field.zero()) + c * x
        return out

    r1 = _tensor_map_matrix(h, r1_image)
    r2 = _tensor_map_matrix(h, r2_image)
    ident = Matrix.identity(h.field, n * n)
    if t1 * r1 != ident or r1 * t1 != ident:
        raise NotRegularError(f"{h.name}: T1 candidate inverse failed; map is not invertible")
    if t2 * r2 != ident or r2 * t2 != ident:
        raise NotRegularError(f"{h.name}: T2 candidate inverse failed; map is not invertible")
    return GaloisMaps(t1, t2, r1, r2)
