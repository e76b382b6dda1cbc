"""Exact linear algebra over a FieldSpec.

Everything here is pure and deterministic: one Gauss-Jordan reduction,
with first-nonzero pivoting in column order, brings a matrix to its
reduced row echelon form, which is unique, so nullspace bases, solutions,
inverses, ranks and determinants are read off it reproducibly.
Matrices are immutable after construction and stored dense; their sizes
stay small (dimension of an algebra squared at worst).  Structure tensors
are stored sparse, as their nonzero triples.
"""

from __future__ import annotations

from .scalars import FieldSpec, Scalar


class InconsistentSystemError(ValueError):
    """The linear system has no solution."""


class NonUniqueSolutionError(ValueError):
    """The linear system is underdetermined (solution space dim >= 1)."""


class SingularMatrixError(ValueError):
    """Inverse of a singular matrix requested."""


class Matrix:
    """Immutable dense matrix; rows is a tuple of tuples of Scalar."""

    __slots__ = ("field", "data", "_sparse_cols")

    def __init__(self, field: FieldSpec, rows):
        data = tuple(tuple(field.scalar(x) for x in row) for row in rows)
        if data:
            w = len(data[0])
            if any(len(r) != w for r in data):
                raise ValueError("ragged matrix rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_sparse_cols", None)

    @classmethod
    def _of(cls, field: FieldSpec, rows) -> "Matrix":
        """A matrix of rows that are already equal-length sequences of
        Scalars of field, as the kernel builds them: no per-entry coercion,
        no ragged check.  File and user data go through Matrix(field, rows)."""
        m = _new_object(cls)
        _set_field(m, field)
        _set_data(m, tuple(map(tuple, rows)))
        _set_sparse_cols(m, None)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls._of(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls._of(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field: FieldSpec, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        n = len(cols[0])
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j: int):
        return [row[j] for row in self.data]

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, zip(*self.data))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.data == other.data

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        zero = self.field.zero()
        # sparse-aware: iterate only nonzero entries of self's rows
        out = []
        odata = other.data
        for row in self.data:
            acc = [zero] * other.cols
            for k, x in enumerate(row):
                if x.is_zero():
                    continue
                for j, y in enumerate(odata[k]):
                    if not y.is_zero():
                        acc[j] = acc[j] + x * y
            out.append(acc)
        return Matrix._of(self.field, out)

    def pow(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("matrix power needs a nonnegative exponent")
        if n == 0:
            return Matrix.identity(self.field, self.rows)
        # square-and-multiply from the base: no product with the identity,
        # no squaring past the top bit
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def nonzero_columns(self):
        """Per column, the (row, value) pairs of its nonzero entries; cached."""
        cols = self._sparse_cols
        if cols is None:
            cols = tuple(
                tuple((i, row[j]) for i, row in enumerate(self.data) if not row[j].is_zero())
                for j in range(self.cols)
            )
            object.__setattr__(self, "_sparse_cols", cols)
        return cols

    def apply(self, column):
        """Matrix times coordinate column (list of Scalars)."""
        zero = self.field.zero()
        out = [zero] * self.rows
        cols = self.nonzero_columns()
        for j, c in enumerate(column):
            if c.is_zero():
                continue
            for i, v in cols[j]:
                out[i] = out[i] + v * c
        return out

    def apply_row(self, row_vec):
        """Row vector times matrix (functional composed with a map)."""
        zero = self.field.zero()
        out = [zero] * self.cols
        for i, c in enumerate(row_vec):
            if c.is_zero():
                continue
            for j, x in enumerate(self.data[i]):
                if not x.is_zero():
                    out[j] = out[j] + c * x
        return out

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                if i == j:
                    if not x.is_one():
                        return False
                elif not x.is_zero():
                    return False
        return True

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


_new_object = object.__new__
_set_field = Matrix.field.__set__
_set_data = Matrix.data.__set__
_set_sparse_cols = Matrix._sparse_cols.__set__


class Tensor3:
    """Structure constants of a bilinear map, stored sparse.

    terms maps each index triple (i, j, k) with a nonzero coefficient to that
    coefficient: of basis element k in the product of basis elements i and j
    (or of e_j (x) e_k in a coproduct, with the first index the input).
    Absent triples are zero, so storage grows with the nonzero count, never
    with dim^3.  Triples are kept in index order.
    """

    __slots__ = ("field", "dim", "terms")

    def __init__(self, field: FieldSpec, dim: int, triples):
        terms = {}
        for key in sorted(triples):
            if len(key) != 3 or not all(0 <= t < dim for t in key):
                raise ValueError(f"index triple {key!r} out of range for dim {dim}")
            x = field.scalar(triples[key])
            if not x.is_zero():
                terms[key] = x
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Tensor3 is immutable")

    @classmethod
    def from_dict(cls, field: FieldSpec, dim: int, triples) -> "Tensor3":
        """The tensor with the given {(i, j, k): value} entries, zero elsewhere."""
        return cls(field, dim, triples)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.terms == other.terms)

    def nonzero(self):
        """Yield (i, j, k, value) over nonzero entries in index order."""
        for (i, j, k), x in self.terms.items():
            yield i, j, k, x


# ---------------------------------------------------------------------------
# Gauss-Jordan reduction
# ---------------------------------------------------------------------------

def _row_reduce(field: FieldSpec, rows, limit_cols=None):
    """Bring rows (lists of Scalars) to reduced row echelon form in place.

    Pivots are the first nonzero entry scanning columns left to right and
    rows top to bottom; only the first limit_cols columns are eligible as
    pivots (rows may carry augmented right-hand-side columns).  Each pivot
    row is scaled to a leading 1 and its column cleared in every other row
    whose entry there is nonzero, visiting only the nonzero entries of the
    pivot row.  Returns (pivot_cols, det): pivot_cols[r] is the pivot column
    of row r, det the signed product of the pivots (the determinant when
    rows is square and every column has a pivot).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if limit_cols is None:
        limit_cols = ncols
    one, zero = field.one(), field.zero()
    det = one
    pivot_cols = []
    for c in range(limit_cols):
        r = len(pivot_cols)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            det = -det
        top = rows[r]
        pivot = top[c]
        det = det * pivot
        inv = None if pivot.is_one() else pivot.inv()
        support = []
        for j in range(c + 1, ncols):
            x = top[j]
            if not x.is_zero():
                if inv is not None:
                    x = top[j] = inv * x
                support.append((j, x))
        top[c] = one
        for i, row in enumerate(rows):
            head = row[c]
            if i == r or head.is_zero():
                continue
            for j, x in support:
                row[j] = row[j] - head * x
            row[c] = zero
        pivot_cols.append(c)
    return pivot_cols, det


def normalize_vector(field: FieldSpec, vec):
    """Scale so the first nonzero coordinate becomes 1; zero stays zero."""
    for v in vec:
        if not v.is_zero():
            inv = v.inv()
            return [x if x.is_zero() else inv * x for x in vec]
    return list(vec)


def nullspace(m: Matrix):
    """Exact basis of ker(m) as a list of coordinate columns.

    One basis column per free column of the reduced echelon form, in column
    order, each normalized to leading coefficient 1.  Empty list iff m is
    injective.
    """
    field = m.field
    rows = [list(r) for r in m.data]
    if not rows:
        return []
    pivot_cols, _ = _row_reduce(field, rows)
    pivots = set(pivot_cols)
    one, zero = field.one(), field.zero()
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        x = [zero] * m.cols
        x[f] = one
        for r, pc in enumerate(pivot_cols):
            if not rows[r][f].is_zero():
                x[pc] = -rows[r][f]
        basis.append(normalize_vector(field, x))
    return basis


def solve(m: Matrix, rhs):
    """The unique solution of m x = rhs.

    Raises InconsistentSystemError when no solution exists and
    NonUniqueSolutionError when the solution space has positive dimension;
    callers rely on the distinction (uniqueness asserts faithfulness).
    """
    field = m.field
    rhs = [field.scalar(v) for v in rhs]
    if len(rhs) != m.rows:
        raise ValueError("rhs length does not match row count")
    rows = [list(r) + [v] for r, v in zip(m.data, rhs)]
    ncols = m.cols
    if not rows:
        if ncols:
            raise NonUniqueSolutionError(f"solution space has dimension {ncols}")
        return []
    pivot_cols, _ = _row_reduce(field, rows, ncols)
    # consistency: reduced rows below the rank must have zero rhs
    for r in range(len(pivot_cols), len(rows)):
        if not rows[r][ncols].is_zero():
            raise InconsistentSystemError("system has no solution")
        if any(not x.is_zero() for x in rows[r][:ncols]):
            raise AssertionError("elimination left a stray row")
    if len(pivot_cols) < ncols:
        raise NonUniqueSolutionError(
            f"solution space has dimension {ncols - len(pivot_cols)}"
        )
    return [row[ncols] for row in rows[:ncols]]


def invert(m: Matrix) -> Matrix:
    """Exact inverse, the right half of [m | I] reduced; raises
    SingularMatrixError on singular input."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    field = m.field
    n = m.rows
    one, zero = field.one(), field.zero()
    rows = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(m.data)]
    pivot_cols, _ = _row_reduce(field, rows, n)
    if len(pivot_cols) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix._of(field, [row[n:] for row in rows])


def determinant(m: Matrix) -> Scalar:
    """Exact determinant: the signed product of the pivots."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    field = m.field
    if m.rows == 0:
        return field.one()
    pivot_cols, det = _row_reduce(field, [list(r) for r in m.data])
    return det if len(pivot_cols) == m.rows else field.zero()


def rank(m: Matrix) -> int:
    return len(_row_reduce(m.field, [list(r) for r in m.data])[0])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i,j) is a[i][j] * b.

    Realizes maps on a tensor square when coordinates are indexed row-major
    (index of e_i (x) e_j is i * dim + j).
    """
    if a.field != b.field:
        raise ValueError("kron requires a shared field")
    field = a.field
    zero = field.zero()
    out = [[zero] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i, arow in enumerate(a.data):
        for j, x in enumerate(arow):
            if x.is_zero():
                continue
            for p, brow in enumerate(b.data):
                for q, y in enumerate(brow):
                    if not y.is_zero():
                        out[i * b.rows + p][j * b.cols + q] = x * y
    return Matrix._of(field, out)
