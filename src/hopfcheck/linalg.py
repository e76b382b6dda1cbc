"""Exact linear algebra over a FieldSpec.

Everything here is pure and deterministic: one Gauss-Jordan reduction
over sparse rows, taking pivot columns left to right, brings a matrix to
its reduced row echelon form, which is unique, so nullspace bases,
solutions and inverses are read off it reproducibly
whichever row each pivot is taken from.  Matrices are immutable after
construction and store only their shape and their nonzero entries, so a
system of dim^2 equations costs memory in its nonzero count, never in
dim^4.  Structure tensors are stored sparse, as their nonzero triples.
"""

from __future__ import annotations

from .scalars import FieldSpec


class InconsistentSystemError(ValueError):
    """The linear system has no solution."""


class NonUniqueSolutionError(ValueError):
    """The linear system is underdetermined (solution space dim >= 1)."""


class SingularMatrixError(ValueError):
    """Inverse of a singular matrix requested."""


class Matrix:
    """Immutable rows x cols matrix stored as its nonzero entries.

    nonzero_rows() gives, per row, the (column, value) pairs of its nonzero
    entries in column order; it is the storage every operation reads.
    nonzero_columns() is the same per column, derived and cached.  data,
    the dense rows, is derived on each read, for printing and export.
    """

    __slots__ = ("field", "rows", "cols", "_sparse_rows", "_sparse_cols")

    def __init__(self, field: FieldSpec, rows):
        data = [tuple(field.scalar(x) for x in row) for row in rows]
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("ragged matrix rows")
        _store(self, field, len(data), width, _scanned(data))

    @classmethod
    def _from_entries(cls, field: FieldSpec, nrows: int, ncols: int, entries) -> "Matrix":
        """The nrows x ncols matrix with the given {(row, col): Scalar}
        entries, nonzero Scalars of field, and zero elsewhere: the kernel
        builds every matrix this way, from the entries it knows are nonzero."""
        rows = [[] for _ in range(nrows)]
        for (i, j), x in sorted(entries.items()):
            rows[i].append((j, x))
        return _store(_new_object(cls), field, nrows, ncols, tuple(map(tuple, rows)))

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one = field.one()
        return _store(_new_object(cls), field, n, n, tuple(((i, one),) for i in range(n)))

    @classmethod
    def zero(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return _store(_new_object(cls), field, rows, cols, ((),) * rows)

    @property
    def data(self):
        """The dense rows, tuples of Scalars, rebuilt on each read."""
        zero = self.field.zero()
        out = []
        for row in self._sparse_rows:
            dense = [zero] * self.cols
            for j, x in row:
                dense[j] = x
            out.append(tuple(dense))
        return tuple(out)

    def column(self, j: int):
        out = [self.field.zero()] * self.rows
        for i, x in self.nonzero_columns()[j]:
            out[i] = x
        return out

    def transpose(self) -> "Matrix":
        t = _store(_new_object(Matrix), self.field, self.cols, self.rows, self.nonzero_columns())
        _set_sparse_cols(t, self._sparse_rows)
        return t

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._sparse_rows == other._sparse_rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        right = other._sparse_rows
        out = []
        for row in self._sparse_rows:
            acc = {}
            for k, x in row:
                for j, y in right[k]:
                    prev = acc.get(j)
                    acc[j] = x * y if prev is None else prev + x * y
            out.append(tuple((j, acc[j]) for j in sorted(acc) if not acc[j].is_zero()))
        return _store(_new_object(Matrix), self.field, self.rows, other.cols, tuple(out))

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

    def nonzero_rows(self):
        """Per row, the (column, value) pairs of its nonzero entries."""
        return self._sparse_rows

    def nonzero_columns(self):
        """Per column, the (row, value) pairs of its nonzero entries; cached."""
        cols = self._sparse_cols
        if cols is None:
            lists = [[] for _ in range(self.cols)]
            for i, row in enumerate(self._sparse_rows):
                for j, x in row:
                    lists[j].append((i, x))
            cols = tuple(map(tuple, lists))
            _set_sparse_cols(self, cols)
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
        rows = self._sparse_rows
        for i, c in enumerate(row_vec):
            if c.is_zero():
                continue
            for j, x in rows[i]:
                out[j] = out[j] + c * x
        return out

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


_new_object = object.__new__
_set_field = Matrix.field.__set__
_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_sparse_rows = Matrix._sparse_rows.__set__
_set_sparse_cols = Matrix._sparse_cols.__set__


def _store(m: Matrix, field: FieldSpec, nrows: int, ncols: int, sparse_rows) -> Matrix:
    """Fill a new matrix's slots: its shape and its nonzero rows."""
    _set_field(m, field)
    _set_rows(m, nrows)
    _set_cols(m, ncols)
    _set_sparse_rows(m, sparse_rows)
    _set_sparse_cols(m, None)
    return m


def _scanned(data):
    """The nonzero rows of dense rows of Scalars."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if not x.is_zero()) for row in data)


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
# Gauss-Jordan reduction over sparse rows
# ---------------------------------------------------------------------------

def _row_reduce(rows, limit_cols: int):
    """Bring rows, dicts from column to nonzero Scalar, to reduced row
    echelon form in place.

    Only the first limit_cols columns are eligible as pivots (rows may carry
    augmented right-hand-side columns).  Pivot columns are taken left to
    right.  An index from each such column to the rows holding it means the
    pivot search and the elimination touch only those rows.  Among the rows
    not yet pivots that hold the column, the one with the fewest entries is
    the pivot row (Markowitz's rule; ties go to the lower index).  Any
    choice gives the same result, since the reduced row echelon form is
    unique.  The pivot row is scaled to a leading 1 and subtracted from
    every other row holding its column.

    On return rows[r] is the pivot row of pivot_cols[r], and the rows
    without a pivot follow in their old order.  Returns pivot_cols, the
    column of each pivot.
    """
    holders = [set() for _ in range(limit_cols)]
    for i, row in enumerate(rows):
        for j in row:
            if j < limit_cols:
                holders[j].add(i)
    free = [True] * len(rows)
    pivot_cols, pivot_rows = [], []
    for c, held in enumerate(holders):
        p, size = -1, 0
        for i in held:
            if free[i] and (p < 0 or len(rows[i]) < size or (len(rows[i]) == size and i < p)):
                p, size = i, len(rows[i])
        if p < 0:
            continue
        free[p] = False
        top = rows[p]
        pivot = top.pop(c)
        if not pivot.is_one():
            inv = pivot.inv()
            for j, x in top.items():
                top[j] = inv * x
        support = list(top.items())
        top[c] = pivot.field.one()
        for i in held:
            if i == p:
                continue
            row = rows[i]
            minus_head = -row.pop(c)
            for j, x in support:
                y = row.get(j)
                if y is None:
                    row[j] = minus_head * x
                    if j < limit_cols:
                        holders[j].add(i)
                else:
                    y = y + minus_head * x
                    if y.is_zero():
                        del row[j]
                        if j < limit_cols:
                            holders[j].discard(i)
                    else:
                        row[j] = y
        pivot_cols.append(c)
        pivot_rows.append(p)
        if len(pivot_rows) == len(rows):
            break
    rows[:] = [rows[i] for i in pivot_rows] + [row for i, row in enumerate(rows) if free[i]]
    return pivot_cols


def _row_dicts(m: Matrix):
    """Fresh dict copies of m's nonzero rows, for _row_reduce to consume."""
    return [dict(row) for row in m.nonzero_rows()]


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
    rows = _row_dicts(m)
    pivot_cols = _row_reduce(rows, m.cols)
    # free column f -> the (pivot column, -entry) pairs of its basis column
    coords = {}
    for pc, row in zip(pivot_cols, rows):
        for f, x in row.items():
            if f != pc:
                coords.setdefault(f, []).append((pc, -x))
    pivots = set(pivot_cols)
    one, zero = field.one(), field.zero()
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        x = [zero] * m.cols
        x[f] = one
        for pc, v in coords.get(f, ()):
            x[pc] = v
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
    ncols = m.cols
    rows = _row_dicts(m)
    for row, v in zip(rows, rhs):
        if not v.is_zero():
            row[ncols] = v
    pivot_cols = _row_reduce(rows, ncols)
    # consistency: reduced rows below the pivot rows must have zero rhs
    for row in rows[len(pivot_cols):]:
        if ncols in row:
            raise InconsistentSystemError("system has no solution")
        if row:
            raise AssertionError("elimination left a stray row")
    if len(pivot_cols) < ncols:
        raise NonUniqueSolutionError(
            f"solution space has dimension {ncols - len(pivot_cols)}"
        )
    zero = field.zero()
    return [row.get(ncols, zero) for row in rows[:ncols]]


def invert(m: Matrix) -> Matrix:
    """Exact inverse, the right half of [m | I] reduced; raises
    SingularMatrixError on singular input."""
    if m.rows != m.cols:
        raise SingularMatrixError("only square matrices can be inverted")
    field = m.field
    n = m.rows
    one = field.one()
    rows = _row_dicts(m)
    for i, row in enumerate(rows):
        row[n + i] = one
    pivot_cols = _row_reduce(rows, n)
    if len(pivot_cols) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix._from_entries(field, n, n, {
        (i, j - n): x for i, row in enumerate(rows) for j, x in row.items() if j >= n})
