"""Differential gate for the sparse Gauss-Jordan kernel.

The dense reduction it replaced is kept here as the reference: pivots are
the first nonzero entry scanning columns left to right and rows top to
bottom, on dense rows.  Both must give the same pivot columns and reduced
rows, and solve, nullspace and invert built on each must
give the same values or raise the same exception type, on seeded matrices
over four fields and on every system the pipeline builds for the builtins
and taft-5.
"""

import random
from fractions import Fraction

import pytest

from hopfcheck import duality, hopf, linalg, modular
from hopfcheck.catalog import BUILTIN_BUILDERS, build_taft, builtin
from hopfcheck.duality import pair_system
from hopfcheck.hopf import compute_antipode
from hopfcheck.linalg import (InconsistentSystemError, Matrix, NonUniqueSolutionError,
                              SingularMatrixError, _row_reduce, invert, normalize_vector,
                              nullspace, solve)
from hopfcheck.scalars import RATIONAL, Scalar, cyclotomic_field

FIELDS = (RATIONAL, cyclotomic_field(3), cyclotomic_field(4), cyclotomic_field(12))
ERRORS = (InconsistentSystemError, NonUniqueSolutionError, SingularMatrixError)


# -- the dense reference -------------------------------------------------------

def dense_row_reduce(field, rows, limit_cols=None):
    """The dense reduction as it was before the sparse kernel: rows (lists
    of Scalars) to reduced row echelon form in place; returns pivot_cols."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if limit_cols is None:
        limit_cols = ncols
    one, zero = field.one(), field.zero()
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
        top = rows[r]
        pivot = top[c]
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
    return pivot_cols


def dense_nullspace(m):
    field = m.field
    rows = [list(r) for r in m.data]
    if not rows:
        return []
    pivot_cols = dense_row_reduce(field, rows)
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


def dense_solve(m, rhs):
    field = m.field
    rhs = [field.scalar(v) for v in rhs]
    rows = [list(r) + [v] for r, v in zip(m.data, rhs)]
    ncols = m.cols
    if not rows:
        if ncols:
            raise NonUniqueSolutionError(f"solution space has dimension {ncols}")
        return []
    pivot_cols = dense_row_reduce(field, rows, ncols)
    for r in range(len(pivot_cols), len(rows)):
        if not rows[r][ncols].is_zero():
            raise InconsistentSystemError("system has no solution")
    if len(pivot_cols) < ncols:
        raise NonUniqueSolutionError("solution space has positive dimension")
    return [row[ncols] for row in rows[:ncols]]


def dense_invert(m):
    field = m.field
    n = m.rows
    one, zero = field.one(), field.zero()
    rows = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(m.data)]
    pivot_cols = dense_row_reduce(field, rows, n)
    if len(pivot_cols) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix(field, [row[n:] for row in rows])


# -- comparisons ---------------------------------------------------------------

def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ERRORS as exc:
        return "raises", type(exc)


def assert_same_reduction(m, augmented=()):
    """Reduce m, with the given extra columns appended, both ways; pivots
    are eligible in m's own columns only."""
    field, ncols = m.field, m.cols
    zero = field.zero()
    dense = [list(row) + [col[i] for col in augmented] for i, row in enumerate(m.data)]
    sparse = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in dense]
    ref_cols = dense_row_reduce(field, dense, ncols)
    pivot_cols = _row_reduce(sparse, ncols)
    assert pivot_cols == ref_cols
    width = ncols + len(augmented)
    got = [[row.get(j, zero) for j in range(width)] for row in sparse]
    r = len(ref_cols)
    consistent = all(x.is_zero() for row in dense[r:] for x in row)
    assert consistent == all(not row for row in sparse[r:])
    if consistent:
        assert got == dense
    else:
        # an inconsistent augmented system has no unique reduced form on its
        # extra columns; on m's own columns it is still the unique RREF
        assert [row[:ncols] for row in got] == [row[:ncols] for row in dense]
    return consistent


def assert_same_results(m, rhs_list=()):
    """The public results of the sparse kernel against the dense reference;
    returns the outcome kinds seen."""
    kinds = set()
    assert_same_reduction(m)
    assert nullspace(m) == dense_nullspace(m)
    if m.rows == m.cols:
        one, zero = m.field.one(), m.field.zero()
        identity = [[one if i == j else zero for i in range(m.rows)] for j in range(m.rows)]
        assert_same_reduction(m, identity)
        got = _outcome(invert, m)
        assert got == _outcome(dense_invert, m)
        kinds.add(got[1] if got[0] == "raises" else "inverse")
    for rhs in rhs_list:
        assert_same_reduction(m, [[m.field.scalar(v) for v in rhs]])
        got = _outcome(solve, m, rhs)
        assert got == _outcome(dense_solve, m, rhs)
        kinds.add(got[1] if got[0] == "raises" else "solution")
    return kinds


# -- seeded matrices -----------------------------------------------------------

def _entry(rng, field):
    if rng.random() < 0.45:
        return field.zero()
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if k == 0 or rng.random() < 0.4
              else Fraction(0) for k in range(field.degree)]
    return Scalar(field, tuple(coeffs))


def _random(rng, field, rows, cols):
    return [[_entry(rng, field) for _ in range(cols)] for _ in range(rows)]


def _product(field, a, b):
    return Matrix(field, a) * Matrix(field, b)


def _shapes(rng, field):
    """(label, matrix) for each kind of input the gate covers."""
    n = rng.randint(3, 6)
    zero = field.zero()
    holes = _random(rng, field, n, n)
    holes[rng.randrange(n)] = [zero] * n
    col = rng.randrange(n)
    for row in holes:
        row[col] = zero
    low = rng.randint(1, n - 1)
    yield "square", Matrix(field, _random(rng, field, n, n))
    yield "wide", Matrix(field, _random(rng, field, n, n + 2))
    yield "tall", Matrix(field, _random(rng, field, n + 2, n))
    yield "rank-deficient", _product(field, _random(rng, field, n, low),
                                     _random(rng, field, low, n))
    yield "rank-deficient-wide", _product(field, _random(rng, field, n, low),
                                          _random(rng, field, low, n + 2))
    yield "zero-row-and-column", Matrix(field, holes)
    yield "zero", Matrix.zero(field, n, n - 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sparse_kernel_matches_dense_reference_on_seeded_matrices(field):
    rng = random.Random(f"reduction-gate:{field}")
    kinds = set()
    for _ in range(6):
        for label, m in _shapes(rng, field):
            x = [_entry(rng, field) for _ in range(m.cols)]
            consistent_rhs = m.apply(x)
            random_rhs = [_entry(rng, field) for _ in range(m.rows)]
            kinds |= assert_same_results(m, [consistent_rhs, random_rhs])
    # every outcome occurs: unique and inconsistent solves, underdetermined
    # ones, and both invertible and singular squares
    assert kinds == {"solution", "inverse", *ERRORS}


# -- every system the pipeline builds --------------------------------------------

KERNEL = ("solve", "nullspace", "invert")


def _capture(monkeypatch):
    """Record every kernel call the pipeline modules make."""
    calls = []
    for module in (hopf, modular, duality):
        for name in KERNEL:
            if getattr(module, name, None) is getattr(linalg, name):
                def recorded(*args, _name=name, _fn=getattr(linalg, name)):
                    calls.append((_name, args))
                    return _fn(*args)
                monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("name", list(BUILTIN_BUILDERS) + ["taft-5"])
def test_pipeline_systems_match_dense_reference(monkeypatch, name):
    h = build_taft(5) if name == "taft-5" else builtin(name)
    calls = _capture(monkeypatch)
    compute_antipode(h)
    pair_system(h).swapped()
    monkeypatch.undo()
    assert {fn for fn, _ in calls} == set(KERNEL)
    for fn, args in calls:
        m = args[0]
        # the kernel-built matrix carries its nonzero rows and columns: they
        # agree with a scan of its dense entries
        scanned = Matrix(m.field, m.data)
        assert m.nonzero_rows() == scanned.nonzero_rows()
        assert m.nonzero_columns() == scanned.nonzero_columns()
        if fn == "solve":
            rhs = args[1]
            assert_same_reduction(m, [[m.field.scalar(v) for v in rhs]])
            assert _outcome(solve, m, rhs) == _outcome(dense_solve, m, rhs)
        elif fn == "nullspace":
            assert_same_reduction(m)
            assert nullspace(m) == dense_nullspace(m)
        else:
            one, zero = m.field.one(), m.field.zero()
            assert_same_reduction(m, [[one if i == j else zero for i in range(m.rows)]
                                      for j in range(m.rows)])
            assert _outcome(invert, m) == _outcome(dense_invert, m)
