"""Finite-dimensional Hopf algebras presented by structure constants.

A HopfAlgebra fixes a basis e_0..e_{n-1} and stores the nonzero structure
constants once, grouped by input and in index order: mul_terms[i][j] lists
the (k, x) with x the coefficient of e_k in e_i * e_j, and comul_terms[i]
the (j, k, x) with x the coefficient of e_j (x) e_k in the coproduct of
e_i.  It also stores the unit coordinates, the counit row, and the antipode
matrix.  Tensor3 is only the input and export form: the constructor
groups two, and mul and comul rebuild them.  _transposed gives the dual's
tables, once per algebra through HopfAlgebra.dual_tables.  The unit is an
arbitrary coordinate column: dual algebras have the counit as their unit,
which is rarely a basis vector.

The six bialgebra axioms are decided by one routine, _bialgebra_failures,
which checks the unit and counit laws, coproduct(1) = 1 (x) 1 and
counit(1) = 1 on every index, and scans associativity, the
counit-homomorphism, the coproduct-homomorphism and coassociativity over
given rows.  On every row of the algebra's own tables it is the ordered
full scan, whose first failure is each check's witness.  Validation first
calls it on the rows of one generating set; when all six hold there, they
hold everywhere, and only otherwise does the full scan run, so every
witness is the full scan's.  The generating set is taken from either side:

  - G, on the product side: _generators picks basis indices whose
    right-nested words g1(g2(...(gk 1))) span the algebra.
  - P, on the coproduct side: the same search on the dual's product (the
    transposed coproduct, with the counit as unit), and the routine runs
    on the dual's tables.  The dual's six axioms are the algebra's with
    their indices renamed (duality.build_dual), so they all hold exactly
    when the algebra's do.

The side whose unit has fewer nonzero coordinates is searched first (G
when the unit is no denser than the counit: group and taft algebras take
G, function algebras and the duals of group and taft algebras P), the
other only when the first gives up.  Each search gives up past half the
basis, where it costs more than the rows it saves.  Why the rows of G
(and of P, which is G of the dual) decide, once the checks made on every
index hold:

  - {a : (a x) y = a (x y) for all x, y} is a subspace, holds 1 by the
    unit law, and is closed under products:
    ((a a') x) y = (a (a' x)) y = a ((a' x) y) = a (a' (x y)) = (a a')(x y).
    So the rows of G decide associativity.
  - {a : coproduct(a x) = coproduct(a) coproduct(x) for all x} is closed
    under products likewise, by associativity in A and A (x) A, and holds
    1 since coproduct(1) = 1 (x) 1; so does {a : counit(a x) =
    counit(a) counit(x) for all x}, which holds 1 since counit(1) = 1.  So
    once associativity holds, the rows of G decide both.
  - {a : (coproduct (x) id) coproduct(a) = (id (x) coproduct) coproduct(a)}
    is a subspace closed under products once the coproduct is
    multiplicative (coproduct (x) id and id (x) coproduct then are too),
    and holds 1 since coproduct(1) = 1 (x) 1.  So once the
    coproduct-homomorphism holds, the rows of G decide coassociativity.

Whether a linear map respects products (the coproduct, the counit, and in
modular the modular automorphisms on G's rows) is decided by one scan,
_algebra_map_failure; modular checks an automorphism without G one output
coordinate at a time.

Regularity is checked only on an algebra that passed validation, so
through its antipode: the Galois maps are composed with their candidate
inverses on the tensors a (x) 1 and 1 (x) b, which is enough by
associativity and the unit law (Larson-Sweedler: the Galois maps are
invertible exactly when an antipode exists).  Every algebra is built by
one table constructor, HopfAlgebra._from_tables, which also takes results
handed over from an algebra that decided the same equations: with_antipode
passes on the bialgebra checks, G or P, and the dual's tables if the P
side transposed them (HopfAlgebra.dual_tables, which duality.build_dual
reads); the dual is given the primal's results renamed, the primal's G as
its P and the primal's P as its G (duality.build_dual).  P also decides the
integrals, and G the modular automorphisms (modular).
No algebra changes after it is built, so instances can be shared freely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import Matrix, Tensor3, invert, solve, SingularMatrixError, \
    InconsistentSystemError, NonUniqueSolutionError
from .scalars import FieldSpec

# Largest dimension for which compute_antipode builds its system of dim^2
# equations in dim^2 unknowns.  The system is stored and reduced as sparse
# rows; the limit bounds the time a file without an antipode can cost
# (taft-8, dim 64, takes about a second).
ANTIPODE_DIM_LIMIT = 64


class InvalidHopfAlgebraError(ValueError):
    """Algebra data failed axiom validation where validity is required."""


class CorruptedDataError(ValueError):
    """Structurally impossible situation: input data is not what it claims."""


class NoAntipodeError(ValueError):
    """The bialgebra admits no antipode (convolution system inconsistent)."""


class NotRegularError(ValueError):
    """A Galois map is singular: not a regular structure."""


class AntipodeTooLargeError(ValueError):
    """The algebra is too large to synthesize its antipode."""


def _summed(pairs):
    """Sum (key, scalar) pairs by key; keys whose sum is zero are dropped."""
    out = {}
    for key, x in pairs:
        prev = out.get(key)
        out[key] = x if prev is None else prev + x
    return _nonzero(out)


def _nonzero(sums) -> dict:
    """The entries of {key: Scalar} whose value is not zero."""
    return {k: v for k, v in sums.items() if not v.is_zero()}


def _sparse(column) -> dict:
    """The nonzero coordinates of a column as {index: Scalar}."""
    return {k: x for k, x in enumerate(column) if not x.is_zero()}


def _product_table(n, triples):
    """The ((i, j, k), x) triples of a product grouped by input, laid out
    like HopfAlgebra.mul_terms: table[i][j] lists (k, x).  Rows without
    terms share one tuple, so a sparse load stays small."""
    rows = {}
    for (i, j, k), x in triples:
        rows.setdefault(i, {}).setdefault(j, []).append((k, x))
    empty_row = ((),) * n
    return tuple(tuple(tuple(rows[i].get(j, ())) for j in range(n)) if i in rows
                 else empty_row for i in range(n))


def _coproduct_table(n, triples):
    """The ((i, j, k), x) triples of a coproduct grouped by input, laid out
    like HopfAlgebra.comul_terms: table[i] lists (j, k, x)."""
    rows = [[] for _ in range(n)]
    for (i, j, k), x in triples:
        rows[i].append((j, k, x))
    return tuple(map(tuple, rows))


def _product_triples(mul_terms):
    """The ((i, j, k), x) terms of a product table, in the table's order."""
    return (((i, j, k), x) for i, row in enumerate(mul_terms)
            for j, cell in enumerate(row) for k, x in cell)


def _transposed(mul_terms, comul_terms):
    """The product and coproduct tables of the dual on the canonical dual
    basis, for the grouped tables of an algebra, in index order again: the
    dual product is the transposed coproduct, mul_hat[i][j] holds (k, x) for
    each term (i, j, x) of comul_terms[k], and the dual coproduct the
    transposed product, comul_hat[i] holds (j, k, x) for each (i, x) in
    mul_terms[j][k].  An involution."""
    n = len(mul_terms)
    return (_product_table(n, (((i, j, k), x) for k, terms in enumerate(comul_terms)
                               for i, j, x in terms)),
            _coproduct_table(n, (((i, j, k), x) for (j, k, i), x in _product_triples(mul_terms))))


def _product(mt, x, y):
    """Product of two sparse elements {index: Scalar} for the product table
    mt, laid out like HopfAlgebra.mul_terms."""
    out = {}
    for i, c in x.items():
        row = mt[i]
        for j, d in y.items():
            for k, e in row[j]:
                prev = out.get(k)
                out[k] = c * d * e if prev is None else prev + c * d * e
    return _nonzero(out)


def _tensor_square_product(mt, x, y):
    """Product of two sparse tensor-square elements {(p, q): Scalar} for the
    product table mt."""
    return _summed(((k1, k2), c * d * c1 * c2)
                   for (p, q), c in x.items() for (r, s), d in y.items()
                   for k1, c1 in mt[p][r] for k2, c2 in mt[q][s])


class _Span:
    """The span of sparse vectors {index: Scalar} in echelon form: rows maps
    each pivot to a row that is 1 at the pivot, its smallest index."""

    def __init__(self, rows=()):
        self.rows = dict(rows)

    def add(self, v) -> bool:
        """Add v to the span; False when it was in it already."""
        v, rows = dict(v), self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                inv = v[p].inv()
                rows[p] = v if inv.is_one() else {k: x * inv for k, x in v.items()}
                return True
            x = v.pop(p)
            for k, c in row.items():
                if k != p:
                    y = v[k] - x * c if k in v else -(x * c)
                    if y.is_zero():
                        del v[k]
                    else:
                        v[k] = y
        return False


def _generators(table, unit, limit=None):
    """Basis indices G whose right-nested words g1(g2(...(gk 1))) span the
    whole space, for the product table (laid out like HopfAlgebra.mul_terms)
    and the unit column unit; None when the words over every index do not
    span it, or when more than limit indices would be needed.

    Candidates are tried by the dimension of their power orbit
    span{1, e 1, e(e 1), ...}, largest first, then those whose powers do
    not reach 0 (a nilpotent e and e' often span the same words), then by
    index.  A candidate whose word e 1 is in the span of the words so far
    is skipped; any other joins G, and the span is closed again under left
    multiplication by G.  The span is exact (sparse echelon form), so G is
    a generating set whatever the table: no axiom is assumed."""
    n = len(table)
    one = _sparse(unit)
    one_scalar = unit[0].field.one()
    span, words, gens = _Span(), [], []
    if span.add(one):
        words.append(one)

    def times(g, w):
        return _product(table, {g: one_scalar}, w)

    def orbit(e):
        """The dimension of e's power orbit, and whether its last power is 0."""
        powers, w = _Span(span.rows), times(e, one)
        while powers.add(w):
            w = times(e, w)
        return len(powers.rows), not w

    candidates = []
    for e in range(n):
        size, nilpotent = orbit(e)
        candidates.append((-size, nilpotent, e))
        if size == n:
            break  # the first candidate, and its words span
    for *_, e in sorted(candidates):
        if len(span.rows) == n:
            break
        v = times(e, one)
        if not span.add(v):
            continue  # e 1 is a word already
        if len(gens) == limit:
            return None
        gens.append(e)
        words.append(v)
        # the products of a generator and a word not formed yet
        pending = [(g, v) for g in gens] + [(e, w) for w in words[1:-1]]
        while pending:
            g, w = pending.pop()
            v = times(g, w)
            if span.add(v):
                words.append(v)
                pending.extend((h, v) for h in gens)
    return tuple(gens) if len(span.rows) == n else None


def _associativity_failure(mt, rows):
    """The first (i, j, l), with i taken from rows in order, for which
    (e_i e_j) e_l != e_i (e_j e_l) under the product table mt; None when
    there is none."""
    # row k as (l, t, d): e_k * e_l has coefficient d at e_t
    right = [tuple((l, t, d) for l, cell in enumerate(row) for t, d in cell) for row in mt]
    for i in rows:
        mt_i = mt[i]
        for j, ij in enumerate(mt_i):
            if not (ij or right[j]):
                continue  # both sides vanish for every l
            # (e_i*e_j)*e_l and e_i*(e_j*e_l) for every l at once, keyed (l, t)
            lhs = _summed(((l, t), c * d) for k, c in ij for l, t, d in right[k])
            rhs = _summed(((l, t), c * d) for l, m, c in right[j] for t, d in mt_i[m])
            if lhs != rhs:
                return i, j, min(key[0] for key in lhs.keys() | rhs.keys()
                                 if lhs.get(key) != rhs.get(key))
    return None


def _coassociativity_failure(ct, rows):
    """The first (i,), with i taken from rows in order, for which
    (coproduct (x) id) coproduct(e_i) != (id (x) coproduct) coproduct(e_i)
    under the coproduct table ct; None when there is none."""
    for i in rows:
        terms = ct[i]
        left = _summed(((p, q, k), c * d) for j, k, c in terms for p, q, d in ct[j])
        right = _summed(((j, p, q), c * d) for j, k, c in terms for p, q, d in ct[k])
        if left != right:
            return (i,)
    return None


def _algebra_map_failure(mt, images, times, rows):
    """The first (i, j), with i taken from rows in order, for which
    f(e_i e_j) != f(e_i) f(e_j), where mt is the product table of the
    source, images[k] is f(e_k) as a sparse dict and times is the product
    of the target; None when there is none."""
    for i in rows:
        for j, ij in enumerate(mt[i]):
            if not (ij or (images[i] and images[j])):
                continue  # both sides vanish
            lhs = _summed((key, c * x) for k, c in ij for key, x in images[k].items())
            if lhs != times(images[i], images[j]):
                return i, j
    return None


# The witness of each bialgebra axiom, in report order, formatted with the
# arguments _bialgebra_failures returns for it: the first failing indices,
# or none (the second text) when a homomorphism fails on 1.
_WITNESSES = {
    "associativity": ("(e{0}*e{1})*e{2} != e{0}*(e{1}*e{2})",),
    "unit": ("unit law fails on e{0}",),
    "coassociativity": ("fails on e{0}",),
    "counit": ("counit law fails on e{0}",),
    "coproduct-homomorphism": ("coproduct(e{0}*e{1}) != coproduct(e{0})*coproduct(e{1})",
                               "coproduct of 1 is not 1 (x) 1"),
    "counit-homomorphism": ("counit(e{0}*e{1}) != counit(e{0})*counit(e{1})",
                            "counit(1) != 1"),
}
_BIALGEBRA_CHECKS = tuple(_WITNESSES)


def _bialgebra_failures(mt, ct, unit, counit, rows):
    """For each bialgebra axiom in report order, None when it holds and else
    its witness's format arguments (_WITNESSES), for the product table mt,
    the coproduct table ct and the unit and counit columns.  The unit and
    counit laws, coproduct(1) = 1 (x) 1 and counit(1) = 1 are checked on
    every index; associativity, the counit-homomorphism, the
    coproduct-homomorphism and coassociativity scan rows, in that order,
    and name the first failure there.  rows = range(dim) is the ordered
    full scan; the rows of a generating set decide all six when all six
    hold on them (module docstring)."""
    one = unit[0].field.one()
    unit = _sparse(unit)

    def unit_law():
        for i in range(len(mt)):
            e = {i: one}
            if _product(mt, unit, e) != e or _product(mt, e, unit) != e:
                return (i,)
        return None

    def counit_law():
        for i, terms in enumerate(ct):
            e = {i: one}
            if (_summed((k, c * counit[j]) for j, k, c in terms) != e
                    or _summed((j, c * counit[k]) for j, k, c in terms) != e):
                return (i,)
        return None

    def homomorphism(images, times, image_of_one):
        # () when 1 is not mapped to image_of_one, else the first failing pair
        if _summed((key, x * c) for i, x in unit.items()
                   for key, c in images[i].items()) != image_of_one:
            return ()
        return _algebra_map_failure(mt, images, times, rows)

    associativity = _associativity_failure(mt, rows)
    # the target k, as the one-dimensional algebra with e_0 e_0 = e_0
    counit_homomorphism = homomorphism(
        [{} if e.is_zero() else {0: e} for e in counit],
        functools.partial(_product, ((((0, one),),),)), {0: one})
    coproduct_homomorphism = homomorphism(
        [{(p, q): c for p, q, c in terms} for terms in ct],
        functools.partial(_tensor_square_product, mt),
        {(p, q): x * y for p, x in unit.items() for q, y in unit.items()})
    coassociativity = _coassociativity_failure(ct, rows)
    return (associativity, unit_law(), coassociativity, counit_law(),
            coproduct_homomorphism, counit_homomorphism)


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
    """The results of one suite in report order: the axioms of
    HopfAlgebra.validate, or one of the identity suites of verify."""

    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]

    def failures(self):
        return [c for c in self.checks if not c.passed]


class HopfAlgebra:
    """Structure-constant presentation of a Hopf algebra on a fixed basis."""

    __slots__ = (
        "name", "field", "dim", "basis_names", "unit", "counit", "antipode",
        "mul_terms", "comul_terms",
        "_bialgebra", "_generating_rows", "_dual_generating_rows", "_dual_tables",
        "_validation", "_antipode_inverse", "_integrals",
    )

    # the public constructor checks and groups its Tensor3s; every algebra
    # is then built by _from_tables
    def __new__(cls, field: FieldSpec, basis_names, mul: Tensor3, unit, comul: Tensor3,
                counit, antipode: Matrix | None = None, name: str = "unnamed"):
        n = len(basis_names)
        if mul.dim != n or comul.dim != n:
            raise ValueError("structure tensors do not match the basis size")
        if len(unit) != n or len(counit) != n:
            raise ValueError("unit/counit length does not match the basis size")
        if mul.field != field or comul.field != field:
            raise ValueError("structure tensors use a different field")
        return cls._from_tables(field, tuple(str(b) for b in basis_names),
                                _product_table(n, mul.terms.items()),
                                tuple(field.scalar(c) for c in unit),
                                _coproduct_table(n, comul.terms.items()),
                                tuple(field.scalar(c) for c in counit), antipode, name)

    @classmethod
    def _from_tables(cls, field, basis_names, mul_terms, unit, comul_terms, counit, antipode,
                     name, **results) -> "HopfAlgebra":
        """The algebra with the given structure, taken as it stands: a tuple
        of basis names, the unit and counit as tuples of Scalars of field,
        and the product and coproduct grouped by input in index order
        without zeros, mul_terms[i][j] listing (k, x) and comul_terms[i]
        (j, k, x).  Only the antipode, a Matrix or None, is checked: dim x
        dim, over field.  results hands over what an algebra deciding the
        same equations found, by slot name without its underscore
        (bialgebra, generating_rows, dual_generating_rows, dual_tables,
        validation, antipode_inverse); every other result starts empty."""
        n = len(basis_names)
        if antipode is not None and (antipode.rows != n or antipode.cols != n):
            raise ValueError("antipode matrix must be dim x dim")
        if antipode is not None and antipode.field != field:
            raise ValueError("antipode matrix uses a different field")
        h = object.__new__(cls)
        slots = {"name": name, "field": field, "dim": n, "basis_names": basis_names,
                 "unit": unit, "counit": counit, "antipode": antipode,
                 "mul_terms": mul_terms, "comul_terms": comul_terms, "_bialgebra": None,
                 # G, or P, when validation decided the bialgebra axioms on
                 # its rows, and the dual's tables once transposed
                 "_generating_rows": None, "_dual_generating_rows": None, "_dual_tables": None,
                 "_validation": None, "_antipode_inverse": None,
                 # side -> the integral modular._integral solved for, and a
                 # left integral -> its modular.modular_data tuple; filled there
                 "_integrals": {}}
        slots.update(("_" + key, value) for key, value in results.items())
        for slot, value in slots.items():
            object.__setattr__(h, slot, value)
        return h

    def __setattr__(self, *a):
        raise AttributeError("HopfAlgebra is immutable")

    def __repr__(self):
        return f"HopfAlgebra({self.name!r}, dim={self.dim}, field={self.field})"

    @property
    def mul(self) -> Tensor3:
        """The product as a Tensor3, rebuilt from mul_terms on each read."""
        return Tensor3(self.field, self.dim, dict(_product_triples(self.mul_terms)))

    @property
    def comul(self) -> Tensor3:
        """The coproduct as a Tensor3, rebuilt from comul_terms on each read."""
        return Tensor3(self.field, self.dim, {(i, j, k): x for i, ts in enumerate(self.comul_terms)
                                              for j, k, x in ts})

    def with_antipode(self, antipode: Matrix) -> "HopfAlgebra":
        """This bialgebra with the given antipode.  The new algebra shares
        this one's structure and its tables, and the dual's tables if they
        were transposed.  The bialgebra axioms do not involve the antipode,
        so it also takes over their results, and G or P if they were
        decided on its rows, instead of checking them again."""
        bialgebra = self.bialgebra_checks()
        return self._from_tables(self.field, self.basis_names, self.mul_terms, self.unit,
                                 self.comul_terms, self.counit, antipode, self.name,
                                 bialgebra=bialgebra, generating_rows=self._generating_rows,
                                 dual_generating_rows=self._dual_generating_rows,
                                 dual_tables=self._dual_tables)

    def dual_tables(self):
        """The dual's (mul_terms, comul_terms) on the canonical dual basis,
        transposed (_transposed) once per algebra."""
        if self._dual_tables is None:
            object.__setattr__(self, "_dual_tables", _transposed(self.mul_terms, self.comul_terms))
        return self._dual_tables

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

    # -- validation ----------------------------------------------------------

    def bialgebra_checks(self) -> tuple:
        """The six bialgebra axioms, the ones that do not involve the
        antipode, checked by exact contraction; cached.  They all PASS when
        they hold on the rows of the generating set searched first on the
        side whose unit is sparser (module docstring); otherwise, or when
        both searches give up, they take the ordered full scan on the
        algebra's own tables, which names every witness."""
        if self._bialgebra is None:
            own = (self.mul_terms, self.comul_terms, self.unit, self.counit)
            sides = ["product", "coproduct"]
            if len(_sparse(self.unit)) > len(_sparse(self.counit)):
                sides.reverse()
            failures = None
            for side in sides:
                tables = own
                if side == "coproduct":  # P: the dual's tables, unit and counit swapped
                    tables = (*self.dual_tables(), self.counit, self.unit)
                rows = _generators(tables[0], tables[2], self.dim // 2)
                if rows is None:
                    continue
                reduced = _bialgebra_failures(*tables, rows)
                if all(f is None for f in reduced):
                    failures = reduced
                    object.__setattr__(self, "_generating_rows" if side == "product"
                                       else "_dual_generating_rows", rows)
                break
            if failures is None:
                failures = _bialgebra_failures(*own, range(self.dim))
            object.__setattr__(self, "_bialgebra", tuple(
                CheckResult(check, self.name, True) if args is None else
                CheckResult(check, self.name, False,
                            _WITNESSES[check][0 if args else 1].format(*args))
                for check, args in zip(_BIALGEBRA_CHECKS, failures)))
        return self._bialgebra

    def validate(self) -> ValidationReport:
        """Check every Hopf axiom by exact contraction; cached."""
        if self._validation is not None:
            return self._validation
        report = ValidationReport(self.bialgebra_checks() + tuple(self._antipode_checks()))
        object.__setattr__(self, "_validation", report)
        return report

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            bad = ", ".join(c.check for c in report.failures())
            raise InvalidHopfAlgebraError(f"{self.name}: axiom failures: {bad}")
        return self

    def _antipode_checks(self):
        if self.antipode is None:
            return [CheckResult("antipode-left", self.name, False, "no antipode stored"),
                    CheckResult("antipode-right", self.name, False, "no antipode stored"),
                    CheckResult("antipode-invertible", self.name, False, "no antipode stored")]
        checks = []
        s_cols = self.antipode.nonzero_columns()
        for side in ("left", "right"):
            i = _antipode_law_failure(self, s_cols, side)
            detail = "" if i is None else f"antipode {side} law fails on e{i}"
            checks.append(CheckResult(f"antipode-{side}", self.name, not detail, detail))
        try:
            object.__setattr__(self, "_antipode_inverse", invert(self.antipode))
            checks.append(CheckResult("antipode-invertible", self.name, True))
        except SingularMatrixError:
            checks.append(CheckResult("antipode-invertible", self.name, False,
                                      "antipode matrix is singular"))
        return checks

    def antipode_inverse(self) -> Matrix:
        """The inverse of the antipode, as found while validating it."""
        self.validate()
        if self._antipode_inverse is None:
            raise InvalidHopfAlgebraError(f"{self.name}: antipode is missing or singular")
        return self._antipode_inverse


# ---------------------------------------------------------------------------
# convolution algebra and antipode synthesis
# ---------------------------------------------------------------------------

def _convolution_column(h: HopfAlgebra, f_cols, g_cols, i: int):
    """(f * g)(e_i) = sum f(e_i(1)) g(e_i(2)) as a sparse column, where
    f_cols and g_cols are the nonzero entries of each column of f and g."""
    mt = h.mul_terms
    return _summed(
        (t, c * x * y * d)
        for j, k, c in h.comul_terms[i]
        for m, x in f_cols[j]
        for r, y in g_cols[k]
        for t, d in mt[m][r]
    )


def _antipode_law_failure(h: HopfAlgebra, s_cols, side: str):
    """The first i on which the left law (S * id)(e_i) = counit(e_i) 1, or
    the right law (id * S)(e_i) = counit(e_i) 1, fails for the map S whose
    columns have the nonzero entries s_cols; None when the law holds."""
    id_cols = Matrix.identity(h.field, h.dim).nonzero_columns()
    f_cols, g_cols = (s_cols, id_cols) if side == "left" else (id_cols, s_cols)
    unit = [(t, u) for t, u in enumerate(h.unit) if not u.is_zero()]
    for i in range(h.dim):
        expected = _summed((t, h.counit[i] * u) for t, u in unit)
        if _convolution_column(h, f_cols, g_cols, i) != expected:
            return i
    return None


def compute_antipode(h: HopfAlgebra) -> Matrix:
    """Solve the left antipode law for the antipode as a linear system.

    The unknowns are the n^2 matrix entries; the equation is the
    convolution S * id = unit o counit.  The solution, when it exists, is the
    two-sided convolution inverse of the identity, and the right law is
    re-checked afterwards.  Raises NoAntipodeError when the system is
    inconsistent; an underdetermined system cannot happen for honest
    bialgebra data and raises CorruptedDataError.  Raises
    AntipodeTooLargeError, before building anything, when the dimension
    exceeds ANTIPODE_DIM_LIMIT.
    """
    n = h.dim
    if n > ANTIPODE_DIM_LIMIT:
        raise AntipodeTooLargeError(
            f"{h.name}: dim {n} exceeds the antipode synthesis limit of "
            f"{ANTIPODE_DIM_LIMIT} (the system has dim^2 unknowns)")
    field = h.field
    mt = h.mul_terms
    # equation (i, p), unknown S[l][j]: sum over the coproduct terms
    # e_j (x) e_k of e_i and the products e_l * e_k with an e_p component
    entries = _summed(((i * n + p, l * n + j), c * d)
                      for i, terms in enumerate(h.comul_terms) for j, k, c in terms
                      for l in range(n) for p, d in mt[l][k])
    rhs = [e * u for e in h.counit for u in h.unit]
    try:
        flat = solve(Matrix._from_entries(field, n * n, n * n, entries), rhs)
    except InconsistentSystemError as exc:
        raise NoAntipodeError(f"{h.name}: no antipode exists") from exc
    except NonUniqueSolutionError as exc:
        raise CorruptedDataError(
            f"{h.name}: antipode system is underdetermined; input is not a bialgebra"
        ) from exc
    s = Matrix._from_entries(field, n, n, {
        divmod(u, n): x for u, x in enumerate(flat) if not x.is_zero()})
    if _antipode_law_failure(h, s.nonzero_columns(), "right") is not None:
        raise CorruptedDataError(f"{h.name}: left antipode is not a right antipode")
    return s


# ---------------------------------------------------------------------------
# Galois (regularity) maps on the tensor square
# ---------------------------------------------------------------------------

def _image_of(image, x):
    """The image of the sparse tensor x under the linear map whose basis
    images image(i, j) gives."""
    return _summed((k, c * d) for key, c in x.items() for k, d in image(*key).items())


def galois_maps(h: HopfAlgebra) -> None:
    """Check regularity: the maps T1(a (x) b) = coproduct(a)(1 (x) b) and
    T2(a (x) b) = (a (x) 1)coproduct(b) are invertible, else NotRegularError.
    h must pass validation (InvalidHopfAlgebraError names the failing
    axioms otherwise), so it has an antipode and satisfies associativity
    and the unit law.

    T1 and T2 are composed with the candidate inverses
    R1(a (x) b) = a_(1) (x) S(a_(2)) b and R2(a (x) b) = a S(b_(1)) (x) b_(2)
    on probe tensors, exactly.  One order is enough: T and R are square, so
    T o R = id makes T surjective, hence invertible with R = T^-1, and
    R o T = id follows.

    By associativity, T1 and R1 commute with right multiplication by
    1 (x) c, and T2 and R2 with left multiplication by c (x) 1; by the unit
    law, a (x) b = (a (x) 1)(1 (x) b).  So T1 o R1 = id on every tensor
    exactly when it holds on each e_i (x) 1, and T2 o R2 = id exactly when
    it holds on each 1 (x) e_j, where 1 is the unit column: n probes per
    map instead of n^2.  By the unit law again, their R images are formed
    directly, R1(e_i (x) 1) = e_i(1) (x) S(e_i(2)) and
    R2(1 (x) e_j) = S(e_j(1)) (x) e_j(2), however many nonzero coordinates
    the unit has (a function algebra's and a dual's unit are dense), and a
    T image is formed only for the basis tensors an R image reaches.
    """
    h.require_valid()
    n = h.dim
    mt, ct = h.mul_terms, h.comul_terms
    s_cols = h.antipode.nonzero_columns()

    @functools.cache
    def t1(i, j):
        return _summed(((p, k), c * d) for p, q, c in ct[i] for k, d in mt[q][j])

    @functools.cache
    def t2(i, j):
        return _summed(((k, q), c * d) for p, q, c in ct[j] for k, d in mt[i][p])

    def r1_unit(i):  # R1(e_i (x) 1) = e_i(1) (x) S(e_i(2))
        return _summed(((p, m), c * x) for p, q, c in ct[i] for m, x in s_cols[q])

    def r2_unit(j):  # R2(1 (x) e_j) = S(e_j(1)) (x) e_j(2)
        return _summed(((m, q), c * x) for p, q, c in ct[j] for m, x in s_cols[p])

    unit = [(u, x) for u, x in enumerate(h.unit) if not x.is_zero()]
    probes1 = (({(i, u): x for u, x in unit}, r1_unit(i)) for i in range(n))
    probes2 = (({(u, j): x for u, x in unit}, r2_unit(j)) for j in range(n))
    # each probe x with R(x), formed only once the probes before it passed
    for name, t, probes in (("T1", t1, probes1), ("T2", t2, probes2)):
        for x, r_image in probes:
            if _image_of(t, r_image) != x:
                raise NotRegularError(
                    f"{h.name}: {name} candidate inverse failed; map is not invertible")
