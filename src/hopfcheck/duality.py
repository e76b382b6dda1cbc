"""The dual algebra, the canonical pairing, the four actions, and the dual
integrals with their normalization cross-checks.

The dual basis is the canonical dual of the primal basis, so the pairing
matrix is the identity and all content lives in the structure constants:
the dual product is the transposed coproduct, the dual coproduct the
transposed product, the dual antipode the transposed antipode.

Conventions (the ones under which the hand-checked witnesses come out
right, and the only self-consistent choice here):
  pairing of a product in the dual:   <a, y*y'> = sum <a_(1), y><a_(2), y'>
  dual acts on the algebra:           y -> a = sum a_(1) <a_(2), y>
                                      a <- y = sum <a_(1), y> a_(2)
  algebra acts on the dual:           a -> y = sum y_(1) <a, y_(2)>
                                      y <- a = sum <a, y_(1)> y_(2)

On basis elements the actions are the coproduct re-indexed: a term
(p, q, c) of the coproduct of e_i gives e_q* -> e_i = c e_p and
e_i <- e_p* = c e_q.  The algebra acts on the dual by the same two formulas
read off the dual's coproduct, which is the transposed product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hopf import (CheckResult, CorruptedDataError, HopfAlgebra, ValidationReport,
                   _product_table, _product_triples, _summed)
from .linalg import Matrix, invert
from .modular import (ModularData, left_integral, modular_data, proportionality,
                      right_integral)


def dual_structure(h: HopfAlgebra):
    """(mul_terms, unit, comul_terms, counit, antipode) of the dual on the
    canonical dual basis, as HopfAlgebra keeps them: h's tables transposed
    (h.dual_tables(), which validation's P side may have transposed
    already), unit and counit swapped, the antipode transposed.  An
    involution, so applied to the dual it gives back h's own."""
    mul_hat, comul_hat = h.dual_tables()
    return mul_hat, h.counit, comul_hat, h.unit, h.antipode.transpose()


def build_dual(h: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the canonical dual basis, for a valid h,
    built from dual_structure(h) as it stands.

    The dual is not validated again: under the transposition each of its
    axioms is one of h's, with the indices renamed, and h has just been
    validated (hats mark the dual's maps):
      associativity            <-> coassociativity
      unit                     <-> counit
      coproduct-homomorphism   <-> itself, where coproduct_hat(1_hat) =
                                   1_hat (x) 1_hat <-> counit(ab) =
                                   counit(a) counit(b)
      counit-homomorphism      <-> coproduct(1) = 1 (x) 1 and counit(1) = 1
      antipode-left, -right    <-> each itself
      antipode-invertible      <-> itself: S_hat^-1 = (S^-1)^T
    So the dual is handed h's report under its own name, and the transpose
    of h's antipode inverse.  The dual of the dual is h on the same
    indices, so h's G, when validation took one, is the dual's P: a
    generating set of the dual of the dual, whose rows decide the dual's
    integrals (modular._invariance_nullspace).  Likewise h's P, a
    generating set of the dual's product with the counit as its unit, is
    the dual's G, whose rows decide whether its modular automorphisms are
    multiplicative.  A dual read back from a file is validated from
    scratch.
    """
    h.require_valid()
    name = f"dual({h.name})"
    report = ValidationReport(tuple(CheckResult(c.check, name, True) for c in h.validate().checks))
    return HopfAlgebra._from_tables(
        h.field, tuple(f"{b}*" for b in h.basis_names), *dual_structure(h), name,
        bialgebra=report.checks[:len(h.bialgebra_checks())], validation=report,
        antipode_inverse=h.antipode_inverse().transpose(),
        generating_rows=h._dual_generating_rows, dual_generating_rows=h._generating_rows)


@dataclass(frozen=True, eq=False)
class Side:
    """One algebra of a pair with its modular tuple, and every table read on
    it, each made once through made() under a key that names what it
    holds.  A pair and its swapped() hold the same two sides, so a table
    is shared by both views of the algebra it was read from.  Every value
    is exact and deterministic, so sharing one is the same as recomputing
    it; every reader shares it, so none may change it."""

    algebra: HopfAlgebra
    modular: ModularData
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def made(self, key, make):
        """The table under key, made by make() on its first read."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = make()
        return table

    def operator(self, name: str) -> Matrix:
        """The matrix of S, Sinv, S2, Sinv2, sigma, sigmainv, sigmap or
        sigmapinv on this algebra."""
        alg, md = self.algebra, self.modular
        make = {"S": lambda: alg.antipode, "Sinv": alg.antipode_inverse,
                "S2": lambda: self.operator("S").pow(2),
                "Sinv2": lambda: self.operator("Sinv").pow(2),
                "sigma": lambda: md.sigma, "sigmainv": lambda: invert(md.sigma),
                "sigmap": lambda: md.sigma_prime,
                "sigmapinv": lambda: invert(md.sigma_prime)}.get(name)
        if make is None:
            raise KeyError(f"unknown operator {name!r}")
        return self.made(name, make)

    def columns(self, fn: str):
        """Per basis element, the nonzero (row, value) entries of the
        operator fn on it, or of the functional eps, phi or psi, whose
        output row is 0."""
        def make():
            if fn not in ("eps", "phi", "psi"):
                return self.operator(fn).nonzero_columns()
            row = self.algebra.counit if fn == "eps" else getattr(self.modular, fn)
            return [((0, x),) if not x.is_zero() else () for x in row]
        return self.made(("columns", fn), make)

    def composed_table(self, fn: str):
        """The product table of this algebra followed by the operator or
        functional fn, laid out like HopfAlgebra.mul_terms."""
        def make():
            columns = self.columns(fn)
            triples = _summed(((i, j, r), c * v)
                              for (i, j, k), c in _product_triples(self.algebra.mul_terms)
                              for r, v in columns[k])
            return _product_table(self.algebra.dim, triples.items())
        return self.made(("composed", fn), make)

    def action_table(self, direction: str):
        """The table of the other algebra acting on this one from the
        direction "left" or "right", on basis elements: table[i][j] lists
        the nonzero (k, c) of the action, in argument order, laid out like
        HopfAlgebra.mul_terms.  It re-indexes this algebra's coproduct (see
        the module docstring): on the primal it is lacthat or racthat, on
        the dual lact or ract."""
        def make():
            # the coproduct term (i, p, q) is the cell (q, i) -> p of the left
            # action and (i, p) -> q of the right one; the stored coproduct
            # is in index order, so each cell comes out in index order
            alg = self.algebra
            triples = ((((q, i, p) if direction == "left" else (i, p, q)), c)
                       for i, terms in enumerate(alg.comul_terms) for p, q, c in terms)
            return _product_table(alg.dim, triples)
        return self.made(("action", direction), make)

    def iterated_coproduct(self, legs: int):
        """Per basis element e_i, the (coefficient, index tuple) terms of its
        (legs - 1)-fold coproduct, built from the (legs - 2)-fold one by
        expanding the last leg; legs == 1 is e_i itself."""
        def make():
            alg = self.algebra
            if legs == 1:
                return tuple(((alg.field.one(), (i,)),) for i in range(alg.dim))
            ct = alg.comul_terms
            return tuple(tuple((c, idxs) for idxs, c in _summed(
                (idxs[:-1] + (j, k), coeff * c) for coeff, idxs in terms
                for j, k, c in ct[idxs[-1]]).items())
                for terms in self.iterated_coproduct(legs - 1))
        return self.made(("iterated coproduct", legs), make)


@dataclass(frozen=True, eq=False)
class PairedSystem:
    """An algebra, its dual, and both modular tuples, under the identity
    pairing of the canonical dual basis.

    The system holds two sides, the primal's and the dual's, which own the
    tables read on each algebra; identities.decision decides each statement
    once per system, and swapped() is the same pair seen from the dual,
    built once and linked back, so it is an involution, holding the same
    two sides in reverse order.
    """

    primal: HopfAlgebra
    dual: HopfAlgebra
    primal_modular: ModularData
    dual_modular: ModularData
    # the sides of sort A and Ahat
    _sides: tuple = field(init=False, repr=False)
    # the plan of an identity program -> (passed, witness), kept per
    # system: on swapped() the same plan reads the other algebra
    _decided: dict = field(default_factory=dict, init=False, repr=False)
    _swapped: "PairedSystem | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_sides", (Side(self.primal, self.primal_modular),
                                            Side(self.dual, self.dual_modular)))

    def side(self, sort: str) -> Side:
        """The primal's side for sort "A", the dual's for "Ahat"."""
        return self._sides[sort != "A"]

    def algebra(self, sort: str) -> HopfAlgebra:
        """The primal for sort "A", the dual for "Ahat"."""
        return self.side(sort).algebra

    def modular(self, sort: str) -> ModularData:
        return self.side(sort).modular

    def swapped(self) -> "PairedSystem":
        """The system seen from the dual side: the dual becomes the primal
        and the primal itself (canonically the bidual) becomes its dual,
        with its own modular tuple, once dual_integrals finds its phi on the
        bidual side.  It holds this system's two sides in reverse order.
        Built once and linked back: swapped().swapped() is self."""
        if self._swapped is None:
            bidual = dual_integrals(self.dual, self.primal, self.dual_modular)
            if bidual.phi != self.primal_modular.phi:
                raise CorruptedDataError(
                    f"{self.primal.name}: the bidual's left integral is not the primal's own")
            swapped = PairedSystem(self.dual, self.primal, self.dual_modular, self.primal_modular)
            object.__setattr__(swapped, "_sides", self._sides[::-1])
            object.__setattr__(swapped, "_swapped", self)
            object.__setattr__(self, "_swapped", swapped)
        return self._swapped


def dual_integrals(h: HopfAlgebra, dual: HopfAlgebra, md: ModularData) -> ModularData:
    """Integrals and modular data of the dual, built from the defining
    normalizations and cross-checked against independent solves.

      psi_hat(w) = counit(a)  when w = phi(. a)
      phi_hat(w) = counit(a)  when w = psi(a .)

    Each formula is compared against the generic nullspace integral of the
    dual (up to a scalar), psi_hat must equal phi_hat o S exactly, and the
    modular element of the dual must agree with the pairing formula
    <a, delta_hat> = counit(sigma^-1(a)).  Any mismatch is a convention bug
    and fails hard.

    The rest is modular_data(dual, phi_hat), derived once per algebra and
    integral.  On the bidual side dual is the primal and phi_hat its own
    phi (swapped() checks that), so the tuple is the primal's, already
    derived.
    """
    counit_row = list(h.counit)

    # the Gram matrix of phi sends column a to the row coords of phi(. a),
    # its transpose for psi sends a to the coords of psi(a .)
    psi_hat = tuple(md.phi_gram_inv.apply_row(counit_row))
    phi_hat = tuple(md.psi_gram_inv.apply(counit_row))

    if tuple(dual.antipode.apply_row(phi_hat)) != psi_hat:
        raise CorruptedDataError(
            f"{dual.name}: psi_hat does not equal phi_hat o S; conventions are broken")

    if proportionality(right_integral(dual), psi_hat) is None:
        raise CorruptedDataError(
            f"{dual.name}: formula right integral disagrees with the invariance solve")
    if proportionality(left_integral(dual), phi_hat) is None:
        raise CorruptedDataError(
            f"{dual.name}: formula left integral disagrees with the invariance solve")

    out = modular_data(dual, phi_hat)

    # <a, delta_hat> = counit(sigma^-1(a)) for all a, checked without the
    # inverse as <sigma(a), delta_hat> = counit(a)
    if md.sigma.apply_row(out.delta) != counit_row:
        raise CorruptedDataError(
            f"{dual.name}: modular element of the dual disagrees with the "
            "counit-of-sigma-inverse pairing formula")
    return out


def pair_system(h: HopfAlgebra) -> PairedSystem:
    """Validate, dualize, and compute modular data on both sides."""
    h.require_valid()
    dual = build_dual(h)
    md = modular_data(h)
    dual_md = dual_integrals(h, dual, md)
    return PairedSystem(h, dual, md, dual_md)
