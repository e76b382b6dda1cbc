"""Integrals and the modular apparatus of a validated algebra.

A functional on the algebra is an element of the dual, so an integral is
stored the way every dual element is: its coordinate tuple on the
canonical dual basis, evaluated by the identity pairing and composed with
a map M as M.apply_row.  For a finite-dimensional Hopf algebra the space of
left-invariant functionals is exactly one-dimensional; the left integral
here is the basis vector of that nullspace normalized so its first nonzero
coordinate is 1, and the right integral is its composite with the
antipode.

Left invariance of f reads x f = x(1) f for every x in the dual, one
equation per basis functional x = e_j* and basis element e_i.  The x that
satisfy it form a subalgebra of the dual that holds the counit: it is a
subspace, and (x y) f = x (y f) = y(1) x f = (x y)(1) f, since evaluation
at the group-like 1 is multiplicative.  So when validation decided the
axioms on the rows of P, a generating set of the dual (hopf module
docstring), the equations of the e_j* with j in P imply all the others:
n |P| rows instead of n^2, with the same solution space, hence the same
reduced echelon form and the same normalized integral.  Right invariance,
f x = x(1) f, likewise.  Without P every row is written.

modular_data derives the rest once per algebra and left integral, beside
the integrals: it forms and inverts the Gram matrices B of phi and C of
psi = phi o S once each, and reads delta = B^-1 psi, sigma = B^-1 B^T and
sigma' = C^-1 C^T off the inverses, each re-verified against its
defining relations; delta's inverse is S(delta), checked by one product.

Each automorphism rho is checked multiplicative on the rows of the
generating set G when validation took one on the product side: those rows
decide, and cost less than any check over the whole table.  A dual that
build_dual makes has the primal's P as its G, since its product is the
primal's transposed coproduct.  Without G (function algebras, and the
duals of algebras that took G), the check runs one output coordinate k at
a time: rho(e_i e_j) and rho(e_i) rho(e_j) at e_k, as two sparse tensors
over (i, j), n comparisons in place of the n^2 pair checks, with the same
scalar products.  The least failing (i, j) over all k is the ordered full
scan's witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

from .hopf import (CorruptedDataError, HopfAlgebra, _algebra_map_failure, _nonzero, _product,
                   _sparse, _summed)
from .linalg import Matrix, SingularMatrixError, invert, nullspace
from .scalars import Scalar


@dataclass(frozen=True)
class ModularData:
    """The tuple attached to a left integral: (phi, psi, delta, sigma,
    sigma', tau), with delta's inverse and the inverse Gram matrices of phi
    and psi carried alongside, so each Gram matrix is inverted once.  phi,
    psi, delta and delta_inv are coordinate tuples of Scalars."""

    phi: tuple
    psi: tuple
    delta: tuple
    delta_inv: tuple
    sigma: Matrix
    sigma_prime: Matrix
    tau: Scalar
    phi_gram_inv: Matrix
    psi_gram_inv: Matrix


def _invariance_nullspace(h: HopfAlgebra, side: str):
    """Solution space of the left (right) invariance conditions, on the
    rows of the dual's generating set P when validation took one (module
    docstring), else on all n^2 rows."""
    n = h.dim
    # equation (i, j) for j in P reads row i * m + at[j]
    at = {j: r for r, j in enumerate(h._dual_generating_rows or range(n))}
    m = len(at)
    unit = [(at[j], -u) for j, u in enumerate(h.unit) if not u.is_zero() and j in at]
    if side == "left":
        # sum_k comul[i][j][k] f(e_k) = f(e_i) * unit_j
        terms = (((i * m + at[j], k), c) for i, ts in enumerate(h.comul_terms)
                 for j, k, c in ts if j in at)
    else:
        # sum_j comul[i][j][k] f(e_j) = f(e_i) * unit_k
        terms = (((i * m + at[k], j), c) for i, ts in enumerate(h.comul_terms)
                 for j, k, c in ts if k in at)
    entries = _summed(chain(terms, (((i * m + r, i), u) for i in range(n) for r, u in unit)))
    return nullspace(Matrix._from_entries(h.field, n * m, n, entries))


def _integral(h: HopfAlgebra, side: str) -> tuple:
    """The (side) integral of h, solved once per algebra."""
    cached = h._integrals.get(side)
    if cached is not None:
        return cached
    h.require_valid()
    basis = _invariance_nullspace(h, side)
    if len(basis) == 0:
        raise CorruptedDataError(
            f"{h.name}: no {side} invariant functional; finite-dimensional "
            "Hopf data always has one, so the input is not what it claims")
    if len(basis) > 1:
        raise CorruptedDataError(
            f"{h.name}: {side} integrals form a {len(basis)}-dimensional space")
    h._integrals[side] = integral = tuple(basis[0])
    return integral


def left_integral(h: HopfAlgebra) -> tuple:
    """The left integral, normalized to first nonzero coordinate 1."""
    return _integral(h, "left")


def right_integral(h: HopfAlgebra) -> tuple:
    """The right integral by the mirrored solve (independent of phi o S)."""
    return _integral(h, "right")


def gram_matrix(h: HopfAlgebra, functional: tuple) -> Matrix:
    """B[i][j] = functional(e_i * e_j); invertible iff the functional is
    faithful."""
    f = _sparse(functional)
    entries = _summed(((i, j), c * f[k]) for i, mt_i in enumerate(h.mul_terms)
                      for j, cell in enumerate(mt_i) for k, c in cell if k in f)
    return Matrix._from_entries(h.field, h.dim, h.dim, entries)


def gram_inverse(h: HopfAlgebra, gram: Matrix, side: str) -> Matrix:
    """The inverse of the Gram matrix of a faithful functional; a singular
    Gram matrix means the (side) functional is not faithful, which is
    corrupted data."""
    try:
        return invert(gram)
    except SingularMatrixError as exc:
        raise CorruptedDataError(
            f"{h.name}: {side} functional is not faithful (singular Gram matrix)") from exc


def modular_element(h: HopfAlgebra, psi: tuple, phi_gram_inv: Matrix):
    """The group-like delta with phi(S(a)) = phi(a * delta), plus its inverse.

    On e_i the relation reads B delta = psi, with B the Gram matrix of phi
    and psi = phi o S, so delta = B^-1 psi.  A group-like's inverse is its
    antipode: S(delta) is checked by delta * S(delta) = 1, which in finite
    dimension makes it the two-sided inverse.
    """
    h.require_valid()
    delta = phi_gram_inv.apply(psi)
    d = _sparse(delta)
    # group-likeness is a theorem; failure means the input data lied
    if (_summed(((j, k), x * c) for i, x in d.items() for j, k, c in h.comul_terms[i])
            != {(i, j): x * y for i, x in d.items() for j, y in d.items()}):
        raise CorruptedDataError(f"{h.name}: modular element is not group-like")
    if _summed((0, x * h.counit[i]) for i, x in d.items()
               if not h.counit[i].is_zero()) != {0: h.field.one()}:
        raise CorruptedDataError(f"{h.name}: counit of the modular element is not 1")
    delta_inv = h.antipode.apply(delta)
    if _product(h.mul_terms, d, _sparse(delta_inv)) != _sparse(h.unit):
        raise CorruptedDataError(f"{h.name}: S(delta) is not the inverse of the modular element")
    return tuple(delta), tuple(delta_inv)


def modular_automorphism(h: HopfAlgebra, gram: Matrix, gram_inv: Matrix) -> Matrix:
    """The automorphism rho with functional(a*b) = functional(b * rho(a)).

    Computed in closed form from the Gram matrix B of the functional as
    B^-1 B^T, with gram_inv = B^-1, then re-verified to be a unital
    algebra automorphism.  {a : rho(a x) = rho(a) rho(x) for all x} is
    closed under products by associativity and holds 1 once rho(1) = 1, so
    when validation decided the axioms on the rows of a generating set G
    on the product side, those rows decide multiplicativity.  Without G
    (function algebras, and the duals of algebras that took G: build_dual
    hands a dual the primal's P as its G), or when G's rows find a
    failure, _multiplicativity_failure compares both sides one output
    coordinate at a time and names the failure the ordered full scan
    would.  G's rows stay where G exists: they cost less than the n
    comparisons.
    """
    h.require_valid()
    rho = gram_inv * gram.transpose()
    if rho.apply(h.unit) != list(h.unit):
        raise CorruptedDataError(f"{h.name}: modular automorphism does not fix 1")
    mt = h.mul_terms
    gens = h._generating_rows
    failure = None
    if gens is None or _algebra_map_failure(mt, list(map(dict, rho.nonzero_columns())),
                                            functools.partial(_product, mt), gens) is not None:
        failure = _multiplicativity_failure(mt, rho)
    if failure is not None:
        raise CorruptedDataError(
            f"{h.name}: modular automorphism is not multiplicative at ({failure[0]},{failure[1]})")
    return rho


def _multiplicativity_failure(mt, rho: Matrix):
    """The least (i, j) with rho(e_i e_j) != rho(e_i) rho(e_j) under the
    product table mt, None when there is none: the witness of the ordered
    full scan _algebra_map_failure over range(n).  For each output
    coordinate k it compares two sparse tensors over (i, j), keyed i*n + j,
    sum_m rho[k][m] mt[i][j][m] and sum_(p,q) mt[p][q][k] rho[p][i] rho[q][j],
    so n comparisons replace the n^2 pair checks, with the same products."""
    n = len(mt)
    rows = rho.nonzero_rows()
    # into[m] lists (i*n + j, c) for the coefficient c of e_m in e_i e_j;
    # out_of[k] lists (p, q, c) likewise; row_keys[p] lists (i*n, rho[p][i])
    into, out_of = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, row in enumerate(mt):
        for j, cell in enumerate(row):
            for k, c in cell:
                into[k].append((i * n + j, c))
                out_of[k].append((i, j, c))
    row_keys = [tuple((i * n, x) for i, x in row) for row in rows]
    failure = None
    for k in range(n):
        lhs = {}
        for m, x in rows[k]:
            for key, c in into[m]:
                prev = lhs.get(key)
                lhs[key] = c * x if prev is None else prev + c * x
        rhs = {}
        for p, q, e in out_of[k]:
            right = rows[q]
            for base, c in row_keys[p]:
                for j, d in right:
                    key = base + j
                    prev = rhs.get(key)
                    rhs[key] = c * d * e if prev is None else prev + c * d * e
        lhs, rhs = _nonzero(lhs), _nonzero(rhs)
        if lhs != rhs:
            least = min(key for key in lhs.keys() | rhs.keys() if lhs.get(key) != rhs.get(key))
            failure = least if failure is None else min(failure, least)
    return None if failure is None else divmod(failure, n)


def proportionality(reference, candidate):
    """The nonzero scalar c with candidate == c * reference coordinate by
    coordinate, or None when there is none."""
    c = next((x / r for r, x in zip(reference, candidate) if not r.is_zero()), None)
    if c is None or c.is_zero() or any(x != c * r for r, x in zip(reference, candidate)):
        return None
    return c


def scaling_constant(h: HopfAlgebra, phi: tuple) -> Scalar:
    """The scalar tau with phi(S^2(a)) = tau * phi(a) for every a.

    phi o S^2 is again left invariant, hence a multiple of phi; the
    proportionality is asserted coordinate by coordinate.
    """
    h.require_valid()
    tau = proportionality(phi, h.antipode.pow(2).apply_row(phi))
    if tau is None:
        raise CorruptedDataError(
            f"{h.name}: phi o S^2 is not proportional to phi; integral data corrupt")
    return tau


def modular_data(h: HopfAlgebra, phi: tuple | None = None) -> ModularData:
    """The tuple of the left integral phi (the solved one by default) of a
    validated algebra, once per algebra and integral: each Gram matrix, of
    phi and of psi = phi o S, is formed and inverted once, and delta,
    sigma and sigma' are read off the inverses."""
    if phi is None:
        phi = left_integral(h)
    cached = h._integrals.get(phi)
    if cached is not None:
        return cached
    h.require_valid()
    psi = tuple(h.antipode.apply_row(phi))
    phi_gram, psi_gram = gram_matrix(h, phi), gram_matrix(h, psi)
    phi_gram_inv = gram_inverse(h, phi_gram, "left")
    delta, delta_inv = modular_element(h, psi, phi_gram_inv)
    sigma = modular_automorphism(h, phi_gram, phi_gram_inv)
    psi_gram_inv = gram_inverse(h, psi_gram, "right")
    sigma_prime = modular_automorphism(h, psi_gram, psi_gram_inv)
    tau = scaling_constant(h, phi)
    h._integrals[phi] = md = ModularData(phi, psi, delta, delta_inv, sigma, sigma_prime,
                                         tau, phi_gram_inv, psi_gram_inv)
    return md
