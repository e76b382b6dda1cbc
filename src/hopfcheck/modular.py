"""Integrals and the modular apparatus of a validated algebra.

A functional on the algebra is an element of the dual, so an integral is
stored the way every dual element is: its coordinate tuple on the
canonical dual basis, evaluated by duality.pairing_value and composed with
a map M as M.apply_row.  For a finite-dimensional Hopf algebra the space of
left-invariant functionals is exactly one-dimensional; the left integral
here is the basis vector of that nullspace normalized so its first nonzero
coordinate is 1, and the right integral is its composite with the
antipode.  modular_data derives the rest once per algebra, beside the
integrals: it forms and inverts the Gram matrices B of phi and C of
psi = phi o S once each, and reads delta = B^-1 psi, sigma = B^-1 B^T and
sigma' = C^-1 C^T off the inverses, each re-verified against its
defining relations; delta's inverse is S(delta), checked by one product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

from .hopf import (CorruptedDataError, HopfAlgebra, _algebra_map_failure, _product, _sparse,
                   _summed)
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
    """Solution space of the left (right) invariance conditions."""
    n = h.dim
    unit = [(j, -u) for j, u in enumerate(h.unit) if not u.is_zero()]
    # equation (i, j) reads row i * n + j
    if side == "left":
        # sum_k comul[i][j][k] f(e_k) = f(e_i) * unit_j
        terms = (((i * n + j, k), c) for i, ts in enumerate(h.comul_terms) for j, k, c in ts)
    else:
        # sum_j comul[i][j][k] f(e_j) = f(e_i) * unit_k
        terms = (((i * n + k, j), c) for i, ts in enumerate(h.comul_terms) for j, k, c in ts)
    entries = _summed(chain(terms, (((i * n + j, i), u) for i in range(n) for j, u in unit)))
    return nullspace(Matrix._from_entries(h.field, n * n, n, entries))


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
    # group-likeness is a theorem; failure means the input data lied
    if h.coproduct(delta) != h.tensor_product_columns(delta, delta):
        raise CorruptedDataError(f"{h.name}: modular element is not group-like")
    if not h.counit_of(delta).is_one():
        raise CorruptedDataError(f"{h.name}: counit of the modular element is not 1")
    delta_inv = h.antipode.apply(delta)
    if _product(h.mul_terms, _sparse(delta), _sparse(delta_inv)) != _sparse(h.unit):
        raise CorruptedDataError(f"{h.name}: S(delta) is not the inverse of the modular element")
    return tuple(delta), tuple(delta_inv)


def modular_automorphism(h: HopfAlgebra, gram: Matrix, gram_inv: Matrix) -> Matrix:
    """The automorphism rho with functional(a*b) = functional(b * rho(a)).

    Computed in closed form from the Gram matrix B of the functional as
    B^-1 B^T, with gram_inv = B^-1, then re-verified to be a unital
    algebra automorphism.  {a : rho(a x) = rho(a) rho(x) for all x} is
    closed under products by associativity and holds 1 once rho(1) = 1, so
    when validation decided the axioms on the rows of a generating set G
    on the product side, those rows decide multiplicativity; a failure
    there reruns the full scan for its witness.
    """
    h.require_valid()
    rho = gram_inv * gram.transpose()
    if rho.apply(h.unit_column()) != h.unit_column():
        raise CorruptedDataError(f"{h.name}: modular automorphism does not fix 1")
    mt = h.mul_terms
    scan = functools.partial(_algebra_map_failure, mt, list(map(dict, rho.nonzero_columns())),
                             functools.partial(_product, mt))
    gens = h._generating_rows
    failure = None
    if gens is None or scan(gens) is not None:
        failure = scan(range(h.dim))
    if failure is not None:
        raise CorruptedDataError(
            f"{h.name}: modular automorphism is not multiplicative at ({failure[0]},{failure[1]})")
    return rho


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


def modular_data(h: HopfAlgebra) -> ModularData:
    """The full integral apparatus of a validated algebra, solved once per
    algebra: each Gram matrix, of phi and of psi = phi o S, is formed and
    inverted once, and delta, sigma and sigma' are read off the inverses."""
    cached = h._integrals.get("modular")
    if cached is not None:
        return cached
    h.require_valid()
    phi = left_integral(h)
    psi = tuple(h.antipode.apply_row(phi))
    phi_gram, psi_gram = gram_matrix(h, phi), gram_matrix(h, psi)
    phi_gram_inv = gram_inverse(h, phi_gram, "left")
    delta, delta_inv = modular_element(h, psi, phi_gram_inv)
    sigma = modular_automorphism(h, phi_gram, phi_gram_inv)
    psi_gram_inv = gram_inverse(h, psi_gram, "right")
    sigma_prime = modular_automorphism(h, psi_gram, psi_gram_inv)
    tau = scaling_constant(h, phi)
    h._integrals["modular"] = md = ModularData(phi, psi, delta, delta_inv, sigma, sigma_prime,
                                               tau, phi_gram_inv, psi_gram_inv)
    return md
