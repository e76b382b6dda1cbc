"""Basis-change invariance: the modular data of an algebra written in another
basis, against the data of the algebra in its own basis.

Every builtin is written in a monomial or group basis, where the structure
constants are sparse.  Transported along an invertible integer matrix P
(m'(a, b) = P^-1 m(P a, P b), the coproduct, unit and counit likewise,
S' = P^-1 S P), the same algebra has dense structure constants, and every
result must follow P: the checks still pass, tau is unchanged,
delta' = P^-1 delta, sigma' = P^-1 sigma P, phi' is a multiple of phi P,
and every order is unchanged.  The oracle is the untransported run.

P is either upper unitriangular, which keeps the unit e_0 on e_0, or a
product U L with L lower unitriangular, which makes the unit and the
counit dense as well."""

import random

import pytest

from hopfcheck.catalog import BUILTIN_BUILDERS, builtin
from hopfcheck.cli import matrix_order
from hopfcheck.duality import pair_system
from hopfcheck.hopf import galois_maps
from hopfcheck.linalg import Matrix, invert
from hopfcheck.modular import proportionality

from test_hopf import _transported, _unitriangular

SMALL = [name for name in BUILTIN_BUILDERS if builtin(name).dim <= 9]


def _gauges(source):
    """Two distinct upper unitriangular matrices other than the identity,
    drawn from a generator seeded by the algebra's name, then one U L (a
    third upper U times a lower unitriangular L) drawn from its own
    generator: the first draw under which neither the unit P^-1 1 nor the
    counit counit P is a multiple of a single basis vector or row."""
    rng, gauges = random.Random(f"gauge:{source.name}"), []
    while len(gauges) < 2:
        p = _unitriangular(source.field, source.dim, rng)
        if p != Matrix.identity(source.field, source.dim) and p not in gauges:
            gauges.append(p)
    rng = random.Random(f"gauge-lu:{source.name}")
    while True:
        p = (_unitriangular(source.field, source.dim, rng)
             * _lower_unitriangular(source.field, source.dim, rng))
        if (_nonzeros(invert(p).apply(list(source.unit))) > 1
                and _nonzeros(p.apply_row(list(source.counit))) > 1):
            return gauges + [p]


def _lower_unitriangular(field, n, rng):
    """A lower unitriangular integer matrix, entries below the diagonal in
    [-2, 2]."""
    return Matrix(field, [[1 if i == j else rng.randint(-2, 2) if i > j else 0
                           for j in range(n)] for i in range(n)])


def _nonzeros(coords):
    return sum(not x.is_zero() for x in coords)


@pytest.mark.parametrize("name", SMALL)
def test_modular_data_follow_a_change_of_basis(name):
    source = builtin(name)
    system = pair_system(source)
    md = system.primal_modular
    for k, p in enumerate(_gauges(source)):
        q = invert(p)
        h = _transported(source, p, f"{name}-gauge{k}")
        assert h.validate().ok, h.name
        galois_maps(h)
        moved = pair_system(h)
        md2 = moved.primal_modular
        assert md2.tau == md.tau, h.name
        assert moved.dual_modular.tau == system.dual_modular.tau, h.name
        assert tuple(md2.delta) == tuple(q.apply(list(md.delta))), h.name
        assert md2.sigma == q * md.sigma * p, h.name
        assert md2.sigma_prime == q * md.sigma_prime * p, h.name
        assert proportionality(p.apply_row(md.phi), md2.phi) is not None, h.name
        assert matrix_order(h.antipode) == matrix_order(source.antipode), h.name
        assert matrix_order(md2.sigma) == matrix_order(md.sigma), h.name
        assert matrix_order(md2.sigma_prime) == matrix_order(md.sigma_prime), h.name
