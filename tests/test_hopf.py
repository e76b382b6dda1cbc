import pytest

from hopfcheck.catalog import (build_function_algebra, build_group_algebra,
                               build_nongroup_monoid_bialgebra, build_sweedler,
                               cyclic_group, symmetric_group)
from hopfcheck.hopf import (HopfAlgebra, NoAntipodeError, NotRegularError, convolve,
                            compute_antipode, galois_maps, is_cocommutative,
                            is_commutative, unit_counit_map)
from hopfcheck.linalg import Matrix, Tensor3, determinant, invert
from hopfcheck.scalars import RATIONAL

F = RATIONAL


def without_antipode(h):
    return HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                       None, name=h.name)


def test_z2_group_algebra_all_axioms_pass():
    h = build_group_algebra(cyclic_group(2), "z2")
    report = h.validate()
    assert report.ok
    assert {c.check for c in report.checks} == {
        "associativity", "unit", "coassociativity", "counit",
        "coproduct-homomorphism", "counit-homomorphism",
        "antipode-left", "antipode-right", "antipode-invertible",
    }


def test_zeroed_antipode_fails_only_antipode_laws():
    h = build_group_algebra(cyclic_group(2), "z2")
    broken = HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                         Matrix.zero(F, 2, 2), name="z2-broken")
    report = broken.validate()
    failed = {c.check for c in report.failures()}
    assert failed == {"antipode-left", "antipode-right", "antipode-invertible"}


def test_sweedler_matches_classical_presentation():
    # oracle: the table contracted by hand from g^2=1, x^2=0, xg=-gx,
    # coproduct(g)=g(x)g, coproduct(x)=x(x)1+g(x)x; basis order (1, x, g, g*x)
    h = build_sweedler()
    assert h.basis_names == ("1", "x", "g", "g*x")
    mul_expected = {}
    for j in range(4):
        mul_expected[(0, j, j)] = 1
        if j:
            mul_expected[(j, 0, j)] = 1
    mul_expected.update({(1, 2, 3): -1, (2, 1, 3): 1, (2, 2, 0): 1,
                         (2, 3, 1): 1, (3, 2, 1): -1})
    assert h.mul == Tensor3.from_dict(F, 4, mul_expected)
    comul_expected = {(0, 0, 0): 1, (1, 1, 0): 1, (1, 2, 1): 1,
                      (2, 2, 2): 1, (3, 3, 2): 1, (3, 0, 3): 1}
    assert h.comul == Tensor3.from_dict(F, 4, comul_expected)
    assert [int(c.coeffs[0]) for c in h.counit] == [1, 0, 1, 0]
    s_expected = Matrix(F, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0]])
    assert h.antipode == s_expected
    assert h.validate().ok


def test_convolution_identities():
    h = build_sweedler()
    e = unit_counit_map(h)
    ident = Matrix.identity(F, 4)
    assert convolve(e, h.antipode, h) == h.antipode
    assert convolve(h.antipode, ident, h) == e
    assert convolve(ident, h.antipode, h) == e


def test_convolution_of_identity_squares_group_likes():
    z2 = build_group_algebra(cyclic_group(2), "z2")
    sq = convolve(Matrix.identity(F, 2), Matrix.identity(F, 2), z2)
    assert sq == Matrix(F, [[1, 1], [0, 0]])


def test_compute_antipode_group_algebra_is_inversion():
    g = symmetric_group(3)
    h = build_group_algebra(g, "s3")
    s = compute_antipode(without_antipode(h))
    assert s == h.antipode
    for j in range(6):
        col = s.column(j)
        assert col[g.inverse(j)].is_one()
        assert sum(1 for x in col if not x.is_zero()) == 1


def test_compute_antipode_function_algebra_flips_points():
    # the coproduct of functions on a group is f -> ((p,q) -> f(pq)),
    # which forces the antipode f -> (p -> f(p^-1))
    g = symmetric_group(3)
    h = build_function_algebra(g, "k-s3")
    s = compute_antipode(without_antipode(h))
    assert s == h.antipode
    for j in range(6):
        assert s.column(j)[g.inverse(j)].is_one()


def test_compute_antipode_sweedler_closed_form():
    h = build_sweedler()
    s = compute_antipode(without_antipode(h))
    assert s == h.antipode
    # S(x) = -g*x and S(g*x) = x
    assert h.format_element(s.column(1)) == "(-1)*g*x"
    assert h.format_element(s.column(3)) == "x"


def test_compute_antipode_rejects_nongroup_monoid():
    m = build_nongroup_monoid_bialgebra()
    bialgebra = [c for c in m.validate().checks if not c.check.startswith("antipode")]
    assert all(c.passed for c in bialgebra)
    with pytest.raises(NoAntipodeError):
        compute_antipode(m)


def test_galois_maps_invertible_and_inverse_exact():
    for h in (build_group_algebra(cyclic_group(2), "z2"), build_sweedler()):
        gm = galois_maps(h)
        n2 = h.dim * h.dim
        ident = Matrix.identity(h.field, n2)
        assert gm.t1 * gm.t1_inv == ident and gm.t1_inv * gm.t1 == ident
        assert gm.t2 * gm.t2_inv == ident and gm.t2_inv * gm.t2 == ident


def test_galois_determinant_nonzero_on_sweedler():
    gm = galois_maps(build_sweedler())
    assert not determinant(gm.t1).is_zero()
    assert not determinant(gm.t2).is_zero()


def test_galois_singular_without_antipode():
    with pytest.raises(NotRegularError):
        galois_maps(build_nongroup_monoid_bialgebra())


def test_antipode_is_algebra_antihomomorphism(algebras):
    for h in algebras.values():
        s = h.antipode
        assert s.apply(h.unit_column()) == h.unit_column()
        for i in range(h.dim):
            for j in range(h.dim):
                lhs = s.apply(h.multiply(h.basis_column(i), h.basis_column(j)))
                rhs = h.multiply(s.column(j), s.column(i))
                assert lhs == rhs


def test_antipode_is_coalgebra_antihomomorphism(algebras):
    # coproduct(S(a)) = sum S(a_(2)) (x) S(a_(1))
    for h in algebras.values():
        s = h.antipode
        for i in range(h.dim):
            rhs = {}
            for j, k, c in h.comul_terms[i]:
                for (a, ca) in enumerate(s.column(k)):
                    if ca.is_zero():
                        continue
                    for (b, cb) in enumerate(s.column(j)):
                        if cb.is_zero():
                            continue
                        key = (a, b)
                        rhs[key] = rhs.get(key, h.field.zero()) + c * ca * cb
            rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
            assert h.coproduct(s.column(i)) == rhs


def test_counit_of_antipode_is_counit(algebras):
    for h in algebras.values():
        composed = h.antipode.apply_row(list(h.counit))
        assert composed == list(h.counit)


def test_coproduct_of_antipode_square(algebras):
    for h in algebras.values():
        s2 = h.antipode.pow(2)
        for i in range(h.dim):
            lhs = h.coproduct(s2.column(i))
            rhs = {}
            for j, k, c in h.comul_terms[i]:
                for a, ca in enumerate(s2.column(j)):
                    if ca.is_zero():
                        continue
                    for b, cb in enumerate(s2.column(k)):
                        if not cb.is_zero():
                            key = (a, b)
                            rhs[key] = rhs.get(key, h.field.zero()) + c * ca * cb
            assert lhs == {k: v for k, v in rhs.items() if not v.is_zero()}


def test_convolution_antipode_equals_stored(algebras):
    for h in algebras.values():
        assert compute_antipode(without_antipode(h)) == h.antipode
        assert invert(h.antipode) * h.antipode == Matrix.identity(h.field, h.dim)


def test_commutativity_predicates():
    assert is_commutative(build_function_algebra(symmetric_group(3)))
    assert not is_commutative(build_group_algebra(symmetric_group(3)))
    assert is_cocommutative(build_group_algebra(symmetric_group(3)))
    assert not is_cocommutative(build_function_algebra(symmetric_group(3)))
    assert not is_cocommutative(build_sweedler())


def test_shape_mismatch_is_construction_error():
    h = build_sweedler()
    with pytest.raises(ValueError):
        HopfAlgebra(h.field, h.basis_names[:3], h.mul, h.unit, h.comul, h.counit, h.antipode)
    with pytest.raises(ValueError):
        HopfAlgebra(h.field, h.basis_names, h.mul, h.unit[:2], h.comul, h.counit, h.antipode)
    with pytest.raises(ValueError):
        HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                    Matrix.identity(F, 3))
