import functools
import random
import tracemalloc

import pytest

from hopfcheck import hopf
from hopfcheck.catalog import (BUILTIN_BUILDERS, algebra_from_json, algebra_to_json,
                               build_function_algebra, build_group_algebra,
                               build_nongroup_monoid_bialgebra, build_sweedler, build_taft,
                               builtin, cyclic_group, symmetric_group)
from hopfcheck.duality import build_dual
from hopfcheck.hopf import (ANTIPODE_DIM_LIMIT, AntipodeTooLargeError, CheckResult,
                            HopfAlgebra, InvalidHopfAlgebraError, NoAntipodeError,
                            NotRegularError, compute_antipode, galois_maps)
from hopfcheck.linalg import Matrix, SingularMatrixError, Tensor3, invert
from hopfcheck.scalars import RATIONAL, cyclotomic_field

from conftest import (basis_column, coproduct, is_cocommutative, is_commutative, multiply,
                      pairing_value, tensor_product)
from test_tooling import BENCH, _load

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
    # T o R and R o T fix every basis tensor, for both Galois maps
    for h in (build_group_algebra(cyclic_group(2), "z2"), build_sweedler()):
        galois_maps(h)
        t1, t2, r1, r2 = _dense_galois_matrices(h)
        n2 = h.dim * h.dim
        for t, r in ((t1, r1), (t2, r2)):
            for col in range(n2):
                e = [F.one() if row == col else F.zero() for row in range(n2)]
                assert t.apply(r.apply(e)) == e and r.apply(t.apply(e)) == e


def test_galois_determinant_nonzero_on_sweedler():
    # the maps are invertible, and galois_maps passes; the same structure
    # without its antipode fails validation, so galois_maps refuses it
    h = build_sweedler()
    galois_maps(h)
    with pytest.raises(InvalidHopfAlgebraError):
        galois_maps(without_antipode(h))
    t1, t2, _, _ = _dense_galois_matrices(h)
    invert(t1)
    invert(t2)


def test_galois_singular_without_antipode():
    # the idempotent monoid has no antipode, and its T1 and T2 are singular
    # (Larson-Sweedler); galois_maps refuses it as invalid
    h = build_nongroup_monoid_bialgebra()
    for image in (_t1_image, _t2_image):
        with pytest.raises(SingularMatrixError):
            invert(_tensor_map_matrix(h, functools.partial(image, h)))
    with pytest.raises(InvalidHopfAlgebraError) as exc:
        galois_maps(h)
    assert str(exc.value) == ("idempotent-monoid: axiom failures: "
                              "antipode-left, antipode-right, antipode-invertible")


def _reported_nonassociative(h):
    """A copy of h whose cached bialgebra checks report associativity as
    failed, so that galois_maps refuses it."""
    copy = HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                       h.antipode, name=h.name)
    failed = CheckResult("associativity", h.name, False, "reported")
    object.__setattr__(copy, "_bialgebra", (failed,) + h.bialgebra_checks()[1:])
    return copy


@pytest.mark.parametrize("name", ["functions-s3", "taft-3", "taft-5", "dual(taft-4)"])
def test_galois_composes_n_probes_per_map_on_a_valid_algebra(monkeypatch, name):
    # with associativity and the unit law, T1 o R1 is checked on each e_i (x) 1
    # and T2 o R2 on each 1 (x) e_j: n compositions per map.  The R image of
    # each probe is formed directly, so one _image_of call (the T image)
    # per composition.  The same algebra reported nonassociative is refused
    # before any image is formed.  The unit of functions-s3 and of the dual
    # is not a basis vector.
    if name == "taft-5":
        h = build_taft(5)
    elif name == "dual(taft-4)":
        h = build_dual(builtin("taft-4"))
    else:
        h = builtin(name)
    assert h.validate().ok
    calls = []
    image_of = hopf._image_of

    def counted_image_of(image, x):
        calls.append(x)
        return image_of(image, x)

    monkeypatch.setattr(hopf, "_image_of", counted_image_of)
    galois_maps(h)
    # two maps, one _image_of call per composition
    assert len(calls) == 2 * h.dim
    calls.clear()
    with pytest.raises(InvalidHopfAlgebraError):
        galois_maps(_reported_nonassociative(h))
    assert calls == []


def test_identity_antipode_on_taft3_still_fails_t1():
    # the identity is no antipode of taft-3: the R1 it gives is no inverse
    # of T1 in the dense reference, and validation, which galois_maps
    # requires, fails the antipode laws
    h = builtin("taft-3")
    wrong = HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                        Matrix.identity(h.field, h.dim), name=h.name)
    assert all(c.passed for c in wrong.bialgebra_checks())
    assert _dense_galois(wrong) == "taft-3: T1 candidate inverse failed; map is not invertible"
    with pytest.raises(InvalidHopfAlgebraError) as exc:
        galois_maps(wrong)
    assert str(exc.value) == "taft-3: axiom failures: antipode-left, antipode-right"


def test_antipode_is_algebra_antihomomorphism(algebras):
    for h in algebras.values():
        s = h.antipode
        assert s.apply(list(h.unit)) == list(h.unit)
        for i in range(h.dim):
            for j in range(h.dim):
                lhs = s.apply(multiply(h, basis_column(h, i), basis_column(h, j)))
                rhs = multiply(h, s.column(j), s.column(i))
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
            assert coproduct(h, s.column(i)) == rhs


def test_counit_of_antipode_is_counit(algebras):
    for h in algebras.values():
        composed = h.antipode.apply_row(list(h.counit))
        assert composed == list(h.counit)


def test_coproduct_of_antipode_square(algebras):
    for h in algebras.values():
        s2 = h.antipode.pow(2)
        for i in range(h.dim):
            lhs = coproduct(h, s2.column(i))
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


def test_antipode_over_another_field_is_a_construction_error():
    # caught when the algebra is built, not inside a kernel during validation
    h = build_sweedler()
    other = Matrix.identity(cyclotomic_field(3), h.dim)
    with pytest.raises(ValueError, match="antipode matrix uses a different field"):
        HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit, other)
    with pytest.raises(ValueError, match="antipode matrix uses a different field"):
        without_antipode(h).with_antipode(other)


def test_no_algebra_slot_holds_a_tensor3():
    # the structure constants are kept once, as the tables grouped by input;
    # mul and comul are Tensor3s rebuilt from them on each read
    sweedler = build_sweedler()
    algebras = [builtin(name) for name in BUILTIN_BUILDERS] + [
        build_dual(builtin("taft-3")), without_antipode(sweedler).with_antipode(sweedler.antipode),
        algebra_from_json(algebra_to_json(builtin("functions-s3")))]
    for h in algebras:
        for slot in HopfAlgebra.__slots__:
            assert not isinstance(getattr(h, slot), Tensor3), (h.name, slot)
        assert isinstance(h.mul, Tensor3) and isinstance(h.comul, Tensor3)
        assert HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                           h.antipode).mul_terms == h.mul_terms


def test_compute_antipode_refuses_large_dimension_before_building():
    n = ANTIPODE_DIM_LIMIT + 1
    h = without_antipode(build_group_algebra(cyclic_group(n), "big"))
    with pytest.raises(AntipodeTooLargeError) as err:
        compute_antipode(h)
    assert f"dim {n}" in str(err.value) and str(ANTIPODE_DIM_LIMIT) in str(err.value)


def test_antipode_synthesis_at_the_limit_stays_small():
    # taft-8 has dim 64 = ANTIPODE_DIM_LIMIT: a 4096 x 4096 system with
    # 13,056 nonzero entries, which a dense copy would hold in 16.7 M slots
    taft = build_taft(8)
    bare = without_antipode(taft)
    tracemalloc.start()
    try:
        s = compute_antipode(bare)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s == taft.antipode
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# dense reference: the checks as they were written before the structure
# constants were stored sparse, on dense basis columns and dense n^2 x n^2
# Galois matrices.  The sparse checks must agree with it on pass/fail, on
# every witness and on every NotRegularError message.
# ---------------------------------------------------------------------------

def _dense_associativity(h):
    n = h.dim
    for i in range(n):
        for j in range(n):
            ij = multiply(h, basis_column(h, i), basis_column(h, j))
            for l in range(n):
                lhs = multiply(h, ij, basis_column(h, l))
                jl = multiply(h, basis_column(h, j), basis_column(h, l))
                rhs = multiply(h, basis_column(h, i), jl)
                if lhs != rhs:
                    return CheckResult("associativity", h.name, False,
                                       f"(e{i}*e{j})*e{l} != e{i}*(e{j}*e{l})")
    return CheckResult("associativity", h.name, True)


def _dense_unit(h):
    one = list(h.unit)
    for i in range(h.dim):
        e = basis_column(h, i)
        if multiply(h, one, e) != e or multiply(h, e, one) != e:
            return CheckResult("unit", h.name, False, f"unit law fails on e{i}")
    return CheckResult("unit", h.name, True)


def _dense_coassociativity(h):
    zero = h.field.zero()
    for i in range(h.dim):
        left, right = {}, {}
        for (j, k), c in coproduct(h, basis_column(h, i)).items():
            for (p, q), d in coproduct(h, basis_column(h, j)).items():
                left[(p, q, k)] = left.get((p, q, k), zero) + c * d
            for (p, q), d in coproduct(h, basis_column(h, k)).items():
                right[(j, p, q)] = right.get((j, p, q), zero) + c * d
        if ({key: x for key, x in left.items() if not x.is_zero()}
                != {key: x for key, x in right.items() if not x.is_zero()}):
            return CheckResult("coassociativity", h.name, False, f"fails on e{i}")
    return CheckResult("coassociativity", h.name, True)


def _dense_counit(h):
    for i in range(h.dim):
        e = basis_column(h, i)
        left, right = [h.field.zero()] * h.dim, [h.field.zero()] * h.dim
        for (j, k), c in coproduct(h, e).items():
            left[k] = left[k] + h.counit[j] * c
            right[j] = right[j] + c * h.counit[k]
        if left != e or right != e:
            return CheckResult("counit", h.name, False, f"counit law fails on e{i}")
    return CheckResult("counit", h.name, True)


def _dense_coproduct_homomorphism(h):
    n = h.dim
    one_tensor = tensor_product(list(h.unit), list(h.unit))
    if coproduct(h, list(h.unit)) != one_tensor:
        return CheckResult("coproduct-homomorphism", h.name, False,
                           "coproduct of 1 is not 1 (x) 1")
    for i in range(n):
        di = coproduct(h, basis_column(h, i))
        for j in range(n):
            dj = coproduct(h, basis_column(h, j))
            rhs = hopf._tensor_square_product(h.mul_terms, di, dj)
            lhs = coproduct(h, multiply(h, basis_column(h, i), basis_column(h, j)))
            if lhs != rhs:
                return CheckResult(
                    "coproduct-homomorphism", h.name, False,
                    f"coproduct(e{i}*e{j}) != coproduct(e{i})*coproduct(e{j})")
    return CheckResult("coproduct-homomorphism", h.name, True)


def _dense_counit_homomorphism(h):
    if not pairing_value(h.unit, h.counit).is_one():
        return CheckResult("counit-homomorphism", h.name, False, "counit(1) != 1")
    for i in range(h.dim):
        for j in range(h.dim):
            prod = multiply(h, basis_column(h, i), basis_column(h, j))
            if pairing_value(prod, h.counit) != h.counit[i] * h.counit[j]:
                return CheckResult(
                    "counit-homomorphism", h.name, False,
                    f"counit(e{i}*e{j}) != counit(e{i})*counit(e{j})")
    return CheckResult("counit-homomorphism", h.name, True)


def _dense_antipode_laws(h):
    checks = []
    s_cols = [h.antipode.column(j) for j in range(h.dim)]
    for side in ("left", "right"):
        ok, detail = True, ""
        for i in range(h.dim):
            acc = [h.field.zero()] * h.dim
            for j, k, c in h.comul_terms[i]:
                if side == "left":
                    term = multiply(h, s_cols[j], basis_column(h, k))
                else:
                    term = multiply(h, basis_column(h, j), s_cols[k])
                for t in range(h.dim):
                    if not term[t].is_zero():
                        acc[t] = acc[t] + c * term[t]
            if acc != [h.counit[i] * u for u in h.unit]:
                ok, detail = False, f"antipode {side} law fails on e{i}"
                break
        checks.append(CheckResult(f"antipode-{side}", h.name, ok, detail))
    return checks


def _dense_convolve(f, g, h):
    """The columns of the convolution f * g = mul o (f (x) g) o coproduct."""
    cols = []
    for i in range(h.dim):
        acc = [h.field.zero()] * h.dim
        for j, k, c in h.comul_terms[i]:
            term = multiply(h, f.column(j), g.column(k))
            for t in range(h.dim):
                if not term[t].is_zero():
                    acc[t] = acc[t] + c * term[t]
        cols.append(acc)
    return cols


def _tensor_map_matrix(h, image):
    n = h.dim
    zero = h.field.zero()
    rows = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for (p, q), c in image(i, j).items():
                rows[p * n + q][i * n + j] = c
    return Matrix(h.field, rows)


def _t1_image(h, i, j):
    """T1(e_i (x) e_j) = coproduct(e_i)(1 (x) e_j)."""
    out = {}
    for p, q, c in h.comul_terms[i]:
        for k, d in h.mul_terms[q][j]:
            out[(p, k)] = out.get((p, k), h.field.zero()) + c * d
    return out


def _t2_image(h, i, j):
    """T2(e_i (x) e_j) = (e_i (x) 1)coproduct(e_j)."""
    out = {}
    for p, q, c in h.comul_terms[j]:
        for k, d in h.mul_terms[i][p]:
            out[(k, q)] = out.get((k, q), h.field.zero()) + c * d
    return out


def _dense_galois_matrices(h):
    """T1, T2 and, from the antipode, their candidate inverses R1, R2."""
    zero = h.field.zero()
    s_cols = [h.antipode.column(j) for j in range(h.dim)]

    def r1_image(i, j):
        out = {}
        for p, q, c in h.comul_terms[i]:
            for k, x in enumerate(multiply(h, s_cols[q], basis_column(h, j))):
                if not x.is_zero():
                    out[(p, k)] = out.get((p, k), zero) + c * x
        return out

    def r2_image(i, j):
        out = {}
        for p, q, c in h.comul_terms[j]:
            for k, x in enumerate(multiply(h, basis_column(h, i), s_cols[p])):
                if not x.is_zero():
                    out[(k, q)] = out.get((k, q), zero) + c * x
        return out

    return tuple(_tensor_map_matrix(h, image) for image in (
        functools.partial(_t1_image, h), functools.partial(_t2_image, h), r1_image, r2_image))


def _dense_galois(h):
    """The message of the NotRegularError the dense check raised, or None."""
    t1, t2, r1, r2 = _dense_galois_matrices(h)
    ident = Matrix.identity(h.field, h.dim * h.dim)
    if t1 * r1 != ident or r1 * t1 != ident:
        return f"{h.name}: T1 candidate inverse failed; map is not invertible"
    if t2 * r2 != ident or r2 * t2 != ident:
        return f"{h.name}: T2 candidate inverse failed; map is not invertible"
    return None


def _sparse_galois(h):
    """The outcome of galois_maps: None, or the error it raised."""
    try:
        galois_maps(h)
    except (InvalidHopfAlgebraError, NotRegularError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _expected_galois(h):
    """galois_maps' outcome from the dense reference: refused when
    validation fails, else the dense composition's verdict."""
    failed = [c.check for c in h.validate().failures()]
    if failed:
        return f"InvalidHopfAlgebraError: {h.name}: axiom failures: {', '.join(failed)}"
    message = _dense_galois(h)
    return None if message is None else f"NotRegularError: {message}"


def _corrupted_antipode(h, rng):
    """h with one antipode entry shifted by +-1."""
    n = h.dim
    i, j = rng.randrange(n), rng.randrange(n)
    rows = [list(row) for row in h.antipode.data]
    rows[i][j] = rows[i][j] + rng.choice((-1, 1))
    return HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                       Matrix(h.field, rows), name=f"{h.name}-S{(i, j)}")


@pytest.mark.parametrize("name", ["group-s3", "functions-s3", "sweedler", "taft-3"])
def test_galois_one_order_matches_two_orders_on_corrupted_constants(name):
    # galois_maps composes T o R only: T and R are square, so T o R = id forces
    # R o T = id.  The dense reference composes both orders.  On the seeded
    # corruptions of the test below (same seeds) and on one-entry antipode
    # corruptions, the dense reference fails and validation fails, so
    # galois_maps refuses the algebra before composing anything
    rng = random.Random(f"corrupt:{name}")
    source = builtin(name)
    assert _sparse_galois(source) is None and _dense_galois(source) is None
    for make in [_corrupted] * 12 + [_corrupted_antipode] * 6:
        h = make(source, rng)
        assert _dense_galois(h) is not None, h.name
        outcome = _sparse_galois(h)
        assert outcome is not None and outcome == _expected_galois(h), h.name


def _assert_sparse_matches_dense(h):
    sparse = {c.check: c for c in h.validate().checks}
    dense = [_dense_associativity(h), _dense_unit(h), _dense_coassociativity(h),
             _dense_counit(h), _dense_coproduct_homomorphism(h),
             _dense_counit_homomorphism(h), *_dense_antipode_laws(h)]
    for reference in dense:
        assert sparse[reference.check] == reference, (h.name, reference.check)
    assert _sparse_galois(h) == _expected_galois(h), h.name
    s = h.antipode
    ident = Matrix.identity(h.field, h.dim)
    for f, g in ((s, ident), (ident, s), (s, s)):
        f_cols, g_cols = f.nonzero_columns(), g.nonzero_columns()
        for i, col in enumerate(_dense_convolve(f, g, h)):
            assert hopf._convolution_column(h, f_cols, g_cols, i) == \
                {t: x for t, x in enumerate(col) if not x.is_zero()}, (h.name, i)


@pytest.mark.parametrize("name", list(BUILTIN_BUILDERS) + ["taft-5"])
def test_sparse_checks_match_dense_reference(name):
    h = build_taft(5) if name == "taft-5" else builtin(name)
    assert h.validate().ok
    _assert_sparse_matches_dense(h)


def _corrupted(h, rng):
    """h with exactly one structure constant of mul or comul changed: a
    stored one shifted or zeroed, or an absent one made nonzero."""
    n = h.dim
    target = rng.choice(("mul", "comul"))
    terms = dict(getattr(h, target).terms)
    if rng.random() < 0.5:
        key = rng.choice(sorted(terms))
        terms[key] = terms[key] + rng.choice((-1, 1)) if rng.random() < 0.7 else 0
    else:
        key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        terms[key] = terms.get(key, h.field.zero()) + rng.choice((-2, -1, 1, 2))
    tensors = {"mul": h.mul, "comul": h.comul}
    tensors[target] = Tensor3.from_dict(h.field, n, terms)
    return HopfAlgebra(h.field, h.basis_names, tensors["mul"], h.unit, tensors["comul"],
                       h.counit, h.antipode, name=f"{h.name}-{target}{key}")


@pytest.mark.parametrize("name", ["group-s3", "functions-s3", "sweedler", "taft-3"])
def test_sparse_checks_match_dense_reference_on_corrupted_constants(name):
    rng = random.Random(f"corrupt:{name}")
    source = builtin(name)
    failed = 0
    for _ in range(12):
        h = _corrupted(source, rng)
        _assert_sparse_matches_dense(h)
        failed += not h.validate().ok
    assert failed == 12  # one changed constant always breaks some axiom


# ---------------------------------------------------------------------------
# generating sets: validation decides the six bialgebra axioms on the rows
# of a generating set when they all hold there, and reruns the full ordered
# scan when one fails.  Whatever path an algebra takes, its results must be
# the dense references', witnesses included.
# ---------------------------------------------------------------------------

def _assert_reduced_matches_full_scan(h):
    checks = {c.check: c for c in h.bialgebra_checks()}
    assert checks["associativity"] == _dense_associativity(h), h.name
    assert checks["coproduct-homomorphism"] == _dense_coproduct_homomorphism(h), h.name


def _transported(h, p, name):
    """h written in the basis of the columns of the invertible matrix p:
    m'(a, b) = p^-1 m(p a, p b), the coproduct, unit and counit likewise,
    and S' = p^-1 S p."""
    n, q = h.dim, invert(p)
    cols = [p.column(a) for a in range(n)]
    mul = {(a, b, k): x for a in range(n) for b in range(n)
           for k, x in enumerate(q.apply(multiply(h, cols[a], cols[b])))}
    q_cols = [q.column(j) for j in range(n)]
    comul = {}
    for a in range(n):
        for (j, k), c in coproduct(h, cols[a]).items():
            for r, x in enumerate(q_cols[j]):
                for s, y in enumerate(q_cols[k]):
                    comul[(a, r, s)] = comul.get((a, r, s), h.field.zero()) + c * x * y
    return HopfAlgebra(h.field, h.basis_names, Tensor3.from_dict(h.field, n, mul),
                       q.apply(list(h.unit)), Tensor3.from_dict(h.field, n, comul),
                       [pairing_value(col, h.counit) for col in cols], q * h.antipode * p, name=name)


def _signed_permutation(field, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix(field, [[rng.choice((1, -1)) if perm[a] == i else 0 for a in range(n)]
                          for i in range(n)])


def _unitriangular(field, n, rng):
    """An upper unitriangular integer matrix, entries above the diagonal in
    [-2, 2].  Its first column is e_0, so a unit e_0 stays e_0."""
    return Matrix(field, [[1 if i == j else rng.randint(-2, 2) if i < j else 0
                           for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("name", list(BUILTIN_BUILDERS) + ["taft-5"])
def test_reduced_checks_match_full_scan_under_relabelling(name):
    source = build_taft(5) if name == "taft-5" else builtin(name)
    rng = random.Random(f"relabel:{name}")
    for seed in range(2):
        h = _transported(source, _signed_permutation(source.field, source.dim, rng),
                         f"{name}-relabelled{seed}")
        assert all(c.passed for c in h.bialgebra_checks()), h.name
        _assert_reduced_matches_full_scan(h)


def _with_constant(h, target, key, shift):
    """h with the structure constant key of target ("mul" or "comul")
    shifted by shift."""
    terms = dict(getattr(h, target).terms)
    terms[key] = terms.get(key, h.field.zero()) + shift
    tensors = {"mul": h.mul, "comul": h.comul,
               target: Tensor3.from_dict(h.field, h.dim, terms)}
    return HopfAlgebra(h.field, h.basis_names, tensors["mul"], h.unit, tensors["comul"],
                       h.counit, h.antipode, name=f"{h.name}-{target}{key}")


def test_associativity_without_the_unit_law_takes_the_full_scan():
    # unit e0 with e0*e1 = -e1: the words over G = {e1} span, and row e1 is
    # associative, but 1 is not in the set the rows of G generate, so only
    # the full scan finds (e0*e0)*e1 = -e1 != e1 = e0*(e0*e1)
    mul = Tensor3.from_dict(F, 2, {(0, 0, 0): 1, (0, 1, 1): -1, (1, 0, 1): 1})
    comul = Tensor3.from_dict(F, 2, {(0, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1})
    h = HopfAlgebra(F, ["1", "x"], mul, [1, 0], comul, [1, 0], None, name="left-unit")
    assert hopf._generators(h.mul_terms, h.unit) == (1,)
    assert hopf._associativity_failure(h.mul_terms, (1,)) is None
    checks = {c.check: c for c in h.bialgebra_checks()}
    assert not checks["unit"].passed
    assert checks["associativity"].witness == "(e0*e0)*e1 != e0*(e0*e1)"
    _assert_reduced_matches_full_scan(h)


def test_coproduct_homomorphism_without_associativity_takes_the_full_scan():
    # a nonassociative product with the unit law, coproduct(1) = 1 (x) 1 and
    # coproduct(e1) = coproduct(e2) = 0: row e1 of G = {e1} passes, but
    # e2*e2 = e2 - e0 has a nonzero coproduct
    mul = Tensor3.from_dict(F, 3, {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, (2, 0, 2): 1,
        (1, 1, 2): -1, (1, 2, 2): -1, (2, 1, 1): -1, (2, 2, 0): -1, (2, 2, 2): 1})
    comul = Tensor3.from_dict(F, 3, {(0, 0, 0): 1})
    h = HopfAlgebra(F, ["1", "a", "b"], mul, [1, 0, 0], comul, [1, 0, 0], None,
                    name="nonassociative")
    gens = hopf._generators(h.mul_terms, h.unit)
    assert gens == (1,)
    failures = hopf._bialgebra_failures(h.mul_terms, h.comul_terms, h.unit, h.counit, gens)
    assert failures[0] is not None and failures[4] is None
    checks = {c.check: c for c in h.bialgebra_checks()}
    assert checks["unit"].passed and not checks["associativity"].passed
    assert not checks["coproduct-homomorphism"].passed
    _assert_reduced_matches_full_scan(h)


def test_product_changed_between_two_non_generators_fails_with_the_full_scan_witness():
    source = builtin("taft-3")
    assert _validation_rows(source) == [("own", (3, 1))]
    gens = (3, 1)
    unit_index = source.unit.index(source.field.one())
    keys = [(i, j, k) for i, j, k, _ in source.mul.nonzero()
            if not {i, j} & {*gens, unit_index}]
    assert keys
    for key in keys[:4]:
        h = _with_constant(source, "mul", key, 1)
        checks = {c.check: c for c in h.bialgebra_checks()}
        assert not checks["associativity"].passed, h.name
        _assert_reduced_matches_full_scan(h)


def _dual_product_generators(h):
    dual_mt = hopf._product_table(
        h.dim, (((j, k, i), x) for (i, j, k), x in h.comul.terms.items()))
    return hopf._generators(dual_mt, h.counit)


def test_coproduct_changed_outside_the_coalgebra_generators_fails_with_the_full_scan_witness():
    # coproduct-homomorphism scans the rows p of the dual's generators P: the
    # constants of coproduct(e_i) at e_j (x) e_k with j, k outside P are read
    # only through other rows' products
    source = builtin("functions-s3")
    dual_gens = _dual_product_generators(source)
    keys = [(i, j, k) for i, j, k, _ in source.comul.nonzero() if not {j, k} & set(dual_gens)]
    assert keys
    for key in keys[:4]:
        h = _with_constant(source, "comul", key, 1)
        checks = {c.check: c for c in h.bialgebra_checks()}
        assert not checks["coproduct-homomorphism"].passed, h.name
        _assert_reduced_matches_full_scan(h)


def test_failing_coalgebra_side_scan_falls_back_to_the_full_scan():
    # functions-z6 with its product and unit written in another basis (p
    # fixes the counit's point and the unit, so the counit stays
    # multiplicative): every bialgebra axiom but coproduct-homomorphism
    # holds, so the check scans the one row of the dual's generator, which
    # fails, and reports the full scan's witness.  The unit is dense and
    # the counit is not, so P is the generating set searched first
    source = builtin("functions-z6")
    rows = [[int(i == j) for j in range(source.dim)] for i in range(source.dim)]
    rows[1][2], rows[1][3] = 1, -1
    moved = _transported(source, Matrix(F, rows), "moved")
    h = HopfAlgebra(F, source.basis_names, moved.mul, moved.unit, source.comul,
                    source.counit, None, name="twisted")
    checks = h.bialgebra_checks()
    assert [c.check for c in checks if not c.passed] == ["coproduct-homomorphism"]
    dual_gens = _dual_product_generators(h)
    assert len(dual_gens) == 1
    assert _validation_rows(h) == [("dual", dual_gens), ("own", tuple(range(h.dim)))]
    assert h._generating_rows is None
    _assert_reduced_matches_full_scan(h)


@pytest.mark.parametrize("name", ["sweedler", "taft-2", "group-s3"])
def test_dense_basis_bialgebra_checks_match_full_scan(name):
    source = builtin(name)
    rng = random.Random(f"dense:{name}")
    h = _transported(source, _unitriangular(source.field, source.dim, rng), f"{name}-dense")
    assert sum(1 for _ in h.mul.nonzero()) > sum(1 for _ in source.mul.nonzero())
    assert all(c.passed for c in h.bialgebra_checks()), h.name
    assert _dense_unit(h).passed and _dense_counit_homomorphism(h).passed
    _assert_reduced_matches_full_scan(h)
    # a product of two non-units: the unit law still holds, so associativity
    # scans the generators' rows first
    assert list(source.unit) == basis_column(source, 0) == list(h.unit)
    key = rng.choice([k for k in sorted(h.mul.terms) if 0 not in k[:2]])
    bad = _with_constant(h, "mul", key, 1)
    checks = {c.check: c for c in bad.bialgebra_checks()}
    assert checks["unit"].passed and not checks["associativity"].passed
    _assert_reduced_matches_full_scan(bad)


def _fresh(h):
    """h rebuilt from its structure constants, as a file read afresh would
    be: nothing decided, nothing handed over."""
    return HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit, h.antipode,
                       name=h.name)


def _validation_rows(h):
    """Decide the bialgebra checks of a fresh copy of h, and return, for each
    _bialgebra_failures call this makes, which tables it read ("own", or
    "dual" for the dual's with unit and counit swapped) and its rows."""
    h = _fresh(h)
    names = {(h.mul_terms, h.comul_terms, h.unit, h.counit): "own",
             (*hopf._transposed(h.mul_terms, h.comul_terms), h.counit, h.unit): "dual"}
    calls, real = [], hopf._bialgebra_failures
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hopf, "_bialgebra_failures",
                  lambda *args: calls.append((names[args[:4]], tuple(args[4]))) or real(*args))
        h.bialgebra_checks()
    return calls


def _dense_bialgebra_checks(h):
    """The dense references of the six bialgebra axioms, in report order."""
    return (_dense_associativity(h), _dense_unit(h), _dense_coassociativity(h),
            _dense_counit(h), _dense_coproduct_homomorphism(h), _dense_counit_homomorphism(h))


def _assert_reduced_paths_match_full_scans(h):
    # the six results, witnesses included, against the dense references, and
    # the Galois outcome against the dense composition on all n^2 basis
    # tensors, or the refusal when validation fails
    assert h.bialgebra_checks() == _dense_bialgebra_checks(h), h.name
    assert _sparse_galois(h) == _expected_galois(h), h.name


def _path_cases():
    cases = {name: lambda name=name: [builtin(name)] for name in BUILTIN_BUILDERS}
    cases["taft-5"] = lambda: [build_taft(5)]
    for name in BUILTIN_BUILDERS:
        cases[f"dual({name})"] = lambda name=name: [_fresh(build_dual(builtin(name)))]
    for name in ("sweedler", "taft-2", "group-s3", "functions-s3"):
        def dense(name=name):
            source = builtin(name)
            p = _unitriangular(source.field, source.dim, random.Random(f"paths:{name}"))
            return [_transported(source, p, f"{name}-dense")]
        cases[f"dense({name})"] = dense
    for name in BUILTIN_BUILDERS:
        def corrupted(name=name):
            rng, source = random.Random(f"paths:{name}"), builtin(name)
            return [_corrupted(source, rng) for _ in range(6)]
        cases[f"corrupted({name})"] = corrupted
    return cases


_PATH_CASES = _path_cases()


@pytest.mark.parametrize("case", list(_PATH_CASES))
def test_reduced_paths_match_the_full_scans(case):
    # whichever side's generating set an algebra takes, and whatever its
    # chain lets through, its lines are the full scans'
    for h in _PATH_CASES[case]():
        _assert_reduced_paths_match_full_scans(h)


def test_coproduct_changed_on_non_generator_rows_fails_coassociativity():
    # taft-3 takes G = {g, x}.  A coproduct constant changed on a row outside
    # G and the unit is never read by the rows of G (the legs of their
    # coproducts are 1, g and x), so coassociativity holds on them; it is
    # caught only because the coproduct-homomorphism fails on them, which
    # sends validation to the full scan
    source = builtin("taft-3")
    assert _validation_rows(source) == [("own", (3, 1))]
    gens = (3, 1)
    keys = [(i, j, k) for i, j, k, _ in source.comul.nonzero() if i not in (0, *gens)]
    caught = 0
    for key in keys:
        h = _with_constant(source, "comul", key, 1)
        if _dense_coassociativity(h).passed:
            continue
        caught += 1
        failures = hopf._bialgebra_failures(h.mul_terms, h.comul_terms, h.unit, h.counit, gens)
        assert failures[2] is None and failures[4] is not None, h.name
        assert _validation_rows(h) == [("own", gens), ("own", tuple(range(h.dim)))], h.name
        checks = {c.check: c for c in h.bialgebra_checks()}
        assert checks["coassociativity"] == _dense_coassociativity(h), h.name
        _assert_reduced_paths_match_full_scans(h)
    assert caught >= 4


@pytest.mark.parametrize("name", ["functions-s3", "dual(taft-3)"])
def test_product_changed_on_a_coproduct_side_algebra_fails_associativity(name):
    # the algebra takes P; on the dual's tables its associativity is the
    # dual's coassociativity on the rows of P.  A product constant whose
    # output has counit 0 (so the counit stays multiplicative) and which the
    # rows of P do not read is caught only because another axiom fails on
    # the rows of P, which sends validation to the full scan
    source = builtin(name) if name != "dual(taft-3)" else _fresh(build_dual(builtin("taft-3")))
    [(side, gens)] = _validation_rows(source)
    assert side == "dual" and gens == _dual_product_generators(source)
    n, caught = source.dim, 0
    for key in ((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                if source.counit[k].is_zero()):
        h = _with_constant(source, "mul", key, 1)
        failures = hopf._bialgebra_failures(*hopf._transposed(h.mul_terms, h.comul_terms),
                                            h.counit, h.unit, gens)
        if failures[2] is not None:
            continue  # the rows of P see it
        expected = _dense_associativity(h)
        if expected.passed:
            continue
        assert any(f is not None for f in failures), h.name
        checks = {c.check: c for c in h.bialgebra_checks()}
        assert checks["associativity"] == expected, h.name
        assert checks["counit-homomorphism"].passed, h.name
        _assert_reduced_paths_match_full_scans(h)
        caught += 1
        if caught == 4:
            break
    assert caught == 4


def test_generating_sets_are_pinned():
    # the rows validation visits and the tables it reads; a silent fallback
    # to the full scan (a second call, on range(dim)) fails here.  G: the
    # unit is a basis vector and the counit is not, so the own tables
    for name, gens in (("taft-3", (3, 1)), ("taft-4", (4, 1)), ("group-s3", (3, 1))):
        assert _validation_rows(builtin(name)) == [("own", gens)], name
    # P: the unit is dense (a function algebra, a dual basis) and the counit
    # a basis vector, so G is not searched, and the dual's tables
    for h, gens in ((builtin("functions-s3"), (3, 1)),
                    (_fresh(build_dual(builtin("taft-3"))), (3, 1)),
                    (_fresh(build_dual(builtin("taft-4"))), (4, 1))):
        assert _validation_rows(h) == [("dual", gens)], h.name


@pytest.mark.parametrize("name", ["sweedler", "taft-2", "taft-3", "taft-4", "taft-5"])
def test_seeded_relabellings_take_two_generators(name):
    # the benchmark's signed relabellings of the algebras generated by a
    # group-like g and a nilpotent x, and their duals: the search tries the
    # non-nilpotent candidates among equal orbit dimensions first, so it
    # finds a G or P of two elements whatever the labels
    inputs = _load("hopfbench_inputs_under_test", BENCH / "inputs.py")
    source = build_taft(5) if name == "taft-5" else builtin(name)
    for seed in range(40):
        h = inputs.relabel(source, inputs.choose_relabelling(seed, name, source.dim))
        for k in (h, build_dual(h)):
            [(_, gens)] = _validation_rows(k)
            assert len(gens) <= 2, (seed, k.name, gens)


def test_unit_law_is_checked_once_per_validation():
    # a valid algebra decides its six axioms, the unit law among them, in
    # one call on the rows of its generating set; an invalid one adds
    # exactly one call, the full scan.  The results are cached
    for h, side, gens in ((build_taft(3), "own", (3, 1)),
                          (builtin("functions-s3"), "dual", (3, 1))):
        assert _validation_rows(h) == [(side, gens)], h.name
        bad = _with_constant(h, "mul", (h.dim - 1, h.dim - 1, h.dim - 1), 1)
        assert _validation_rows(bad) == [(side, gens), ("own", tuple(range(h.dim)))], h.name
    calls, real = [], hopf._bialgebra_failures
    with pytest.MonkeyPatch.context() as m:
        m.setattr(hopf, "_bialgebra_failures", lambda *args: calls.append(args) or real(*args))
        h = build_taft(3)
        assert h.validate().ok and len(calls) == 1
        assert h.bialgebra_checks() is h.bialgebra_checks() and len(calls) == 1


@pytest.mark.parametrize("name", list(BUILTIN_BUILDERS))
def test_sparse_product_matches_the_dense_reference(name):
    # hopf._product, the kernel's product of sparse elements, against
    # the dense reference multiply on seeded random columns with some zero
    # entries
    h = builtin(name)
    rng = random.Random(7)
    values = [h.field.scalar(x) for x in (0, 0, 1, -1, 2)]
    if h.field.kind == "cyclotomic":
        values.append(h.field.generator() + 3)

    def column():
        return [rng.choice(values) for _ in range(h.dim)]

    def sparse(col):
        return {k: x for k, x in enumerate(col) if not x.is_zero()}

    for _ in range(12):
        a, b = column(), column()
        assert hopf._product(h.mul_terms, sparse(a), sparse(b)) == sparse(multiply(h, a, b))
