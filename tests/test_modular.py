import functools
import random
import re
from fractions import Fraction

import pytest
import sympy

from hopfcheck import modular
from hopfcheck.catalog import algebra_text, build_sweedler, build_taft, builtin, read_algebra
from hopfcheck.cli import full_report_text
from hopfcheck.duality import build_dual
from hopfcheck.hopf import CorruptedDataError, HopfAlgebra, _product
from hopfcheck.linalg import Matrix, invert
from hopfcheck.modular import (gram_inverse, gram_matrix, left_integral, modular_automorphism,
                               modular_data, modular_element, proportionality, right_integral,
                               scaling_constant)
from hopfcheck.scalars import RATIONAL, cyclotomic_field

from conftest import (BUILTIN_NAMES, basis_column, coproduct, integral_space_dimensions,
                      multiply, pairing_value, reference_invariance_nullspace)
from test_gauge import _gauges
from test_hopf import _signed_permutation, _transported

F = RATIONAL


def test_function_algebra_integral_is_summation(algebras):
    # summing a function over all group elements is invariant
    for name in ("functions-z2", "functions-z6", "functions-s3"):
        phi = left_integral(algebras[name])
        assert all(c.is_one() for c in phi)


def test_group_algebra_integral_picks_identity_coefficient(algebras):
    for name in ("group-z2", "group-z6", "group-s3"):
        h = algebras[name]
        phi = left_integral(h)
        assert phi[0].is_one()
        assert all(c.is_zero() for c in phi[1:])


def test_left_invariance_holds_by_direct_contraction(algebras):
    # (id (x) phi) applied to the coproduct must collapse to phi(a) * 1
    for name in BUILTIN_NAMES:
        h = algebras[name]
        phi = left_integral(h)
        for i in range(h.dim):
            acc = [h.field.zero()] * h.dim
            for j, k, c in h.comul_terms[i]:
                if not phi[k].is_zero():
                    acc[j] = acc[j] + c * phi[k]
            expected = [phi[i] * u for u in h.unit]
            assert acc == expected


def test_sweedler_integral_supported_on_top_monomial():
    h = build_sweedler()
    phi = left_integral(h)
    assert [str(c) for c in phi] == ["0", "0", "0", "1"]
    psi = h.antipode.apply_row(phi)
    assert [str(c) for c in psi] == ["0", "-1", "0", "0"]
    # right invariance of psi, checked by hand-style contraction
    for i in range(h.dim):
        acc = [h.field.zero()] * h.dim
        for j, k, c in h.comul_terms[i]:
            if not psi[j].is_zero():
                acc[k] = acc[k] + c * psi[j]
        assert acc == [psi[i] * u for u in h.unit]


def test_integral_spaces_are_lines(algebras):
    for name in BUILTIN_NAMES:
        assert integral_space_dimensions(algebras[name]) == (1, 1)


def test_right_integral_proportional_to_phi_after_antipode(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        psi_solved = right_integral(h)
        psi_norm = h.antipode.apply_row(left_integral(h))
        ratio = None
        for a, b in zip(psi_solved, psi_norm):
            if not a.is_zero():
                ratio = b / a
                break
        assert ratio is not None and not ratio.is_zero()
        assert list(psi_norm) == [ratio * c for c in psi_solved]


def _modular_element_of(h, phi):
    """modular_element on the functional phi, as modular_data calls it:
    psi = phi o S and the inverse Gram matrix of phi."""
    return modular_element(h, tuple(h.antipode.apply_row(phi)),
                           gram_inverse(h, gram_matrix(h, phi), "left"))


def test_modular_element_trivial_for_unimodular(algebras):
    for name in ("group-z2", "group-z6", "group-s3",
                 "functions-z2", "functions-z6", "functions-s3"):
        h = algebras[name]
        delta, delta_inv = _modular_element_of(h, left_integral(h))
        assert list(delta) == list(h.unit)
        assert list(delta_inv) == list(h.unit)


def test_sweedler_modular_element_is_group_like_generator():
    h = build_sweedler()
    phi = left_integral(h)
    delta, delta_inv = _modular_element_of(h, phi)
    assert h.format_element(list(delta)) == "g"
    assert h.format_element(list(delta_inv)) == "g"
    # hand check of the defining relation on x: phi(S(x)) = phi(x*g)
    x, g = basis_column(h, 1), basis_column(h, 2)
    assert pairing_value(h.antipode.apply(x), phi) == pairing_value(multiply(h, x, g), phi)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_taft_modular_element_is_group_generator(n):
    h = build_taft(n)
    delta, _ = _modular_element_of(h, left_integral(h))
    expected = [h.field.zero()] * h.dim
    expected[n] = h.field.one()  # basis index of the group-like generator
    assert list(delta) == expected


def test_group_algebra_automorphism_is_identity(algebras):
    # the integral is a trace there, so the automorphism must be trivial
    for name in ("group-z2", "group-z6", "group-s3"):
        h = algebras[name]
        b = gram_matrix(h, left_integral(h))
        sigma = modular_automorphism(h, b, gram_inverse(h, b, "left"))
        assert sigma == Matrix.identity(h.field, h.dim)
        assert b == b.transpose()


def test_sweedler_automorphisms_frozen():
    h = build_sweedler()
    md = modular_data(h)
    assert md.sigma == Matrix(F, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
    assert md.sigma_prime == Matrix(F, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


def test_taft3_automorphism_order_three_on_group_like():
    h = build_taft(3)
    z = cyclotomic_field(3).generator()
    md = modular_data(h)
    g = basis_column(h, 3)  # group-like generator g = index n
    sg = md.sigma.apply(g)
    assert sg == [z * c for c in g]
    assert md.sigma.apply(md.sigma.apply(sg)) == g
    ident = Matrix.identity(h.field, h.dim)
    assert md.sigma.pow(3) == ident and md.sigma != ident


def test_scaling_constant_values(algebras):
    # direct oracle: compare phi o S^2 with phi coordinate by coordinate
    expected = {
        "group-z2": "1", "group-z6": "1", "group-s3": "1",
        "functions-z2": "1", "functions-z6": "1", "functions-s3": "1",
        "sweedler": "-1", "taft-2": "-1", "taft-3": "-z - 1", "taft-4": "-z",
    }
    for name in BUILTIN_NAMES:
        h = algebras[name]
        phi = left_integral(h)
        composed = h.antipode.pow(2).apply_row(phi)
        idx = next(i for i, c in enumerate(phi) if not c.is_zero())
        direct = composed[idx] / phi[idx]
        assert list(composed) == [direct * c for c in phi]
        tau = scaling_constant(h, phi)
        assert tau == direct
        assert str(tau) == expected[name]


def test_scaling_constant_equals_counit_of_sigma_inverse_of_delta(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        assert pairing_value(invert(md.sigma).apply(list(md.delta)), h.counit) == md.tau


def test_weak_kms_property(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        for i in range(h.dim):
            ei = basis_column(h, i)
            si = md.sigma.column(i)
            spi = md.sigma_prime.column(i)
            for j in range(h.dim):
                ej = basis_column(h, j)
                assert pairing_value(multiply(h, ei, ej), md.phi) == \
                    pairing_value(multiply(h, ej, si), md.phi)
                assert pairing_value(multiply(h, ei, ej), md.psi) == \
                    pairing_value(multiply(h, ej, spi), md.psi)


def test_automorphisms_and_antipode_square_commute(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        s2 = h.antipode.pow(2)
        assert md.sigma * md.sigma_prime == md.sigma_prime * md.sigma
        assert md.sigma * s2 == s2 * md.sigma
        assert md.sigma_prime * s2 == s2 * md.sigma_prime


def test_antipode_swaps_the_automorphisms(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        assert h.antipode * md.sigma_prime == invert(md.sigma) * h.antipode


def test_modular_element_intertwines(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        delta = list(md.delta)
        for i in range(h.dim):
            lhs = multiply(h, delta, md.sigma.column(i))
            rhs = multiply(h, md.sigma_prime.column(i), delta)
            assert lhs == rhs


def _twisted_coproduct(h, column, left: Matrix, right: Matrix):
    out = {}
    for (j, k), c in coproduct(h, column).items():
        for a, ca in enumerate(left.column(j)):
            if ca.is_zero():
                continue
            for b, cb in enumerate(right.column(k)):
                if not cb.is_zero():
                    key = (a, b)
                    out[key] = out.get(key, h.field.zero()) + c * ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_coproduct_twist_formulas(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        s2 = h.antipode.pow(2)
        s2_inv = invert(h.antipode).pow(2)
        sp_inv = invert(md.sigma_prime)
        for i in range(h.dim):
            e = basis_column(h, i)
            assert coproduct(h, md.sigma.apply(e)) == _twisted_coproduct(h, e, s2, md.sigma)
            assert coproduct(h, md.sigma_prime.apply(e)) == _twisted_coproduct(h, e, md.sigma_prime, s2_inv)
            assert coproduct(h, s2.apply(e)) == _twisted_coproduct(h, e, md.sigma, sp_inv)


def test_counit_agrees_on_both_automorphisms(algebras):
    for name in BUILTIN_NAMES:
        h = algebras[name]
        md = modular_data(h)
        counit = list(h.counit)
        assert md.sigma.apply_row(counit) == md.sigma_prime.apply_row(counit)


def test_non_faithful_functional_rejected():
    h = build_sweedler()
    bogus = tuple(F.scalar(x) for x in (1, 0, 0, 0))  # vanishes on the ideal generated by x
    with pytest.raises(CorruptedDataError, match="not faithful"):
        gram_inverse(h, gram_matrix(h, bogus), "left")


def _expected_modular_failure(h, phi):
    """The message the modular element of the functional phi over Q must
    fail with, decided independently: invertibility of the Gram matrix B and
    delta = B^-1 (phi o S) by sympy, group-likeness by dense loops over the
    stored terms."""
    n = h.dim
    gram = sympy.Matrix(n, n, lambda i, j: sum(
        (sympy.Rational(str(c * phi[k])) for k, c in h.mul_terms[i][j]), sympy.Integer(0)))
    rhs = sympy.Matrix(n, 1, lambda j, _: sum(
        (sympy.Rational(str(phi[k] * h.antipode.data[k][j])) for k in range(n)),
        sympy.Integer(0)))
    if gram.rank() < n:
        return "left functional is not faithful (singular Gram matrix)"
    delta = [h.field.scalar(Fraction(int(x.p), int(x.q))) for x in gram.inv() * rhs]
    coproduct, square = {}, {}
    for (i, p, q), c in h.comul.terms.items():
        coproduct[(p, q)] = coproduct.get((p, q), h.field.zero()) + delta[i] * c
    for p in range(n):
        for q in range(n):
            square[(p, q)] = delta[p] * delta[q]
    if any(coproduct.get(key, h.field.zero()) != x for key, x in square.items()):
        return "modular element is not group-like"
    return None


@pytest.mark.parametrize("name", ["sweedler", "group-s3"])
def test_random_functionals_reach_the_modular_element_failures(name):
    # seeded functionals with entries in {-1, 0, 1}: most are no integral,
    # and each must fail where the independent classification says
    h = builtin(name)
    rng = random.Random(2)
    seen = set()
    for _ in range(40):
        phi = tuple(h.field.scalar(rng.choice((-1, 0, 0, 1))) for _ in range(h.dim))
        if all(x.is_zero() for x in phi):
            continue
        expected = _expected_modular_failure(h, phi)
        if expected is None:
            _modular_element_of(h, phi)
            continue
        with pytest.raises(CorruptedDataError, match=re.escape(f"{name}: {expected}")):
            _modular_element_of(h, phi)
        seen.add(expected)
    assert seen == {"left functional is not faithful (singular Gram matrix)",
                    "modular element is not group-like"}


def test_zero_modular_element_candidate_fails_the_counit_check():
    # 0 is group-like (its coproduct is 0 = 0 (x) 0) but has counit 0.  No
    # functional gives it: psi = phi o S is nonzero with phi, and so is
    # B^-1 psi; a zero psi does
    h = build_sweedler()
    gram_inv = gram_inverse(h, gram_matrix(h, left_integral(h)), "left")
    with pytest.raises(CorruptedDataError,
                       match=re.escape("sweedler: counit of the modular element is not 1")):
        modular_element(h, (F.zero(),) * h.dim, gram_inv)


def test_antipode_that_does_not_invert_the_modular_element_is_rejected():
    # group-s3 is unimodular, delta = 1.  S + E_{1,0} keeps the row of S
    # that phi o S reads, so delta is still 1, but sends 1 to e0 + e1.  The
    # validation is handed over from group-s3, as from an algebra whose
    # axioms were decided elsewhere.
    h = builtin("group-s3")
    phi = left_integral(h)
    entries = {(i, j): x for i, row in enumerate(h.antipode.nonzero_rows()) for j, x in row}
    entries[(1, 0)] = F.one()
    wrong = HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                        Matrix._from_entries(F, h.dim, h.dim, entries), name=h.name)
    object.__setattr__(wrong, "_validation", h.validate())
    assert _modular_element_of(h, phi)[0] == tuple(h.unit)
    with pytest.raises(CorruptedDataError,
                       match=re.escape("group-s3: S(delta) is not the inverse of the modular element")):
        _modular_element_of(wrong, phi)


def test_requires_validated_algebra():
    from hopfcheck.catalog import build_nongroup_monoid_bialgebra
    from hopfcheck.hopf import InvalidHopfAlgebraError
    with pytest.raises(InvalidHopfAlgebraError):
        left_integral(build_nongroup_monoid_bialgebra())


def test_proportionality():
    ref = [F.scalar(x) for x in (0, 2, -1)]
    assert proportionality(ref, [F.scalar(x) for x in (0, -6, 3)]) == F.scalar(-3)
    assert proportionality(ref, [F.scalar(x) for x in (1, -6, 3)]) is None
    assert proportionality(ref, [F.zero()] * 3) is None
    assert proportionality([F.zero()] * 3, ref) is None


def test_scaling_constant_rejects_a_non_proportional_functional():
    # on sweedler S^2 fixes 1 and negates x, so phi o S^2 = [1, -1, 0, 0]
    h = build_sweedler()
    with pytest.raises(CorruptedDataError, match="not proportional"):
        scaling_constant(h, tuple(F.scalar(x) for x in (1, 1, 0, 0)))


def _tampered_gram_inverse(h, phi, rows):
    """The Gram inverse of phi premultiplied by the matrix with the given
    rows, so the closed form returns that matrix times sigma."""
    return Matrix(h.field, rows) * gram_inverse(h, gram_matrix(h, phi), "left")


def test_automorphism_that_moves_the_unit_is_rejected():
    h = build_taft(3)
    phi = left_integral(h)
    doubled = [[2 if r == c else 0 for c in range(h.dim)] for r in range(h.dim)]
    with pytest.raises(CorruptedDataError, match="modular automorphism does not fix 1"):
        modular_automorphism(h, gram_matrix(h, phi),
                             _tampered_gram_inverse(h, phi, doubled))


def test_non_multiplicative_automorphism_names_the_first_failing_pair():
    h = build_taft(3)
    phi = left_integral(h)
    assert list(h.unit) == basis_column(h, 0)
    # sends x to x + x^2 and fixes every other basis element, so still fixes 1
    rows = [[1 if r == c else 0 for c in range(h.dim)] for r in range(h.dim)]
    rows[2][1] = 1
    gram_inv = _tampered_gram_inverse(h, phi, rows)
    # the first failing pair of a dense scan, i outer and j inner
    rho = gram_inv * gram_matrix(h, phi).transpose()
    expected = next(
        (i, j) for i in range(h.dim) for j in range(h.dim)
        if rho.apply(multiply(h, basis_column(h, i), basis_column(h, j)))
        != multiply(h, rho.column(i), rho.column(j)))
    with pytest.raises(CorruptedDataError,
                       match=re.escape(f"not multiplicative at ({expected[0]},{expected[1]})")):
        modular_automorphism(h, gram_matrix(h, phi), gram_inv)


def test_full_report_solves_each_integral_once(monkeypatch):
    # the bidual side's cross-check reuses the primal's left integral
    calls = []
    solve_space = modular._invariance_nullspace

    def counted(h, side):
        calls.append((h.name, side))
        return solve_space(h, side)

    monkeypatch.setattr(modular, "_invariance_nullspace", counted)
    h = build_taft(4)
    _, ok = full_report_text(h)
    assert ok
    assert calls.count(("taft-4", "left")) == 1
    assert sorted(set(calls)) == [("dual(taft-4)", "left"), ("dual(taft-4)", "right"),
                                  ("taft-4", "left"), ("taft-4", "right")]
    assert len(calls) == 4


# rows of each invariance solve on a builtin and on its dual from
# build_dual: n |P| where validation took P (on the dual, the builtin's G),
# else n^2
INVARIANCE_ROWS = {"group-z2": (4, 2), "group-z6": (36, 6), "group-s3": (36, 12),
                   "functions-z2": (2, 4), "functions-z6": (6, 36), "functions-s3": (12, 36),
                   "sweedler": (16, 8), "taft-2": (16, 8), "taft-3": (81, 18),
                   "taft-4": (256, 32)}


def _invariance_cases(name, tmp_path):
    """The builtin, its dual from build_dual, that dual read back from a
    file (validated from scratch), three seeded signed relabellings, and,
    up to dim 6, an upper unitriangular and the U L gauge of test_gauge."""
    source = builtin(name)
    dual = build_dual(source)
    path = tmp_path / "dual.alg"
    path.write_text(algebra_text(dual), encoding="utf-8")
    cases = [source, dual, read_algebra(str(path))]
    rng = random.Random(f"integral-rows:{name}")
    cases += [_transported(source, _signed_permutation(source.field, source.dim, rng),
                           f"{name}-relabelled{seed}") for seed in range(3)]
    if source.dim <= 6:
        gauges = _gauges(source)
        cases += [_transported(source, gauges[0], f"{name}-gauge0"),
                  _transported(source, gauges[-1], f"{name}-gauge-lu")]
    return cases


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generating_row_integrals_match_the_full_system(name, tmp_path, monkeypatch):
    rows = []
    solve = modular.nullspace
    monkeypatch.setattr(modular, "nullspace", lambda m: rows.append(m.rows) or solve(m))
    counts = []
    for h in _invariance_cases(name, tmp_path):
        h.require_valid()
        p = h._dual_generating_rows
        for side in ("left", "right"):
            rows.clear()
            assert modular._invariance_nullspace(h, side) == \
                reference_invariance_nullspace(h, side), (h.name, side)
            assert rows == [h.dim * len(p) if p else h.dim ** 2], (h.name, side)
        counts.append(rows[0])
    assert tuple(counts[:2]) == INVARIANCE_ROWS[name]


def test_modular_automorphisms_scan_the_product_generators(monkeypatch):
    # sigma and sigma' are checked multiplicative on the rows of G when
    # validation took G (taft-3), and on the dual of an algebra that took P,
    # whose G is that P (build_dual); on P's side (functions-s3) and on the
    # dual of an algebra that took G no row is scanned and each
    # automorphism is checked one output coordinate at a time.  A failing
    # reduced scan runs the per-coordinate check for its witness.
    scans, checks = [], []
    real_scan, real_check = modular._algebra_map_failure, modular._multiplicativity_failure
    monkeypatch.setattr(modular, "_algebra_map_failure",
                        lambda *args: scans.append(tuple(args[-1])) or real_scan(*args))
    monkeypatch.setattr(modular, "_multiplicativity_failure",
                        lambda mt, rho: checks.append(rho.rows) or real_check(mt, rho))
    taft, functions = build_taft(3), builtin("functions-s3")
    for h, rows, dims in ((taft, [(3, 1), (3, 1)], []), (functions, [], [6, 6]),
                          (build_dual(taft), [], [9, 9]),
                          (build_dual(functions), [(3, 1), (3, 1)], [])):
        scans.clear()
        checks.clear()
        modular_data(h)
        assert (scans, checks) == (rows, dims), h.name
    phi = left_integral(taft)
    rows = [[1 if r == c else 0 for c in range(taft.dim)] for r in range(taft.dim)]
    rows[2][1] = 1
    scans.clear()
    checks.clear()
    # the pair test_non_multiplicative_automorphism_names_the_first_failing_pair
    # finds by a dense scan
    with pytest.raises(CorruptedDataError, match=re.escape("not multiplicative at (1,3)")):
        modular_automorphism(taft, gram_matrix(taft, phi),
                             _tampered_gram_inverse(taft, phi, rows))
    assert (scans, checks) == ([(3, 1)], [9])


def _tampered(rho, rng):
    """rho changed in one of four seeded ways: one entry shifted, two
    columns swapped, one column scaled, or rho composed with itself (an
    automorphism again when rho is one)."""
    field, n = rho.field, rho.rows
    rows = [list(row) for row in rho.data]
    kind = rng.randrange(4)
    if kind == 0:
        r, c = rng.randrange(n), rng.randrange(n)
        rows[r][c] = rows[r][c] + field.scalar(rng.choice((-1, 1, 2, Fraction(1, 2))))
    elif kind == 1:
        a, b = rng.sample(range(n), 2)
        for row in rows:
            row[a], row[b] = row[b], row[a]
    elif kind == 2:
        c, x = rng.randrange(n), field.scalar(rng.choice((-1, 2, Fraction(1, 3))))
        for row in rows:
            row[c] = row[c] * x
    else:
        return rho * rho
    return Matrix(field, rows)


def test_per_coordinate_check_names_the_full_scan_witness():
    # differential: on seeded tamperings of sigma and sigma', the
    # per-coordinate check and the ordered full scan over every row name
    # the same least failing pair, or both find none
    rng = random.Random(24)
    outcomes = []
    for name in ("sweedler", "taft-2", "taft-3", "group-s3", "functions-s3"):
        primal = builtin(name)
        for h in (primal, build_dual(primal)):
            mt = h.mul_terms
            md = modular_data(h)
            for rho in (md.sigma, md.sigma_prime) * 20:
                tampered = _tampered(rho, rng)
                images = list(map(dict, tampered.nonzero_columns()))
                expected = modular._algebra_map_failure(
                    mt, images, functools.partial(_product, mt), range(h.dim))
                assert modular._multiplicativity_failure(mt, tampered) == expected, h.name
                outcomes.append(expected is None)
    assert len(outcomes) == 400
    # both outcomes are exercised
    assert 0 < sum(outcomes) < len(outcomes)
