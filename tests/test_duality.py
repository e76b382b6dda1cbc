import collections
import dataclasses

import pytest

from hopfcheck import duality
from hopfcheck.cli import full_report_text
from hopfcheck.catalog import (build_function_algebra, build_group_algebra, build_sweedler,
                               build_taft, builtin, cyclic_group, symmetric_group)
from hopfcheck.duality import build_dual, dual_integrals, pair_system
from hopfcheck.hopf import CorruptedDataError, HopfAlgebra, _transposed
from hopfcheck.modular import (gram_matrix, modular_automorphism, modular_data,
                               modular_element, scaling_constant)
from hopfcheck.linalg import Matrix, Tensor3, invert
from hopfcheck.scalars import Scalar

from conftest import (BUILTIN_NAMES, basis_column, bilinear, integral_space_dimensions, multiply,
                      pairing_value, reference_action)


@pytest.mark.parametrize("make_group", [lambda: cyclic_group(2), lambda: cyclic_group(6),
                                        lambda: symmetric_group(3)])
def test_dual_of_group_algebra_is_function_algebra(make_group):
    g = make_group()
    dual = build_dual(build_group_algebra(g, "kg"))
    fn = build_function_algebra(g, "k-of-g")
    assert dual.mul == fn.mul
    assert dual.comul == fn.comul
    assert dual.unit == fn.unit
    assert dual.counit == fn.counit
    assert dual.antipode == fn.antipode


def test_dual_of_sweedler_passes_the_pipeline(paired):
    dual = paired("sweedler").dual
    assert dual.validate().ok
    assert integral_space_dimensions(dual) == (1, 1)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_derived_dual_validation_equals_one_from_scratch(name):
    # build_dual hands the dual the primal's report, renamed, instead of
    # deciding the dual's axioms again.  A fresh algebra with the same
    # constants decides them itself and must reach the same report, witnesses
    # included, and the same antipode inverse: this guards dual_structure
    # against a convention error.
    h = build_taft(5) if name == "taft-5" else builtin(name)
    dual = build_dual(h)
    assert dual._validation is not None  # handed over, not computed on demand
    fresh = HopfAlgebra(dual.field, dual.basis_names, dual.mul, dual.unit, dual.comul,
                        dual.counit, dual.antipode, name=dual.name)
    assert fresh.validate() == dual.validate()
    assert [c.check for c in dual.validate().checks] == [c.check for c in h.validate().checks]
    assert fresh.bialgebra_checks() == dual.bialgebra_checks()
    assert invert(dual.antipode) == dual.antipode_inverse() == fresh.antipode_inverse()


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_dual_structure_equals_the_checked_construction(name):
    # dual_structure transposes h's tables without the range checks and
    # coercion of the Tensor3 constructor; on the dual it is the bidual
    # structure that bidual-structure-iso compares
    h = build_taft(5) if name == "taft-5" else builtin(name)
    for alg in (h, build_dual(h)):
        mul_hat = Tensor3(alg.field, alg.dim,
                          {(i, j, k): x for (k, i, j), x in alg.comul.terms.items()})
        comul_hat = Tensor3(alg.field, alg.dim,
                            {(i, j, k): x for (j, k, i), x in alg.mul.terms.items()})
        checked = HopfAlgebra(alg.field, alg.basis_names, mul_hat, alg.counit, comul_hat,
                              alg.unit, alg.antipode.transpose())
        structure = duality.dual_structure(alg)
        assert structure == (checked.mul_terms, checked.unit, checked.comul_terms,
                             checked.counit, checked.antipode)
        # index order: the tables read back in the order of the checked terms
        assert [(i, j, k) for i, row in enumerate(structure[0]) for j, cell in enumerate(row)
                for k, _ in cell] == list(mul_hat.terms)
        assert [(i, j, k) for i, terms in enumerate(structure[2])
                for j, k, _ in terms] == list(comul_hat.terms)
        # transposing twice gives the tables back
        assert _transposed(*_transposed(alg.mul_terms, alg.comul_terms)) == \
            (alg.mul_terms, alg.comul_terms)


def test_bidual_reproduces_structure_constants(algebras):
    for name in ("group-z2", "sweedler", "taft-3"):
        h = algebras[name]
        bidual = build_dual(build_dual(h))
        assert bidual.mul == h.mul
        assert bidual.comul == h.comul
        assert bidual.unit == h.unit
        assert bidual.counit == h.counit
        assert bidual.antipode == h.antipode


def test_counit_acts_as_identity(paired):
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h = sys.primal
        eps = list(h.counit)  # the dual's unit in dual coordinates
        for i in range(h.dim):
            e = basis_column(h, i)
            assert bilinear(sys.action_table("lacthat"), eps, e) == e
            assert bilinear(sys.action_table("racthat"), e, eps) == e


def test_unit_acts_as_identity_on_dual(paired):
    for name in BUILTIN_NAMES:
        sys = paired(name)
        one = sys.primal.unit_column()
        for j in range(sys.dual.dim):
            fj = basis_column(sys.dual, j)
            assert bilinear(sys.action_table("lact"), one, fj) == fj
            assert bilinear(sys.action_table("ract"), fj, one) == fj


def test_sweedler_character_action_witness(paired):
    # dhat is the character sending the group-like generator to -1;
    # it fixes x from the left and negates it from the right
    sys = paired("sweedler")
    h = sys.primal
    x = basis_column(h, 1)
    dhat = list(sys.dual_modular.delta)
    dhat_inv = list(sys.dual_modular.delta_inv)
    assert pairing_value(basis_column(h, 2), dhat) == h.field.scalar(-1)
    assert bilinear(sys.action_table("lacthat"), dhat, x) == x
    assert bilinear(sys.action_table("racthat"), x, dhat_inv) == [-c for c in x]


def test_action_module_laws(paired):
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h, dual = sys.primal, sys.dual
        lact, ract = sys.action_table("lact"), sys.action_table("ract")
        lacthat, racthat = sys.action_table("lacthat"), sys.action_table("racthat")
        for i in range(h.dim):
            a = basis_column(h, i)
            for j in range(h.dim):
                b = basis_column(h, j)
                ab = multiply(h, a, b)
                for k in range(dual.dim):
                    y = basis_column(dual, k)
                    # algebra acting on the dual
                    assert bilinear(lact, ab, y) == bilinear(lact, a, bilinear(lact, b, y))
                    assert bilinear(ract, y, ab) == bilinear(ract, bilinear(ract, y, a), b)
        for k in range(dual.dim):
            y = basis_column(dual, k)
            for l in range(dual.dim):
                z = basis_column(dual, l)
                yz = multiply(dual, y, z)
                for i in range(h.dim):
                    a = basis_column(h, i)
                    # dual acting on the algebra
                    assert bilinear(lacthat, yz, a) == \
                        bilinear(lacthat, y, bilinear(lacthat, z, a))
                    assert bilinear(racthat, a, yz) == \
                        bilinear(racthat, bilinear(racthat, a, y), z)


def test_left_and_right_actions_commute(paired):
    for name in ("group-s3", "sweedler", "taft-3"):
        sys = paired(name)
        h, dual = sys.primal, sys.dual
        lacthat, racthat = sys.action_table("lacthat"), sys.action_table("racthat")
        for i in range(h.dim):
            a = basis_column(h, i)
            for k in range(dual.dim):
                y = basis_column(dual, k)
                for l in range(dual.dim):
                    z = basis_column(dual, l)
                    lhs = bilinear(racthat, bilinear(lacthat, y, a), z)
                    rhs = bilinear(lacthat, y, bilinear(racthat, a, z))
                    assert lhs == rhs


def test_extended_pairing_through_dual_modular_element(paired):
    # <a, m*b> = <b -> a, m> with m the dual modular element
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h, dual = sys.primal, sys.dual
        dhat = list(sys.dual_modular.delta)
        for i in range(h.dim):
            a = basis_column(h, i)
            for j in range(dual.dim):
                b = basis_column(dual, j)
                lhs = pairing_value(a, multiply(dual, dhat, b))
                rhs = pairing_value(bilinear(sys.action_table("lacthat"), b, a), dhat)
                assert lhs == rhs


def test_dual_right_integral_defining_formula(paired):
    # psi_hat(phi(. a)) = counit(a), for a running over the primal basis
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h = sys.primal
        b = gram_matrix(h, sys.primal_modular.phi)
        psi_hat = sys.dual_modular.psi
        for i in range(h.dim):
            omega = b.column(i)
            assert pairing_value(omega, psi_hat) == h.counit[i]


def test_dual_left_integral_defining_formula(paired):
    # phi_hat(psi(a .)) = counit(a)
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h = sys.primal
        bt = gram_matrix(h, sys.primal_modular.psi).transpose()
        phi_hat = sys.dual_modular.phi
        for i in range(h.dim):
            omega = bt.column(i)
            assert pairing_value(omega, phi_hat) == h.counit[i]


def test_dual_normalizations_cohere(paired):
    for name in BUILTIN_NAMES:
        sys = paired(name)
        dm = sys.dual_modular
        assert tuple(sys.dual.antipode.apply_row(dm.phi)) == dm.psi


def test_sweedler_dual_frozen_values(paired):
    sys = paired("sweedler")
    dm = sys.dual_modular
    assert [str(c) for c in dm.psi] == ["0", "-1", "0", "1"]
    assert [str(c) for c in dm.phi] == ["0", "-1", "0", "-1"]
    assert [str(c) for c in dm.delta] == ["1", "0", "-1", "0"]
    assert str(dm.tau) == "-1"


def test_group_algebra_dual_modular_element_is_counit(paired):
    for name in ("group-z2", "group-z6", "group-s3"):
        sys = paired(name)
        assert list(sys.dual_modular.delta) == sys.dual.unit_column()
        assert list(sys.dual_modular.delta) == list(sys.primal.counit)


def test_dual_modular_element_matches_pairing_route(paired):
    for name in BUILTIN_NAMES:
        sys = paired(name)
        route = invert(sys.primal_modular.sigma).apply_row(list(sys.primal.counit))
        assert list(sys.dual_modular.delta) == route


def test_pairing_dualities(paired):
    # <ab, y> = sum <a, y_(1)><b, y_(2)>, <a, yz> = sum <a_(1), y><a_(2), z>,
    # and <S(a), y> = <a, S(y)>
    for name in ("group-s3", "sweedler", "taft-3"):
        sys = paired(name)
        h, dual = sys.primal, sys.dual
        zero = h.field.zero()
        for i in range(h.dim):
            for j in range(h.dim):
                prod = multiply(h, basis_column(h, i), basis_column(h, j))
                for k in range(dual.dim):
                    assert prod[k] == dual.comul.terms.get((k, i, j), zero)
                    assert dual.mul.terms.get((i, j, k), zero) == \
                        h.comul.terms.get((k, i, j), zero)
        for i in range(h.dim):
            a = basis_column(h, i)
            sa = h.antipode.apply(a)
            for j in range(dual.dim):
                y = basis_column(dual, j)
                assert pairing_value(sa, y) == pairing_value(a, dual.antipode.apply(y))


def test_dual_modular_data_satisfies_primal_invariants(paired):
    # the dual's tuple obeys the same relations the primal's does
    for name in ("functions-s3", "sweedler", "taft-3"):
        sys = paired(name)
        dual, dm = sys.dual, sys.dual_modular
        delta = list(dm.delta)
        assert dual.coproduct(delta) == dual.tensor_product_columns(delta, delta)
        assert dual.counit_of(delta).is_one()
        assert dual.antipode.apply(delta) == list(dm.delta_inv)
        assert dual.antipode.pow(2).apply_row(dm.phi) == [dm.tau * x for x in dm.phi]
        for i in range(dual.dim):
            ei = basis_column(dual, i)
            si = dm.sigma.column(i)
            assert multiply(dual, delta, si) == multiply(dual, dm.sigma_prime.column(i), delta)
            for j in range(dual.dim):
                ej = basis_column(dual, j)
                assert pairing_value(multiply(dual, ei, ej), dm.phi) == \
                    pairing_value(multiply(dual, ej, si), dm.phi)
                assert pairing_value(multiply(dual, ei, ej), dm.psi) == \
                    pairing_value(multiply(dual, ej, dm.sigma_prime.column(i)), dm.psi)


def test_swapped_system_round_trip(paired):
    sys = paired("taft-3")
    swapped = sys.swapped()
    assert swapped.primal is sys.dual
    assert swapped.primal_modular is sys.dual_modular
    # the swapped dual is the original algebra itself, canonically the bidual
    assert swapped.dual is sys.primal


def test_swapped_system_is_built_once(paired):
    sys = paired("taft-3")
    assert sys.swapped() is sys.swapped()


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_swapped_is_an_involution_over_two_modular_tuples(paired, name):
    # the bidual side is the primal with its own tuple: a pair has two
    # tuples, and its two views reach no third
    sys = pair_system(build_taft(5)) if name == "taft-5" else paired(name)
    swapped = sys.swapped()
    assert swapped.swapped() is sys
    assert swapped.dual_modular is sys.primal_modular
    views = (sys, swapped, swapped.swapped())
    assert len({id(md) for v in views for md in (v.primal_modular, v.dual_modular)}) == 2


def test_swapped_refuses_a_bidual_integral_that_is_not_the_primal_one():
    # doubling both Gram inverses of the dual's tuple doubles the formula
    # integrals of the bidual: consistent with each other, but not phi
    sys = pair_system(builtin("taft-3"))
    md, n = sys.dual_modular, sys.dual.dim
    two = Matrix(sys.dual.field, [[2 if i == j else 0 for j in range(n)] for i in range(n)])
    tampered = dataclasses.replace(sys, dual_modular=dataclasses.replace(
        md, phi_gram_inv=two * md.phi_gram_inv, psi_gram_inv=two * md.psi_gram_inv))
    with pytest.raises(CorruptedDataError,
                       match="taft-3: the bidual's left integral is not the primal's own"):
        tampered.swapped()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_operator_lookup_is_memoized_and_exact(paired, name):
    # the swapped system's dual is the primal with its own tuple, and
    # shares the primal's operators: each must match its own modular tuple
    sys = paired(name)
    swapped = sys.swapped()
    for system, sort, alg, md in ((sys, "A", sys.primal, sys.primal_modular),
                                  (sys, "Ahat", sys.dual, sys.dual_modular),
                                  (swapped, "A", swapped.primal, swapped.primal_modular),
                                  (swapped, "Ahat", swapped.dual, swapped.dual_modular)):
        s, sigma, sigmap = alg.antipode, md.sigma, md.sigma_prime
        direct = {
            "S": s, "Sinv": invert(s), "S2": s.pow(2), "Sinv2": invert(s).pow(2),
            "sigma": sigma, "sigmainv": invert(sigma),
            "sigmap": sigmap, "sigmapinv": invert(sigmap),
        }
        for op, expected in direct.items():
            first = system.operator(op, sort)
            assert first == expected, (op, sort)
            assert system.operator(op, sort) is first, (op, sort)


@pytest.mark.parametrize("name", ["sweedler", "taft-3"])
def test_composed_tables_are_kept_per_functional_object(paired, name):
    # swapped() shares the memo and reads the dual under sort "A" and the
    # primal under sort "Ahat": a table is kept per object it reads,
    # not per sort.  A functional of a product is its Gram matrix.
    sys = paired(name)
    for system in (sys, sys.swapped()):
        for sort in ("A", "Ahat"):
            phi = system.modular(sort).phi
            columns = [((0, x),) if not x.is_zero() else () for x in phi]
            table = system.composed_table(sort, phi, columns)
            assert system.composed_table(sort, phi, columns) is table
            assert system.composed_table(sort, list(phi), columns) is not table
            gram = gram_matrix(system.algebra(sort), phi).data
            assert table == tuple(tuple(((0, x),) if not x.is_zero() else () for x in row)
                                  for row in gram), (system.primal.name, sort)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bidual_gram_inverses_are_the_primal_ones_rescaled(paired, name):
    # the bidual side takes the primal's Gram inverses instead of inverting
    # again; each must equal the fresh inverse of its own Gram matrix, on
    # this pairing and on the pairing swapped twice
    sys = paired(name)
    for system in (sys.swapped(), sys.swapped().swapped()):
        h, md = system.dual, system.dual_modular
        assert md.phi_gram_inv == invert(gram_matrix(h, md.phi)), name
        assert md.psi_gram_inv == invert(gram_matrix(h, md.psi)), name


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_bidual_tuple_matches_a_fresh_derivation(paired, name):
    # the dual and the bidual side take their algebra's tuple for the
    # formula integral, and the dual's default tuple is for its solved one
    # (on taft-3 the two differ by a factor z); every entry must be what the
    # solves give on those integrals
    base = pair_system(build_taft(5)) if name == "taft-5" else paired(name)
    own = modular_data(base.dual)
    assert modular_data(base.dual, base.dual_modular.phi) is base.dual_modular, name
    if name == "taft-3":
        assert own.phi != base.dual_modular.phi
    for h, md in [(s.dual, s.dual_modular)
                  for s in (base, base.swapped(), base.swapped().swapped())] + [(base.dual, own)]:
        assert md.psi == tuple(h.antipode.apply_row(md.phi)), name
        phi_gram, psi_gram = gram_matrix(h, md.phi), gram_matrix(h, md.psi)
        phi_gram_inv, psi_gram_inv = invert(phi_gram), invert(psi_gram)
        assert (md.phi_gram_inv, md.psi_gram_inv) == (phi_gram_inv, psi_gram_inv), name
        assert (md.delta, md.delta_inv) == modular_element(h, md.psi, phi_gram_inv), name
        assert md.sigma == modular_automorphism(h, phi_gram, phi_gram_inv), name
        assert md.sigma_prime == modular_automorphism(h, psi_gram, psi_gram_inv), name
        assert md.tau == scaling_constant(h, md.phi), name


def test_bidual_gram_inverse_needs_proportional_modular_data(paired, monkeypatch):
    # the formula integral on the bidual side must be a multiple of the
    # solved left integral; one that is not stops dual_integrals there
    sys = paired("sweedler")
    monkeypatch.setattr(duality, "left_integral", lambda alg: (alg.field.one(),) * alg.dim)
    with pytest.raises(CorruptedDataError,
                       match="sweedler: formula left integral disagrees with the invariance solve"):
        dual_integrals(sys.dual, sys.primal, sys.dual_modular)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_action_tables_match_the_dense_reference(paired, name):
    base = pair_system(build_taft(5)) if name == "taft-5" else paired(name)
    for sys in (base, base.swapped()):
        n = sys.primal.dim
        basis = [basis_column(sys.primal, i) for i in range(n)]  # the dual's too
        for fn in ("lact", "ract", "lacthat", "racthat"):
            table = sys.action_table(fn)
            for i in range(n):
                for j in range(n):
                    expected = [(k, x) for k, x in
                                enumerate(reference_action(sys, fn, basis[i], basis[j]))
                                if not x.is_zero()]
                    assert list(table[i][j]) == expected, (fn, i, j)


def test_action_tables_are_built_once_without_scalar_arithmetic(monkeypatch):
    sys = pair_system(builtin("taft-4"))
    calls = collections.Counter()

    def counted(name):
        fn = getattr(Scalar, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "is_zero"):
        monkeypatch.setattr(Scalar, name, counted(name))
    for fn in ("lact", "ract", "lacthat", "racthat"):
        sys.action_table(fn)
    monkeypatch.undo()
    assert not calls, calls
    assert sys.action_table("lact") is sys.swapped().action_table("lacthat")
    assert sys.action_table("ract") is sys.swapped().action_table("racthat")

    # a full report asks for the tables many times, on both sides; each
    # (side, algebra acted on) gets one table
    tables = {}
    action_table = duality.PairedSystem.action_table

    def recorded(self, name):
        table = action_table(self, name)
        acted_on = self.primal if name.endswith("hat") else self.dual
        tables.setdefault((name[0], acted_on.name), []).append(table)
        return table

    monkeypatch.setattr(duality.PairedSystem, "action_table", recorded)
    assert full_report_text(builtin("taft-3"))[1]
    assert sorted(tables) == [("l", "dual(taft-3)"), ("l", "taft-3"),
                              ("r", "dual(taft-3)"), ("r", "taft-3")]
    for key, seen in tables.items():
        assert all(t is seen[0] for t in seen), key


def test_swapped_system_shares_the_dual_side_operators(paired):
    sys = paired("taft-3")
    swapped = sys.swapped()
    for op in ("S", "Sinv", "S2", "Sinv2", "sigma", "sigmainv", "sigmap", "sigmapinv"):
        assert swapped.operator(op, "A") is sys.operator(op, "Ahat"), op


def test_replaced_system_recomputes_its_operators(paired):
    # a system built any other way than swapped() may carry other modular
    # data for the same algebra, so it starts with no stored operators
    sys = paired("sweedler")
    other = dataclasses.replace(sys)
    assert other.operator("sigmainv") == sys.operator("sigmainv")
    assert other.operator("sigmainv") is not sys.operator("sigmainv")


@pytest.mark.parametrize("solve,side", [("right_integral", "right"),
                                        ("left_integral", "left")])
def test_dual_integral_disagreeing_with_the_solve_is_rejected(monkeypatch, solve, side):
    h = build_sweedler()
    md = modular_data(h)
    dual = build_dual(h)
    # a nonzero functional proportional to neither formula integral
    monkeypatch.setattr(duality, solve,
                        lambda alg: (alg.field.one(),) * alg.dim)
    with pytest.raises(CorruptedDataError, match=f"formula {side} integral disagrees"):
        dual_integrals(h, dual, md)
