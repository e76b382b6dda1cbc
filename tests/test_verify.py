import collections
import dataclasses
import re

import pytest

from hopfcheck import duality, hopf, identities, linalg, modular, verify
from hopfcheck.catalog import build_taft, builtin
from hopfcheck.duality import pair_system
from hopfcheck.cli import full_report_text
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Matrix, invert
from hopfcheck.verify import (biduality_check, check_dual_modular_pairing,
                              check_dual_radford, check_modular_adjoints, check_radford,
                              run_all_checks)

from conftest import BUILTIN_NAMES, basis_column, multiply, pairing_value, reference_action

LINE = re.compile(r"^[a-z0-9-]+ [a-zA-Z0-9()*\-]+ (PASS|FAIL)( .*)?$")

EXPECTED_IDS = [
    "pair-dhat-sigma-inv", "pair-dhat-sigmap-inv", "pair-dhatinv-sigma",
    "pair-dhatinv-sigmap",
    "sigma-adjoint", "sigma-inv-adjoint", "sigmap-adjoint", "sigmap-inv-adjoint",
    "adjoint-unit-reduction",
    "s4-sandwich", "sigma-from-action", "sigmap-from-action",
    "delta-action-scaling", "s4-intro-dictionary",
    "s4-dual-transported", "s4-sandwich", "sigma-from-action",
    "sigmap-from-action", "delta-action-scaling", "s4-intro-dictionary",
    "bidual-pairing-formula", "bidual-structure-iso",
]


def test_every_builtin_passes_every_suite(paired, suite_reports):
    for name in BUILTIN_NAMES:
        report = suite_reports(name)
        assert report.ok, "\n".join(r.line() for r in report.checks if not r.passed)
        assert [r.check for r in report.checks] == EXPECTED_IDS


def test_report_lines_are_machine_readable(suite_reports):
    for line in suite_reports("sweedler").lines():
        assert LINE.match(line), line


def test_pairing_suite_group_algebra_reduces_to_counit(paired):
    # sigma is trivial there, so all four chains evaluate to the counit
    sys = paired("group-s3")
    report = check_dual_modular_pairing(sys)
    assert report.ok
    assert list(sys.dual_modular.delta) == list(sys.primal.counit)


def test_tampered_modular_element_is_caught(paired):
    sys = paired("taft-3")
    swapped = dataclasses.replace(
        sys,
        dual_modular=dataclasses.replace(
            sys.dual_modular,
            delta=sys.dual_modular.delta_inv,
            delta_inv=sys.dual_modular.delta,
        ),
    )
    radford = check_radford(swapped)
    assert not radford.ok
    failing = [r for r in radford.checks if not r.passed]
    assert any("at a=" in r.witness for r in failing)
    pairing = check_dual_modular_pairing(swapped)
    assert not pairing.ok


def test_dual_side_suite_runs_on_swapped_system(paired):
    report = check_dual_radford(paired("sweedler"))
    assert report.ok
    algebras = {r.algebra for r in report.checks}
    assert algebras == {"dual(sweedler)"}


def test_biduality_suite(paired):
    for name in ("group-z6", "functions-s3", "taft-3"):
        assert biduality_check(paired(name)).ok


def test_adjoint_suite_alone(paired):
    assert check_modular_adjoints(paired("taft-4")).ok


def test_fourth_power_transports_to_the_bidual(paired):
    # the check on the double dual is the check on the primal, transported
    sys = paired("sweedler")
    double = sys.swapped().swapped()
    assert double.primal.mul == sys.primal.mul
    assert check_radford(double).ok == check_radford(sys).ok is True


def test_full_report_builds_each_algebra_once(monkeypatch):
    calls = {"build_dual": 0, "validations": 0, "invert": 0}
    build_dual, validate = duality.build_dual, HopfAlgebra.validate
    invert = linalg.invert

    def counted_build_dual(h):
        calls["build_dual"] += 1
        return build_dual(h)

    def counted_validate(self):
        calls["validations"] += self._validation is None
        return validate(self)

    def counted_invert(m):
        calls["invert"] += 1
        return invert(m)

    monkeypatch.setattr(duality, "build_dual", counted_build_dual)
    monkeypatch.setattr(HopfAlgebra, "validate", counted_validate)
    for module in (duality, hopf, modular):
        monkeypatch.setattr(module, "invert", counted_invert)
    text, ok = full_report_text(builtin("taft-3"))
    assert ok
    # the dual in pair_system only: swapped() pairs the dual with the primal
    # itself, and the dual takes the primal's validation renamed, so only the
    # primal is validated.  invert: the primal's antipode (the dual's S^-1 is
    # its transpose; the operator S^-1 on both sides reads them), the two Gram
    # matrices (of phi and psi) of the primal and of the dual, and 2 operator
    # inverses (sigma, sigma'); the bidual side takes the primal's own
    # tuple, and dual_integrals checks its pairing formula through sigma,
    # not its inverse
    assert calls == {"build_dual": 1, "validations": 1, "invert": 7}


def test_full_report_derives_each_modular_tuple_once(monkeypatch):
    # the primal's tuple and the dual's are solved, one modular_element,
    # two modular_automorphism and one scaling_constant each, each Gram
    # matrix formed once and inverted, not solved against; the bidual's is
    # the primal's own, so it solves nothing (the 7 invert calls are pinned
    # above).  gram_matrix: phi and psi on both sides, and the psi_hat one
    # of verify's pairing check
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, fn in (("gram_matrix", modular.gram_matrix), ("solve", linalg.solve),
                     ("modular_element", modular.modular_element),
                     ("modular_automorphism", modular.modular_automorphism),
                     ("scaling_constant", modular.scaling_constant)):
        for module in (duality, hopf, identities, linalg, modular, verify):
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    assert full_report_text(builtin("taft-3"))[1]
    assert calls == collections.Counter(gram_matrix=5, solve=0, modular_element=2,
                                        modular_automorphism=4, scaling_constant=2)


def test_broken_transposition_fails_only_the_structure_iso(monkeypatch, paired, suite_reports):
    sys = paired("taft-3")
    sys.swapped()  # built before the transposition breaks

    def perturbed(h):
        # one cell of the transposed product table, its first term moved by 1
        mul, unit, comul, counit, antipode = duality.dual_structure(h)
        i, j = next((i, j) for i, row in enumerate(mul) for j, cell in enumerate(row) if cell)
        (k, x), *rest = mul[i][j]
        row = mul[i][:j] + (((k, x + h.field.one()), *rest),) + mul[i][j + 1:]
        return mul[:i] + (row,) + mul[i + 1:], unit, comul, counit, antipode

    monkeypatch.setattr(verify, "dual_structure", perturbed)
    lines = run_all_checks(sys).lines()
    expected = suite_reports("taft-3").lines()
    assert expected[-1] == "bidual-structure-iso taft-3 PASS"
    assert lines == expected[:-1] + [
        "bidual-structure-iso taft-3 FAIL bidual structure constants differ from the primal"]


# -- the per-basis loops the suites once ran, kept as a reference -------------

def _mismatch(where, lhs, rhs):
    return f"at {where}: lhs={lhs} rhs={rhs}"


def _columns_mismatches(h, lhs_columns, rhs_columns):
    """Where two lists of dense coordinate columns differ, in basis order."""
    return [_mismatch(f"a={h.basis_names[i]}", h.format_element(li), h.format_element(ri))
            for i, (li, ri) in enumerate(zip(lhs_columns, rhs_columns)) if li != ri]


def _reference_pairing(sys):
    h = sys.primal
    md = sys.primal_modular
    dhat = list(sys.dual_modular.delta)
    dhat_inv = list(sys.dual_modular.delta_inv)
    counit = list(h.counit)
    rows = (
        ("pair-dhat-sigma-inv", dhat, sys.operator("sigmainv").apply_row(counit)),
        ("pair-dhat-sigmap-inv", dhat, sys.operator("sigmapinv").apply_row(counit)),
        ("pair-dhatinv-sigma", dhat_inv, md.sigma.apply_row(counit)),
        ("pair-dhatinv-sigmap", dhat_inv, md.sigma_prime.apply_row(counit)),
    )
    return [(identity, h.name,
             [_mismatch(f"a={h.basis_names[i]}", pair_side[i], counit_side[i])
              for i in range(h.dim) if pair_side[i] != counit_side[i]])
            for identity, pair_side, counit_side in rows]


def _reference_adjoints(sys):
    """The four adjoints list their mismatches as (a index, b index,
    witness) in the order of the loop, b first; the unit reduction lists its
    witnesses in basis order."""
    h, dual, md = sys.primal, sys.dual, sys.primal_modular
    dhat = list(sys.dual_modular.delta)
    dhat_inv = list(sys.dual_modular.delta_inv)
    s2 = sys.operator("S2", "Ahat")
    s2_inv = sys.operator("Sinv2", "Ahat")
    cases = (
        ("sigma-adjoint", md.sigma, lambda b: multiply(dual, s2.apply(b), dhat_inv)),
        ("sigma-inv-adjoint", sys.operator("sigmainv"),
         lambda b: multiply(dual, s2_inv.apply(b), dhat)),
        ("sigmap-adjoint", md.sigma_prime,
         lambda b: multiply(dual, dhat_inv, s2_inv.apply(b))),
        ("sigmap-inv-adjoint", sys.operator("sigmapinv"),
         lambda b: multiply(dual, dhat, s2.apply(b))),
    )
    out = []
    for identity, auto, rhs_map in cases:
        mismatches = []
        for j in range(dual.dim):
            rhs_col = rhs_map(basis_column(dual, j))
            for i in range(h.dim):
                lhs = auto.column(i)[j]  # <auto(e_i), f_j>
                if lhs != rhs_col[i]:
                    mismatches.append((i, j, _mismatch(
                        f"a={h.basis_names[i]}, b={dual.basis_names[j]}", lhs, rhs_col[i])))
        out.append((identity, h.name, mismatches))
    reduced = multiply(dual, s2.apply(dual.unit_column()), dhat_inv)
    counit_sigma = md.sigma.apply_row(list(h.counit))
    out.append(("adjoint-unit-reduction", h.name,
                [_mismatch(f"a={h.basis_names[i]}", counit_sigma[i], reduced[i])
                 for i in range(h.dim) if counit_sigma[i] != reduced[i]]))
    return out


def _reference_radford(sys):
    h, md = sys.primal, sys.primal_modular
    delta, delta_inv = list(md.delta), list(md.delta_inv)
    dhat = list(sys.dual_modular.delta)
    dhat_inv = list(sys.dual_modular.delta_inv)
    basis = [basis_column(h, i) for i in range(h.dim)]
    s2, s2_inv = sys.operator("S2"), sys.operator("Sinv2")
    sandwich = [multiply(h, multiply(h, delta_inv, reference_action(
                    sys, "racthat", reference_action(sys, "lacthat", dhat, a), dhat_inv)), delta)
                for a in basis]
    s4_matrix = sys.operator("S2").pow(2)
    s4 = _columns_mismatches(h, [s4_matrix.column(i) for i in range(h.dim)], sandwich)
    sigma = _columns_mismatches(
        h, [md.sigma.column(i) for i in range(h.dim)],
        [reference_action(sys, "lacthat", dhat_inv, s2.column(i)) for i in range(h.dim)])
    sigmap = _columns_mismatches(
        h, [md.sigma_prime.column(i) for i in range(h.dim)],
        [reference_action(sys, "racthat", s2_inv.column(i), dhat_inv) for i in range(h.dim)])
    scaling = _columns_mismatches(
        h, [reference_action(sys, "lacthat", dhat, multiply(h, delta, a)) for a in basis],
        [[md.tau * c for c in multiply(h, delta, reference_action(sys, "lacthat", dhat, a))]
         for a in basis])
    return [("s4-sandwich", h.name, s4), ("sigma-from-action", h.name, sigma),
            ("sigmap-from-action", h.name, sigmap), ("delta-action-scaling", h.name, scaling),
            ("s4-intro-dictionary", h.name, s4)]


def _reference_dual_radford(sys):
    dual = sys.dual
    delta = list(sys.primal_modular.delta)
    delta_inv = list(sys.primal_modular.delta_inv)
    dhat = list(sys.dual_modular.delta)
    dhat_inv = list(sys.dual_modular.delta_inv)
    sandwich = [multiply(dual, multiply(dual, dhat_inv, reference_action(
                    sys, "ract", reference_action(sys, "lact", delta, basis_column(dual, j)),
                    delta_inv)), dhat)
                for j in range(dual.dim)]
    s4 = sys.operator("S2", "Ahat").pow(2)
    transported = _columns_mismatches(dual, [s4.column(j) for j in range(dual.dim)], sandwich)
    return [("s4-dual-transported", dual.name, transported)] + _reference_radford(sys.swapped())


def _reference_lines(sys):
    """(id, algebra, witnesses of every failing basis element or pair) for
    each line of the four suites before biduality, in report order."""
    return (_reference_pairing(sys) + _reference_adjoints(sys) + _reference_radford(sys)
            + _reference_dual_radford(sys))


ADJOINT_IDS = ("sigma-adjoint", "sigma-inv-adjoint", "sigmap-adjoint", "sigmap-inv-adjoint")


def _assert_suites_match_reference(sys):
    """Each suite line against the reference loop: the same verdict, and the
    same witness, except that for the two-variable adjoints the witness is
    the reference's failure least in (a, b) order, where the loop reported
    its first in (b, a) order."""
    results = run_all_checks(sys).checks
    reference = _reference_lines(sys)
    assert [r.check for r in results[:len(reference)]] == [ref[0] for ref in reference]
    failed = set()
    for result, (identity, algebra, mismatches) in zip(results, reference):
        where = (sys.primal.name, identity)
        assert (result.check, result.algebra) == (identity, algebra), where
        assert result.passed == (not mismatches), where
        if result.passed:
            assert result.witness == "", where
            continue
        failed.add(identity)
        if identity in ADJOINT_IDS:
            assert result.witness in [text for _, _, text in mismatches], where
            assert result.witness == min(mismatches)[2], where
        else:
            assert result.witness == mismatches[0], where
    return failed


def _tampered(sys):
    pm, dm = sys.primal_modular, sys.dual_modular
    return {
        "dhat-swapped": dataclasses.replace(sys, dual_modular=dataclasses.replace(
            dm, delta=dm.delta_inv, delta_inv=dm.delta)),
        "sigma-swapped": dataclasses.replace(sys, primal_modular=dataclasses.replace(
            pm, sigma=pm.sigma_prime, sigma_prime=pm.sigma)),
        "tau-negated": dataclasses.replace(sys, primal_modular=dataclasses.replace(
            pm, tau=-pm.tau)),
    }


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_suites_match_the_per_basis_reference(paired, name):
    base = pair_system(build_taft(5)) if name == "taft-5" else paired(name)
    for sys in (base, base.swapped()):
        assert _assert_suites_match_reference(sys) == set(), sys.primal.name


def test_tampered_systems_match_the_per_basis_reference(paired):
    failed = set()
    for name in ("sweedler", "taft-3", "taft-4"):
        for sys in _tampered(paired(name)).values():
            failed |= _assert_suites_match_reference(sys)
    # the tampering reaches a pairing line, an adjoint and a Radford line
    assert failed & {"pair-dhat-sigma-inv", "pair-dhatinv-sigma", "pair-dhatinv-sigmap",
                     "pair-dhat-sigmap-inv"}
    assert failed & set(ADJOINT_IDS)
    assert failed & {"s4-sandwich", "sigma-from-action", "sigmap-from-action",
                     "delta-action-scaling"}


def _reference_biduality_witness(sys):
    """The first failure of psi_hat(w' w) = w'(S^-1(a)) for w = phi(. a),
    by one product in the dual per basis pair, w outer and w' inner."""
    dual = sys.dual
    b_phi_inv = sys.primal_modular.phi_gram_inv
    s_inv = invert(sys.primal.antipode)
    for i in range(dual.dim):
        s_inv_a = s_inv.apply(b_phi_inv.column(i))  # phi(. a_i) is the i-th dual basis vector
        for j in range(dual.dim):
            product = multiply(dual, basis_column(dual, j), basis_column(dual, i))
            lhs = pairing_value(product, sys.dual_modular.psi)
            if lhs != s_inv_a[j]:
                return (f"at w={dual.basis_names[i]}, w'={dual.basis_names[j]}: "
                        f"lhs={lhs} rhs={s_inv_a[j]}")
    return ""


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["taft-5"])
def test_biduality_matches_the_dense_reference(paired, name):
    base = pair_system(build_taft(5)) if name == "taft-5" else paired(name)
    for sys in (base, base.swapped()):
        result = biduality_check(sys).checks[0]
        assert result.passed and result.witness == "", sys.primal.name
        assert _reference_biduality_witness(sys) == "", sys.primal.name


@pytest.mark.parametrize("name", ["sweedler", "taft-3", "taft-4"])
def test_tampered_biduality_matches_the_dense_reference(paired, name):
    sys = paired(name)
    field, pm, dm = sys.primal.field, sys.primal_modular, sys.dual_modular
    tampered = {
        "psi-hat-doubled": dataclasses.replace(sys, dual_modular=dataclasses.replace(
            dm, psi=tuple(field.scalar(2) * x for x in dm.psi))),
        "phi-gram-inverse-identity": dataclasses.replace(sys, primal_modular=dataclasses.replace(
            pm, phi_gram_inv=Matrix.identity(field, sys.primal.dim))),
    }
    for label, system in tampered.items():
        result = biduality_check(system).checks[0]
        witness = _reference_biduality_witness(system)
        assert witness, (name, label)
        assert not result.passed and result.witness == witness, (name, label)


SUITE_TO_CORPUS = {
    "pair-dhat-sigma-inv": "dhat_pairing_sigmainv",
    "pair-dhat-sigmap-inv": "dhat_pairing_sigmapinv",
    "pair-dhatinv-sigma": "dhatinv_pairing_sigma",
    "pair-dhatinv-sigmap": "dhatinv_pairing_sigmap",
    "sigma-adjoint": "sigma_adjoint",
    "sigma-inv-adjoint": "sigmainv_adjoint",
    "sigmap-adjoint": "sigmap_adjoint",
    "sigmap-inv-adjoint": "sigmapinv_adjoint",
    "sigma-from-action": "sigma_action",
    "sigmap-from-action": "sigmap_action",
    "delta-action-scaling": "delta_action_scaling",
    "s4-sandwich": "radford",
}
SUITE_ONLY = ("adjoint-unit-reduction", "s4-dual-transported")


def test_suite_programs_are_the_corpus_programs():
    corpus = {p.name: p for p in identities.standard_corpus()}
    suites = dict(verify.PAIRING + verify.ADJOINTS + verify.RADFORD + verify.DUAL_RADFORD)
    assert set(suites) == set(SUITE_TO_CORPUS) | set(SUITE_ONLY)
    for suite_id, corpus_name in SUITE_TO_CORPUS.items():
        assert suites[suite_id] is corpus[corpus_name], suite_id
    # the two statements written out in verify.py are not stated in the corpus
    stated = {(p.decls, p.lhs, p.rhs) for p in corpus.values()}
    for suite_id in SUITE_ONLY:
        prog = suites[suite_id]
        assert (prog.decls, prog.lhs, prog.rhs) not in stated, suite_id


def test_full_report_decides_each_statement_once(monkeypatch):
    calls = {"asked": 0, "decided": 0}
    decision, decide = identities.decision, identities._decide

    def counted_decision(prog, sys):
        calls["asked"] += 1
        return decision(prog, sys)

    def counted_decide(prog, sys):
        calls["decided"] += 1
        return decide(prog, sys)

    monkeypatch.setattr(identities, "decision", counted_decision)
    monkeypatch.setattr(verify, "decision", counted_decision)
    monkeypatch.setattr(identities, "_decide", counted_decide)
    text, ok = full_report_text(builtin("taft-3"))
    assert ok
    # 18 suite statements (the intro dictionary reuses the sandwich) and 29
    # corpus entries, of which 12 repeat a suite statement on the same system
    assert calls == {"asked": 47, "decided": 35}


def test_decisions_are_kept_per_system(monkeypatch):
    # swapped() is an involution: the double dual is sys itself, so it
    # decides nothing again
    sys = pair_system(builtin("sweedler"))
    double = sys.swapped().swapped()
    assert double is sys
    check_radford(sys)
    decided = []
    decide = identities._decide

    def recorded(prog, on):
        decided.append(on)
        return decide(prog, on)

    monkeypatch.setattr(identities, "_decide", recorded)
    check_radford(sys)
    check_radford(double)
    assert decided == []
    tampered = dataclasses.replace(sys, primal_modular=dataclasses.replace(
        sys.primal_modular, tau=-sys.primal_modular.tau))
    assert not check_radford(tampered).ok
