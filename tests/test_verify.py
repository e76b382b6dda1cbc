import dataclasses
import re

from hopfcheck import duality, hopf, linalg, modular, verify
from hopfcheck.catalog import builtin
from hopfcheck.cli import full_report_text
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Tensor3
from hopfcheck.verify import (biduality_check, check_dual_modular_pairing,
                              check_dual_radford, check_modular_adjoints, check_radford,
                              run_all_checks, verify_algebra)

from conftest import BUILTIN_NAMES

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
        assert report.ok, "\n".join(r.line() for r in report.results if not r.passed)
        assert [r.check for r in report.results] == EXPECTED_IDS


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
    failing = [r for r in radford.results if not r.passed]
    assert any("at a=" in r.witness for r in failing)
    pairing = check_dual_modular_pairing(swapped)
    assert not pairing.ok


def test_dual_side_suite_runs_on_swapped_system(paired):
    report = check_dual_radford(paired("sweedler"))
    assert report.ok
    algebras = {r.algebra for r in report.results}
    assert algebras == {"dual(sweedler)"}


def test_biduality_suite(paired):
    for name in ("group-z6", "functions-s3", "taft-3"):
        assert biduality_check(paired(name)).ok


def test_adjoint_suite_alone(paired):
    assert check_modular_adjoints(paired("taft-4")).ok


def test_verify_algebra_entry_point():
    from hopfcheck.catalog import build_sweedler
    report = verify_algebra(build_sweedler())
    assert report.ok and len(report.results) == len(EXPECTED_IDS)


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
    # itself, so primal and dual are validated once each.  invert: one per
    # validation (the operator S^-1 on both sides reads it), the two Gram
    # matrices (of phi and psi) of the primal and of the dual, and 2 operator
    # inverses (sigma, sigma'); the bidual side scales the primal's Gram
    # inverses by its integral's scalar, and dual_integrals checks its
    # pairing formula through sigma, not its inverse
    assert calls == {"build_dual": 1, "validations": 2, "invert": 8}


def test_broken_transposition_fails_only_the_structure_iso(monkeypatch, paired, suite_reports):
    sys = paired("taft-3")
    sys.swapped()  # built before the transposition breaks

    def perturbed(h):
        mul, unit, comul, counit, antipode = duality.dual_structure(h)
        terms = dict(mul.terms)
        key = next(iter(terms))
        terms[key] = terms[key] + h.field.one()
        return Tensor3(h.field, h.dim, terms), unit, comul, counit, antipode

    monkeypatch.setattr(verify, "dual_structure", perturbed)
    lines = run_all_checks(sys).lines()
    expected = suite_reports("taft-3").lines()
    assert expected[-1] == "bidual-structure-iso taft-3 PASS"
    assert lines == expected[:-1] + [
        "bidual-structure-iso taft-3 FAIL bidual structure constants differ from the primal"]
