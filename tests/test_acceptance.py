"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every equality below is exact (tolerance zero); the only numeric thresholds
are the two wall-clock budgets.  The builtin roster is fixed: group algebras
of Z/2, Z/6, S3, their function algebras, the 4-dimensional skew-primitive
algebra, and the n = 2, 3, 4 members of the cyclotomic family.
"""

import time
from importlib import resources

from hopfcheck.catalog import builtin
from hopfcheck.cli import full_report_text, matrix_order
from hopfcheck.hopf import galois_maps
from hopfcheck.identities import evaluate, evaluate_corpus, parse_corpus
from hopfcheck.linalg import Matrix, invert
from hopfcheck.modular import gram_matrix, right_integral

from conftest import (BUILTIN_NAMES, basis_column, bilinear, integral_space_dimensions, multiply,
                      pairing_value)

_T0 = time.monotonic()

GROUP_ALGEBRAS = ("group-z2", "group-z6", "group-s3")
UNIMODULAR = GROUP_ALGEBRAS + ("functions-z2", "functions-z6", "functions-s3")
ANTIPODE_ORDERS = {"sweedler": 4, "taft-2": 4, "taft-3": 6, "taft-4": 8}


def _report(num, desc, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _corpus(name="standard.ids"):
    text = resources.files("hopfcheck").joinpath(f"corpus/{name}").read_text("utf-8")
    return parse_corpus(text)


def test_criterion_01_axiom_suite():
    t0 = time.monotonic()
    ok = True
    for name in BUILTIN_NAMES:
        h = builtin(name)
        ok = ok and h.validate().ok
        galois_maps(h)  # raises when a canonical tensor-square map is singular
    elapsed = time.monotonic() - t0
    _report(1, f"validate + regularity on all {len(BUILTIN_NAMES)} builtins "
               f"({elapsed:.1f}s < 10s)", ok and elapsed < 10.0)


def test_criterion_02_integral_uniqueness(algebras):
    ok = all(integral_space_dimensions(algebras[name]) == (1, 1) for name in BUILTIN_NAMES)
    _report(2, "left/right invariant solution spaces are exactly 1-dimensional", ok)


def test_criterion_03_modular_coherence(paired):
    ok = True
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h, md = sys.primal, sys.primal_modular
        delta, delta_inv = list(md.delta), list(md.delta_inv)
        # group-likeness of the modular element
        ok = ok and h.coproduct(delta) == h.tensor_product_columns(delta, delta)
        ok = ok and h.counit_of(delta).is_one()
        ok = ok and h.antipode.apply(delta) == delta_inv
        # antipode swaps the automorphisms
        ok = ok and h.antipode * md.sigma_prime == invert(md.sigma) * h.antipode
        s2 = h.antipode.pow(2)
        s2_inv = invert(h.antipode).pow(2)
        sp_inv = invert(md.sigma_prime)
        for i in range(h.dim):
            ei = basis_column(h, i)
            sig_i = md.sigma.column(i)
            # weak KMS on all pairs
            for j in range(h.dim):
                ej = basis_column(h, j)
                ok = ok and pairing_value(multiply(h, ei, ej), md.phi) == \
                    pairing_value(multiply(h, ej, sig_i), md.phi)
                ok = ok and pairing_value(multiply(h, ei, ej), md.psi) == \
                    pairing_value(multiply(h, ej, md.sigma_prime.column(i)), md.psi)
            # modular element intertwines the automorphisms
            ok = ok and multiply(h, delta, sig_i) == multiply(h, md.sigma_prime.column(i), delta)
            # the three coproduct twists
            ok = ok and h.coproduct(md.sigma.apply(ei)) == _twist(h, ei, s2, md.sigma)
            ok = ok and h.coproduct(md.sigma_prime.apply(ei)) == _twist(h, ei, md.sigma_prime, s2_inv)
            ok = ok and h.coproduct(s2.apply(ei)) == _twist(h, ei, md.sigma, sp_inv)
        if not ok:
            break
    _report(3, "weak KMS, group-like modular element, antipode swap, "
               "intertwining, and all three coproduct twists", ok)


def _twist(h, column, left, right):
    out = {}
    for (j, k), c in h.coproduct(column).items():
        for a, ca in enumerate(left.column(j)):
            if ca.is_zero():
                continue
            for b, cb in enumerate(right.column(k)):
                if not cb.is_zero():
                    key = (a, b)
                    out[key] = out.get(key, h.field.zero()) + c * ca * cb
    return {k: v for k, v in out.items() if not v.is_zero()}


def _suite_passed(report, identity, algebra):
    return any(r.check == identity and r.algebra == algebra and r.passed
               for r in report.checks)


def test_criterion_04_pairing_and_adjoint_formulas(paired, suite_reports):
    ok = True
    ids = ("pair-dhat-sigma-inv", "pair-dhat-sigmap-inv", "pair-dhatinv-sigma",
           "pair-dhatinv-sigmap", "sigma-adjoint", "sigma-inv-adjoint",
           "sigmap-adjoint", "sigmap-inv-adjoint", "adjoint-unit-reduction")
    for name in BUILTIN_NAMES:
        report = suite_reports(name)
        for identity in ids:
            ok = ok and _suite_passed(report, identity, name)
    _report(4, "dual-modular pairing chains and their adjoint forms "
               "(unit substitution reduces one to the other)", ok)


def test_criterion_05_fourth_power_formula(paired, suite_reports):
    ok = True
    for name in BUILTIN_NAMES:
        ok = ok and _suite_passed(suite_reports(name), "s4-sandwich", name)
    for name, order in ANTIPODE_ORDERS.items():
        s = paired(name).primal.antipode
        ok = ok and matrix_order(s) == order
    for name in ("taft-3", "taft-4"):
        h = paired(name).primal
        ok = ok and h.antipode.pow(4) != Matrix.identity(h.field, h.dim)
    # hand-verifiable witness on the 4-dimensional algebra, basis (1, x, g, gx)
    sys = paired("sweedler")
    h = sys.primal
    x, g = basis_column(h, 1), basis_column(h, 2)
    dhat = list(sys.dual_modular.delta)
    dhat_inv = list(sys.dual_modular.delta_inv)
    ok = ok and list(sys.primal_modular.delta) == g
    ok = ok and pairing_value(g, dhat) == h.field.scalar(-1)
    sandwich_core = bilinear(sys.action_table("racthat"),
                             bilinear(sys.action_table("lacthat"), dhat, x), dhat_inv)
    ok = ok and sandwich_core == [-c for c in x]
    conjugated = multiply(h, multiply(h, g, sandwich_core), g)  # g is its own inverse
    ok = ok and conjugated == x == h.antipode.pow(4).column(1)
    _report(5, "fourth antipode power equals the modular sandwich exactly "
               "(antipode orders 4/4/6/8; nontrivial witnesses have S^4 != id)", ok)


def test_criterion_06_dual_integral_cross_checks(paired):
    ok = True
    for name in BUILTIN_NAMES:
        sys = paired(name)
        h = sys.primal
        # route 1: the defining normalization psi_hat(phi(. a)) = counit(a)
        b = gram_matrix(h, sys.primal_modular.phi)
        psi_hat = sys.dual_modular.psi
        for i in range(h.dim):
            ok = ok and pairing_value(b.column(i), psi_hat) == h.counit[i]
        # route 2: the invariance nullspace on the dual, up to one scalar
        solved = right_integral(sys.dual)
        ratio = None
        for r, x in zip(solved, psi_hat):
            if not r.is_zero():
                ratio = x / r
                break
        ok = ok and ratio is not None and not ratio.is_zero()
        ok = ok and list(psi_hat) == [ratio * c for c in solved]
        # the dual modular element agrees with the counit-pairing route
        route = invert(sys.primal_modular.sigma).apply_row(list(h.counit))
        ok = ok and list(sys.dual_modular.delta) == route
    _report(6, "dual integral from the defining formula matches the "
               "invariance solve; dual modular element agrees on two routes", ok)


def test_criterion_07_biduality(suite_reports):
    ok = True
    for name in BUILTIN_NAMES:
        report = suite_reports(name)
        ok = ok and _suite_passed(report, "bidual-pairing-formula", name)
        ok = ok and _suite_passed(report, "bidual-structure-iso", name)
    _report(7, "biduality pairing formula on all pairs and exact "
               "structure-constant isomorphism with the bidual", ok)


def test_criterion_08_dual_side_fourth_power(paired, suite_reports):
    ok = True
    for name in BUILTIN_NAMES:
        report = suite_reports(name)
        dual_name = paired(name).dual.name
        ok = ok and _suite_passed(report, "s4-dual-transported", dual_name)
        ok = ok and _suite_passed(report, "s4-sandwich", dual_name)
    _report(8, "transported fourth-power identity passes on every dual", ok)


def test_criterion_09_special_case_corollaries(paired):
    ok = True
    for name in GROUP_ALGEBRAS:
        sys = paired(name)
        ident = Matrix.identity(sys.primal.field, sys.primal.dim)
        ok = ok and sys.primal_modular.sigma == ident          # integral is a trace
        ok = ok and list(sys.dual_modular.delta) == sys.dual.unit_column()
        ok = ok and sys.primal.antipode.pow(2) == ident
    for name in UNIMODULAR:
        sys = paired(name)
        ok = ok and list(sys.primal_modular.delta) == sys.primal.unit_column()
        ok = ok and list(sys.dual_modular.delta) == sys.dual.unit_column()
        ok = ok and sys.dual_modular.sigma == sys.dual.antipode.pow(2)
    _report(9, "trace integrals force trivial dual modular element and "
               "S^2 = id; unimodular duals have sigma-hat = S^2", ok)


CORPUS_TO_SUITE = {
    "dhat_pairing_sigmainv": "pair-dhat-sigma-inv",
    "dhat_pairing_sigmapinv": "pair-dhat-sigmap-inv",
    "dhatinv_pairing_sigma": "pair-dhatinv-sigma",
    "dhatinv_pairing_sigmap": "pair-dhatinv-sigmap",
    "sigma_adjoint": "sigma-adjoint",
    "sigmainv_adjoint": "sigma-inv-adjoint",
    "sigmap_adjoint": "sigmap-adjoint",
    "sigmapinv_adjoint": "sigmap-inv-adjoint",
    "sigma_action": "sigma-from-action",
    "sigmap_action": "sigmap-from-action",
    "delta_action_scaling": "delta-action-scaling",
    "radford": "s4-sandwich",
}


def test_criterion_10_dsl_equivalence(paired, suite_reports):
    ok = True
    programs = _corpus()
    for name in BUILTIN_NAMES:
        outcomes = {o.check: o for o in evaluate_corpus(programs, paired(name))}
        ok = ok and all(o.passed for o in outcomes.values())
        report = suite_reports(name)
        for corpus_name, suite_id in CORPUS_TO_SUITE.items():
            ok = ok and outcomes[corpus_name].passed == _suite_passed(report, suite_id, name)
    trap = next(p for p in _corpus("convention_traps.ids") if p.name == "radford_swapped")
    outcome = evaluate(trap, paired("taft-3"))
    ok = ok and not outcome.passed and "a=x" in outcome.witness
    _report(10, "corpus outcomes match the hard-coded suites; the "
                "swapped-convention entry fails with a counterexample", ok)


def test_criterion_11_determinism_and_runtime():
    ok = True
    for name in BUILTIN_NAMES:
        first, ok1 = full_report_text(builtin(name))
        second, ok2 = full_report_text(builtin(name))
        ok = ok and ok1 and ok2 and first == second
    elapsed = time.monotonic() - _T0
    ok = ok and elapsed < 120.0
    _report(11, f"byte-identical consecutive full reports; acceptance "
                f"wall clock {elapsed:.1f}s < 120s", ok)
