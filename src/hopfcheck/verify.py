"""The identity suites for the modular-duality identities.

Each suite is a table of (id, program) pairs in the identity language of
identities.py, decided by identities.decision on every basis assignment,
with one machine-readable line per identity:
"<identity-id> <algebra-name> PASS|FAIL [witness]".  Where the bundled
corpus states the identity, the program is the corpus's own, from
identities.standard_corpus, so the suite and the corpus share its decision
on each system; only two statements are written here.  The headline suite
culminates in the fourth-power antipode formula

    S^4(a) = delta^-1 (delta_hat -> a <- delta_hat^-1) delta

together with the formulas feeding its proof and the transported
(dual-side) form.  Only biduality_check is written out by hand: the
language cannot name the columns of a Gram inverse or compare structure
constants.
"""

from __future__ import annotations

from dataclasses import replace

from .duality import PairedSystem, dual_structure
from .hopf import CheckResult, ValidationReport
from .identities import decision, parse_identity, standard_corpus
from .modular import gram_matrix

_CORPUS = {prog.name: prog for prog in standard_corpus()}

PAIRING = (
    ("pair-dhat-sigma-inv", _CORPUS["dhat_pairing_sigmainv"]),
    ("pair-dhat-sigmap-inv", _CORPUS["dhat_pairing_sigmapinv"]),
    ("pair-dhatinv-sigma", _CORPUS["dhatinv_pairing_sigma"]),
    ("pair-dhatinv-sigmap", _CORPUS["dhatinv_pairing_sigmap"]),
)

ADJOINTS = (
    ("sigma-adjoint", _CORPUS["sigma_adjoint"]),
    ("sigma-inv-adjoint", _CORPUS["sigmainv_adjoint"]),
    ("sigmap-adjoint", _CORPUS["sigmap_adjoint"]),
    ("sigmap-inv-adjoint", _CORPUS["sigmapinv_adjoint"]),
    ("adjoint-unit-reduction", parse_identity(
        "adjoint_unit_reduction: forall a in A . eps(sigma(a)) = <a, S2(onehat) * dhatinv>")),
)

RADFORD = (
    ("s4-sandwich", _CORPUS["radford"]),
    ("sigma-from-action", _CORPUS["sigma_action"]),
    ("sigmap-from-action", _CORPUS["sigmap_action"]),
    ("delta-action-scaling", _CORPUS["delta_action_scaling"]),
)

DUAL_RADFORD = (
    ("s4-dual-transported", parse_identity(
        "s4_dual_transported: forall a in Ahat . "
        "S(S(S(S(a)))) = dhatinv * lact(delta, ract(a, deltainv)) * dhat")),
)


def _run(sys: PairedSystem, suite, algebra=None):
    """One result per (id, program) of suite, reported under id and
    algebra, the primal's name by default."""
    return tuple(CheckResult(check, algebra or sys.primal.name, *decision(prog, sys))
                 for check, prog in suite)


def check_dual_modular_pairing(sys: PairedSystem) -> ValidationReport:
    """<a, delta_hat> = counit(sigma^-1(a)) = counit(sigma'^-1(a)) and the
    inverse-side companions."""
    return ValidationReport(_run(sys, PAIRING))


def check_modular_adjoints(sys: PairedSystem) -> ValidationReport:
    """The pairing transposes of the modular automorphisms, and the unit of
    the dual substituted for b, which gives back a pairing formula."""
    return ValidationReport(_run(sys, ADJOINTS))


def check_radford(sys: PairedSystem) -> ValidationReport:
    """The fourth-power formula, the two action formulas for the modular
    automorphisms that drive its proof, and the tau-scaled commutation of
    the delta_hat action with multiplication by delta (the action picks up
    exactly one factor tau)."""
    results = _run(sys, RADFORD)
    # the classical statement S^4(a) = g (alpha -> a <- alpha^-1) g^-1 with
    # distinguished group-likes g and alpha is the same identity under the
    # dictionary g = delta^-1, alpha = dhat; it is reported as its own line
    return ValidationReport(results + (replace(results[0], check="s4-intro-dictionary"),))


def check_dual_radford(sys: PairedSystem) -> ValidationReport:
    """Self-duality: the transported form

        S^4(b) = dhat^-1 (delta -> b <- delta^-1) dhat    for b in the dual

    plus the full fourth-power suite re-run on the swapped system."""
    return ValidationReport(_run(sys, DUAL_RADFORD, sys.dual.name)
                            + check_radford(sys.swapped()).checks)


def biduality_check(sys: PairedSystem) -> ValidationReport:
    """The defining biduality formula and the canonical isomorphism.

    For w = phi(. a) the dual right integral satisfies
    psi_hat(w' w) = w'(S^-1(a)).  phi(. a_i) is the i-th column of the
    inverse Gram matrix of phi, so on dual basis vectors w_i and w_j the
    left side is entry (j, i) of the Gram matrix of psi_hat and the right
    side entry (j, i) of S^-1 times that inverse: the formula is an
    equality of two matrices, compared column by column.  Transposing the
    dual's tables (dual_structure) gives exactly the primal's tables under
    the canonical basis matching, which is the evaluation map in
    coordinates."""
    h = sys.primal
    dual = sys.dual
    lhs = gram_matrix(dual, sys.dual_modular.psi)
    rhs = sys.operator("Sinv") * sys.primal_modular.phi_gram_inv

    def mismatches():
        for i in range(dual.dim):
            for j, (x, y) in enumerate(zip(lhs.column(i), rhs.column(i))):
                if x != y:
                    yield (f"at w={dual.basis_names[i]}, w'={dual.basis_names[j]}: "
                           f"lhs={x} rhs={y}")

    witness = next(mismatches(), "")
    iso_ok = dual_structure(dual) == (h.mul_terms, h.unit, h.comul_terms, h.counit, h.antipode)
    return ValidationReport((
        CheckResult("bidual-pairing-formula", h.name, not witness, witness),
        CheckResult("bidual-structure-iso", h.name, iso_ok,
                    "" if iso_ok else "bidual structure constants differ from the primal")))


def run_all_checks(sys: PairedSystem) -> ValidationReport:
    """Every suite, in a fixed order."""
    suites = (check_dual_modular_pairing, check_modular_adjoints, check_radford,
              check_dual_radford, biduality_check)
    return ValidationReport(tuple(r for suite in suites for r in suite(sys).checks))
