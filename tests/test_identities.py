from fractions import Fraction
from importlib import resources
from itertools import product as cartesian

import pytest

from hopfcheck.hopf import HopfAlgebra
from hopfcheck.identities import (Apply, DslLegError, DslLinearityError, DslSortError,
                                  DslSyntaxError, Pairing, Product, ScalarLit, Var, evaluate,
                                  evaluate_corpus, evaluate_side,
                                  parse_corpus, parse_identity, pretty)

from conftest import BUILTIN_NAMES


def corpus(name="standard.ids"):
    text = resources.files("hopfcheck").joinpath(f"corpus/{name}").read_text("utf-8")
    return parse_corpus(text)


def test_parse_kms_entry():
    p = parse_identity("kms: forall a in A, b in A . phi(a*b) = phi(b*sigma(a))")
    assert p.name == "kms"
    assert p.decls == (("a", "A"), ("b", "A"))
    assert p.sort == "scalar"
    assert p.lhs == Apply("phi", (Product((Var("a"), Var("b"))),))


def test_parse_radford_entry():
    src = ("radford: forall a in A . S(S(S(S(a)))) = "
           "deltainv * lacthat(dhat, racthat(a, dhatinv)) * delta")
    p = parse_identity(src)
    assert p.sort == "A"
    assert pretty(p.lhs) == "S(S(S(S(a))))"


def test_juxtaposition_is_multiplication():
    a = parse_identity("j: forall a in A, b in A . a b = a * b")
    assert a.lhs == a.rhs == Product((Var("a"), Var("b")))
    inner = parse_identity("k: forall a in A, b in A, y in Ahat . <a b, y> = <a * b, y>")
    assert inner.lhs == inner.rhs


def test_scalar_literals():
    p = parse_identity("s: forall a in A . 1/2 * a = 1/2 a")
    assert p.lhs == Product((ScalarLit(Fraction(1, 2)), Var("a")))
    assert p.lhs == p.rhs


def test_legs_parse_and_print():
    p = parse_identity("c: forall a in A . eps(a(1)) * a(2) = a")
    assert p.lhs == Product((Apply("eps", (Var("a", 1),)), Var("a", 2)))
    assert p.rhs == Var("a")
    q = parse_identity(p.pretty())
    assert (q.lhs, q.rhs) == (p.lhs, p.rhs)


def test_pretty_roundtrip_on_corpus():
    for p in corpus():
        q = parse_identity(p.pretty())
        assert (q.name, q.decls, q.lhs, q.rhs) == (p.name, p.decls, p.lhs, p.rhs)


def test_pairing_sort_error():
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A . <a, a> = one")


def test_mixed_product_sort_error():
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A, y in Ahat . a * y = a")


def test_sides_must_share_free_variables():
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A, b in A . a = b")


def test_sides_must_share_sort():
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A . phi(a) = a")


def test_undeclared_variable_rejected():
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A . a * c = c * a")


def test_action_sort_checking():
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A, b in A . lacthat(a, b) = a")
    ok = parse_identity("ok: forall a in A, y in Ahat . lacthat(y, a) = lacthat(y, a)")
    assert ok.sort == "A"


def test_noncontiguous_legs_rejected():
    with pytest.raises(DslLegError):
        parse_identity("bad: forall a in A . eps(a(1)) * a(3) = a")


def test_mixed_bare_and_legged_rejected():
    with pytest.raises(DslLegError):
        parse_identity("bad: forall a in A . a * eps(a(1)) = a")


def test_syntax_errors_carry_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_identity("oops: forall a in A . a = ")
    assert "position" in str(err.value)
    with pytest.raises(DslSyntaxError):
        parse_identity("dup: forall a in A, a in A . a = a")
    with pytest.raises(DslSyntaxError):
        parse_identity("res: forall sigma in A . sigma = sigma")


def test_reserved_arity_checked():
    with pytest.raises(DslSyntaxError):
        parse_identity("bad: forall a in A . S(a, a) = a")
    with pytest.raises(DslSyntaxError):
        parse_identity("bad: forall a in A, y in Ahat . lacthat(y) = a")


def test_corpus_parses_with_comments_and_blocks():
    programs = corpus()
    names = [p.name for p in programs]
    assert "radford" in names and "kms_phi" in names and len(names) >= 25
    assert len(set(names)) == len(names)


def test_counit_law_passes_everywhere(paired):
    prog = parse_identity("counit_left: forall a in A . eps(a(1)) * a(2) = a")
    for name in BUILTIN_NAMES:
        outcome = evaluate(prog, paired(name))
        assert outcome.passed, outcome.line()


def test_full_corpus_passes_on_representatives(paired):
    programs = corpus()
    for name in ("group-s3", "functions-z6", "sweedler", "taft-3"):
        for outcome in evaluate_corpus(programs, paired(name)):
            assert outcome.passed, outcome.line()


def test_swapped_radford_fails_on_taft3_with_counterexample(paired):
    trap = next(p for p in corpus("convention_traps.ids") if p.name == "radford_swapped")
    outcome = evaluate(trap, paired("taft-3"))
    assert not outcome.passed
    assert "a=x" in outcome.witness
    assert "lhs=" in outcome.witness and "rhs=" in outcome.witness
    # the same trap is invisible on sweedler, where dhat has order two
    assert evaluate(trap, paired("sweedler")).passed


def test_scalar_identity_with_literals(paired):
    prog = parse_identity("two: forall a in A . 2 * phi(a) = phi(2 * a)")
    assert evaluate(prog, paired("group-z2")).passed


def test_evaluation_is_multilinear(paired):
    sys = paired("sweedler")
    h = sys.primal
    prog = parse_identity("lin: forall a in A . eps(a(1)) * a(2) = a")
    two, five = h.field.scalar(2), h.field.scalar(5)
    e1, e3 = h.basis_column(1), h.basis_column(3)
    combo = [two * x + five * y for x, y in zip(e1, e3)]
    sort1, v1 = evaluate_side(sys, prog, prog.lhs, {"a": e1})
    sort3, v3 = evaluate_side(sys, prog, prog.lhs, {"a": e3})
    sortc, vc = evaluate_side(sys, prog, prog.lhs, {"a": combo})
    assert sort1 == sort3 == sortc == "A"
    assert vc == [two * x + five * y for x, y in zip(v1, v3)]


def test_outcome_lines_are_machine_readable(paired):
    prog = parse_identity("counit_left: forall a in A . eps(a(1)) * a(2) = a")
    outcome = evaluate(prog, paired("group-z2"))
    assert outcome.line() == "counit_left group-z2 PASS"


@pytest.mark.parametrize("src,slot", [
    ("sq: forall a in A . a * a = a", "a occurs"),
    ("sq: forall a in A . phi(a) * phi(a) = phi(a)", "a occurs"),
    ("leg: forall a in A . a(1) * a(1) * a(2) = a", "a(1) occurs"),
    ("rhs: forall a in A, y in Ahat . <a, y> = <a, y * y>", "y occurs"),
])
def test_repeated_slot_is_rejected(src, slot):
    with pytest.raises(DslLinearityError) as err:
        parse_identity(src)
    assert str(err.value).startswith(src.split(":")[0] + ": " + slot)


def _slow_evaluate(prog, sys):
    """Reference loop: every basis assignment through evaluate_side, which
    computes each side from scratch on coordinate columns."""
    algebras = {"A": sys.primal, "Ahat": sys.dual}
    ranges = [range(algebras[sort].dim) for _, sort in prog.decls]

    def text(value):
        sort, payload = value
        return str(payload) if sort == "scalar" else algebras[sort].format_element(payload)

    for combo in cartesian(*ranges):
        assignment = {var: algebras[sort].basis_column(i)
                      for (var, sort), i in zip(prog.decls, combo)}
        lhs = evaluate_side(sys, prog, prog.lhs, assignment)
        rhs = evaluate_side(sys, prog, prog.rhs, assignment)
        if lhs != rhs:
            names = ", ".join(f"{var}={algebras[sort].basis_names[i]}"
                              for (var, sort), i in zip(prog.decls, combo))
            return False, f"at {names}: lhs={text(lhs)} rhs={text(rhs)}"
    return True, ""


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_evaluate_agrees_with_per_assignment_loop(paired, name):
    sys = paired(name)
    for prog in corpus() + corpus("convention_traps.ids"):
        outcome = evaluate(prog, sys)
        assert (outcome.passed, outcome.witness) == _slow_evaluate(prog, sys), prog.name


def test_subterms_are_computed_once_per_footprint_value(paired, monkeypatch):
    sys = paired("taft-4")
    prog = next(p for p in corpus() if p.name == "twist_sigma")
    calls = {"primal": 0, "dual": 0}
    original = HopfAlgebra.multiply

    def counted(self, a, b):
        calls["dual" if self is sys.dual else "primal"] += 1
        return original(self, a, b)

    monkeypatch.setattr(HopfAlgebra, "multiply", counted)
    assert evaluate(prog, sys).passed
    # y * z has 16 x 16 distinct values; the assignments number 16^3
    assert calls == {"primal": 0, "dual": 256}
