import collections
import random
from fractions import Fraction
from importlib import resources
from itertools import product as cartesian

import pytest

from hopfcheck import identities
from hopfcheck.catalog import builtin
from hopfcheck.duality import pair_system
from hopfcheck.identities import (Apply, Const, DslLegError, DslLinearityError, DslSortError,
                                  DslSyntaxError, Pairing, Product, ScalarLit, Var, evaluate,
                                  evaluate_corpus, evaluate_side,
                                  parse_corpus, parse_identity, pretty)
from hopfcheck.scalars import Scalar
from hopfcheck.verify import run_all_checks

from conftest import (BUILTIN_NAMES, basis_column, iterated_coproduct, multiply, pairing_value,
                      reference_action, reference_sort_check)
from test_gauge import _gauges
from test_hopf import _transported


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
    # an unreadable character is reported where it stands, not at the
    # space before it
    with pytest.raises(DslSyntaxError, match=r"^position 25: cannot read '\$'$"):
        parse_identity("x: forall a in A . a = a $")
    with pytest.raises(DslSyntaxError):
        parse_identity("dup: forall a in A, a in A . a = a")
    with pytest.raises(DslSyntaxError):
        parse_identity("res: forall sigma in A . sigma = sigma")


@pytest.mark.parametrize("digit", ["\u0663", "\uff13"])
def test_only_ascii_digits_are_numbers(digit):
    # the position is the unread character's own, not the space before it
    with pytest.raises(DslSyntaxError, match=rf"^position 19: cannot read '{digit} \* a = 3 '$"):
        parse_identity(f"x: forall a in A . {digit} * a = 3 * a")


def _nested(template, depth):
    """An identity whose left side nests depth brackets around a."""
    open_, close = template
    return f"deep: forall a in A . {open_ * depth}a{close * depth} = a"


NESTINGS = {"parentheses": ("(", ")"), "antipodes": ("S(", ")")}


@pytest.mark.parametrize("kind", list(NESTINGS))
def test_nesting_at_the_bound_evaluates(paired, kind):
    # on sweedler S has order 4, and the bound is a multiple of 4
    assert identities.MAX_NESTING % 4 == 0
    prog = parse_identity(_nested(NESTINGS[kind], identities.MAX_NESTING))
    assert evaluate(prog, paired("sweedler")).passed


@pytest.mark.parametrize("kind", list(NESTINGS))
def test_nesting_past_the_bound_is_a_syntax_error(kind):
    source = _nested(NESTINGS[kind], identities.MAX_NESTING + 1)
    with pytest.raises(DslSyntaxError, match=rf"^position \d+: brackets nested deeper than "
                                             rf"{identities.MAX_NESTING} levels$"):
        parse_identity(source)


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


def test_onehat_is_the_unit_of_the_dual(paired):
    units = [parse_identity("pair_unit: forall a in A . <a, onehat> = eps(a)"),
             parse_identity("unit_right: forall y in Ahat . y * onehat = y"),
             parse_identity("unit_left: forall y in Ahat . onehat * y = y")]
    for name in BUILTIN_NAMES:
        for prog in units:
            assert evaluate(prog, paired(name)).passed, (name, prog.name)
    with pytest.raises(DslSortError):
        parse_identity("bad: forall a in A . a * onehat = a")
    with pytest.raises(DslSyntaxError):
        parse_identity("bad: forall onehat in Ahat . onehat = onehat")


def test_scalar_identity_with_literals(paired):
    prog = parse_identity("two: forall a in A . 2 * phi(a) = phi(2 * a)")
    assert evaluate(prog, paired("group-z2")).passed


def test_evaluation_is_multilinear(paired):
    sys = paired("sweedler")
    h = sys.primal
    prog = parse_identity("lin: forall a in A . eps(a(1)) * a(2) = a")
    two, five = h.field.scalar(2), h.field.scalar(5)
    e1, e3 = basis_column(h, 1), basis_column(h, 3)
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


SUITE_ONLY_STATEMENTS = [
    "adjoint_unit_reduction: forall a in A . eps(sigma(a)) = <a, S2(onehat) * dhatinv>",
    "s4_dual_transported: forall a in Ahat . "
    "S(S(S(S(a)))) = dhatinv * lact(delta, ract(a, deltainv)) * dhat",
]


def _var_spans(toks, body):
    """(start, end) of each variable use in toks[body:], a bare name or a
    name with its leg in brackets."""
    spans = []
    for i in range(body, len(toks)):
        if toks[i][0].isalpha() and toks[i] not in identities.KEYWORDS:
            legged = toks[i + 1:i + 2] == ["("] and toks[i + 2:i + 3] != [] \
                and toks[i + 2].isdigit()
            spans.append((i, i + 4 if legged else i + 1))
    return spans


def _mutant(source, rng):
    """source with one to three random edits: a declared sort swapped, a
    function or constant renamed, a leg moved, added or dropped, a variable
    use repeated or renamed (possibly to an undeclared name), a variable
    use replaced by a scalar, or a factor inserted into a product."""
    toks = [value for _, value, _ in identities._tokenize(source)[:-1]]
    for _ in range(rng.randint(1, 3)):
        body = toks.index(".") + 1
        names = [i for i in range(body, len(toks)) if toks[i][0].isalpha()]
        spans = _var_spans(toks, body)
        decl_vars = [toks[i - 1] for i in range(body) if toks[i] in ("A", "Ahat")]
        kind = rng.choice(("sort", "fn", "const", "leg", "repeat", "rename", "scalar",
                           "insert"))
        if kind == "sort":
            i = rng.choice([i for i in range(body) if toks[i] in ("A", "Ahat")])
            toks[i] = "Ahat" if toks[i] == "A" else "A"
        elif kind in ("fn", "const"):
            pool = identities.FN_NAMES if kind == "fn" else identities.CONST_NAMES
            found = [i for i in names if toks[i] in pool]
            if found:
                toks[rng.choice(found)] = rng.choice(pool)
        elif kind == "insert":
            i = rng.choice(names)
            toks[i:i] = [rng.choice(("dhat", "delta", "onehat", "one", "2", "tau",
                                     *decl_vars)), "*"]
        elif spans:
            start, end = rng.choice(spans)
            if kind == "leg":
                leg = rng.choice((None, 1, 2, 3))
                toks[start + 1:end] = [] if leg is None else ["(", str(leg), ")"]
            elif kind == "repeat":
                other_start, other_end = rng.choice(spans)
                toks[start:end] = toks[other_start:other_end]
            elif kind == "rename":
                toks[start] = rng.choice((*decl_vars, "q"))
            else:
                toks[start:end] = [rng.choice(("2", "1/2", "tau"))]
    return " ".join(toks)


def _outcome(source):
    try:
        prog = parse_identity(source)
    except (DslSyntaxError, DslSortError, DslLegError, DslLinearityError) as exc:
        return type(exc), str(exc)
    return prog if isinstance(prog, tuple) else (
        prog.name, prog.decls, prog.lhs, prog.rhs, prog.sort)


def test_parse_errors_match_the_separate_walk_reference(monkeypatch):
    # the sort walk that compiles a statement raises what the separate
    # sort, slot and leg walks raised, in the same order: operands before
    # the node, product factors left to right as each is folded in
    statements = [p.pretty() for name in ("standard.ids", "convention_traps.ids")
                  for p in corpus(name)] + SUITE_ONLY_STATEMENTS
    rng = random.Random(26)
    mutants = [_mutant(source, rng) for source in statements for _ in range(120)]
    compiled = [_outcome(m) for m in mutants]
    monkeypatch.setattr(identities, "_sort_check", reference_sort_check)
    for mutant, outcome in zip(mutants, compiled):
        assert outcome == _outcome(mutant), mutant
    kinds = collections.Counter(o[0] for o in compiled if isinstance(o[0], type))
    assert set(kinds) == {DslSyntaxError, DslSortError, DslLegError, DslLinearityError}
    assert len(compiled) - sum(kinds.values()) > len(statements)


def _walk(node):
    yield node
    children = {Apply: lambda n: n.args, Product: lambda n: n.factors,
                Pairing: lambda n: (n.left, n.right)}.get(type(node), lambda n: ())
    for child in children(node):
        yield from _walk(child)


def _naive_value(sys, env, node, cols):
    """node's value when each slot (var, leg) holds the column cols[slot],
    computed from the algebra's own maps and the dense action reference; a
    Scalar or a coordinate column."""
    if isinstance(node, Var):
        return cols[(node.name, node.leg)]
    if isinstance(node, ScalarLit):
        return sys.primal.field.scalar(node.value)
    if isinstance(node, Const):
        pm, dm = sys.primal_modular, sys.dual_modular
        return {"one": list(sys.primal.unit), "delta": list(pm.delta),
                "deltainv": list(pm.delta_inv), "onehat": list(sys.dual.unit),
                "dhat": list(dm.delta),
                "dhatinv": list(dm.delta_inv), "tau": pm.tau}[node.kind]
    if isinstance(node, Pairing):
        return pairing_value(_naive_value(sys, env, node.left, cols),
                             _naive_value(sys, env, node.right, cols))
    if isinstance(node, Product):
        acc, acc_sort = None, "scalar"
        for factor in node.factors:
            value = _naive_value(sys, env, factor, cols)
            sort = _naive_sort(env, factor)
            if acc is None:
                acc = value
            elif acc_sort == "scalar" and sort == "scalar":
                acc = acc * value
            elif acc_sort == "scalar":
                acc = [acc * x for x in value]
            elif sort == "scalar":
                acc = [x * value for x in acc]
            else:
                acc = multiply(sys.algebra(sort), acc, value)
            if sort != "scalar":
                acc_sort = sort
        return acc
    args = [_naive_value(sys, env, a, cols) for a in node.args]
    sort = _naive_sort(env, node.args[0])
    if node.fn == "eps":
        return pairing_value(args[0], sys.algebra(sort).counit)
    if node.fn in ("phi", "psi"):
        return pairing_value(args[0], getattr(sys.modular(sort), node.fn))
    if node.fn in ("lact", "ract", "lacthat", "racthat"):
        return reference_action(sys, node.fn, *args)
    return sys.side(sort).operator(node.fn).apply(args[0])


def _naive_sort(env, node):
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, (ScalarLit, Pairing)):
        return "scalar"
    if isinstance(node, Const):
        return {"one": "A", "delta": "A", "deltainv": "A", "onehat": "Ahat",
                "dhat": "Ahat", "dhatinv": "Ahat", "tau": "scalar"}[node.kind]
    if isinstance(node, Product):
        sorts = {_naive_sort(env, f) for f in node.factors} - {"scalar"}
        return sorts.pop() if sorts else "scalar"
    if node.fn in ("eps", "phi", "psi"):
        return "scalar"
    if node.fn in ("lact", "ract"):
        return "Ahat"
    if node.fn in ("lacthat", "racthat"):
        return "A"
    return _naive_sort(env, node.args[0])


def _naive_side(sys, prog, node, assignment):
    """One side on coordinate columns: every legged variable expanded
    through the iterated coproduct of its column, term by term."""
    env = dict(prog.decls)
    slots = {(n.name, n.leg) for n in _walk(node) if isinstance(n, Var)}
    legs = {}
    for var, leg in slots:
        if leg is not None:
            legs[var] = max(legs.get(var, 0), leg)
    expansions = [[(x * c, [(var, j + 1, i) for j, i in enumerate(idxs)])
                   for b, x in enumerate(assignment[var]) if not x.is_zero()
                   for c, idxs in iterated_coproduct(sys.algebra(env[var]), b, k)]
                  for var, k in legs.items()]
    total = None
    for terms in cartesian(*expansions):
        cols = {(var, None): assignment[var] for var, leg in slots if leg is None}
        coeff = sys.primal.field.one()
        for c, placed in terms:
            coeff = coeff * c
            for var, leg, i in placed:
                cols[(var, leg)] = basis_column(sys.algebra(env[var]), i)
        value = _naive_value(sys, env, node, cols)
        value = coeff * value if prog.sort == "scalar" else [coeff * x for x in value]
        total = value if total is None else (
            total + value if prog.sort == "scalar" else [x + y for x, y in zip(total, value)])
    if total is None:
        zero = sys.primal.field.zero()
        return zero if prog.sort == "scalar" else [zero] * sys.primal.dim
    return total


def _naive_evaluate(prog, sys):
    """Reference loop: both sides computed from scratch on every basis
    assignment, in cartesian order, stopping at the first that differs."""
    algebras = [sys.algebra(sort) for _, sort in prog.decls]

    def text(value):
        return str(value) if prog.sort == "scalar" else sys.algebra(prog.sort).format_element(value)

    for combo in cartesian(*[range(alg.dim) for alg in algebras]):
        assignment = {var: basis_column(alg, i)
                      for (var, _), alg, i in zip(prog.decls, algebras, combo)}
        lhs = _naive_side(sys, prog, prog.lhs, assignment)
        rhs = _naive_side(sys, prog, prog.rhs, assignment)
        if lhs != rhs:
            names = ", ".join(f"{var}={alg.basis_names[i]}"
                              for (var, _), alg, i in zip(prog.decls, algebras, combo))
            return False, f"at {names}: lhs={text(lhs)} rhs={text(rhs)}"
    return True, ""


# deliberately wrong (or, on some algebras, true) identities, and true ones
# (named *_true): scalar and vector sorts, one to three variables, legs on
# both sorts, the actions, a declared variable that no side reads, legs
# meeting at each kind of node, and maps and functionals of products
WRONG = [
    "w_s: forall a in A . S(a) = a",
    "w_kms: forall a in A, b in A . phi(a * b) = phi(b * a)",
    "w_twist: forall a in A, y in Ahat, z in Ahat . "
    "<sigma(a), y * z> = <sigma(a(1)), y> * <S2(a(2)), z>",
    "w_comm: forall y in Ahat, z in Ahat . y * z = z * y",
    "w_unread: forall b in Ahat, a in A . S2(a) = a",
    "w_act: forall a in A, y in Ahat . lacthat(y, a) = racthat(a, y)",
    "w_lact: forall a in A, y in Ahat . lact(a, y) = ract(y, a)",
    "w_legs: forall y in Ahat . psi(y(1)) * phi(y(2)) = tau * phi(y)",
    "w_half: forall a in A . 1/2 * a(1) * S(a(2)) = eps(a) * one",
    "w_three: forall a in A, b in A, c in A . a * b * c = c * b * a",
    "w_onehat: forall y in Ahat . y * onehat = onehat * S(y)",
    # legs in reversed order
    "w_rev: forall a in A . S(a(2)) * a(1) = eps(a) * one",
    "w_rev_true: forall a in A . Sinv(a(2)) * a(1) = eps(a) * one",
    # legs separated by a third factor
    "w_sep: forall a in A, b in A . a(1) * b * S(a(2)) = eps(a) * b",
    "w_sep_true: forall a in A, b in A . eps(a(1)) * b * a(2) = b * a",
    # three legs, in order and out of it
    "w_legs3_true: forall a in A . a(1) * S(a(2)) * a(3) = a",
    "w_legs3: forall y in Ahat . y(3) * S(y(2)) * y(1) = y",
    "w_leg1_true: forall a in A . eps(a(1)) = eps(a)",
    # legs meeting at a pairing and at an action
    "w_pair_legs_true: forall a in A, y in Ahat . <a(1), lact(S(a(2)), y)> = eps(a) * <one, y>",
    "w_pair_legs: forall a in A, y in Ahat . <a(2), lact(S(a(1)), y)> = eps(a) * <one, y>",
    "w_act_legs_true: forall a in A, y in Ahat . lact(a(1), lact(S(a(2)), y)) = eps(a) * y",
    "w_act_legs: forall a in A, y in Ahat . lact(a(2), lact(S(a(1)), y)) = eps(a) * y",
    "w_acthat_legs: forall y in Ahat, a in A . racthat(lacthat(y(2), a), y(1)) = lacthat(y, a)",
    # two legged variables meeting at one node
    "w_two_true: forall a in A, b in A . a(1) * b(1) * S(a(2) * b(2)) = eps(a) * eps(b) * one",
    "w_two: forall a in A, b in A . a(1) * b(1) * S(b(2) * a(2)) = eps(a) * eps(b) * one",
    "w_two_pair: forall a in A, y in Ahat . <a(1), y(2)> * <a(2), y(1)> = <a, y>",
    # both legs under a map, and maps and functionals of products
    "w_map_legs_true: forall a in A . S(a(1) * a(2)) = S(a(2)) * S(a(1))",
    "w_anti_true: forall a in A, b in A . S(a * b) = S(b) * S(a)",
    "w_anti: forall y in Ahat, z in Ahat . S(y * z) = S(y) * S(z)",
    "w_phi_legs_true: forall a in A . phi(a(1) * S(a(2))) = eps(a) * phi(one)",
    "w_phi_legs: forall a in A . phi(S(a(1)) * a(2) * 2) = psi(a(2) * a(1))",
    "w_eps_true: forall a in A, b in A . eps(a * b) = eps(a) * eps(b)",
    "w_scaled_true: forall y in Ahat, z in Ahat . sigma(2 * y * z) = sigma(y * z * 1/2) * 4",
    "w_outer_true: forall a in A . psi(2 * a) = 2 * psi(a)",
]


def _assert_agrees_with_per_assignment_loop(system):
    # swapped().swapped() is the system itself, so the third pass reads
    # the verdicts the first one kept
    programs = corpus() + corpus("convention_traps.ids") + [parse_identity(w) for w in WRONG]
    for sys in (system, system.swapped(), system.swapped().swapped()):
        for prog in programs:
            outcome = evaluate(prog, sys)
            assert (outcome.passed, outcome.witness) == _naive_evaluate(prog, sys), \
                (sys.primal.name, prog.name)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_evaluate_agrees_with_per_assignment_loop(paired, name):
    _assert_agrees_with_per_assignment_loop(paired(name))


@pytest.mark.parametrize("name", ["sweedler", "taft-2"])
def test_evaluate_agrees_with_per_assignment_loop_on_a_dense_basis(name):
    # the U L gauge of test_gauge: unit, counit and structure constants dense
    source = builtin(name)
    gauge = _gauges(source)[-1]
    _assert_agrees_with_per_assignment_loop(
        pair_system(_transported(source, gauge, f"{name}-dense")))


def test_evaluate_side_agrees_with_naive_sides_off_the_basis(paired):
    sys = paired("taft-3")
    field = sys.primal.field
    rng = random.Random(7)
    programs = [p for p in corpus() + [parse_identity(w) for w in WRONG] if len(p.decls) <= 2]
    for prog in programs:
        assignment = {var: [field.scalar(rng.randint(-2, 2)) for _ in range(sys.primal.dim)]
                      for var, _ in prog.decls}
        for node in (prog.lhs, prog.rhs):
            assert evaluate_side(sys, prog, node, assignment) == \
                (prog.sort, _naive_side(sys, prog, node, assignment)), prog.name
    # a node that is not one of prog's own sides has no compiled plan
    with pytest.raises(ValueError):
        evaluate_side(sys, prog, parse_identity(prog.pretty()).lhs, assignment)


def test_contraction_needs_a_tenth_of_the_per_assignment_products(paired, monkeypatch):
    sys = paired("taft-4")
    prog = next(p for p in corpus() if p.name == "twist_sigma")
    assert evaluate(prog, sys).passed  # warm-up: operators and tables stay on sys
    calls = [0]
    original = Scalar.__mul__

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    # _decide bypasses the verdict stored on sys by the warm-up
    assert identities._decide(prog, sys) == (True, "")
    # visiting all 16^3 basis assignments took 13,728 scalar products,
    # joining every output pair of the twist before contracting the legs
    # 448, contracting the legs at the join 232
    assert 0 < calls[0] <= 232, calls[0]


def _decisions(sys, monkeypatch):
    """The (program, system) of every statement the suites and the default
    corpus decide on sys, recorded while they run."""
    decided, decide = [], identities._decide

    def recorded(prog, on):
        decided.append((prog, on))
        return decide(prog, on)

    monkeypatch.setattr(identities, "_decide", recorded)
    run_all_checks(sys)
    evaluate_corpus(identities.standard_corpus(), sys)
    monkeypatch.setattr(identities, "_decide", decide)
    return decided


def test_deciding_again_runs_no_per_statement_analysis(monkeypatch):
    # sorts, slots and legs are fixed when a statement is parsed: a fresh
    # system only runs the contractions
    decided = _decisions(pair_system(builtin("taft-3")), monkeypatch)
    calls = {}
    for name in ("_compile", "_check_legs", "parse_identity"):
        original = getattr(identities, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(identities, name, counted)
    fresh = pair_system(builtin("taft-3"))
    for prog, on in decided:
        identities.decision(prog, fresh if on.primal.name == "taft-3" else fresh.swapped())
    assert len(fresh._decided) + len(fresh.swapped()._decided) == len(decided)
    assert calls == {}


def test_corpus_and_suites_on_taft4_keep_the_product_budget(monkeypatch):
    sys = pair_system(builtin("taft-4"))
    decided = _decisions(sys, monkeypatch)  # also the warm-up of operators and tables
    assert len(decided) == 35
    calls = [0]
    original = Scalar.__mul__

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    for prog, on in decided:
        identities._decide(prog, on)
    # the AST evaluator the contraction replaced took 5,736 scalar products
    # here, the contraction with the legs contracted last 4,978, with the
    # legs contracted at their join and functionals of products composed
    # with the product's table 2,477
    assert 0 < calls[0] <= 2477, calls[0]
