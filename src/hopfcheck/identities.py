"""Parser and evaluator for identities written in Sweedler leg notation.

An identity file entry such as

    radford: forall a in A . S(S(S(S(a)))) = deltainv * lacthat(dhat, racthat(a, dhatinv)) * delta

compiles to a small AST and is checked against a PairedSystem by exhausting
all assignments of the free variables to basis elements (of the algebra for
sort A, of its dual for sort Ahat) and comparing both sides exactly.

Variables carry optional coproduct legs: a(1), a(2), ... expand through the
iterated coproduct, and the implicit Sweedler summation is performed per
side.  Quantifying over basis elements is sound only because every side is
linear in each variable, so the parser enforces it: a side may read each
(variable, leg) slot at most once, and "a * a" or "a(1) * a(1)" is rejected
with DslLinearityError.  The same slot may appear on both sides.  In finite
dimension the leg notation is unconditional: every iterated coproduct is a
finite sum of basis tensors, so no bracketing or coverage side conditions
ever arise and none are modeled.

Evaluation still visits every basis assignment, but a subterm is computed
once per distinct basis value of its footprint, the slots it reads: in
"<sigma(a), y * z> = <S2(a(1)), y> * <sigma(a(2)), z>" over a 16-dimensional
algebra, sigma(a) is computed 16 times and y * z 256 times, not 4096.

Grammar (informally):
    identity := name ":" "forall" decl ("," decl)* "." expr "=" expr
    decl     := var "in" ("A" | "Ahat")
    expr     := factor (("*" factor) | factor)*          juxtaposition = "*"
    factor   := int["/"int] | var["(" leg ")"] | fn "(" expr {"," expr} ")"
              | "<" expr "," expr ">" | "(" expr ")" | const
    fn       := S | Sinv | S2 | Sinv2 | sigma | sigmainv | sigmap
              | sigmapinv | eps | phi | psi | lact | ract | lacthat | racthat
    const    := one | delta | deltainv | dhat | dhatinv | tau

The unary operators and the integrals act on either sort (on Ahat they mean
the dual's antipode, modular automorphisms, and integrals).  The pairing
takes an A term on the left and an Ahat term on the right.  lact/ract are
the algebra acting on its dual, lacthat/racthat the dual acting on the
algebra, arguments in reading order of the harpoon expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
from operator import itemgetter, mul

from .duality import PairedSystem, pairing_value
from .hopf import CheckResult


class DslSyntaxError(ValueError):
    """Tokenizer or parser rejection, with source position."""


class DslSortError(ValueError):
    """Well-formed syntax with an ill-sorted subterm."""


class DslLegError(ValueError):
    """Sweedler legs that are non-contiguous or mixed with bare uses."""


class DslLinearityError(ValueError):
    """A side that reads one (variable, leg) slot more than once."""


UNARY_FNS = ("S", "Sinv", "S2", "Sinv2", "sigma", "sigmainv", "sigmap", "sigmapinv")
SCALAR_FNS = ("eps", "phi", "psi")
ACTION_FNS = ("lact", "ract", "lacthat", "racthat")
FN_NAMES = UNARY_FNS + SCALAR_FNS + ACTION_FNS
CONST_NAMES = ("one", "delta", "deltainv", "dhat", "dhatinv", "tau")
KEYWORDS = ("forall", "in", "A", "Ahat") + FN_NAMES + CONST_NAMES


# -- AST --------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str
    leg: int | None = None


@dataclass(frozen=True)
class Const:
    kind: str


@dataclass(frozen=True)
class ScalarLit:
    value: Fraction


@dataclass(frozen=True)
class Apply:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Pairing:
    left: object
    right: object


@dataclass(frozen=True)
class IdentityProgram:
    name: str
    decls: tuple          # ((var, "A"|"Ahat"), ...)
    lhs: object
    rhs: object
    sort: str             # common sort of both sides

    def pretty(self) -> str:
        decls = ", ".join(f"{v} in {s}" for v, s in self.decls)
        return f"{self.name}: forall {decls} . {pretty(self.lhs)} = {pretty(self.rhs)}"


def pretty(node) -> str:
    if isinstance(node, Var):
        return node.name if node.leg is None else f"{node.name}({node.leg})"
    if isinstance(node, Const):
        return node.kind
    if isinstance(node, ScalarLit):
        return str(node.value)
    if isinstance(node, Apply):
        return f"{node.fn}(" + ", ".join(pretty(a) for a in node.args) + ")"
    if isinstance(node, Product):
        return " * ".join(
            f"({pretty(f)})" if isinstance(f, Product) else pretty(f)
            for f in node.factors
        )
    if isinstance(node, Pairing):
        return f"<{pretty(node.left)}, {pretty(node.right)}>"
    raise TypeError(f"not an AST node: {node!r}")


# -- tokenizer and parser ----------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<op>[:.,*()<>=/]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            if src[pos:].strip() == "":
                break
            raise DslSyntaxError(f"position {pos}: cannot read {src[pos:pos+10]!r}")
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise DslSyntaxError(f"position {tok[2]}: expected {want!r}, found {tok[1]!r}")
        return tok

    def parse_identity(self) -> IdentityProgram:
        name = self.expect("name")[1]
        self.expect("op", ":")
        self.expect("name", "forall")
        decls = [self.parse_decl()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            decls.append(self.parse_decl())
        self.expect("op", ".")
        lhs = self.parse_expr()
        self.expect("op", "=")
        rhs = self.parse_expr()
        self.expect("end")
        seen = set()
        for v, _ in decls:
            if v in seen:
                raise DslSyntaxError(f"variable {v!r} declared twice")
            seen.add(v)
        return _sort_check(IdentityProgramBuilder(name, tuple(decls), lhs, rhs))

    def parse_decl(self):
        tok = self.expect("name")
        var = tok[1]
        if var in KEYWORDS:
            raise DslSyntaxError(f"position {tok[2]}: {var!r} is reserved")
        self.expect("name", "in")
        sort_tok = self.expect("name")
        if sort_tok[1] not in ("A", "Ahat"):
            raise DslSyntaxError(f"position {sort_tok[2]}: sort must be A or Ahat")
        return (var, sort_tok[1])

    def parse_expr(self):
        factors = [self.parse_factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                factors.append(self.parse_factor())
            elif kind in ("name", "int") or (kind == "op" and value in ("(", "<")):
                factors.append(self.parse_factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.next()
            if self.peek()[:2] == ("op", "/"):
                self.next()
                den = self.expect("int")[1]
                return ScalarLit(Fraction(int(value), int(den)))
            return ScalarLit(Fraction(int(value)))
        if kind == "op" and value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if kind == "op" and value == "<":
            self.next()
            left = self.parse_expr()
            self.expect("op", ",")
            right = self.parse_expr()
            self.expect("op", ">")
            return Pairing(left, right)
        if kind == "name":
            self.next()
            if value in CONST_NAMES:
                return Const(value)
            if value in FN_NAMES:
                self.expect("op", "(")
                args = [self.parse_expr()]
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.parse_expr())
                self.expect("op", ")")
                expected = 2 if value in ACTION_FNS else 1
                if len(args) != expected:
                    raise DslSyntaxError(
                        f"position {pos}: {value} takes {expected} argument(s), got {len(args)}")
                return Apply(value, tuple(args))
            # variable, possibly with a Sweedler leg
            if self.peek()[:2] == ("op", "("):
                save = self.i
                self.next()
                if self.peek()[0] == "int":
                    leg = int(self.next()[1])
                    self.expect("op", ")")
                    return Var(value, leg)
                self.i = save
            return Var(value)
        raise DslSyntaxError(f"position {pos}: unexpected {value!r}")


@dataclass(frozen=True)
class IdentityProgramBuilder:
    name: str
    decls: tuple
    lhs: object
    rhs: object


# -- sort checking ------------------------------------------------------------

def _infer_sort(node, env) -> str:
    if isinstance(node, Var):
        if node.name not in env:
            raise DslSortError(f"undeclared variable {node.name!r}")
        return env[node.name]
    if isinstance(node, ScalarLit):
        return "scalar"
    if isinstance(node, Const):
        return {"one": "A", "delta": "A", "deltainv": "A",
                "dhat": "Ahat", "dhatinv": "Ahat", "tau": "scalar"}[node.kind]
    if isinstance(node, Pairing):
        ls = _infer_sort(node.left, env)
        rs = _infer_sort(node.right, env)
        if ls != "A" or rs != "Ahat":
            raise DslSortError(
                f"pairing needs an A term then an Ahat term, got <{ls}, {rs}> in {pretty(node)}")
        return "scalar"
    if isinstance(node, Apply):
        arg_sorts = [_infer_sort(a, env) for a in node.args]
        if node.fn in UNARY_FNS:
            if arg_sorts[0] == "scalar":
                raise DslSortError(f"{node.fn} cannot act on a scalar in {pretty(node)}")
            return arg_sorts[0]
        if node.fn in SCALAR_FNS:
            if arg_sorts[0] == "scalar":
                raise DslSortError(f"{node.fn} cannot act on a scalar in {pretty(node)}")
            return "scalar"
        expected = {"lact": ("A", "Ahat", "Ahat"), "ract": ("Ahat", "A", "Ahat"),
                    "lacthat": ("Ahat", "A", "A"), "racthat": ("A", "Ahat", "A")}[node.fn]
        if tuple(arg_sorts) != expected[:2]:
            raise DslSortError(
                f"{node.fn} expects sorts {expected[:2]}, got {tuple(arg_sorts)} in {pretty(node)}")
        return expected[2]
    if isinstance(node, Product):
        sort = "scalar"
        for f in node.factors:
            s = _infer_sort(f, env)
            if s == "scalar":
                continue
            if sort == "scalar":
                sort = s
            elif sort != s:
                raise DslSortError(f"cannot multiply {sort} by {s} in {pretty(node)}")
        return sort
    raise TypeError(f"not an AST node: {node!r}")


def _children(node):
    if isinstance(node, Apply):
        return node.args
    if isinstance(node, Product):
        return node.factors
    if isinstance(node, Pairing):
        return (node.left, node.right)
    return ()


def _slots(node, out):
    """Append the (variable, leg) slots node reads, in reading order; a bare
    use has leg None."""
    if isinstance(node, Var):
        out.append((node.name, node.leg))
    for child in _children(node):
        _slots(child, out)
    return out


def _check_legs(name, side_label, node):
    """Leg count of every legged variable on one side, after checking that
    the side reads each slot at most once and that legs run 1..k."""
    slots = _slots(node, [])
    seen = set()
    for slot in slots:
        if slot in seen:
            raise DslLinearityError(
                f"{name}: {pretty(Var(*slot))} occurs more than once on the {side_label}; "
                f"basis-only checking needs each side linear in every variable and leg")
        seen.add(slot)
    usage = {}
    for var, leg in slots:
        usage.setdefault(var, set()).add(leg)
    legs = {}
    for var, used in usage.items():
        if None in used and len(used) > 1:
            raise DslLegError(
                f"{name}: {var!r} is used both bare and with legs on the {side_label}")
        numbered = sorted(u for u in used if u is not None)
        if numbered:
            if numbered != list(range(1, len(numbered) + 1)):
                raise DslLegError(
                    f"{name}: legs of {var!r} on the {side_label} must be 1..k, got {numbered}")
            legs[var] = len(numbered)
    return legs


def _sort_check(b: IdentityProgramBuilder) -> IdentityProgram:
    env = dict(b.decls)
    lhs_sort = _infer_sort(b.lhs, env)
    rhs_sort = _infer_sort(b.rhs, env)
    if lhs_sort != rhs_sort:
        raise DslSortError(f"{b.name}: sides have sorts {lhs_sort} and {rhs_sort}")
    lhs_vars = {var for var, _ in _slots(b.lhs, [])}
    rhs_vars = {var for var, _ in _slots(b.rhs, [])}
    declared = set(env)
    if (lhs_vars | rhs_vars) - declared:
        raise DslSortError(f"{b.name}: undeclared variables {sorted((lhs_vars | rhs_vars) - declared)}")
    if lhs_vars != rhs_vars:
        raise DslSortError(
            f"{b.name}: sides use different free variables {sorted(lhs_vars)} vs {sorted(rhs_vars)}")
    _check_legs(b.name, "left side", b.lhs)
    _check_legs(b.name, "right side", b.rhs)
    return IdentityProgram(b.name, b.decls, b.lhs, b.rhs, lhs_sort)


def parse_identity(source: str) -> IdentityProgram:
    return _Parser(source).parse_identity()


def parse_corpus(text: str):
    """Identity files: '#' comments, one identity per blank-line block
    (long identities may wrap onto continuation lines)."""
    programs = []
    block = []
    for raw in text.splitlines() + [""]:
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            block.append(line.strip())
        elif block:
            programs.append(parse_identity(" ".join(block)))
            block = []
    names = [p.name for p in programs]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DslSyntaxError(f"duplicate identity names: {sorted(dupes)}")
    return programs


def load_corpus(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())


# -- evaluation ---------------------------------------------------------------
#
# Each side is compiled once into nested closures, one per AST node.  A
# compiled node is called as fn(cols, key): cols[p] is the coordinate column
# filling slot p of the side (one slot per variable and leg the side reads)
# and key[p] the basis index behind it.  It returns a Scalar for a scalar
# subterm and a coordinate column for an A or Ahat subterm.

def _constant(sys: PairedSystem, kind):
    if kind == "one":
        return sys.primal.unit_column()
    if kind == "delta":
        return list(sys.primal_modular.delta)
    if kind == "deltainv":
        return list(sys.primal_modular.delta_inv)
    if kind == "dhat":
        return list(sys.dual_modular.delta)
    if kind == "dhatinv":
        return list(sys.dual_modular.delta_inv)
    if kind == "tau":
        return sys.primal_modular.tau
    raise AssertionError(kind)


def _basis(alg):
    return tuple(alg.basis_column(i) for i in range(alg.dim))


def _compile_expr(sys: PairedSystem, env, node, positions, memoize):
    """The operator dispatch: returns (fn, footprint), where fn computes
    node's value and footprint is the frozenset of slots it reads.
    positions maps each slot of the side to its index in cols and key."""
    if isinstance(node, Var):
        slot = (node.name, node.leg)
        p = positions[slot]
        return (lambda cols, key: cols[p]), frozenset((slot,))
    if isinstance(node, ScalarLit):
        literal = sys.primal.field.scalar(node.value)
        return (lambda cols, key: literal), frozenset()
    if isinstance(node, Const):
        constant = _constant(sys, node.kind)
        return (lambda cols, key: constant), frozenset()
    children = _children(node)
    compiled = [_compile_expr(sys, env, c, positions, memoize) for c in children]
    footprint = frozenset().union(*(fp for _, fp in compiled))
    fns = [_reuse(c, fn, fp, footprint, positions, memoize)
           for c, (fn, fp) in zip(children, compiled)]
    sorts = [_infer_sort(c, env) for c in children]
    if isinstance(node, Product):
        return _compile_product(sys, fns, sorts), footprint
    if isinstance(node, Pairing):
        op = pairing_value
    elif node.fn in UNARY_FNS:
        op = sys.operator(node.fn, sorts[0]).apply
    elif node.fn == "eps":
        op = sys.algebra(sorts[0]).counit_of
    elif node.fn in ("phi", "psi"):
        md = sys.modular(sorts[0])
        op = md.phi if node.fn == "phi" else md.psi
    else:
        op = {"lact": sys.primal_acts_left, "ract": sys.primal_acts_right,
              "lacthat": sys.dual_acts_left, "racthat": sys.dual_acts_right}[node.fn]
    if len(fns) == 1:
        (arg,) = fns
        return (lambda cols, key: op(arg(cols, key))), footprint
    left, right = fns
    return (lambda cols, key: op(left(cols, key), right(cols, key))), footprint


def _reuse(node, fn, footprint, parent_footprint, positions, memoize):
    """fn for node as its parent calls it.

    A subterm that reads no slot is computed here, once.  With memoize
    set, a subterm whose footprint is a strict subset of its parent's is
    computed once per distinct basis value of its footprint slots and
    stored for the rest of the evaluation; the root and every subterm that
    reads all of its parent's slots are computed on each call.
    """
    if isinstance(node, (Var, ScalarLit, Const)):
        return fn
    if not footprint:
        value = fn(None, None)
        return lambda cols, key: value
    if not memoize or footprint == parent_footprint:
        return fn
    slot_key = itemgetter(*sorted(positions[slot] for slot in footprint))
    stored = {}

    def reused(cols, key):
        k = slot_key(key)
        value = stored.get(k)
        if value is None:
            value = stored[k] = fn(cols, key)
        return value
    return reused


def _scale_column(c, column):
    return [c * x for x in column]


def _column_times(column, c):
    return [x * c for x in column]


def _compile_product(sys, fns, sorts):
    """Left-to-right product: scalars multiply, a scalar scales a column,
    two columns multiply in their algebra."""
    first, acc_sort = fns[0], sorts[0]
    steps = []
    for fn, sort in zip(fns[1:], sorts[1:]):
        if acc_sort == "scalar" and sort == "scalar":
            step = mul
        elif acc_sort == "scalar":
            step = _scale_column
            acc_sort = sort
        elif sort == "scalar":
            step = _column_times
        else:
            step = sys.algebra(sort).multiply
        steps.append((step, fn))

    def product(cols, key):
        acc = first(cols, key)
        for step, fn in steps:
            acc = step(acc, fn(cols, key))
        return acc
    return product


class _Side:
    """One side of an identity, compiled over the slots it reads.

    The implicit Sweedler summation runs here: every legged variable is
    expanded through the iterated coproduct of its assigned element, and
    the values of the root are summed with the expansion coefficients.
    """

    def __init__(self, sys, prog, node, side_label, memoize):
        env = dict(prog.decls)
        leg_counts = _check_legs(prog.name, side_label, node)
        slots = _slots(node, [])  # each slot once, by the linearity check
        positions = {slot: p for p, slot in enumerate(slots)}
        fn, footprint = _compile_expr(sys, env, node, positions, memoize)
        self.root = _reuse(node, fn, footprint, footprint, positions, memoize)
        self.cols = [None] * len(slots)
        self.key = [None] * len(slots)
        decl = {var: d for d, (var, _) in enumerate(prog.decls)}
        # (slot position, declaration index, variable, basis columns)
        self.bare = [(positions[(var, None)], decl[var], var, _basis(sys.algebra(env[var])))
                     for var, leg in slots if leg is None]
        # (declaration index, variable, leg count, algebra)
        self.legged = [(decl[var], var, k, sys.algebra(env[var]))
                       for var, k in leg_counts.items()]
        # (slot positions of legs 1..k, basis columns), in the same order
        self.leg_slots = [(tuple(positions[(var, j)] for j in range(1, k + 1)),
                           _basis(sys.algebra(env[var])))
                          for var, k in leg_counts.items()]
        self.scalar = prog.sort == "scalar"
        self.zero = (sys.primal.field.zero() if self.scalar
                     else sys.algebra(prog.sort).zero_column())

    def at_basis(self, combo):
        """Value when the d-th declared variable is basis element combo[d]."""
        cols, key = self.cols, self.key
        for p, d, _, basis in self.bare:
            i = combo[d]
            cols[p] = basis[i]
            key[p] = i
        return self._sweedler_sum([alg.iterated_coproduct(combo[d], k)
                                   for d, _, k, alg in self.legged])

    def at_columns(self, assignment):
        """Value when each variable is the coordinate column assignment[var]."""
        for p, _, var, _ in self.bare:
            self.cols[p] = assignment[var]
        expansions = []
        for _, var, k, alg in self.legged:
            expansions.append([
                (coeff * c, idxs)
                for i, coeff in enumerate(assignment[var]) if not coeff.is_zero()
                for c, idxs in alg.iterated_coproduct(i, k)
            ])
        return self._sweedler_sum(expansions)

    def _sweedler_sum(self, expansions):
        """expansions: per legged variable, its (coefficient, leg indices) terms."""
        cols, key, root = self.cols, self.key, self.root
        if not expansions:
            return root(cols, key)
        scalar = self.scalar
        total = None
        for terms in cartesian(*expansions):
            coeff = None
            for (slot_positions, basis), (c, idxs) in zip(self.leg_slots, terms):
                coeff = c if coeff is None else coeff * c
                for p, i in zip(slot_positions, idxs):
                    cols[p] = basis[i]
                    key[p] = i
            value = root(cols, key)
            if not coeff.is_one():
                value = coeff * value if scalar else [coeff * x for x in value]
            if total is None:
                total = value
            elif scalar:
                total = total + value
            else:
                total = [x + y for x, y in zip(total, value)]
        # every coproduct expansion vanished: the side is zero
        return self.zero if total is None else total


def evaluate_side(sys: PairedSystem, prog: IdentityProgram, node, assignment):
    """Evaluate one side of prog on arbitrary coordinate columns, with the
    implicit Sweedler summation and without reuse of subterms; returns
    (sort, value)."""
    side = _Side(sys, prog, node, "side", memoize=False)
    return (prog.sort, side.at_columns(assignment))


def _format_value(sys, sort, value):
    if sort == "scalar":
        return str(value)
    return sys.algebra(sort).format_element(value)


def evaluate(prog: IdentityProgram, sys: PairedSystem) -> CheckResult:
    """Check the identity for every basis assignment of its free variables,
    in cartesian order, reporting the first that fails.

    Subterms are computed once per basis value of their footprint (see
    _reuse); the stored values live until this call returns.
    """
    lhs_side = _Side(sys, prog, prog.lhs, "left side", memoize=True)
    rhs_side = _Side(sys, prog, prog.rhs, "right side", memoize=True)
    dims = [sys.algebra(sort).dim for _, sort in prog.decls]
    for combo in cartesian(*[range(d) for d in dims]):
        lhs = lhs_side.at_basis(combo)
        rhs = rhs_side.at_basis(combo)
        if lhs != rhs:
            names = ", ".join(
                f"{var}={sys.algebra(sort).basis_names[idx]}"
                for (var, sort), idx in zip(prog.decls, combo)
            )
            return CheckResult(
                prog.name, sys.primal.name, False,
                f"at {names}: lhs={_format_value(sys, prog.sort, lhs)} "
                f"rhs={_format_value(sys, prog.sort, rhs)}")
    return CheckResult(prog.name, sys.primal.name, True)


def evaluate_corpus(programs, sys: PairedSystem):
    return [evaluate(p, sys) for p in programs]
