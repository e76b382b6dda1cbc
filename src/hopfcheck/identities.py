"""Parser and evaluator for identities written in Sweedler leg notation.

An identity file entry such as

    radford: forall a in A . S(S(S(S(a)))) = deltainv * lacthat(dhat, racthat(a, dhatinv)) * delta

compiles to a small AST and is checked against a PairedSystem on all
assignments of the free variables to basis elements (of the algebra for
sort A, of its dual for sort Ahat), comparing both sides exactly.

Variables carry optional coproduct legs: a(1), a(2), ... expand through the
iterated coproduct, and the implicit Sweedler summation is performed per
side.  Quantifying over basis elements is sound only because every side is
linear in each variable, so the parser enforces it: a side may read each
(variable, leg) slot at most once, and "a * a" or "a(1) * a(1)" is rejected
with DslLinearityError.  The same slot may appear on both sides.  In finite
dimension the leg notation is unconditional: every iterated coproduct is a
finite sum of basis tensors, so no bracketing or coverage side conditions
ever arise and none are modeled.

Evaluation is one exact contraction per side, not a loop over assignments.
Linearity makes each side a multilinear map, fixed by a sparse tensor: its
nonzero output coordinates for every basis value of its slots.  The tensor
is built bottom up from the stored nonzero structure constants and operator
entries, then its legs are contracted with the iterated coproduct.  The two
tensors are compared entry by entry, and a failure names the least
differing assignment, the first in cartesian order.  In "<sigma(a), y * z>"
on the 16-dimensional taft-4, y * z has 40 entries, one per nonzero
structure constant of the dual product, against 4096 assignments.  What
depends on the statement alone (sorts, slots, leg positions, output
layout) is compiled into a plan when the statement is parsed, in the same
walk that checks its sorts, so a system only runs the contractions.

Grammar (informally):
    identity := name ":" "forall" decl ("," decl)* "." expr "=" expr
    decl     := var "in" ("A" | "Ahat")
    expr     := factor (("*" factor) | factor)*          juxtaposition = "*"
    factor   := int["/"int] | var["(" leg ")"] | fn "(" expr {"," expr} ")"
              | "<" expr "," expr ">" | "(" expr ")" | const
    fn       := S | Sinv | S2 | Sinv2 | sigma | sigmainv | sigmap
              | sigmapinv | eps | phi | psi | lact | ract | lacthat | racthat
    const    := one | delta | deltainv | onehat | dhat | dhatinv | tau

The unary operators and the integrals act on either sort (on Ahat they mean
the dual's antipode, modular automorphisms, and integrals).  The pairing
takes an A term on the left and an Ahat term on the right.  lact/ract are
the algebra acting on its dual, lacthat/racthat the dual acting on the
algebra, arguments in reading order of the harpoon expression.  onehat is
the unit of the dual.

decision decides each program once per PairedSystem: the verdict and the
witness are stored on the system under the program's plan.  The identity
suites of verify.py report the programs of standard_corpus() themselves
where the bundled corpus states their identity, so a suite and the corpus
share one decision; evaluate reports it under the identity's name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from importlib import resources
from operator import itemgetter, mul

from .duality import PairedSystem
from .hopf import CheckResult, _nonzero, _summed
from .scalars import too_long_number


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
CONST_NAMES = ("one", "delta", "deltainv", "onehat", "dhat", "dhatinv", "tau")
KEYWORDS = ("forall", "in", "A", "Ahat") + FN_NAMES + CONST_NAMES
_CONST_SORTS = {"one": "A", "delta": "A", "deltainv": "A", "onehat": "Ahat",
                "dhat": "Ahat", "dhatinv": "Ahat", "tau": "scalar"}
# the argument sorts, then the value sort, of each action
_ACTION_SORTS = {"lact": ("A", "Ahat", "Ahat"), "ract": ("Ahat", "A", "Ahat"),
                 "lacthat": ("Ahat", "A", "A"), "racthat": ("A", "Ahat", "A")}


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
    # the statement compiled at parse time, and the key of its decisions
    plan: "_Plan" = field(compare=False, repr=False)

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


# Deepest nesting of brackets (parentheses, pairings, function arguments)
# an identity may use.  Parsing, compiling (which checks sorts) and
# evaluation each recurse once per level; the bundled corpora nest about 6
# deep.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = -1  # brackets open around the expression being parsed

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
        return _sort_check(name, tuple(decls), lhs, rhs)

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
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(f"position {self.peek()[2]}: brackets nested deeper "
                                 f"than {MAX_NESTING} levels")
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
        self.depth -= 1
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def integer(self):
        """The value of the next token, an integer; one past the limit on
        converting digits to an int is a syntax error at its position."""
        _, digits, pos = self.expect("int")
        try:
            return int(digits)
        except ValueError:
            raise DslSyntaxError(f"position {pos}: {too_long_number()}") from None

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "int":
            num = self.integer()
            if self.peek()[:2] == ("op", "/"):
                self.next()
                den_pos = self.peek()[2]
                den = self.integer()
                if den == 0:
                    raise DslSyntaxError(f"position {den_pos}: zero denominator")
                return ScalarLit(Fraction(num, den))
            return ScalarLit(Fraction(num))
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
                    leg = self.integer()
                    self.expect("op", ")")
                    return Var(value, leg)
                self.i = save
            return Var(value)
        raise DslSyntaxError(f"position {pos}: unexpected {value!r}")


# -- checking ------------------------------------------------------------------

def _check_legs(name, side_label, slots):
    """Leg count of every legged variable of one side, in reading order,
    after checking that its slots, from _compile, hold each (variable, leg)
    at most once and that legs run 1..k."""
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


def _sort_check(name, decls, lhs, rhs) -> IdentityProgram:
    """The program of a parsed statement: each side compiled, which checks
    its sorts, then the two sides' sorts, variables and legs checked
    against each other."""
    env = dict(decls)
    lhs_sort, lhs_slots, lhs_terms = _compile(lhs, env)
    rhs_sort, rhs_slots, rhs_terms = _compile(rhs, env)
    if lhs_sort != rhs_sort:
        raise DslSortError(f"{name}: sides have sorts {lhs_sort} and {rhs_sort}")
    lhs_vars = {var for var, _ in lhs_slots}
    rhs_vars = {var for var, _ in rhs_slots}
    if lhs_vars != rhs_vars:
        raise DslSortError(
            f"{name}: sides use different free variables {sorted(lhs_vars)} vs {sorted(rhs_vars)}")
    lhs_legs = _check_legs(name, "left side", lhs_slots)
    rhs_legs = _check_legs(name, "right side", rhs_slots)
    plan = _Plan(_compile_side(decls, lhs_slots, lhs_terms, lhs_legs),
                 _compile_side(decls, rhs_slots, rhs_terms, rhs_legs))
    return IdentityProgram(name, decls, lhs, rhs, lhs_sort, plan)


def parse_identity(source: str) -> IdentityProgram:
    return _Parser(source).parse_identity()


_DSL_ERRORS = (DslSyntaxError, DslSortError, DslLegError, DslLinearityError)


def parse_corpus(text: str):
    """Identity files: '#' comments, one identity per blank-line block
    (long identities may wrap onto continuation lines).  An error names
    the line its identity starts on; a position in it counts within the
    identity's lines joined into one."""
    programs, first_line = [], {}
    block = []
    for number, raw in enumerate(text.splitlines() + [""], start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            if not block:
                start = number
            block.append(line.strip())
        elif block:
            try:
                prog = parse_identity(" ".join(block))
            except _DSL_ERRORS as exc:
                raise type(exc)(f"line {start}: {exc}") from None
            if prog.name in first_line:
                raise DslSyntaxError(f"line {start}: identity {prog.name!r} is already "
                                     f"defined at line {first_line[prog.name]}")
            first_line[prog.name] = start
            programs.append(prog)
            block = []
    return programs


def load_corpus(path):
    """The identities of the corpus file at path; an error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DslSyntaxError(f"{path}: {exc}") from exc
    try:
        return parse_corpus(text)
    except _DSL_ERRORS as exc:
        raise type(exc)(f"{path}: {exc}") from None


@cache
def standard_corpus():
    """The bundled corpus, standard.ids, read and parsed once per process.
    The identity suites of verify.py report its programs."""
    text = resources.files("hopfcheck").joinpath("corpus/standard.ids").read_text("utf-8")
    return tuple(parse_corpus(text))


# -- evaluation ---------------------------------------------------------------
#
# A side is evaluated as a sparse tensor over the slots it reads (one slot
# per variable and leg): terms maps (one basis index per slot, in reading
# order, then an output index) to the nonzero output coordinate the subterm
# takes when each slot holds that basis element; a scalar subterm has the
# single output index 0.  Every node contracts the stored entries of its
# operands only: a map through its nonzero matrix columns, a product or an
# action through its table of structure constants, the pairing by matching
# output indices (it is the identity on the canonical basis).  Last, the
# legs of each variable contract with its iterated coproduct, the implicit
# Sweedler summation.
#
# Everything but the terms depends on the statement alone, so it is
# compiled when the statement is parsed into a plan: each node's sort and
# slots, the operator, table, functional or constant it reads, the
# positions of each leg contraction, and the output layout.
# On a system the plan only runs the contractions.  A map or functional of
# a bare variable reads the map's nonzero entries directly, with no
# identity tensor to contract.

def _constant(sys: PairedSystem, kind):
    if kind == "one":
        return sys.primal.unit_column()
    if kind == "delta":
        return list(sys.primal_modular.delta)
    if kind == "deltainv":
        return list(sys.primal_modular.delta_inv)
    if kind == "onehat":
        return sys.dual.unit_column()
    if kind == "dhat":
        return list(sys.dual_modular.delta)
    if kind == "dhatinv":
        return list(sys.dual_modular.delta_inv)
    if kind == "tau":
        return [sys.primal_modular.tau]
    raise AssertionError(kind)


def _column_terms(column):
    """The terms of the tensor without slots whose value is column."""
    return {(k,): x for k, x in enumerate(column) if not x.is_zero()}


def _by_output(terms):
    """{output index: [(slot indices, value), ...]}."""
    groups = {}
    for key, x in terms.items():
        groups.setdefault(key[-1], []).append((key[:-1], x))
    return groups


def _apply(terms, columns):
    """A linear map applied to the output; columns[j] lists the nonzero
    (row, value) entries of the map's column j."""
    out = {}
    for key, x in terms.items():
        head = key[:-1]
        for i, v in columns[key[-1]]:
            key_i = head + (i,)
            prev = out.get(key_i)
            out[key_i] = v * x if prev is None else prev + v * x
    return _nonzero(out)


def _outer(left, right):
    """The product with a scalar factor, whose output index is 0, so the
    other factor's output index is the sum of the two."""
    return {ka[:-1] + kb[:-1] + (ka[-1] + kb[-1],): a * b
            for ka, a in left.items() for kb, b in right.items()}


def _join(left, right, table):
    """A bilinear map applied to both outputs; table[i][j] lists the nonzero
    (k, c) of the map on basis elements i and j, like mul_terms."""
    rights = _by_output(right)
    out = {}
    for i, lefts in _by_output(left).items():
        row = table[i]
        for j, rs in rights.items():
            cell = row[j]
            if not cell:
                continue
            for ka, a in lefts:
                for kb, b in rs:
                    ab, kab = a * b, ka + kb
                    for k, c in cell:
                        key = kab + (k,)
                        prev = out.get(key)
                        out[key] = ab * c if prev is None else prev + ab * c
    return _nonzero(out)


def _pair(left, right):
    """The pairing of both outputs: the identity on the canonical basis."""
    rights = {i: [(kb + (0,), b) for kb, b in rs] for i, rs in _by_output(right).items()}
    out = {}
    for i, lefts in _by_output(left).items():
        rs = rights.get(i, ())
        for ka, a in lefts:
            for kb, b in rs:
                key = ka + kb
                prev = out.get(key)
                out[key] = a * b if prev is None else prev + a * b
    return _nonzero(out)


def _picker(positions):
    """key -> the tuple of key's entries at positions."""
    if len(positions) == 1:
        (p,) = positions
        return lambda key: (key[p],)
    return itemgetter(*positions)


def _contract_legs(terms, legs, leg_pos, rest, alg):
    """Replace the slots at leg_pos, a variable's legs 1..legs, by one slot
    for the variable, first, followed by the slots at rest, summing over
    the iterated coproduct of each basis element of alg."""
    legs_of, rest_of = _picker(leg_pos), _picker(rest + (-1,))
    groups = {}
    for key, x in terms.items():
        groups.setdefault(legs_of(key), []).append((rest_of(key), x))
    out = {}
    for i in range(alg.dim):
        head = (i,)
        for c, idxs in alg.iterated_coproduct(i, legs):
            for key, x in groups.get(idxs, ()):
                key = head + key
                prev = out.get(key)
                out[key] = c * x if prev is None else prev + c * x
    return _nonzero(out)


def _columns(fn, sort):
    """columns(sys): per basis element of the algebra of sort, the nonzero
    (row, value) entries of the map or functional fn on it."""
    if fn in UNARY_FNS:
        return lambda sys: sys.operator(fn, sort).nonzero_columns()

    def columns(sys):
        row = sys.algebra(sort).counit if fn == "eps" else getattr(sys.modular(sort), fn)
        return [((0, x),) if not x.is_zero() else () for x in row]
    return columns


def _compile(node, env):
    """(sort, slots, terms) of node: its sort, the (variable, leg) slots of
    its tensor in reading order, and terms(sys), the tensor on sys.  An
    ill-sorted node raises DslSortError, after its operands are checked."""
    if isinstance(node, Var):
        if node.name not in env:
            raise DslSortError(f"undeclared variable {node.name!r}")
        sort = env[node.name]

        def identity(sys):
            one = sys.primal.field.one()
            return {(i, i): one for i in range(sys.algebra(sort).dim)}
        return sort, ((node.name, node.leg),), identity
    if isinstance(node, ScalarLit):
        value = node.value
        return "scalar", (), lambda sys: _column_terms([sys.primal.field.scalar(value)])
    if isinstance(node, Const):
        kind = node.kind
        return _CONST_SORTS[kind], (), lambda sys: _column_terms(_constant(sys, kind))
    if isinstance(node, Product):
        return _compile_product(node, env)
    if isinstance(node, Pairing) or node.fn in ACTION_FNS:
        operands = (node.left, node.right) if isinstance(node, Pairing) else node.args
        (left_sort, left_slots, left), (right_sort, right_slots, right) = (
            _compile(c, env) for c in operands)
        slots = left_slots + right_slots
        if isinstance(node, Pairing):
            if (left_sort, right_sort) != ("A", "Ahat"):
                raise DslSortError(f"pairing needs an A term then an Ahat term, got "
                                   f"<{left_sort}, {right_sort}> in {pretty(node)}")
            return "scalar", slots, lambda sys: _pair(left(sys), right(sys))
        fn = node.fn
        expected = _ACTION_SORTS[fn]
        if (left_sort, right_sort) != expected[:2]:
            raise DslSortError(f"{fn} expects sorts {expected[:2]}, got "
                               f"{(left_sort, right_sort)} in {pretty(node)}")
        return (expected[2], slots,
                lambda sys: _join(left(sys), right(sys), sys.action_table(fn)))
    (arg,) = node.args
    sort, slots, inner = _compile(arg, env)
    if sort == "scalar":
        raise DslSortError(f"{node.fn} cannot act on a scalar in {pretty(node)}")
    columns = _columns(node.fn, sort)
    if node.fn in SCALAR_FNS:
        sort = "scalar"
    if isinstance(arg, Var):
        # on a bare variable the tensor is the map's own entries
        return sort, slots, lambda sys: {(j, i): v for j, column in enumerate(columns(sys))
                                         for i, v in column}
    return sort, slots, lambda sys: _apply(inner(sys), columns(sys))


def _compile_product(node, env):
    """(sort, slots, terms) of a product, folded left, each factor's sort
    checked as it is folded in: a scalar factor multiplies outright, two
    factors of one sort through that sort's structure constants."""
    sort, slots, first = _compile(node.factors[0], env)
    steps = []
    for f in node.factors[1:]:
        factor_sort, factor_slots, factor = _compile(f, env)
        if "scalar" in (sort, factor_sort):
            steps.append((None, factor))
            if sort == "scalar":
                sort = factor_sort
        elif sort != factor_sort:
            raise DslSortError(f"cannot multiply {sort} by {factor_sort} in {pretty(node)}")
        else:
            steps.append((sort, factor))
        slots += factor_slots

    def terms(sys):
        acc = first(sys)
        for table_sort, factor in steps:
            acc = (_outer(acc, factor(sys)) if table_sort is None
                   else _join(acc, factor(sys), sys.algebra(table_sort).mul_terms))
        return acc
    return sort, slots, terms


@dataclass(frozen=True, eq=False)
class _Side:
    reads: tuple      # positions in decls of the variables the side reads
    tensor: object    # sys -> the side's tensor, keyed by (one basis index
                      # per declared variable, output index)


@dataclass(frozen=True, eq=False)
class _Plan:
    lhs: _Side
    rhs: _Side


def _compile_side(decls, slots, terms, legs) -> _Side:
    """The plan of one side from its compiled slots and terms and the leg
    count of each legged variable: one contraction per legged variable, in
    reading order, then the output layout, where a variable the side does
    not read has index 0."""
    sorts = dict(decls)
    contractions = []
    for var, count in legs.items():
        leg_pos = tuple(slots.index((var, j)) for j in range(1, count + 1))
        rest = tuple(p for p in range(len(slots)) if p not in leg_pos)
        contractions.append((sorts[var], count, leg_pos, rest))
        slots = ((var, None),) + tuple(slots[p] for p in rest)
    where = tuple(slots.index((var, None)) if (var, None) in slots else None
                  for var, _ in decls)
    laid_out = where == tuple(range(len(slots)))

    def tensor(sys):
        out = terms(sys)
        for sort, count, leg_pos, rest in contractions:
            out = _contract_legs(out, count, leg_pos, rest, sys.algebra(sort))
        if laid_out:
            return out
        return {tuple(0 if p is None else key[p] for p in where) + key[-1:]: x
                for key, x in out.items()}
    return _Side(tuple(d for d, p in enumerate(where) if p is not None), tensor)


def _value_at(sys: PairedSystem, sort, terms, combo):
    """The value a side tensor takes at the basis indices combo."""
    zero = sys.primal.field.zero()
    if sort == "scalar":
        return terms.get(combo + (0,), zero)
    return [terms.get(combo + (k,), zero) for k in range(sys.algebra(sort).dim)]


def evaluate_side(sys: PairedSystem, prog: IdentityProgram, node, assignment):
    """Evaluate one side of prog, node being prog.lhs or prog.rhs, on
    arbitrary coordinate columns, the assignment of each variable it reads,
    by contracting its tensor with them; returns (sort, value)."""
    if node is not prog.lhs and node is not prog.rhs:
        raise ValueError("evaluate_side evaluates prog.lhs or prog.rhs")
    side = prog.plan.lhs if node is prog.lhs else prog.plan.rhs
    columns = [(d, assignment[prog.decls[d][0]]) for d in side.reads]
    values = _summed((key[-1:], reduce(mul, (column[key[d]] for d, column in columns), x))
                     for key, x in side.tensor(sys).items())
    return prog.sort, _value_at(sys, prog.sort, values, ())


def _format_value(sys, sort, value):
    if sort == "scalar":
        return str(value)
    return sys.algebra(sort).format_element(value)


def evaluate(prog: IdentityProgram, sys: PairedSystem) -> CheckResult:
    """Check the identity for every basis assignment of its free variables,
    reporting the first failing assignment in cartesian order under prog's
    name."""
    return CheckResult(prog.name, sys.primal.name, *decision(prog, sys))


def decision(prog: IdentityProgram, sys: PairedSystem):
    """(passed, witness) of prog on sys, decided once per system."""
    decided = sys._decided.get(prog.plan)
    if decided is None:
        decided = sys._decided[prog.plan] = _decide(prog, sys)
    return decided


def _decide(prog: IdentityProgram, sys: PairedSystem):
    """(passed, witness) from the tensors of both sides: the witness names
    the least key where they differ."""
    lhs = prog.plan.lhs.tensor(sys)
    rhs = prog.plan.rhs.tensor(sys)
    if lhs == rhs:
        return True, ""
    zero = sys.primal.field.zero()
    combo = min(key for key in lhs.keys() | rhs.keys()
                if lhs.get(key, zero) != rhs.get(key, zero))[:-1]
    names = ", ".join(f"{var}={sys.algebra(sort).basis_names[idx]}"
                      for (var, sort), idx in zip(prog.decls, combo))
    values = [_format_value(sys, prog.sort, _value_at(sys, prog.sort, side, combo))
              for side in (lhs, rhs)]
    return False, f"at {names}: lhs={values[0]} rhs={values[1]}"


def evaluate_corpus(programs, sys: PairedSystem):
    return [evaluate(p, sys) for p in programs]
