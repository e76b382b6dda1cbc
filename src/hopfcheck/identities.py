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
entries, each variable's legs contracted with its iterated coproduct at
the node where they meet.  The two tensors are compared entry by entry,
and a failure names the least differing assignment, the first in
cartesian order.  In "<sigma(a), y * z>" on the 16-dimensional taft-4,
y * z has 40 entries, one per nonzero structure constant of the dual
product, against 4096 assignments.  What depends on the statement alone
(sorts, slots, where legs meet, output layout) is compiled into a plan
when the statement is parsed, in the same walk that checks its sorts, so
a system only runs the contractions.

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
# each constant: the sort of the side it is read on, and what it reads there
_CONSTANTS = {"one": ("A", "unit"), "delta": ("A", "delta"), "deltainv": ("A", "delta_inv"),
              "onehat": ("Ahat", "unit"), "dhat": ("Ahat", "delta"),
              "dhatinv": ("Ahat", "delta_inv"), "tau": ("A", "tau")}
_CONST_SORTS = {kind: "scalar" if read == "tau" else sort
                for kind, (sort, read) in _CONSTANTS.items()}
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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<op>[:.,*()<>=/]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m:
            rest = src[pos:].lstrip()  # from the first character not read
            if not rest:
                break
            raise DslSyntaxError(f"position {len(src) - len(rest)}: cannot read {rest[:10]!r}")
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
# evaluation each recurse once per level, and fold a product's factors in a
# loop; the bundled corpora nest about 6 deep.
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
    seen, usage = set(), {}
    for slot in slots:
        if slot in seen:
            raise DslLinearityError(
                f"{name}: {pretty(Var(*slot))} occurs more than once on the {side_label}; "
                f"basis-only checking needs each side linear in every variable and leg")
        seen.add(slot)
        usage.setdefault(slot[0], []).append(slot[1])
    legs = {}
    for var, used in usage.items():
        numbered = sorted(u for u in used if u is not None)
        if numbered and None in used:
            raise DslLegError(
                f"{name}: {var!r} is used both bare and with legs on the {side_label}")
        if numbered != list(range(1, len(numbered) + 1)):
            raise DslLegError(
                f"{name}: legs of {var!r} on the {side_label} must be 1..k, got {numbered}")
        if numbered:
            legs[var] = len(numbered)
    return legs


def _sort_check(name, decls, lhs, rhs) -> IdentityProgram:
    """The program of a parsed statement: each side compiled, which checks
    its sorts, then the two sides' sorts, variables and legs checked
    against each other."""
    env = dict(decls)
    lhs_sort, lhs_slots, lhs_build = _compile(lhs, env)
    rhs_sort, rhs_slots, rhs_build = _compile(rhs, env)
    if lhs_sort != rhs_sort:
        raise DslSortError(f"{name}: sides have sorts {lhs_sort} and {rhs_sort}")
    lhs_vars = {var for var, _ in lhs_slots}
    rhs_vars = {var for var, _ in rhs_slots}
    if lhs_vars != rhs_vars:
        raise DslSortError(
            f"{name}: sides use different free variables {sorted(lhs_vars)} vs {sorted(rhs_vars)}")
    lhs_legs = _check_legs(name, "left side", lhs_slots)
    rhs_legs = _check_legs(name, "right side", rhs_slots)
    plan = _Plan(_compile_half(decls, lhs_build(lhs_legs)),
                 _compile_half(decls, rhs_build(rhs_legs)))
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
# per variable and leg): terms maps (one basis index per slot, then an
# output index) to the nonzero output coordinate the subterm takes when
# each slot holds that basis element; a scalar subterm has the single
# output index 0.  Every node contracts the stored entries of its operands
# only: a map through its nonzero matrix columns (of a bare variable, its
# entries are the tensor), a product or an action through its table of
# structure constants, composed with the map or functional of the product
# if there is one, the pairing by matching output indices (the identity
# on the canonical basis).  The legs of a variable contract with its
# iterated coproduct, the implicit Sweedler summation, at the binary node
# where they meet: only leg indices that occur together in the coproduct
# are joined, and the variable's slot leads the joined key.
#
# Everything but the terms depends on the statement alone, so it is
# compiled when the statement is parsed into a plan: each node's sort and
# slots, the operator, table, functional or constant it reads, where each
# variable's legs meet, and the output layout.  On a system the plan only
# runs the contractions.  Its leaves (a bare variable, a constant, the
# entries of a map on a bare variable) and every table it reads are kept
# on the side of the algebra they are read on (duality.Side), so a system
# and its swapped() build each once.

def _column_terms(column):
    """The terms of the tensor without slots whose value is column."""
    return {(k,): x for k, x in enumerate(column) if not x.is_zero()}


def _variable_terms(side):
    """The tensor of a bare variable on side's algebra: one slot, output its
    index."""
    def make():
        one = side.algebra.field.one()
        return {(i, i): one for i in range(side.algebra.dim)}
    return side.made("variable", make)


def _constant_terms(side, read):
    """The tensor of a constant: the unit, delta or delta_inv of side's
    algebra, or its tau, which is not zero."""
    def make():
        value = side.algebra.unit if read == "unit" else getattr(side.modular, read)
        return _column_terms((value,) if read == "tau" else value)
    return side.made(("constant", read), make)


def _entry_terms(side, fn):
    """The tensor of the map or functional fn on a bare variable of side's
    algebra: its own entries."""
    return side.made(("entries", fn), lambda: {
        (k, r): v for k, column in enumerate(side.columns(fn)) for r, v in column})


# the tables of the pairing (output 0) and of a scalar factor (output i + j)
_PAIR, _OUTER = "pair", "outer"
_NO_LEGS = (((), None, (), ()),)  # the coterms of a node where no legs meet


def _grouped(terms, split):
    """{leg indices: {output: [(other slot indices, value)]}} by split(key)."""
    groups = {}
    if split is None:  # no legs meet: one group
        for key, x in terms.items():
            groups.setdefault(key[-1], []).append((key[:-1], x))
        return {(): groups}
    for key, x in terms.items():
        legs, rest = split(key)
        groups.setdefault(legs, {}).setdefault(key[-1], []).append((rest, x))
    return groups


def _join(left, right, table, coterms, lsplit, rsplit):
    """A binary node on both operands' outputs, the legs that meet at it
    contracted.  table[i][j] lists the nonzero (k, c) of a bilinear map on
    basis elements i and j, like mul_terms, or is _PAIR or _OUTER (whose c
    is None, for 1).  Each coterm (head, c, left legs, right legs) joins the
    terms with those leg indices, scaled by c, under head, the basis
    indices of the meeting variables."""
    if table is _OUTER and coterms is _NO_LEGS:
        # a scalar factor where no legs meet: output i + j, no key repeats,
        # and a product of nonzero scalars is nonzero
        return {ka[:-1] + kb[:-1] + (ka[-1] + kb[-1],): a * b
                for ka, a in left.items() for kb, b in right.items()}
    lefts, rights = _grouped(left, lsplit), _grouped(right, rsplit)
    pair, outer, out, summed = table is _PAIR, table is _OUTER, {}, False
    for head, c, lk, rk in coterms:
        lg, rg = lefts.get(lk), rights.get(rk)
        for i, ls in (lg.items() if lg and rg else ()):
            row = None if pair or outer else table[i]
            for j, rs in ((((i, rg[i]),) if i in rg else ()) if pair else rg.items()):
                cell = row[j] if row else ((0, None),) if pair else ((i + j, None),)
                if not cell:
                    continue
                for ka, a in ls:
                    if head:
                        ka, a = head + ka, c * a
                    for kb, b in rs:
                        ab, kab = a * b, ka + kb
                        for k, t in cell:
                            key, x = kab + (k,), ab if t is None else ab * t
                            prev = out.get(key)
                            if prev is None:
                                out[key] = x
                            else:
                                out[key], summed = prev + x, True
    # only a sum can be zero: every term is a product of nonzero scalars
    return _nonzero(out) if summed else out


def _picker(positions):
    """key -> the tuple of key's entries at positions."""
    if len(positions) == 1:
        return lambda key, p=positions[0]: (key[p],)
    return itemgetter(*positions) if positions else lambda key: ()


def _fold(legs, sorts, first, steps):
    """(slots, terms) of first, an operand's (slots, terms), joined in turn
    with the operand of each step (table, (slots, terms)), where table(sys)
    is what _join reads; legs has the leg count of each legged variable of
    the side.  A variable with legs on both operands of a join and none
    elsewhere meets there: its slot (var, None) leads the join's keys.  The
    joins run in one loop, so a long product costs no stack depth."""
    slots, first_terms = first
    joins = []
    for table, (rs, rt) in steps:
        ls, meets, held = slots, [], []
        for var, count in legs.items():
            lj = [j for j in range(1, count + 1) if (var, j) in ls]
            rj = [j for j in range(1, count + 1) if (var, j) in rs]
            if lj and rj and len(lj) + len(rj) == count:
                meets.append((sorts[var], count, tuple(lj), tuple(rj)))
                held += [(var, j) for j in range(1, count + 1)] + [(var, None)]
        splits = [(lambda key, a=_picker([o.index(s) for s in held if s in o]),
                   b=_picker([p for p, s in enumerate(o) if s not in held]): (a(key), b(key)))
                  for o in (ls, rs)] if meets else (None, None)
        slots = tuple(s for s in held if s[1] is None) + tuple(s for s in ls + rs if s not in held)
        joins.append((table, meets, splits, rt))

    def terms(sys):
        acc = first_terms(sys)
        for table, meets, splits, rt in joins:
            acc = _join(acc, rt(sys), table(sys), _coterms(sys, meets), *splits)
        return acc
    return slots, terms


def _coterms(sys, meets):
    """_join's coterms: every combination of one iterated coproduct term
    per meeting (sort, count, left legs, right legs)."""
    out = _NO_LEGS
    for sort, count, lj, rj in meets:
        terms = _meeting_terms(sys.side(sort), count, lj, rj)
        out = terms if out is _NO_LEGS else [
            (head + h, c * d, lk + lk2, rk + rk2)
            for head, c, lk, rk in out for h, d, lk2, rk2 in terms]
    return out


def _meeting_terms(side, count, lj, rj):
    """The coterms of one variable of side's algebra whose count legs meet,
    lj on the left and rj on the right: ((i,), c, left leg indices, right
    leg indices) per basis element e_i and term c of its iterated
    coproduct."""
    def make():
        lsel, rsel = _picker([j - 1 for j in lj]), _picker([j - 1 for j in rj])
        return [((i,), d, lsel(idxs), rsel(idxs))
                for i, terms in enumerate(side.iterated_coproduct(count)) for d, idxs in terms]
    return side.made(("coterms", count, lj, rj), make)


def _table(sort, fn):
    """table(sys) of a product step of two factors of sort, composed with
    the map or functional fn if given; of a scalar factor if sort is None."""
    if sort is None:
        return lambda sys: _OUTER
    if not fn:
        return lambda sys: sys.algebra(sort).mul_terms
    return lambda sys: sys.side(sort).composed_table(fn)


def _applied(built, fn, sort):
    """(slots, terms) of the map or functional fn applied to built's output
    of sort, through the nonzero (row, value) entries of its columns."""
    slots, terms = built

    def applied(sys):
        columns, out, summed = sys.side(sort).columns(fn), {}, False
        for key, x in terms(sys).items():
            head = key[:-1]
            for i, v in columns[key[-1]]:
                key_i = head + (i,)
                prev = out.get(key_i)
                if prev is None:
                    out[key_i] = v * x
                else:
                    out[key_i], summed = prev + v * x, True
        return _nonzero(out) if summed else out
    return slots, applied


def _compile(node, env):
    """(sort, slots, build) of node: its sort, its (variable, leg) slots in
    reading order, and build(legs), its (slots, terms(sys)) given the leg
    count of each legged variable of its side, with one slot (var, None)
    for a variable whose legs met in node or that has one.  An ill-sorted
    node raises DslSortError, after its operands are checked."""
    if isinstance(node, Var):
        if node.name not in env:
            raise DslSortError(f"undeclared variable {node.name!r}")
        name, leg, sort = node.name, node.leg, env[node.name]
        return sort, ((name, leg),), lambda legs: (
            ((name, leg if legs.get(name, 1) > 1 else None),),
            lambda sys: _variable_terms(sys.side(sort)))
    if isinstance(node, ScalarLit):
        value = node.value
        return "scalar", (), lambda legs: (
            (), lambda sys: _column_terms([sys.primal.field.scalar(value)]))
    if isinstance(node, Const):
        sort, read = _CONSTANTS[node.kind]
        return _CONST_SORTS[node.kind], (), lambda legs: (
            (), lambda sys: _constant_terms(sys.side(sort), read))
    if isinstance(node, Product):
        return _compile_product(node, env)
    if isinstance(node, Pairing) or node.fn in ACTION_FNS:
        operands = (node.left, node.right) if isinstance(node, Pairing) else node.args
        (left_sort, left_slots, left), (right_sort, right_slots, right) = (
            _compile(c, env) for c in operands)
        fn = None if isinstance(node, Pairing) else node.fn
        expected = _ACTION_SORTS[fn] if fn else ("A", "Ahat", "scalar")
        if (left_sort, right_sort) != expected[:2]:
            raise DslSortError(f"{fn} expects sorts {expected[:2]}, got "
                               f"{(left_sort, right_sort)} in {pretty(node)}" if fn else
                               f"pairing needs an A term then an Ahat term, got "
                               f"<{left_sort}, {right_sort}> in {pretty(node)}")
        # an action reads the coproduct of the algebra it acts on
        action = "left" if fn and fn.startswith("l") else "right"
        table = ((lambda sys: sys.side(expected[2]).action_table(action)) if fn
                 else (lambda sys: _PAIR))
        return expected[2], left_slots + right_slots, lambda legs: _fold(
            legs, env, left(legs), [(table, right(legs))])
    (arg,), fn = node.args, node.fn
    sort, slots, inner = _compile(arg, env)
    if sort == "scalar":
        raise DslSortError(f"{fn} cannot act on a scalar in {pretty(node)}")
    value_sort = "scalar" if fn in SCALAR_FNS else sort
    if isinstance(arg, Product):
        return value_sort, slots, lambda legs: inner(legs, fn)
    if isinstance(arg, Var):
        # on a bare variable the tensor is the map's own entries
        return value_sort, slots, lambda legs: (
            inner(legs)[0], lambda sys: _entry_terms(sys.side(sort), fn))
    return value_sort, slots, lambda legs: _applied(inner(legs), fn, sort)


def _compile_product(node, env):
    """(sort, slots, build) of a product, folded left, each factor's sort
    checked as it is folded in: a scalar factor multiplies outright, two
    factors of one sort through that sort's structure constants.  With fn,
    build(legs, fn) builds fn of the product: a last step of two factors
    reads their table composed with fn, a last scalar factor precedes it."""
    sort, slots, first = _compile(node.factors[0], env)
    steps = []
    for f in node.factors[1:]:
        factor_sort, factor_slots, factor = _compile(f, env)
        scalar = "scalar" in (sort, factor_sort)
        if not scalar and sort != factor_sort:
            raise DslSortError(f"cannot multiply {sort} by {factor_sort} in {pretty(node)}")
        steps.append((None if scalar else sort, factor))
        sort = factor_sort if sort == "scalar" else sort
        slots += factor_slots

    def build(legs, fn=None):
        built = _fold(legs, env, first(legs), [  # on: a sort, or None for a scalar
            (_table(on, n == len(steps) and fn), factor(legs))
            for n, (on, factor) in enumerate(steps, 1)])
        return _applied(built, fn, sort) if fn and not steps[-1][0] else built
    return sort, slots, build


@dataclass(frozen=True, eq=False)
class _Half:
    """The plan of one side of an equation."""
    reads: tuple      # positions in decls of the variables the side reads
    tensor: object    # sys -> the side's tensor, keyed by (one basis index
                      # per declared variable, output index)


@dataclass(frozen=True, eq=False)
class _Plan:
    lhs: _Half
    rhs: _Half


def _compile_half(decls, built) -> _Half:
    """The plan of one side from its (slots, terms), where each variable
    has one slot: the output layout, where a variable the side does not
    read has index 0."""
    slots, terms = built
    where = tuple(slots.index((var, None)) if (var, None) in slots else None
                  for var, _ in decls)
    reads = tuple(d for d, p in enumerate(where) if p is not None)
    if where == tuple(range(len(slots))):
        return _Half(reads, terms)
    return _Half(reads, lambda sys: {tuple(0 if p is None else key[p] for p in where)
                                     + key[-1:]: x for key, x in terms(sys).items()})


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
    half = prog.plan.lhs if node is prog.lhs else prog.plan.rhs
    columns = [(d, assignment[prog.decls[d][0]]) for d in half.reads]
    values = _summed((key[-1:], reduce(mul, (column[key[d]] for d, column in columns), x))
                     for key, x in half.tensor(sys).items())
    return prog.sort, _value_at(sys, prog.sort, values, ())


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
    values = [_value_at(sys, prog.sort, side, combo) for side in (lhs, rhs)]
    if prog.sort != "scalar":
        values = [sys.algebra(prog.sort).format_element(v) for v in values]
    return False, f"at {names}: lhs={values[0]} rhs={values[1]}"


def evaluate_corpus(programs, sys: PairedSystem):
    return [evaluate(p, sys) for p in programs]
