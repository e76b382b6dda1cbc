"""Builders for the example families and the algebra file format.

Groups are given by explicit multiplication tables (no presentations, no
word problem).  The algebra interchange format is a JSON document with
sparse structure-constant triples and exact scalar strings, so files
round-trip bit-exactly and diff cleanly.  Files are written in the layout
of json.dumps(doc, indent=1), laid out here in one pass, and read with one
scan over the entries.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from itertools import accumulate, permutations
from json.encoder import encode_basestring_ascii

from .duality import dual_structure
from .hopf import (AntipodeTooLargeError, HopfAlgebra, _coproduct_table, _product,
                   _product_table, _product_triples, _tensor_square_product,
                   compute_antipode)
from .linalg import Matrix
from .scalars import RATIONAL, FieldSpec, Scalar, ScalarSyntaxError, cyclotomic_field


class GroupTableError(ValueError):
    """A multiplication table that is not a group."""


class AlgebraFileSyntaxError(ValueError):
    """Malformed file: JSON syntax, bad scalar literal, or wrong shape."""


class AlgebraFileSemanticError(ValueError):
    """Well-formed file with impossible content (dangling index, non-bialgebra)."""


@dataclass(frozen=True)
class GroupPresentation:
    """A finite group as an order x order index table; table[i][j] = i*j."""

    order: int
    table: tuple
    identity: int

    @classmethod
    def from_table(cls, table, identity=None) -> "GroupPresentation":
        n = len(table)
        if n > GROUP_ORDER_LIMIT:
            raise GroupTableError(
                f"group table order {n} exceeds the group order limit of {GROUP_ORDER_LIMIT}")
        rows = tuple(tuple(row) for row in table)
        if any(len(r) != n for r in rows):
            raise GroupTableError("table must be square")
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise GroupTableError(f"table[{i}][{j}]: entry {x!r} is not an integer")
                if not 0 <= x < n:
                    raise GroupTableError(f"table[{i}][{j}]: entry {x!r} out of range")
        if identity is not None and (isinstance(identity, bool) or not isinstance(identity, int)
                                     or not 0 <= identity < n):
            raise GroupTableError(f"identity {identity!r} is not an element index below {n}")
        if identity is None:
            identity = next(
                (e for e in range(n)
                 if all(rows[e][j] == j and rows[j][e] == j for j in range(n))),
                None,
            )
            if identity is None:
                raise GroupTableError("table has no identity element")
        g = cls(n, rows, identity)
        g._validate()
        return g

    def _validate(self):
        n, t, e = self.order, self.table, self.identity
        for j in range(n):
            if t[e][j] != j or t[j][e] != j:
                raise GroupTableError(f"element {e} is not an identity")
        for i in range(n):
            if e not in t[i]:
                raise GroupTableError(f"element {i} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise GroupTableError(f"table is not associative at ({i},{j},{k})")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)


# Largest group order a GroupPresentation takes: from_table refuses a larger
# table before validating it, cyclic_group and symmetric_group before
# building one.  The table has order^2 entries and its validation order^3
# steps (order 256 takes about a second), and the group algebra's full
# report grows about as order^2.7.
GROUP_ORDER_LIMIT = 256


def cyclic_group(n: int) -> GroupPresentation:
    if n < 1:
        raise GroupTableError("cyclic group order must be >= 1")
    if n > GROUP_ORDER_LIMIT:
        raise GroupTableError(
            f"cyclic group order {n} exceeds the group order limit of {GROUP_ORDER_LIMIT}")
    return GroupPresentation.from_table([[(i + j) % n for j in range(n)] for i in range(n)], 0)


def symmetric_group(n: int) -> GroupPresentation:
    """S_n on n symbols; element order is lexicographic on the permutation
    tuples, so the identity is element 0."""
    if n < 1:
        raise GroupTableError(f"symmetric group degree must be >= 1, got {n}")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > GROUP_ORDER_LIMIT:
            raise GroupTableError(f"symmetric group degree {n} exceeds the group order "
                                  f"limit of {GROUP_ORDER_LIMIT} ({n}! elements)")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[s]] for s in range(n))] for q in perms]
        for p in perms
    ]
    return GroupPresentation.from_table(table, 0)


def _load_json(path):
    """The JSON document in path.  A syntax error, bytes that are not UTF-8,
    or nesting deeper than the decoder recurses, is an
    AlgebraFileSyntaxError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise AlgebraFileSyntaxError(
            f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise AlgebraFileSyntaxError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise AlgebraFileSyntaxError(f"{path}: JSON nested too deeply to read") from exc


def read_group_table(path) -> GroupPresentation:
    """Group table file: {"order": n, "identity": e, "table": [[...]]}"""
    doc = _load_json(path)
    try:
        return GroupPresentation.from_table(doc["table"], doc.get("identity"))
    except (KeyError, TypeError) as exc:
        raise AlgebraFileSyntaxError(f"{path}: not a group table file: {exc}") from exc
    except GroupTableError as exc:
        raise GroupTableError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_group_algebra(group: GroupPresentation, name: str = "group-algebra") -> HopfAlgebra:
    """The group algebra kG: basis e_g, product from the table, every basis
    element group-like, antipode from inversion."""
    n = group.order
    one = RATIONAL.one()
    mul_terms = tuple(tuple(((k, one),) for k in row) for row in group.table)
    comul_terms = tuple(((i, i, one),) for i in range(n))
    unit = tuple(one if i == group.identity else RATIONAL.zero() for i in range(n))
    antipode = Matrix._from_entries(RATIONAL, n, n, {(group.inverse(j), j): one
                                                     for j in range(n)})
    return HopfAlgebra._from_tables(RATIONAL, tuple(f"e{i}" for i in range(n)), mul_terms, unit,
                                    comul_terms, (one,) * n, antipode, name)


def build_function_algebra(group: GroupPresentation, name: str = "function-algebra") -> HopfAlgebra:
    """Functions on a finite group, k^G: the dual of the group algebra kG on
    the canonical dual basis d_g, built from kG's tables transposed
    (duality.dual_structure).  So the product of delta functions is
    pointwise, d_g d_h = [g = h] d_g, the coproduct is dual to the group
    law, coproduct(d_k) = sum over gh = k of d_g (x) d_h, the unit is the
    sum of all d_g, the counit d_e, and the antipode d_g -> d_(g^-1)."""
    return HopfAlgebra._from_tables(RATIONAL, tuple(f"d{i}" for i in range(group.order)),
                                    *dual_structure(build_group_algebra(group)), name)


def _monomial_name(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append("g" if a == 1 else f"g^{a}")
    if b:
        parts.append("x" if b == 1 else f"x^{b}")
    return "*".join(parts) if parts else "1"


def _build_skew_primitive(field: FieldSpec, q: Scalar, n: int, name: str) -> HopfAlgebra:
    """Common construction behind the Sweedler and Taft families.

    Generators: a group-like g with g^n = 1 and a skew-primitive x with
    x^n = 0, x*g = q*g*x, coproduct(x) = x (x) 1 + g (x) x, for q of order
    n.  Basis is the monomials g^a x^b with index a*n + b.  The product of
    two monomials is one power of q, read from the table of its n powers:
    g^a x^b g^c x^d = q^(b*c) g^(a+c) x^(b+d), zero when b + d >= n.  The
    coproduct and the antipode are products of the generators' images,
    taken in that product table, which is also the algebra's.
    """
    dim = n * n
    zero, one = field.zero(), field.one()

    def idx(a, b):
        return a * n + b

    def powers(product, base, first):
        """first, first * base, ..., first * base^(n-1) under product."""
        return accumulate([base] * (n - 1), product, initial=first)

    q_powers = tuple(powers(operator.mul, q, one))
    mt = _product_table(dim, (
        ((idx(a, b), idx(c, d), idx((a + c) % n, b + d)), q_powers[b * c % n])
        for a in range(n) for b in range(n) for c in range(n) for d in range(n - b)))

    # coproduct(g^a x^b) = coproduct(g)^a coproduct(x)^b in A (x) A
    tensor_times = functools.partial(_tensor_square_product, mt)
    dg = {(idx(1, 0), idx(1, 0)): one}
    dx = {(idx(0, 1), idx(0, 0)): one, (idx(1, 0), idx(0, 1)): one}
    comul_triples = {}
    for a, dga in enumerate(powers(tensor_times, dg, {(idx(0, 0), idx(0, 0)): one})):
        for b, term in enumerate(powers(tensor_times, dx, dga)):
            comul_triples.update(((idx(a, b), j, k), c) for (j, k), c in term.items())

    unit = tuple(one if i == idx(0, 0) else zero for i in range(dim))
    counit = tuple(one if i % n == 0 else zero for i in range(dim))

    # antipode on generators, extended anti-multiplicatively:
    # S(g^a x^b) = S(x)^b * S(g)^a, with S(g) = g^(n-1) and S(x) = -g^(n-1) x
    s_entries = {}
    times = functools.partial(_product, mt)
    for b, sxb in enumerate(powers(times, {idx(n - 1, 1): -one}, {idx(0, 0): one})):
        for a, col in enumerate(powers(times, {idx(n - 1, 0): one}, sxb)):
            s_entries.update(((k, idx(a, b)), v) for k, v in col.items())
    antipode = Matrix._from_entries(field, dim, dim, s_entries)

    names = tuple(_monomial_name(a, b) for a in range(n) for b in range(n))
    return HopfAlgebra._from_tables(field, names, mt, unit,
                                    _coproduct_table(dim, sorted(comul_triples.items())),
                                    counit, antipode, name)


def build_sweedler() -> HopfAlgebra:
    """The 4-dimensional algebra with g^2 = 1, x^2 = 0, x*g = -g*x over Q."""
    return _build_skew_primitive(RATIONAL, RATIONAL.scalar(-1), 2, "sweedler")


def build_taft(n: int) -> HopfAlgebra:
    """The n^2-dimensional family over Q(zeta_n); its antipode has order 2n."""
    if n < 2:
        raise ValueError("taft builder needs n >= 2")
    field = cyclotomic_field(n)
    return _build_skew_primitive(field, field.generator(), n, f"taft-{n}")


def build_nongroup_monoid_bialgebra() -> HopfAlgebra:
    """Bialgebra of the two-element monoid {1, z | z^2 = z}: a valid
    bialgebra with group-like basis that has no antipode.  Negative fixture
    for regularity and antipode-synthesis checks."""
    one = RATIONAL.one()
    mul_terms = ((((0, one),), ((1, one),)), (((1, one),), ((1, one),)))
    comul_terms = (((0, 0, one),), ((1, 1, one),))
    return HopfAlgebra._from_tables(RATIONAL, ("1", "z"), mul_terms, (one, RATIONAL.zero()),
                                    comul_terms, (one, one), None, "idempotent-monoid")


BUILTIN_BUILDERS = {
    "group-z2": lambda: build_group_algebra(cyclic_group(2), "group-z2"),
    "group-z6": lambda: build_group_algebra(cyclic_group(6), "group-z6"),
    "group-s3": lambda: build_group_algebra(symmetric_group(3), "group-s3"),
    "functions-z2": lambda: build_function_algebra(cyclic_group(2), "functions-z2"),
    "functions-z6": lambda: build_function_algebra(cyclic_group(6), "functions-z6"),
    "functions-s3": lambda: build_function_algebra(symmetric_group(3), "functions-s3"),
    "sweedler": build_sweedler,
    "taft-2": lambda: build_taft(2),
    "taft-3": lambda: build_taft(3),
    "taft-4": lambda: build_taft(4),
}


def builtin(name: str) -> HopfAlgebra:
    try:
        return BUILTIN_BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; have {sorted(BUILTIN_BUILDERS)}") from None


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------

# Largest cyclotomic order a file may name.  Q(zeta_n) builds n power tables
# of length phi(n), so the cost of loading grows about quadratically in n
# (order 3001 takes 2 s and 154 MiB).  The builtins use orders up to 4.
CYCLOTOMIC_ORDER_LIMIT = 256


def _field_to_json(field: FieldSpec):
    if field.kind == "rational":
        return {"kind": "rational"}
    return {"kind": "cyclotomic", "order": field.order}


def _field_from_json(doc) -> FieldSpec:
    if not isinstance(doc, dict):
        raise AlgebraFileSyntaxError(f"field must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "rational":
        return RATIONAL
    if kind == "cyclotomic":
        order = doc.get("order")
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise AlgebraFileSyntaxError(f"field: bad cyclotomic order {order!r}")
        if order > CYCLOTOMIC_ORDER_LIMIT:
            raise AlgebraFileSemanticError(
                f"field: cyclotomic order {order} exceeds the limit of {CYCLOTOMIC_ORDER_LIMIT}")
        return cyclotomic_field(order)
    raise AlgebraFileSyntaxError(f"unknown field kind {kind!r}")


def algebra_to_json(h: HopfAlgebra) -> dict:
    """The algebra file document of h.  A structure repeats a handful of
    scalar values, so each distinct value is formatted once."""
    texts = {}

    def text(x):
        key = (x.num, x.den)
        s = texts.get(key)
        if s is None:
            s = texts[key] = str(x)
        return s

    doc = {
        "name": h.name,
        "field": _field_to_json(h.field),
        "dim": h.dim,
        "basis": list(h.basis_names),
        "mul": [[i, j, k, text(v)] for (i, j, k), v in _product_triples(h.mul_terms)],
        "comul": [[i, j, k, text(v)] for i, terms in enumerate(h.comul_terms) for j, k, v in terms],
        "counit": [text(c) for c in h.counit],
        "unit": [text(c) for c in h.unit],
    }
    if h.antipode is not None:
        doc["antipode"] = [
            [i, j, text(x)]
            for i, row in enumerate(h.antipode.nonzero_rows())
            for j, x in row
        ]
    return doc


def _json_layout(value, pad="\n"):
    """value, a JSON document of dicts, lists, strings and integers whose
    lists hold only strings and integers or no strings or integers at all,
    laid out byte for byte as json.dumps(value, indent=1) lays it out; pad
    is a newline and the indent of the line value starts on.  Once indent
    is set, json encodes in pure Python a token at a time; here each list
    of scalars is one join."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + " "
    if kind is dict:
        parts = [encode_basestring_ascii(k) + ": " + _json_layout(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    first = type(value[0])
    if first is str or first is int:
        parts = [encode_basestring_ascii(v) if type(v) is str else int.__repr__(v)
                 for v in value]
    else:
        parts = [_json_layout(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(parts) + pad + "]"


def algebra_text(h: HopfAlgebra) -> str:
    """The algebra file text of h: algebra_to_json(h) in the bytes of
    json.dumps(doc, indent=1) + "\n", laid out by _json_layout."""
    return _json_layout(algebra_to_json(h)) + "\n"


def write_algebra(h: HopfAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(algebra_text(h))


def _checked_name(text, where):
    """text, if it is a name: report lines and witnesses print names as
    single words, so a name is non-empty printable text without whitespace."""
    if not (isinstance(text, str) and text.isprintable() and text.split() == [text]):
        raise AlgebraFileSemanticError(
            f"{where}: bad name {text!r}: need printable text without whitespace")
    return text


def algebra_from_json(doc) -> HopfAlgebra:
    """The algebra of an algebra file document; a file without an antipode
    gets one synthesized.  Each mul, comul and antipode entry is checked in
    one scan (integer indices in range, a key not given before, a literal
    already parsed), and the checked terms go to the tables and the
    antipode unchecked; the position text of an error is built only when it
    is raised."""
    if not isinstance(doc, dict):
        raise AlgebraFileSyntaxError("algebra file must be a JSON object")
    try:
        field = _field_from_json(doc["field"])
        dim = doc["dim"]
        basis = doc["basis"]
        mul_triples = doc["mul"]
        comul_triples = doc["comul"]
        counit = doc["counit"]
        unit = doc["unit"]
    except KeyError as exc:
        raise AlgebraFileSyntaxError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise AlgebraFileSyntaxError(f"bad dimension {dim!r}")
    for key in ("basis", "mul", "comul", "counit", "unit", "antipode"):
        if key in doc and not isinstance(doc[key], list):
            raise AlgebraFileSyntaxError(f"{key} must be a JSON list")
    if len(basis) != dim:
        raise AlgebraFileSemanticError(f"basis has {len(basis)} names for dim {dim}")
    name = _checked_name(doc.get("name", "unnamed"), "name")
    first = {}
    for pos, b in enumerate(basis):
        _checked_name(b, f"basis[{pos}]")
        if first.setdefault(b, pos) != pos:
            raise AlgebraFileSemanticError(
                f"basis[{pos}]: duplicate name {b!r}, first given at basis[{first[b]}]")
    if len(counit) != dim or len(unit) != dim:
        raise AlgebraFileSemanticError("counit/unit must list one scalar per basis element")

    # a file repeats a handful of literals (1, -1, z, ...): parse each once;
    # a bad literal is never stored, so each occurrence reports its own place
    parsed = {}

    def parse_scalar(text, label, pos):
        x = parsed.get(text) if type(text) is str else None
        if x is None:
            try:
                x = parsed[text] = field.parse(text)
            except ScalarSyntaxError as exc:
                raise AlgebraFileSyntaxError(f"{label}[{pos}]: {exc}") from None
        return x

    def check_index(i, where):
        if isinstance(i, bool) or not isinstance(i, int):
            raise AlgebraFileSemanticError(f"{where}: index {i!r} is not an integer")
        if not 0 <= i < dim:
            raise AlgebraFileSemanticError(f"{where}: index {i!r} out of range for dim {dim}")
        return i

    def checked(items, pos, label, width, seen):
        """The index tuple and scalar of items[pos], an entry of the
        section label that the scans below could not take as it stands:
        its literal is new, or it is malformed, and then the checks run one
        at a time in file order so the error names its first fault.  seen
        holds the keys of the entries before it; width is the number of
        indices in an entry."""
        item = items[pos]
        where = f"{label}[{pos}]"
        if not isinstance(item, list) or len(item) != width + 1:
            shape = "[i, j, k, scalar]" if width == 3 else "[i, j, scalar]"
            raise AlgebraFileSyntaxError(f"{where}: expected {shape}")
        key = tuple(check_index(t, where) for t in item[:width])
        if key in seen:
            first = next(p for p, earlier in enumerate(items) if tuple(earlier[:width]) == key)
            raise AlgebraFileSemanticError(
                f"{where}: duplicate entry {list(key)}, first given at {label}[{first}]")
        return key, parse_scalar(item[width], label, pos)

    def scanned(items, label, width):
        # one pass: an entry with integer indices in range, a new key and a
        # literal already parsed is taken as it stands; an entry has two or
        # three indices, so its first, second and last are all of them
        out = {}
        for pos, item in enumerate(items):
            if type(item) is list and len(item) == width + 1:
                key, text = tuple(item[:width]), item[width]
                i, j, k = key[0], key[1], key[-1]
                x = parsed.get(text) if type(text) is str else None
                if (x is not None and type(i) is type(j) is type(k) is int and 0 <= i < dim
                        and 0 <= j < dim and 0 <= k < dim and key not in out):
                    out[key] = x
                    continue
            key, x = checked(items, pos, label, width, out)
            out[key] = x
        # in index order, without zeros: as the tables and the matrix take them
        return {key: out[key] for key in sorted(out) if not out[key].is_zero()}

    mul = scanned(mul_triples, "mul", 3)
    comul = scanned(comul_triples, "comul", 3)
    counit_row = tuple(parse_scalar(c, "counit", i) for i, c in enumerate(counit))
    unit_col = tuple(parse_scalar(c, "unit", i) for i, c in enumerate(unit))
    antipode = None
    if "antipode" in doc:
        antipode = Matrix._from_entries(field, dim, dim, scanned(doc["antipode"], "antipode", 2))

    h = HopfAlgebra._from_tables(field, tuple(basis), _product_table(dim, mul.items()), unit_col,
                                 _coproduct_table(dim, comul.items()), counit_row, antipode, name)
    if antipode is None:
        bad = [c.check for c in h.bialgebra_checks() if not c.passed]
        if bad:
            raise AlgebraFileSemanticError(
                f"{h.name}: cannot synthesize an antipode, bialgebra axioms fail: {', '.join(bad)}")
        h = h.with_antipode(compute_antipode(h))
    return h


def read_algebra(path) -> HopfAlgebra:
    """The algebra in the file at path; an error in its content, or a file
    without an antipode past the synthesis limit, names the path before the
    place in the file."""
    doc = _load_json(path)
    try:
        return algebra_from_json(doc)
    except (AlgebraFileSyntaxError, AlgebraFileSemanticError, AntipodeTooLargeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
