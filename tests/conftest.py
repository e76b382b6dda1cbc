import pytest

from hopfcheck.catalog import BUILTIN_BUILDERS, builtin
from hopfcheck.duality import pair_system
from hopfcheck.modular import _invariance_nullspace

BUILTIN_NAMES = list(BUILTIN_BUILDERS)


@pytest.fixture(scope="session")
def algebras():
    """One shared instance per builtin; they are immutable."""
    return {name: builtin(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def paired(algebras):
    """Lazily paired systems, built at most once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = pair_system(algebras[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def suite_reports(paired):
    """Hard-coded verification suites, run at most once per builtin."""
    from hopfcheck.verify import run_all_checks

    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_all_checks(paired(name))
        return cache[name]

    return get


def reference_action(sys, fn, left, right):
    """The action fn (lact, ract, lacthat or racthat) of the paired system sys
    on coordinate columns, in argument order, by dense loops over the
    primal's structure constants: independent of PairedSystem.action_table.

      lacthat(y, a) = sum a_(1) <a_(2), y>    racthat(a, y) = sum <a_(1), y> a_(2)
      lact(a, y)    = z -> y(z * a)           ract(y, a)    = z -> y(a * z)
    """
    h = sys.primal
    out = [h.field.zero()] * h.dim
    if fn in ("lacthat", "racthat"):
        y, a = (left, right) if fn == "lacthat" else (right, left)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for p, q, c in h.comul_terms[i]:
                # lacthat pairs y with the second leg, racthat with the first
                src, dst = (q, p) if fn == "lacthat" else (p, q)
                if not y[src].is_zero():
                    out[dst] = out[dst] + x * c * y[src]
        return out
    a, y = (left, right) if fn == "lact" else (right, left)
    for r, x in enumerate(a):
        if x.is_zero():
            continue
        for s in range(h.dim):
            # lact multiplies a on the right of z, ract on the left
            p, q = (s, r) if fn == "lact" else (r, s)
            for j, c in h.mul_terms[p][q]:
                if not y[j].is_zero():
                    out[s] = out[s] + x * c * y[j]
    return out


def is_commutative(h):
    mt = h.mul_terms
    return all(mt[i][j] == mt[j][i] for i in range(h.dim) for j in range(i))


def is_cocommutative(h):
    n = h.dim
    for i in range(n):
        flipped = {(k, j): c for j, k, c in h.comul_terms[i]}
        straight = {(j, k): c for j, k, c in h.comul_terms[i]}
        if flipped != straight:
            return False
    return True


def integral_space_dimensions(h):
    """Dimensions of the left and right invariant solution spaces."""
    return len(_invariance_nullspace(h, "left")), len(_invariance_nullspace(h, "right"))


def reference_algebra_from_json(doc):
    """The algebra of an algebra file document that has an antipode section,
    with its mul, comul and antipode entries read by the per-entry loop the
    reader used before its one-pass scan: each entry's position text built
    up front, its shape, indices, repeat and literal checked one step at a
    time, and the tensors built through the checking Tensor3.from_dict.
    The header is read by the reader's own helpers.  Raises what
    catalog.algebra_from_json raises, with the same message."""
    from hopfcheck.catalog import (AlgebraFileSemanticError, AlgebraFileSyntaxError,
                                   _field_from_json)
    from hopfcheck.hopf import HopfAlgebra
    from hopfcheck.linalg import Matrix, Tensor3
    from hopfcheck.scalars import ScalarSyntaxError

    field, dim = _field_from_json(doc["field"]), doc["dim"]
    parsed = {}

    def parse_scalar(text, where):
        x = parsed.get(text) if type(text) is str else None
        if x is None:
            try:
                x = parsed[text] = field.parse(text)
            except ScalarSyntaxError as exc:
                raise AlgebraFileSyntaxError(f"{where}: {exc}") from None
        return x

    def check_index(i, where):
        if isinstance(i, bool) or not isinstance(i, int):
            raise AlgebraFileSemanticError(f"{where}: index {i!r} is not an integer")
        if not 0 <= i < dim:
            raise AlgebraFileSemanticError(f"{where}: index {i!r} out of range for dim {dim}")
        return i

    def check_new(key, seen, label, pos):
        if key in seen:
            raise AlgebraFileSemanticError(
                f"{label}[{pos}]: duplicate entry {list(key)}, first given at {label}[{seen[key]}]")
        seen[key] = pos

    def tensor_from(triples, label):
        out = {}
        seen = {}
        for pos, item in enumerate(triples):
            where = f"{label}[{pos}]"
            if not isinstance(item, list) or len(item) != 4:
                raise AlgebraFileSyntaxError(f"{where}: expected [i, j, k, scalar]")
            i, j, k = (check_index(item[t], where) for t in range(3))
            check_new((i, j, k), seen, label, pos)
            out[(i, j, k)] = parse_scalar(item[3], where)
        return Tensor3.from_dict(field, dim, out)

    mul = tensor_from(doc["mul"], "mul")
    comul = tensor_from(doc["comul"], "comul")
    counit_row = [parse_scalar(c, f"counit[{i}]") for i, c in enumerate(doc["counit"])]
    unit_col = [parse_scalar(c, f"unit[{i}]") for i, c in enumerate(doc["unit"])]

    entries = {}
    seen = {}
    for pos, item in enumerate(doc["antipode"]):
        where = f"antipode[{pos}]"
        if not isinstance(item, list) or len(item) != 3:
            raise AlgebraFileSyntaxError(f"{where}: expected [i, j, scalar]")
        i = check_index(item[0], where)
        j = check_index(item[1], where)
        check_new((i, j), seen, "antipode", pos)
        x = parse_scalar(item[2], where)
        if not x.is_zero():
            entries[(i, j)] = x
    antipode = Matrix._from_entries(field, dim, dim, entries)
    return HopfAlgebra(field, doc["basis"], mul, unit_col, comul, counit_row, antipode,
                       name=doc["name"])
