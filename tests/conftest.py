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


def basis_column(h, i):
    """The coordinate column of the basis element e_i of h."""
    col = [h.field.zero()] * h.dim
    col[i] = h.field.one()
    return col


def bilinear(table, a, b):
    """The bilinear map whose structure constants table is laid out like
    HopfAlgebra.mul_terms (table[i][j] lists the (k, c) of basis elements i
    and j) on the coordinate columns a and b, by dense loops."""
    out = [a[0].field.zero()] * len(table)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x.is_zero() or y.is_zero():
                continue
            for k, c in table[i][j]:
                out[k] = out[k] + x * y * c
    return out


def multiply(h, a, b):
    """The product of the coordinate columns a and b in h."""
    return bilinear(h.mul_terms, a, b)


def pairing_value(a, y):
    """<a, y> for a primal column a and a dual column y: the identity
    pairing of the canonical dual basis."""
    acc = a[0].field.zero()
    for x, c in zip(a, y):
        acc = acc + x * c
    return acc


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


def reference_invariance_nullspace(h, side):
    """The left (right) invariance solution space of h from all n^2
    equations, as modular._invariance_nullspace wrote them before it took
    the rows of the dual's generating set: equation (i, j) on row i * n + j
    of a dense matrix, sum_k comul[i][j][k] f(e_k) - f(e_i) unit_j for the
    left side, sum_j comul[i][j][k] f(e_j) - f(e_i) unit_k (on row i * n + k)
    for the right."""
    from hopfcheck.linalg import Matrix, nullspace

    n = h.dim
    rows = [[h.field.zero()] * n for _ in range(n * n)]
    for i, terms in enumerate(h.comul_terms):
        for j, k, c in terms:
            r, col = (i * n + j, k) if side == "left" else (i * n + k, j)
            rows[r][col] = rows[r][col] + c
        for j, u in enumerate(h.unit):
            rows[i * n + j][i] = rows[i * n + j][i] - u
    return nullspace(Matrix(h.field, rows))


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


def reference_sort_check(name, decls, lhs, rhs):
    """(name, decls, lhs, rhs, sort) of a parsed statement, checked by the
    separate walks the parser made before it compiled a statement in the
    walk that checks its sorts: each side's sort inferred, then its slots
    gathered, then its legs counted.  Raises the Dsl*Error that
    identities.parse_identity raises, with the same message."""
    from hopfcheck.identities import (_ACTION_SORTS, _CONST_SORTS, SCALAR_FNS, UNARY_FNS,
                                      Apply, Const, DslLegError, DslLinearityError,
                                      DslSortError, Pairing, Product, ScalarLit, Var, pretty)

    def infer_sort(node, env):
        if isinstance(node, Var):
            if node.name not in env:
                raise DslSortError(f"undeclared variable {node.name!r}")
            return env[node.name]
        if isinstance(node, ScalarLit):
            return "scalar"
        if isinstance(node, Const):
            return _CONST_SORTS[node.kind]
        if isinstance(node, Pairing):
            ls = infer_sort(node.left, env)
            rs = infer_sort(node.right, env)
            if ls != "A" or rs != "Ahat":
                raise DslSortError(f"pairing needs an A term then an Ahat term, got "
                                   f"<{ls}, {rs}> in {pretty(node)}")
            return "scalar"
        if isinstance(node, Apply):
            arg_sorts = [infer_sort(a, env) for a in node.args]
            if node.fn in UNARY_FNS:
                if arg_sorts[0] == "scalar":
                    raise DslSortError(f"{node.fn} cannot act on a scalar in {pretty(node)}")
                return arg_sorts[0]
            if node.fn in SCALAR_FNS:
                if arg_sorts[0] == "scalar":
                    raise DslSortError(f"{node.fn} cannot act on a scalar in {pretty(node)}")
                return "scalar"
            expected = _ACTION_SORTS[node.fn]
            if tuple(arg_sorts) != expected[:2]:
                raise DslSortError(f"{node.fn} expects sorts {expected[:2]}, got "
                                   f"{tuple(arg_sorts)} in {pretty(node)}")
            return expected[2]
        if isinstance(node, Product):
            sort = "scalar"
            for f in node.factors:
                s = infer_sort(f, env)
                if s == "scalar":
                    continue
                if sort == "scalar":
                    sort = s
                elif sort != s:
                    raise DslSortError(f"cannot multiply {sort} by {s} in {pretty(node)}")
            return sort
        raise TypeError(f"not an AST node: {node!r}")

    def slots(node, out):
        if isinstance(node, Var):
            out.append((node.name, node.leg))
        children = (node.args if isinstance(node, Apply) else
                    node.factors if isinstance(node, Product) else
                    (node.left, node.right) if isinstance(node, Pairing) else ())
        for child in children:
            slots(child, out)
        return out

    def check_legs(side_label, node):
        found = slots(node, [])
        seen = set()
        for slot in found:
            if slot in seen:
                raise DslLinearityError(
                    f"{name}: {pretty(Var(*slot))} occurs more than once on the {side_label}; "
                    f"basis-only checking needs each side linear in every variable and leg")
            seen.add(slot)
        usage = {}
        for var, leg in found:
            usage.setdefault(var, set()).add(leg)
        for var, used in usage.items():
            if None in used and len(used) > 1:
                raise DslLegError(
                    f"{name}: {var!r} is used both bare and with legs on the {side_label}")
            numbered = sorted(u for u in used if u is not None)
            if numbered and numbered != list(range(1, len(numbered) + 1)):
                raise DslLegError(
                    f"{name}: legs of {var!r} on the {side_label} must be 1..k, got {numbered}")

    env = dict(decls)
    lhs_sort = infer_sort(lhs, env)
    rhs_sort = infer_sort(rhs, env)
    if lhs_sort != rhs_sort:
        raise DslSortError(f"{name}: sides have sorts {lhs_sort} and {rhs_sort}")
    lhs_vars = {var for var, _ in slots(lhs, [])}
    rhs_vars = {var for var, _ in slots(rhs, [])}
    declared = set(env)
    if (lhs_vars | rhs_vars) - declared:
        raise DslSortError(f"{name}: undeclared variables {sorted((lhs_vars | rhs_vars) - declared)}")
    if lhs_vars != rhs_vars:
        raise DslSortError(
            f"{name}: sides use different free variables {sorted(lhs_vars)} vs {sorted(rhs_vars)}")
    check_legs("left side", lhs)
    check_legs("right side", rhs)
    return name, decls, lhs, rhs, lhs_sort
