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
