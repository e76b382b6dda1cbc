import json
import math
import random
import tracemalloc

import pytest

from hopfcheck import catalog, hopf
from hopfcheck.catalog import (GROUP_ORDER_LIMIT, AlgebraFileSemanticError, AlgebraFileSyntaxError,
                               GroupPresentation, GroupTableError, algebra_from_json,
                               algebra_text, algebra_to_json,
                               build_function_algebra, build_group_algebra,
                               build_nongroup_monoid_bialgebra, build_sweedler,
                               build_taft, builtin, cyclic_group, read_algebra,
                               read_group_table, symmetric_group, write_algebra)
from hopfcheck.cli import matrix_order
from hopfcheck.duality import build_dual
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Matrix
from hopfcheck.scalars import RATIONAL, FieldSpec, Scalar, cyclotomic_field

from conftest import BUILTIN_NAMES, is_cocommutative, reference_algebra_from_json
from test_hopf import _signed_permutation, _transported


def test_group_table_validation():
    with pytest.raises(GroupTableError):
        GroupPresentation.from_table([[0, 1], [1, 1]])       # 1 has no inverse
    with pytest.raises(GroupTableError):
        GroupPresentation.from_table([[1, 0], [1, 0]])       # no identity
    with pytest.raises(GroupTableError):
        GroupPresentation.from_table([[0, 1], [1, 2]])       # entry out of range
    g = cyclic_group(6)
    assert g.identity == 0 and g.inverse(1) == 5 and g.mul(4, 5) == 3


def test_symmetric_group_s3():
    g = symmetric_group(3)
    assert g.order == 6
    assert any(g.mul(i, j) != g.mul(j, i) for i in range(6) for j in range(6))


@pytest.mark.parametrize("n", [0, -3])
def test_symmetric_group_needs_a_symbol(n):
    with pytest.raises(GroupTableError, match=f"symmetric group degree must be >= 1, got {n}"):
        symmetric_group(n)
    assert symmetric_group(1).order == 1


def test_group_builders_refuse_orders_past_the_limit_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(catalog, "permutations", lambda xs: built.append(xs) or [])
    monkeypatch.setattr(GroupPresentation, "from_table",
                        classmethod(lambda cls, table, identity=None: built.append(table)))
    n = GROUP_ORDER_LIMIT + 1
    with pytest.raises(GroupTableError, match=f"cyclic group order {n} exceeds the group "
                                              f"order limit of {GROUP_ORDER_LIMIT}$"):
        cyclic_group(n)
    for degree in (6, 10**9):  # 6! = 720 is the first factorial past the limit
        with pytest.raises(GroupTableError, match=rf"symmetric group degree {degree} exceeds "
                           rf"the group order limit of {GROUP_ORDER_LIMIT} \({degree}! elements\)"):
            symmetric_group(degree)
    assert built == []


def test_group_builders_reach_the_order_limit():
    assert math.factorial(5) <= GROUP_ORDER_LIMIT < math.factorial(6)
    assert symmetric_group(5).order == 120
    assert cyclic_group(GROUP_ORDER_LIMIT).order == GROUP_ORDER_LIMIT


def test_trivial_group_algebra_is_base_field():
    h = build_group_algebra(cyclic_group(1), "trivial")
    assert h.dim == 1
    assert h.validate().ok


def test_function_algebra_of_s3_is_not_cocommutative():
    h = build_function_algebra(symmetric_group(3), "k-s3")
    assert h.validate().ok
    assert not is_cocommutative(h)


def test_all_builtins_validate(algebras):
    for name in BUILTIN_NAMES:
        assert algebras[name].validate().ok, name


def test_taft2_matches_sweedler_over_q():
    taft = build_taft(2)
    sw = build_sweedler()
    assert taft.basis_names == sw.basis_names
    n = sw.dim
    for t_taft, t_sw in ((taft.mul, sw.mul), (taft.comul, sw.comul)):
        assert {key: x.coeffs for key, x in t_taft.terms.items()} == \
            {key: x.coeffs for key, x in t_sw.terms.items()}
    for i in range(n):
        assert taft.counit[i].coeffs == sw.counit[i].coeffs
        assert taft.unit[i].coeffs == sw.unit[i].coeffs
        for j in range(n):
            assert taft.antipode.data[i][j].coeffs == sw.antipode.data[i][j].coeffs


@pytest.mark.parametrize("n", ["sweedler", *range(2, 9)])
def test_skew_primitive_product_is_the_power_formula(n):
    # g^a x^b g^c x^d = q^(b*c) g^(a+c) x^(b+d), zero when b + d >= n, with
    # each power taken by Scalar.__pow__; no other constant exists
    if n == "sweedler":
        h, q, n = build_sweedler(), RATIONAL.scalar(-1), 2
    else:
        h, q = build_taft(n), cyclotomic_field(n).generator()
    assert h.mul.terms == {(a * n + b, c * n + d, (a + c) % n * n + b + d): q ** (b * c)
                           for a in range(n) for b in range(n)
                           for c in range(n) for d in range(n - b)}


@pytest.mark.parametrize("group", [*(f"z{n}" for n in range(1, 13)), "s3", "s4"])
def test_function_algebra_is_written_out_as_the_functions_on_the_group(group):
    group = (cyclic_group if group[0] == "z" else symmetric_group)(int(group[1:]))
    h = build_function_algebra(group, "k^G")
    n, one, zero = group.order, RATIONAL.one(), RATIONAL.zero()
    assert h.basis_names == tuple(f"d{g}" for g in range(n))
    # d_g d_h = [g = h] d_g and coproduct(d_k) = sum over gh = k of d_g (x) d_h
    assert h.mul.terms == {(g, g, g): one for g in range(n)}
    assert h.comul.terms == {(group.mul(g, k), g, k): one for g in range(n) for k in range(n)}
    assert h.unit == (one,) * n
    assert h.counit == tuple(one if g == group.identity else zero for g in range(n))
    # S(d_g) = d_(g^-1): row g of the matrix holds a one in column g^-1
    assert h.antipode.nonzero_rows() == tuple(((group.inverse(g), one),) for g in range(n))


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "taft-7", "group-s4", "functions-s4",
                                  "idempotent-monoid"])
def test_builders_write_their_tables_as_the_public_constructor_groups_them(name):
    # _from_tables takes its tables as they stand, so each builder must
    # write them in index order and without zeros, as the public
    # constructor regroups them from h.mul and h.comul
    h = {"taft-7": lambda: build_taft(7),
         "group-s4": lambda: build_group_algebra(symmetric_group(4), name),
         "functions-s4": lambda: build_function_algebra(symmetric_group(4), name),
         "idempotent-monoid": build_nongroup_monoid_bialgebra}.get(name, lambda: builtin(name))()
    regrouped = HopfAlgebra(h.field, h.basis_names, h.mul, h.unit, h.comul, h.counit,
                            h.antipode, h.name)
    assert regrouped.mul_terms == h.mul_terms
    assert regrouped.comul_terms == h.comul_terms
    assert (regrouped.unit, regrouped.counit) == (h.unit, h.counit)


def test_taft12_build_takes_no_scalar_power(monkeypatch):
    # a count, not a timing: taking q^(b*c) per product term made 11,232
    # Scalar.__pow__ calls at taft-12 (160 at taft-4); the builder reads a
    # table of the n powers of q instead
    calls = [0]
    power = Scalar.__pow__

    def counted(*args):
        calls[0] += 1
        return power(*args)

    monkeypatch.setattr(Scalar, "__pow__", counted)
    h = build_taft(12)
    monkeypatch.undo()
    assert calls[0] == 0
    assert h.dim == 144


@pytest.mark.parametrize("builder,order", [
    (build_sweedler, 4),
    (lambda: build_taft(2), 4),
    (lambda: build_taft(3), 6),
    (lambda: build_taft(4), 8),
])
def test_antipode_orders(builder, order):
    h = builder()
    assert matrix_order(h.antipode) == order


@pytest.mark.parametrize("n", [3, 4])
def test_taft_fourth_power_nontrivial(n):
    s = build_taft(n).antipode
    ident = Matrix.identity(s.field, s.rows)
    assert s.pow(4) != ident
    assert s.pow(2) != ident


def test_sweedler_fourth_power_trivial():
    s = build_sweedler().antipode
    ident = Matrix.identity(s.field, s.rows)
    assert s.pow(4) == ident and s.pow(2) != ident


def test_file_round_trip(tmp_path, algebras):
    # every builtin and its dual: write, read, write again gives the same bytes
    for h in [k for g in algebras.values() for k in (g, build_dual(g))]:
        path = tmp_path / f"{h.name}.alg"
        write_algebra(h, path)
        back = read_algebra(path)
        assert back.name == h.name
        assert back.basis_names == h.basis_names
        assert back.mul == h.mul and back.comul == h.comul
        assert back.unit == h.unit and back.counit == h.counit
        assert back.antipode == h.antipode
        # files are byte-stable
        first = path.read_bytes()
        write_algebra(back, path)
        assert path.read_bytes() == first


def test_zero_entries_read_in_are_not_written_back(tmp_path):
    h = build_sweedler()
    doc = algebra_to_json(h)
    doc["mul"].insert(1, [0, 0, 1, "0"])
    doc["comul"].append([3, 3, 3, "0"])
    doc["antipode"].insert(0, [0, 1, "0"])
    path = tmp_path / "zeros.alg"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    back = read_algebra(path)
    assert back.mul == h.mul and back.comul == h.comul and back.antipode == h.antipode
    write_algebra(back, path)
    assert path.read_text() == algebra_text(h)


def _writer_cases(algebras):
    """Algebras whose files the writer lays out: every builtin and its dual,
    seeded signed relabellings, a bialgebra without an antipode, and names
    that need JSON escapes."""
    cases = [k for h in algebras.values() for k in (h, build_dual(h))]
    rng = random.Random("writer-oracle")
    for name in ("sweedler", "taft-3", "group-s3", "functions-s3"):
        h = algebras[name]
        for seed in range(2):
            cases.append(_transported(h, _signed_permutation(h.field, h.dim, rng),
                                      f"{name}-relabelled{seed}"))
    cases.append(build_nongroup_monoid_bialgebra())
    h = algebras["sweedler"]
    cases.append(HopfAlgebra(h.field, ['a"b', "c\\d", "\u00e9", "g\tx"], h.mul, h.unit,
                             h.comul, h.counit, h.antipode, name='\u00e9"\\'))
    return cases


def test_algebra_text_is_the_indented_json_of_the_document(algebras):
    # json.dumps stays the oracle for the layout the writer builds itself
    for h in _writer_cases(algebras):
        assert algebra_text(h) == json.dumps(algebra_to_json(h), indent=1) + "\n", h.name


_MUTATIONS = ("bool index", "float index", "negative index", "index past dim", "short entry",
              "long entry", "not a list", "repeated key", "bad literal", "literal too long",
              "zero literal", "new literal", "moved entry", "another index")


def _mutate(doc, rng):
    """Apply one seeded mutation to a mul, comul or antipode entry of doc;
    returns its name."""
    label = rng.choice(("mul", "comul", "antipode"))
    entries = doc[label]
    width = 2 if label == "antipode" else 3
    pos = rng.choice([p for p, item in enumerate(entries)
                      if type(item) is list and len(item) == width + 1])
    item = entries[pos]
    slot = rng.randrange(width)
    kind = rng.choice(_MUTATIONS)
    if kind == "bool index":
        item[slot] = rng.choice((True, False))
    elif kind == "float index":
        item[slot] = float(item[slot])
    elif kind == "negative index":
        item[slot] = -1 - item[slot] if type(item[slot]) is int else -1
    elif kind == "index past dim":
        item[slot] = doc["dim"] + rng.randrange(3)
    elif kind == "short entry":
        del item[rng.randrange(len(item))]
    elif kind == "long entry":
        item.insert(rng.randrange(len(item) + 1), rng.choice((0, "1")))
    elif kind == "not a list":
        entries[pos] = rng.choice((tuple(item), {"i": 0}, "1", 3, None))
    elif kind == "repeated key":
        entries.insert(rng.randrange(len(entries) + 1), item[:width] + [rng.choice(("1", "2"))])
    elif kind == "bad literal":
        item[width] = rng.choice(("z^", "1/0", "", "x", 1, None, ["1"]))
    elif kind == "literal too long":
        item[width] = "1" * 5000
    elif kind == "zero literal":
        item[width] = "0"
    elif kind == "new literal":
        item[width] = rng.choice(("2", "-1/3", "7"))
    elif kind == "moved entry":
        entries.insert(rng.randrange(len(entries)), entries.pop(pos))
    else:
        item[slot] = rng.randrange(doc["dim"])
    return f"{label}[{pos}] {kind}"


def _outcome(read, doc):
    try:
        return read(doc)
    except (AlgebraFileSyntaxError, AlgebraFileSemanticError) as exc:
        return exc


@pytest.mark.parametrize("name", ["sweedler", "taft-3"])
def test_one_pass_reader_matches_the_per_entry_reference(name):
    # the reader's scan against the per-entry loop it replaced: the same
    # error, type and message, or an equal algebra, on seeded mutations
    base = json.dumps(algebra_to_json(builtin(name)))
    rng = random.Random(f"reader:{name}")
    raised = 0
    for trial in range(300):
        doc = json.loads(base)
        what = [_mutate(doc, rng) for _ in range(rng.choice((1, 1, 2)))]
        want = _outcome(reference_algebra_from_json, doc)
        got = _outcome(algebra_from_json, doc)
        if isinstance(want, Exception):
            raised += 1
            assert (type(got), str(got)) == (type(want), str(want)), what
            continue
        assert not isinstance(got, Exception), (what, got)
        assert got.mul.terms == want.mul.terms and got.comul.terms == want.comul.terms, what
        assert list(got.mul.terms) == list(want.mul.terms), what
        assert got.unit == want.unit and got.counit == want.counit, what
        assert got.antipode.nonzero_rows() == want.antipode.nonzero_rows(), what
        assert (got.name, got.basis_names) == (want.name, want.basis_names), what
    assert 100 < raised < 290
def test_missing_antipode_is_synthesized(tmp_path):
    h = build_sweedler()
    doc = algebra_to_json(h)
    del doc["antipode"]
    path = tmp_path / "no-s.alg"
    path.write_text(json.dumps(doc))
    back = read_algebra(path)
    assert back.antipode == h.antipode


def test_synthesized_antipode_reuses_the_bialgebra_checks(monkeypatch):
    # the file's bialgebra axioms are checked once, in one call on the rows
    # of G; the algebra that gets the synthesized antipode takes over their
    # results and G, and checks only the antipode laws
    calls = []
    real = hopf._bialgebra_failures
    monkeypatch.setattr(hopf, "_bialgebra_failures",
                        lambda *args: calls.append(tuple(args[-1])) or real(*args))
    doc = algebra_to_json(build_taft(3))
    del doc["antipode"]
    h = algebra_from_json(doc)
    assert calls == [(3, 1)] and h._validation is None and h._generating_rows == (3, 1)
    assert h.antipode == build_taft(3).antipode
    assert h.validate().ok and calls == [(3, 1)]
    assert [c.check for c in h.validate().checks][-3:] == [
        "antipode-left", "antipode-right", "antipode-invertible"]


def test_each_distinct_literal_is_parsed_once(monkeypatch):
    doc = algebra_to_json(build_taft(3))
    literals = [t[3] for t in doc["mul"] + doc["comul"]] + doc["unit"] + doc["counit"] \
        + [t[2] for t in doc["antipode"]]
    parsed = []
    parse = FieldSpec.parse
    monkeypatch.setattr(FieldSpec, "parse", lambda self, text: parsed.append(text)
                        or parse(self, text))
    assert algebra_from_json(doc).validate().ok
    assert sorted(parsed) == sorted(set(literals)) and len(parsed) < len(literals) // 10


def test_bad_literal_names_its_own_position():
    # good literals are remembered, bad ones never: each report names the
    # entry it came from
    doc = algebra_to_json(build_taft(3))
    doc["mul"][7][3] = "z^"
    with pytest.raises(AlgebraFileSyntaxError, match=r"^mul\[7\]: "):
        algebra_from_json(doc)
    doc["mul"][7][3] = "1"
    doc["comul"][2][3] = "z^"
    with pytest.raises(AlgebraFileSyntaxError, match=r"^comul\[2\]: "):
        algebra_from_json(doc)


def test_large_dim_loads_without_cubic_allocation(tmp_path):
    # dim comes from the file; a handful of triples must cost memory for the
    # triples, not dim^3 stored entries
    dim = 2000
    doc = {"name": "wide", "field": {"kind": "rational"}, "dim": dim,
           "basis": [f"b{i}" for i in range(dim)],
           "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]],
           "comul": [[0, 0, 0, "1"], [1, 1, 0, "1"]],
           "unit": ["1"] + ["0"] * (dim - 1), "counit": ["1"] * dim}
    path = tmp_path / "wide.alg"
    path.write_text(json.dumps(doc))
    # with an antipode section the read only loads: nothing is synthesized
    with_antipode = tmp_path / "wide-s.alg"
    with_antipode.write_text(json.dumps({**doc, "antipode": [[i, i, "1"] for i in range(dim)]}))
    tracemalloc.start()
    try:
        h = read_algebra(with_antipode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.dim == dim and len(h.mul.terms) == 3 and len(h.comul.terms) == 2
    assert peak < 8 * dim ** 2  # under one pointer per dim^2 entry, let alone dim^3
    with pytest.raises(AlgebraFileSemanticError, match="bialgebra axioms fail: unit"):
        read_algebra(path)


def test_dangling_index_is_semantic_error(tmp_path):
    doc = algebra_to_json(build_sweedler())
    doc["mul"][0] = [0, 0, 99, "1"]
    path = tmp_path / "dangling.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AlgebraFileSemanticError):
        read_algebra(path)


def test_bad_scalar_is_syntax_error(tmp_path):
    doc = algebra_to_json(build_sweedler())
    doc["counit"][0] = "one half"
    path = tmp_path / "badscalar.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AlgebraFileSyntaxError):
        read_algebra(path)


def test_broken_json_reports_position(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text('{"name": "x",')
    with pytest.raises(AlgebraFileSyntaxError) as err:
        read_algebra(path)
    assert "line" in str(err.value)


def test_non_bialgebra_without_antipode_is_semantic_error(tmp_path):
    doc = algebra_to_json(build_sweedler())
    del doc["antipode"]
    doc["comul"] = [t for t in doc["comul"] if t[0] != 1]  # break the counit law for x
    path = tmp_path / "notbialg.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AlgebraFileSemanticError):
        read_algebra(path)


def test_group_table_file(tmp_path):
    path = tmp_path / "z3.group"
    path.write_text(json.dumps({"order": 3, "identity": 0,
                                "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    g = read_group_table(path)
    assert g.order == 3 and g.inverse(1) == 2
    bad = tmp_path / "bad.group"
    bad.write_text(json.dumps({"table": [[0, 1], [1, 1]]}))
    with pytest.raises(GroupTableError):
        read_group_table(bad)


def test_taft_needs_n_at_least_two():
    with pytest.raises(ValueError):
        build_taft(1)


@pytest.mark.parametrize("section,dup_of", [("mul", 0), ("comul", 0), ("antipode", 0)])
def test_duplicate_entry_is_semantic_error(tmp_path, section, dup_of):
    doc = algebra_to_json(build_sweedler())
    entries = doc[section]
    entries.append(list(entries[dup_of][:-1]) + ["7"])
    path = tmp_path / "dup.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AlgebraFileSemanticError) as err:
        read_algebra(path)
    assert f"{section}[{len(entries) - 1}]" in str(err.value)
    assert f"{section}[{dup_of}]" in str(err.value)


def test_boolean_dim_is_rejected(tmp_path):
    doc = algebra_to_json(build_group_algebra(cyclic_group(1), "trivial"))
    doc["dim"] = True
    path = tmp_path / "booldim.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AlgebraFileSyntaxError) as err:
        read_algebra(path)
    assert "dimension" in str(err.value)


@pytest.mark.parametrize("section,item,slot", [
    ("mul", [0, True, 1, "1"], "mul[0]"),
    ("comul", [False, 0, 0, "1"], "comul[0]"),
    ("antipode", [0, True, "1"], "antipode[0]"),
])
def test_boolean_index_is_rejected(tmp_path, section, item, slot):
    doc = algebra_to_json(build_sweedler())
    doc[section][0] = item
    path = tmp_path / "boolindex.alg"
    path.write_text(json.dumps(doc))
    with pytest.raises(AlgebraFileSemanticError) as err:
        read_algebra(path)
    assert f"{slot}: index" in str(err.value) and "not an integer" in str(err.value)


@pytest.mark.parametrize("table,identity,where", [
    ([[False, True], [True, False]], 0, "table[0][0]"),
    ([[0, 1], [1, 0.0]], None, "table[1][1]"),
    ([[0, 1], [1, 0]], False, "identity False"),
    ([[0, 1], [1, 0]], 2, "identity 2"),
])
def test_group_table_bad_entry_or_identity(table, identity, where):
    with pytest.raises(GroupTableError) as err:
        GroupPresentation.from_table(table, identity)
    assert where in str(err.value)
