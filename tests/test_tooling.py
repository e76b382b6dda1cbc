"""The benchmark's tracer reaches into the package by name; these tests
fail when a refactor moves or reshapes one of the names it rebinds, so
`hopfbench/run.py --trace 1` cannot break unnoticed.  One pass of each
workload also runs, so a report that no longer matches its recorded digest
fails here too.  The package's public names are pinned as well, so a helper
only the tests use cannot come back into the package unnoticed."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hopfcheck
from hopfcheck.catalog import build_sweedler, builtin
from hopfcheck.duality import PairedSystem, Side
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Matrix, Tensor3, solve
from hopfcheck.scalars import Scalar

BENCH = Path(__file__).resolve().parents[1] / "hopfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look the module up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("hopfbench_spans_under_test", BENCH / "spans.py")


@pytest.fixture
def micro(monkeypatch):
    """micro.py imports its siblings inputs and spans by bare name; they
    resolve from the benchmark directory and leave sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name, None) for name in ("inputs", "spans")}
    try:
        yield _load("hopfbench_micro_under_test", BENCH / "micro.py")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _resolve(owner, attr):
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if cls_name:
        return getattr(module, cls_name).__dict__[attr]
    return getattr(module, attr)


def test_every_traced_target_resolves(spans):
    assert spans.TRACED
    for target in spans.TRACED:
        assert inspect.isfunction(_resolve(target.owner, target.attr)), target


def test_every_counted_target_resolves(spans):
    assert spans.COUNTED
    for owner, attr, op in spans.COUNTED:
        assert inspect.isfunction(_resolve(owner, attr)), (owner, attr)
        assert op in spans.COUNTED_OPS


def test_names_the_tracer_relies_on():
    assert inspect.isfunction(PairedSystem.__dict__["swapped"])
    assert build_sweedler()._validation is None
    assert "_validation" in HopfAlgebra.__slots__
    for attr in ("build_dual", "dual_integrals", "pair_system"):
        assert inspect.isfunction(_resolve("hopfcheck.duality", attr)), attr
    for attr in ("evaluate", "evaluate_side"):
        assert inspect.isfunction(_resolve("hopfcheck.identities", attr)), attr
    # inputs.py writes the relabelled algebras through these
    for attr in ("algebra_to_json", "build_nongroup_monoid_bialgebra"):
        assert inspect.isfunction(_resolve("hopfcheck.catalog", attr)), attr
    assert isinstance(Matrix.__dict__["data"], property)
    assert isinstance(Tensor3.__dict__["from_dict"], classmethod)
    assert inspect.isfunction(_resolve("hopfcheck.linalg:Tensor3", "nonzero"))


def test_public_surface():
    assert sorted(hopfcheck.__all__) == [
        "BUILTIN_BUILDERS", "CheckResult", "FieldSpec", "GroupPresentation", "HopfAlgebra",
        "IdentityProgram", "Matrix", "ModularData", "PairedSystem", "RATIONAL", "Scalar",
        "Tensor3", "ValidationReport", "biduality_check", "build_dual",
        "build_function_algebra", "build_group_algebra", "build_sweedler", "build_taft",
        "builtin", "catalog", "check_dual_modular_pairing", "check_dual_radford",
        "check_modular_adjoints", "check_radford", "compute_antipode", "cyclic_group",
        "cyclotomic_field", "dual_integrals", "duality", "evaluate", "evaluate_corpus",
        "galois_maps", "gram_inverse", "hopf", "identities", "invert", "left_integral",
        "linalg", "load_corpus", "modular", "modular_automorphism", "modular_data",
        "modular_element", "nullspace", "pair_system", "parse_identity", "read_algebra",
        "right_integral", "run_all_checks", "scalars", "scaling_constant", "solve",
        "symmetric_group", "verify", "write_algebra"]
    expected = {
        HopfAlgebra: [
            "antipode", "antipode_inverse", "basis_names", "bialgebra_checks", "comul",
            "comul_terms", "counit", "dim", "dual_tables", "field", "format_element", "mul",
            "mul_terms", "name", "require_valid", "unit", "validate", "with_antipode"],
        Matrix: ["apply", "apply_row", "cols", "column", "data", "field", "identity",
                 "nonzero_columns", "nonzero_rows", "pow", "rows", "transpose", "zero"],
        Scalar: ["coeffs", "den", "field", "inv", "is_one", "is_zero", "num"],
        PairedSystem: ["algebra", "modular", "side", "swapped"],
        Side: ["action_table", "columns", "composed_table", "iterated_coproduct", "made",
               "operator"],
    }
    for cls, names in expected.items():
        assert sorted(n for n in dir(cls) if not n.startswith("_")) == names, cls.__name__


def test_inputs_relabel_keeps_a_valid_algebra():
    # the benchmark writes its inputs through Tensor3.from_dict and nonzero()
    inputs = _load("hopfbench_inputs_under_test", BENCH / "inputs.py")
    source = builtin("taft-3")
    h = inputs.relabel(source, inputs.choose_relabelling(1, "taft-3", source.dim))
    assert h.validate().ok
    assert len(h.mul.terms) == len(source.mul.terms)
    assert len(h.comul.terms) == len(source.comul.terms)
    assert h.mul != source.mul  # the seed-1 relabelling moves the constants


def test_micro_captures_the_sweedler_antipode_system(micro):
    # `--trace 1` times solve on these captures (linalg.solve_ms.*)
    matrix, rhs = micro.antipode_system(1, "sweedler")
    assert (matrix.rows, matrix.cols) == (16, 16)
    assert len(rhs) == 16
    assert len(solve(matrix, rhs)) == 16


def test_taft4_antipode_solve_stays_sparse(micro, monkeypatch):
    # a count, not a timing: the dense kernel made 111,914 Scalar.is_zero
    # plus Scalar.__mul__ calls (111,445 + 469) for this solve; the sparse
    # kernel must stay under a quarter of that
    from hopfcheck.scalars import Scalar
    matrix, rhs = micro.antipode_system(1, "taft-4")
    assert (matrix.rows, matrix.cols) == (256, 256)
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Scalar, "is_zero", counted(Scalar.is_zero))
    monkeypatch.setattr(Scalar, "__mul__", counted(Scalar.__mul__))
    monkeypatch.setattr(Scalar, "__rmul__", counted(Scalar.__rmul__))
    flat = solve(matrix, rhs)
    monkeypatch.undo()
    assert calls[0] <= 111_914 // 4
    assert len(flat) == 256


def test_benchmark_selftest_passes():
    # the benchmark's own self-tests, run as a builder would from the repo
    # root, so a kernel change that breaks the harness fails here too
    result = subprocess.run([sys.executable, "hopfbench/selftest.py"], cwd=BENCH.parent,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


WORKLOADS = [w["name"] for w in
             json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workloads_run_correct(workload):
    # one pass of each declared workload, run as the benchmark is run from
    # the repo root: every job's report must match its recorded digest
    result = subprocess.run([sys.executable, "hopfbench/run.py", "--workload", workload,
                             "--seconds", "0", "--trace", "0"], cwd=BENCH.parent,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
    assert last["metrics"]["ok_ratio"]["value"] == 1.0, last
