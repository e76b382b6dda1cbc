"""Golden reports: the full-report text of every builtin and of every
builtin's dual file read back from disk (validated from scratch, as any
file is, where the dual built in memory takes the primal's results), and
the convention-trap corpus output on the cyclotomic builtins, compared
byte for byte with the files under tests/golden/.  Re-record a file only
after a change that alters report text on purpose."""

from importlib import resources
from pathlib import Path

import pytest

from hopfcheck.catalog import builtin, read_algebra, write_algebra
from hopfcheck.cli import check_text, full_report_text
from hopfcheck.duality import build_dual
from hopfcheck.identities import parse_corpus

from conftest import BUILTIN_NAMES

GOLDEN = Path(__file__).parent / "golden"
TRAP_ALGEBRAS = ["taft-3", "taft-4"]


def test_every_builtin_has_a_golden_report():
    reports = [p.stem for p in GOLDEN.glob("*.txt") if not p.stem.startswith("traps-")]
    assert sorted(reports) == sorted(BUILTIN_NAMES + [f"dual-{n}" for n in BUILTIN_NAMES])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_full_report_matches_golden(name):
    text, ok = full_report_text(builtin(name))
    assert ok
    assert text.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dual_file_full_report_matches_golden(name, tmp_path):
    path = tmp_path / f"dual-{name}.alg"
    write_algebra(build_dual(builtin(name)), path)
    text, ok = full_report_text(read_algebra(path))
    assert ok
    assert text.encode("utf-8") == (GOLDEN / f"dual-{name}.txt").read_bytes()


@pytest.mark.parametrize("name", TRAP_ALGEBRAS)
def test_trap_output_matches_golden(name):
    source = resources.files("hopfcheck").joinpath("corpus/convention_traps.ids")
    text, ok = check_text(builtin(name), parse_corpus(source.read_text("utf-8")))
    assert not ok
    assert text.encode("utf-8") == (GOLDEN / f"traps-{name}.txt").read_bytes()
