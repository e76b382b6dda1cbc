"""Golden full reports: the text for every builtin, compared byte for byte
with the files under tests/golden/.  Re-record a file only after a change
that alters report text on purpose."""

from pathlib import Path

import pytest

from hopfcheck.catalog import builtin
from hopfcheck.cli import full_report_text

from conftest import BUILTIN_NAMES

GOLDEN = Path(__file__).parent / "golden"


def test_every_builtin_has_a_golden_report():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_full_report_matches_golden(name):
    text, ok = full_report_text(builtin(name))
    assert ok
    assert text.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
