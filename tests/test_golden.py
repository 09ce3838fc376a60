"""Current output against the golden files of ``tools/regen_golden.py``.

Byte for byte when numpy's version is the one the files record;
otherwise every string, int, bool and verdict exactly and floats to the
script's stated tolerance.  The test session's summary says which mode
ran.  A change that alters output regenerates the files and names each
changed field in CHANGES.md."""

import functools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import regen_golden  # noqa: E402

EXIT_CODES = regen_golden.manifest()["exit_codes"]


@functools.cache
def _inclusion_reports():
    return regen_golden.inclusion_reports()


def _current(name):
    if name in regen_golden.CLI_CASES:
        return regen_golden.run_cli(regen_golden.CLI_CASES[name])
    return _inclusion_reports()[name], None


def test_every_output_has_a_golden_file():
    made = [*regen_golden.CLI_CASES, *_inclusion_reports()]
    assert sorted(made) == sorted(EXIT_CODES)
    assert sorted(p.stem for p in regen_golden.GOLDEN.glob("*.json")) == sorted([*EXIT_CODES, "manifest"])


@pytest.mark.parametrize("name", list(EXIT_CODES))
def test_output_matches_golden(name):
    text, code = _current(name)
    assert code == EXIT_CODES[name]
    want = (regen_golden.GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    if regen_golden.byte_mode():
        assert text == want
    else:
        assert regen_golden.same(json.loads(text), json.loads(want)) is None


def test_tolerant_comparison_keeps_exact_fields_exact():
    assert regen_golden.same({"a": [1.0, "x"]}, {"a": [1.0 + 1e-9, "x"]}) is None
    assert regen_golden.same(1e-15, 3e-15) is None  # rounding level
    assert regen_golden.same({"v": "consistent"}, {"v": "violated"}) == "$.v: 'consistent' != 'violated'"
    assert regen_golden.same({"n": 2}, {"n": 3}) is not None
    assert regen_golden.same({"ok": True}, {"ok": 1}) is not None
    assert regen_golden.same([1.0], [1.1]) is not None
    assert regen_golden.same({"a": 1}, {"b": 1}) is not None
