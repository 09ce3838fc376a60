"""Current output against the golden files of ``tools/regen_golden.py``.

Byte for byte when numpy's version is the one the files record;
otherwise every string, int, bool and verdict exactly and floats to the
script's stated tolerance.  The test session's summary says which mode
ran.  In either mode each CLI case also runs in a fresh process, which
must give the in-process bytes and the recorded exit code.  A change
that alters output regenerates the files and names each changed field in
CHANGES.md."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import regen_golden  # noqa: E402

EXIT_CODES = regen_golden.manifest()["exit_codes"]


@functools.cache
def _reports():
    return regen_golden.reports()


@functools.cache
def _cli_output(name):
    return regen_golden.run_cli(regen_golden.CLI_CASES[name])


def _current(name):
    if name in regen_golden.CLI_CASES:
        return _cli_output(name)
    return _reports()[name], None


def test_every_output_has_a_golden_file():
    made = [*regen_golden.CLI_CASES, *_reports()]
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


@pytest.mark.parametrize("name", list(regen_golden.CLI_CASES))
def test_cli_case_replays_in_a_fresh_process(name):
    # the same bytes from a new interpreter (so no state of this one leaks
    # into the output), and no RuntimeWarning at any point of the run
    path = [str(regen_golden.ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = regen_golden.CLI_CASES[name]
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "domcone.cli", *argv],
        cwd=regen_golden.ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert child.stdout == _cli_output(name)[0].encode("utf-8"), child.stderr.decode()
    assert child.returncode == EXIT_CODES[name]


def _report(name):
    return json.loads(_cli_output(name)[0])


def test_cli_cases_show_what_they_stand_for():
    # what regen_golden.CLI_CASES says of each case, checked on the output
    # itself, so that regenerating the golden files cannot drop it unseen
    assert _report("cli.aperture")["result"]["p"] == "inf"
    assert _report("cli.check-inclusion.p-inf")["result"]["q_interval"]["hi"] == "inf"
    assert _report("cli.eval")["result"]["value"] == "-inf"
    # witness brackets need no expansion: one probe more than the steps, the
    # last of which leaves a bracket whose midpoint rounds onto an end
    far = _report("cli.acdo.far")["result"]
    assert far["probes"] == far["iterations"] + 1
    assert 0.5 * sum(far["bracket"]) in far["bracket"]
    # the exact distance of the identity, where lam 2^-8 underflows
    assert _report("cli.eval.pucci.subnormal-lam")["result"]["boundary_distance_hint"] == 1.0
    # (<A, X> - m) / tr A at m = 1e17, where witnesses m -+ 1 would round to m
    assert _report("cli.acdo.far-offset")["result"]["value"] == -5e16
    # the image is a convex cone, but B is not orthogonal
    *props, structure = _report("cli.verify.structure")["result"]["checks"]
    assert [c["name"] for c in props] == ["downward-closure", "nondegeneracy", "lipschitz"]
    assert all(c["passed"] for c in props)
    assert structure["violations"]
    assert {v["flag"] for v in structure["violations"]} == {"rot_invariant"}
    # m = 1e12: every check passes, though rounding alone passes 3x the root tolerance
    far = _report("cli.verify.far-offset")["result"]["checks"]
    assert [c["name"] for c in far] == ["downward-closure", "nondegeneracy", "lipschitz", "structure"]
    assert all(c["passed"] for c in far)
    assert max(c["max_deviation"] for c in far) > 3e-10
    assert _report("cli.check-inclusion")["result"]["verdict"] == "violated"
    for name, code in [
        ("cli.fundsol.near-origin.n2", "invalid-matrix"),
        ("cli.fundsol.near-origin.n3", "invalid-matrix"),
        ("cli.fundsol.inf", "input"),
        ("cli.eval.overflow", "invalid-matrix"),
        ("cli.acdo.overflow", "invalid-matrix"),
    ]:
        assert _report(name)["error"]["code"] == code
    assert _report("cli.acdo.overflow")["error"]["message"] == "matrix entries must be finite"
    # F and its distance are in the float range, though the formulas pass it
    assert _report("cli.eval.overflow.dominative")["result"] == {"boundary_distance_hint": 8e307, "value": 8e307}
    assert _report("cli.eval.overflow.pucci")["result"] == {"boundary_distance_hint": 4e307, "value": 1.6e308}
    # and so where a trace pairing, or 2 (l2 - l1), does
    assert _report("cli.eval.overflow.linear")["result"] == {"boundary_distance_hint": 8e307, "value": "inf"}
    assert _report("cli.eval.overflow.plain-hull")["result"] == {"boundary_distance_hint": 0.0, "value": 0.0}
    assert _report("cli.eval.overflow.rot-closed")["result"]["value"] == 1.6e308
    assert _report("cli.eval.overflow.example")["result"]["boundary_distance_hint"] == -8.944271909999159e153
